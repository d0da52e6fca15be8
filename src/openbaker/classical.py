"""Classical open baker dynamics on the torus [0,1) x [0,1).

A D-baker stretches position by D and compresses momentum by D on each
of D vertical strips; an open baker keeps only a subset of the strips
and lets the rest escape.  This module provides the escape-time
analysis, the self-similar dimensions of the trapped set, the Markov
weight of the multivalued open 3-baker, and the classical transfer
matrix of a quantum toy map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OpenBakerSpec:
    """Branch count D and the strictly increasing set of kept branches."""

    D: int
    kept: tuple[int, ...]

    def __post_init__(self):
        if self.D < 2:
            raise ValueError(f"branch count must be >= 2, got {self.D}")
        kept = tuple(self.kept)
        if not kept:
            raise ValueError("kept branch set must be nonempty")
        if any(not 0 <= b < self.D for b in kept):
            raise ValueError(f"kept branches {kept} out of range for D={self.D}")
        if any(a >= b for a, b in zip(kept, kept[1:])):
            raise ValueError(f"kept branches must be strictly increasing: {kept}")
        object.__setattr__(self, "kept", kept)

    @property
    def s(self) -> int:
        return len(self.kept)

    @property
    def is_open(self) -> bool:
        return self.s < self.D

    @property
    def mu(self) -> float:
        """log s / log D: the partial dimension of the trapped set, 1 for a
        closed map."""
        return math.log(self.s) / math.log(self.D)


B3 = OpenBakerSpec(3, (0, 2))
B5 = OpenBakerSpec(5, (1, 3))
CLOSED_B4 = OpenBakerSpec(4, (0, 1, 2, 3))
OPEN_B4 = OpenBakerSpec(4, (1, 2))


def _leading_run(digits: np.ndarray, kept) -> tuple[np.ndarray, np.ndarray]:
    """For each row of base-D digits, the length of its leading run of
    digits in `kept` and the digit that ends it (-1 if none)."""
    run = np.logical_and.accumulate(np.isin(digits, kept), axis=1).sum(axis=1)
    ends = np.append(digits, np.full((len(digits), 1), -1), axis=1)
    return run, ends[np.arange(len(digits)), run]


def escape_grid(spec: OpenBakerSpec, M: int, direction: str = "forward",
                t_max: int = 100) -> np.ndarray:
    """Escape times at the cell centres ((i+1/2)/M, (j+1/2)/M), an M x M
    int array indexed by position i and momentum j; -1 marks cells still
    trapped after t_max steps.

    A point escapes forward at the first base-D digit of q outside
    spec.kept and backward at the first such digit of p, so each direction
    is one vector of M exact orbits: the centre (2i+1)/(2M) is held as the
    residue r = 2i+1 mod 2M, whose next digit is D r // 2M.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    if M < 1:
        raise ValueError(f"resolution must be >= 1, got {M}")
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    r = 2 * np.arange(M) + 1
    digits = np.empty((M, t_max), dtype=int)
    for n in range(t_max):
        digits[:, n], r = np.divmod(spec.D * r, 2 * M)
    run = _leading_run(digits, spec.kept)[0]
    grid = np.repeat(np.where(run < t_max, run, -1)[:, None], M, axis=1)
    return grid if direction == "forward" else grid.T


def fractal_dimensions(spec: OpenBakerSpec) -> dict:
    """Self-similar dimensions and dwell-time heuristics of the repeller.

    mu = log s / log D is the partial dimension of the trapped set; the
    heuristic 1 - 1/(lambda * tau_dwell) is only a large-dwell-time
    approximation and differs from mu for these maps.
    """
    if not spec.is_open:
        raise ValueError("closed map has no escape: dimensions undefined")
    lyap = math.log(spec.D)
    tau = spec.D / (spec.D - spec.s)
    return {
        "mu": spec.mu,
        "dimK": 2.0 * spec.mu,
        "tau_dwell": tau,
        "lyapunov": lyap,
        "heuristic_mu": 1.0 - 1.0 / (lyap * tau),
    }


def markov_weight(t: float) -> float:
    """f(t) = (sin(3 pi t) / (3 sin(pi t)))^2, period 1, with the removable
    singularity at integer t evaluated to its limit 1."""
    frac = t - math.floor(t + 0.5)
    if abs(frac) < 1e-12:
        return 1.0
    return (math.sin(3 * math.pi * frac) / (3 * math.sin(math.pi * frac))) ** 2


def transfer_matrix(B: np.ndarray) -> np.ndarray:
    """Entrywise squared modulus: the classical Markov (transfer) matrix
    associated with a quantum toy map."""
    B = np.asarray(B)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {B.shape}")
    return np.abs(B) ** 2

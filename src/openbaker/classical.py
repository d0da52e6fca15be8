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
from dataclasses import dataclass, field

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


B3 = OpenBakerSpec(3, (0, 2))
B5 = OpenBakerSpec(5, (1, 3))
CLOSED_B4 = OpenBakerSpec(4, (0, 1, 2, 3))
OPEN_B4 = OpenBakerSpec(4, (1, 2))


def _check_direction(direction: str):
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")


def map_step(spec: OpenBakerSpec, x, direction: str = "forward"):
    """One step of the open baker; None if the point falls in the hole.

    Forward: branch l = floor(D q); (q, p) -> (D q - l, (p + l) / D).
    Backward: the inverse branch is selected by p in [l/D, (l+1)/D).
    """
    _check_direction(direction)
    q, p = x
    if direction == "forward":
        br = int(math.floor(spec.D * q))
        if br not in spec.kept:
            return None
        return (spec.D * q - br, (p + br) / spec.D)
    br = int(math.floor(spec.D * p))
    if br not in spec.kept:
        return None
    return ((q + br) / spec.D, spec.D * p - br)


def escape_time(spec: OpenBakerSpec, x, direction: str = "forward", t_max: int = 1000):
    """Smallest n >= 0 whose n-th iterate sits on a removed strip.

    Checks the iterates n = 0, ..., t_max - 1 and returns None (trapped)
    if none of them has escaped.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    _check_direction(direction)
    for n in range(t_max):
        nxt = map_step(spec, x, direction)
        if nxt is None:
            return n
        x = nxt
    return None


@dataclass
class EscapeGrid:
    """Escape times sampled at cell centers ((i+1/2)/M, (j+1/2)/M).

    times[i, j] holds the escape time of the cell with position index i
    and momentum index j; -1 marks trapped cells.
    """

    resolution: int
    direction: str
    t_max: int
    times: np.ndarray = field(repr=False)


def escape_grid(spec: OpenBakerSpec, M: int, direction: str = "forward",
                t_max: int = 100) -> EscapeGrid:
    """Escape-time grid approximating the incoming (forward) or outgoing
    (backward) tail complement."""
    if M < 1:
        raise ValueError(f"resolution must be >= 1, got {M}")
    times = np.empty((M, M), dtype=int)
    for i in range(M):
        q = (i + 0.5) / M
        for j in range(M):
            p = (j + 0.5) / M
            t = escape_time(spec, (q, p), direction, t_max)
            times[i, j] = -1 if t is None else t
    return EscapeGrid(M, direction, t_max, times)


def fractal_dimensions(spec: OpenBakerSpec) -> dict:
    """Self-similar dimensions and dwell-time heuristics of the repeller.

    mu = log s / log D is the partial dimension of the trapped set; the
    heuristic 1 - 1/(lambda * tau_dwell) is only a large-dwell-time
    approximation and differs from mu for these maps.
    """
    if not spec.is_open:
        raise ValueError("closed map has no escape: dimensions undefined")
    mu = math.log(spec.s) / math.log(spec.D)
    lyap = math.log(spec.D)
    tau = spec.D / (spec.D - spec.s)
    return {
        "mu": mu,
        "dimK": 2.0 * mu,
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

"""Coherent transport through the Walsh-quantized 4-baker cavity.

The closed cavity propagator is the 4-baker quantized with the plain
Walsh transform at N = 4^k.  Two leads occupy the first-digit values 0
and 3; the transmission matrix sums all paths entering through lead 1,
bouncing inside the interior digits {1, 2}, and exiting through lead 2.
Landauer theory then gives the conductance g = tr(t t*), the noise power
P = tr(t t*(1 - t t*)), and the Fano factor F = P / g.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .classical import CLOSED_B4, OPEN_B4
from .quantize import tensor_open_apply_block, walsh_quantize
from .transforms import MAX_DENSE_DIM

# Dense resolvent solves are refused above 4^6 = 4096 (memory budget);
# the truncated series with the tensor-structured apply remains available.
MAX_RESOLVENT_K = 6

# The bounce series stops once a term's Frobenius norm is below this.
SERIES_TOL = 1e-12

# The last bounce series run in this process: its term count, the
# Frobenius norm of its last term and its live lead-1 columns at the end.
# transport_result copies it into the result's diagnostics.
_last_series: dict = {}

SHOT_NOISE_CONSTANT = 11.0 / 80.0
RANDOM_MATRIX_FANO = 1.0 / 8.0


def lead_projectors(k: int):
    """Diagonals of the two lead projectors and the interior projector.

    Returned as three 0/1 vectors of length 4^k selecting first digit 0
    (lead 1), 3 (lead 2), and {1, 2} (interior).  They are mutually
    orthogonal and sum to the identity.
    """
    if k < 1:
        raise ValueError(f"length must be >= 1, got {k}")
    N = 4**k
    first = np.arange(N) // (N // 4)
    return (
        (first == 0).astype(float),
        (first == 3).astype(float),
        ((first == 1) | (first == 2)).astype(float),
    )


def cavity_propagator(k: int) -> np.ndarray:
    """Dense closed-cavity unitary: the V-variant Walsh 4-baker at 4^k."""
    return walsh_quantize(CLOSED_B4, k, "V")


@functools.lru_cache(maxsize=1)
def _shared_propagator(k: int) -> np.ndarray:
    """cavity_propagator(k), built once for all quasi-energies at one k and
    returned read-only.  One entry: the CLI runs its jobs in order, each
    k's quasi-energies back to back, and no 4^k matrix outlives the next k."""
    U = cavity_propagator(k)
    U.flags.writeable = False
    return U


def transmission_matrix(k: int, theta: float = 0.0,
                        method: str = "resolvent") -> np.ndarray:
    """Transmission matrix t(theta) from lead 1 to lead 2, as the
    (N/4) x (N/4) block indexed by the remaining k-1 digits.

    resolvent: e^{i theta} Pi_L2 U (I - e^{i theta} Pi_I U)^{-1} Pi_L1.
    The lead rows of I - e^{i theta} Pi_I U are rows of the identity, so
    only the interior block is solved:
    t = e^{i theta} (U_{L2,L1} + U_{L2,I} X_I) with
    (I - e^{i theta} U_{I,I}) X_I = e^{i theta} U_{I,L1}.
    series: the sum over bounce numbers n of
    e^{i n theta} Pi_L2 U (Pi_I U)^(n-1) Pi_L1, truncated when the
    Frobenius norm of the next term drops below SERIES_TOL.
    Pi_I keeps the interior first digits {1, 2}, so U Pi_I is the
    matrix-free OPEN_B4 tensor apply; each term is one such apply of an
    N-row block of the live lead-1 columns, written into one of two
    blocks reused while no column drops out.  A column drops out once its
    interior rows are exactly zero, since every later term in it is then
    exactly zero; after k - 1 terms the live columns are the 2^(k-1)
    input words {1, 2}^(k-1).  The first block is N x N/4, so k <= 7
    (MAX_DENSE_DIM).
    """
    if k < 1:
        raise ValueError(f"length must be >= 1, got {k}")
    if not math.isfinite(theta):
        raise ValueError(f"quasi-energy must be finite, got {theta}")
    N = 4**k
    n4 = N // 4
    phase = np.exp(1j * theta)
    if method == "resolvent":
        if k > MAX_RESOLVENT_K:
            raise ValueError(
                f"dense resolvent capped at k = {MAX_RESOLVENT_K}; "
                "use method='series'"
            )
        U = _shared_propagator(k)
        lead1, interior, lead2 = slice(0, n4), slice(n4, 3 * n4), slice(3 * n4, N)
        A = -phase * U[interior, interior]
        A[np.diag_indices(2 * n4)] += 1.0
        X = np.linalg.solve(A, phase * U[interior, lead1])
        return phase * (U[lead2, lead1] + U[lead2, interior] @ X)
    if method == "series":
        if N > MAX_DENSE_DIM:
            raise ValueError(f"dense dimension 4**{k} exceeds cap {MAX_DENSE_DIM}")
        n_max = 200 * k
        t = np.zeros((n4, n4), dtype=complex)
        live = np.arange(n4)
        # C holds U (Pi_I U)^(n-1) Pi_L1 applied to the live lead-1 basis
        # columns.  U Pi_I is the OPEN_B4 apply, which reads only the
        # interior rows of C, so its lead rows need no zeroing, the
        # lead-2 rows can be phased in place, and a column with exactly
        # zero interior rows adds nothing to any later term.
        C = tensor_open_apply_block(np.eye(N, n4, dtype=complex), CLOSED_B4, "V")
        UC = np.empty_like(C)
        for n in range(1, n_max + 1):
            term = C[3 * n4:]
            term *= phase**n
            t[:, live] += term
            tail = np.linalg.norm(term)
            if tail < SERIES_TOL:
                _last_series.update(series_terms=n,
                                    series_tail_norm=float(tail),
                                    series_live_columns=len(live))
                return t
            alive = C[n4:3 * n4].any(axis=0)
            if not alive.all():
                C, live = C.compress(alive, axis=1), live[alive]
                UC = np.empty_like(C)
            tensor_open_apply_block(C, OPEN_B4, "V", out=UC)
            C, UC = UC, C
        raise RuntimeError(
            f"transmission series did not converge within {n_max} terms"
        )
    raise ValueError(f"method must be 'resolvent' or 'series', got {method!r}")


@dataclass
class TransportResult:
    """Transmission summary at one quasi-energy."""

    k: int
    theta: float
    T: np.ndarray = field(repr=False)  # transmission eigenvalues, descending
    g: float
    P: float
    F: float | None
    # how t was computed (the series' _last_series); not an artifact field
    diagnostics: dict = field(default_factory=dict, repr=False)

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "theta": self.theta,
            "g": self.g,
            "P": self.P,
            "F": self.F,
            "T": [float(x) for x in self.T],
        }


def transport_quantities(t: np.ndarray, k: int = 0, theta: float = 0.0) -> TransportResult:
    """Transmission eigenvalues (squared singular values of t) and the
    Landauer conductance, noise power, and Fano factor."""
    t = np.asarray(t, dtype=complex)
    sv = np.linalg.svd(t, compute_uv=False)
    T = np.sort(sv**2)[::-1]
    g = float(T.sum())
    P = float((T * (1.0 - T)).sum())
    F = P / g if g > 0 else None
    return TransportResult(k, theta, T, g, P, F)


def transport_result(k: int, theta: float = 0.0,
                     method: str = "resolvent") -> TransportResult:
    """transport_quantities of transmission_matrix(k, theta, method); a
    series result's `diagnostics` holds series_terms, series_tail_norm
    and series_live_columns."""
    res = transport_quantities(transmission_matrix(k, theta, method),
                               k=k, theta=theta)
    if method == "series":
        res.diagnostics = dict(_last_series)
    return res


def transport_asymptotics(results) -> dict:
    """Compare transport results against the large-k asymptotics
    g ~ 4^(k-1)/2 and P ~ (11/80) 2^(k-1), and report the relative spread
    of g over each k's quasi-energies (0.0 for a single one).  Rows keep
    the order of `results`, and the spread lists each k once."""
    rows = []
    g_by_k = {}
    for res in results:
        g_by_k.setdefault(res.k, []).append(res.g)
        rows.append({
            "k": res.k,
            "theta": float(res.theta),
            "g": res.g,
            "g_normalized": res.g / (4 ** (res.k - 1) / 2.0),
            "P": res.P,
            "P_normalized": res.P / 2 ** (res.k - 1),
            "F": res.F,
        })
    spread = []
    for k, gs in g_by_k.items():
        gs = np.asarray(gs)
        rel = float(gs.std() / gs.mean()) if len(gs) > 1 and gs.mean() > 0 else 0.0
        spread.append({"k": k, "g_relative_std": rel})
    return {
        "rows": rows,
        "theta_spread": spread,
        "reference": {
            "shot_noise_constant": SHOT_NOISE_CONSTANT,
            "random_matrix_fano": RANDOM_MATRIX_FANO,
        },
    }

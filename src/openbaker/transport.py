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
from .transforms import MAX_DENSE_DIM, _seed

# Dense resolvent solves are refused above 4^6 = 4096 (memory budget);
# the truncated series with the tensor-structured apply remains available.
MAX_RESOLVENT_K = 6

# The bounce series stops once a term's Frobenius norm is below this.
SERIES_TOL = 1e-12

SHOT_NOISE_CONSTANT = 11.0 / 80.0
RANDOM_MATRIX_FANO = 1.0 / 8.0


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


def transmission_matrix(k: int, theta: float = 0.0, method: str = "resolvent",
                        *, return_diagnostics: bool = False):
    """Transmission matrix t(theta) from lead 1 to lead 2, as the
    (N/4) x (N/4) block indexed by the remaining k-1 digits.

    resolvent: e^{i theta} Pi_L2 U (I - e^{i theta} Pi_I U)^{-1} Pi_L1,
    eliminated along the digits.  Let P_j be the words whose digits
    1..j+1 lie in {1, 2}, so P_0 is the interior.  U sends d_1 ... d_k to
    d_2 ... d_k b: P_{j+1} into P_j, and the rest of P_j into
    P_{j-1} - P_j (into the leads for j = 0), so the system is triangular.
    Only the 2^k words of the core {1, 2}^k can bounce forever: they alone
    are solved for, then each level outward, and lead 2 last, is one
    product with the level inside it.  Only the N/8 lead-1 columns with a
    row in the interior are carried (the one column at k = 1); the others
    of t hold only term 1, written as in the series.  U's entries off this
    structure are walsh_quantize rounding and are not read.
    series: the sum over bounce numbers n of
    e^{i n theta} Pi_L2 U (Pi_I U)^(n-1) Pi_L1, truncated when the
    Frobenius norm of the next term drops below SERIES_TOL.
    The first term is written straight into t: U sends lead-1 basis
    column j to the seed's first column on rows 4j..4j+3.  Pi_I keeps the
    interior first digits {1, 2}, so U Pi_I is the matrix-free OPEN_B4
    tensor apply; each later term is one such apply of an N-row block of
    the live lead-1 columns, written into one of two blocks reused while
    no column drops out.  A column drops out once its interior rows are
    exactly zero, since every later term in it is then exactly zero: the
    first block holds the N/8 columns with a row 4j..4j+3 in the interior,
    and after k - 1 terms the live columns are the 2^(k-1) input words
    {1, 2}^(k-1).  The first block is N x N/8 and t itself N/4 x N/4, so
    k <= 7 (MAX_DENSE_DIM): at k = 8, t alone is 4 GiB.

    With return_diagnostics, returns (t, diagnostics): the series records
    series_terms, the number of terms summed, series_tail_norm, the
    Frobenius norm of the last one, and series_live_columns, the lead-1
    columns live at the end; the resolvent records solve_dim, the
    dimension 2^k of its one dense solve.
    """
    if k < 1:
        raise ValueError(f"length must be >= 1, got {k}")
    if not math.isfinite(theta):
        raise ValueError(f"quasi-energy must be finite, got {theta}")
    N = 4**k
    phase = np.exp(1j * theta)
    if method == "resolvent":
        if k > MAX_RESOLVENT_K:
            raise ValueError(
                f"dense resolvent capped at k = {MAX_RESOLVENT_K}; "
                "use method='series'"
            )
        t, diagnostics = _trapped_resolvent(k, phase)
    elif method == "series":
        if N > MAX_DENSE_DIM:
            raise ValueError(f"dense dimension 4**{k} exceeds cap {MAX_DENSE_DIM}")
        t, diagnostics = _bounce_series(k, phase)
    else:
        raise ValueError(f"method must be 'resolvent' or 'series', got {method!r}")
    return (t, diagnostics) if return_diagnostics else t


def _words(k: int) -> np.ndarray:
    """Base-4 digits of the 4^k words of length k, one row per word."""
    return np.arange(4**k)[:, None] // 4 ** np.arange(k - 1, -1, -1) % 4


def _first_term(k: int, phase: complex) -> tuple[np.ndarray, np.ndarray]:
    """t holding only term 1, and the seed's first column s, which U puts
    on rows 4j..4j+3 for lead-1 basis column j."""
    n4 = 4 ** (k - 1)
    s = _seed(4, "V").conj().T[:, 0]
    t = np.zeros((n4, n4), dtype=complex)
    rows = np.arange(3 * n4, 4 * n4)
    t[rows - 3 * n4, rows // 4] = phase * s[rows % 4]
    return t, s


def _trapped_resolvent(k: int, phase: complex) -> tuple[np.ndarray, dict]:
    """The resolvent of transmission_matrix and its diagnostics."""
    n4 = 4 ** (k - 1)
    U = _shared_propagator(k)
    # trapped[:, j] marks P_j; its last column is the core
    words = _words(k)
    trapped = np.logical_and.accumulate((words == 1) | (words == 2), axis=1)
    cols = np.unique(np.arange(n4, 3 * n4) // 4)
    rows = trapped[:, -1]
    A = -phase * U[np.ix_(rows, rows)]
    A[np.diag_indices(len(A))] += 1.0
    X = np.linalg.solve(A, phase * U[np.ix_(rows, cols)])
    # rows: P_{j-1} - P_j, fed by the level inside it; lead 2 last
    for j in range(k - 1, -1, -1):
        prev = rows
        rows = trapped[:, j - 1] & ~trapped[:, j] if j else words[:, 0] == 3
        X = phase * (U[np.ix_(rows, cols)] + U[np.ix_(rows, prev)] @ X)
    t = _first_term(k, phase)[0]
    t[:, cols] = X
    return t, {"solve_dim": len(A)}


def _bounce_series(k: int, phase: complex) -> tuple[np.ndarray, dict]:
    """The bounce series of transmission_matrix and its diagnostics."""
    N = 4**k
    n4 = N // 4
    n_max = 200 * k
    t, s = _first_term(k, phase)
    # the live columns have a row 4j..4j+3 in the interior: N/8 of them for
    # k >= 2 (at k = 1 the one column reaches lead 1, the interior and lead 2)
    live = np.unique(np.arange(n4, 3 * n4) // 4)
    # C holds U (Pi_I U)^(n-1) Pi_L1 applied to the live lead-1 basis
    # columns.  U Pi_I is the OPEN_B4 apply, which reads only the
    # interior rows of C, so its lead rows need no zeroing, the lead-2
    # rows can be phased in place, and a column with exactly zero
    # interior rows adds nothing to any later term.
    C = np.zeros((N, len(live)), dtype=complex)
    C.reshape(n4, 4, len(live))[live, :, np.arange(len(live))] = s
    UC = np.empty_like(C)
    for n in range(2, n_max + 1):
        tensor_open_apply_block(C, OPEN_B4, "V", out=UC)
        C, UC = UC, C
        term = C[3 * n4:]
        term *= phase**n
        t[:, live] += term
        tail = np.linalg.norm(term)
        if tail < SERIES_TOL:
            return t, {"series_terms": n, "series_tail_norm": float(tail),
                       "series_live_columns": len(live)}
        alive = C[n4:3 * n4].any(axis=0)
        if not alive.all():
            C, live = C.compress(alive, axis=1), live[alive]
            UC = np.empty_like(C)
    raise RuntimeError(
        f"transmission series did not converge within {n_max} terms"
    )


@dataclass
class TransportResult:
    """Transmission summary at one quasi-energy."""

    k: int
    theta: float
    T: np.ndarray = field(repr=False)  # transmission eigenvalues, descending
    g: float
    P: float
    F: float | None
    # how t was computed and decomposed; not an artifact field
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
    Landauer conductance, noise power, and Fano factor.

    t's exact-zero rows and columns are deleted first: they change no
    nonzero singular value and add only exact zeros, so only the nonzero
    core is decomposed (t itself when nothing is deleted), and T is padded
    with exact zeros to min(t.shape) entries.  The result's diagnostics
    record the core's (rows, cols) as svd_shape.
    """
    t = np.asarray(t, dtype=complex)
    rows, cols = t.any(axis=1), t.any(axis=0)
    core = t if rows.all() and cols.all() else t[np.ix_(rows, cols)]
    sv = np.linalg.svd(core, compute_uv=False)
    T = np.zeros(min(t.shape))
    T[:len(sv)] = np.sort(sv**2)[::-1]
    g = float(T.sum())
    P = float((T * (1.0 - T)).sum())
    F = P / g if g > 0 else None
    return TransportResult(k, theta, T, g, P, F,
                           diagnostics={"svd_shape": list(core.shape)})


def _exit_digits(k: int) -> np.ndarray:
    """Digit by which each lead-1 channel 0 d_2 ... d_k leaves the cavity,
    -1 for the trapped words {1, 2}^(k-1): U shifts the digits left, so the
    channel leaves whole at its first d_i in {0, 3} (3: lead 2, 0: lead 1)."""
    exits = np.full(4 ** (k - 1), -1)
    for d in _words(k - 1)[:, ::-1].T:  # d_k first, so the first d_i wins
        exits = np.where((d == 0) | (d == 3), d, exits)
    return exits


def transport_result(k: int, theta: float = 0.0,
                     method: str = "resolvent") -> TransportResult:
    """transport_quantities of transmission_matrix(k, theta, method), with
    only t's 2^(k-1) trapped columns decomposed.  Every other channel
    leaves whole (_exit_digits), so ||t_j|| is exactly 1 or 0; S = [r; t]
    is unitary, so r_j = 0 where ||t_j|| = 1, and t_j is orthogonal to the
    other columns.  Its T is exactly 1.0 or 0.0 and adds exactly 0 to P.
    `diagnostics` holds the method's (solve_dim, or the series_* keys),
    then closed_form_channels, [transmitted, reflected], and svd_shape."""
    t, diagnostics = transmission_matrix(k, theta, method, return_diagnostics=True)
    exits = _exit_digits(k)
    core = transport_quantities(t[:, exits < 0], k=k, theta=theta)
    opened, closed = int((exits == 3).sum()), int((exits == 0).sum())
    # a trapped channel may transmit fully too: T = 1 + 4e-16 at k = 4, theta = 0
    T = np.sort(np.concatenate([np.ones(opened), core.T, np.zeros(closed)]))[::-1]
    g = opened + core.g
    return TransportResult(
        k, theta, T, g, core.P, core.P / g if g > 0 else None,
        diagnostics={**diagnostics, "closed_form_channels": [opened, closed],
                     **core.diagnostics})


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

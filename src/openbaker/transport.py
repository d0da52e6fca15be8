"""Coherent transport through the Walsh-quantized 4-baker cavity.

The closed cavity propagator is the 4-baker quantized with the plain
Walsh transform at N = 4^k.  Two leads occupy the first-digit values 0
and 3; the transmission matrix sums all paths entering through lead 1,
bouncing inside the interior digits {1, 2}, and exiting through lead 2.
Landauer theory then gives the conductance g = tr(t t*), the noise power
P = tr(t t*(1 - t t*)), and the Fano factor F = P / g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classical import CLOSED_B4, OPEN_B4, _kept_words
from .quantize import (_digit_step, _walsh_factor, tensor_open_apply_block,
                       walsh_quantize)
from .transforms import check_dense_dim

# The bounce series stops once a term's Frobenius norm is below this.
SERIES_TOL = 1e-12

SHOT_NOISE_CONSTANT = 11.0 / 80.0
RANDOM_MATRIX_FANO = 1.0 / 8.0


def cavity_propagator(k: int) -> np.ndarray:
    """Dense closed-cavity unitary: the V-variant Walsh 4-baker at 4^k."""
    return walsh_quantize(CLOSED_B4, k, "V")


def transmission_matrix(k: int, theta: float = 0.0, method: str = "resolvent",
                        *, trapped_only: bool = False):
    """Transmission matrix t(theta) from lead 1 to lead 2, as the
    (N/4) x (N/4) block indexed by the remaining k-1 digits.

    Lead-1 column c is the word 0 c_1 ... c_{k-1}, and U shifts the digits
    left, so the channel leaves whole at its first c_i in {0, 3}: its
    column is written in closed form (_closed_form).  Only the 2^(k-1)
    trapped columns, the words {1, 2}^(k-1) (_kept_words), are computed,
    by one of two methods.
    resolvent: e^{i theta} Pi_L2 U (I - e^{i theta} Pi_I U)^{-1} Pi_L1,
    eliminated along the digits.  Let P_j be the words whose digits
    1..j+1 lie in {1, 2}, so P_0 is the interior.  U sends d_1 ... d_k to
    d_2 ... d_k b: P_{j+1} into P_j, and the rest of P_j into
    P_{j-1} - P_j (into the leads for j = 0), so the system is triangular.
    Only the 2^k words of the core {1, 2}^k can bounce forever: they alone
    are solved for, densely, from U's core rows.  The sweep outward is
    the one-digit kernel _digit_step with the factor
    _walsh_factor(CLOSED_B4, "V"): one step sends lead 1 and the core to
    P_{k-2} - P_{k-1}, and each of k - 1 more steps sends the first
    digits {1, 2} of a level to the next level outward, the last one to
    the leads.  No entry of U off the core rows is read.
    series: the sum over bounce numbers n of
    e^{i n theta} Pi_L2 U (Pi_I U)^(n-1) Pi_L1, truncated when the
    Frobenius norm of the next term drops below SERIES_TOL.  U sends
    lead-1 basis column c to column 0 of the one-digit factor
    _walsh_factor(CLOSED_B4, "V") on rows 4c..4c+3, which starts the
    N x 2^(k-1) block.  Pi_I keeps the interior first digits {1, 2}, so
    U Pi_I is the matrix-free OPEN_B4 tensor apply; each later term is
    one such apply to the block of the term before it.  A
    trapped channel's first k - 1 terms are exactly zero, so the stop test
    starts at term k.
    Both methods share one cap, k <= 7 (MAX_DENSE_DIM): the resolvent
    builds the N x N propagator U for its core block, and the full t is
    N/4 x N/4, 4 GiB at k = 8.

    With trapped_only, returns (block, diagnostics) before t is
    allocated: block is t's 2^(k-1) trapped columns, in word order.  The
    series records series_terms, the number of terms summed, and
    series_tail_norm, the Frobenius norm of the last one; the resolvent
    records solve_dim, the dimension 2^k of its one dense solve.
    """
    if k < 1:
        raise ValueError(f"length must be >= 1, got {k}")
    if not math.isfinite(theta):
        raise ValueError(f"quasi-energy must be finite, got {theta}")
    if method == "resolvent":
        trapped_columns = _trapped_resolvent
    elif method == "series":
        trapped_columns = _bounce_series
    else:
        raise ValueError(f"method must be 'resolvent' or 'series', got {method!r}")
    check_dense_dim(4**k)
    phase = np.exp(1j * theta)
    trapped = _kept_words(OPEN_B4, k - 1)
    block, diagnostics = trapped_columns(k, phase, trapped)
    if trapped_only:
        return block, diagnostics
    # t after the block, so it is not held through the method's work
    t = _closed_form(k, phase)
    t[:, trapped] = block
    return t


def _closed_form(k: int, phase: complex) -> np.ndarray:
    """t with each leaving lead-1 column written as its one bounce term and
    the trapped ones left zero.  After a run c_1 ... c_j in {1, 2}, bounce
    j + 1 sends the channel whole into lead 2 as
    phase^(j+1) e_{c_{j+2} ... c_{k-1}} (x) s_0 (x) s_{c_1} (x) ... (x) s_{c_j}
    if c_{j+1} = 3, with s_a column a of the one-digit factor
    _walsh_factor(CLOSED_B4, "V"), and back into lead 1, a zero column,
    if c_{j+1} = 0."""
    n4 = 4 ** (k - 1)
    s = _walsh_factor(CLOSED_B4, "V").T  # row a: s_a
    t = np.zeros((n4, n4), dtype=complex)
    V = s[None, 0]  # s_0 (x) s_{c_1} (x) ... (x) s_{c_j}, one row per c_1 ... c_j
    for j in range(k - 1):
        if j:
            V = (V[:, None, :, None] * s[None, 1:3, None, :]).reshape(2**j, -1)
        # columns c_1 ... c_j 3 q in (c_1 ... c_j, q) order; rows q, then
        # the j + 1 digits of V
        tail = 4 ** (k - 2 - j)
        cols = (4 * _kept_words(OPEN_B4, j)[:, None] + 3) * tail + np.arange(tail)
        t[np.arange(n4).reshape(tail, -1), cols[:, :, None]] = (
            phase ** (j + 1) * V[:, None, :])
    return t


def _trapped_resolvent(k: int, phase: complex,
                       cols: np.ndarray) -> tuple[np.ndarray, dict]:
    """The resolvent's trapped columns `cols` of t, and its diagnostics."""
    U = cavity_propagator(k)
    core = _kept_words(OPEN_B4, k)
    A = -phase * U[np.ix_(core, core)]
    A[np.diag_indices(len(A))] += 1.0
    X = np.linalg.solve(A, phase * U[np.ix_(core, cols)])
    # lead 1 (digit 0, the identity on cols) under the core (digits 1, 2)
    # goes to the words c b; those with b in {0, 3} are P_{k-2} - P_{k-1}
    f = _walsh_factor(CLOSED_B4, "V")
    X = phase * _digit_step(f[::3, :3], np.vstack([np.eye(len(cols)), X]))
    # each step moves one level outward, from the first digits {1, 2};
    # the last one lands on the leads 0, 3
    for _ in range(k - 1):
        X = phase * _digit_step(f[:, 1:3], X)
    return X[len(X) // 2:], {"solve_dim": len(A)}


def _bounce_series(k: int, phase: complex,
                   cols: np.ndarray) -> tuple[np.ndarray, dict]:
    """The bounce series' trapped columns `cols` of t, and its diagnostics."""
    N = 4**k
    n4, m = N // 4, len(cols)
    n_max = 200 * k
    # C holds U (Pi_I U)^(n-1) Pi_L1 applied to the trapped lead-1 basis
    # columns.  U Pi_I is the OPEN_B4 apply, which reads only the
    # interior rows of C, so its lead rows need no zeroing and the lead-2
    # rows can be phased in place.
    C = np.zeros((N, m), dtype=complex)
    C.reshape(n4, 4, m)[cols, :, np.arange(m)] = _walsh_factor(CLOSED_B4, "V")[:, 0]
    t = np.zeros((n4, m), dtype=complex)
    for n in range(1, n_max + 1):
        term = C[3 * n4:]
        term *= phase**n
        t += term
        # Frobenius norm by einsum, not BLAS: from k = 6 a BLAS dot wakes
        # the OpenBLAS worker threads on every term for ~20 us of work,
        # and they spin on after it, so the run's CPU time follows the load
        # on the other cores
        flat = term.view(float).ravel()
        tail = math.sqrt(np.einsum("i,i->", flat, flat))
        if n >= k and tail < SERIES_TOL:
            return t, {"series_terms": n, "series_tail_norm": float(tail)}
        C = tensor_open_apply_block(C, OPEN_B4, "V")
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
    # how t was computed and decomposed; not an artifact field
    diagnostics: dict = field(default_factory=dict, repr=False)

    @property
    def F(self) -> float | None:
        """The Fano factor P / g, None when nothing is transmitted."""
        return self.P / self.g if self.g > 0 else None

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "theta": self.theta,
            "g": self.g,
            "P": self.P,
            "F": self.F,
            "T": [float(x) for x in self.T],
        }


def transport_quantities(t: np.ndarray) -> TransportResult:
    """Transmission eigenvalues (squared singular values of t, descending)
    and the Landauer conductance, noise power, and Fano factor, labelled
    k = 0, theta = 0.0: t alone does not say its word length or
    quasi-energy (transport_result labels its own result)."""
    sv = np.linalg.svd(np.asarray(t, dtype=complex), compute_uv=False)
    T = np.sort(sv**2)[::-1]
    g = float(T.sum())
    P = float((T * (1.0 - T)).sum())
    return TransportResult(0, 0.0, T, g, P)


def transport_result(k: int, theta: float = 0.0,
                     method: str = "resolvent") -> TransportResult:
    """The transport quantities of transmission_matrix(k, theta, method),
    from its 2^(k-1) trapped columns alone: the full t is never built.
    Every other channel leaves whole (_closed_form), so ||t_j|| is
    exactly 1 or 0; S = [r; t] is unitary, so r_j = 0 where ||t_j|| = 1,
    and t_j is orthogonal to the other columns.  Its T is exactly 1.0 or
    0.0 and adds exactly 0 to P.  The digit swap 0 <-> 3 pairs the
    channels that leave through lead 2 with those that leave through
    lead 1, so n = (4^(k-1) - 2^(k-1)) / 2 of each.  `diagnostics` holds
    the method's (solve_dim, or the series_* keys), then
    closed_form_channels, [transmitted, reflected], and svd_shape, the
    [rows, cols] of the trapped columns decomposed."""
    block, diagnostics = transmission_matrix(k, theta, method, trapped_only=True)
    core = transport_quantities(block)
    n = (4 ** (k - 1) - block.shape[1]) // 2
    # a trapped channel may transmit fully too: T = 1 + 4e-16 at k = 4, theta = 0
    T = np.sort(np.concatenate([np.ones(n), core.T, np.zeros(n)]))[::-1]
    return TransportResult(
        k, theta, T, n + core.g, core.P,
        diagnostics={**diagnostics, "closed_form_channels": [n, n],
                     "svd_shape": list(block.shape)})


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

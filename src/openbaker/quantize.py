"""Quantum matrices for closed and open baker's maps.

The standard (DFT) quantization conjugates a block-diagonal stack of
smaller centered DFTs by the full centered DFT; opening the map zeroes
the blocks of the removed branches.  The Walsh quantization replaces the
DFTs by Walsh transforms, which at N = D^k makes the model exactly
solvable; at D = 3 with the half-integer variant it reproduces the
"tilted diagonal" toy matrix entry for entry.
"""

from __future__ import annotations

import numpy as np

from .classical import B3, OpenBakerSpec
from .transforms import (MAX_DENSE_DIM, _centered_dft_adjoint, _seed, build_walsh,
                         check_finite, dft_centered)

# parity_restrict refuses a matrix whose parity commutator has a larger
# entry
COMMUTATOR_TOL = 1e-10
# quantize_open's FFT and parity_restrict's fold take this many columns
# or rows at a time, so their temporaries are N x _CHUNK, not N x N/D or
# N/2 x N/2
_CHUNK = 64


def quantize_closed(D: int, N: int) -> np.ndarray:
    """Unitary quantization of the closed D-baker (Balazs-Voros style):
    G_N^* . blockdiag(G_{N/D}, ..., G_{N/D})."""
    return quantize_open(OpenBakerSpec(D, tuple(range(D))), N)


def quantize_open(spec: OpenBakerSpec, N: int) -> np.ndarray:
    """Subunitary quantization of an open baker: the closed propagator
    truncated by the projector onto the kept strips.  Rank s*N/D, all
    singular values 0 or 1.

    G_N^* . blockdiag(G_{N/D} in the kept slots), one kept column block
    at a time: column block b, holding G_{N/D} in row block b and zeros
    elsewhere, is replaced by its FFT apply of G_N^*, _CHUNK columns at a
    time.  G_N is never formed, the only temporaries are two (N, _CHUNK)
    arrays, and the cost is O(s N^2/D log N), not s N (N/D)^2.  N above
    MAX_DENSE_DIM is refused before anything is allocated.

    The result is column-major, so each kept block is one contiguous
    slice and the removed strips are never written.  Where fresh zeroed
    pages are mapped lazily (calloc of a large array on Linux), those
    strips take no resident memory; elsewhere the result is the same and
    only the chunked temporaries save memory."""
    if N % spec.D != 0 or N < spec.D:
        raise ValueError(f"dimension {N} must be a positive multiple of {spec.D}")
    if N > MAX_DENSE_DIM:
        raise ValueError(f"dense dimension {N} exceeds cap {MAX_DENSE_DIM}")
    n = N // spec.D
    M = np.zeros((N, N), dtype=complex, order="F")
    inner = dft_centered(n)
    for b in spec.kept:
        for c in range(0, n, _CHUNK):
            cols = slice(b * n + c, b * n + min(c + _CHUNK, n))
            M[b * n:(b + 1) * n, cols] = inner[:, c:c + _CHUNK]
            M[:, cols] = _centered_dft_adjoint(M[:, cols])
    return M


def parity_operator(N: int) -> np.ndarray:
    """Signed position reversal: Pi |q_j> = -|q_{N-1-j}>.  Squares to I."""
    if N < 1:
        raise ValueError(f"dimension must be >= 1, got {N}")
    return -np.eye(N)[::-1].astype(complex)


def _sector_sign(N: int, sector: str) -> float:
    if N % 2 != 0:
        raise ValueError(f"parity reduction requires even N, got {N}")
    if sector not in ("even", "odd"):
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")
    return 1.0 if sector == "even" else -1.0


def parity_restrict(B: np.ndarray, sector: str) -> np.ndarray:
    """Restrict a parity-commuting matrix to one parity sector.

    Returns S^* B S, for the isometry S whose columns are the states
    (e_j +/- e_{N-1-j})/sqrt(2) with + for "even", as an index fold of B
    and its reversal R; its nonzero spectrum equals the nonzero spectrum
    of B (1 +/- Pi)/2.  Requires even N.  The parity check and the fold
    read only the top half of B and R, _CHUNK rows at a time, into one
    C-ordered (N/2, N/2) output: the temporaries are (_CHUNK, N), not
    quarter-size.

    Reading B maps no new memory for pages B never wrote (the removed
    strips of quantize_open and build_toy_diagonal read as the shared
    zero page); where pages are not lazily zeroed, the output is the same
    and only the chunked temporaries save memory.
    """
    B = check_finite(B)
    N = B.shape[0]
    sign = _sector_sign(N, sector)
    R = B[::-1, ::-1]
    h = N // 2
    out = np.empty((h, h), dtype=complex)
    comm = 0.0
    for i in range(0, h, _CHUNK):
        rows = slice(i, min(i + _CHUNK, h))
        # B Pi - Pi B = J (B - R) with J the plain reversal: the same max
        # entry.  Rows h.. of B - R are rows ..h reversed and negated, so
        # the top half holds every modulus.
        comm = max(comm, np.max(np.abs(B[rows] - R[rows])))
        # 0.5 * (B1 + R1 + sign * (B2 + R2)) in place, in this order, so
        # the output is the expression's bit for bit
        fold = np.add(B[rows, :h], R[rows, :h], out=out[rows])
        mirrored = B[rows, N - 1:h - 1:-1] + R[rows, N - 1:h - 1:-1]
        mirrored *= sign
        fold += mirrored
        fold *= 0.5
    if comm > COMMUTATOR_TOL:
        raise ValueError(
            f"matrix does not commute with parity: max commutator entry {comm:.3e}"
        )
    return out


def _walsh_diagonal(spec: OpenBakerSpec, N: int, variant: str) -> np.ndarray:
    """The Walsh quantization of an open D-baker as its tilted diagonals:
    entry (D l + eps, l + ell*N/D), ell kept, is the seed-adjoint entry
    exp((2 pi i/D)(eps+c)(ell+c))/sqrt(D), with c = 1/2 for variant "W"
    and 0 for "V"; every other entry is an exact zero.  Each of the s*D
    (eps, ell) diagonals is one write over all l.  The result is
    column-major, so each removed strip is one contiguous slice that is
    never written (see quantize_open)."""
    D = spec.D
    if N % D != 0 or N < D:
        raise ValueError(f"dimension {N} must be a positive multiple of {D}")
    if N > MAX_DENSE_DIM:
        raise ValueError(f"dense dimension {N} exceeds cap {MAX_DENSE_DIM}")
    c = {"W": 0.5, "V": 0.0}[variant]
    B = np.zeros((N, N), dtype=complex, order="F")
    l = np.arange(N // D)
    for ell in spec.kept:
        for eps in range(D):
            B[D * l + eps, l + ell * N // D] = np.exp(
                2j * np.pi / D * (eps + c) * (ell + c)) / np.sqrt(D)
    return B


def build_toy_diagonal(N: int) -> np.ndarray:
    """Toy model of the open 3-baker: only the tilted-diagonal entries
    (n, m) = (3l + eps, l + ell*N/3), ell in {0, 2}, survive, with moduli
    fixed to 1/sqrt(3) and phases exp((2 pi i/3)(eps+1/2)(ell+1/2)).  At
    N = 3^k it is the "W" Walsh quantization of B3."""
    return _walsh_diagonal(B3, N, "W")


def walsh_quantize(spec: OpenBakerSpec, k: int, variant: str = "W") -> np.ndarray:
    """Walsh quantization of a (possibly open) D-baker at N = D^k:
    S_k^* . blockdiag with S_{k-1} in the kept slots.  Unitary when the
    map is closed; equals _walsh_diagonal's tilted diagonals up to
    rounding, and so build_toy_diagonal for the 3-baker with the
    half-integer variant.

    Row block b of S_k is S_{k-1} (x) F[b, :] (build_walsh), so kept column
    block b is (S_{k-1}^* S_{k-1}) (x) F[b, :]^*: one Gram product of n^3
    flops for all blocks, n = N/D, then one broadcast write per kept
    block.  S_k itself is never formed."""
    if k < 1:
        raise ValueError(f"length must be >= 1, got {k}")
    D = spec.D
    N = D**k
    if N > MAX_DENSE_DIM:
        raise ValueError(f"dense dimension {D}**{k} exceeds cap {MAX_DENSE_DIM}")
    M = np.zeros((N, N), dtype=complex)
    inner = build_walsh(D, k - 1, variant)
    gram = inner.conj().T @ inner
    F = _seed(D, variant)
    n = len(inner)
    for b in spec.kept:
        np.multiply(gram[:, None, :], F[b, :, None].conj(),
                    out=M.reshape(n, D, D, n)[:, :, b, :])
    return M


def tensor_open_apply_block(X: np.ndarray, spec: OpenBakerSpec,
                            variant: str = "W") -> np.ndarray:
    """Matrix-free application of the Walsh-quantized baker to each column
    of an (N, m) array:
    v_1 x ... x v_k  ->  v_2 x ... x v_k x (S pi_kept v_1),
    with seed S = G_D^* (variant W) or F_D^* (variant V).

    One batched product Y[r, b, :] = sum_a S[b, a] X[a, r, :] over the
    first digits a from the smallest to the largest kept one, which is
    the new (N, m) array in natural order.  Only those digit blocks of X
    are read; removed digits inside that range enter through zeroed seed
    columns."""
    X = np.asarray(X, dtype=complex)
    N, m = X.shape
    D = spec.D
    if N % D != 0:
        raise ValueError(f"state length {N} is not divisible by {D}")
    lo, hi = spec.kept[0], spec.kept[-1] + 1
    seed = _seed(D, variant).conj().T[:, lo:hi]
    seed[:, [a - lo for a in range(lo, hi) if a not in spec.kept]] = 0.0
    return np.matmul(seed, X.reshape(D, N // D, m)[lo:hi].transpose(1, 0, 2)
                     ).reshape(N, m)

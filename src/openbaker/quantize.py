"""Quantum matrices for closed and open baker's maps.

The standard (DFT) quantization conjugates a block-diagonal stack of
smaller centered DFTs by the full centered DFT; opening the map zeroes
the blocks of the removed branches.  The Walsh quantization replaces the
DFTs by Walsh transforms, which at N = D^k makes the model exactly
solvable; at D = 3 with the half-integer variant it reproduces the
"tilted diagonal" toy matrix entry for entry.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

from .classical import B3, OpenBakerSpec
from .transforms import (_centered_dft_adjoint, build_walsh, check_dense_dim,
                         check_finite, dft_centered)

# parity_restrict refuses a matrix whose parity commutator has a larger
# entry
COMMUTATOR_TOL = 1e-10
# quantize_open's FFT takes this many columns at a time and
# parity_restrict's fold this many column pairs, so their temporaries are
# N x _CHUNK and N/2 x _CHUNK, not N x N/D or N/2 x N/2
_CHUNK = 64


def quantize_closed(D: int, N: int) -> np.ndarray:
    """Unitary quantization of the closed D-baker (Balazs-Voros style):
    G_N^* . blockdiag(G_{N/D}, ..., G_{N/D})."""
    return quantize_open(OpenBakerSpec(D, tuple(range(D))), N)


def _lazy_zeros(shape, dtype, order) -> np.ndarray:
    """np.zeros(shape, dtype, order) on 4 KiB pages, for an array whose
    pages are mostly never written.

    numpy advises 2 MiB huge pages for every array of 4 MiB or more, so a
    single write faults in all of its 2 MiB page.  These zeros come from
    a private anonymous map with huge pages advised off: each 4 KiB page
    becomes resident at its first write, and a read of an untouched page
    maps the shared zero page.  (A shared map is shmem, where a read
    allocates the page.)  Where mmap has no MAP_PRIVATE, this is
    np.zeros."""
    if not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros(shape, dtype, order)
    dtype = np.dtype(dtype)
    buf = mmap.mmap(-1, math.prod(shape) * dtype.itemsize, flags=mmap.MAP_PRIVATE)
    # a kernel whose transparent huge pages are "always" backs every
    # anonymous map with them unless advised off
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype).reshape(shape, order=order)


def _open_zeros(D: int, N: int, zeros) -> np.ndarray:
    """The column-major N x N complex zeros an open D-baker's map is
    written into, from the allocator `zeros` (np.zeros or _lazy_zeros),
    once N is checked: a positive multiple of D, and at most
    MAX_DENSE_DIM."""
    if N % D != 0 or N < D:
        raise ValueError(f"dimension {N} must be a positive multiple of {D}")
    check_dense_dim(N)
    return zeros((N, N), complex, "F")


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
    slice and the removed strips are never written.  It comes from
    np.zeros: where numpy advises huge pages for it (Linux), the kept
    strips, written densely, fill whole 2 MiB pages and the removed strips
    stay unwritten pages that take no resident memory; elsewhere the
    result is the same and only the chunked temporaries save memory."""
    M = _open_zeros(spec.D, N, np.zeros)
    n = N // spec.D
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
    of B (1 +/- Pi)/2.  Requires even N.

    Output column j < N/2 reads only columns j and N-1-j of B, so the
    parity check and the fold walk these column pairs, _CHUNK pairs at a
    time, into one column-major (N/2, N/2) output from _lazy_zeros; the
    one temporary is an (N/2, _CHUNK) scratch block.  A block of pairs
    whose columns of B are all zero is skipped: its commutator entries
    are zero and its output columns keep their fresh zeros, the +0.0
    that the fold gives for +0.0 entries.  The removed strips of
    quantize_open and _walsh_diagonal are such columns.  Reading them
    maps no new memory (pages B never wrote read as the shared zero
    page), and the 4 KiB pages that hold only the output columns they
    fold onto are never written, so they take no resident memory.
    """
    B = check_finite(B)
    N = B.shape[0]
    sign = _sector_sign(N, sector)
    h = N // 2
    out = _lazy_zeros((h, h), complex, "F")
    scratch = np.empty((h, _CHUNK), dtype=complex, order="F")
    comm = 0.0
    for j in range(0, h, _CHUNK):
        cols = slice(j, min(j + _CHUNK, h))
        # columns j.. of B and their mirrors N-1-j.., pair by pair
        B1, B2 = B[:, cols], B[:, N - 1 - j:N - 1 - cols.stop:-1]
        if not (B1.any() or B2.any()):
            continue
        tmp = scratch[:, :cols.stop - cols.start]
        # with R the reversal of B, R1 = R[:h, cols] is the bottom half of
        # the mirrors reversed, and R2 that of the columns
        R1, R2 = B2[N - 1:h - 1:-1], B1[N - 1:h - 1:-1]
        B1, B2 = B1[:h], B2[:h]
        # B Pi - Pi B = J (B - R) with J the plain reversal: the same max
        # entry.  Rows h.. of B - R are rows ..h reversed and negated, so
        # the top half of both columns of each pair holds every modulus.
        for top, mirror in ((B1, R1), (B2, R2)):
            comm = max(comm, np.max(np.abs(np.subtract(top, mirror, out=tmp))))
        # 0.5 * (B1 + R1 + sign * (B2 + R2)) in place, in this order, so
        # the output is the expression's bit for bit
        fold = np.add(B1, R1, out=out[:, cols])
        mirrored = np.add(B2, R2, out=tmp)
        mirrored *= sign
        fold += mirrored
        fold *= 0.5
    if comm > COMMUTATOR_TOL:
        raise ValueError(
            f"matrix does not commute with parity: max commutator entry {comm:.3e}"
        )
    return out


def _walsh_factor(spec: OpenBakerSpec, variant: str) -> np.ndarray:
    """The Walsh map's one-digit factor: the D x D seed adjoint with the
    removed columns zeroed.  Column ell, ell kept, holds
    exp((2 pi i/D)(eps+c)(ell+c))/sqrt(D) over eps = 0..D-1, with c = 1/2
    for variant "W" and 0 for "V"; every other column is exact zeros.
    The single source of the entries of _walsh_diagonal, the block apply
    _digit_step (tensor_open_apply_block, and the cavity resolvent's
    outward sweep) and the cavity's closed form; the transform-built
    walsh_quantize reads build_walsh's one-digit transform instead.
    Column-major, so the block apply's column range is one contiguous
    block: a strided factor sends a one-column product through another
    BLAS kernel, which rounds differently."""
    D, c, ell = spec.D, {"W": 0.5, "V": 0.0}.get(variant), np.array(spec.kept)
    if c is None:
        raise ValueError(f"variant must be 'V' or 'W', got {variant!r}")
    f = np.zeros((D, D), dtype=complex, order="F")
    f[:, ell] = np.exp(2j * np.pi / D * (np.arange(D)[:, None] + c) * (ell + c))
    return f / np.sqrt(D)


def _walsh_diagonal(spec: OpenBakerSpec, N: int, variant: str) -> np.ndarray:
    """The Walsh quantization of an open D-baker as its tilted diagonals:
    entry (D l + eps, l + ell*N/D), ell kept, is entry (eps, ell) of the
    one-digit factor _walsh_factor; every other entry is an exact zero.
    Each kept ell's D diagonals are one write over all l.  The result is
    column-major, so each removed strip is one contiguous slice that is
    never written (see quantize_open).  It comes from _lazy_zeros: a kept
    column holds D entries in D consecutive rows, so about one 4 KiB page
    per kept column becomes resident, not the whole kept strip."""
    D = spec.D
    B = _open_zeros(D, N, _lazy_zeros)
    f = _walsh_factor(spec, variant)
    l = np.arange(N // D)
    for ell in spec.kept:
        B[D * l + np.arange(D)[:, None], l + ell * N // D] = f[:, ell, None]
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
    map is closed; its entries off the tilted diagonals are exact zeros,
    and on them it equals _walsh_diagonal up to rounding, and so
    build_toy_diagonal for the 3-baker with the half-integer variant.

    Row block b of S_k is S_{k-1} (x) S_1[b, :] (build_walsh), so kept
    column block b is (S_{k-1}^* S_{k-1}) (x) S_1[b, :]^*, and the Gram
    product is I_n, n = N/D, since S_{k-1} is a tensor power of a unitary
    seed.  So kept block b is written as I_n (x) S_1[b, :]^*, one write
    on its n tilted diagonals, and neither S_k, S_{k-1} nor the Gram
    product is formed.  The result is column-major zeros from
    _lazy_zeros, as in _walsh_diagonal: a kept column's D entries lie in
    D consecutive rows, so about one 4 KiB page per kept column becomes
    resident."""
    if k < 1:
        raise ValueError(f"length must be >= 1, got {k}")
    D, n = spec.D, spec.D ** (k - 1)
    M = _open_zeros(D, D * n, _lazy_zeros)
    S1 = build_walsh(D, 1, variant)
    # M.T is C-ordered, so this is a view: [b, l, l', eps] is
    # M[D l' + eps, b n + l]
    blocks = M.T.reshape(D, n, n, D)
    l = np.arange(n)
    for b in spec.kept:
        blocks[b, l, l, :] = S1[b, :].conj()
    return M


def _digit_step(f: np.ndarray, X: np.ndarray) -> np.ndarray:
    """One digit of a Walsh map on the rows of a block: the rows (a, r)
    of X, with the first digit a over f's columns, go to the rows (r, b)
    of Y = sum_a f[b, a] X[(a, r)], in one batched product.  The one
    implementation of a Walsh map applied to a block: f is a slice of
    _walsh_factor, so a sweep over a subset of the digits is the map
    restricted to those words."""
    m = X.shape[1]
    return np.matmul(f, X.reshape(f.shape[1], -1, m).transpose(1, 0, 2)).reshape(-1, m)


def tensor_open_apply_block(X: np.ndarray, spec: OpenBakerSpec,
                            variant: str = "W") -> np.ndarray:
    """Matrix-free application of the Walsh-quantized baker to each column
    of an (N, m) array:
    v_1 x ... x v_k  ->  v_2 x ... x v_k x (f v_1),
    with f the one-digit factor _walsh_factor, whose entries
    _walsh_diagonal writes: on an identity the apply is that map bit for
    bit.

    A wrapper of _digit_step on the first digits from the smallest to the
    largest kept one, kept public because the benchmark traces it.  Only
    those digit blocks of X are read; removed digits inside that range
    enter through the factor's zero columns."""
    N, m = X.shape
    if N % spec.D != 0:
        raise ValueError(f"state length {N} is not divisible by {spec.D}")
    lo, hi = spec.kept[0], spec.kept[-1] + 1
    return _digit_step(_walsh_factor(spec, variant)[:, lo:hi],
                       X[lo * N // spec.D:hi * N // spec.D])

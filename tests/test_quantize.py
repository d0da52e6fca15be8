"""Quantum propagators: DFT quantizations, parity reduction, the toy
diagonal matrix, and the Walsh quantizations with their tensor applies."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from openbaker import quantize
from openbaker.classical import B3, B5, CLOSED_B4, OPEN_B4, OpenBakerSpec
from openbaker.cli import build_map
from openbaker.quantize import (_CHUNK, _walsh_factor, build_toy_diagonal,
                                parity_operator, parity_restrict,
                                quantize_closed, quantize_open,
                                tensor_open_apply_block, walsh_quantize)
from openbaker.transforms import MAX_DENSE_DIM, _seed, build_walsh, dft_centered
from reference import (dense_quantization, one_expression_fold, parity_isometry,
                       tensor_state, toy_diagonal_by_entry)


def unitarity_defect(M):
    return np.max(np.abs(M.conj().T @ M - np.eye(M.shape[0])))


def exp_dft(N):
    """Centered DFT straight from its exponential formula."""
    g = np.arange(N) + 0.5
    return np.exp(-2j * np.pi * np.outer(g, g) / N) / np.sqrt(N)


def reversal(N):
    return np.eye(N)[::-1]


# --------------------------------------------------------- closed / open

@pytest.mark.parametrize("D,N", [(2, 8), (3, 9), (3, 27), (5, 20)])
def test_quantize_closed_is_unitary(D, N):
    assert unitarity_defect(quantize_closed(D, N)) < 1e-12


def test_smallest_closed_3baker_is_scaled_inverse_dft():
    # [PAPER] at N = D the inner blocks are the 1x1 transform -i, so the
    # closed quantization collapses to A = -i G_3^*
    A = quantize_closed(3, 3)
    G = dft_centered(3)
    assert np.max(np.abs(A - (-1j) * G.conj().T)) < 1e-14


def test_quantize_rejects_bad_dimension():
    with pytest.raises(ValueError):
        quantize_closed(3, 10)
    with pytest.raises(ValueError):
        quantize_open(B5, 12)


@pytest.mark.parametrize("spec,N", [(B3, 27), (B5, 20), (B5, 100), (OPEN_B4, 16)])
def test_open_map_singular_values_are_zero_or_one(spec, N):
    # [PAPER] the open map is a unitary times a projector
    sv = np.linalg.svd(quantize_open(spec, N), compute_uv=False)
    assert np.all(np.minimum(np.abs(sv - 1.0), np.abs(sv)) < 1e-12)
    rank = int(np.count_nonzero(sv > 0.5))
    assert rank == spec.s * N // spec.D


@pytest.mark.parametrize("spec,N", [(B3, 9), (B3, 27), (B5, 20), (B5, 100),
                                    (OPEN_B4, 16), (OpenBakerSpec(4, (0, 3)), 32),
                                    (B5, 500), (B3, 324),
                                    (OpenBakerSpec(7, (1, 3, 5)), 98)])
def test_quantize_open_matches_dense_block_stack(spec, N):
    # [DERIVED] the FFT-built kept blocks against the dense formula
    ref = dense_quantization(dft_centered(N), spec.D, spec.kept,
                             dft_centered(N // spec.D))
    assert np.max(np.abs(quantize_open(spec, N) - ref)) < 1e-12


@pytest.mark.parametrize("D,N", [(2, 2), (2, 16), (3, 27), (5, 50)])
def test_quantize_closed_matches_dense_block_stack(D, N):
    ref = dense_quantization(dft_centered(N), D, range(D), dft_centered(N // D))
    assert np.max(np.abs(quantize_closed(D, N) - ref)) < 1e-12


@pytest.mark.parametrize("spec,k,variant", [(B3, 1, "W"), (B3, 4, "W"),
                                            (OPEN_B4, 3, "V"), (CLOSED_B4, 3, "V"),
                                            (CLOSED_B4, 2, "W"), (B5, 2, "V"),
                                            (OpenBakerSpec(2, (0, 1)), 6, "V"),
                                            (OpenBakerSpec(7, (1, 3, 5)), 2, "W"),
                                            (B5, 3, "W"), (CLOSED_B4, 5, "V")])
def test_walsh_quantize_matches_dense_block_stack(spec, k, variant):
    # [DERIVED] the kept blocks written as I (x) S_1[b, :]^* against the
    # dense product with S_k; the largest deviation measured up to k = 6
    # is 2.2e-15
    ref = dense_quantization(build_walsh(spec.D, k, variant), spec.D, spec.kept,
                             build_walsh(spec.D, k - 1, variant))
    assert np.max(np.abs(walsh_quantize(spec, k, variant) - ref)) < 1e-12


@pytest.mark.parametrize("build", [
    lambda N: quantize_open(OpenBakerSpec(2, (1,)), N),
    lambda N: quantize_closed(2, N),
], ids=["open", "closed"])
def test_dft_quantize_refuses_oversized_before_allocating(monkeypatch, build):
    # 2^14 + 2 exceeds MAX_DENSE_DIM: refused before the dense N x N matrix
    # is allocated; 2^14 still reaches it
    def zeros(*args, **kwargs):
        raise RuntimeError("dense DFT matrix allocated")

    monkeypatch.setattr(np, "zeros", zeros)
    with pytest.raises(ValueError, match=f"exceeds cap {MAX_DENSE_DIM}"):
        build(MAX_DENSE_DIM + 2)
    with pytest.raises(RuntimeError, match="allocated"):
        build(MAX_DENSE_DIM)


@pytest.mark.parametrize("spec", [B3, B5, CLOSED_B4, OPEN_B4, OpenBakerSpec(2, (0, 1)),
                                  OpenBakerSpec(7, (1, 3, 5))])
@pytest.mark.parametrize("variant", ["V", "W"])
def test_walsh_quantize_is_exact_off_the_tilted_diagonals(spec, variant):
    # the transform-built map has _walsh_diagonal's zero pattern exactly,
    # and on the tilted diagonals the two differ only by their two
    # evaluations of each phase: measured 0 for every "V" map with
    # D <= 5, at most 4.7 machine epsilons per real or imaginary part for
    # "W" (1.05e-15 in modulus) and 5.9 for D = 7 "V", the bound of
    # test_walsh_factor_is_the_seed_up_to_rounding
    for k in range(1, 7):
        N = spec.D**k
        if N > 1024:
            break
        M = walsh_quantize(spec, k, variant)
        R = quantize._walsh_diagonal(spec, N, variant)
        assert np.array_equal(M == 0, R == 0)
        diff = M - R
        assert max(np.abs(diff.real).max(), np.abs(diff.imag).max()) <= 6 * np.finfo(float).eps


def test_walsh_quantize_refuses_oversized_before_allocating(monkeypatch):
    # 3^9 exceeds MAX_DENSE_DIM: refused before the dense 3^9 x 3^9 matrix
    # is allocated; 3^8 still reaches it
    def zeros(*args, **kwargs):
        raise RuntimeError("dense Walsh matrix allocated")

    monkeypatch.setattr(quantize, "_lazy_zeros", zeros)
    with pytest.raises(ValueError, match=f"exceeds cap {MAX_DENSE_DIM}"):
        walsh_quantize(B3, 9)
    with pytest.raises(RuntimeError, match="allocated"):
        walsh_quantize(B3, 8)


# ---------------------------------------------------------------- parity

def test_parity_operator_squares_to_identity():
    P = parity_operator(6)
    assert np.max(np.abs(P @ P - np.eye(6))) == 0.0
    assert P[0, 5] == -1.0  # signed reversal


def test_parity_operator_rejects_empty():
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        parity_operator(0)


@pytest.mark.parametrize("spec,N", [(B3, 9), (B5, 20), (B5, 100)])
def test_symmetric_open_maps_commute_with_parity(spec, N):
    # [PAPER] kept-strip sets symmetric under l -> D-1-l commute with parity
    B = quantize_open(spec, N)
    P = parity_operator(N)
    assert np.max(np.abs(B @ P - P @ B)) < 1e-12


def test_parity_isometries_span_eigenspaces():
    N = 10
    P = parity_operator(N)
    Se = parity_isometry(N, "even")
    So = parity_isometry(N, "odd")
    # orthonormal columns, orthogonal sectors
    assert np.max(np.abs(Se.conj().T @ Se - np.eye(N // 2))) < 1e-14
    assert np.max(np.abs(So.conj().T @ So - np.eye(N // 2))) < 1e-14
    assert np.max(np.abs(Se.conj().T @ So)) < 1e-14
    # the symmetric-amplitude sector is the -1 eigenspace of the signed
    # reversal, the antisymmetric sector its +1 eigenspace
    assert np.max(np.abs(P @ Se + Se)) < 1e-14
    assert np.max(np.abs(P @ So - So)) < 1e-14


def test_parity_restrict_preserves_nonzero_spectrum():
    # [DERIVED] eigenvalues of the two sector blocks, merged, reproduce the
    # full nonzero spectrum
    N = 20
    B = quantize_open(B5, N)
    full = np.linalg.eigvals(B)
    merged = np.concatenate([
        np.linalg.eigvals(parity_restrict(B, "even")),
        np.linalg.eigvals(parity_restrict(B, "odd")),
    ])
    rank = 2 * N // 5
    top_full = sorted(full, key=abs, reverse=True)[:rank]
    pool = sorted(merged, key=abs, reverse=True)[:rank]
    for z in top_full:
        j = int(np.argmin(np.abs(np.array(pool) - z)))
        assert abs(pool[j] - z) < 1e-10
        pool.pop(j)


@pytest.mark.parametrize("N", [2, 10, 64])
@pytest.mark.parametrize("sector", ["even", "odd"])
def test_parity_restrict_matches_isometry_conjugation(N, sector):
    # [DERIVED] the index fold against S^* B S on a random matrix
    # X + J X J, which commutes with the reversal J and hence with parity
    rng = np.random.default_rng(N)
    X = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    J = reversal(N)
    B = X + J @ X @ J
    S = parity_isometry(N, sector)
    assert np.max(np.abs(parity_restrict(B, sector) - S.conj().T @ B @ S)) < 1e-12


def test_even_sector_spectrum_matches_dense_parity_path():
    # [DERIVED] at N = 500 the eigenvalues of the folded even sector agree
    # with those of S^* (G^* . blockstack) S, with G from the exponential
    # formula, outside the pseudospectral scatter around the kernel
    N = 500
    dense = dense_quantization(exp_dft(N), 5, B5.kept, exp_dft(N // 5))
    S = parity_isometry(N, "even")
    ref = np.linalg.eigvals(S.conj().T @ dense @ S)
    new = np.linalg.eigvals(parity_restrict(quantize_open(B5, N), "even"))
    ref = ref[np.abs(ref) > 1e-2]
    new = new[np.abs(new) > 1e-2]
    assert len(new) == len(ref) > 0
    pool = list(ref)
    for z in new:
        j = int(np.argmin(np.abs(np.array(pool) - z)))
        assert abs(pool.pop(j) - z) < 1e-9


@pytest.mark.parametrize("N", [20, 500])
@pytest.mark.parametrize("sector", ["even", "odd"])
def test_parity_restrict_is_the_one_expression_fold(N, sector):
    # [DERIVED] the in-place fold does the one-expression fold's
    # operations in the same order: bitwise the same output
    B = quantize_open(B5, N)
    assert np.array_equal(parity_restrict(B, sector), one_expression_fold(B, sector))


def parity_commuting(N, seed=0):
    """A random matrix within 1e-12 of commuting with parity, so B and
    its reversal differ in every entry."""
    rng = np.random.default_rng(seed)
    X, Y = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            for _ in range(2))
    return X + X[::-1, ::-1] + 1e-12 * Y


@pytest.mark.parametrize("N", [2, 20, 2 * _CHUNK, 2 * _CHUNK + 2])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("sector", ["even", "odd"])
def test_chunked_fold_is_the_one_expression_fold(N, order, sector):
    # half-sizes below, at and just above a multiple of the chunk, in
    # either memory layout: every entry sees the same operations
    B = np.asarray(parity_commuting(N), order=order)
    out = parity_restrict(B, sector)
    assert out.flags.f_contiguous
    assert np.array_equal(out, one_expression_fold(B, sector))


def test_chunked_fold_checks_the_last_chunk():
    N = 2 * _CHUNK + 2
    # the last row of the top half, and the last block's one column pair
    for row, col in ((N // 2 - 1, 5), (5, N // 2 - 1)):
        B = parity_commuting(N)
        B[row, col] += 1e-3
        with pytest.raises(ValueError, match="max commutator entry 1.000e-03"):
            parity_restrict(B, "even")


@pytest.mark.parametrize("build", [lambda: quantize_open(B5, 500),
                                   lambda: quantize_closed(5, 500),
                                   lambda: build_map("walsh", OPEN_B4, 4**4, "W")],
                         ids=["open-B5", "closed-B5", "walsh-OPEN_B4-W"])
def test_every_fold_is_column_major(build):
    # one layout whether the fold skips pair blocks (the open maps') or
    # writes every column (the closed map's)
    assert parity_restrict(build(), "even").flags.f_contiguous


def bits(a):
    """The bytes of a, row by row: equal bits tell +0.0 from -0.0."""
    return np.ascontiguousarray(a).view(np.uint8)


FOLD_CASES = {
    **{f"B3-{N}": (lambda N=N: quantize_open(B3, N))
       for N in (36, 108, 324, 972, 2916)},
    **{f"D7-{N}": (lambda N=N: quantize_open(OpenBakerSpec(7, (1, 3, 5)), N))
       for N in (98, 686, 2058)},
    "closed-B5-500": lambda: quantize_closed(5, 500),
    "walsh-OPEN_B4-W-4096": lambda: build_map("walsh", OPEN_B4, 4**6, "W"),
}


@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize("case", list(FOLD_CASES))
def test_fold_of_built_maps_is_bitwise_the_one_expression_fold(case, sector):
    # [DERIVED] built maps, signed zeros included: from one block of
    # pairs (B3 at N = 36, 108) to many with skipped zero pairs (B3,
    # D = 7 kept 1, 3, 5, the walsh map's pairs j < 1024), and the closed
    # map, which skips none.  OPEN_B4's "V" map does not commute with
    # parity (max commutator entry 1.0), so its "W" map is folded
    B = FOLD_CASES[case]()
    assert np.array_equal(bits(parity_restrict(B, sector)),
                          bits(one_expression_fold(B, sector)))


def half_zero_pairs(N, side):
    """A matrix within 1e-10 of commuting with parity whose first block
    of column pairs is nonzero on one side only: columns j < _CHUNK and
    N-1-j are zero except for 1e-11 entries in column 3 or N-4."""
    B = parity_commuting(N)
    B[:, :_CHUNK] = B[:, N - _CHUNK:] = 0.0
    rng = np.random.default_rng(1)
    B[:, 3 if side == "left" else N - 4] = 1e-11 * rng.standard_normal(N)
    return B


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("sector", ["even", "odd"])
def test_fold_reads_both_columns_of_a_pair(side, sector):
    # a skip that tests only one column of each pair zeroes the 1e-11
    # entries' fold instead of folding them
    B = half_zero_pairs(4 * _CHUNK, side)
    out = parity_restrict(B, sector)
    assert np.any(out[:, 3])
    assert np.array_equal(bits(out), bits(one_expression_fold(B, sector)))


@pytest.mark.parametrize("side", ["left", "right"])
def test_fold_checks_both_columns_of_a_pair(side):
    # a defect in the nonzero column of a half-zero pair still raises
    N = 4 * _CHUNK
    B = half_zero_pairs(N, side)
    B[5, 3 if side == "left" else N - 4] = 1e-3
    with pytest.raises(ValueError, match="max commutator entry 1.000e-03"):
        parity_restrict(B, "even")


def test_parity_restrict_refuses_an_asymmetry_in_the_bottom_half():
    # the commutator is read on the top half only; a defect placed in the
    # bottom half shows there through its mirror entry
    N = 20
    B = quantize_open(B5, N)
    B[N - 1, 3] += 1e-3
    with pytest.raises(ValueError, match="max commutator entry 1.000e-03"):
        parity_restrict(B, "even")


def test_open_build_and_fold_allocate_no_square_temporary():
    # numpy's allocations are traced, maps from _lazy_zeros are not:
    # measured 1.18 for the build (the result, two (N, _CHUNK) FFT
    # temporaries, the inner DFT) and 0.063 for the fold, which is
    # check_finite's N x N boolean mask; the (N/2, _CHUNK) scratch block
    # and its moduli that follow it take 0.048, and the quarter-size
    # output is a _lazy_zeros map.  Unchunked (N, N/5) FFT temporaries
    # read 1.45 for the build; a quarter-size fold temporary adds 0.25
    # to the fold and one N x N temporary 1.0 to either ratio
    N = 1000
    tracemalloc.start()
    try:
        B = quantize_open(B5, N)
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        parity_restrict(B, "even")
        _, fold_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build_peak / B.nbytes <= 1.25
    assert (fold_peak - base) / B.nbytes <= 0.1


@pytest.mark.parametrize("order", ["C", "F"])
def test_lazy_zeros_are_writable_complex_zeros_in_the_requested_layout(
        monkeypatch, order):
    a = quantize._lazy_zeros((3, 5), complex, order)
    assert a.shape == (3, 5) and a.dtype == complex and not a.any()
    assert a.flags.c_contiguous if order == "C" else a.flags.f_contiguous
    a[1, 2] = 1j
    assert a.sum() == 1j
    # without a private anonymous map, the same zeros come from np.zeros
    monkeypatch.delattr(quantize.mmap, "MAP_PRIVATE")
    b = quantize._lazy_zeros((3, 5), complex, order)
    assert b.flags.owndata and b.flags.writeable and not b.any()
    assert b.flags.c_contiguous if order == "C" else b.flags.f_contiguous


RSS_GROWTH = """
import sys
from openbaker.classical import B5, CLOSED_B4, OPEN_B4
from openbaker.cli import build_map
from openbaker.quantize import (build_toy_diagonal, parity_restrict, quantize_open,
                                walsh_quantize)

def peak_kib():
    # VmHWM, not ru_maxrss: a child's ru_maxrss starts at the forking
    # parent's peak resident set
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

base = peak_kib()
if sys.argv[1] == "open":
    B = quantize_open(B5, 2500)
    parity_restrict(B, "even")
elif sys.argv[1].startswith("toy"):
    B = build_toy_diagonal(3**int(sys.argv[1][3:]))
elif sys.argv[1] == "walsh":
    B = build_map("walsh", OPEN_B4, 4**6, "V")
elif sys.argv[1] == "cavity":
    B = walsh_quantize(CLOSED_B4, 6, "V")
else:
    B = build_map("walsh", OPEN_B4, 4**6, "W")
    parity_restrict(B, "even")
print((peak_kib() - base) * 1024 / B.nbytes)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs Linux's lazily zeroed pages and /proc/self/status")
@pytest.mark.parametrize("build,bound", [("open", 0.7), ("toy7", 0.12), ("toy8", 0.05),
                                         ("walsh", 0.05), ("walsh-fold", 0.22),
                                         ("cavity", 0.1)])
def test_removed_strips_take_no_resident_memory(build, bound):
    # growth of a fresh interpreter's peak resident set over the matrix's
    # size.  Measured 0.60-0.66 for the open 5-baker at N = 2500 and its
    # even fold (0.73-0.77 with a fold that writes all of its
    # quarter-size output, 1.50 with a row-major build that writes every
    # page and quarter-size fold temporaries): its kept strips are
    # written densely into np.zeros' huge pages.  The Walsh writer's
    # tilted diagonals hold D entries per kept column, and on _lazy_zeros'
    # 4 KiB pages about one page per kept column becomes resident:
    # measured 0.086 for the toy at 3^7 and 0.027 at 3^8 (0.67 on huge
    # pages, 0.97 row-major), 0.033 for the walsh map of OPEN_B4 "V" at
    # 4^6, two kept strips of four (0.51 on huge pages, 2.0 as the block
    # apply to an N x N identity), and 0.17 for the "W" map's even fold,
    # whose pairs j < 1024 are all zero and whose output's skipped
    # columns are never written (0.65 on huge pages, 0.79 with every
    # output column written).  walsh_quantize writes the same four
    # entries per column for the closed cavity propagator at 4^6:
    # measured 0.065 (1.14 when it wrote the Gram product densely)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", RSS_GROWTH, build], env=env,
                         capture_output=True, text=True, check=True)
    assert float(run.stdout) <= bound


def test_parity_restrict_rejects_odd_dimension_and_bad_sector():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    J = reversal(7)
    with pytest.raises(ValueError, match="even N"):
        parity_restrict(X + J @ X @ J, "even")
    Y = X[:6, :6]
    J = reversal(6)
    with pytest.raises(ValueError, match="sector"):
        parity_restrict(Y + J @ Y @ J, "sideways")
    # both are checked before the N^2 commutator pass, so a matrix that
    # does not commute with parity is refused for them too
    with pytest.raises(ValueError, match="even N"):
        parity_restrict(X, "even")
    with pytest.raises(ValueError, match="sector"):
        parity_restrict(Y, "sideways")
    with pytest.raises(ValueError, match="square"):
        parity_restrict(np.ones((4, 6)), "even")


def test_parity_restrict_rejects_noncommuting_matrix():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    with pytest.raises(ValueError, match="commute"):
        parity_restrict(M, "even")
    with pytest.raises(ValueError):
        parity_isometry(7, "even")
    with pytest.raises(ValueError):
        parity_isometry(6, "sideways")


# ------------------------------------------------------------------- toy

def test_toy_diagonal_structure():
    B = build_toy_diagonal(9)
    # three entries of modulus 1/sqrt(3) per kept column, none elsewhere
    nz = np.abs(B) > 0
    col_counts = nz.sum(axis=0)
    assert sorted(col_counts) == [0, 0, 0, 3, 3, 3, 3, 3, 3]
    assert np.allclose(np.abs(B[nz]), 1 / np.sqrt(3))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_toy_diagonal_equals_its_entry_loop(k):
    # the six diagonal writes give the per-entry construction bit for bit
    assert np.array_equal(build_toy_diagonal(3**k), toy_diagonal_by_entry(3**k))


def test_toy_diagonal_rejects_bad_dimension():
    with pytest.raises(ValueError):
        build_toy_diagonal(10)


def test_toy_diagonal_refuses_oversized_before_allocating(monkeypatch):
    # 3^9 exceeds MAX_DENSE_DIM, as it does for build_walsh: refused before
    # the dense 3^9 x 3^9 matrix is allocated; 3^8 still reaches it
    def zeros(*args, **kwargs):
        raise RuntimeError("dense toy matrix allocated")

    monkeypatch.setattr(quantize, "_lazy_zeros", zeros)
    with pytest.raises(ValueError, match=f"exceeds cap {MAX_DENSE_DIM}"):
        build_toy_diagonal(3**9)
    with pytest.raises(RuntimeError, match="allocated"):
        build_toy_diagonal(3**8)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_toy_equals_walsh_quantization(k):
    # [PAPER] the toy matrix is the half-integer Walsh 3-baker at N = 3^k
    diff = np.max(np.abs(build_toy_diagonal(3**k) - walsh_quantize(B3, k, "W")))
    assert diff < 1e-12


# ----------------------------------------------------------------- walsh

@pytest.mark.parametrize("k", range(1, 8))
def test_walsh_family_b3_w_map_is_the_toy(k):
    # the spectrum verbs' walsh map and the toy are one writer's output
    assert np.array_equal(build_map("walsh", B3, 3**k, "W"),
                          build_toy_diagonal(3**k))


@pytest.mark.parametrize("variant", ["V", "W"])
@pytest.mark.parametrize("spec", [B3, B5, OPEN_B4, OpenBakerSpec(7, (1, 3, 5))],
                         ids=["B3", "B5", "OPEN_B4", "D7"])
def test_walsh_family_map_is_the_kernel_on_the_identity(spec, variant):
    # [DERIVED] the tilted diagonals are the block apply's columns: both
    # read their entries from _walsh_factor, so they are the same map
    for k in (1, 2, 3):
        N = spec.D**k
        M = build_map("walsh", spec, N, variant)
        ref = tensor_open_apply_block(np.eye(N, dtype=complex), spec, variant)
        assert np.array_equal(M, ref)


WALSH_SPECS = [B3, B5, OPEN_B4, OpenBakerSpec(7, (1, 3, 5))]


@pytest.mark.parametrize("variant", ["V", "W"])
@pytest.mark.parametrize("spec", WALSH_SPECS + [CLOSED_B4, OpenBakerSpec(2, (0,))],
                         ids=["B3", "B5", "OPEN_B4", "D7", "CLOSED_B4", "D2"])
def test_walsh_factor_is_the_entry_expression(spec, variant):
    # [DERIVED] the removed columns are exact zeros, and the one np.exp
    # over the D x s block is the per-entry expression bit for bit
    D, c = spec.D, {"W": 0.5, "V": 0.0}[variant]
    f = _walsh_factor(spec, variant)
    removed = [a for a in range(D) if a not in spec.kept]
    assert f.shape == (D, D)
    assert f[:, removed].tobytes() == bytes(16 * D * len(removed))  # +0.0
    by_entry = np.array([[np.exp(2j * np.pi / D * (eps + c) * (ell + c)) / np.sqrt(D)
                          for ell in spec.kept] for eps in range(D)])
    assert f[:, list(spec.kept)].tobytes() == by_entry.tobytes()


def test_walsh_factor_is_the_cavity_seed():
    # [DERIVED] the cavity's closed form and the series' first term read
    # the factor where they read F_4^* before: equal entry for entry (the
    # factor's zero imaginary parts are +0.0 where the seed's are -0.0)
    assert np.array_equal(_walsh_factor(CLOSED_B4, "V"), _seed(4, "V").conj())


@pytest.mark.parametrize("variant", ["V", "W"])
@pytest.mark.parametrize("spec", WALSH_SPECS, ids=["B3", "B5", "OPEN_B4", "D7"])
def test_walsh_factor_is_the_seed_up_to_rounding(spec, variant):
    # [DERIVED] the factor and the transform's seed are two evaluations of
    # one phase: the seed's "W" phases come from a table of 4D-th roots and
    # the factor's from its unreduced argument, which at D = 7 "V" reaches
    # 2 pi 36/7.  Measured: real and imaginary parts within 5.875 machine
    # epsilons (D = 7 "V"), the modulus of the difference within 6.01
    seed = _seed(spec.D, variant).conj()[:, list(spec.kept)]
    diff = _walsh_factor(spec, variant)[:, list(spec.kept)] - seed
    assert max(np.abs(diff.real).max(), np.abs(diff.imag).max()) <= 6 * np.finfo(float).eps


@pytest.mark.parametrize("k,variant", [(2, "V"), (3, "W"), (4, "V")])
def test_walsh_quantized_closed_4baker_is_unitary(k, variant):
    U = walsh_quantize(CLOSED_B4, k, variant)
    assert unitarity_defect(U) < 1e-12


@pytest.mark.parametrize("k,rank", [(2, 8), (3, 32)])
def test_walsh_quantize_open_singular_values(k, rank):
    # [DERIVED] the interior-projected cavity propagator: singular values
    # in {0, 1}, rank N/2
    sv = np.linalg.svd(walsh_quantize(OPEN_B4, k, "V"), compute_uv=False)
    assert np.all(np.minimum(np.abs(sv - 1.0), np.abs(sv)) < 1e-12)
    assert int(np.count_nonzero(sv > 0.5)) == rank


def random_block(shape, seed=5):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("spec,variant", [(B3, "W"), (OPEN_B4, "V"),
                                          (CLOSED_B4, "V"), (B5, "W"),
                                          (OpenBakerSpec(4, (0,)), "V")])
def test_tensor_apply_matches_dense(spec, variant):
    # [DERIVED] matrix-free block apply against the dense Walsh quantization;
    # the kept digits span the whole range (CLOSED_B4), an inner range (B5,
    # OPEN_B4), a range with a removed digit inside (B3, B5) or one digit
    for k in (2, 3):
        M = walsh_quantize(spec, k, variant)
        for m in (1, 4):
            X = random_block((spec.D**k, m))
            Y = tensor_open_apply_block(X, spec, variant)
            assert Y.shape == X.shape
            assert np.max(np.abs(Y - M @ X)) < 1e-12
            # a non-contiguous block gives the same result
            assert np.array_equal(
                tensor_open_apply_block(np.asfortranarray(X), spec, variant), Y)


def test_tensor_apply_ignores_removed_digits():
    # [DERIVED] apply(X) = apply(Pi_I X): the blocks of X outside the kept
    # digits 1, 2 are not read, so even NaN there leaves the result finite
    k = 3
    X = random_block((4**k, 4))
    lead = ~np.isin(np.arange(4**k) // 4 ** (k - 1), OPEN_B4.kept)
    interior = np.where(lead[:, None], 0.0, X)
    X[lead] = np.nan
    Y = tensor_open_apply_block(X, OPEN_B4, "V")
    assert np.array_equal(Y, tensor_open_apply_block(interior, OPEN_B4, "V"))
    assert np.all(np.isfinite(Y))


def test_walsh_baker_shifts_digit_factors():
    # [PAPER] B (v_1 x ... x v_k) = v_2 x ... x v_k x (G* pi_kept v_1)
    D, k = 3, 3
    rng = np.random.default_rng(9)
    factors = [rng.standard_normal(D) + 1j * rng.standard_normal(D)
               for _ in range(k)]
    B = walsh_quantize(B3, k, "W")
    lhs = B @ tensor_state(factors)
    pi = np.diag([1.0, 0.0, 1.0])
    seeded = dft_centered(D).conj().T @ (pi @ factors[0])
    rhs = tensor_state(factors[1:] + [seeded])
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_walsh_quantize_rejects_bad_k():
    with pytest.raises(ValueError):
        walsh_quantize(B3, 0)


def test_tensor_apply_rejects_bad_length():
    with pytest.raises(ValueError):
        tensor_open_apply_block(np.ones((10, 2)), B3)

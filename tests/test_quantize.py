"""Quantum propagators: DFT quantizations, parity reduction, the toy
diagonal matrix, and the Walsh quantizations with their tensor applies."""

import tracemalloc

import numpy as np
import pytest

from openbaker.classical import B3, B5, CLOSED_B4, OPEN_B4, OpenBakerSpec
from openbaker.quantize import (build_toy_diagonal, parity_operator,
                                parity_restrict, quantize_closed,
                                quantize_open, tensor_open_apply_block,
                                walsh_quantize)
from openbaker.transforms import MAX_DENSE_DIM, build_walsh, dft_centered
from reference import one_expression_fold, parity_isometry, tensor_state


def unitarity_defect(M):
    return np.max(np.abs(M.conj().T @ M - np.eye(M.shape[0])))


def dense_quantization(T, D, kept, inner):
    """Reference T^* . blockstack(inner): the full N x N block stack with
    `inner` in the kept slots, multiplied densely."""
    N, n = T.shape[0], inner.shape[0]
    stack = np.zeros((N, N), dtype=complex)
    for b in kept:
        stack[b * n:(b + 1) * n, b * n:(b + 1) * n] = inner
    return T.conj().T @ stack


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
    # [DERIVED] the Gram-built kept blocks against the dense product with
    # S_k; the largest deviation measured up to k = 6 is 2.2e-15
    ref = dense_quantization(build_walsh(spec.D, k, variant), spec.D, spec.kept,
                             build_walsh(spec.D, k - 1, variant))
    assert np.max(np.abs(walsh_quantize(spec, k, variant) - ref)) < 1e-12


def test_walsh_quantize_allocates_no_second_square_matrix():
    # the traced peak is the result plus three (N/D)^2 temporaries,
    # S_{k-1}, its conjugate and their Gram matrix: 1.19 times the result
    # at N = 1024, where a second N x N matrix would put it above 2
    tracemalloc.start()
    try:
        M = walsh_quantize(CLOSED_B4, 5, "V")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / M.nbytes <= 1.3


def test_walsh_quantize_refuses_oversized_before_allocating(monkeypatch):
    # 3^9 exceeds MAX_DENSE_DIM: refused before the dense 3^9 x 3^9 matrix
    # is allocated; 3^8 still reaches it
    def zeros(*args, **kwargs):
        raise RuntimeError("dense Walsh matrix allocated")

    monkeypatch.setattr(np, "zeros", zeros)
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


def test_parity_restrict_refuses_an_asymmetry_in_the_bottom_half():
    # the commutator is read on the top half only; a defect placed in the
    # bottom half shows there through its mirror entry
    N = 20
    B = quantize_open(B5, N)
    B[N - 1, 3] += 1e-3
    with pytest.raises(ValueError, match="max commutator entry 1.000e-03"):
        parity_restrict(B, "even")


def test_open_build_and_fold_allocate_no_square_temporary():
    # numpy's allocations are traced: measured 1.45 for the build (the
    # result, two (N, N/5) FFT temporaries, the inner DFT) and 0.52 for
    # the fold (two quarter-size arrays); one N x N temporary more adds
    # 1.0 to either ratio
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
    assert build_peak / B.nbytes <= 1.6
    assert (fold_peak - base) / B.nbytes <= 0.6


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


def test_toy_diagonal_rejects_bad_dimension():
    with pytest.raises(ValueError):
        build_toy_diagonal(10)


def test_toy_diagonal_refuses_oversized_before_allocating(monkeypatch):
    # 3^9 exceeds MAX_DENSE_DIM, as it does for build_walsh: refused before
    # the dense 3^9 x 3^9 matrix is allocated; 3^8 still reaches it
    def zeros(*args, **kwargs):
        raise RuntimeError("dense toy matrix allocated")

    monkeypatch.setattr(np, "zeros", zeros)
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

"""Transforms: digit codecs, centered/plain DFTs, the Walsh family, and
tensor product states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openbaker.transforms import (MAX_DENSE_DIM, _centered_dft_adjoint,
                                  build_walsh, check_dense_dim, dft_centered,
                                  dft_plain)
from reference import (digit_decode, digit_encode, digit_reversal_permutation,
                       tensor_state)


def unitarity_defect(M):
    return np.max(np.abs(M.conj().T @ M - np.eye(M.shape[0])))


# ---------------------------------------------------------------- digits

@given(st.sampled_from([(2, 8), (3, 6), (5, 4)]), st.data())
def test_digit_codec_roundtrip(Dk, data):
    # [TRIVIAL] encode/decode is a bijection on [0, D^k)
    D, k = Dk
    j = data.draw(st.integers(min_value=0, max_value=D**k - 1))
    word = digit_encode(j, D, k)
    assert len(word) == k
    assert all(0 <= eps < D for eps in word)
    assert digit_decode(word, D) == j


def test_digit_encode_known_words():
    # [TRIVIAL] 11 = 1*9 + 0*3 + 2 in base 3
    assert digit_encode(11, 3, 3) == (1, 0, 2)
    assert digit_decode((1, 0, 2), 3) == 11


def test_digit_codec_rejects_bad_input():
    with pytest.raises(ValueError):
        digit_encode(9, 3, 2)  # out of range
    with pytest.raises(ValueError):
        digit_encode(-1, 3, 2)
    with pytest.raises(ValueError):
        digit_decode((3,), 3)  # digit out of base
    with pytest.raises(ValueError):
        digit_encode(0, 1, 2)  # base too small


@pytest.mark.parametrize("D,k", [(2, 5), (3, 3), (5, 2)])
def test_digit_reversal_is_an_involution(D, k):
    perm = digit_reversal_permutation(D, k)
    assert sorted(perm) == list(range(D**k))
    assert np.array_equal(perm[perm], np.arange(D**k))


def test_digit_reversal_matches_word_reversal():
    # [DERIVED] perm[j] decodes the reversed digit word of j
    D, k = 3, 4
    perm = digit_reversal_permutation(D, k)
    for j in range(D**k):
        assert perm[j] == digit_decode(digit_encode(j, D, k)[::-1], D)


# ------------------------------------------------------------------ DFTs

@pytest.mark.parametrize("N", [1, 2, 3, 5, 9, 20, 64])
def test_dft_centered_is_unitary(N):
    assert unitarity_defect(dft_centered(N)) < 1e-12


@pytest.mark.parametrize("N", [1, 2, 3, 5, 9, 20, 64])
def test_dft_plain_is_unitary(N):
    assert unitarity_defect(dft_plain(N)) < 1e-12


def test_dft_centered_entries():
    # [TRIVIAL] entry formula N^(-1/2) exp(-2 pi i (j+1/2)(j'+1/2)/N)
    N = 6
    G = dft_centered(N)
    for j in (0, 2, 5):
        for jp in (1, 3, 4):
            expected = np.exp(-2j * np.pi * (j + 0.5) * (jp + 0.5) / N) / np.sqrt(N)
            assert abs(G[j, jp] - expected) < 1e-14


@pytest.mark.parametrize("N", [1, 2, 3, 5, 7, 20, 33, 64])
def test_dft_centered_matches_exponential_formula(N):
    # [DERIVED] the root-of-unity table against the direct exp formula
    g = np.arange(N) + 0.5
    direct = np.exp(-2j * np.pi * np.outer(g, g) / N) / np.sqrt(N)
    assert np.max(np.abs(dft_centered(N) - direct)) < 1e-12


def test_dft_centered_is_unitary_at_table_size():
    # every phase argument stays below 2 pi, so unitarity holds near
    # machine precision even at the dimension of the paper's table
    G = dft_centered(2500)
    assert np.max(np.abs(G @ G.conj().T - np.eye(2500))) < 1e-13


def test_dft_centered_is_symmetric():
    # [DERIVED] the kernel is symmetric in (j, j')
    G = dft_centered(12)
    assert np.max(np.abs(G - G.T)) < 1e-15


@pytest.mark.parametrize("N", [1, 2, 3, 7, 20, 125, 500])
def test_centered_dft_adjoint_matches_dense_product(N):
    # [DERIVED] the FFT apply against G_N^* X on unit columns; the largest
    # deviation measured over these sizes and widths is 3.6e-16
    for m in sorted({1, N // 5 if N % 5 == 0 else 1}):
        rng = np.random.default_rng(N + m)
        X = rng.standard_normal((N, m)) + 1j * rng.standard_normal((N, m))
        X /= np.linalg.norm(X, axis=0)
        Y = _centered_dft_adjoint(X)
        assert Y.shape == X.shape
        assert np.max(np.abs(Y - dft_centered(N).conj().T @ X)) < 4e-15
    # a vector is one column
    assert np.max(np.abs(_centered_dft_adjoint(X[:, 0]) - Y[:, 0])) < 4e-15


def test_dfts_reject_empty():
    with pytest.raises(ValueError):
        dft_centered(0)
    with pytest.raises(ValueError):
        dft_plain(0)


# ----------------------------------------------------------------- Walsh

def test_walsh_k1_reduces_to_seed():
    # [DERIVED] one digit: no permutation, transform equals the seed DFT
    assert np.max(np.abs(build_walsh(3, 1, "V") - dft_plain(3))) < 1e-15
    assert np.max(np.abs(build_walsh(3, 1, "W") - dft_centered(3))) < 1e-15


def test_walsh_k0_is_identity():
    assert np.array_equal(build_walsh(3, 0, "V"), np.ones((1, 1)))


@pytest.mark.parametrize("D,k,variant", [(2, 6, "V"), (3, 4, "W"), (4, 3, "V"),
                                         (5, 3, "W")])
def test_walsh_is_unitary(D, k, variant):
    assert unitarity_defect(build_walsh(D, k, variant)) < 1e-12


@pytest.mark.parametrize("variant", ["V", "W"])
def test_walsh_equals_permuted_tensor_power(variant):
    # [DERIVED] independent oracle: R_k . seed^(x k)
    D, k = 3, 3
    seed = dft_plain(D) if variant == "V" else dft_centered(D)
    kron = np.kron(np.kron(seed, seed), seed)
    oracle = kron[digit_reversal_permutation(D, k)]
    assert np.max(np.abs(build_walsh(D, k, variant) - oracle)) < 1e-14


@pytest.mark.parametrize("variant", ["V", "W"])
def test_walsh_tensor_action_reverses_factors(variant):
    # [PAPER] V_k (v_1 x ... x v_k) = (F v_k) x ... x (F v_1)
    D, k = 3, 3
    rng = np.random.default_rng(7)
    seed = dft_plain(D) if variant == "V" else dft_centered(D)
    factors = [rng.standard_normal(D) + 1j * rng.standard_normal(D)
               for _ in range(k)]
    lhs = build_walsh(D, k, variant) @ tensor_state(factors)
    rhs = tensor_state([seed @ v for v in reversed(factors)])
    assert np.max(np.abs(lhs - rhs)) < 1e-13


@pytest.mark.parametrize("D", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("variant", ["V", "W"])
def test_walsh_row_block_is_shorter_transform_times_seed_row(D, variant):
    # [DERIVED] row block b of S_k is S_{k-1} (x) F[b, :], bit for bit;
    # walsh_quantize builds its kept column blocks from this identity
    F = dft_plain(D) if variant == "V" else dft_centered(D)
    for k in (1, 2, 3):
        S, inner = build_walsh(D, k, variant), build_walsh(D, k - 1, variant)
        n = len(inner)
        for b in range(D):
            assert np.array_equal(S[b * n:(b + 1) * n], np.kron(inner, F[b:b + 1, :]))


def test_build_walsh_rejects_bad_arguments():
    with pytest.raises(ValueError, match="base must be >= 2"):
        build_walsh(1, 2)
    with pytest.raises(ValueError, match="length must be >= 0"):
        build_walsh(2, -1)
    with pytest.raises(ValueError, match="variant must be 'V' or 'W'"):
        build_walsh(2, 1, "X")


def test_build_walsh_refuses_huge_dimensions():
    with pytest.raises(ValueError):
        build_walsh(2, 15, "V")
    assert 2**15 > MAX_DENSE_DIM


def test_check_dense_dim_refuses_above_the_cap_only():
    # the one message of every dense-size refusal
    check_dense_dim(MAX_DENSE_DIM)
    with pytest.raises(ValueError, match=f"^dense dimension {MAX_DENSE_DIM + 1} "
                                         f"exceeds cap {MAX_DENSE_DIM}$"):
        check_dense_dim(MAX_DENSE_DIM + 1)


# --------------------------------------------------------- tensor states

def test_tensor_state_orders_factors():
    # [TRIVIAL] first factor is the most significant digit
    e0, e1 = np.eye(2)
    psi = tensor_state([e1, e0, e0])  # digits (1,0,0) -> index 4
    assert psi[4] == 1.0 and np.count_nonzero(psi) == 1

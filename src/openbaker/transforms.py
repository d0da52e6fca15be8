"""Discrete Fourier and Walsh transforms on the quantized torus.

Position space at inverse Planck constant N is C^N with amplitudes
attached to the half-integer grid q_j = (j + 1/2) / N.  The centered DFT
exchanges this grid with the analogous momentum grid; the Walsh variants
replace the exponential by its digitwise-exact piecewise version and
factorize over the tensor decomposition C^(D^k) = (C^D)^(x k).
"""

from __future__ import annotations

import numpy as np

# Dense D**k matrices above this are refused (more than 4 GiB of complex128).
MAX_DENSE_DIM = 2 ** 14


def check_dense_dim(n: int) -> None:
    """Refuse a dense matrix of dimension above MAX_DENSE_DIM."""
    if n > MAX_DENSE_DIM:
        raise ValueError(f"dense dimension {n} exceeds cap {MAX_DENSE_DIM}")


def dft_centered(N: int) -> np.ndarray:
    """Centered DFT: entries N^(-1/2) exp(-2 pi i (j+1/2)(j'+1/2) / N).

    This is the transform respecting the parity symmetry q -> 1 - q of the
    half-integer grid.  Unitary.  Entry (j, j') is the 4N-th root of unity
    number (2j+1)(2j'+1) mod 4N, so only 4N exponentials are evaluated.
    """
    if N < 1:
        raise ValueError(f"dimension must be >= 1, got {N}")
    odd = 2 * np.arange(N, dtype=np.int64) + 1
    roots = np.exp(-2j * np.pi * np.arange(4 * N) / (4 * N)) / np.sqrt(N)
    return roots[np.multiply.outer(odd, odd) % (4 * N)]


def _centered_dft_adjoint(X: np.ndarray) -> np.ndarray:
    """G_N^* X column by column, N = len(X), by one inverse FFT.

    (2j+1)(2j'+1)/4N = jj'/N + j/2N + j'/2N + 1/4N, so G_N^* is the
    inverse DFT between the twiddles tw_j = exp(i pi j/N), scaled by
    sqrt(N) exp(i pi/2N): O(N log N) per column, and no N x N matrix.
    """
    N = len(X)
    tw = np.exp(1j * np.pi * np.arange(N) / N).reshape((N,) + (1,) * (X.ndim - 1))
    Y = np.fft.ifft(tw * X, axis=0)
    Y *= tw
    Y *= np.sqrt(N) * np.exp(0.5j * np.pi / N)
    return Y


def dft_plain(N: int) -> np.ndarray:
    """Plain DFT without the half-integer shift: N^(-1/2) exp(-2 pi i j j' / N)."""
    if N < 1:
        raise ValueError(f"dimension must be >= 1, got {N}")
    g = np.arange(N)
    return np.exp(-2j * np.pi * np.outer(g, g) / N) / np.sqrt(N)


def _seed(D: int, variant: str) -> np.ndarray:
    if variant == "V":
        return dft_plain(D)
    if variant == "W":
        return dft_centered(D)
    raise ValueError(f"variant must be 'V' or 'W', got {variant!r}")


def build_walsh(D: int, k: int, variant: str = "V") -> np.ndarray:
    """Dense Walsh transform of dimension D^k.

    Variant "V" uses plain-DFT phases exp(-2 pi i eps eps' / D) digit by
    digit; variant "W" the half-integer phases (eps+1/2)(eps'+1/2).  Both
    are the k-fold tensor power of the seed F with its row digits reversed,
    hence unitary: row block b at length k is W_{k-1} (x) F[b, :], one
    broadcast product per digit.  k = 0 returns the 1x1 identity.
    """
    if D < 2:
        raise ValueError(f"base must be >= 2, got {D}")
    if k < 0:
        raise ValueError(f"length must be >= 0, got {k}")
    check_dense_dim(D**k)
    if k == 0:
        return np.ones((1, 1), dtype=complex)
    F = _seed(D, variant)
    M = F
    for _ in range(k - 1):
        n = len(M)
        M = (M[None, :, :, None] * F[:, None, None, :]).reshape(D * n, n * D)
    return M


def check_finite(M: np.ndarray) -> np.ndarray:
    """Validate a dense complex matrix: square, nonempty, finite entries."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a nonempty square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains NaN or Inf entries")
    return M

"""Reference constructions that only the tests use: the float open-baker
step and escape time, digit codecs, the digit-reversal permutation,
product states, the parity-sector isometry and the one-expression parity
fold, the dense block-stack quantization T^* . blockstack(inner), the toy
matrix written entry by entry, the Walsh word sets searched from their
digit strings, the lead projectors of the Walsh cavity, the resolvent
solved on the whole interior block, the bounce series started from the
full lead-1 basis, a reader for the spectrum CSV, and a fresh
interpreter's peak resident-set growth.  The package computes with
faster index folds, slices and integer digit sweeps; these spell out
what those compute."""

from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from openbaker.classical import CLOSED_B4, OPEN_B4, OpenBakerSpec
from openbaker.quantize import _sector_sign, tensor_open_apply_block
from openbaker.transport import SERIES_TOL, cavity_propagator

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
PEAK_KIB = """
def peak_kib():
    # VmHWM, not ru_maxrss: a child's ru_maxrss starts at the forking
    # parent's peak resident set
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
"""


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


def digit_encode(j: int, D: int, k: int) -> tuple[int, ...]:
    """Base-D digits of j, most significant first, padded to length k."""
    if D < 2:
        raise ValueError(f"base must be >= 2, got {D}")
    if not 0 <= j < D**k:
        raise ValueError(f"index {j} out of range for {k} base-{D} digits")
    word = []
    for _ in range(k):
        word.append(j % D)
        j //= D
    return tuple(reversed(word))


def digit_decode(word, D: int) -> int:
    """Inverse of digit_encode: j = sum_l eps_l * D^(k-l)."""
    if D < 2:
        raise ValueError(f"base must be >= 2, got {D}")
    j = 0
    for eps in word:
        if not 0 <= eps < D:
            raise ValueError(f"digit {eps} out of range for base {D}")
        j = j * D + eps
    return j


def digit_reversal_permutation(D: int, k: int) -> np.ndarray:
    """perm[j] = index whose base-D word is the reverse of j's word."""
    n = D**k
    return np.arange(n).reshape((D,) * k).transpose(range(k - 1, -1, -1)).ravel()


def tensor_state(factors) -> np.ndarray:
    """Product state v_1 x v_2 x ... x v_k as a flat vector (first factor
    most significant, matching the digit order of the position grid)."""
    out = np.asarray(factors[0], dtype=complex)
    for v in factors[1:]:
        out = np.kron(out, np.asarray(v, dtype=complex))
    return out


def parity_isometry(N: int, sector: str) -> np.ndarray:
    """Orthonormal isometry from C^(N/2) onto one parity sector.

    "even" spans the amplitude-symmetric states (e_j + e_{N-1-j})/sqrt(2),
    "odd" the antisymmetric ones; with the global minus sign in the parity
    operator these are its -1 and +1 eigenspaces respectively.  Requires
    even N.
    """
    sign = _sector_sign(N, sector)
    S = np.zeros((N, N // 2), dtype=complex)
    rt = 1.0 / np.sqrt(2.0)
    for j in range(N // 2):
        S[j, j] = rt
        S[N - 1 - j, j] = sign * rt
    return S


def one_expression_fold(B: np.ndarray, sector: str) -> np.ndarray:
    """parity_restrict's fold written as one expression,
    0.5 * (B1 + R1 + sign * (B2 + R2)) on the top quarters of B and its
    reversal R: the order of operations its in-place fold keeps."""
    N = B.shape[0]
    sign = _sector_sign(N, sector)
    R = B[::-1, ::-1]
    h = N // 2
    mirrored = B[:h, N - 1:h - 1:-1] + R[:h, N - 1:h - 1:-1]
    return 0.5 * (B[:h, :h] + R[:h, :h] + sign * mirrored)


def dense_quantization(T: np.ndarray, D: int, kept, inner: np.ndarray) -> np.ndarray:
    """Reference T^* . blockstack(inner): the full N x N block stack with
    `inner` in the kept slots, multiplied densely."""
    N, n = T.shape[0], inner.shape[0]
    stack = np.zeros((N, N), dtype=complex)
    for b in kept:
        stack[b * n:(b + 1) * n, b * n:(b + 1) * n] = inner
    return T.conj().T @ stack


def toy_diagonal_by_entry(N: int) -> np.ndarray:
    """build_toy_diagonal(N) written one entry at a time."""
    B = np.zeros((N, N), dtype=complex)
    for l in range(N // 3):
        for ell in (0, 2):
            col = l + ell * N // 3
            for eps in range(3):
                B[3 * l + eps, col] = np.exp(
                    2j * np.pi / 3 * (eps + 0.5) * (ell + 0.5)
                ) / np.sqrt(3)
    return B


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


def kept_words_reference(spec: OpenBakerSpec, length: int) -> np.ndarray:
    """The words of `length` base-D digits all in spec.kept, found by
    searching every word's digits."""
    return np.array([j for j in range(spec.D**length)
                     if set(digit_encode(j, spec.D, length)) <= set(spec.kept)],
                    dtype=int)


def lead1_words(k: int) -> list[str]:
    """The base-4 strings d_2 ... d_k of the lead-1 words 0 d_2 ... d_k."""
    return [np.base_repr(j, 4).zfill(k - 1) if k > 1 else ""
            for j in range(4 ** (k - 1))]


def exit_digit_reference(k: int) -> np.ndarray:
    """For each lead-1 word 0 d_2 ... d_k, the first of d_2 ... d_k in
    {0, 3}, or -1 when they all lie in {1, 2}, read from base-4 strings."""
    return np.array([int(next((d for d in w if d in "03"), -1))
                     for w in lead1_words(k)])


def interior_run_reference(k: int) -> np.ndarray:
    """For each lead-1 word 0 d_2 ... d_k, the length of its leading run
    of interior digits {1, 2} among d_2 ... d_k, read from base-4 strings."""
    return np.array([len(w) - len(w.lstrip("12")) for w in lead1_words(k)])


def trapped_levels(k: int) -> list[np.ndarray]:
    """Masks of P_0 ... P_{k-1} over the 4^k words: P_j holds the words
    whose first j + 1 base-4 digits all lie in {1, 2}."""
    words = [np.base_repr(w, 4).zfill(k) for w in range(4**k)]
    return [np.array([set(w[:j + 1]) <= {"1", "2"} for w in words])
            for j in range(k)]


@functools.lru_cache(maxsize=None)
def interior_block_resolvent(k: int, theta: float) -> np.ndarray:
    """The resolvent's t from the whole interior block: the lead rows of
    I - e^{i theta} Pi_I U are rows of the identity, so
    t = e^{i theta} (U_{L2,L1} + U_{L2,I} X_I) with
    (I - e^{i theta} U_{I,I}) X_I = e^{i theta} U_{I,L1}, an (N/2)^2 solve
    with N/4 right-hand sides (about 4.5 s at k = 6).  Memoized per
    (k, theta) and returned read-only."""
    N = 4**k
    n4 = N // 4
    phase = np.exp(1j * theta)
    U = cavity_propagator(k)
    lead1, interior, lead2 = slice(0, n4), slice(n4, 3 * n4), slice(3 * n4, N)
    A = -phase * U[interior, interior]
    A[np.diag_indices(2 * n4)] += 1.0
    X = np.linalg.solve(A, phase * U[interior, lead1])
    t = phase * (U[lead2, lead1] + U[lead2, interior] @ X)
    t.flags.writeable = False
    return t


def eye_start_series(k: int, theta: float) -> np.ndarray:
    """The bounce series' t started from all N/4 lead-1 basis columns:
    term 1 is the CLOSED_B4 apply of np.eye(N, N/4), and the columns
    reaching no interior row drop out only after it."""
    N = 4**k
    n4 = N // 4
    phase = np.exp(1j * theta)
    n_max = 200 * k
    t = np.zeros((n4, n4), dtype=complex)
    live = np.arange(n4)
    C = tensor_open_apply_block(np.eye(N, n4, dtype=complex), CLOSED_B4, "V")
    for n in range(1, n_max + 1):
        term = C[3 * n4:]
        term *= phase**n
        t[:, live] += term
        tail = np.linalg.norm(term)
        if tail < SERIES_TOL:
            return t
        alive = C[n4:3 * n4].any(axis=0)
        if not alive.all():
            C, live = C.compress(alive, axis=1), live[alive]
        C = tensor_open_apply_block(C, OPEN_B4, "V")
    raise RuntimeError(
        f"transmission series did not converge within {n_max} terms"
    )


def read_spectrum_csv(path) -> np.ndarray:
    rows = Path(path).read_text().strip().splitlines()[1:]
    vals = [complex(float(r.split(",")[0]), float(r.split(",")[1])) for r in rows]
    return np.array(vals, dtype=complex)


def peak_growth(setup: str, build: str, size: str, *args: str) -> float:
    """Growth of a fresh interpreter's peak resident set (VmHWM, from
    Linux's /proc/self/status) over the statements `build`, run after
    `setup`, divided by `size`, an expression read after the build.
    `args` are the child's sys.argv[1:].  The child runs ./src with one
    OpenBLAS thread unless the caller set a thread count, as the CLI
    does, so the reading does not depend on the host's cores."""
    script = "\n".join([setup, PEAK_KIB, "base = peak_kib()", build,
                        f"print((peak_kib() - base) * 1024 / ({size}))"])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    if not any(key in env for key in THREAD_VARS):
        env["OPENBLAS_NUM_THREADS"] = "1"
    run = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, check=True)
    return float(run.stdout)

"""Resonance spectra: eigensolving, sector counting, Weyl-law fitting,
and the closed-form spectrum of the Walsh toy model, all held as one
`Spectrum` type.

Eigenvalues of the subunitary open maps play the role of resonances; the
fractal Weyl law predicts that the number of them outside a radius r
grows like N^mu along geometric sequences of dimensions.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .transforms import check_finite

# Full dense diagonalization is refused above this dimension; use parity
# reduction (or the closed-form toy spectrum) instead.
MAX_EIG_DIM = 6000

# eigen_spectrum checks ||M v - lambda v|| <= RESIDUAL_TOL * ||M|| on
# RESIDUAL_SAMPLES eigenpairs, refining each by up to MAX_REFINE inverse
# iterations; ||M|| is estimated by OPNORM_ITERS power iterations.
RESIDUAL_TOL = 1e-8
RESIDUAL_SAMPLES = 10
MAX_REFINE = 3
OPNORM_ITERS = 20
# count_sector warns about eigenvalues this close to a counting radius
BOUNDARY_WARN = 1e-9
# invariant_nonzero_spectrum's rank cut, relative to sigma_max of M^k
RANK_RTOL = 1e-8

LAMBDA_PLUS = 1.0 + 0.0j
LAMBDA_MINUS = 1j / np.sqrt(3.0)


def canonical_order(values: np.ndarray) -> np.ndarray:
    """Sort by modulus descending, then by argument ascending in [0, 2pi)."""
    values = np.asarray(values, dtype=complex)
    args = np.mod(np.angle(values), 2 * np.pi)
    idx = np.lexsort((args, -np.abs(values)))
    return values[idx]


@dataclass
class Spectrum:
    """Eigenvalue multiset in canonical order, tagged with the dimension N
    of the full map it came from and a provenance label."""

    values: np.ndarray = field(repr=False)
    N: int
    label: str = ""
    # how the values were computed, set by eigen_spectrum (empty for
    # other spectra); not an artifact field
    diagnostics: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.values = canonical_order(self.values)

    def moduli(self) -> np.ndarray:
        return np.abs(self.values)


def _opnorm_estimate(M: np.ndarray) -> float:
    """Power iteration on M^H M; cheap lower bound on the 2-norm."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(M.shape[1]) + 1j * rng.standard_normal(M.shape[1])
    v /= np.linalg.norm(v)
    est = 0.0
    MH = M.conj().T
    for _ in range(OPNORM_ITERS):
        w = MH @ (M @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        est = math.sqrt(nw)
        v = w / nw
    return est


def _best_residual(M: np.ndarray, lam: complex, v: np.ndarray,
                   target: float) -> float:
    """Residual ||M v - lam v|| for the best unit vector reachable from v.

    The raw eigenvector is polished by inverse iteration on (M - lam I);
    for defective eigenvalue clusters this recovers the near-null vector
    that the direct eigensolver misses.
    """
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return math.inf
    v = v / nv
    res = np.linalg.norm(M @ v - lam * v)
    for _ in range(MAX_REFINE):
        if res <= target:
            break
        shift = lam * np.eye(M.shape[0])  # only built when refinement runs
        try:
            w = np.linalg.solve(M - shift, v)
        except np.linalg.LinAlgError:
            # exactly singular: perturb the shift by one ulp of the scale
            eps = 1e-15 * max(abs(lam), 1.0)
            w = np.linalg.solve(M - shift - eps * np.eye(M.shape[0]), v)
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0.0:
            break
        v = w / nw
        res = min(res, np.linalg.norm(M @ v - lam * v))
    return float(res)


def _deflate_zero_indices(M: np.ndarray) -> np.ndarray:
    """The core of M left after deleting, round by round, every index
    whose row or column is exactly zero, until none is left.

    With such an index i last, M is block-triangular with a zero diagonal
    block, so deleting row and column i keeps every nonzero eigenvalue
    with its algebraic multiplicity and Jordan structure; the deleted
    indices carry exactly n - m zero eigenvalues.  The core is a quotient
    (zero column) or a restriction (zero row) of M, so (M_core)^j is the
    matching block of M^j and no norm grows.

    The rounds run on the boolean support of M.  M itself is returned,
    in its own layout, when nothing is deleted; otherwise the core is
    one fresh C-ordered copy.  Callers only read the core.
    """
    support = M != 0
    idx = np.arange(M.shape[0])
    keep = support.any(axis=0) & support.any(axis=1)
    while not keep.all():
        idx, support = idx[keep], support[np.ix_(keep, keep)]
        keep = support.any(axis=0) & support.any(axis=1)
    if len(idx) == M.shape[0]:
        return M
    return M[np.ix_(idx, idx)]


def check_eig_dim(dim: int) -> None:
    """Refuse a dense eigensolve of dimension above MAX_EIG_DIM."""
    if dim > MAX_EIG_DIM:
        raise ValueError(
            f"dense eigensolve capped at {MAX_EIG_DIM}; dimension {dim} too "
            "large - reduce by parity sector first"
        )


def eigen_spectrum(M: np.ndarray, N: int | None = None, label: str = "") -> Spectrum:
    """All eigenvalues of a dense square matrix, canonically sorted.

    Zero rows and columns are deflated first (`_deflate_zero_indices`),
    and only the m-dimensional core is eigensolved; the n - m deleted
    indices contribute exactly n - m eigenvalues 0.0.  So a kernel made
    of exact zero rows or columns (the escaping strips of the open maps,
    the whole kernel of the Walsh toy) is returned as exact zeros, free
    of eigensolver scatter.  An input with nothing to deflate (a closed
    map) is eigensolved as given, in its own layout.  The dimension cap
    applies to the input dimension n.

    The accuracy contract ||M v - lambda v|| <= RESIDUAL_TOL * ||M|| is
    verified on a sample of the core's eigenpairs (deleting zero rows and
    columns leaves ||M|| unchanged).  The spectrum's diagnostics record
    the core dimension as `eig_dim` and the worst sampled residual
    relative to ||M|| as `max_residual_rel`.
    """
    import scipy.linalg  # here, not at module level: ~0.3 s that transport never needs

    M = check_finite(M)
    dim = M.shape[0]
    check_eig_dim(dim)
    core = _deflate_zero_indices(M)
    m = core.shape[0]
    vals = np.zeros(0, dtype=complex)
    worst = 0.0
    if m > 0:
        vals, vecs = scipy.linalg.eig(core)
        norm = max(_opnorm_estimate(core), 1e-300)
        rng = np.random.default_rng(1)
        sample = rng.choice(m, size=min(RESIDUAL_SAMPLES, m), replace=False)
        for i in sample:
            res = _best_residual(core, vals[i], vecs[:, i], RESIDUAL_TOL * norm)
            if res > RESIDUAL_TOL * norm:
                raise RuntimeError(
                    f"eigensolver residual {res:.3e} exceeds "
                    f"{RESIDUAL_TOL:.1e} * ||M|| = {RESIDUAL_TOL * norm:.3e}"
                )
            worst = max(worst, res / norm)
    return Spectrum(np.concatenate([vals, np.zeros(dim - m, dtype=complex)]),
                    N=dim if N is None else N, label=label,
                    diagnostics={"eig_dim": m, "max_residual_rel": worst})


@dataclass(frozen=True)
class SectorQuery:
    """Annular sector |lambda| > r, |arg(lambda e^{i theta})| <= rho.
    rho = pi recovers the full annulus."""

    r: float
    theta: float = 0.0
    rho: float = math.pi

    def __post_init__(self):
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"inner radius must be in [0, 1), got {self.r}")
        if not math.isfinite(self.theta):
            raise ValueError(f"angle must be finite, got {self.theta}")
        if not 0.0 < self.rho <= math.pi:
            raise ValueError(f"half-width must be in (0, pi], got {self.rho}")


def count_sector(spectrum: Spectrum, query: SectorQuery) -> int:
    """Number of eigenvalues in the sector, counted with multiplicity.

    The radial cut is strict (|lambda| > r); a warning is emitted when an
    eigenvalue sits within BOUNDARY_WARN of the radius.
    """
    mods = spectrum.moduli()
    near = np.abs(mods - query.r) <= BOUNDARY_WARN
    if query.r > 0 and np.any(near):
        warnings.warn(
            f"{int(near.sum())} eigenvalue(s) within {BOUNDARY_WARN:g} of the "
            f"counting radius r={query.r}; count may be ambiguous",
            stacklevel=2,
        )
    keep = mods > query.r
    if query.rho < math.pi:
        args = np.angle(spectrum.values * np.exp(1j * query.theta))
        keep &= np.abs(args) <= query.rho
    return int(np.count_nonzero(keep))


@dataclass
class WeylFit:
    """Least-squares fit of log(count) against log(N)."""

    slope: float
    intercept: float
    points: list
    doubling_ratios: list


def weyl_fit(series) -> WeylFit:
    """Fit the fractal Weyl exponent from (N, count) pairs.

    Only points with positive count enter the fit; consecutive ratios
    count_{i+1}/count_i are reported alongside (along a geometric D^k
    sequence the fractal law predicts doubling for mu = log 2 / log D).
    """
    pts = [(int(N), int(c)) for N, c in series]
    Ns = [N for N, _ in pts]
    for N in Ns:
        if N < 1 or Ns.count(N) > 1:
            raise ValueError(f"dimensions must be positive and distinct, got N = {N}")
    pos = [(N, c) for N, c in pts if c > 0]
    if len(pos) < 2:
        raise ValueError("need at least 2 points with positive count")
    x = np.log([N for N, _ in pos])
    y = np.log([c for _, c in pos])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    points = [
        {"N": N, "count": c, "log_residual": float(r)}
        for (N, c), r in zip(pos, resid)
    ]
    ratios = [pos[i + 1][1] / pos[i][1] for i in range(len(pos) - 1)]
    return WeylFit(float(slope), float(intercept), points, ratios)


def check_profile_radii(radii) -> None:
    """Refuse profile radii that are not strictly increasing in [0, 1)."""
    if (any(not 0.0 <= r < 1.0 for r in radii)
            or any(b <= a for a, b in zip(radii, radii[1:]))):
        raise ValueError("radii must be strictly increasing and lie in [0, 1)")


def profile_curve(spectra, mu: float, r_grid, D: int) -> np.ndarray:
    """Rescaled counting functions n(N, r) * (N/D)^(-mu).

    Row i corresponds to r_grid[i]; column j to spectra[j].  Along a
    geometric sequence the columns should collapse onto one profile.
    """
    check_profile_radii(r_grid)
    out = np.empty((len(r_grid), len(spectra)))
    for j, spec in enumerate(spectra):
        scale = (spec.N / D) ** (-mu)
        for i, r in enumerate(r_grid):
            out[i, j] = count_sector(spec, SectorQuery(r)) * scale
    return out


def toy_closed_spectrum(k: int) -> Spectrum:
    """Exact spectrum of the Walsh toy 3-baker at N = 3^k, every
    eigenvalue repeated by its exact multiplicity.

    The map acts as a weighted cyclic shift on words over the two nonzero
    eigendirections of G_3^* pi_{0,2} (eigenvalues 1 and i/sqrt(3)).  Each
    cyclic orbit of length d with m minus-symbols per period contributes
    the d d-th roots of 1^(d-m) (i/sqrt 3)^m, which land on the lattice
    points e^{2 pi i l/k} (i/sqrt 3)^(p/k), evaluated in floating point
    without rounding; summing orbit lengths over the words with p
    minus-symbols recovers the ring total binomial(k, p) on the circle
    of modulus 3^(-p/2k).  The other 3^k - 2^k eigenvalues are exact
    zeros.
    """
    if k < 1:
        raise ValueError(f"length must be >= 1, got {k}")
    seen: set[int] = set()
    points = []
    for w in range(2**k):
        if w in seen:
            continue
        # cyclic orbit of the k-bit word w
        orbit = []
        v = w
        while v not in seen:
            seen.add(v)
            orbit.append(v)
            v = ((v << 1) | (v >> (k - 1))) & ((1 << k) - 1)
        d = len(orbit)
        # minus-symbols consumed around one period (w is d-periodic)
        m = bin(w).count("1") * d // k
        prod = LAMBDA_PLUS ** (d - m) * LAMBDA_MINUS**m
        mod = abs(prod) ** (1.0 / d)
        base_arg = np.angle(prod) / d
        points += [mod * np.exp(1j * (base_arg + 2 * np.pi * l / d))
                   for l in range(d)]
    return Spectrum(np.concatenate([points, np.zeros(3**k - 2**k)]), N=3**k,
                    label=f"toy-closed-k{k}")


def invariant_nonzero_spectrum(M: np.ndarray, k: int) -> tuple:
    """Nonzero eigenvalues of M via the k-th power factorization.

    After k steps the generalized kernel is exhausted: range(M^k) is the
    invariant subspace carrying every nonzero eigenvalue, so the spectrum
    of M restricted to an orthonormal basis Q of range(M^k) is exactly
    the nonzero spectrum.  This sidesteps the eigensolver scatter that a
    direct dense diagonalization produces around a large defective kernel.

    Zero rows and columns are deflated first (`_deflate_zero_indices`),
    and the factorization runs on the remaining core (the 2^k of 3^k
    indices of the Walsh toy); the kernel dimension is that of M.

    Returns (nonzero eigenvalues in canonical order, kernel dimension).
    The numerical rank cut uses RANK_RTOL relative to the largest
    singular value of M^k and requires a clean gap (factor 10^3) between
    kept and discarded singular values.
    """
    import scipy.linalg  # as in eigen_spectrum

    M = check_finite(M)
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    n = M.shape[0]
    M = _deflate_zero_indices(M)
    if M.shape[0] == 0:
        return np.zeros(0, dtype=complex), n
    P = np.linalg.matrix_power(M, k)
    U, s, _ = np.linalg.svd(P)
    if s[0] == 0.0:
        return np.zeros(0, dtype=complex), n
    rank = int(np.count_nonzero(s > RANK_RTOL * s[0]))
    if rank < len(s) and s[rank] > 1e-3 * s[rank - 1]:
        raise RuntimeError(
            f"no clean rank gap in M^{k}: sigma_{rank - 1} = {s[rank - 1]:.3e} "
            f"vs sigma_{rank} = {s[rank]:.3e}"
        )
    Q = U[:, :rank]
    vals = scipy.linalg.eigvals(Q.conj().T @ M @ Q)
    return canonical_order(vals), n - rank


@dataclass
class MatchReport:
    """Result of matching a computed spectrum against a reference."""

    max_distance: float
    unmatched: int
    ring_totals: dict

    @property
    def all_matched(self) -> bool:
        return self.unmatched == 0


def compare_spectra(spectrum: Spectrum, reference: Spectrum,
                    tol: float = 1e-8) -> MatchReport:
    """Greedy nearest-point matching of computed eigenvalues to a
    reference lattice (`toy_closed_spectrum`), largest moduli first.

    Reports the worst matched distance, how many pairs exceed tol, and
    the computed spectrum's per-ring totals: for N = 3^k, ring p counts
    its nonzero eigenvalues with -2k log_3 |lambda| nearest p, the circle
    of modulus 3^(-p/2k).  On the lattice these are binomial(k, p); a
    spectrum off the lattice shows in them as well as in the distances.
    """
    computed = spectrum.values
    ref = reference.values
    if len(computed) != len(ref):
        raise ValueError(
            f"dimension mismatch: {len(computed)} computed vs {len(ref)} reference"
        )
    alive = np.ones(len(ref), dtype=bool)
    distances = np.empty(len(computed))
    for i, z in enumerate(computed):
        idx = np.where(alive)[0]
        j = idx[np.argmin(np.abs(ref[idx] - z))]
        distances[i] = abs(ref[j] - z)
        alive[j] = False
    unmatched = int(np.count_nonzero(distances > tol))
    k = round(math.log(reference.N, 3))
    rings = Counter(round(-2 * k * math.log(m) / math.log(3.0))
                    for m in spectrum.moduli() if m > 0)
    return MatchReport(float(distances.max()), unmatched, dict(rings))

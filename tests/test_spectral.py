"""Spectral tools: eigensolving with residual checks, sector counting,
Weyl fits, profile curves, and the closed-form toy spectrum."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from openbaker.classical import B3, B5, transfer_matrix
from openbaker import cli
from openbaker.cli import build_map, map_spectrum
from openbaker.quantize import (build_toy_diagonal, parity_restrict,
                                quantize_closed, quantize_open)
from openbaker.spectral import (RESIDUAL_TOL, SectorQuery, Spectrum,
                                canonical_order, compare_spectra, count_sector,
                                eigen_spectrum, invariant_nonzero_spectrum,
                                profile_curve, toy_closed_spectrum, weyl_fit)
from openbaker.spectral import _deflate_zero_indices
from openbaker.transforms import build_walsh
from reference import dense_quantization, peak_growth


# -------------------------------------------------------------- ordering

@given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=30))
def test_canonical_order_sorts_by_modulus(values):
    out = canonical_order(np.array(values))
    mods = np.abs(out)
    assert np.all(mods[:-1] >= mods[1:] - 1e-15)
    # a permutation of the input
    assert sorted(map(abs, values)) == pytest.approx(sorted(mods))


def test_canonical_order_breaks_ties_by_argument():
    vals = np.exp(2j * np.pi * np.array([0.75, 0.25, 0.0, 0.5]))
    out = canonical_order(vals)
    args = np.mod(np.angle(out), 2 * np.pi)
    assert np.all(np.diff(args) > 0)


def test_spectrum_sorts_on_construction():
    s = Spectrum(np.array([0.1, 1.0, 0.5]), N=3)
    assert np.allclose(np.abs(s.values), [1.0, 0.5, 0.1])
    assert len(s.values) == 3


# ----------------------------------------------------------- eigensolver

def test_eigen_spectrum_of_diagonal_matrix():
    # [TRIVIAL]
    d = np.array([3.0, -1.0j, 0.25])
    s = eigen_spectrum(np.diag(d))
    assert np.allclose(canonical_order(d), s.values)


def test_eigen_spectrum_handles_defective_kernels():
    # [DERIVED] the Walsh toy map has a large defective kernel; the
    # residual contract must still hold via eigenvector refinement.  The
    # dense product S_4^* . blockstack(S_3) leaves rounding where the map
    # has exact zeros, so most of its kernel survives the deflation: a
    # core of 54 of 81 holding 16 nonzero eigenvalues, whose kernel
    # eigenvalues scatter up to 3.0e-6 in modulus
    M = dense_quantization(build_walsh(3, 4, "W"), 3, B3.kept, build_walsh(3, 3, "W"))
    s = eigen_spectrum(M)
    assert len(s.values) == 81
    assert s.diagnostics["eig_dim"] > 2**4


@pytest.mark.parametrize("parity,N_cap,N_over", [
    ("full", 6000, 6001), ("even", 12000, 12002), ("odd", 12000, 12002)])
def test_map_spectrum_refuses_oversized_before_building(monkeypatch, parity,
                                                        N_cap, N_over):
    # the eigensolve cap (halved by parity) is checked before the N x N
    # map is built; at the cap the build is reached
    def build(*args):
        raise RuntimeError("dense map allocated")

    monkeypatch.setattr(cli, "build_map", build)
    with pytest.raises(ValueError, match="dense eigensolve capped at 6000"):
        map_spectrum("dft", B5, N_over, parity)
    with pytest.raises(RuntimeError, match="allocated"):
        map_spectrum("dft", B5, N_cap, parity)


def test_build_map_rejects_an_unknown_family():
    with pytest.raises(ValueError, match="unknown map family 'fourier'"):
        build_map("fourier", B5, 20)
    # the toy is the walsh family's B3 "W" map, under no second name
    with pytest.raises(ValueError, match="unknown map family 'toy'"):
        build_map("toy", B3, 9)


def test_eigen_spectrum_rejects_bad_input():
    with pytest.raises(ValueError):
        eigen_spectrum(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigen_spectrum(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        eigen_spectrum(np.zeros((6001, 6001)))


# -------------------------------------------------------------- counting

def test_count_sector_strict_radius():
    s = Spectrum(np.array([1.0, 0.5, 0.5, 0.1]), N=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert count_sector(s, SectorQuery(0.5)) == 1
        assert count_sector(s, SectorQuery(0.4)) == 3
        assert count_sector(s, SectorQuery(0.0)) == 4


def test_count_sector_warns_near_boundary():
    s = Spectrum(np.array([0.5 + 1e-12]), N=1)
    with pytest.warns(UserWarning, match="counting radius"):
        count_sector(s, SectorQuery(0.5))


def test_count_sector_angular_wedge():
    s = Spectrum(np.exp(2j * np.pi * np.array([0.0, 0.25, 0.5, 0.75])), N=4)
    q = SectorQuery(0.1, theta=0.0, rho=0.1)
    assert count_sector(s, q) == 1  # only the eigenvalue at angle 0
    q = SectorQuery(0.1, theta=math.pi / 2, rho=0.1)
    assert count_sector(s, q) == 1  # rotated wedge catches angle -pi/2


@given(st.floats(min_value=0, max_value=0.99), st.floats(min_value=0, max_value=0.99))
def test_count_sector_is_monotone_in_radius(r1, r2):
    rng = np.random.default_rng(42)
    vals = rng.uniform(0, 1, 50) * np.exp(2j * np.pi * rng.uniform(0, 1, 50))
    s = Spectrum(vals, N=50)
    lo, hi = sorted((r1, r2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert count_sector(s, SectorQuery(lo)) >= count_sector(s, SectorQuery(hi))


def test_sector_query_validation():
    with pytest.raises(ValueError):
        SectorQuery(1.0)
    with pytest.raises(ValueError):
        SectorQuery(0.5, rho=0.0)
    # a non-finite angle would count nothing in any sector
    for theta in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"angle must be finite, got {theta}"):
            SectorQuery(0.5, theta, 1.0)


# ------------------------------------------------------------- Weyl fits

def test_weyl_fit_recovers_power_law():
    # [DERIVED] exact power law data n = 3 N^0.4
    dims = [20, 100, 500, 2500]
    series = [(N, round(3 * N**0.4)) for N in dims]
    fit = weyl_fit(series)
    assert fit.slope == pytest.approx(0.4, abs=0.01)
    assert len(fit.doubling_ratios) == 3
    assert dataclasses.asdict(fit)["points"][0]["N"] == 20


def test_weyl_fit_needs_two_positive_points():
    with pytest.raises(ValueError):
        weyl_fit([(10, 5), (20, 0)])


@pytest.mark.parametrize("series, N", [([(100, 5), (100, 6)], 100),
                                       ([(0, 5), (100, 6)], 0),
                                       ([(100, 5), (-4, 6)], -4),
                                       ([(20, 0), (100, 5), (20, 0), (500, 9)], 20)])
def test_weyl_fit_refuses_repeated_or_nonpositive_dimensions(series, N):
    # one dimension fitted as two gave a slope with only a RankWarning,
    # and N <= 0 an unconverged SVD
    with pytest.raises(ValueError, match=f"got N = {N}$"):
        weyl_fit(series)


def test_profile_curve_collapses_self_similar_data():
    # [DERIVED] counts built to scale exactly like (N/D)^mu collapse
    mu, D = 0.5, 5
    r_grid = np.array([0.1, 0.3, 0.5])
    spectra = []
    for N in (20, 100, 500):
        n_each = int(round(4 * (N / D) ** mu))
        vals = np.concatenate([np.full(n_each, r + 0.05) for r in r_grid])
        spectra.append(Spectrum(vals.astype(complex), N=N))
    table = profile_curve(spectra, mu, r_grid, D)
    spread = np.abs(table - table[:, :1])
    assert np.max(spread / table[:, :1]) < 0.05


def test_profile_curve_validates_grid():
    s = Spectrum(np.array([0.5]), N=5)
    with pytest.raises(ValueError):
        profile_curve([s], 0.5, [0.5, 0.1], 5)
    with pytest.raises(ValueError):
        profile_curve([s], 0.5, [0.5, 1.5], 5)


# ------------------------------------------------------ toy closed form

@pytest.mark.parametrize("k", range(1, 8))
def test_toy_closed_spectrum_combinatorics(k):
    # [PAPER] ring-p totals binomial(k,p); kernel 3^k - 2^k; total 3^k
    cf = toy_closed_spectrum(k)
    assert len(cf.values) == cf.N == 3**k
    assert np.count_nonzero(cf.values == 0) == 3**k - 2**k
    mods = cf.moduli()
    rings = np.rint(-2 * k * np.log(mods[mods > 0]) / math.log(3.0))
    assert np.allclose(mods[mods > 0], 3.0 ** (-rings / (2 * k)), atol=1e-12)
    totals = dict(zip(*np.unique(rings.astype(int), return_counts=True)))
    assert totals == {p: math.comb(k, p) for p in range(k + 1)}


def test_toy_closed_spectrum_k1():
    # [PAPER] the two nonzero eigenvalues at k = 1 are 1 and i/sqrt(3)
    cf = toy_closed_spectrum(1)
    nonzero = cf.values[cf.values != 0]  # canonical order: largest first
    assert len(nonzero) == 2
    assert nonzero[0] == pytest.approx(1.0)
    assert nonzero[1] == pytest.approx(1j / math.sqrt(3))


def test_toy_closed_spectrum_rejects_bad_k():
    with pytest.raises(ValueError):
        toy_closed_spectrum(0)


@pytest.mark.parametrize("k", range(1, 8))
def test_invariant_spectrum_matches_closed_form(k):
    # [DERIVED] restriction to range(M^k) isolates the 2^k nonzero
    # eigenvalues exactly, free of kernel scatter: each lies within a few
    # ulps of the unrounded lattice (worst 6.7e-15, at k = 7)
    vals, kdim = invariant_nonzero_spectrum(build_toy_diagonal(3**k), k)
    assert len(vals) == 2**k
    assert kdim == 3**k - 2**k
    full = Spectrum(np.concatenate([vals, np.zeros(kdim, dtype=complex)]), N=3**k)
    report = compare_spectra(full, toy_closed_spectrum(k))
    assert report.all_matched
    assert report.max_distance < 1e-13


def test_invariant_spectrum_validates_input():
    with pytest.raises(ValueError):
        invariant_nonzero_spectrum(np.ones((2, 3)), 1)
    with pytest.raises(ValueError):
        invariant_nonzero_spectrum(np.eye(3), 0)


def test_invariant_spectrum_of_a_nilpotent_core_is_all_kernel():
    # no zero row or column to deflate, yet M^2 = 0 exactly: the whole
    # space is kernel
    vals, kdim = invariant_nonzero_spectrum(np.array([[1, 1], [-1, -1]]), 2)
    assert len(vals) == 0
    assert kdim == 2


def test_invariant_spectrum_refuses_a_rank_without_a_gap():
    # sigma = 1, 2e-8, 5e-9: the cut at RANK_RTOL keeps two, but the
    # discarded 5e-9 is within 10^3 of the kept 2e-8
    with pytest.raises(RuntimeError, match="no clean rank gap"):
        invariant_nonzero_spectrum(np.diag([1.0, 2e-8, 5e-9]), 1)


# ------------------------------------------- zero-index deflation

def dense_invariant_nonzero_spectrum(M, k, rank_rtol=1e-8):
    """Reference: the k-th power factorization on the whole matrix, with
    no deflation of zero rows and columns."""
    U, s, _ = np.linalg.svd(np.linalg.matrix_power(M, k))
    if s[0] == 0.0:
        return np.zeros(0, dtype=complex), M.shape[0]
    rank = int(np.count_nonzero(s > rank_rtol * s[0]))
    assert rank == len(s) or s[rank] <= 1e-3 * s[rank - 1]
    Q = U[:, :rank]
    vals = scipy.linalg.eigvals(Q.conj().T @ M @ Q)
    return canonical_order(vals), M.shape[0] - rank


def max_matched_distance(a, b):
    """Worst distance of a greedy nearest-point matching between two
    multisets of equal size."""
    assert len(a) == len(b)
    alive = np.ones(len(b), dtype=bool)
    worst = 0.0
    for z in a:
        idx = np.flatnonzero(alive)
        j = idx[np.argmin(np.abs(b[idx] - z))]
        worst = max(worst, abs(b[j] - z))
        alive[j] = False
    return worst


@pytest.mark.parametrize("kind", ["toy", "transfer"])
@pytest.mark.parametrize("k", range(1, 7))
def test_deflated_invariant_spectrum_matches_dense_reference(k, kind):
    # [DERIVED] deleting zero rows and columns keeps the nonzero spectrum
    # and the kernel dimension of the whole matrix
    M = build_toy_diagonal(3**k)
    if kind == "transfer":
        M = transfer_matrix(M).astype(complex)
    vals, kdim = invariant_nonzero_spectrum(M, k)
    ref, ref_kdim = dense_invariant_nonzero_spectrum(M, k)
    assert kdim == ref_kdim
    assert max_matched_distance(vals, ref) < 1e-12


def embedded_core(core, tail, rng):
    """core (m x m) in an n x n matrix whose rest R is deflated through
    zero rows: M[K, R] is a random coupling and M[R, R] the nilpotent
    `tail`, so row by row the rest empties out in one round when `tail`
    is zero and in len(tail) rounds when it is a shift.  Indices are
    randomly permuted."""
    m, r = len(core), len(tail)
    M = np.zeros((m + r, m + r), dtype=complex)
    M[:m, :m] = core
    M[:m, m:] = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    M[m:, m:] = tail
    perm = rng.permutation(m + r)
    return M[np.ix_(perm, perm)]


@pytest.mark.parametrize("zeros", ["rows", "columns"])
@pytest.mark.parametrize("tail", ["zero", "shift"])
def test_deflated_invariant_spectrum_of_embedded_core(zeros, tail):
    # [DERIVED] a generic core coupled to a rest with zero rows (or, by
    # transposition, zero columns); with the shift tail the rest takes
    # five deflation rounds, and k = 2 is too small for the undeflated
    # power to exhaust the tail's kernel
    rng = np.random.default_rng(7)
    m, r = 8, 5
    core = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    S = np.eye(r, k=1) if tail == "shift" else np.zeros((r, r))
    M = embedded_core(core, S, rng)
    if zeros == "columns":
        M, core = M.T, core.T
    vals, kdim = invariant_nonzero_spectrum(M, 2)
    assert kdim == len(M) - m
    assert len(vals) == m
    assert max_matched_distance(vals, scipy.linalg.eigvals(core)) < 1e-10


def test_invariant_spectrum_of_zero_matrix_is_empty():
    vals, kdim = invariant_nonzero_spectrum(np.zeros((5, 5)), 3)
    assert len(vals) == 0 and kdim == 5


def test_invariant_spectrum_of_short_power_of_nilpotent_shift_is_empty():
    # [DERIVED] the shift deflates to nothing, so a power k < n no longer
    # leaves a rank n - k whose eigenvalues pass for nonzero ones
    for S in (np.eye(6, k=1), np.eye(6, k=-1)):
        vals, kdim = invariant_nonzero_spectrum(S, 2)
        assert len(vals) == 0 and kdim == 6


def test_invariant_spectrum_toy_k8():
    # [PAPER] beyond the acceptance range: N = 6561 deflates to its
    # 2^8-dimensional core; 256 nonzero eigenvalues on the lattice, kernel
    # 3^8 - 2^8, ring totals binomial(8, p)
    k = 8
    vals, kdim = invariant_nonzero_spectrum(build_toy_diagonal(3**k), k)
    assert len(vals) == 2**k
    assert kdim == 3**k - 2**k
    full = Spectrum(np.concatenate([vals, np.zeros(kdim, dtype=complex)]), N=3**k)
    report = compare_spectra(full, toy_closed_spectrum(k), tol=1e-10)
    assert report.all_matched
    assert report.ring_totals == {p: math.comb(k, p) for p in range(k + 1)}


# ---------------------------------------- deflated dense eigensolve

WEYL_COUNT_RADII = (0.5, 0.1, 0.05, 0.01, 0.005, 0.001)


def dense_eigenvalues(M):
    """Reference: plain dense eigenvalues of the whole matrix, with no
    deflation of zero rows and columns."""
    return scipy.linalg.eig(M, right=False)


@pytest.mark.parametrize("parity", ["even", "odd", "full"])
@pytest.mark.parametrize("N", [20, 100, 500])
def test_deflated_eigen_spectrum_matches_dense_reference(N, parity):
    # [DERIVED] the open 5-baker's escaping strips give exact zero
    # columns; eigensolving only the core keeps every count of the
    # paper's table radii and the eigenvalues with |lambda| > 0.01
    M = build_map("dft", B5, N)
    if parity != "full":
        M = parity_restrict(M, parity)
    s = map_spectrum("dft", B5, N, parity)
    ref = dense_eigenvalues(M)
    assert len(s.values) == len(ref)
    for r in WEYL_COUNT_RADII:
        assert np.count_nonzero(s.moduli() > r) == np.count_nonzero(np.abs(ref) > r)
    big = s.values[s.moduli() > 0.01]
    assert max_matched_distance(big, ref[np.abs(ref) > 0.01]) < 1e-9
    # the kept strips are the core: s of D columns, halved by parity
    assert s.diagnostics["eig_dim"] == (2 * N // 5 if parity == "full" else N // 5)


def test_eigen_spectrum_of_an_undeflated_column_major_map_is_layout_free():
    # [DERIVED] the closed map has no zero strip, so its core is the
    # matrix itself, in either layout.  The eigensolver takes its own
    # Fortran copy, so the values are the same bit for bit; the residual
    # check's M @ v sums in another order on each layout, so only both
    # residuals are held to the contract
    M = quantize_closed(5, 100)
    assert M.flags.f_contiguous
    C = np.ascontiguousarray(M)
    assert _deflate_zero_indices(M) is M and _deflate_zero_indices(C) is C
    s, ref = eigen_spectrum(M), eigen_spectrum(C)
    assert s.diagnostics["eig_dim"] == 100
    assert np.array_equal(s.values, ref.values)
    assert s.diagnostics["max_residual_rel"] < RESIDUAL_TOL
    assert ref.diagnostics["max_residual_rel"] < RESIDUAL_TOL


EIG_RSS_SETUP = """
import scipy.linalg
from openbaker.quantize import quantize_closed
from openbaker.spectral import eigen_spectrum
"""
EIG_RSS_BUILD = """
M = quantize_closed(5, 600)
eigen_spectrum(M)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs /proc/self/status")
def test_eigen_spectrum_of_an_undeflated_map_copies_it_once():
    # growth of a fresh interpreter's peak resident set, scipy already
    # imported, over the closed map's size at N = 600: the map, scipy's
    # Fortran copy of it, the eigenvectors and the eigensolver's own
    # memory.  Measured 4.03-4.05 on 2 BLAS threads and 3.88 on one;
    # 5.03-5.05 (4.88) when the undeflated core was a C-ordered copy of
    # the map
    assert peak_growth(EIG_RSS_SETUP, EIG_RSS_BUILD, "M.nbytes") <= 4.5


def test_table_counts_at_N100_hold_at_30_digits():
    # [PAPER] supplementary: the N = 100 row of the even-parity table is
    # no double-precision artifact.  The 20 x 20 even core, eigensolved at
    # 30 digits, gives the double counts at every table radius (the same
    # at 60 digits; the nearest eigenvalue is 6.0e-5 from a radius)
    mpmath = pytest.importorskip("mpmath")
    M = parity_restrict(quantize_open(B5, 100), "even")
    core = _deflate_zero_indices(M)
    assert core.shape == (20, 20)
    with mpmath.workdps(30):
        vals = mpmath.eig(mpmath.matrix(core.tolist()), left=False, right=False)
        moduli = [abs(v) for v in vals]
    s = eigen_spectrum(M, N=100)
    for r, expected in zip(WEYL_COUNT_RADII, (4, 10, 10, 13, 14, 16)):
        assert sum(m > r for m in moduli) == expected
        assert count_sector(s, SectorQuery(r)) == expected


@pytest.mark.parametrize("zeros", ["rows", "columns"])
@pytest.mark.parametrize("tail", ["zero", "shift"])
def test_deflated_eigen_spectrum_of_embedded_core(zeros, tail):
    # [DERIVED] the core's eigenvalues plus exactly n - m zeros
    rng = np.random.default_rng(11)
    m, r = 8, 5
    core = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    S = np.eye(r, k=1) if tail == "shift" else np.zeros((r, r))
    M = embedded_core(core, S, rng)
    if zeros == "columns":
        M, core = M.T, core.T
    s = eigen_spectrum(M)
    assert len(s.values) == s.N == m + r
    assert s.diagnostics["eig_dim"] == m
    assert np.count_nonzero(s.values == 0) == r
    assert max_matched_distance(s.values[:m], scipy.linalg.eigvals(core)) < 1e-10
    assert 0.0 < s.diagnostics["max_residual_rel"] < 1e-8


def test_eigen_spectrum_of_zero_matrix_skips_the_eigensolve(monkeypatch):
    def no_eig(*args, **kwargs):
        raise AssertionError("eig called on an empty core")

    monkeypatch.setattr(scipy.linalg, "eig", no_eig)
    s = eigen_spectrum(np.zeros((7, 7)))
    assert len(s.values) == s.N == 7
    assert np.all(s.values == 0)
    assert s.diagnostics["eig_dim"] == 0
    assert eigen_spectrum(np.zeros((7, 7)), N=14).N == 14


@pytest.mark.parametrize("k", range(1, 7))
def test_toy_spectrum_through_the_dense_verb_path(k):
    # [PAPER] supplementary: the spectrum verbs' dense route, on the
    # toy's 2^k core, reproduces the closed-form lattice and its kernel:
    # the walsh family's B3 "W" map is the toy, whose 3^k - 2^k kernel
    # eigenvalues are exact zeros, not eigensolver scatter
    s = map_spectrum("walsh", B3, 3**k, "full")
    assert s.diagnostics["eig_dim"] == 2**k
    assert np.count_nonzero(s.values == 0) == 3**k - 2**k
    report = compare_spectra(s, toy_closed_spectrum(k), tol=1e-8)
    assert report.unmatched == 0
    assert report.ring_totals == {p: math.comb(k, p) for p in range(k + 1)}


# --------------------------------------------------------------- matching

def test_compare_spectra_detects_perturbation():
    cf = toy_closed_spectrum(2)
    vals = cf.values.copy()
    vals[0] += 1e-4
    report = compare_spectra(Spectrum(vals, N=9), cf, tol=1e-8)
    assert report.unmatched == 1
    assert report.max_distance == pytest.approx(1e-4, rel=1e-3)


def test_compare_spectra_ring_totals_count_the_computed_spectrum():
    # 16 eigenvalues on the modulus-0.9 circle, which rounds to ring 1 at
    # k = 4, are not the lattice: the ring totals say so instead of
    # repeating the reference's binomial(4, p)
    cf = toy_closed_spectrum(4)
    wrong = Spectrum(np.concatenate([np.full(16, 0.9), np.zeros(65)]), N=81)
    report = compare_spectra(wrong, cf, tol=1e-8)
    assert report.ring_totals == {1: 16}
    assert report.unmatched == 25
    assert compare_spectra(cf, cf).ring_totals == {p: math.comb(4, p)
                                                   for p in range(5)}


def test_compare_spectra_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        compare_spectra(Spectrum(np.ones(3), N=3), toy_closed_spectrum(2))

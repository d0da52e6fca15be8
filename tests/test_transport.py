"""Transport through the Walsh 4-baker cavity: lead projectors,
transmission matrices, and Landauer quantities."""

import sys

import numpy as np
import pytest

from openbaker import quantize, transport
from openbaker.classical import CLOSED_B4, OPEN_B4, _kept_words
from openbaker.quantize import tensor_open_apply_block
from openbaker.transforms import MAX_DENSE_DIM
from openbaker.transport import (RANDOM_MATRIX_FANO, SERIES_TOL,
                                 SHOT_NOISE_CONSTANT, cavity_propagator,
                                 transmission_matrix, transport_asymptotics,
                                 transport_quantities, transport_result)
from reference import (exit_digit_reference, eye_start_series,
                       interior_block_resolvent, interior_run_reference,
                       lead_projectors, peak_growth, trapped_levels)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lead_projectors_partition_the_space(k):
    # [TRIVIAL] orthogonal 0/1 projectors summing to the identity
    l1, l2, interior = lead_projectors(k)
    N = 4**k
    assert l1.sum() == N // 4 and l2.sum() == N // 4
    assert interior.sum() == N // 2
    assert np.array_equal(l1 + l2 + interior, np.ones(N))
    assert np.max(l1 * l2) == 0.0 and np.max(l1 * interior) == 0.0


def test_lead_projectors_reject_bad_k():
    with pytest.raises(ValueError):
        lead_projectors(0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cavity_propagator_is_unitary(k):
    U = cavity_propagator(k)
    assert np.max(np.abs(U.conj().T @ U - np.eye(4**k))) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_series_matches_resolvent(k, theta):
    # [DERIVED] two independent evaluations of the same geometric sum
    t_res = transmission_matrix(k, theta, "resolvent")
    t_ser = transmission_matrix(k, theta, "series")
    assert np.max(np.abs(t_res - t_ser)) < 1e-10


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_series_matches_resolvent_at_k5(theta):
    t_res = transmission_matrix(5, theta, "resolvent")
    t_ser = transmission_matrix(5, theta, "series")
    assert np.max(np.abs(t_res - t_ser)) < 1e-10


def reference_series(k, theta, tol=1e-12):
    """Reference: the bounce series with the dense propagator, zeroing the
    lead rows of each bounced block by hand.  Returns t and the number of
    terms summed."""
    N = 4**k
    n4 = N // 4
    U = cavity_propagator(k)
    phase = np.exp(1j * theta)
    t = np.zeros((n4, n4), dtype=complex)
    C = np.eye(N, n4, dtype=complex)
    for n in range(1, 200 * k + 1):
        UC = U @ C
        term = phase**n * UC[3 * n4:]
        t += term
        if np.linalg.norm(term) < tol:
            return t, n
        C = UC
        C[:n4] = 0.0
        C[3 * n4:] = 0.0
    raise RuntimeError("reference series did not converge")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_series_matches_dense_reference_loop(k, monkeypatch):
    # one tensor apply per term after the first, which starts from the
    # seed column; the same number of terms as the dense loop, and the
    # same sum up to rounding
    calls = []
    real = transport.tensor_open_apply_block
    monkeypatch.setattr(transport, "tensor_open_apply_block",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    t_ref, n_ref = reference_series(k, 0.3)
    t = transmission_matrix(k, 0.3, "series")
    assert len(calls) == n_ref - 1
    assert np.max(np.abs(t - t_ref)) < 1e-13


def full_width_series(k, theta):
    """Reference: the bounce series with the same matrix-free applies,
    carrying all N/4 lead-1 columns through every term.  Returns t, the
    number of terms summed and the norm of the last one."""
    N = 4**k
    n4 = N // 4
    phase = np.exp(1j * theta)
    t = np.zeros((n4, n4), dtype=complex)
    C = tensor_open_apply_block(np.eye(N, n4, dtype=complex), CLOSED_B4, "V")
    for n in range(1, 200 * k + 1):
        term = phase**n * C[3 * n4:]
        t += term
        if np.linalg.norm(term) < SERIES_TOL:
            return t, n, np.linalg.norm(term)
        C = tensor_open_apply_block(C, OPEN_B4, "V")
    raise RuntimeError("full-width series did not converge")


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_series_dropping_dead_columns_matches_full_width_loop(k):
    # every lead-1 column but the trapped ones leaves whole, at a single
    # bounce, so carrying only the trapped columns and writing the others
    # in closed form changes neither t nor the number of terms
    t_ref, n_ref, tail_ref = full_width_series(k, 0.3)
    assert np.max(np.abs(transmission_matrix(k, 0.3, "series") - t_ref)) <= 1e-14
    diag = transport_result(k, 0.3, "series").diagnostics
    assert diag["series_terms"] == n_ref
    assert diag["series_tail_norm"] == pytest.approx(tail_ref, rel=1e-12)
    assert diag["series_tail_norm"] < SERIES_TOL


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_series_first_term_matches_eye_start(k, theta):
    # the leaving columns in closed form and the N x 2^(k-1) block of the
    # trapped ones started from the seed column: the same arithmetic as
    # applying U to np.eye(N, N/4) and dropping the dead columns after it
    assert np.array_equal(transmission_matrix(k, theta, "series"),
                          eye_start_series(k, theta))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_series_ends_on_the_interior_input_words(k, monkeypatch):
    # the inputs whose k - 1 remaining digits are all interior
    # ({1, 2}^(k-1)) are the only columns the series carries, from its
    # first apply to its last
    shapes = []
    real = transport.tensor_open_apply_block
    monkeypatch.setattr(transport, "tensor_open_apply_block",
                        lambda X, *a, **kw: shapes.append(X.shape) or real(X, *a, **kw))
    diag = transport_result(k, 0.3, "series").diagnostics
    assert shapes == [(4**k, 2 ** (k - 1))] * (diag["series_terms"] - 1)


SERIES_TERMS = dict(enumerate([104, 105, 106, 107, 109, 110], 1))


@pytest.mark.parametrize("k, terms", SERIES_TERMS.items())
def test_series_terms_are_pinned(k, terms):
    # a trapped channel's first k - 1 terms are exactly zero, so a stop
    # test that read them would end the series after one term
    diag = transport_result(k, 0.3, "series").diagnostics
    assert diag["series_terms"] == terms
    assert 0.0 < diag["series_tail_norm"] < SERIES_TOL


def test_series_stop_test_calls_no_blas_norm(monkeypatch):
    # np.linalg.norm is a BLAS dot, which from k = 6 wakes the OpenBLAS
    # worker threads on every term
    def refuse(*args, **kwargs):
        raise AssertionError("the series called np.linalg.norm")

    monkeypatch.setattr(np.linalg, "norm", refuse)
    diag = transport_result(6, 0.3, "series").diagnostics
    assert diag["series_terms"] == SERIES_TERMS[6]


def test_series_calls_do_not_share_state():
    # the series reuses two block buffers within a call; nothing carries
    # over to the next call
    first = transmission_matrix(3, 0.3, "series")
    assert np.array_equal(transmission_matrix(3, 0.3, "series"), first)


def full_resolvent(k, theta):
    """Reference: U and X = (I - e^{i theta} Pi_I U)^{-1} Pi_L1 from the
    full N x N solve against the lead-1 basis columns."""
    N = 4**k
    U = cavity_propagator(k)
    _, _, interior = lead_projectors(k)
    A = -np.exp(1j * theta) * (interior[:, None] * U)
    A[np.diag_indices(N)] += 1.0
    return U, np.linalg.solve(A, np.eye(N, N // 4, dtype=complex))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_flux_conservation(k):
    # [DERIVED] unitarity of the cavity forces |r psi|^2 + |t psi|^2 = 1
    # for every state entering through lead 1
    n4 = 4**k // 4
    U, X = full_resolvent(k, 0.0)
    r = U[:n4, :] @ X      # back out through lead 1
    t = U[3 * n4:, :] @ X  # out through lead 2
    flux = np.linalg.norm(r, axis=0) ** 2 + np.linalg.norm(t, axis=0) ** 2
    assert np.max(np.abs(flux - 1.0)) < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("theta", [0.0, 0.3, 2.1])
def test_interior_block_resolvent_matches_full_solve(k, theta):
    # [DERIVED] the lead rows of I - e^{i theta} Pi_I U are identity rows,
    # so the interior-block (Schur complement) solve gives the same t
    U, X = full_resolvent(k, theta)
    t_full = np.exp(1j * theta) * (U[3 * 4**k // 4:, :] @ X)
    t = transmission_matrix(k, theta, "resolvent")
    assert t.shape == t_full.shape
    assert np.max(np.abs(t - t_full)) < 1e-12


# the interior-block solves the tests compare against, memoized: the
# k = 6 one takes about 4.5 s, so it is solved at one quasi-energy only
REFERENCE_CASES = [(k, theta) for k in (1, 2, 3, 4, 5)
                   for theta in (0.0, 0.3, 2.1)] + [(6, 0.3)]


@pytest.mark.parametrize("k, theta", REFERENCE_CASES)
def test_trapped_resolvent_matches_interior_block_solve(k, theta):
    # the elimination solves only the 2^k core {1, 2}^k; at k = 1 that is
    # the whole interior, and the one lead-1 column reaches it
    t_ref = interior_block_resolvent(k, theta)
    t = transmission_matrix(k, theta)
    assert transmission_matrix(k, theta, trapped_only=True)[1] == {"solve_dim": 2**k}
    assert t.shape == t_ref.shape
    assert np.max(np.abs(t - t_ref)) <= 1e-12
    res, ref = transport_quantities(t), transport_quantities(t_ref)
    assert np.max(np.abs(np.sort(res.T) - np.sort(ref.T))) <= 1e-12
    assert abs(res.g - ref.g) <= 1e-12 * max(abs(ref.g), 1.0)
    assert abs(res.P - ref.P) <= 1e-12 * max(abs(ref.P), 1.0)


def test_series_matches_resolvent_at_k6():
    # the series sums bounces, the resolvent solves the core densely and
    # sweeps outward: both apply the one-digit kernel, but only the
    # resolvent reads U, and only at its core rows
    t_res = transmission_matrix(6, 0.3, "resolvent")
    t_ser = transmission_matrix(6, 0.3, "series")
    assert np.max(np.abs(t_res - t_ser)) <= 1e-12


def test_series_matches_resolvent_at_k7():
    # both methods reach MAX_DENSE_DIM: at k = 7 the resolvent builds a
    # 4 GiB propagator, of which about one 4 KiB page per column is
    # resident, and reads only its core rows; its outward sweep is the
    # one-digit kernel.  Measured: T within 8.1e-13 of the series at
    # theta = 0.3
    res = transport_result(7, 0.3, "resolvent")
    ser = transport_result(7, 0.3, "series")
    assert res.diagnostics["solve_dim"] == 2**7
    assert np.max(np.abs(res.T - ser.T)) <= 1e-12
    assert abs(res.g - ser.g) <= 1e-12 * ser.g
    assert abs(res.P - ser.P) <= 1e-12 * ser.P


def closed_form_count(k):
    """2^(k-2)(2^(k-1)-1): the lead-1 channels transmitted whole, and as
    many reflected whole."""
    return 2 ** (k - 1) * (2 ** (k - 1) - 1) // 2


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_exit_digits_read_the_first_lead_digit(k):
    # transport builds its word sets from their digits: the trapped
    # columns {1, 2}^(k-1), and _closed_form's lead-2 exits after a run
    # of length j, (c_1 ... c_j 3 q) in (c_1 ... c_j, q) order.  A search
    # of the base-4 strings finds the same sets
    run, exits = interior_run_reference(k), exit_digit_reference(k)
    assert np.array_equal(_kept_words(OPEN_B4, k - 1), np.flatnonzero(exits < 0))
    assert (exits == 3).sum() == (exits == 0).sum() == closed_form_count(k)
    assert (exits == -1).sum() == 2 ** (k - 1)
    for j in range(k - 1):
        tail = 4 ** (k - 2 - j)
        cols = (4 * _kept_words(OPEN_B4, j)[:, None] + 3) * tail + np.arange(tail)
        assert np.array_equal(cols.ravel(), np.flatnonzero((run == j) & (exits == 3)))


@pytest.mark.parametrize("k", [6, 5, 4, 3, 2])
def test_trapped_resolvent_reads_only_the_digit_structure(k):
    # the elimination treats these blocks as zero: U sends P_{j+1} into
    # P_j and the rest of P_j out of it.  It skips every lead-1 word but
    # {1, 2}^(k-1): one whose leading run of interior digits c_1 ... c_j
    # ends at j < k - 1 never enters P_j, so never reaches the core.
    # The outward sweep is the one-digit kernel on the first digits
    # {1, 2}, which holds these zeros by construction; the core solve
    # reads U (cavity_propagator(k)).  Both must be exact zeros here, so
    # a propagator that disagrees with the kernel fails here rather than
    # giving a wrong t.
    N = 4**k
    levels = trapped_levels(k)
    run = np.zeros(N, dtype=int)
    run[:N // 4] = interior_run_reference(k)
    lead1 = np.arange(N) < N // 4
    blocks = [(levels[j], lead1 & (run == j)) for j in range(k - 1)]
    for outer, inner in zip(levels, levels[1:]):
        blocks += [(outer, outer & ~inner), (~outer, inner)]
    exact = tensor_open_apply_block(np.eye(N), CLOSED_B4, "V")
    for rows, cols in blocks:
        assert cols.any()
        assert not exact[np.ix_(rows, cols)].any()
    del exact
    U = cavity_propagator(k)
    for rows, cols in blocks:
        assert not U[np.ix_(rows, cols)].any()


@pytest.mark.parametrize("k", [6, 5, 4, 3, 2])
def test_resolvent_reads_only_the_core_rows_of_U(k, monkeypatch):
    # the one dense step is the solve on the core {1, 2}^k; every step
    # outward is the one-digit kernel, so NaN in U's other rows (256 MiB
    # written at k = 6) leaves t as it was
    clean = transmission_matrix(k, 0.3, "resolvent")
    core = trapped_levels(k)[-1]

    def poisoned(k):
        U = cavity_propagator(k)
        U[~core] = np.nan
        return U

    monkeypatch.setattr(transport, "cavity_propagator", poisoned)
    assert np.array_equal(transmission_matrix(k, 0.3, "resolvent"), clean)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_closed_form_channels_are_whole_and_orthogonal(k):
    # the premise of transport_result's split, on the interior-block
    # solve's t, which knows nothing of the split: a channel that leaves
    # through lead 2 has ||t_j|| = 1, one that leaves through lead 1 has
    # t_j = 0, and either is orthogonal to every other column of t, so
    # t*t is block diagonal
    exits = exit_digit_reference(k)
    trivial = np.flatnonzero(exits >= 0)
    assert len(trivial) == 2 * closed_form_count(k)
    for theta in [theta for kk, theta in REFERENCE_CASES if kk == k]:
        t = interior_block_resolvent(k, theta)
        norms = np.sum(np.abs(t) ** 2, axis=0)
        assert np.max(np.abs(norms[exits == 3] - 1.0)) <= 1e-12
        assert np.max(norms[exits == 0]) <= 1e-12
        gram = t[:, trivial].conj().T @ t
        gram[np.arange(len(trivial)), trivial] = 0.0
        assert np.max(np.abs(gram)) <= 1e-12


@pytest.mark.parametrize("k, theta", REFERENCE_CASES)
def test_closed_form_columns_match_both_references(k, theta):
    # each leaving column is its one bounce term: the same arithmetic as
    # the series applied to every lead-1 column, and the interior-block
    # solve up to its rounding; the trapped columns are left
    # zero for the method to fill
    t = transport._closed_form(k, np.exp(1j * theta))
    exits = exit_digit_reference(k)
    leaving = np.flatnonzero(exits >= 0)
    assert not t[:, exits < 0].any()
    assert np.array_equal(t[:, leaving], eye_start_series(k, theta)[:, leaving])
    t_ref = interior_block_resolvent(k, theta)
    assert np.max(np.abs(t - t_ref)[:, leaving], initial=0.0) <= 1e-15


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("method", ["resolvent", "series"])
def test_trapped_only_is_the_trapped_columns_of_t(k, method):
    # the block transport_result decomposes is t's trapped columns bit for
    # bit, with the same diagnostics; |phase| = 1, so the series' term
    # norms and its number of terms do not depend on theta
    trapped = exit_digit_reference(k) < 0
    for theta in (0.0, 0.3, 2.1):
        block, diagnostics = transmission_matrix(k, theta, method, trapped_only=True)
        assert np.array_equal(block, transmission_matrix(k, theta, method)[:, trapped])
        if method == "resolvent":
            assert diagnostics == {"solve_dim": 2**k}
        else:
            assert diagnostics["series_terms"] == SERIES_TERMS[k]
            assert 0.0 < diagnostics["series_tail_norm"] < SERIES_TOL


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
def test_closed_form_channel_counts_match_the_exit_digits(k):
    # transport_result counts the leaving channels from the block's width
    # alone: n = (4^(k-1) - 2^(k-1)) / 2 leave through each lead
    exits = exit_digit_reference(k)
    res = transport_result(k, 0.3, "series")
    n = int((exits == 3).sum())
    assert res.diagnostics["closed_form_channels"] == [n, int((exits == 0).sum())]
    assert np.sum(res.T == 0.0) >= n and np.sum(res.T == 1.0) >= n


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("method", ["resolvent", "series"])
def test_transport_result_never_builds_t(k, method, monkeypatch):
    monkeypatch.setattr(transport, "_closed_form", sentinel("_closed_form"))
    transport_result(k, 0.3, method)


def rss_growth(method):
    """Growth of a fresh interpreter's peak resident set over
    transport_result(7, 0.3, method), over the size of the 4^6 x 4^6
    complex t at k = 7 (256 MiB)."""
    return peak_growth("import sys\nfrom openbaker.transport import transport_result",
                       "transport_result(7, 0.3, sys.argv[1])", "4**6 * 4**6 * 16", method)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs /proc/self/status")
def test_transport_result_holds_no_full_t():
    # Measured 0.145: the series' two N x 2^6 blocks.  Building t and
    # slicing its trapped columns back out read 1.04
    assert rss_growth("series") <= 0.25


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs /proc/self/status")
def test_resolvent_holds_no_dense_slice_of_U():
    # Measured 0.345: U's written pages, about one 4 KiB page per column
    # (64 MiB), and the outward levels.  Reading the last level as a
    # dense 4^6 x 4^6 slice of U, lead 2 against level 1, read 1.35
    assert rss_growth("resolvent") <= 0.45


def assert_split_matches_full_svd(k, theta, method):
    # only the trapped columns are decomposed; T, g, P and F match the SVD
    # of the whole t, and T is descending with exact 1.0 and 0.0 for the
    # closed-form channels
    res = transport_result(k, theta, method)
    full = transport_quantities(transmission_matrix(k, theta, method))
    n = closed_form_count(k)
    assert res.diagnostics["closed_form_channels"] == [n, n]
    assert res.diagnostics["svd_shape"] == [4 ** (k - 1), 2 ** (k - 1)]
    assert res.T.shape == full.T.shape == (4 ** (k - 1),)
    assert np.all(np.diff(res.T) <= 0.0)
    assert np.sum(res.T == 1.0) >= n and np.sum(res.T == 0.0) >= n
    assert np.max(np.abs(res.T - full.T)) <= 1e-12
    for q in ("g", "P", "F"):
        got, want = getattr(res, q), getattr(full, q)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


@pytest.mark.parametrize("k", [6, 5, 4, 3, 2, 1])
@pytest.mark.parametrize("method", ["resolvent", "series"])
def test_split_matches_full_svd(k, method):
    for theta in (0.0, 0.3):
        assert_split_matches_full_svd(k, theta, method)


@pytest.mark.parametrize("method", ["resolvent", "series"])
def test_split_matches_full_svd_at_criterion_7_thetas(method):
    for theta in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
        assert_split_matches_full_svd(4, theta, method)


def test_resolvent_results_do_not_share_state():
    # the propagator and every returned t are the caller's own arrays
    t = transmission_matrix(3, 0.3)
    expected = t.copy()
    U = cavity_propagator(3)
    assert U.flags.writeable
    U[:] = 0.0
    t[:] = 0.0
    assert np.max(np.abs(transmission_matrix(3, 0.3) - expected)) < 1e-14


def sentinel(name):
    def called(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return called


@pytest.mark.parametrize("k", [1, 2, 3])
def test_methods_keep_the_benchmark_call_pattern(k, monkeypatch):
    # the cavity benchmarks require this call pattern: each transport_result
    # calls transmission_matrix and transport_quantities once, the
    # resolvent never calls the traced tensor_open_apply_block (its sweep
    # calls the kernel _digit_step), and the series never builds U or
    # solves a dense system
    calls = []

    def counted(name):
        real = getattr(transport, name)
        return lambda *a, **kw: calls.append(name) or real(*a, **kw)

    for name in ("transmission_matrix", "transport_quantities"):
        monkeypatch.setattr(transport, name, counted(name))
    with monkeypatch.context() as patch:
        for module in (quantize, transport):
            patch.setattr(module, "tensor_open_apply_block",
                          sentinel("tensor_open_apply_block"))
        transport_result(k, 0.3, "resolvent")
    assert sorted(calls) == ["transmission_matrix", "transport_quantities"]
    calls.clear()
    for name in ("cavity_propagator", "walsh_quantize"):
        monkeypatch.setattr(transport, name, sentinel(name))
    monkeypatch.setattr(quantize, "walsh_quantize", sentinel("walsh_quantize"))
    monkeypatch.setattr(np.linalg, "solve", sentinel("np.linalg.solve"))
    transport_result(k, 0.3, "series")
    assert sorted(calls) == ["transmission_matrix", "transport_quantities"]


def test_transmission_matrix_validation():
    with pytest.raises(ValueError):
        transmission_matrix(0)
    with pytest.raises(ValueError):
        transmission_matrix(2, method="montecarlo")
    # a non-finite quasi-energy would give an all-NaN t (resolvent) or a
    # series that never converges
    for theta in (np.nan, np.inf):
        for method in ("resolvent", "series"):
            with pytest.raises(ValueError, match="quasi-energy must be finite"):
                transmission_matrix(2, theta, method)
    with pytest.raises(ValueError):
        transmission_matrix(8, method="resolvent")


def test_series_that_never_meets_its_tolerance_raises(monkeypatch):
    # no term norm is below 0: the series stops at its 200 k term limit
    monkeypatch.setattr(transport, "SERIES_TOL", 0.0)
    with pytest.raises(RuntimeError, match="did not converge within 400 terms"):
        transmission_matrix(2, 0.3, "series")


def test_series_refuses_oversized_blocks_before_allocating(monkeypatch):
    # the series' N-row blocks are refused above MAX_DENSE_DIM (k = 8),
    # before any is allocated; k = 7 carries an N x 2^6 block
    def allocate(*args, **kwargs):
        raise RuntimeError("dense series block allocated")

    with monkeypatch.context() as patch:
        for name in ("eye", "zeros", "empty", "empty_like", "zeros_like"):
            patch.setattr(np, name, allocate)
        with pytest.raises(ValueError, match=f"exceeds cap {MAX_DENSE_DIM}"):
            transmission_matrix(8, 0.3, "series")

    shapes = []

    def first_apply(X, *args, **kwargs):
        shapes.append(X.shape)
        raise RuntimeError("first apply reached")

    monkeypatch.setattr(transport, "tensor_open_apply_block", first_apply)
    with pytest.raises(RuntimeError, match="first apply reached"):
        transmission_matrix(7, 0.3, "series")
    assert shapes == [(4**7, 2**6)]


def test_transport_quantities_on_known_matrix():
    # [TRIVIAL] t = diag(1, 1/2): T = (1, 1/4), g = 5/4, P = 3/16, F = 3/20
    res = transport_quantities(np.diag([1.0, 0.5]))
    assert np.allclose(res.T, [1.0, 0.25])
    assert res.g == pytest.approx(1.25)
    assert res.P == pytest.approx(0.25 * 0.75)
    assert res.F == pytest.approx(0.1875 / 1.25)


def test_transport_quantities_zero_matrix():
    res = transport_quantities(np.zeros((3, 3)))
    assert res.g == 0.0 and res.F is None


@pytest.mark.parametrize("k", [2, 3])
def test_transmission_eigenvalues_are_physical(k):
    res = transport_result(k)
    assert len(res.T) == 4 ** (k - 1)
    assert np.all(res.T >= -1e-12) and np.all(res.T <= 1 + 1e-12)
    assert res.g <= len(res.T) + 1e-9
    d = res.as_dict()
    assert d["k"] == k and len(d["T"]) == len(res.T)


def test_transport_asymptotics_report_structure():
    results = [transport_result(3, 0.0), transport_result(2, 0.0),
               transport_result(2, 0.5)]
    rep = transport_asymptotics(results)
    assert [(row["k"], row["theta"]) for row in rep["rows"]] == \
        [(3, 0.0), (2, 0.0), (2, 0.5)]
    for row, res in zip(rep["rows"], results):
        assert row["g"] == res.g and row["P"] == res.P and row["F"] == res.F
        assert row["g_normalized"] == res.g / (4 ** (res.k - 1) / 2.0)
        assert row["P_normalized"] == res.P / 2 ** (res.k - 1)
    # one entry per k in order of first appearance; a single theta has
    # no spread
    g2 = np.array([results[1].g, results[2].g])
    assert rep["theta_spread"] == [
        {"k": 3, "g_relative_std": 0.0},
        {"k": 2, "g_relative_std": float(g2.std() / g2.mean())},
    ]
    assert rep["theta_spread"][1]["g_relative_std"] > 0.0
    assert rep["reference"]["shot_noise_constant"] == SHOT_NOISE_CONSTANT
    assert rep["reference"]["random_matrix_fano"] == RANDOM_MATRIX_FANO

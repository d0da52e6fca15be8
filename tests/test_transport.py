"""Transport through the Walsh 4-baker cavity: lead projectors,
transmission matrices, and Landauer quantities."""

import numpy as np
import pytest

from openbaker import transport
from openbaker.classical import CLOSED_B4, OPEN_B4
from openbaker.quantize import tensor_open_apply_block
from openbaker.transforms import MAX_DENSE_DIM
from openbaker.transport import (MAX_RESOLVENT_K, RANDOM_MATRIX_FANO,
                                 SERIES_TOL, SHOT_NOISE_CONSTANT,
                                 cavity_propagator,
                                 lead_projectors, transmission_matrix,
                                 transport_asymptotics, transport_quantities,
                                 transport_result)


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
    # one tensor apply per term, the same number of terms as the dense
    # loop, and the same sum up to rounding
    calls = []
    real = transport.tensor_open_apply_block
    monkeypatch.setattr(transport, "tensor_open_apply_block",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    t_ref, n_ref = reference_series(k, 0.3)
    t = transmission_matrix(k, 0.3, "series")
    assert len(calls) == n_ref
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
    # a lead-1 column whose interior rows are exactly zero adds exactly
    # zero to every later term, so dropping it changes neither t nor the
    # number of terms
    t_ref, n_ref, tail_ref = full_width_series(k, 0.3)
    assert np.max(np.abs(transmission_matrix(k, 0.3, "series") - t_ref)) <= 1e-14
    diag = transport_result(k, 0.3, "series").diagnostics
    assert diag["series_terms"] == n_ref
    assert diag["series_tail_norm"] == pytest.approx(tail_ref, rel=1e-12)
    assert diag["series_tail_norm"] < SERIES_TOL


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_series_ends_on_the_interior_input_words(k):
    # after k - 1 bounces only inputs whose k - 1 remaining digits are
    # all interior ({1, 2}^(k-1)) still reach the interior
    diag = transport_result(k, 0.3, "series").diagnostics
    assert diag["series_live_columns"] == 2 ** (k - 1)


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


def test_resolvent_propagator_memo_follows_k():
    # each k's result equals a fresh computation whatever k came before,
    # so a stale or wrong-k propagator fails
    fresh = {}
    for k in (3, 4, 5):
        transport._shared_propagator.cache_clear()
        fresh[k] = transmission_matrix(k, 0.3)
    for k in (3, 4, 3, 5, 3):
        t = transmission_matrix(k, 0.3)
        assert t.shape == fresh[k].shape
        assert np.max(np.abs(t - fresh[k])) < 1e-12


def test_resolvent_builds_propagator_once_per_k(monkeypatch):
    built = []
    real = transport.cavity_propagator
    monkeypatch.setattr(transport, "cavity_propagator",
                        lambda k: built.append(k) or real(k))
    transport._shared_propagator.cache_clear()
    for k in (2, 3):
        for theta in (0.0, 0.3, 2.1):
            transmission_matrix(k, theta)
    assert built == [2, 3]
    transport._shared_propagator.cache_clear()


def test_resolvent_results_do_not_share_state():
    # the memoized propagator is read-only; the public one and every
    # returned t are the caller's own arrays
    t = transmission_matrix(3, 0.3)
    expected = t.copy()
    assert not transport._shared_propagator(3).flags.writeable
    U = cavity_propagator(3)
    assert U.flags.writeable
    U[:] = 0.0
    t[:] = 0.0
    assert np.max(np.abs(transmission_matrix(3, 0.3) - expected)) < 1e-14


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
        transmission_matrix(MAX_RESOLVENT_K + 1, method="resolvent")


def test_series_refuses_oversized_blocks_before_allocating(monkeypatch):
    # the series' dense N x N/4 blocks are refused above MAX_DENSE_DIM
    # (k = 8), before the first one is allocated; k = 7 still starts
    def eye(*args, **kwargs):
        raise RuntimeError("dense series block allocated")

    monkeypatch.setattr(np, "eye", eye)
    with pytest.raises(ValueError, match=f"exceeds cap {MAX_DENSE_DIM}"):
        transmission_matrix(8, 0.3, "series")
    with pytest.raises(RuntimeError, match="allocated"):
        transmission_matrix(7, 0.3, "series")


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

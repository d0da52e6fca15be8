"""Transport through the Walsh 4-baker cavity: lead projectors,
transmission matrices, and Landauer quantities."""

import numpy as np
import pytest

from openbaker.transport import (MAX_RESOLVENT_K, RANDOM_MATRIX_FANO,
                                 SHOT_NOISE_CONSTANT, cavity_propagator,
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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_flux_conservation(k):
    # [DERIVED] unitarity of the cavity forces |r psi|^2 + |t psi|^2 = 1
    # for every state entering through lead 1
    N = 4**k
    n4 = N // 4
    U = cavity_propagator(k)
    _, _, interior = lead_projectors(k)
    A = -(interior[:, None] * U)
    A[np.diag_indices(N)] += 1.0
    X = np.linalg.solve(A, np.eye(N, n4, dtype=complex))
    r = U[:n4, :] @ X      # back out through lead 1
    t = U[3 * n4:, :] @ X  # out through lead 2
    flux = np.linalg.norm(r, axis=0) ** 2 + np.linalg.norm(t, axis=0) ** 2
    assert np.max(np.abs(flux - 1.0)) < 1e-10


def test_transmission_matrix_validation():
    with pytest.raises(ValueError):
        transmission_matrix(0)
    with pytest.raises(ValueError):
        transmission_matrix(2, method="montecarlo")
    with pytest.raises(ValueError):
        transmission_matrix(2, tol=0.0)
    with pytest.raises(ValueError):
        transmission_matrix(MAX_RESOLVENT_K + 1, method="resolvent")


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

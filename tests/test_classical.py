"""Classical dynamics: open baker steps, escape times, trapped-set
dimensions, the Markov weights of the multivalued 3-baker, and the
transfer matrix."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from openbaker.classical import (B3, B5, CLOSED_B4, OPEN_B4, OpenBakerSpec,
                                 _kept_words, escape_grid, fractal_dimensions,
                                 markov_weight, transfer_matrix)
from openbaker.quantize import build_toy_diagonal
from reference import escape_time, kept_words_reference, map_step


# ------------------------------------------------------------------ spec

def test_spec_validation():
    with pytest.raises(ValueError):
        OpenBakerSpec(1, (0,))
    with pytest.raises(ValueError):
        OpenBakerSpec(3, ())
    with pytest.raises(ValueError):
        OpenBakerSpec(3, (0, 3))
    with pytest.raises(ValueError):
        OpenBakerSpec(3, (2, 0))


def test_builtin_specs():
    assert B3.s == 2 and B3.is_open
    assert B5 == OpenBakerSpec(5, (1, 3))
    assert not CLOSED_B4.is_open
    assert OPEN_B4.kept == (1, 2)
    # [PAPER] mu = log s / log D; a closed map keeps every strip: mu = 1
    assert B3.mu == math.log(2) / math.log(3)
    assert CLOSED_B4.mu == 1.0



@pytest.mark.parametrize("length", range(7))
@pytest.mark.parametrize("spec", [B3, B5, OPEN_B4, CLOSED_B4, OpenBakerSpec(7, (1, 3, 5))],
                         ids=["B3", "B5", "OPEN_B4", "CLOSED_B4", "D7"])
def test_kept_words_are_the_words_of_kept_digits(spec, length):
    # built one digit at a time, in ascending order: the words that a
    # search of every word's digits finds
    assert np.array_equal(_kept_words(spec, length), kept_words_reference(spec, length))

# ----------------------------------------------------------------- steps

def test_map_step_stretches_position():
    # [TRIVIAL] q in branch 0: (q,p) -> (3q, p/3)
    q, p = 0.1, 0.4
    assert map_step(B3, (q, p)) == pytest.approx((0.3, 0.4 / 3))


def test_map_step_escapes_on_removed_strip():
    assert map_step(B3, (0.5, 0.2)) is None  # middle strip removed
    assert map_step(B5, (0.05, 0.2)) is None  # branch 0 removed


def test_backward_step_inverts_forward():
    # [DERIVED] backward(forward(x)) = x on kept strips
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = rng.uniform()
        p = rng.uniform()
        fwd = map_step(B3, (q, p))
        if fwd is None:
            continue
        back = map_step(B3, fwd, "backward")
        assert back == pytest.approx((q, p), abs=1e-12)


def test_map_step_rejects_bad_direction():
    with pytest.raises(ValueError):
        map_step(B3, (0.1, 0.1), "sideways")


# ---------------------------------------------------------------- escape

def test_escape_time_reads_ternary_digits():
    # [DERIVED] forward escape time = index of the first digit 1 of q;
    # q = 5/18 = 0.021111...(base 3) escapes at n = 2
    assert escape_time(B3, (5 / 18, 0.4)) == 2
    assert escape_time(B3, (0.5, 0.4)) == 0  # leading digit 1


def test_trapped_point_returns_none():
    # [DERIVED] q = 0.202020...(base 3) = 3/4 never visits the middle strip
    assert escape_time(B3, (0.75, 0.1), t_max=200) is None


def test_backward_escape_reads_momentum():
    # [DERIVED] backward escape is controlled by p, not q
    assert escape_time(B3, (0.4, 0.5), "backward") == 0
    assert escape_time(B3, (0.5, 0.75), "backward", t_max=200) is None


def test_escape_grid_shape_and_encoding():
    # with 3 checked steps exactly the 8 of 27 columns whose first three
    # ternary digits avoid 1 stay trapped
    times = escape_grid(B3, 27, t_max=3)
    assert times.shape == (27, 27)
    assert times.min() >= -1
    # forward escape depends only on position: rows are constant
    assert np.all(times == times[:, :1])
    assert np.mean(times < 0) == pytest.approx(8 / 27)


def test_escape_grid_trapped_fraction_shrinks():
    # [DERIVED] the surviving fraction after t steps scales like (2/3)^t
    times = escape_grid(B3, 243, t_max=5)
    expected = (2 / 3) ** 5
    assert np.mean(times < 0) == pytest.approx(expected, rel=0.1)


def fraction_escape_times(spec, M, t_max):
    """Escape time of each cell centre (2i+1)/(2M) under the exact
    Fraction orbit x -> D x - floor(D x), -1 if none of its first t_max
    digits floor(D x) leaves spec.kept."""
    times = []
    for i in range(M):
        x, t = Fraction(2 * i + 1, 2 * M), -1
        for n in range(t_max):
            digit = math.floor(spec.D * x)
            if digit not in spec.kept:
                t = n
                break
            x = spec.D * x - digit
        times.append(t)
    return np.array(times)


@pytest.mark.parametrize("M, t_max", [(9, 4), (27, 8), (81, 20), (100, 60),
                                      (243, 5)])
@pytest.mark.parametrize("spec", [B3, B5, OPEN_B4], ids=["B3", "B5", "B4"])
def test_escape_grid_is_the_exact_orbit(spec, M, t_max):
    # [DERIVED] forward escape reads the digits of q (rows i), backward
    # those of p (columns j)
    exact = fraction_escape_times(spec, M, t_max)
    grid = escape_grid(spec, M, t_max)
    assert np.array_equal(grid, np.repeat(exact[:, None], M, axis=1))
    assert np.array_equal(grid.T, np.repeat(exact[None, :], M, axis=0))


def test_escape_grid_matches_exact_two_dimensional_orbits():
    # the reference step on Fraction points is the exact map on the torus,
    # so it checks that each direction reads only its own coordinate: the
    # backward grid is the forward one transposed
    M, t_max = 9, 4
    for spec in (B3, B5, OPEN_B4):
        grid = escape_grid(spec, M, t_max)
        for direction, times in (("forward", grid), ("backward", grid.T)):
            for i in range(M):
                for j in range(M):
                    x = (Fraction(2 * i + 1, 2 * M), Fraction(2 * j + 1, 2 * M))
                    t = escape_time(spec, x, direction, t_max)
                    assert times[i, j] == (-1 if t is None else t)


def test_escape_grid_keeps_the_digits_a_float_orbit_loses():
    # the float orbit drops about one ternary digit per step: by n = 30-39
    # it sends these eight trapped B3 centres into the middle strip
    drifted = [2, 7, 22, 32, 67, 77, 92, 97]
    forward = escape_grid(B3, 100, 60)
    backward = forward.T
    assert np.all(forward[drifted] == -1)
    assert np.all(backward[:, drifted] == -1)
    for i in drifted:
        assert 30 <= escape_time(B3, ((i + 0.5) / 100, 0.5), t_max=60) <= 39


def test_escape_grid_with_no_steps_is_all_trapped():
    grid = escape_grid(B5, 7, t_max=0)
    assert np.all(grid == -1) and np.all(grid.T == -1)


@pytest.mark.parametrize("M, t_max", [(0, 4), (9, -1)], ids=["M", "t_max"])
def test_escape_grid_rejects_bad_arguments(M, t_max):
    with pytest.raises(ValueError):
        escape_grid(B3, M, t_max)


# ------------------------------------------------------------ dimensions

def test_fractal_dimensions_of_b3():
    # [PAPER] mu = log 2/log 3, dim K = 2 mu, dwell time 3
    d = fractal_dimensions(B3)
    assert d["mu"] == pytest.approx(math.log(2) / math.log(3))
    assert d["dimK"] == pytest.approx(2 * d["mu"])
    assert d["tau_dwell"] == pytest.approx(3.0)
    assert d["lyapunov"] == pytest.approx(math.log(3))
    # the dwell-time heuristic is *not* mu for this map
    assert abs(d["heuristic_mu"] - d["mu"]) > 0.01


def test_fractal_dimensions_of_b5():
    # [PAPER] mu = log 2/log 5 for the 5-baker keeping 2 strips
    assert fractal_dimensions(B5)["mu"] == pytest.approx(math.log(2) / math.log(5))


def test_fractal_dimensions_rejects_closed_map():
    with pytest.raises(ValueError):
        fractal_dimensions(CLOSED_B4)


# -------------------------------------------------------- Markov weights

def test_markov_weight_values():
    # [DERIVED] f(0) = 1 (removable singularity); f(1/3) = 0 since sin(pi)=0
    assert markov_weight(0.0) == 1.0
    assert markov_weight(1.0) == 1.0
    assert markov_weight(1 / 3) == pytest.approx(0.0, abs=1e-15)
    assert markov_weight(1 / 6) == pytest.approx((1 / (3 * 0.5)) ** 2)


@given(st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.integers(min_value=-3, max_value=3))
def test_markov_weight_has_period_one(t, n):
    # evaluating sin near its distant zeros costs ~1e-7 in relative
    # accuracy, so the periodicity check cannot be tighter than that
    assert markov_weight(t + n) == pytest.approx(markov_weight(t), abs=1e-6)


def test_markov_weight_is_periodic_next_to_the_singularity():
    # a shift by one period must not move the value even where the
    # argument is a hair away from the removable singularity
    assert markov_weight(1e-12 + 1) == pytest.approx(1.0, abs=1e-12)
    assert markov_weight(1e-12 + 1) == pytest.approx(markov_weight(1e-12),
                                                     abs=1e-12)


@given(st.floats(min_value=0, max_value=1, exclude_max=True))
def test_markov_weights_normalize(p):
    # [DERIVED] the three branch weights always sum to 1
    total = sum(markov_weight((p + j - 0.5) / 3.0) for j in (-1, 0, 1))
    assert total == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------- transfer

def test_transfer_matrix_column_sums():
    # [DERIVED] kept columns of the toy map carry total weight 1
    T = transfer_matrix(build_toy_diagonal(9))
    sums = T.sum(axis=0)
    for c, total in enumerate(sums):
        assert total == pytest.approx(1.0 if np.any(T[:, c]) else 0.0, abs=1e-12)


def test_transfer_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        transfer_matrix(np.ones((2, 3)))

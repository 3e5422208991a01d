import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renyiquant import (
    Interval,
    NEG_INF,
    POS_INF,
    PiecewiseConstantDensity,
    RenyiOrder,
    compander_score,
    design_compander,
    distortion,
    optimal_point_density,
    pierce_upper_bound,
    predicted_limit,
    predicted_limit_high_alpha,
    quantizer_entropy,
    truncated_gauss,
    uniform,
    uniform_optimal,
)


def test_optimal_point_density_finite_order(two_mass):
    g = optimal_point_density(two_mass, RenyiOrder(0.5), 2.0)
    assert np.allclose(g.heights, [0.8905786373243858, 1.1094213626756142],
                       rtol=1e-13)


def test_optimal_point_density_special_orders(two_mass):
    flat = optimal_point_density(two_mass, RenyiOrder(1.0), 2.0)
    assert np.allclose(flat.heights, [1.0])
    mirror = optimal_point_density(two_mass, NEG_INF, 2.0)
    assert np.allclose(mirror.heights, two_mass.heights)


def test_optimal_point_density_smooth_source():
    tg = truncated_gauss(0.5, 0.4, 0.0, 1.0)
    g = optimal_point_density(tg, RenyiOrder(0.5), 2.0)
    assert g.power_integral(1.0) == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("alpha", [POS_INF, RenyiOrder(3.0), RenyiOrder(4.0)])
def test_optimal_point_density_rejects_high_orders(two_mass, alpha):
    with pytest.raises(ValueError):
        optimal_point_density(two_mass, alpha, 2.0)


@pytest.mark.parametrize("alpha, expected", [
    (0.5, 0.070676311783117279),
    (-2.0, 0.088308236499885327),
    (float("-inf"), 0.11111111111111111),
    (1.0, 0.064150029909958411),
])
def test_predicted_limit_frozen_values(two_mass, alpha, expected):
    from renyiquant import as_order

    limit = predicted_limit(two_mass, as_order(alpha), 2.0)
    assert limit.value == pytest.approx(expected, rel=1e-12)
    assert limit.rate_exponent == 2.0


def test_predicted_limit_regimes(two_mass):
    assert predicted_limit(two_mass, RenyiOrder(0.5), 2.0).regime == "finite"
    assert predicted_limit(two_mass, RenyiOrder(1.0), 2.0).regime == "shannon"
    assert predicted_limit(two_mass, NEG_INF, 2.0).regime == "neg_inf"
    with pytest.raises(ValueError):
        predicted_limit(two_mass, RenyiOrder(3.0), 2.0)


def _reference_limit(d, alpha, r):
    """C(r) * (integral of f**a1) ** a2 at 50 digits from the float inputs."""
    with mpmath.workdps(50):
        a, r = mpmath.mpf(alpha), mpmath.mpf(r)
        first = (1 - a + a * r) / (1 - a + r)
        second = (1 - a + r) / (1 - a)
        b = [mpmath.mpf(float(x)) for x in d.breakpoints]
        integral = mpmath.fsum((t - s) * mpmath.mpf(float(h)) ** first
                               for s, t, h in zip(b, b[1:], d.heights))
        return float(integral ** second / ((1 + r) * 2 ** r))


def test_predicted_limit_near_one_plus_r_is_not_zero(two_mass):
    # the power integral overflows here, and inf ** (a negative power) is 0
    value = predicted_limit(two_mass, RenyiOrder(2.999999), 2.0).value
    assert value == pytest.approx(_reference_limit(two_mass, 2.999999, 2.0), rel=1e-12)
    assert value == pytest.approx(0.0370370424, rel=1e-9)


def test_a_point_density_that_underflows_names_the_order(two_mass):
    # f**p with p near -2e6: the height on the tall half underflows to 0
    with pytest.raises(ValueError, match="order 2.999999 underflows"):
        design_compander(two_mass, RenyiOrder(2.999999), 2.0, 8)


def test_point_density_heights_out_of_float_range_are_normalized_in_logs():
    # every height**p underflows here, so the power integral is 0
    flat = PiecewiseConstantDensity([0.0, 0.25, 0.5], [2.0, 2.0])
    g = optimal_point_density(flat, RenyiOrder(2.999999), 2.0)
    assert g.heights.tolist() == pytest.approx([2.0, 2.0], rel=1e-15)
    q = design_compander(flat, RenyiOrder(2.999999), 2.0, 8)
    assert q.boundaries.tolist() == pytest.approx(np.linspace(0.0, 0.5, 9).tolist(), abs=1e-15)
    # unequal heights that survive the normalization
    d = PiecewiseConstantDensity([0.0, 0.005, 0.01], [99.995, 100.005])
    p = 1.0 / ((1.0 - 2.999999 + 2.0) / (1.0 - 2.999999))
    g = optimal_point_density(d, RenyiOrder(2.999999), 2.0)
    with mpmath.workdps(50):
        powers = [mpmath.mpf(h) ** p for h in d.heights.tolist()]
        norm = sum(w * 0.005 for w in powers)
        expected = [float(w / norm) for w in powers]
    assert g.heights.tolist() == pytest.approx(expected, rel=1e-8)
    assert 0.0 < g.heights[1] < 1e-80


def test_point_density_heights_in_float_range_keep_their_arithmetic(two_mass):
    p = 1.0 / ((1.0 - 0.5 + 2.0) / (1.0 - 0.5))
    g = optimal_point_density(two_mass, RenyiOrder(0.5), 2.0)
    assert g.heights.tolist() == (two_mass.heights**p / two_mass.power_integral(p)).tolist()


@settings(max_examples=80, deadline=None)
@given(
    segments=st.lists(st.tuples(st.floats(0.05, 3.0), st.floats(0.05, 1.0)),
                      min_size=1, max_size=6),
    log_gap=st.floats(-9.0, -1.0),
    r=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_predicted_limit_matches_mpmath_up_to_one_plus_r(segments, log_gap, r):
    # wide supports make f**a1 underflow, tall segments make it overflow
    widths = np.array([w for w, _ in segments])
    masses = np.array([m for _, m in segments])
    d = PiecewiseConstantDensity(np.concatenate(([0.0], np.cumsum(widths))),
                                 masses / masses.sum() / widths)
    alpha = 1.0 + r - 10.0**log_gap
    value = predicted_limit(d, RenyiOrder(alpha), r).value
    assert value == pytest.approx(_reference_limit(d, alpha, r), rel=1e-10)


@pytest.mark.parametrize("sigma, lo, hi", [(0.1, 0.0, 1.0), (10.0, -5.0, 5.0)])
def test_predicted_limit_rejects_a_smooth_integral_out_of_range(sigma, lo, hi):
    # a peak above 1 overflows the power integral; a density below 1 underflows it
    with pytest.raises(ValueError, match="power integral"):
        predicted_limit(truncated_gauss(0.0 if lo < 0 else 0.5, sigma, lo, hi),
                        RenyiOrder(2.999999), 2.0)


def test_predicted_limit_high_order(two_mass):
    high = predicted_limit_high_alpha(two_mass, RenyiOrder(3.5), 2.0)
    # C(2) * (ess sup f)^-2 with a slowed rate exponent (1 + r) * (a - 1) / a
    assert high.value == pytest.approx(1.0 / 27.0, rel=1e-14)
    assert high.rate_exponent == pytest.approx(3.0 * (2.5 / 3.5), rel=1e-14)
    assert high.regime == "high"
    top = predicted_limit_high_alpha(two_mass, POS_INF, 2.0)
    assert top.rate_exponent == pytest.approx(3.0, rel=1e-14)
    with pytest.raises(ValueError):
        predicted_limit_high_alpha(two_mass, RenyiOrder(2.5), 2.0)


def test_design_compander_counts_and_orders(two_mass):
    q = design_compander(two_mass, RenyiOrder(0.5), 2.0, 32)
    assert len(q.codepoints) == 32
    flat = design_compander(two_mass, RenyiOrder(1.0), 2.0, 4)
    assert np.allclose(np.diff(flat.boundaries), 0.25)


def test_uniform_optimal_nonpositive_orders():
    box = Interval(0.0, 1.0)
    q = uniform_optimal(box, RenyiOrder(-1.0), math.log(2.5), 2.0)
    assert len(q.codepoints) == 2
    assert distortion(q, uniform(0.0, 1.0), 2.0) == pytest.approx(1.0 / 48.0,
                                                                  rel=1e-14)
    snap = uniform_optimal(box, NEG_INF, math.log(3.0) - 5e-10, 2.0)
    assert len(snap.codepoints) == 3  # within the integer snap window


def test_uniform_optimal_positive_order_hits_the_rate():
    box = Interval(0.0, 1.0)
    rate = math.log(2.5)
    q = uniform_optimal(box, RenyiOrder(0.5), rate, 2.0)
    widths = np.diff(q.boundaries)
    assert len(widths) == 3
    assert widths[0] == pytest.approx(widths[1], rel=1e-12)
    assert widths[2] < widths[1]  # the remainder cell sits rightmost
    got = quantizer_entropy(q, uniform(0.0, 1.0), RenyiOrder(0.5))
    assert got == pytest.approx(rate, abs=1e-12)
    d = distortion(q, uniform(0.0, 1.0), 2.0)
    assert 1.0 / 108.0 < d < 1.0 / 48.0


def test_uniform_optimal_exact_rate_is_equal_cells():
    q = uniform_optimal(Interval(0.0, 1.0), RenyiOrder(0.5), math.log(3.0), 2.0)
    assert np.allclose(np.diff(q.boundaries), 1.0 / 3.0, rtol=1e-9)
    assert distortion(q, uniform(0.0, 1.0), 2.0) == pytest.approx(1.0 / 108.0,
                                                                  rel=1e-9)


def test_uniform_optimal_rejections():
    box = Interval(0.0, 1.0)
    with pytest.raises(ValueError):
        uniform_optimal(box, RenyiOrder(0.5), math.log(2.5), 1.0)  # needs r > 1
    with pytest.raises(ValueError):
        uniform_optimal(box, RenyiOrder(3.0), math.log(2.5), 2.0)  # high order
    with pytest.raises(ValueError):
        uniform_optimal(box, RenyiOrder(0.5), -0.1, 2.0)


def test_uniform_optimal_zero_rate_is_one_cell():
    q = uniform_optimal(Interval(0.0, 1.0), RenyiOrder(0.5), 0.0, 2.0)
    assert len(q.codepoints) == 1


def test_pierce_upper_bound(two_mass):
    assert pierce_upper_bound(two_mass, 2.0, math.log(4.0)) == pytest.approx(
        1.0, rel=1e-14)
    assert pierce_upper_bound(uniform(0.0, 1.0), 2.0, math.log(2.0)) == (
        pytest.approx(1.0, rel=1e-14))


def test_compander_score_factorizes(two_mass):
    got = compander_score(two_mass, uniform(0.0, 1.0), RenyiOrder(0.5), 2.0)
    assert got == pytest.approx(0.072542725157684923, rel=1e-12)


@pytest.mark.parametrize("alpha", [RenyiOrder(0.5), RenyiOrder(-2.0)])
def test_score_at_the_optimum_equals_the_limit(two_mass, alpha):
    star = optimal_point_density(two_mass, alpha, 2.0)
    assert compander_score(two_mass, star, alpha, 2.0) == pytest.approx(
        predicted_limit(two_mass, alpha, 2.0).value, rel=1e-12)


@pytest.mark.parametrize("alpha", [RenyiOrder(-1.0), RenyiOrder(0.5)])
def test_uniform_optimal_caps_the_level_count(alpha):
    # e**30 levels would need tens of terabytes; refuse before allocating
    with pytest.raises(ValueError, match="MAX_UNIFORM_LEVELS"):
        uniform_optimal(Interval(0.0, 1.0), alpha, 30.0, 2.0)

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renyiquant import (
    NEG_INF,
    POS_INF,
    RenyiOrder,
    differential_entropy,
    PiecewiseConstantDensity,
    relative_entropy,
    renyi_entropy,
    truncated_gauss,
    truncated_laplace,
    uniform,
)
from renyiquant._quadrature import scan_extremum
from renyiquant.compander import bennett_functional, compressed_density
from renyiquant.design import optimal_point_density

from time_limit import time_limit

ALL_ORDERS = (NEG_INF, RenyiOrder(-2.0), RenyiOrder(0.0), RenyiOrder(0.5),
              RenyiOrder(1.0), RenyiOrder(2.0), POS_INF)


@pytest.mark.parametrize("alpha", ALL_ORDERS)
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_equal_weights_give_log_n(alpha, n):
    p = np.full(n, 1.0 / n)
    assert renyi_entropy(p, alpha) == pytest.approx(math.log(n), abs=1e-13)


@pytest.mark.parametrize("alpha, expected", [
    (float("-inf"), 1.3862943611198906),
    (-2.0, 0.95931641263253586),
    (0.0, 0.69314718055994529),
    (0.5, 0.62381071636487129),
    (1.0, 0.56233514461880829),
    (2.0, 0.47000362924573558),
    (float("inf"), 0.2876820724517809),
])
def test_two_outcome_entropies(alpha, expected):
    from renyiquant import as_order

    assert renyi_entropy([0.25, 0.75], as_order(alpha)) == pytest.approx(
        expected, rel=1e-14)


def test_zero_weights_are_ignored():
    p = [0.5, 0.5, 0.0]
    assert renyi_entropy(p, RenyiOrder(0.0)) == pytest.approx(math.log(2), abs=1e-14)
    assert renyi_entropy(p, NEG_INF) == pytest.approx(math.log(2), abs=1e-14)
    assert renyi_entropy(p, RenyiOrder(1.0)) == pytest.approx(math.log(2), abs=1e-14)
    assert renyi_entropy(p, POS_INF) == pytest.approx(math.log(2), abs=1e-14)


@pytest.mark.parametrize("weights", [
    [0.5, 0.6],            # sums above 1
    [0.5, -0.1, 0.6],      # genuinely negative entry
    [0.5, float("nan"), 0.5],
])
def test_weight_validation(weights):
    with pytest.raises(ValueError):
        renyi_entropy(weights, RenyiOrder(0.5))


def test_tiny_negative_weights_are_clipped():
    p = [0.5, 0.5 + 1e-10, -1e-10]
    assert renyi_entropy(p, RenyiOrder(2.0)) == pytest.approx(math.log(2), abs=1e-9)


def test_order_window_rejected():
    with pytest.raises(ValueError):
        renyi_entropy([0.25, 0.75], RenyiOrder(1.0 + 1e-10))


@pytest.mark.parametrize("alpha, expected", [
    (0.6, -0.082369082503431335),
    (1.0, -0.13081203594113697),
    (float("-inf"), 0.69314718055994529),   # -log(ess inf f)
    (float("inf"), -0.40546510810816438),   # -log(ess sup f)
])
def test_differential_entropy(two_mass, alpha, expected):
    from renyiquant import as_order

    assert differential_entropy(two_mass, as_order(alpha)) == pytest.approx(
        expected, rel=1e-12)


@pytest.mark.parametrize("v", [2000.0, -2000.0])
def test_differential_entropy_at_an_extreme_order_is_summed_in_logs(two_mass, v):
    # 1.5**2000 and 0.5**-2000 overflow, so the integral of pdf**v does too
    with mpmath.workdps(50):
        half = mpmath.mpf(0.5)
        exact = float(mpmath.log(half * half**v + half * mpmath.mpf(1.5) ** v) / (1 - v))
    assert differential_entropy(two_mass, RenyiOrder(v)) == pytest.approx(exact, rel=1e-12)


def test_the_top_order_entropy_of_a_laplace_source_is_exact():
    # minus the log of the peak, to the last bit of the 50-digit value
    d = truncated_laplace(0.45, 0.3, 0.0, 1.0)
    with mpmath.workdps(50):
        c, s = mpmath.mpf(0.45), mpmath.mpf(0.3)
        exact = mpmath.log(2 * s * (1 - mpmath.exp(-c / s) / 2 - mpmath.exp((c - 1) / s) / 2))
    assert differential_entropy(d, POS_INF) == float(exact) == -0.7234063500503651


@pytest.mark.parametrize("alpha", ALL_ORDERS)
def test_differential_entropy_of_uniform(alpha):
    assert differential_entropy(uniform(0.0, 2.0), alpha) == pytest.approx(
        math.log(2.0), abs=1e-12)


@pytest.mark.parametrize("alpha", ALL_ORDERS)
def test_relative_entropy_of_nested_uniforms(alpha):
    assert relative_entropy(uniform(0.0, 1.0), uniform(0.0, 2.0), alpha) == (
        pytest.approx(math.log(2.0), abs=1e-12))


def test_relative_entropy_frozen_value(two_mass):
    got = relative_entropy(two_mass, uniform(0.0, 1.0), RenyiOrder(0.5))
    assert got == pytest.approx(0.069336464195074082, rel=1e-12)


@pytest.mark.parametrize("alpha", ALL_ORDERS)
def test_relative_entropy_to_self_is_zero(two_mass, alpha):
    assert relative_entropy(two_mass, two_mass, alpha) == pytest.approx(0.0, abs=1e-13)


def test_relative_entropy_requires_nested_support(two_mass):
    with pytest.raises(ValueError):
        relative_entropy(uniform(0.0, 2.0), two_mass, RenyiOrder(0.5))


GAUSS = truncated_gauss(0.45, 0.3, 0.0, 1.0)
LAPLACE = truncated_laplace(0.45, 0.3, 0.0, 1.0)


@pytest.mark.parametrize("f, g", [
    (GAUSS, optimal_point_density(GAUSS, 0.5, 2.0)),
    (LAPLACE, optimal_point_density(LAPLACE, -2.0, 1.5)),
    (LAPLACE, GAUSS),
    (PiecewiseConstantDensity([0.0, 0.3, 1.0], [0.5, 8.5 / 7.0]), GAUSS),
    (uniform(0.0, 1.0), LAPLACE),
], ids=["gauss_design", "laplace_design", "laplace_gauss", "piecewise_gauss", "uniform_laplace"])
def test_infinite_order_divergence_is_the_scalar_ratio_scan(f, g):
    # the 4096-point scan of f/g, one scalar pdf call per point, then refined
    grid = np.linspace(f.support.lo, f.support.hi, 4096)
    ratio = lambda x: f.pdf(x) / g.pdf(x)
    vals = np.array([ratio(x) for x in grid.tolist()])
    assert relative_entropy(f, g, POS_INF) == math.log(scan_extremum(ratio, grid, vals, True))
    assert relative_entropy(f, g, NEG_INF) == math.log(scan_extremum(ratio, grid, vals, False))


def test_infinite_order_divergence_rejects_a_vanishing_second_density():
    # the narrow Gaussian's pdf underflows to 0 well inside [0, 1]
    with pytest.raises(ValueError, match="unbounded"):
        relative_entropy(uniform(0.0, 1.0), truncated_gauss(0.0, 0.01, 0.0, 1.0), POS_INF)


SLIVER = 1e-13  # past g's end, within require_nested_supports' 1e-12 tolerance
SLIVER_HEIGHT = 1.0 / (1.0 + SLIVER)


@pytest.mark.parametrize("f", [
    PiecewiseConstantDensity([-SLIVER, 1.0], [SLIVER_HEIGHT]),
    PiecewiseConstantDensity([0.0, 1.0 + SLIVER], [SLIVER_HEIGHT]),
], ids=["left", "right"])
def test_piecewise_pair_functions_skip_the_sliver_where_g_is_zero(f):
    g, h = uniform(0.0, 1.0), SLIVER_HEIGHT
    # on [0, 1] the ratio f/g is h, on the sliver g is 0
    assert relative_entropy(f, g, 1) == h * math.log(h)
    assert relative_entropy(f, g, 2) == pytest.approx(2.0 * math.log(h), abs=1e-15)
    assert relative_entropy(f, g, POS_INF) == relative_entropy(f, g, NEG_INF) == math.log(h)
    assert bennett_functional(f, g, 2.0) == pytest.approx(h / 12.0, rel=1e-15)
    compressed = compressed_density(f, g)
    assert compressed.breakpoints.tolist() == [0.0, 1.0]
    assert compressed.heights.tolist() == [h]
    # the skipped mass, 1e-13, bounds how far a divergence may fall below 0
    for alpha in (0.0, 0.5, 1.0, 2.0, POS_INF):
        assert relative_entropy(f, g, alpha) >= -2e-13


HEAVY = 1e-3  # f's mass on the sliver, far above MASS_TOL


@pytest.mark.parametrize("f", [
    PiecewiseConstantDensity([-1e-12, 0.0, 1.0], [HEAVY / 1e-12, 1.0 - HEAVY]),
    PiecewiseConstantDensity([0.0, 1.0, 1.0 + 1e-12], [1.0 - HEAVY, HEAVY / (1.0 + 1e-12 - 1.0)]),
    truncated_gauss(0.0, 0.01, -1e-12, 1.0),
], ids=["left", "right", "smooth"])
def test_pair_functions_refuse_mass_where_g_is_zero(f):
    g = uniform(0.0, 1.0)
    # from order 1 up, and for the Bennett integral, mass where g is 0 diverges
    for call in (lambda: relative_entropy(f, g, 1), lambda: relative_entropy(f, g, 2),
                 lambda: relative_entropy(f, g, POS_INF), lambda: bennett_functional(f, g, 2.0),
                 lambda: compressed_density(f, g)):
        with pytest.raises(ValueError, match="where the second vanishes"):
            call()
    if isinstance(f, PiecewiseConstantDensity):
        # below order 1 and at -inf the sliver adds nothing, and skipping it is exact
        h = 1.0 - HEAVY
        assert relative_entropy(f, g, 0.5) == pytest.approx(-math.log(h), rel=1e-12)
        assert relative_entropy(f, g, NEG_INF) == math.log(h)


@pytest.mark.parametrize("alpha", [RenyiOrder(0.5), RenyiOrder(1.0), RenyiOrder(2.0), POS_INF,
                                   NEG_INF])
def test_smooth_pair_functions_skip_the_sliver_where_g_is_zero(alpha):
    f, g = truncated_gauss(0.5, 0.3, -SLIVER, 1.0), uniform(0.0, 1.0)
    nested = truncated_gauss(0.5, 0.3, 0.0, 1.0)
    assert relative_entropy(f, g, alpha) == pytest.approx(relative_entropy(nested, g, alpha),
                                                          abs=1e-9)
    assert bennett_functional(f, g, 2.0) == pytest.approx(bennett_functional(nested, g, 2.0),
                                                          rel=1e-9)
    assert compressed_density(f, g).support == compressed_density(nested, g).support


@pytest.mark.parametrize("alpha", [RenyiOrder(-2.0), RenyiOrder(-0.5), NEG_INF])
def test_negative_orders_refuse_a_first_density_that_underflows(alpha):
    # the narrow Gaussian's pdf underflows to 0 well inside [0, 1], where
    # f**alpha leaves the float range; order -2 used to raise OverflowError,
    # -inf a math domain error from log(0), and -0.5 refined without end
    f, g = truncated_gauss(0.0, 0.01, 0.0, 1.0), uniform(0.0, 1.0)
    with time_limit(10.0), pytest.raises(ValueError,
                                         match="requires a first density bounded away from zero"):
        relative_entropy(f, g, alpha)


def test_a_divergence_integral_that_overflows_raises():
    # f stays positive on [0, 1], but f**-5 at its far end is about 1e430
    f, g = truncated_gauss(0.0, 0.05, 0.0, 1.0), uniform(0.0, 1.0)
    assert math.isfinite(relative_entropy(f, g, -2.0))
    with pytest.raises(ValueError, match="divergence integral of order -5.0 overflows"):
        relative_entropy(f, g, -5.0)


def test_relative_entropy_smooth_pair_matches_moment():
    from renyiquant import truncated_gauss

    tg = truncated_gauss(0.5, 0.4, 0.0, 1.0)
    # against the uniform reference the order-2 divergence is log int f^2
    got = relative_entropy(tg, uniform(0.0, 1.0), RenyiOrder(2.0))
    assert got == pytest.approx(math.log(tg.power_integral(2.0)), abs=1e-8)


@given(raw=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=8))
def test_entropy_is_nonincreasing_in_the_order(raw):
    p = np.asarray(raw)
    p = p / p.sum()
    values = [renyi_entropy(p, a) for a in ALL_ORDERS]
    for lo, hi in zip(values, values[1:]):
        assert hi <= lo + 1e-10


@given(raw=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=8))
def test_entropy_is_permutation_invariant(raw):
    p = np.asarray(raw)
    p = p / p.sum()
    shuffled = p[::-1].copy()
    for alpha in (RenyiOrder(-1.5), RenyiOrder(0.5), RenyiOrder(3.0)):
        assert renyi_entropy(shuffled, alpha) == pytest.approx(
            renyi_entropy(p, alpha), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("v", [2000.0, -2000.0, 1e4, -1e4])
@pytest.mark.parametrize("n", [2, 3, 7])
def test_extreme_orders_give_log_n_for_equal_masses(v, n):
    # p**v under- or overflows here; the log-sum-exp fallback must take over
    p = np.full(n, 1.0 / n)
    assert renyi_entropy(p, RenyiOrder(v)) == pytest.approx(math.log(n), rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(raw=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=8),
       v=st.one_of(st.floats(min_value=-1e4, max_value=-1e-3),
                   st.floats(min_value=1e-3, max_value=0.99),
                   st.floats(min_value=1.01, max_value=1e4)))
def test_entropy_matches_a_50_digit_reference(raw, v):
    p = np.asarray(raw) / sum(raw)
    with mpmath.workdps(50):
        exact = mpmath.log(mpmath.fsum(mpmath.mpf(float(x)) ** mpmath.mpf(v) for x in p))
        exact = float(exact / (1 - mpmath.mpf(v)))
    assert renyi_entropy(p, RenyiOrder(v)) == pytest.approx(exact, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("weights, message", [
    ([0.5, -0.1, 0.6], "weights must be nonnegative"),
    ([0.5, 0.6], "weights must sum to 1, got 1.1"),
    ([0.0, 0.0, 0.0], "weights must sum to 1, got 0.0"),
    ([[0.5, 0.5]], "weights must be a nonempty 1-d vector"),
    ([], "weights must be a nonempty 1-d vector"),
    ([0.5, float("inf")], "weights must be finite"),
    ([0.5, float("nan"), 0.5], "weights must be finite"),
])
@pytest.mark.parametrize("alpha", [RenyiOrder(0.5), [RenyiOrder(0.5), POS_INF]])
def test_each_weight_check_raises_its_message(weights, message, alpha):
    with pytest.raises(ValueError, match=f"^{message}"):
        renyi_entropy(weights, alpha)


@pytest.mark.parametrize("orders, message", [
    ([RenyiOrder(0.5), 1.0 + 1e-10, POS_INF], "order 1.0000000001 is inside the exclusion window"),
    ((NEG_INF, float("nan")), "entropy order must not be NaN"),
])
def test_a_bad_order_in_a_list_raises_its_message(orders, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        renyi_entropy([0.25, 0.75], orders)


_SOME_ORDERS = st.sampled_from([-math.inf, -500.0, -2.0, 0.0, 0.5, 1.0, 2.0, 500.0, math.inf])


@settings(max_examples=60, deadline=None)
@given(raw=st.lists(st.sampled_from([0.0, 1e-300]) | st.floats(min_value=1e-6, max_value=1.0),
                    min_size=1, max_size=8).filter(lambda xs: sum(xs) > 0.0),
       orders=st.lists(_SOME_ORDERS | st.floats(min_value=-600.0, max_value=600.0).filter(
           lambda v: abs(v - 1.0) >= 1e-9), min_size=1, max_size=9),
       as_tuple=st.booleans())
def test_the_orders_of_one_call_equal_the_single_order_calls(raw, orders, as_tuple):
    # zero masses, the infinite orders, order 1, and |alpha| = 500, where the
    # power sums leave the normal range and the log-sum-exp takes over
    p = np.asarray(raw) / sum(raw)
    got = renyi_entropy(p, tuple(orders) if as_tuple else orders)
    assert isinstance(got, list) and all(type(h) is float for h in got)
    assert [h.hex() for h in got] == [renyi_entropy(p, a).hex() for a in orders]


@pytest.mark.parametrize("what", ["relative_entropy 0.5", "relative_entropy 2", "bennett"])
def test_pair_integrals_call_no_scalar_pdf(what, request):
    # f reaches 1e-13 past g, so from order 1 up the sliver's mass is integrated too
    f, g = truncated_gauss(0.4, 0.3, 0.0, 1.0), truncated_laplace(0.45, 0.3, 0.0, 1.0 - 1e-13)
    if what == "bennett":
        compute = lambda: bennett_functional(f, g, 2.0)
    else:
        compute = lambda: relative_entropy(f, g, float(what.split()[1]))
    expected = compute()
    request.getfixturevalue("no_scalar_pdf")
    assert compute() == expected

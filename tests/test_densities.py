import bisect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from renyiquant import (
    Interval,
    PiecewiseConstantDensity,
    SmoothDensity,
    density_from_spec,
    density_to_spec,
    truncated_gauss,
    truncated_laplace,
    uniform,
)
from renyiquant.densities import _pair_integral, require_nested_supports
from renyiquant.design import optimal_point_density

import reference_quadrature as reference


def test_interval_validation():
    iv = Interval(-1.0, 3.0)
    assert iv.width == 4.0
    assert iv.contains(0.0) and not iv.contains(3.5)
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, float("inf"))


@pytest.mark.parametrize("bps, heights", [
    ([0.0, 1.0], [0.9]),                  # mass != 1
    ([0.0, 0.5, 0.5, 1.0], [1, 1, 1]),    # repeated breakpoint
    ([0.0, 1.0], [1.0, 1.0]),             # length mismatch
    ([0.0, 0.5, 1.0], [0.0, 2.0]),        # zero height
])
def test_piecewise_validation(bps, heights):
    with pytest.raises(ValueError):
        PiecewiseConstantDensity(bps, heights)


def test_cdf_is_exact_at_breakpoints(two_mass):
    assert two_mass.cdf(0.0) == 0.0
    assert two_mass.cdf(0.5) == 0.25
    assert two_mass.cdf(1.0) == 1.0
    assert two_mass.cdf(0.25) == 0.125
    assert two_mass.cdf(-3.0) == 0.0 and two_mass.cdf(7.0) == 1.0


def test_quantile_inverts_cdf(two_mass):
    for u in (0.0, 0.125, 0.25, 0.5, 0.99, 1.0):
        assert two_mass.cdf(two_mass.quantile(u)) == pytest.approx(u, abs=1e-14)
    assert two_mass.quantile(0.25) == 0.5
    assert two_mass.quantile(0.0) == 0.0 and two_mass.quantile(1.0) == 1.0


def test_power_and_log_integrals(two_mass):
    assert two_mass.power_integral(0.6) == pytest.approx(0.96758922800611891, rel=1e-14)
    assert two_mass.power_integral(-0.2) == pytest.approx(1.0354031332393814, rel=1e-14)
    assert two_mass.power_integral(1.0) == pytest.approx(1.0, rel=1e-15)
    assert two_mass.log_integral() == pytest.approx(0.13081203594113697, rel=1e-14)


def test_ess_bounds(two_mass):
    assert two_mass.ess_bounds() == (0.5, 1.5)


def test_similarity_transform(two_mass):
    moved = two_mass.similarity_transform(2.0, 1.0)
    assert np.allclose(moved.breakpoints, [1.0, 2.0, 3.0])
    assert np.allclose(moved.heights, [0.25, 0.75])
    assert moved.power_integral(1.0) == pytest.approx(1.0, rel=1e-14)
    flipped = two_mass.similarity_transform(2.0, 1.0, reflect=True)
    assert np.allclose(flipped.breakpoints, [-1.0, 0.0, 1.0])
    assert np.allclose(flipped.heights, [0.75, 0.25])
    with pytest.raises(ValueError):
        two_mass.similarity_transform(0.0, 1.0)


def test_uniform_density():
    u = uniform(-1.0, 3.0)
    assert np.allclose(u.heights, [0.25])
    assert u.cdf(1.0) == 0.5


def test_truncated_gauss_basics():
    tg = truncated_gauss(0.0, 1.0, 0.0, 1.0)
    assert tg.power_integral(1.0) == pytest.approx(1.0, abs=1e-8)
    for u in (0.1, 0.5, 0.9):
        assert tg.cdf(tg.quantile(u)) == pytest.approx(u, abs=1e-10)
    lo, hi = tg.ess_bounds()
    # density decreases away from the mean, so the edges are the extremes
    assert lo == pytest.approx(tg.pdf(1.0), rel=1e-9)
    assert hi == pytest.approx(tg.pdf(0.0), rel=1e-9)


def test_truncated_laplace_basics():
    lap = truncated_laplace(0.3, 0.4, 0.0, 1.0)
    assert lap.power_integral(1.0) == pytest.approx(1.0, abs=1e-8)
    assert lap.cdf(lap.quantile(0.7)) == pytest.approx(0.7, abs=1e-10)
    lo, hi = lap.ess_bounds()
    assert hi == pytest.approx(lap.pdf(0.3), rel=1e-6)
    assert lo == pytest.approx(min(lap.pdf(0.0), lap.pdf(1.0)), rel=1e-9)


def test_smooth_matches_piecewise_closed_forms(two_mass):
    smooth = SmoothDensity(two_mass.pdf, 0.0, 1.0, breakpoints=[0.5])
    for p in (0.6, -0.2, 2.0):
        assert smooth.power_integral(p) == pytest.approx(
            two_mass.power_integral(p), rel=1e-10)
    assert smooth.log_integral() == pytest.approx(two_mass.log_integral(), rel=1e-10)


@pytest.mark.parametrize("make", [
    lambda: uniform(-2.0, 5.0),
    lambda: PiecewiseConstantDensity([0.0, 0.25, 1.0], [1.6, 0.8]),
    lambda: truncated_gauss(0.5, 0.3, 0.0, 1.0),
    lambda: truncated_laplace(0.3, 0.4, 0.0, 1.0),
])
def test_density_spec_round_trip(make):
    d = make()
    copy = density_from_spec(density_to_spec(d))
    for x in np.linspace(d.support.lo, d.support.hi, 9):
        assert copy.cdf(float(x)) == pytest.approx(d.cdf(float(x)), abs=1e-12)


def test_density_from_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        density_from_spec({"kind": "bogus"})


def test_require_nested_supports(two_mass):
    require_nested_supports(two_mass, uniform(0.0, 1.0))
    with pytest.raises(ValueError):
        require_nested_supports(uniform(0.0, 2.0), two_mass)


def test_pair_integral_reconstructs_mass(two_mass):
    g = PiecewiseConstantDensity([0.0, 0.25, 1.0], [1.6, 0.8])
    total_f = _pair_integral(two_mass, g, lambda w, hf, hg: hf * w)
    total_g = _pair_integral(two_mass, g, lambda w, hf, hg: hg * w)
    assert total_f == pytest.approx(1.0, abs=1e-14)
    assert total_g == pytest.approx(1.0, abs=1e-14)


@given(masses=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=6))
def test_random_piecewise_density_is_consistent(masses):
    arr = np.asarray(masses)
    arr = arr / arr.sum()
    bps = np.linspace(-1.0, 2.0, arr.size + 1)
    d = PiecewiseConstantDensity(bps, arr / np.diff(bps))
    xs = np.linspace(-1.0, 2.0, 23)
    cdf = [d.cdf(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(cdf, cdf[1:]))
    assert cdf[0] == 0.0 and cdf[-1] == pytest.approx(1.0, abs=1e-14)
    for u in (0.17, 0.5, 0.83):
        assert d.cdf(d.quantile(u)) == pytest.approx(u, abs=1e-12)


def _scalar_quantile(d, u):
    # plain-Python segment inversion, one argument at a time
    if u >= 1.0:
        return float(d.breakpoints[-1])
    cum = d._cum.tolist()
    j = bisect.bisect_right(cum, u) - 1
    if cum[j] == u:
        return float(d.breakpoints[j])
    return float(d.breakpoints[j]) + (u - cum[j]) / float(d.heights[j])


@st.composite
def _density_and_arguments(draw):
    m = draw(st.integers(min_value=1, max_value=8))
    unit = st.floats(min_value=0.01, max_value=1.0)
    widths = np.array(draw(st.lists(unit, min_size=m, max_size=m)))
    masses = np.array(draw(st.lists(unit, min_size=m, max_size=m)))
    start = draw(st.floats(min_value=-5.0, max_value=5.0))
    d = PiecewiseConstantDensity(np.concatenate(([start], start + np.cumsum(widths))),
                                 masses / masses.sum() / widths)
    # the exact cumulative masses, the ends, and the floats next to them
    anchors = [*d._cum.tolist(), 0.0, 1.0]
    near = st.sampled_from(anchors).flatmap(lambda a: st.sampled_from(
        [a, math.nextafter(a, -math.inf), math.nextafter(a, math.inf)]))
    us = draw(st.lists(near | st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
    return d, [u for u in us if 0.0 <= u <= 1.0] or [0.5]


@given(_density_and_arguments())
def test_piecewise_quantile_of_an_array_is_the_scalar_inversion(case):
    d, us = case
    expected = [_scalar_quantile(d, u) for u in us]
    assert d.quantile(np.array(us)).tolist() == expected
    assert [d.quantile(u) for u in us] == expected


def test_quantile_keeps_the_shape_of_its_argument(two_mass):
    us = np.array([[0.0, 0.125], [0.25, 1.0]])
    assert two_mass.quantile(us).tolist() == [[0.0, 0.25], [0.5, 1.0]]
    assert two_mass.quantile(np.array([])).shape == (0,)


@pytest.mark.parametrize("make", [
    lambda: PiecewiseConstantDensity([0.0, 0.5, 1.0], [0.5, 1.5]),
    lambda: truncated_gauss(0.5, 0.3, 0.0, 1.0),
])
def test_quantile_rejects_any_argument_outside_the_unit_interval(make):
    d = make()
    for bad in (-1e-300, math.nextafter(1.0, 2.0), math.nan, -math.inf):
        with pytest.raises(ValueError, match="must lie in"):
            d.quantile(np.array([0.25, bad, 0.5]))
        with pytest.raises(ValueError, match="must lie in"):
            d.quantile(bad)


@pytest.mark.parametrize("make", [
    lambda: PiecewiseConstantDensity([0.0, 0.5, 1.0], [0.5, 1.5]),
    lambda: truncated_gauss(0.5, 0.3, 0.0, 1.0),
])
def test_scalar_quantile_returns_a_float(make):
    d = make()
    for u in (0.0, 0.3, np.float64(0.7), np.array(0.9), 1):
        assert type(d.quantile(u)) is float
    us = [0.0, 0.1, 0.5, 0.9, 1.0]
    assert d.quantile(np.array(us)).tolist() == [d.quantile(u) for u in us]


SMOOTH = {
    "gauss": truncated_gauss(0.4, 0.3, 0.0, 1.0),
    "laplace": truncated_laplace(0.45, 0.3, 0.0, 1.0),
    "power": optimal_point_density(truncated_laplace(0.45, 0.3, 0.0, 1.0), -2.0, 1.5),
}


def test_the_smooth_cdf_table_is_the_recursion_cell_by_cell():
    for d in SMOOTH.values():
        masses = [reference.integrate(d._pdf, a, b, d._rel_tol, d._max_depth)
                  for a, b in zip(d._edges[:-1].tolist(), d._edges[1:].tolist())]
        cum = np.concatenate(([0.0], np.cumsum(np.array(masses) / d._total)))
        cum[-1] = 1.0
        assert cum.tolist() == d._cum.tolist()


def _near(points):
    # the points themselves and the floats on either side of them
    return st.sampled_from(points).flatmap(lambda x: st.sampled_from(
        [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]))


@st.composite
def _density_and_points(draw):
    if draw(st.booleans()):
        d = SMOOTH[draw(st.sampled_from(sorted(SMOOTH)))]
        edges = d._edges.tolist()
    else:
        m = draw(st.integers(min_value=1, max_value=6))
        piece = st.floats(min_value=0.05, max_value=1.0)
        widths = np.array(draw(st.lists(piece, min_size=m, max_size=m)))
        masses = np.array(draw(st.lists(piece, min_size=m, max_size=m)))
        d = PiecewiseConstantDensity(np.concatenate(([-0.3], -0.3 + np.cumsum(widths))),
                                     masses / masses.sum() / widths)
        edges = d.breakpoints.tolist()
    lo, hi = d.support.lo, d.support.hi
    outside = [lo - 1.0, hi + 1.0, -math.inf, math.inf, -1e300, 1e300]
    anywhere = st.floats(min_value=lo - 0.5, max_value=hi + 0.5)
    xs = draw(st.lists(_near(edges) | st.sampled_from(outside) | anywhere, min_size=1, max_size=12))
    return d, xs


@settings(max_examples=30, deadline=None)
@given(_density_and_points())
def test_cdf_of_an_array_is_the_scalar_cdf(case):
    # at breakpoints, table edges, their neighbours and points outside the support
    d, xs = case
    scalar = [d.cdf(x) for x in xs]
    assert all(type(v) is float for v in scalar)
    assert d.cdf(np.array(xs)).tolist() == scalar
    if isinstance(d, SmoothDensity):
        assert scalar == [reference.cdf(d, x) for x in xs]


@pytest.mark.parametrize("make", [
    lambda: PiecewiseConstantDensity([0.0, 0.5, 1.0], [0.5, 1.5]),
    lambda: truncated_gauss(0.5, 0.3, 0.0, 1.0),
])
def test_cdf_keeps_the_shape_and_refuses_nan(make):
    d = make()
    xs = np.array([[-1.0, 0.0], [0.5, 2.0]])
    assert d.cdf(xs).tolist() == [[d.cdf(x) for x in row] for row in xs.tolist()]
    assert d.cdf(np.array([])).shape == (0,)
    for bad in (math.nan, np.array([0.25, math.nan])):
        with pytest.raises(ValueError, match="NaN"):
            d.cdf(bad)


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(sorted(SMOOTH)), data=st.data())
def test_smooth_quantile_of_an_array_is_the_scalar_inversion(name, data):
    d = SMOOTH[name]
    anchors = [0.0, 1.0, *d._cum[:: max(1, len(d._cum) // 16)].tolist()]
    us = data.draw(st.lists(_near(anchors) | st.floats(min_value=0.0, max_value=1.0),
                            min_size=1, max_size=10))
    us = [u for u in us if 0.0 <= u <= 1.0] or [0.5]
    expected = [reference.quantile(d, u) for u in us]
    assert d.quantile(np.array(us)).tolist() == expected
    assert [d.quantile(u) for u in us] == expected


def _gauss_mass(mean, sigma, a, b):
    # Gaussian mass of [a, b], from the tail on the far side of the mean
    s = mpmath.sqrt(2) * sigma
    za, zb = (mpmath.mpf(a) - mean) / s, (mpmath.mpf(b) - mean) / s
    if za >= 0:
        return (mpmath.erfc(za) - mpmath.erfc(zb)) / 2
    if zb <= 0:
        return (mpmath.erfc(-zb) - mpmath.erfc(-za)) / 2
    return (mpmath.erf(zb) - mpmath.erf(za)) / 2


def _laplace_mass(center, scale, a, b):
    ea = mpmath.exp(-abs(mpmath.mpf(a) - center) / scale)
    eb = mpmath.exp(-abs(mpmath.mpf(b) - center) / scale)
    if a >= center:
        return (ea - eb) / 2
    if b <= center:
        return (eb - ea) / 2
    return 1 - (ea + eb) / 2


def _check_against_reference(d, pdf, mass, lo, hi):
    with mpmath.workdps(50):
        total = mass(lo, hi)
        for x in np.linspace(lo, hi, 9).tolist():
            assert d.pdf(x) == pytest.approx(float(pdf(x) / total), rel=1e-12)
            assert d.cdf(x) == pytest.approx(float(mass(lo, x) / total), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(left=st.booleans(), gap=st.floats(min_value=0.5, max_value=30.0),
       sigma=st.floats(min_value=0.2, max_value=3.0))
def test_far_tail_truncated_gauss_matches_mpmath(left, gap, sigma):
    # keep the pdf normal at the far end of [0, 1]
    assume(gap + 1.0 / sigma <= 37.0)
    mean = -gap * sigma if left else 1.0 + gap * sigma
    d = truncated_gauss(mean, sigma, 0.0, 1.0)
    _check_against_reference(
        d, lambda x: mpmath.npdf(x, mean, sigma),
        lambda a, b: _gauss_mass(mean, sigma, a, b), 0.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(left=st.booleans(), gap=st.floats(min_value=0.5, max_value=600.0),
       scale=st.floats(min_value=0.2, max_value=3.0))
def test_far_tail_truncated_laplace_matches_mpmath(left, gap, scale):
    assume(gap + 1.0 / scale <= 700.0)
    center = -gap * scale if left else 1.0 + gap * scale
    d = truncated_laplace(center, scale, 0.0, 1.0)
    _check_against_reference(
        d, lambda x: mpmath.exp(-abs(x - mpmath.mpf(center)) / scale) / (2 * scale),
        lambda a, b: _laplace_mass(center, scale, a, b), 0.0, 1.0)


@pytest.mark.parametrize("make", [
    lambda: truncated_gauss(-8.0, 1.0, 0.0, 1.0),
    lambda: truncated_gauss(9.0, 1.0, 0.0, 1.0),
    lambda: truncated_laplace(-40.0, 1.0, 0.0, 1.0),
])
def test_far_tail_truncations_construct(make):
    d = make()
    assert d.power_integral(1.0) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("make", [
    lambda: truncated_gauss(-38.0, 1.0, 0.0, 1.0),
    lambda: truncated_gauss(40.0, 1.0, 0.0, 1.0),
    lambda: truncated_laplace(-720.0, 1.0, 0.0, 1.0),
    lambda: truncated_laplace(721.0, 1.0, 0.0, 1.0),
])
def test_a_subnormal_truncation_mass_is_refused(make):
    with pytest.raises(ValueError, match="carries no mass"):
        make()

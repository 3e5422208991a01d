import bisect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import renyiquant._quadrature
from renyiquant import (
    GridInstance,
    Interval,
    IntervalQuantizer,
    MixtureComponent,
    MixtureSpec,
    PiecewiseConstantDensity,
    SmoothDensity,
    cell_masses,
    compose,
    density_from_spec,
    density_to_spec,
    differential_entropy,
    relative_entropy,
    truncated_gauss,
    truncated_laplace,
    uniform,
)
from renyiquant.core import NEG_INF, exponents
from renyiquant.densities import (_ess_inf, _pair_cut, _pair_integrals, _span_tol,
                                  require_nested_supports)
from renyiquant.design import optimal_point_density

import reference_pieces
import reference_quadrature as reference
from time_limit import time_limit


def test_interval_validation():
    iv = Interval(-1.0, 3.0)
    assert iv.width == 4.0
    assert iv.contains(0.0) and not iv.contains(3.5)
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, float("inf"))


def test_an_interval_whose_width_overflows_is_refused():
    with pytest.raises(ValueError, match=r"width overflows, got \[-1e\+308, 1e\+308\]"):
        Interval(-1e308, 1e308)
    assert Interval(-1e308, 0.0).width == 1e308


@pytest.mark.parametrize("bps, heights", [
    ([0.0, 1.0], [0.9]),                  # mass != 1
    ([0.0, 0.5, 0.5, 1.0], [1, 1, 1]),    # repeated breakpoint
    ([0.0, 1.0], [1.0, 1.0]),             # length mismatch
    ([0.0, 0.5, 1.0], [0.0, 2.0]),        # zero height
])
def test_piecewise_validation(bps, heights):
    with pytest.raises(ValueError):
        PiecewiseConstantDensity(bps, heights)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("bps, heights, message", [
    ([0.0, NAN, 1.0], [1.0, 1.0], "breakpoints and heights must be finite"),
    ([0.0, 1.0], [NAN], "breakpoints and heights must be finite"),
    ([-INF, 1.0], [1.0], "breakpoints and heights must be finite"),
    ([0.0, 1.0], [INF], "breakpoints and heights must be finite"),
    ([0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0], "breakpoints must be strictly increasing"),
    ([1.0, 0.0], [1.0], "breakpoints must be strictly increasing"),
    ([0.0, 0.5, 1.0], [0.0, 2.0], "heights must be strictly positive"),
    ([0.0, 0.5, 1.0], [-1.0, 3.0], "heights must be strictly positive"),
    ([0.0, 1.0], [0.9], "total mass must be 1 within 1e-12, got 0.9"),
    ([0.0, 1.0], [1.0, 1.0], "need m\\+1 breakpoints for m >= 1 heights"),
    ([[0.0, 1.0]], [1.0], "need m\\+1 breakpoints for m >= 1 heights"),
])
def test_each_piecewise_check_raises_its_message(bps, heights, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        PiecewiseConstantDensity(bps, heights)


def test_the_piecewise_support_is_built_once(two_mass):
    assert two_mass.support is two_mass.support
    assert two_mass.support == Interval(0.0, 1.0)


@st.composite
def _nested_pair(draw):
    """Two piecewise densities, f inside the support of g.

    The breakpoints lie on lattices with steps 1/8, 1/24, 1/32 or 1/6 of the
    unit interval, or on the ends of g's support, so breakpoints of f and g
    are either shared or far apart.  f either lies inside g's support, or
    reaches past both of its ends by up to the 1e-12 nesting tolerance.
    """
    def density(points):
        m = len(points) - 1
        masses = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
        return PiecewiseConstantDensity(points, masses / masses.sum() / np.diff(points))

    def lattice(lo, hi):
        n = draw(st.sampled_from([8, 24, 32, 6]))
        grid = [lo, hi, *(k / n for k in range(n + 1) if lo < k / n < hi)]
        return sorted(set(draw(st.lists(st.sampled_from(grid), min_size=2, max_size=6))))

    gb = lattice(0.0, 1.0)
    assume(len(gb) >= 2)
    g = density(gb)
    if draw(st.booleans()):
        fb = lattice(gb[0], gb[-1])
        assume(len(fb) >= 2)
    else:
        tol = 1e-12 * max(gb[-1] - gb[0], 1.0)
        inner = [x for x in lattice(gb[0], gb[-1]) if gb[0] < x < gb[-1]]
        fb = [gb[0] - draw(st.floats(0.0, tol)), *inner, gb[-1] + draw(st.floats(0.0, tol))]
    f = density(fb)
    require_nested_supports(f, g)
    return f, g


@settings(max_examples=100, deadline=None)
@given(pair=_nested_pair())
def test_merged_common_pieces_equal_the_two_cut_reference(pair):
    # the cut skips f's sliver past g, the pieces where the reference has g = 0
    f, g = pair
    widths, hf, hg = reference_pieces.common_pieces(f, g)
    keep = hg > 0.0
    for got, expected in zip(_pair_cut(f, [g])[2], (widths[keep], hf[keep], hg[None, keep])):
        assert got.shape == expected.shape
        assert (got == expected).all()


def test_a_piece_one_float_wide_takes_its_own_height():
    # the midpoint of [0.5, mid] rounds onto 0.5, where the pdf is that of the
    # segment to the left; the middle piece carries half the mass
    mid = math.nextafter(0.5, 1.0)
    f = PiecewiseConstantDensity([0.0, 0.5, mid, 1.0], [0.5, 0.5 / (mid - 0.5), 0.5])
    q = IntervalQuantizer(f.breakpoints, [0.25, 0.5, 0.75])
    assert cell_masses(q, f) == pytest.approx([0.25, 0.5, 0.25], rel=1e-12)
    assert relative_entropy(f, uniform(0.0, 1.0), 1) == pytest.approx(25.5 * math.log(2.0),
                                                                      rel=1e-12)


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
    assert hi == lap.pdf(0.3)
    assert lo == pytest.approx(min(lap.pdf(0.0), lap.pdf(1.0)), rel=1e-9)


def test_the_laplace_supremum_is_the_peak():
    # the pdf at the centre: a grid scan refined by golden sections finds 6.6e-13 less
    d = truncated_laplace(0.45, 0.3, 0.0, 1.0)
    with mpmath.workdps(50):
        c, s = mpmath.mpf(0.45), mpmath.mpf(0.3)
        peak = 1 / (2 * s * (1 - mpmath.exp(-c / s) / 2 - mpmath.exp((c - 1) / s) / 2))
    assert d.ess_bounds()[1] == float(peak) == 2.0614432618803646


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


_PIECEWISE_SPEC = {"kind": "piecewise", "breakpoints": [0.0, 0.25, 1.0], "heights": [1.6, 0.8]}
_GAUSS_SPEC = {"kind": "truncated_gauss", "mean": 0.5, "sigma": 0.3, "lo": 0.0, "hi": 1.0}
_LAPLACE_SPEC = {"kind": "truncated_laplace", "center": 0.3, "scale": 0.4, "lo": 0.0, "hi": 1.0}


@pytest.mark.parametrize("spec, written", [
    ({"kind": "uniform", "lo": -2.0, "hi": 5.0},
     {"kind": "piecewise", "breakpoints": [-2.0, 5.0], "heights": [1.0 / 7.0]}),
    (_PIECEWISE_SPEC, _PIECEWISE_SPEC),
    (_GAUSS_SPEC, _GAUSS_SPEC),
    (_LAPLACE_SPEC, _LAPLACE_SPEC),
], ids=["uniform", "piecewise", "truncated_gauss", "truncated_laplace"])
def test_every_spec_kind_is_written_back_by_its_density(spec, written):
    # a uniform density is a one-piece piecewise density, and is written as one
    d = density_from_spec(spec)
    assert d.spec == written
    assert density_to_spec(d) == written
    assert density_to_spec(density_from_spec(written)) == written
    density_to_spec(d)["kind"] = "changed"  # the caller gets a copy
    assert d.spec == written


def test_a_piecewise_spec_is_read_only():
    with pytest.raises(AttributeError):
        density_from_spec(_PIECEWISE_SPEC).spec = {"kind": "uniform", "lo": 0.0, "hi": 1.0}


@pytest.mark.parametrize("make", [
    lambda: SmoothDensity(lambda x: 2.0 * x, 0.0, 1.0),
    lambda: truncated_gauss(0.5, 0.3, 0.0, 1.0).similarity_transform(2.0, 1.0),
], ids=["callers_pdf", "shipped_family_transformed"])
def test_a_smooth_density_without_a_spec_is_refused(make):
    d = make()
    assert d.spec is None
    with pytest.raises(ValueError, match="does not carry a serializable description"):
        density_to_spec(d)


def test_density_from_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        density_from_spec({"kind": "bogus"})


def test_require_nested_supports(two_mass):
    require_nested_supports(two_mass, uniform(0.0, 1.0))
    with pytest.raises(ValueError):
        require_nested_supports(uniform(0.0, 2.0), two_mass)


def test_pair_integral_reconstructs_mass(two_mass):
    g = PiecewiseConstantDensity([0.0, 0.25, 1.0], [1.6, 0.8])
    (total_f,) = _pair_integrals(two_mass, [g], lambda w, hf, hg: hf * w)
    (total_g,) = _pair_integrals(two_mass, [g], lambda w, hf, hg: hg * w)
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
        masses = [reference.integrate(d.pdf, a, b, d._rel_tol, d._max_depth)
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


# SMOOTH's densities in mpmath, as (the pdf before truncation, its mass on
# [a, b]); the power density is proportional to the Laplace pdf to the power
# p, itself a Laplace density with scale 0.3 / p
_POWER = 1.0 / exponents(-2.0, 1.5).second
MP_SMOOTH = {
    "gauss": (lambda x: mpmath.npdf(x, 0.4, 0.3), lambda a, b: _gauss_mass(0.4, 0.3, a, b)),
    "laplace": (lambda x: mpmath.exp(-abs(x - mpmath.mpf(0.45)) / 0.3) / 0.6,
                lambda a, b: _laplace_mass(0.45, mpmath.mpf(0.3), a, b)),
    "power": (lambda x: mpmath.exp(-abs(x - mpmath.mpf(0.45)) * _POWER / 0.3) * _POWER / 0.6,
              lambda a, b: _laplace_mass(0.45, mpmath.mpf(0.3) / _POWER, a, b)),
}


@pytest.mark.parametrize("name", sorted(SMOOTH))
def test_smooth_quantile_matches_a_50_digit_reference(name):
    # u = k/48 and every 32nd table entry.  The bisection expander's worst
    # error here was 2.85e-14 to 2.99e-14 on the three densities, and
    # returning bracket midpoints instead of Newton iterates gives 8.5e-14
    d = SMOOTH[name]
    pdf, mass = MP_SMOOTH[name]
    us = [k / 48 for k in range(1, 48)] + d._cum[1:-1:32].tolist()
    xs = d.quantile(np.array(us)).tolist()
    with mpmath.workdps(50):
        total = mass(0.0, 1.0)
        for u, x in zip(us, xs):
            # two Newton steps from x at 50 digits give the exact quantile
            exact = mpmath.mpf(x)
            for _ in range(2):
                exact -= (mass(0.0, exact) / total - u) / (pdf(exact) / total)
            assert abs(x - exact) <= 2.8e-14


def test_a_quantile_bisects_where_the_pdf_underflows_to_zero():
    # the pdf falls from its plateau at c to an exact 0 within the table cell
    # right of c and rises again at 1 - c, so from most starts in that cell
    # the Newton step is infinite, NaN or leaves the bracket
    c, k = 0.3001, 1e6
    h = 1.0 / (2.0 * c + 2.0 / k)
    pdf = lambda x: h * math.exp(-k * min(x - c, 1.0 - c - x)) if c < x < 1.0 - c else h
    d = SmoothDensity(pdf, 0.0, 1.0, breakpoints=[c, 1.0 - c], ess_inf=0.0, ess_sup=h)
    j = int(np.searchsorted(d._edges, c))
    assert d._edges[j] == c and d.pdf(d._edges[j + 1]) == 0.0
    t = 1e-13
    for f in (0.1, 0.5, 0.9, 0.99):
        u = d._cum[j] + f * (d._cum[j + 1] - d._cum[j])
        q = d.quantile(u)
        # the generalized inverse: the cdf crosses u within the tolerance of q
        assert c < q < d._edges[j + 1] and d.cdf(q - t) < u <= d.cdf(q + t)
        assert q == reference.quantile(d, u)


def test_the_smooth_cdf_is_monotone_across_table_edges():
    # the flat stretch of the density above: each cdf is its table entry
    # plus one integral in its cell, and where adaptive refinement with an
    # absolute tolerance added them, 77 steps over these points went down
    c, k = 0.3001, 1e6
    h = 1.0 / (2.0 * c + 2.0 / k)
    pdf = lambda x: h * math.exp(-k * min(x - c, 1.0 - c - x)) if c < x < 1.0 - c else h
    d = SmoothDensity(pdf, 0.0, 1.0, breakpoints=[c, 1.0 - c], ess_inf=0.0, ess_sup=h)
    with time_limit(60.0):
        v = d.cdf(np.linspace(0.2999, 0.7001, 200_001))
    assert np.count_nonzero(np.diff(v) < 0.0) == 0


def test_a_quantile_below_the_float_spacing_ends_between_adjacent_floats():
    # at 1e6 the floats lie 1.2e-10 apart, far above 1e-13 of this support's
    # width, so neither the step nor the bracket can get that small: the
    # search ends once the bracket's midpoint rounds onto an end
    lo = 1e6
    w = (lo + 1e-6) - lo
    d = SmoothDensity(lambda x: (1.0 + (x - lo) / w) / (1.5 * w), lo, lo + w,
                      ess_inf=1.0 / (1.5 * w), ess_sup=2.0 / (1.5 * w))
    x = d.quantile(0.3)
    assert lo < x < lo + w
    assert d.cdf(x) <= 0.3 < d.cdf(np.nextafter(x, math.inf))


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


# The smooth pdfs, written over point arrays, must give the bits of their
# formulas in Python floats, one point at a time.  Each example evaluates over
# 1000 random points plus the special ones, enough that np.exp in place of
# math.exp (a SIMD path on some CPUs) would differ.
ARRAY_POINTS = 1000


def _scalar_each(pdf, xs):
    return [pdf(x) for x in xs.tolist()]


def _scalar_pdf(spec):
    """The pdf of a shipped smooth source, with math.exp and ``**`` one point
    at a time, normalized as ``truncated_gauss`` and ``truncated_laplace`` do."""
    lo, hi = spec["lo"], spec["hi"]
    if spec["kind"] == "truncated_gauss":
        m, s = spec["mean"], spec["sigma"]
        z_lo, z_hi = (lo - m) / (s * math.sqrt(2.0)), (hi - m) / (s * math.sqrt(2.0))
        if z_lo > 0.0:
            mass = 0.5 * (math.erfc(z_lo) - math.erfc(z_hi))
        elif z_hi < 0.0:
            mass = 0.5 * (math.erfc(-z_hi) - math.erfc(-z_lo))
        else:
            mass = 0.5 * (math.erf(z_hi) - math.erf(z_lo))
        norm = 1.0 / (mass * s * math.sqrt(2.0 * math.pi))
        return lambda x: norm * math.exp(-0.5 * ((x - m) / s) ** 2)
    c, s = spec["center"], spec["scale"]
    tail = lambda x: 0.5 * math.exp(-abs(x - c) / s)
    if lo > c:
        mass = tail(lo) - tail(hi)
    else:
        mass = (1.0 - tail(hi) if hi > c else tail(hi)) - tail(lo)
    norm = 1.0 / (2.0 * s * mass)
    return lambda x: norm * math.exp(-abs(x - c) / s)


def _with_specials(d, seed, extra=()):
    lo, hi = d.support.lo, d.support.hi
    special = [lo, hi, *extra]
    special += [np.nextafter(x, side) for x in special for side in (-np.inf, np.inf)]
    xs = np.random.default_rng(seed).uniform(lo, hi, ARRAY_POINTS)
    return np.concatenate((xs, [x for x in special if lo <= x <= hi]))


@st.composite
def _smooth_source(draw):
    # the mean or center inside [0, 1], or that many spreads outside it, out
    # to far-tail truncations
    kind = draw(st.sampled_from(["gauss", "laplace"]))
    spread = draw(st.floats(min_value=0.05, max_value=2.0))
    gap = draw(st.sampled_from([None, 1.0, 7.0] + ([30.0] if kind == "laplace" else [])))
    side = draw(st.sampled_from([-1.0, 1.0]))
    loc = 0.45 if gap is None else max(side, 0.0) + side * gap * spread
    make = truncated_gauss if kind == "gauss" else truncated_laplace
    return make(loc, spread, 0.0, 1.0), [loc]


@settings(max_examples=25, deadline=None)
@given(source=_smooth_source(), seed=st.integers(0, 2**32 - 1))
def test_the_array_pdf_gives_the_scalar_bits(source, seed):
    d, centre = source
    xs = _with_specials(d, seed, centre)
    expected = _scalar_each(_scalar_pdf(d.spec), xs)
    assert d._pdf_many(xs).tolist() == expected
    assert _scalar_each(d.pdf, xs) == expected


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["gauss", "laplace"]), p=st.floats(min_value=-3.0, max_value=3.0),
       seed=st.integers(0, 2**32 - 1))
def test_the_array_power_density_gives_the_scalar_bits(kind, p, seed):
    f = truncated_gauss(0.4, 0.3, 0.0, 1.0) if kind == "gauss" else \
        truncated_laplace(0.45, 0.3, 0.0, 1.0)
    g = f._power_density(p, 0.5)
    xs = _with_specials(g, seed, [0.45])
    base, norm = _scalar_pdf(f.spec), f.power_integral(p)
    assert g._pdf_many(xs).tolist() == _scalar_each(lambda x: base(x) ** p / norm, xs)


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["gauss", "laplace"]), c=st.floats(min_value=0.1, max_value=10.0),
       t=st.floats(min_value=-5.0, max_value=5.0), reflect=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_the_array_similarity_transform_gives_the_scalar_bits(kind, c, t, reflect, seed):
    f = truncated_gauss(0.4, 0.3, 0.0, 1.0) if kind == "gauss" else \
        truncated_laplace(0.45, 0.3, 0.0, 1.0)
    g = f.similarity_transform(c, t, reflect)
    xs = _with_specials(g, seed, g.interior_breakpoints())
    base, sign = _scalar_pdf(f.spec), -1.0 if reflect else 1.0
    expected = _scalar_each(lambda y: base((sign * y - sign * t) / c) / c, xs)
    assert g._pdf_many(xs).tolist() == expected


@settings(max_examples=25, deadline=None)
@given(source=_smooth_source(), seed=st.integers(0, 2**32 - 1))
def test_shipped_essential_bounds_are_the_far_end_and_the_clipped_centre(source, seed):
    d, (centre,) = source
    lo, hi = d.support.lo, d.support.hi
    pdf = _scalar_pdf(d.spec)
    far = lo if centre - lo > hi - centre else hi
    inf, sup = d.ess_bounds()
    assert (inf, sup) == (pdf(far), pdf(min(max(centre, lo), hi)))
    values = d._pdf_many(_with_specials(d, seed, [centre]))
    assert inf <= values.min() and values.max() <= sup


def test_the_shipped_smooth_densities_are_not_scanned(monkeypatch):
    # they pass their essential bounds, so only a caller's pdf is scanned
    # (test_golden_extremum_ends_when_the_bracket_stops_shrinking)
    def refuse(*args, **kwargs):
        raise AssertionError("golden_extremum was called")

    monkeypatch.setattr(renyiquant._quadrature, "golden_extremum", refuse)
    for f in (truncated_gauss(0.4, 0.3, 0.0, 1.0), truncated_gauss(3.0, 0.5, 0.0, 1.0),
              truncated_laplace(0.45, 0.3, 0.0, 1.0), truncated_laplace(-2.0, 0.4, 0.0, 1.0)):
        f._power_density(-1.5, 0.5)
        f.similarity_transform(2.0, 1.0, True)


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["piecewise", "gauss", "laplace"]),
       c=st.floats(min_value=0.1, max_value=10.0), t=st.floats(min_value=-5.0, max_value=5.0),
       seed=st.integers(0, 2**32 - 1))
def test_a_reflection_mirrors_the_transform_with_the_opposite_shift(kind, c, t, seed):
    f = {"piecewise": PiecewiseConstantDensity([-0.5, 0.1, 0.35, 0.6], [1 / 3, 2.0, 1.2]),
         "gauss": truncated_gauss(0.4, 0.3, 0.0, 1.0),
         "laplace": truncated_laplace(0.45, 0.3, 0.0, 1.0)}[kind]
    mirror, plain = f.similarity_transform(c, t, True), f.similarity_transform(c, -t)
    assert (mirror.support.lo, mirror.support.hi) == (-plain.support.hi, -plain.support.lo)
    assert mirror.interior_breakpoints() == [-x for x in reversed(plain.interior_breakpoints())]
    if kind == "piecewise":
        assert mirror.heights.tolist() == plain.heights[::-1].tolist()
    # a piecewise pdf takes the left height at an interior breakpoint, so only
    # the support ends and t (y == t maps to x == 0) join the random points
    lo, hi = mirror.support.lo, mirror.support.hi
    ys = np.random.default_rng(seed).uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 64)
    ys = np.concatenate((ys, [lo, hi, t]))
    assert _scalar_each(mirror.pdf, ys) == _scalar_each(plain.pdf, -ys)
    assert mirror._pdf_values(ys).tolist() == plain._pdf_values(-ys).tolist()


@pytest.mark.parametrize("make", [
    lambda: truncated_gauss(0.4, 0.3, 0.0, 1.0),
    lambda: truncated_laplace(0.45, 0.3, 0.0, 1.0),
    lambda: truncated_laplace(-40.0, 1.0, 0.0, 1.0),
], ids=["gauss", "laplace", "far_laplace"])
@pytest.mark.parametrize("p", [-1.5, 0.5, 1.0, 2.5])
def test_power_integral_equals_the_scalar_integral(make, p):
    d = make()
    expected = reference.integrate(lambda x: d.pdf(x) ** p, d.support.lo, d.support.hi,
                                   1e-10, 40, d.interior_breakpoints())
    assert d.power_integral(p) == expected


def test_a_caller_pdf_is_called_with_python_floats():
    seen = set()

    def pdf(x):
        seen.add(type(x))
        return 1.0

    d = SmoothDensity(pdf, 0.0, 1.0)
    d.cdf(np.linspace(0.0, 1.0, 7))
    assert seen == {float}


@pytest.mark.parametrize("make", [lambda: PiecewiseConstantDensity([0.0, 0.5, 1.0], [0.5, 1.5]),
                                  lambda: truncated_gauss(0.4, 0.3, 0.0, 1.0)],
                         ids=["piecewise", "gauss"])
def test_a_nan_pdf_argument_is_refused(make):
    # as cdf refuses it, where no height or 0.0 would be right
    with pytest.raises(ValueError, match="pdf argument must not be NaN"):
        make().pdf(math.nan)


def test_piecewise_pdf_values_match_the_scalar_pdf(two_mass):
    b = two_mass.breakpoints.tolist()
    xs = np.array(b + [np.nextafter(x, s) for x in b for s in (-np.inf, np.inf)] + [0.3, 7.0])
    assert two_mass._pdf_values(xs).tolist() == _scalar_each(two_mass.pdf, xs)


def test_a_smooth_density_that_touches_zero_refuses_what_needs_a_positive_floor():
    d = SmoothDensity(lambda x: 2.0 * x, 0.0, 1.0)
    with pytest.raises(ValueError, match="order -inf requires a density bounded away from zero"):
        differential_entropy(d, NEG_INF)
    with pytest.raises(ValueError, match="negative power integral requires a density bounded"):
        d.power_integral(-1.0)
    with pytest.raises(ValueError, match="does not carry a serializable description"):
        density_to_spec(d)


def test_a_smooth_pdf_or_transform_that_is_not_a_density_is_refused():
    with pytest.raises(ValueError, match="pdf must integrate to 1 within quadrature tolerance"):
        SmoothDensity(lambda x: 2.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="scale must be positive, got 0.0"):
        truncated_gauss(0.5, 0.2, 0.0, 1.0).similarity_transform(0.0, 1.0)


@pytest.mark.parametrize("ess_inf, ess_sup", [
    (math.nan, 1.0), (1.0, math.nan), (-0.5, 2.0), (1.5, 0.5), (math.nan, None),
])
def test_smooth_essential_bounds_out_of_order_or_nan_are_refused(ess_inf, ess_sup):
    # a NaN infimum got past every "bounded away from zero" test
    with pytest.raises(ValueError, match="essential bounds must satisfy 0 <= inf <= sup"):
        SmoothDensity(lambda x: 1.0, 0.0, 1.0, ess_inf=ess_inf, ess_sup=ess_sup)


def test_the_essential_infimum_must_be_positive_and_a_number():
    class Bounds:
        def __init__(self, lo):
            self.ess_bounds = lambda: (lo, 2.0)

    assert _ess_inf(Bounds(0.5), "unused") == 0.5
    for lo in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="^bounded away$"):
            _ess_inf(Bounds(lo), "bounded away")


def _span_checks(w, miss):
    """What each span check says of an end that misses its mate by ``miss`` on
    a span of width w: True where it takes it, else its message."""
    def takes(build):
        try:
            build()
        except ValueError as exc:
            return str(exc)
        return True

    half = 0.5 * w
    halves = [MixtureComponent(0.5, uniform(0.0, half)), MixtureComponent(0.5, uniform(half, w))]
    parts = [IntervalQuantizer([-miss, half], [0.25 * w]), IntervalQuantizer([half, w], [0.75 * w])]
    apart = MixtureSpec([halves[0], MixtureComponent(0.5, uniform(half + miss, w))])
    return [
        takes(lambda: require_nested_supports(uniform(-miss, w), uniform(0.0, w))),
        takes(lambda: GridInstance(uniform(0.0, w), [-miss, w], 1)),
        takes(lambda: MixtureSpec([halves[0], MixtureComponent(0.5, uniform(half - miss, w))])),
        apart.is_abutting(),
        takes(lambda: compose(MixtureSpec(halves), parts)),
    ]


@pytest.mark.parametrize("w", [1e-6, 1.0, 1e4])
def test_every_span_check_allows_the_same_slack(w):
    tol = _span_tol(w)
    assert tol == 1e-12 * max(w, 1.0)
    assert _span_checks(w, 0.5 * tol) == [True] * 5
    refusals = ["must lie inside second", "must span the density support exactly",
                "ordered and non-overlapping", None, "does not match the component support"]
    for said, refusal in zip(_span_checks(w, 2.0 * tol), refusals):
        assert said is False if refusal is None else refusal in said


NARROW = truncated_gauss(0.5, 0.05, 0.0, 1.0)


@pytest.mark.parametrize("p", [20.0, 150.0])
def test_a_resolved_power_integral_of_a_narrow_peak_passes_the_jensen_guard(p):
    # integral of exp(-p z**2 / 2) over [0, 1] is sigma * sqrt(2 pi / p) times
    # the mass there of the Gaussian with sigma / sqrt(p)
    with mpmath.workdps(50):
        sigma = mpmath.mpf(0.05)
        norm = 1 / (_gauss_mass(0.5, sigma, 0.0, 1.0) * sigma * mpmath.sqrt(2 * mpmath.pi))
        exact = (norm**p * sigma * mpmath.sqrt(2 * mpmath.pi / p)
                 * _gauss_mass(0.5, sigma / mpmath.sqrt(p), 0.0, 1.0))
    assert NARROW.power_integral(p) == pytest.approx(float(exact), rel=1e-8)


def test_a_power_integral_that_reads_zero_at_a_narrow_peak_is_refused():
    # the first nodes all miss the peak, where the integral is about 1e268
    with pytest.raises(ValueError, match="power integral of order 300.0 misses the peak"):
        NARROW.power_integral(300.0)

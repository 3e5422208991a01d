import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from renyiquant import (
    Interval,
    IntervalQuantizer,
    NEG_INF,
    POS_INF,
    PiecewiseConstantDensity,
    RenyiOrder,
    SmoothDensity,
    cell_distortion,
    cell_masses,
    distortion,
    improve_codepoints,
    optimal_codepoint,
    quantizer_entropy,
    transform_quantizer,
    truncated_gauss,
    truncated_laplace,
    uniform,
    uniform_quantizer,
)
from renyiquant import densities, quantizer
from renyiquant._quadrature import DEFAULT_REL_TOL, bisect_many, moments_many
from renyiquant.compander import Compander
from renyiquant.design import optimal_point_density
from renyiquant.densities import _cell_sums

import reference_quadrature as reference
from time_limit import time_limit

# the Laplace kink at 0.45 is interior
SMOOTH = {"gauss": truncated_gauss(0.4, 0.3, 0.0, 1.0),
          "laplace": truncated_laplace(0.45, 0.3, 0.0, 1.0)}


def test_quantizer_validation():
    with pytest.raises(ValueError):
        IntervalQuantizer([0.0, 0.5, 0.5, 1.0], [0.25, 0.5, 0.75])
    with pytest.raises(ValueError):
        IntervalQuantizer([0.0, 0.5, 1.0], [0.25, 0.4])  # codepoint outside cell
    q = IntervalQuantizer([0.0, 0.5, 1.0], [0.25, 0.5 - 1e-10])
    assert q.codepoints[1] == 0.5  # snapped onto the cell


@pytest.mark.parametrize("bounds, points, message", [
    ([0.0, float("nan"), 1.0], [0.25, 0.75], "boundaries and codepoints must be finite"),
    ([0.0, 1.0], [float("inf")], "boundaries and codepoints must be finite"),
    ([-float("inf"), 1.0], [0.5], "boundaries and codepoints must be finite"),
    ([0.0, 0.5, 0.5, 1.0], [0.25, 0.5, 0.75], "boundaries must be strictly increasing"),
    ([1.0, 0.0], [0.5], "boundaries must be strictly increasing"),
    ([0.0, 0.5, 1.0], [0.25, 0.4], "each codepoint must lie in the closure of its cell"),
    ([0.0, 0.5, 1.0], [0.6, 0.75], "each codepoint must lie in the closure of its cell"),
    ([0.0, 1.0], [0.5, 0.5], "need n\\+1 boundaries for n >= 1 codepoints"),
])
def test_each_quantizer_check_raises_its_message(bounds, points, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        IntervalQuantizer(bounds, points)


def test_a_cell_whose_width_overflows_is_refused_without_numpy_warnings():
    # the width was inf, so the bisection stopped at once on the midpoint 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^interval width overflows, got \[-1e\+308, 1e\+308\]"):
            optimal_codepoint(Interval(-1e308, 1e308), truncated_gauss(0.4, 0.3, 0, 1), 2.0)


def test_a_quantizer_whose_span_width_overflows_builds_without_numpy_warnings():
    # finite boundaries 3e308 apart: the codepoint tolerance is inf, not a warning
    for build in (lambda: IntervalQuantizer([-1.5e308, 0.0, 1.5e308], [-1.0, 1.0]),
                  lambda: transform_quantizer(uniform_quantizer(Interval(-1.0, 1.0), 2),
                                              1.5e308, 0.0)):
        q = build()
        assert q.boundaries.tolist() == [-1.5e308, 0.0, 1.5e308]


def test_quantize_maps_to_cell_indices():
    q = uniform_quantizer(Interval(0.0, 1.0), 4)
    assert q.quantize(0.0) == 0          # first cell is closed on the left
    assert q.quantize(0.25) == 0         # boundaries belong to the lower cell
    assert q.quantize(0.26) == 1
    assert q.quantize(1.0) == 3
    with pytest.raises(ValueError):
        q.quantize(1.5)


def test_quantize_rejects_nan():
    with pytest.raises(ValueError, match="outside the quantizer span"):
        uniform_quantizer(Interval(0.0, 1.0), 4).quantize(float("nan"))


def test_uniform_quantizer_figures():
    q = uniform_quantizer(Interval(0.0, 1.0), 4)
    u = uniform(0.0, 1.0)
    assert np.allclose(cell_masses(q, u), 0.25)
    assert quantizer_entropy(q, u, RenyiOrder(0.5)) == pytest.approx(
        math.log(4.0), abs=1e-14)
    assert distortion(q, u, 2.0) == pytest.approx(0.005208333333333333, rel=1e-14)


def test_cell_masses_keep_exact_zeros():
    q = uniform_quantizer(Interval(0.0, 1.0), 4)
    narrow = uniform(0.0, 0.5)
    masses = cell_masses(q, narrow)
    assert masses[2] == 0.0 and masses[3] == 0.0
    assert masses[0] == pytest.approx(0.5, abs=1e-15)


def test_tiny_smooth_cell_masses_keep_their_digits():
    # far out in a Gaussian tail the cdf is near 1 at every boundary, so a
    # difference of cdfs cancels: the worst cell mass was 2.3e-2 off, and
    # the entropy 1.6e-3; each cell integrated on its own reads 2.6e-14 and 8e-16
    d = truncated_gauss(0.0, 1.0, 30.0, 31.0)
    q = Compander(optimal_point_density(d, -2.0, 40.0)).build(1024)
    masses = cell_masses(q, d).tolist()
    h = quantizer_entropy(q, d, -2.0)
    with mpmath.workdps(60):
        tail = lambda x: mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2))
        b = q.boundaries.tolist()
        exact = [(tail(s) - tail(t)) / (tail(30.0) - tail(31.0)) for s, t in zip(b[:-1], b[1:])]
        assert min(exact) < 1e-14
        assert max(abs(m / e - 1) for m, e in zip(masses, exact)) <= 1e-12
        assert abs(h - mpmath.log(mpmath.fsum(e**-2 for e in exact)) / 3) <= 1e-14


def test_distortion_closed_form_matches_quadrature(two_mass):
    q = IntervalQuantizer([0.0, 0.3, 0.8, 1.0], [0.2, 0.6, 0.9])
    smooth = SmoothDensity(two_mass.pdf, 0.0, 1.0, breakpoints=[0.5])
    for r in (1.0, 2.0, 3.0):
        assert distortion(q, two_mass, r) == pytest.approx(
            distortion(q, smooth, r), rel=1e-9)


def test_cell_distortions_sum_to_total(two_mass):
    q = IntervalQuantizer([0.0, 0.3, 0.8, 1.0], [0.2, 0.6, 0.9])
    total = sum(
        cell_distortion(two_mass, lo, hi, c, 2.0)
        for lo, hi, c in zip(q.boundaries, q.boundaries[1:], q.codepoints))
    assert distortion(q, two_mass, 2.0) == pytest.approx(total, rel=1e-14)


def test_optimal_codepoint_is_conditional_mean(two_mass):
    assert optimal_codepoint(Interval(0.0, 1.0), two_mass, 2.0) == pytest.approx(
        0.625, abs=1e-12)
    assert optimal_codepoint(Interval(0.2, 0.4), uniform(0.0, 1.0), 2.0) == (
        pytest.approx(0.3, abs=1e-12))


def test_optimal_codepoint_is_median_for_r_one(two_mass):
    assert optimal_codepoint(Interval(0.0, 1.0), two_mass, 1.0) == pytest.approx(
        2.0 / 3.0, abs=1e-12)


def test_optimal_codepoint_rejects_empty_cell():
    with pytest.raises(ValueError):
        optimal_codepoint(Interval(0.6, 0.9), uniform(0.0, 0.5), 2.0)


def test_a_far_tail_cell_gets_its_conditional_mean():
    # both cdfs of [33, 34] round to 1.0, yet the cell carries 8.3e-42 of
    # the mass, and its balances place the codepoint
    d = truncated_gauss(0.0, 1.0, 30.0, 40.0)
    with mpmath.workdps(50):
        a, b, root2 = mpmath.mpf(33), mpmath.mpf(34), mpmath.sqrt(2)
        mean = (mpmath.exp(-a**2 / 2) - mpmath.exp(-b**2 / 2)) / (
            mpmath.sqrt(mpmath.pi / 2) * (mpmath.erfc(a / root2) - mpmath.erfc(b / root2)))
    assert optimal_codepoint(Interval(33.0, 34.0), d, 2.0) == pytest.approx(float(mean),
                                                                           rel=1e-14)


def test_improve_codepoints_solves_every_far_tail_cell_with_mass():
    # cdf differences read 0 on cells 2..5, whose masses run from 1e-27 to
    # 1e-71, and a rounding error of 3.3e-16 on cell 6, whose mass is 8.5e-87
    d = truncated_gauss(0.0, 1.0, 30.0, 37.0)
    q = uniform_quantizer(Interval(30.0, 37.0), 7)
    b = q.boundaries.tolist()
    got = improve_codepoints(q, d, 2.0).codepoints.tolist()
    assert got == [optimal_codepoint(Interval(lo, hi), d, 2.0) for lo, hi in zip(b[:-1], b[1:])]
    # a falling density puts each cell's mean left of its midpoint
    assert all(c < m for c, m in zip(got, q.codepoints.tolist()))


def test_improve_codepoints_never_hurts():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        widths = rng.uniform(0.1, 1.0, size=k)
        bps = np.concatenate(([0.0], np.cumsum(widths)))
        masses = rng.dirichlet(np.ones(k))
        d = PiecewiseConstantDensity(bps, masses / widths)
        cuts = np.sort(rng.uniform(bps[0], bps[-1], size=int(rng.integers(1, 5))))
        bounds = np.concatenate(([bps[0]], cuts, [bps[-1]]))
        q = IntervalQuantizer(bounds, (bounds[:-1] + bounds[1:]) / 2.0)
        r = float(rng.choice([1.0, 2.0, 3.0]))
        better = improve_codepoints(q, d, r)
        assert distortion(better, d, r) <= distortion(q, d, r) + 1e-15


def test_improve_codepoints_keeps_empty_cells():
    q = uniform_quantizer(Interval(0.0, 1.0), 4)
    better = improve_codepoints(q, uniform(0.0, 0.5), 2.0)
    assert better.codepoints[3] == q.codepoints[3]
    assert better.codepoints[0] == pytest.approx(0.125, abs=1e-12)


@pytest.mark.parametrize("d", [uniform(0.0, 1.0), SMOOTH["gauss"]])
def test_improve_codepoints_keeps_every_point_when_no_cell_has_mass(d):
    q = uniform_quantizer(Interval(2.0, 3.0), 2)
    assert improve_codepoints(q, d, 2.0).codepoints.tolist() == q.codepoints.tolist()


@pytest.mark.parametrize("r", [0.5, float("nan")])
def test_improve_codepoints_checks_r_when_no_cell_has_mass(r):
    with pytest.raises(ValueError, match="distortion exponent"):
        improve_codepoints(uniform_quantizer(Interval(2.0, 3.0), 2), uniform(0.0, 1.0), r)


@pytest.mark.parametrize("d, r", [
    (PiecewiseConstantDensity([0.0, 0.3, 1.0], [0.5, 8.5 / 7.0]), 3.0),
    (SMOOTH["laplace"], 1.5),
], ids=["piecewise", "laplace"])
def test_improve_codepoints_is_the_per_cell_solve(d, r):
    # the two cells left of the support carry no mass and keep their codepoints
    q = uniform_quantizer(Interval(-0.5, 1.0), 6)
    expected = [optimal_codepoint(Interval(lo, hi), d, r) if d.cdf(hi) - d.cdf(lo) > 0.0 else c
                for lo, hi, c in zip(q.boundaries[:-1].tolist(), q.boundaries[1:].tolist(),
                                     q.codepoints.tolist())]
    assert improve_codepoints(q, d, r).codepoints.tolist() == expected
    assert expected[:2] == q.codepoints[:2].tolist()


NAN = float("nan")


@pytest.mark.parametrize("d", [PiecewiseConstantDensity([0.0, 0.3, 1.0], [0.5, 8.5 / 7.0]),
                               SMOOTH["gauss"]], ids=["piecewise", "gauss"])
@pytest.mark.parametrize("name, cell", [("lo", (NAN, 0.6, 0.3)), ("hi", (0.2, NAN, 0.3)),
                                        ("c", (0.2, 0.6, NAN))])
def test_cell_distortion_rejects_nan_naming_the_argument(d, name, cell):
    with pytest.raises(ValueError, match=f"^{name} must not be NaN"):
        cell_distortion(d, *cell, 2.0)


@pytest.mark.parametrize("d", [PiecewiseConstantDensity([0.0, 0.3, 1.0], [0.5, 8.5 / 7.0]),
                               SMOOTH["gauss"]], ids=["piecewise", "gauss"])
def test_cell_distortion_keeps_empty_cells_and_infinite_ends(d):
    assert cell_distortion(d, 0.6, 0.2, 0.3, 2.0) == 0.0
    assert cell_distortion(d, -math.inf, math.inf, 0.3, 2.0) == cell_distortion(
        d, 0.0, 1.0, 0.3, 2.0)


def test_transform_quantizer(two_mass):
    q = uniform_quantizer(Interval(0.0, 1.0), 3)
    moved = transform_quantizer(q, 0.5, -1.0)
    assert np.allclose(moved.boundaries, 0.5 * np.asarray(q.boundaries) - 1.0)
    with pytest.raises(ValueError):
        transform_quantizer(q, -1.0, 0.0)
    ft = two_mass.similarity_transform(0.5, -1.0)
    assert distortion(moved, ft, 2.0) == pytest.approx(
        0.25 * distortion(q, two_mass, 2.0), rel=1e-12)
    for alpha in (NEG_INF, RenyiOrder(0.5), POS_INF):
        assert quantizer_entropy(moved, ft, alpha) == pytest.approx(
            quantizer_entropy(q, two_mass, alpha), abs=1e-13)


def test_quantizer_json_round_trip():
    q = IntervalQuantizer([0.0, 0.3, 1.0], [0.1, 0.7])
    copy = IntervalQuantizer.from_json(q.to_json())
    assert np.array_equal(copy.boundaries, q.boundaries)
    assert np.array_equal(copy.codepoints, q.codepoints)


def test_quantizer_must_cover_the_support():
    q = uniform_quantizer(Interval(0.0, 0.5), 2)
    with pytest.raises(ValueError):
        cell_masses(q, uniform(0.0, 1.0))


def _reference_pieces(d, s, t):
    """Pieces of [s, t] between sorted cut points, with the pdf at each midpoint."""
    edges = sorted({s, t} | {float(x) for x in d.breakpoints if s < x < t})
    return [(a, b, d.pdf(0.5 * (a + b))) for a, b in zip(edges[:-1], edges[1:])]


def _reference_cell_distortion(d, lo, hi, c, r):
    psi = lambda y: math.copysign(abs(y) ** (r + 1.0), y) / (r + 1.0)
    total = 0.0
    for a, b, h in _reference_pieces(d, lo, hi):
        if h > 0.0:
            total += h * (psi(b - c) - psi(a - c))
    return total


def _reference_balance(d, lo, hi, a, r):
    # the one-sided (r-1)-moments about a, left minus right
    return (_reference_cell_distortion(d, lo, a, a, r - 1.0)
            - _reference_cell_distortion(d, a, hi, a, r - 1.0))


IDENTITY = {"two_mass": PiecewiseConstantDensity([0.0, 0.5, 1.0], [0.5, 1.5]), **SMOOTH}
IDENTITY_CELLS = [(0.1, 0.9), (0.3, 0.7), (0.42, 0.61), (0.0, 1.0)]


def _moment(d, lo, hi, c, p):
    # cell_distortion at power p, which may be below 1 here
    return float(_cell_sums(d._moment_terms([lo], [hi], [c], p))[0])


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("name", sorted(IDENTITY))
def test_the_balance_is_the_codepoint_derivative_of_the_moment_over_r(name, r):
    # d/dc of the integral of |x - c|**r is r times the (r-1)-moment left of c
    # minus the one right of c.  The central difference with step h = 1e-5 of
    # the width errs by about h**2 / 6 times the third derivative, which grows
    # like |c - b|**(r - 3) near a breakpoint b; the worst case here, two_mass
    # at r = 1.5 with c near 0.5, is 1.8e-8 of the scale.
    d = IDENTITY[name]
    for lo, hi in IDENTITY_CELLS:
        h = 1e-5 * (hi - lo)
        for c in np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 5).tolist():
            slope = (cell_distortion(d, lo, hi, c + h, r)
                     - cell_distortion(d, lo, hi, c - h, r)) / (2.0 * h)
            balance = quantizer._balances(d, [lo], [hi], [c], r)[0]
            assert abs(slope - r * balance) <= 1e-7 * r * _moment(d, lo, hi, c, r - 1.0)


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("name", sorted(IDENTITY))
def test_the_optimal_codepoint_balances_the_one_sided_moments(name, r):
    # the bisection stops on a bracket of 1e-13 of the width, across which the
    # balance moves by about 1e-13 of the two moments' sum; their rounding adds
    # a few ulps (the worst case here is 1.9e-13)
    d = IDENTITY[name]
    for lo, hi in IDENTITY_CELLS:
        c = optimal_codepoint(Interval(lo, hi), d, r)
        left, right = _moment(d, lo, c, c, r - 1.0), _moment(d, c, hi, c, r - 1.0)
        assert abs(left - right) <= 1e-12 * (left + right)


def test_piecewise_closed_forms_match_plain_python_loops():
    # the array kernel must reproduce a scalar loop with Python's ** bit for bit
    rng = np.random.default_rng(11)
    for trial in range(40):
        k = int(rng.integers(1, 6))
        widths = rng.uniform(0.1, 1.0, size=k)
        bps = np.concatenate(([0.0], np.cumsum(widths)))
        d = PiecewiseConstantDensity(bps, rng.dirichlet(np.ones(k)) / widths)
        pts = np.concatenate((rng.uniform(bps[0], bps[-1], 2), rng.choice(bps, 2)))
        lo, hi = float(pts.min()), float(pts.max())
        if hi - lo < 1e-3:
            continue
        r = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.5]))
        for a in np.append(rng.uniform(lo, hi, 8), [lo, hi]):
            assert quantizer._balances(d, [lo], [hi], [a], r)[0] == _reference_balance(
                d, lo, hi, float(a), r)
        c = optimal_codepoint(Interval(lo, hi), d, r)
        assert c == reference.bisect_increasing(lambda a: _reference_balance(d, lo, hi, a, r),
                                                lo, hi, tol=1e-13 * (hi - lo))
        assert cell_distortion(d, lo, hi, c, r) == _reference_cell_distortion(d, lo, hi, c, r)
        # cells reaching past the support keep the zero-height pieces out
        assert cell_distortion(d, lo - 0.5, hi + 0.5, c, r) == _reference_cell_distortion(
            d, lo - 0.5, hi + 0.5, c, r)


def _reference_distortion(q, d, r):
    """Per-edge loop over the merged quantizer and density edges, left to right.

    Each piece takes the pdf at its midpoint and the codepoint of the cell
    holding its left end.  (The cell of the midpoint is wrong for a cell one
    float wide, whose midpoint can round onto the cell's lower boundary.)
    """
    edges = np.unique(np.concatenate((q.boundaries, d.breakpoints)))
    edges = edges[(edges >= q.boundaries[0]) & (edges <= q.boundaries[-1])].tolist()
    psi = lambda y: math.copysign(abs(y) ** (r + 1.0), y) / (r + 1.0)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        h = d.pdf(0.5 * (a + b))
        if h == 0.0:
            continue
        c = float(q.codepoints[np.searchsorted(q.boundaries, a, side="right") - 1])
        total += h * (psi(b - c) - psi(a - c))
    return total


@settings(max_examples=200, deadline=None)
@given(
    segments=st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 1.0)),
                      min_size=1, max_size=6),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=10),
    on_breaks=st.lists(st.integers(0, 6), max_size=3),
    pad=st.tuples(st.sampled_from([0.0, 0.3]), st.sampled_from([0.0, 0.7])),
    place=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    r=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.5]) | st.floats(1.0, 8.0),
)
def test_piecewise_distortion_matches_the_per_edge_loop(segments, cuts, on_breaks, pad,
                                                        place, r):
    widths = np.array([w for w, _ in segments])
    masses = np.array([m for _, m in segments])
    bps = np.concatenate(([0.0], np.cumsum(widths))) - 0.4
    d = PiecewiseConstantDensity(bps, masses / masses.sum() / widths)
    lo, hi = bps[0] - pad[0], bps[-1] + pad[1]
    # boundaries anywhere in the span, some of them exactly on breakpoints
    inner = [lo + c * (hi - lo) for c in cuts] + [bps[i % len(bps)] for i in on_breaks]
    bounds = np.unique(np.clip(np.array([lo, hi, *inner]), lo, hi))
    cells = len(bounds) - 1
    frac = np.resize(np.asarray(place), cells)
    q = IntervalQuantizer(bounds, bounds[:-1] + frac * np.diff(bounds))
    assert distortion(q, d, r) == _reference_distortion(q, d, r)


def _scalar_cell(d, lo, hi, term):
    """``term(a, b, h)`` added up from 0.0 over the pieces (a, b] of [lo, hi] cut
    at the breakpoints, where h > 0; a piece lies in one segment, which owns b."""
    x = d.breakpoints.tolist()
    edges = [lo] + [v for v in x if lo < v < hi] + [hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        h = d.pdf(b) if b > x[0] else 0.0
        if h > 0.0:
            total += term(a, b, h)
    return total


TINY_SEGMENT = 0.5 + 2.0**-53  # the float after 0.5
PIECEWISE_LAYOUTS = {
    # breakpoints, heights, boundaries
    "no cell holds a breakpoint": ([0.0, 0.5, 1.0], [0.6, 1.4], np.linspace(0.0, 1.0, 9)),
    "only the first cell holds one": ([0.0, 0.05, 1.0], [2.0, 18.0 / 19.0],
                                      np.linspace(0.0, 1.0, 9)),
    "only the last cell holds one": ([0.0, 0.95, 1.0], [18.0 / 19.0, 2.0],
                                     np.linspace(0.0, 1.0, 9)),
    "a cell holds several": ([0.0, 0.3, 0.41, 0.53, 0.66, 1.0], [1.1, 0.7, 1.3, 0.9, 16.0 / 17.0],
                             np.array([0.0, 0.2, 0.7, 0.85, 1.0])),
    "boundaries on breakpoints": ([0.0, 0.25, 0.5, 0.625, 1.0], [0.4, 1.2, 2.0, 14.0 / 15.0],
                                  np.array([0.0, 0.25, 0.3, 0.5, 0.7, 1.0])),
    "cells past the support": ([0.0, 0.3, 1.0], [0.5, 8.5 / 7.0], np.linspace(-1.0, 2.0, 13)),
    "a segment one float wide": ([0.0, 0.5, TINY_SEGMENT, 1.0], [0.8, 1.5, 1.2],
                                 np.array([0.0, 0.25, 0.4, 0.6, 1.0])),
    "a cell one float wide": ([0.0, 0.5, TINY_SEGMENT, 1.0], [0.8, 1.5, 1.2],
                              np.array([0.0, 0.25, 0.5, TINY_SEGMENT, 0.75, 1.0])),
}


@pytest.mark.parametrize("split", [False, True], ids=["padded", "split"])
@pytest.mark.parametrize("layout", sorted(PIECEWISE_LAYOUTS))
def test_piecewise_layouts_match_the_scalar_loops(layout, split, monkeypatch):
    # the kernel pads every row, or takes the first piece of every cell and
    # then the rest of the cells that hold a breakpoint; both give the bits
    # of a scalar loop, and a cell with no breakpoint is one column
    breaks, heights, bounds = PIECEWISE_LAYOUTS[layout]
    d = PiecewiseConstantDensity(breaks, heights)
    monkeypatch.setattr(densities, "SPLIT_EDGES", -math.inf if split else math.inf)
    q = IntervalQuantizer(bounds, 0.5 * (bounds[:-1] + bounds[1:]))
    lo, hi = q.boundaries[:-1].tolist(), q.boundaries[1:].tolist()
    scalar = [_scalar_cell(d, s, t, lambda a, b, h: h * (b - a)) for s, t in zip(lo, hi)]
    assert d._cell_masses(q.boundaries).tolist() == scalar
    for r in (1.0, 2.0, 3.5):
        assert distortion(q, d, r) == _reference_distortion(q, d, r)
        # the one walk gives both figures with the same bits
        assert d._cell_terms(q.boundaries, q.codepoints, r)[0].tolist() == scalar
        masses, total = quantizer._masses_and_distortion(q, d, r)
        assert masses.tolist() == (np.array(scalar) / np.array(scalar).sum()).tolist()
        assert total == _reference_distortion(q, d, r)
        # cells without mass keep their points; optimal_codepoint refuses them
        better = improve_codepoints(q, d, r)
        assert [optimal_codepoint(Interval(s, t), d, r)
                for s, t in zip(lo, hi) if d.cdf(t) > d.cdf(s)] == [
            c for s, t, c in zip(lo, hi, better.codepoints.tolist()) if d.cdf(t) > d.cdf(s)]
    width = d._piece_terms(q.boundaries[:-1], q.boundaries[1:], *d._placed(q.boundaries),
                           lambda edges, h, rows: h * np.diff(edges)).shape[1]
    assert width == 1 + max(sum(s < v < t for v in breaks) for s, t in zip(lo, hi))
    if layout == "no cell holds a breakpoint":
        assert width == 1


def _sweep_quantizer():
    """The density of the piecewise benchmark sweep and its quantizer at the
    largest level count."""
    rng = np.random.default_rng(7)
    widths = rng.uniform(0.5, 1.5, 48)
    breaks = np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))
    breaks[-1] = 1.0
    heights = rng.uniform(0.25, 4.0, 48)
    d = PiecewiseConstantDensity(breaks, heights / float(np.dot(heights, np.diff(breaks))))
    return d, Compander(optimal_point_density(d, 0.5, 2.0)).build(65536)


def test_cells_without_a_breakpoint_pass_two_edges():
    # each kernel call takes 2 edges for each cell with no breakpoint inside,
    # where padding every row to the longest took 3
    d, q = _sweep_quantizer()
    breaks = d.breakpoints
    lo, hi = q.boundaries[:-1], q.boundaries[1:]
    inner = (lo[:, None] < breaks) & (breaks < hi[:, None])
    held = int(inner.any(axis=1).sum())
    assert 0 < held <= 47 and inner.sum(axis=1).max() == 1
    calls = []

    def pieces(edges, h, rows):
        calls.append(edges.shape)
        return h * np.diff(edges)

    d._piece_terms(lo, hi, *d._placed(q.boundaries), pieces)
    assert calls == [(65536, 2), (held, 2)]


@pytest.mark.parametrize("layout", ["the benchmark sweep", "seeded ends on breakpoints",
                                    *sorted(PIECEWISE_LAYOUTS)])
def test_breakpoints_placed_among_the_ends_match_two_searches_of_the_ends(layout):
    if layout == "the benchmark sweep":
        d, q = _sweep_quantizer()
        bounds = q.boundaries
    elif layout == "seeded ends on breakpoints":
        rng = np.random.default_rng(3)
        d = PiecewiseConstantDensity(np.linspace(0.0, 1.0, 9), np.ones(8))
        bounds = np.unique(np.concatenate((rng.uniform(-0.5, 1.5, 40),
                                           d.breakpoints[rng.integers(0, 9, 5)])))
    else:
        breaks, heights, bounds = PIECEWISE_LAYOUTS[layout]
        d = PiecewiseConstantDensity(breaks, heights)
    x, lo, hi = d.breakpoints, bounds[:-1], bounds[1:]
    first, count = d._placed(bounds)
    assert first.tolist() == x.searchsorted(lo, side="right").tolist()
    assert count.tolist() == np.maximum(x.searchsorted(hi) - first, 0).tolist()


def test_distortion_overflow_raises_like_cell_distortion():
    d = PiecewiseConstantDensity([0.0, 1e3], [1e-3])
    with pytest.raises(ValueError, match="overflows") as whole:
        distortion(IntervalQuantizer([0.0, 1e3], [0.0]), d, 200.0)
    with pytest.raises(ValueError, match="overflows") as cell:
        cell_distortion(d, 0.0, 1e3, 0.0, 200.0)
    assert str(whole.value) == str(cell.value)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(SMOOTH)),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
    on_kink=st.booleans(),
    place=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    r=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_smooth_distortion_is_the_per_cell_loop(name, cuts, on_kink, place, r):
    d = SMOOTH[name]
    inner = cuts + ([0.45] if on_kink else [])
    bounds = np.unique(np.array([0.0, 1.0, *inner]))
    cells = len(bounds) - 1
    points = bounds[:-1] + np.resize(np.asarray(place), cells) * np.diff(bounds)
    # a codepoint on the kink cuts its cell there only once
    kink_cell = np.searchsorted(bounds, 0.45) - 1
    if on_kink:
        points[kink_cell] = 0.45
    q = IntervalQuantizer(bounds, points)
    expected = 0.0
    for s, t, c in zip(q.boundaries[:-1].tolist(), q.boundaries[1:].tolist(),
                       q.codepoints.tolist()):
        expected += reference.moment(d, s, t, c, r)
    assert distortion(q, d, r) == expected


@pytest.mark.parametrize("name", sorted(SMOOTH))
def test_smooth_cell_moments_match_the_recursion_on_seeded_cells(name):
    d = SMOOTH[name]
    rng = np.random.default_rng(23)
    # a cell across the kink, one beside it, one at the left end and one
    # reaching past the support, which the kernel and the reference both clip
    # to the support.  That one takes r = 1 and points left of its middle:
    # unclipped, a piece from the point to past the support, 0 at all three
    # root samples, gets a tolerance of rel_tol * 1e-12 and refines almost
    # forever.
    cells = [(0.3, 0.6), tuple(np.sort(rng.uniform(0.5, 1.0, 2))), (0.0, 0.35), (0.9, 1.02)]
    for (lo, hi), r in zip(cells, (2.0, 3.0, 1.5, 1.0)):
        lo, hi = float(lo), float(hi)
        for a in rng.uniform(lo, hi, 3).tolist() + [lo, hi]:
            m = _cell_sums(d._moment_terms([lo, a], [a, hi], [a, a], r - 1.0))
            assert m[0] - m[1] == reference.balance(d, lo, hi, a, r)
        for point in (lo + 0.1 * (hi - lo), 0.5 * (lo + hi), 0.45):
            assert cell_distortion(d, lo, hi, point, r) == reference.moment(d, lo, hi, point, r)
    # the whole bisection, where |x - a|**(r - 1) stays smooth at a
    lo, hi = 0.3, 0.6
    c = optimal_codepoint(Interval(lo, hi), d, 3.0)
    assert c == reference.bisect_increasing(lambda a: reference.balance(d, lo, hi, a, 3.0),
                                            lo, hi, tol=1e-13 * (hi - lo))


def test_an_overflowing_smooth_moment_raises():
    d = truncated_gauss(0.0, 100.0, -500.0, 500.0)
    # both halves of the cell have c = 0 at one end, where 500**(r + 1)
    # scales their Gauss rules, at integer r too
    for r in (200.0, 200.5):
        with pytest.raises(ValueError, match="a cell moment overflows"):
            cell_distortion(d, -500.0, 500.0, 0.0, r)


def test_a_cell_past_the_support_is_clipped_to_it():
    # on [0.85625, 1.4] the pdf is 0 at 1.4 and at the midpoint, and
    # |x - 0.85625|**2 is 0 at the left end: unclipped, all three root
    # samples are 0 and the refinement runs to depth 40
    d = truncated_gauss(0.4, 0.3, 0.0, 1.0)
    with time_limit(10.0):
        got = cell_distortion(d, 0.85625, 1.4, 0.85625, 2.0)
        point = optimal_codepoint(Interval(0.8, 1.4), d, 3.0)
    assert got == cell_distortion(d, 0.85625, 1.0, 0.85625, 2.0)
    assert point == pytest.approx(optimal_codepoint(Interval(0.8, 1.0), d, 3.0), abs=1e-12)


@pytest.mark.parametrize("name", sorted(SMOOTH))
def test_cells_past_either_end_of_the_support_keep_the_clipped_moments(name):
    d = SMOOTH[name]
    s, t, c = [-0.5, 0.2, 0.9, 1.2], [0.3, 0.7, 1.6, 1.9], [0.1, 0.45, 0.95, 1.5]
    with time_limit(10.0):
        got = _cell_sums(d._moment_terms(s, t, c, 2.0)).tolist()
    assert got == _cell_sums(d._moment_terms([0.0, 0.2, 0.9, 1.0], [0.3, 0.7, 1.0, 1.0], c,
                                             2.0)).tolist()
    assert got[-1] == 0.0


def _mp_pdf(d, cuts=()):
    """The pdf of the truncated Gaussian or Laplace density d in mpmath,
    normalized by mpmath quadrature split at ``cuts`` too, and its kinks."""
    spec = d.spec
    lo, hi = mpmath.mpf(spec["lo"]), mpmath.mpf(spec["hi"])
    if spec["kind"] == "truncated_gauss":
        m, s = mpmath.mpf(spec["mean"]), mpmath.mpf(spec["sigma"])
        raw, kinks = (lambda x: mpmath.exp(-((x - m) / s) ** 2 / 2)), []
    else:
        m, s = mpmath.mpf(spec["center"]), mpmath.mpf(spec["scale"])
        raw, kinks = (lambda x: mpmath.exp(-abs(x - m) / s)), [m] if lo < m < hi else []
    mass = mpmath.quad(raw, sorted({lo, *kinks, *map(mpmath.mpf, cuts), hi}))
    return (lambda x: raw(x) / mass), kinks


def _mp_moment(pdf, kinks, lo, hi, c, p):
    """Integral of |x - c|**p * pdf over [lo, hi], split at the kinks and at c.

    ``mpmath.quad`` stops at an absolute error near 10**-dps, so each piece
    is scaled by the largest integrand value at 9 points spread over it: the
    stop is then relative, and a moment far below 1 keeps its digits.
    """
    cuts = sorted({lo, hi, *(x for x in (*kinks, c) if lo < x < hi)})

    def piece(a, b):
        top = max(abs(x - c) ** p * pdf(x) for x in mpmath.linspace(a, b, 9)) or 1
        return mpmath.quad(lambda x: abs(x - c) ** p * pdf(x) / top, [a, b]) * top

    return mpmath.fsum(piece(a, b) for a, b in zip(cuts[:-1], cuts[1:]))


MP_REL_TOL = 1e-11


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(SMOOTH)),
    width=st.floats(1e-3, 0.1),
    start=st.floats(0.0, 1.0),
    place=st.sampled_from(["lo", "hi", "kink", "inside"]),
    inside=st.floats(0.0, 1.0),
    r=st.floats(1.0, 4.0),
)
@example(name="gauss", width=1e-3, start=0.5, place="lo", inside=0.0, r=1.0000001)
@example(name="laplace", width=1e-3, start=0.9, place="inside", inside=0.5, r=3.9)
# adaptive refinement after a change of variables stopped early here, 1.39e-11 off
@example(name="gauss", width=0.07421875, start=0.35546875, place="lo", inside=0.0, r=2.03125)
# the cell ends one float short of its codepoint 0.45: the plain rules halved
# towards it until they ran out of depth
@example(name="gauss", width=0.1, start=1.0, place="kink", inside=0.0, r=1.5)
def test_smooth_cells_match_a_50_digit_reference(name, width, start, place, inside, r):
    # cells as wide as those of quantizers with 10 to 1000 levels on [0, 1];
    # a "kink" cell holds 0.45, the Laplace kink, and takes it as its codepoint
    d = SMOOTH[name]
    lo = 0.45 - start * width if place == "kink" else start * (1.0 - width)
    hi = lo + width
    c = {"lo": lo, "hi": hi, "kink": 0.45, "inside": lo + inside * width}[place]
    got = cell_distortion(d, lo, hi, c, r)
    point = optimal_codepoint(Interval(lo, hi), d, r)
    with mpmath.workdps(50):
        pdf, kinks = _mp_pdf(d)
        lo, hi, c, r = (mpmath.mpf(v) for v in (lo, hi, c, r))
        exact = _mp_moment(pdf, kinks, lo, hi, c, r)
        assert abs(got - exact) <= MP_REL_TOL * exact

        def balance(a):
            return (_mp_moment(pdf, kinks, lo, a, a, r - 1)
                    - _mp_moment(pdf, kinks, a, hi, a, r - 1))

        # the balance changes sign within 1e-11 of the cell width of the
        # codepoint: on 600 seeded cells of this shape, a quarter of them
        # about the Laplace kink, the 50-digit root was at most 6.4e-14 of
        # the width away, and the moments' worst error seen is 3.6e-12
        point, slack = mpmath.mpf(point), mpmath.mpf(1e-11) * (hi - lo)
        assert balance(point - slack) < 0 < balance(point + slack)


# cells adaptive refinement stopped early on, 3.9e-10 and 3.2e-10 off: a wide
# one, and one whose moment is about 1e-20
FAR_CELLS = {"gauss": (0.1025143431813752, 0.8888408715087993, 0.45, 1.1),
             "laplace": (0.23239353049997918, 0.23257088176514823, 0.23257088176514823, 4.0)}


@pytest.mark.parametrize("name", sorted(SMOOTH))
def test_smooth_cell_moments_are_within_1e_13_of_50_digits(name):
    # seeded cells 1e-3 to 0.3 wide, with the codepoint at either end,
    # inside, or on 0.45 (the Laplace kink); the worst measured is 3.6e-15
    d = SMOOTH[name]
    rng = np.random.default_rng(17)
    with mpmath.workdps(50):
        pdf, kinks = _mp_pdf(d)
        exact = _mp_moment(pdf, kinks, *map(mpmath.mpf, FAR_CELLS[name]))
        assert abs(cell_distortion(d, *FAR_CELLS[name]) - exact) <= 1e-13 * exact
        for r in (1.0, 1.5, 2.0, 3.9):
            for place in ("lo", "hi", "inside", "kink"):
                for width in np.exp(rng.uniform(math.log(1e-3), math.log(0.3), 2)).tolist():
                    start, inside = rng.uniform(size=2).tolist()
                    lo = 0.45 - start * width if place == "kink" else start * (1.0 - width)
                    hi = lo + width
                    c = {"lo": lo, "hi": hi, "kink": 0.45, "inside": lo + inside * width}[place]
                    got = cell_distortion(d, lo, hi, c, r)
                    exact = _mp_moment(pdf, kinks, *map(mpmath.mpf, (lo, hi, c, r)))
                    assert abs(got - exact) <= 1e-13 * exact, (lo, hi, c, r)


# Peaks at the end the two cells share.  The outermost Gauss nodes stop
# about 2% of a piece short of its ends, and the pdf underflows to 0 at every
# node of the pieces [c, 0.5] and [0.5, c]: the pdf at their ends must split them.
@pytest.mark.parametrize("d", [truncated_laplace(0.5, 1e-6, 0.0, 1.0),
                               truncated_gauss(0.5, 1e-4, 0.0, 1.0)])
def test_a_peak_between_the_nodes_at_a_cell_end_is_not_lost(d):
    q = uniform_quantizer(Interval(0.0, 1.0), 2)
    with time_limit(10.0):
        got = distortion(q, d, 2.0)
    cells = [(0.0, 0.5, 0.25), (0.5, 1.0, 0.75)]
    assert _cell_sums(d._moment_terms(*zip(*cells), 2.0)).tolist() == [
        reference.moment(d, lo, hi, c, 2.0) for lo, hi, c in cells]
    with mpmath.workdps(50):
        pdf, kinks = _mp_pdf(d, cuts=[0.5])
        exact = mpmath.fsum(_mp_moment(pdf, kinks, *map(mpmath.mpf, (lo, hi, c, 2.0)))
                            for lo, hi, c in cells)
        assert abs(got - exact) <= MP_REL_TOL * exact


@pytest.mark.parametrize("cell", [(0.35, 0.44999999999999996, 0.45),
                                  (math.nextafter(0.45, 1.0), 0.55, 0.45)],
                         ids=["past hi", "before lo"])
def test_a_codepoint_a_sliver_past_the_cell_converges(cell):
    # a piece whose codepoint lies one float past an end is taken out to it,
    # with the codepoint at its end, less the sliver: the plain rules would
    # halve towards the codepoint more than DEFAULT_MAX_DEPTH times
    d = SMOOTH["gauss"]
    with time_limit(10.0):
        got = cell_distortion(d, *cell, 1.5)
    assert got == reference.moment(d, *cell, 1.5)
    with mpmath.workdps(50):
        pdf, kinks = _mp_pdf(d)
        exact = _mp_moment(pdf, kinks, *map(mpmath.mpf, (*cell, 1.5)))
        assert abs(got - exact) <= 1e-13 * exact


def _mp_gauss_moment_2(mean, sigma, lo, hi, a, b, c):
    """Second moment about c of the Gaussian truncated to [lo, hi], over [a, b]
    with a, b >= mean, in closed form: erfc keeps the far tail's digits."""
    s, root = mpmath.mpf(sigma), mpmath.sqrt(2)

    def raw(x):  # an antiderivative of (x - c)**2 exp(-(x - mean)**2 / (2 s**2))
        y = x - mean
        tail = -s * mpmath.sqrt(mpmath.pi / 2) * mpmath.erfc(y / (s * root))
        return -s**2 * mpmath.exp(-y**2 / (2 * s**2)) * (y - 2 * (c - mean)) + (
            s**2 + (c - mean) ** 2) * tail

    mass = s * mpmath.sqrt(mpmath.pi / 2) * (mpmath.erf((hi - mean) / (s * root))
                                            - mpmath.erf((lo - mean) / (s * root)))
    return (raw(b) - raw(a)) / mass


def test_the_mpmath_reference_keeps_tiny_moments_relative():
    # a single mpmath.quad over [0.25, 0.375, 0.5] read 4.7602e-140 here
    d = truncated_gauss(0.0, 0.01, -1.0, 1.0)
    with mpmath.workdps(50):
        args = [mpmath.mpf(v) for v in (0.25, 0.5, 0.375)]
        exact = _mp_gauss_moment_2(0, 0.01, -1, 1, *args)
        assert mpmath.nstr(exact, 5) == "4.7457e-140"
        pdf, kinks = _mp_pdf(d, cuts=[0.0])
        assert abs(_mp_moment(pdf, kinks, *args, 2) - exact) <= 1e-30 * exact


def test_a_moment_below_the_normal_range_stops_at_an_absolute_floor():
    # the pdf falls from 1.6e-304 at c = 0.375 by a factor e per 2.7e-4, so
    # the piece [c, 0.5] holds about 6.5e-315: its two rules can agree only
    # to DEFAULT_REL_TOL of the smallest normal float, not of themselves
    d = truncated_gauss(0.0, 0.01, -1.0, 1.0)
    with time_limit(10.0):
        got = d._moment_terms([0.25], [0.5], [0.375], 2.0)[0, 0]
        (piece,) = moments_many(d._pdf_many, [0.375], [0.5], [0.375], 2.0).tolist()
    assert got == reference.moment(d, 0.25, 0.5, 0.375, 2.0)
    assert piece == reference.moment(d, 0.375, 0.5, 0.375, 2.0)
    with mpmath.workdps(50):
        pdf, kinks = _mp_pdf(d, cuts=[0.0])
        exact = _mp_moment(pdf, kinks, *map(mpmath.mpf, (0.25, 0.5, 0.375, 2.0)))
        assert abs(got - exact) <= 1e-13 * exact
        exact = _mp_moment(pdf, kinks, *map(mpmath.mpf, (0.375, 0.5, 0.375, 2.0)))
        assert 0.0 < piece and abs(piece - exact) <= 100 * DEFAULT_REL_TOL * sys.float_info.min


# The golden sweeps' r = 1.5 quantizers (tests/test_cli.py): order, and each
# level count with how far the distortion came from the sum of 50-digit
# mpmath cell moments (as in ``_mp_moment``) on the quantizer built before
# the Gauss rules took the cdf, which bounds that distance on the quantizer
# built now.
GOLDEN_DISTORTIONS = {
    "laplace": (-2.0, [(3, 7.181103665279114e-16), (16, 7.521989122249072e-17),
                       (64, 9.460681956365654e-18)]),
    "gauss": (0.5, [(4, 1.5177216293103918e-15), (16, 7.558397069939862e-17),
                    (64, 9.448082074284302e-18), (256, 1.1886370660323777e-18)]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DISTORTIONS))
def test_one_walk_gives_the_bits_of_the_two_calls_on_the_golden_quantizers(name):
    d = SMOOTH[name]
    alpha, cases = GOLDEN_DISTORTIONS[name]
    compander = Compander(optimal_point_density(d, alpha, 1.5))
    for n, _ in cases:
        q = compander.build(n)
        masses, total = quantizer._masses_and_distortion(q, d, 1.5)
        assert masses.tolist() == cell_masses(q, d).tolist()
        assert total == distortion(q, d, 1.5)


PAST_THE_END = 1.0 + 1e-13  # past the span's end, inside the cover check's tolerance


@pytest.mark.parametrize("q, d, r", [
    (IntervalQuantizer([0.0, 0.5], [0.25]), uniform(0.0, 1.0), 2.0),
    (IntervalQuantizer([0.0, 1.0], [0.5]),
     PiecewiseConstantDensity([PAST_THE_END, PAST_THE_END + 1e-13],
                              [1.0 / ((PAST_THE_END + 1e-13) - PAST_THE_END)]),
     2.0),
    (IntervalQuantizer([0.0, 1e3], [0.0]), PiecewiseConstantDensity([0.0, 1e3], [1e-3]), 200.0),
    (IntervalQuantizer([-500.0, 500.0], [0.0]), truncated_gauss(0.0, 100.0, -500.0, 500.0),
     200.0),
], ids=["uncovered", "zero mass", "piecewise overflow", "smooth overflow"])
def test_one_walk_raises_what_the_two_calls_raise(q, d, r):
    with pytest.raises(ValueError) as two:
        cell_masses(q, d)
        distortion(q, d, r)
    with pytest.raises(ValueError) as one:
        quantizer._masses_and_distortion(q, d, r)
    assert str(one.value) == str(two.value)


@pytest.mark.parametrize("name", sorted(GOLDEN_DISTORTIONS))
def test_golden_distortions_come_no_farther_from_mpmath(name):
    d = SMOOTH[name]
    alpha, cases = GOLDEN_DISTORTIONS[name]
    compander = Compander(optimal_point_density(d, alpha, 1.5))
    with mpmath.workdps(50):
        pdf, kinks = _mp_pdf(d)
        for n, before in cases:
            q = compander.build(n)
            cells = zip(q.boundaries[:-1].tolist(), q.boundaries[1:].tolist(),
                        q.codepoints.tolist())
            exact = mpmath.fsum(_mp_moment(pdf, kinks, *map(mpmath.mpf, (s, t, c, 1.5)))
                                for s, t, c in cells)
            assert abs(distortion(q, d, 1.5) - exact) <= before


def test_codepoint_pieces_take_few_integrand_points():
    # the Laplace source of the smooth benchmark sweep at seed 3, at its
    # largest level count: every piece takes its two Gauss rules, 12 pdf
    # values, and no piece halves.  The counts before the Gauss rules, by
    # the same count, are in the comments.
    f = truncated_laplace(0.482382, 0.382403, 0.0, 1.0)
    q = Compander(optimal_point_density(f, -2.0, 1.5)).build(1024)
    # from here on, count the pdf values of every smooth moment and cdf
    count = [0]

    def counting(d):
        many = d._pdf_many

        def counted(x):
            count[0] += len(x)
            return many(x)

        d._pdf_many = counted

    counting(f)
    distortion(q, f, 1.5)
    assert count[0] == 24_636  # 2053 pieces; 161,005 before
    d = truncated_gauss(0.45, 0.3, 0.0, 1.0)
    counting(d)
    # 12 a piece: 4 pieces for the balances at the cell's ends and midpoint,
    # 4 for the pair of each search step, and 2 for each midpoint the
    # bisection evaluates; no cdf checks the cell's mass.
    # Bisection alone took 44 steps of 2 pieces, 1066 values (26,762,
    # 24,754, 5698 and 10,262 before the Gauss rules).
    for r, pieces in ((1.1, 20), (1.5, 20), (2.0, 8), (3.0, 26)):
        count[0] = 0
        optimal_codepoint(Interval(0.2, 0.3), d, r)
        assert count[0] == 12 * pieces < 1066


@pytest.mark.parametrize("d", [PiecewiseConstantDensity([0.0, 0.3, 1.0], [0.5, 8.5 / 7.0]),
                               SMOOTH["gauss"]], ids=["piecewise", "gauss"])
def test_no_cells_give_empty_terms_and_codepoints(d):
    none = np.zeros(0)
    with time_limit(10.0):
        terms = d._moment_terms(none, none, none, 2.0)
        points = quantizer._optimal_codepoints(d, none, none, 2.0)
    assert terms.shape == (0, 1)
    assert points.shape == (0,)


def _bisected_codepoints(d, lo, hi, r):
    """The reference codepoint solve: plain bisection, one ``_balances`` call a step."""
    return bisect_many(lambda m, k: quantizer._balances(d, lo[k], hi[k], m, r) < 0.0, lo, hi,
                       1e-13 * (hi - lo))


@st.composite
def _codepoint_cells(draw):
    """A density on [0, 1], a batch of cells that carry mass, and an order r in [1, 8]."""
    kind = draw(st.sampled_from(["piecewise", "gauss", "laplace"]))
    if kind == "piecewise":
        widths = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5)))
        heights = np.array(draw(st.lists(st.floats(0.1, 3.0), min_size=len(widths),
                                         max_size=len(widths))))
        bps = np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))
        bps[-1] = 1.0
        d = PiecewiseConstantDensity(bps, heights / float(np.dot(heights, np.diff(bps))))
        kinks = bps[1:-1].tolist()
    else:
        center, scale = draw(st.floats(0.0, 1.0)), draw(st.floats(0.05, 1.0))
        d = (truncated_gauss if kind == "gauss" else truncated_laplace)(center, scale, 0.0, 1.0)
        kinks = [center] if kind == "laplace" and 0.0 < center < 1.0 else []
    cells = []
    for _ in range(draw(st.integers(1, 6))):
        place = draw(st.sampled_from(["straddle", "float", "outside", "inside"]))
        width = draw(st.floats(1e-6, 0.5))
        at = draw(st.floats(0.0, 1.0))
        if place == "straddle":
            # a breakpoint or the Laplace kink, or any point of a Gaussian, inside
            point = draw(st.sampled_from(kinks)) if kinks else at
            lo = point - draw(st.floats(0.01, 0.99)) * width
            hi = lo + width
        elif place == "float":
            # a cell one float wide near 0 carries a subnormal mass, and raises
            lo = max(at, 1e-3)
            hi = float(np.nextafter(lo, np.inf))
        elif place == "outside":
            # past the support's left or right end by part of the width
            lo = -draw(st.floats(0.01, 0.99)) * width if at < 0.5 else 1.0 - draw(
                st.floats(0.01, 0.99)) * width
            hi = lo + width
        else:
            lo = at * (1.0 - width)
            hi = lo + width
        if hi > lo and d.cdf(hi) - d.cdf(lo) > 0.0:
            cells.append((lo, hi))
    assume(cells)
    return d, cells, draw(st.floats(1.0, 8.0))


@settings(max_examples=60, deadline=None)
@given(case=_codepoint_cells())
def test_the_codepoint_search_replays_plain_bisection_bit_for_bit(case):
    # the search only narrows each bracket; the bisection it replays takes its
    # midpoints, and so its result, from the balance alone
    d, cells, r = case
    lo, hi = (np.array(v) for v in zip(*cells))
    assert quantizer._optimal_codepoints(d, lo, hi, r).tolist() == (
        _bisected_codepoints(d, lo, hi, r).tolist())


def test_a_cell_whose_balances_underflow_raises():
    # N(0, 1) near -38 has a pdf of about 1e-314: the balances of the cell
    # [-39, -38] are subnormal, and bisecting them gave -38.02611923046484
    # where the 50-digit root is -38.02627946657587, 1.6e-4 of the width off
    d = truncated_gauss(0.0, 1.0, -40.0, 40.0)
    with pytest.raises(ValueError, match=r"cell \[-39.0, -38.0\] is not a normal float"):
        optimal_codepoint(Interval(-39.0, -38.0), d, 2.0)
    with pytest.raises(ValueError, match="not a normal float"):
        improve_codepoints(uniform_quantizer(Interval(-40.0, 40.0), 80), d, 2.0)
    # one cell in, the balances are normal: the conditional mean, by mpmath at 50 digits
    assert abs(optimal_codepoint(Interval(-38.0, -37.0), d, 2.0) + 37.02698768612699) <= 1e-13


def test_a_quantizer_without_levels_or_codepoints_is_refused():
    with pytest.raises(ValueError, match="need at least one level, got 0"):
        uniform_quantizer(Interval(0.0, 1.0), 0)
    with pytest.raises(ValueError, match="malformed quantizer object: 'codepoints'"):
        IntervalQuantizer.from_json({"boundaries": [0.0, 1.0]})


def test_a_distortion_below_the_normal_floats_raises():
    # the true value, (1e-150 / 8)**2 / 12 = 1.30e-303, is a normal float,
    # but |x - c|**3 at every cut underflows, and the sum read 0.0
    q, d = uniform_quantizer(Interval(0.0, 1e-150), 8), uniform(0.0, 1e-150)
    for call in (distortion, quantizer._masses_and_distortion):
        with pytest.raises(ValueError, match="^the distortion 0.0 is not a positive normal float"):
            call(q, d, 2.0)

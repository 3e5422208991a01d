import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from renyiquant._quadrature import bisect_increasing
from renyiquant.quantizer import _codepoint_balances, _smooth_moments

import reference_quadrature as reference

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


def test_quantize_maps_to_cell_indices():
    q = uniform_quantizer(Interval(0.0, 1.0), 4)
    assert q.quantize(0.0) == 0          # first cell is closed on the left
    assert q.quantize(0.25) == 0         # boundaries belong to the lower cell
    assert q.quantize(0.26) == 1
    assert q.quantize(1.0) == 3
    with pytest.raises(ValueError):
        q.quantize(1.5)


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
    left = right = 0.0
    for s, t, h in _reference_pieces(d, lo, a) if a > lo else []:
        if h > 0.0:
            left += h * ((a - s) ** r - (a - t) ** r) / r
    for s, t, h in _reference_pieces(d, a, hi) if hi > a else []:
        if h > 0.0:
            right += h * ((t - a) ** r - (s - a) ** r) / r
    return left - right


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
            assert _codepoint_balances(d, [lo], [hi], [a], r)[0] == _reference_balance(
                d, lo, hi, float(a), r)
        c = optimal_codepoint(Interval(lo, hi), d, r)
        assert c == bisect_increasing(lambda a: _reference_balance(d, lo, hi, a, r), lo, hi,
                                      tol=1e-13 * (hi - lo))
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
    # reaching past the support.  That one takes r = 1 and points left of its
    # middle: a piece from the point to past the support, 0 at all three root
    # samples, gets a tolerance of rel_tol * 1e-12 and refines almost forever.
    cells = [(0.3, 0.6), tuple(np.sort(rng.uniform(0.5, 1.0, 2))), (0.0, 0.35), (0.9, 1.02)]
    for (lo, hi), r in zip(cells, (2.0, 3.0, 1.5, 1.0)):
        lo, hi = float(lo), float(hi)
        for a in rng.uniform(lo, hi, 3).tolist() + [lo, hi]:
            m = _smooth_moments(d, [lo, a], [a, hi], [a, a], r - 1.0)
            assert m[0] - m[1] == reference.balance(d, lo, hi, a, r)
        for point in (lo + 0.1 * (hi - lo), 0.5 * (lo + hi), 0.45):
            assert cell_distortion(d, lo, hi, point, r) == reference.moment(d, lo, hi, point, r)
    # the whole bisection, where |x - a|**(r - 1) stays smooth at a
    lo, hi = 0.3, 0.6
    c = optimal_codepoint(Interval(lo, hi), d, 3.0)
    assert c == bisect_increasing(lambda a: reference.balance(d, lo, hi, a, 3.0), lo, hi,
                                  tol=1e-13 * (hi - lo))


def test_an_overflowing_smooth_moment_raises():
    d = truncated_gauss(0.0, 100.0, -500.0, 500.0)
    with pytest.raises(ValueError, match="overflows"):
        cell_distortion(d, -500.0, 500.0, 0.0, 200.0)

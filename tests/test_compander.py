import math

import numpy as np
import pytest

from renyiquant import (
    Compander,
    NEG_INF,
    POS_INF,
    PiecewiseConstantDensity,
    RenyiOrder,
    SmoothDensity,
    bennett_functional,
    compressed_density,
    entropy_offset,
    relative_entropy,
    truncated_gauss,
    uniform,
)
from renyiquant._quadrature import scan_extremum
from renyiquant.design import optimal_point_density
from renyiquant.quantizer import IntervalQuantizer

ORDERS = (NEG_INF, RenyiOrder(-2.0), RenyiOrder(0.0), RenyiOrder(0.5),
          RenyiOrder(1.0), RenyiOrder(2.0), POS_INF)


def test_build_places_quantile_boundaries():
    comp = Compander(uniform(0.0, 2.0))
    q = comp.build(4)
    assert np.allclose(q.boundaries, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.allclose(q.codepoints, [0.25, 0.75, 1.25, 1.75])


def test_compress_expand_round_trip(two_mass):
    comp = Compander(two_mass)
    for x in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert comp.expand(comp.compress(x)) == pytest.approx(x, abs=1e-12)
    assert comp.compress(0.5) == 0.25


def test_compander_requires_positive_floor():
    ramp = SmoothDensity(lambda x: 2.0 * x, 0.0, 1.0)
    with pytest.raises(ValueError):
        Compander(ramp)


def test_the_inverse_check_looks_inside_table_cells(monkeypatch):
    # an expander that ignores where u falls inside its table cell inverts
    # the compressor exactly on the table edges, and the check must refuse it
    def cell_left_edges(self, us):
        j = np.minimum(np.searchsorted(self._cum, us, side="right") - 1, len(self._edges) - 2)
        return np.where(us >= 1.0, self.support.hi, self._edges[j])

    g = truncated_gauss(0.45, 0.3, 0.0, 1.0)
    Compander(g)
    monkeypatch.setattr(SmoothDensity, "_invert", cell_left_edges)
    with pytest.raises(ValueError, match="fails to invert"):
        Compander(g)


def test_midpoint_variant_uses_cell_midpoints(two_mass):
    comp = Compander(two_mass)
    q = comp.midpoint_variant(8)
    mids = (np.asarray(q.boundaries)[:-1] + np.asarray(q.boundaries)[1:]) / 2.0
    assert np.allclose(q.codepoints, mids)


@pytest.mark.parametrize("r, expected", [
    (1.0, 0.25),
    (2.0, 0.083333333333333329),
    (3.0, 0.03125),
])
def test_bennett_functional_self_reference(r, expected):
    u = uniform(0.0, 1.0)
    assert bennett_functional(u, u, r) == pytest.approx(expected, rel=1e-14)


def test_bennett_functional_frozen_values(two_mass):
    assert bennett_functional(two_mass, uniform(0.0, 1.0), 2.0) == pytest.approx(
        0.083333333333333329, rel=1e-14)
    g = PiecewiseConstantDensity([0.0, 0.5, 1.0], [1.25, 0.75])
    assert bennett_functional(uniform(0.0, 1.0), g, 1.0) == pytest.approx(
        0.26666666666666666, rel=1e-14)


def test_entropy_offset_is_negated_divergence(two_mass):
    g = PiecewiseConstantDensity([0.0, 0.5, 1.0], [1.25, 0.75])
    for alpha in ORDERS:
        assert entropy_offset(two_mass, g, alpha) == pytest.approx(
            -relative_entropy(two_mass, g, alpha), abs=1e-14)


def test_compressed_density_of_uniform_pair():
    comp = compressed_density(uniform(0.0, 1.0), uniform(0.0, 2.0))
    assert isinstance(comp, PiecewiseConstantDensity)
    assert np.allclose(comp.breakpoints, [0.0, 0.5])
    assert np.allclose(comp.heights, [2.0])


def test_compressed_density_matches_pushed_forward_mass(two_mass):
    g = PiecewiseConstantDensity([0.0, 0.25, 1.0], [1.6, 0.8])
    comp = compressed_density(two_mass, g)
    expander = Compander(g)
    for y in (0.1, 0.4, 0.5, 0.8):
        assert comp.cdf(y) == pytest.approx(two_mass.cdf(expander.expand(y)),
                                            abs=1e-12)


def test_compressed_density_smooth_path():
    tg = truncated_gauss(0.5, 0.4, 0.0, 1.0)
    comp = compressed_density(tg, uniform(0.0, 1.0))
    # a uniform point density leaves the source unchanged
    for y in (0.2, 0.5, 0.8):
        assert comp.cdf(y) == pytest.approx(tg.cdf(y), abs=1e-6)
    assert comp.power_integral(1.0) == pytest.approx(1.0, abs=1e-6)


SOURCE = truncated_gauss(0.45, 0.3, 0.0, 1.0)


@pytest.mark.parametrize("f, g", [
    (SOURCE, optimal_point_density(SOURCE, 0.5, 2.0)),
    (PiecewiseConstantDensity([0.0, 0.3, 1.0], [0.5, 8.5 / 7.0]), SOURCE),
    (SOURCE, PiecewiseConstantDensity([0.0, 0.4, 1.0], [0.75, 7.0 / 6.0])),
], ids=["smooth_pair", "piecewise_source", "piecewise_point_density"])
def test_compressed_density_is_the_per_point_scalar_form(f, g):
    comp = compressed_density(f, g)
    ys = np.linspace(comp.support.lo, comp.support.hi, 51)
    xs = [g.quantile(y) for y in ys.tolist()]
    expected = [f.pdf(x) / g.pdf(x) for x in xs]
    assert comp._pdf_many(ys).tolist() == expected
    # the essential bounds come from the 2048-point ratio scan in x-space
    grid = np.linspace(f.support.lo, f.support.hi, 2048)
    ratio = lambda x: f.pdf(x) / g.pdf(x)
    vals = np.array([ratio(x) for x in grid.tolist()])
    assert comp.ess_bounds() == (scan_extremum(ratio, grid, vals, False),
                                 scan_extremum(ratio, grid, vals, True))


def _per_point_build(point_density, n):
    # one scalar expander call per boundary i/n and per codepoint (2i-1)/(2n)
    bounds = [point_density.quantile(i / n) for i in range(n + 1)]
    points = [point_density.quantile((2 * i - 1) / (2 * n)) for i in range(1, n + 1)]
    return IntervalQuantizer(np.array(bounds), np.array(points))


def _per_fraction_build(point_density, n):
    # _per_point_build with one array expander call for the boundaries i/n
    # and one for the codepoints (2i-1)/(2n): a scalar call per point takes
    # minutes at 65536 smooth levels
    i = np.arange(n + 1)
    return IntervalQuantizer(point_density.quantile(i / n),
                             point_density.quantile((2 * i[1:] - 1) / (2 * n)))


@pytest.mark.parametrize("point_density", [
    PiecewiseConstantDensity([0.0, 0.1, 0.35, 0.5, 1.0], [0.5, 1.6, 0.8, 0.86]),
    truncated_gauss(0.4, 0.3, 0.0, 1.0),
], ids=["piecewise", "smooth"])
def test_build_equals_the_per_point_loop(point_density, monkeypatch):
    comp = Compander(point_density)
    asked = []
    real = type(point_density).quantile

    def counted(self, u):
        asked[-1].extend(np.atleast_1d(u).tolist())
        return real(self, u)

    # 64, then nested 16, non-nested 24, the coarsest 1, and 64 again
    for n in (64, 16, 24, 1, 64):
        asked.append([])
        monkeypatch.setattr(type(point_density), "quantile", counted)
        q = comp.build(n)
        monkeypatch.undo()
        expected = _per_point_build(point_density, n)
        assert q.boundaries.tolist() == expected.boundaries.tolist()
        assert q.codepoints.tolist() == expected.codepoints.tolist()
    # only the previous grid is kept: 16 needs nothing beyond 64's 129 arguments,
    # 24 shares the 17 multiples of 1/16 with 16, 1 needs nothing beyond 24, and
    # 64 again shares only 0, 1/2 and 1 with 1
    assert [len(a) for a in asked] == [129, 0, 32, 0, 126]
    assert all(len(a) == len(set(a)) for a in asked)

    # the benchmark sweep's levels (1024 shares 64's grid), then counts that are
    # not nested in the previous one: gcd(3000, 65536) = 8, gcd(1536, 3000) = 24,
    # and 65536 after 1
    last = 64
    for n in (1024, 2048, 4096, 8192, 16384, 32768, 65536, 3000, 1536, 1, 65536):
        asked.append([])
        monkeypatch.setattr(type(point_density), "quantile", counted)
        q = comp.build(n)
        monkeypatch.undo()
        expected = _per_fraction_build(point_density, n)
        assert q.boundaries.tolist() == expected.boundaries.tolist()
        assert q.codepoints.tolist() == expected.codepoints.tolist()
        # exactly the arguments of this grid that the previous one lacks
        lacks = set((np.arange(2 * n + 1) / (2 * n)).tolist()).difference(
            (np.arange(2 * last + 1) / (2 * last)).tolist())
        assert sorted(asked[-1]) == sorted(lacks)
        last = n
    assert [len(a) for a in asked[5:]] == [1920, 2048, 4096, 8192, 16384, 32768, 65536,
                                           5984, 3024, 0, 131070]


def test_a_bennett_integral_past_the_float_range_raises_value_error(two_mass):
    # g's second height to the power 2 underflows to 0: f / g**2 is not finite
    # there (this raised ZeroDivisionError)
    g = PiecewiseConstantDensity([0.0, 0.5, 1.0], [2.0, 1e-200])
    with pytest.raises(ValueError,
                       match=r"^the Bennett integral at r = 2.0 leaves the float range$"):
        bennett_functional(two_mass, g, 2.0)

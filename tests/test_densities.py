import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from renyiquant import (
    Interval,
    PiecewiseConstantDensity,
    density_from_spec,
    density_to_spec,
    truncated_gauss,
    truncated_laplace,
    uniform,
)
from renyiquant.densities import _pair_integral, require_nested_supports


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
    from renyiquant import SmoothDensity

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

"""Objects the library derives from checked ones skip only the checks their
inputs guarantee (``PiecewiseConstantDensity._derived`` and
``IntervalQuantizer._derived``).  Each derived path must build what the
checked constructor builds from the same arrays, and reject what it rejects,
with the same message."""

import math
import re

import numpy as np
import pytest

from renyiquant import (
    Interval,
    IntervalQuantizer,
    PiecewiseConstantDensity,
    RenyiOrder,
    optimal_point_density,
    uniform,
    uniform_quantizer,
)
from renyiquant.compander import Compander
from renyiquant.mixture import MixtureComponent, MixtureSpec, compose
from renyiquant.quantizer import transform_quantizer


def _same_density(got, twin):
    for name in ("breakpoints", "heights", "_lens", "_cum", "_padded"):
        a, b = getattr(got, name), getattr(twin, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    for d in (got, twin):
        assert d.breakpoints.flags.c_contiguous and d.heights.flags.c_contiguous
        assert not (d.breakpoints.flags.writeable or d.heights.flags.writeable)
    assert got.support == twin.support


def _same_quantizer(got, twin):
    for name in ("boundaries", "codepoints"):
        a, b = getattr(got, name), getattr(twin, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert a.flags.c_contiguous and not a.flags.writeable


def _same_rejection(derived, checked):
    """Both calls raise ValueError with one message; numpy's overflow
    warnings, which both paths give alike, are not the point here."""
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError) as twin:
            checked()
        with pytest.raises(ValueError, match=f"^{re.escape(str(twin.value))}$"):
            derived()


STEPPED = PiecewiseConstantDensity([0.0, 0.25, 1.0], [1.6, 0.8])


@pytest.mark.parametrize("c, t", [(2.5, -1.0), (1e300, 0.5), (1e-300, 0.0), (3.0, 1e10)])
@pytest.mark.parametrize("reflect", [False, True])
def test_similarity_transform_builds_its_checked_twin(c, t, reflect):
    step = -1 if reflect else 1
    twin = PiecewiseConstantDensity((t + step * c * STEPPED.breakpoints)[::step],
                                    (STEPPED.heights / c)[::step])
    _same_density(STEPPED.similarity_transform(c, t, reflect), twin)


@pytest.mark.parametrize("f, c, t", [
    (STEPPED, 1e-320, 0.5),  # the heights overflow
    (STEPPED, 1e-300, 0.5),  # the breakpoints collapse onto 0.5
    (uniform(0.0, 1e10), 1e300, 0.0),  # the far end overflows
    (PiecewiseConstantDensity([0.0, 1.0, 2.0], [1.0 - 1e-300, 1e-300]), 1e30, 0.0),  # 1e-330 is 0
])
@pytest.mark.parametrize("reflect", [False, True])
def test_similarity_transform_rejects_what_the_constructor_rejects(f, c, t, reflect):
    step = -1 if reflect else 1
    _same_rejection(
        lambda: f.similarity_transform(c, t, reflect),
        lambda: PiecewiseConstantDensity((t + step * c * f.breakpoints)[::step],
                                         (f.heights / c)[::step]))


@pytest.mark.parametrize("f, alpha", [
    (STEPPED, RenyiOrder(0.5)),
    (STEPPED, RenyiOrder(-2.0)),
    # heights near 1000 to the power -199 underflow: normalized in logs
    (PiecewiseConstantDensity([0.0, 5e-4, 1e-3], [999.5, 1000.5]), RenyiOrder(2.99)),
])
def test_power_density_builds_its_checked_twin(f, alpha):
    g = optimal_point_density(f, alpha, 2.0)
    _same_density(g, PiecewiseConstantDensity(f.breakpoints, np.array(g.heights)))
    assert g.breakpoints is f.breakpoints


def _spec(*parts):
    return MixtureSpec([MixtureComponent(w, d) for w, d in parts])


def test_combined_density_builds_its_checked_twin():
    spec = _spec((0.3, STEPPED), (0.7, PiecewiseConstantDensity([1.0, 1.5, 3.0], [0.4, 0.8 / 1.5])))
    got = spec.combined_density()
    h = np.array([0.3 * 1.6, 0.3 * 0.8, 0.7 * 0.4, 0.7 * (0.8 / 1.5)])
    b = np.array([0.0, 0.25, 1.0, 1.5, 3.0])
    _same_density(got, PiecewiseConstantDensity(b, h / float(np.dot(h, np.diff(b)))))


def test_combined_density_rejects_heights_that_underflow():
    # 5e-324 * 0.5 rounds to 0: the first component's height vanishes
    spec = _spec((5e-324, uniform(0.0, 2.0)), (1.0, uniform(2.0, 3.0)))
    h = np.array([5e-324 * 0.5, 1.0])
    b = np.array([0.0, 2.0, 3.0])
    _same_rejection(spec.combined_density,
                    lambda: PiecewiseConstantDensity(b, h / float(np.dot(h, np.diff(b)))))


@pytest.mark.parametrize("interval, n", [(Interval(0.0, 1.0), 7), (Interval(-3.0, 1e-3), 64),
                                         (Interval(1e300, 1.5e300), 3)])
def test_uniform_quantizer_builds_its_checked_twin(interval, n):
    got = uniform_quantizer(interval, n)
    b = interval.lo + (interval.width / n) * np.arange(n + 1)
    b[-1] = interval.hi
    _same_quantizer(got, IntervalQuantizer(b, 0.5 * (b[:-1] + b[1:])))


@pytest.mark.parametrize("interval, n", [
    (Interval(1e308, 1.7e308), 2),  # the midpoints overflow
    (Interval(1.0, 1.0 + 4.4e-16), 4),  # the boundaries collapse
])
def test_uniform_quantizer_rejects_what_the_constructor_rejects(interval, n):
    def checked():
        b = interval.lo + (interval.width / n) * np.arange(n + 1)
        b[-1] = interval.hi
        return IntervalQuantizer(b, 0.5 * (b[:-1] + b[1:]))

    _same_rejection(lambda: uniform_quantizer(interval, n), checked)


BASE = IntervalQuantizer([0.0, 0.1, 0.45, 1.0], [0.0, 0.3, 1.0])


@pytest.mark.parametrize("c, t", [(2.5, -1.0), (1e300, 0.5), (1e-300, 0.0), (3.0, 1e10)])
def test_transform_quantizer_builds_its_checked_twin(c, t):
    got = transform_quantizer(BASE, c, t)
    _same_quantizer(got, IntervalQuantizer(c * BASE.boundaries + t, c * BASE.codepoints + t))


@pytest.mark.parametrize("q, c, t", [
    (BASE, 1e-320, 0.5),  # collapse onto 0.5
    (BASE, 1e-300, 1.0),
    (uniform_quantizer(Interval(0.0, 1e10), 3), 1e300, 0.0),  # the far end overflows
    (BASE, math.inf, 0.0),
])
def test_transform_quantizer_rejects_what_the_constructor_rejects(q, c, t):
    _same_rejection(lambda: transform_quantizer(q, c, t),
                    lambda: IntervalQuantizer(c * q.boundaries + t, c * q.codepoints + t))


def _joined(parts):
    bounds = [parts[0].boundaries] + [q.boundaries[1:] for q in parts[1:]]
    return np.concatenate(bounds), np.concatenate([q.codepoints for q in parts])


def test_compose_snaps_a_codepoint_of_parts_that_overlap_within_tolerance():
    spec = _spec((0.5, uniform(0.0, 1.0)), (0.5, uniform(1.0, 2.0)))
    # the right part starts 5e-13 early, its first codepoint on that start
    right = IntervalQuantizer([1.0 - 5e-13, 1.5, 2.0], [1.0 - 5e-13, 1.75])
    parts = [uniform_quantizer(Interval(0.0, 1.0), 2), right]
    got = compose(spec, parts)
    _same_quantizer(got, IntervalQuantizer(*_joined(parts)))
    assert got.codepoints[2] == 1.0


@pytest.mark.parametrize("right, message", [
    # a first cell narrower than the overlap: the joined boundaries fall back
    (IntervalQuantizer([1e-4 - 8e-13, 1e-4 - 4e-13, 2e-4], [1e-4 - 6e-13, 1.5e-4]),
     "boundaries must be strictly increasing"),
    # on a span of 2e-4 a codepoint 8e-13 early is past the codepoint tolerance
    (IntervalQuantizer([1e-4 - 8e-13, 1.5e-4, 2e-4], [1e-4 - 8e-13, 1.75e-4]),
     "each codepoint must lie in the closure of its cell"),
])
def test_compose_rejects_what_the_constructor_rejects(right, message):
    spec = _spec((0.5, uniform(0.0, 1e-4)), (0.5, uniform(1e-4, 2e-4)))
    parts = [uniform_quantizer(Interval(0.0, 1e-4), 2), right]
    with pytest.raises(ValueError, match=f"^{message}$"):
        IntervalQuantizer(*_joined(parts))
    _same_rejection(lambda: compose(spec, parts), lambda: IntervalQuantizer(*_joined(parts)))


@pytest.mark.parametrize("g", [STEPPED, uniform(-1.0, 2.0)])
@pytest.mark.parametrize("n", [1, 3, 64])
def test_compander_builds_its_checked_twins(g, n):
    comp = Compander(g)
    xs = g.quantile(np.arange(2 * n + 1) / (2 * n))
    _same_quantizer(comp.build(n), IntervalQuantizer(xs[0::2], xs[1::2]))
    b = xs[0::2]
    _same_quantizer(comp.midpoint_variant(n), IntervalQuantizer(b, 0.5 * (b[:-1] + b[1:])))


def test_midpoint_variant_rejects_midpoints_that_overflow():
    b = np.array([1e308, 1.35e308, 1.7e308])
    comp = Compander(uniform(1e308, 1.7e308))
    _same_rejection(lambda: comp.midpoint_variant(2),
                    lambda: IntervalQuantizer(b, 0.5 * (b[:-1] + b[1:])))

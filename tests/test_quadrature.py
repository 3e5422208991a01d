import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_quadrature as reference
from renyiquant import truncated_gauss, truncated_laplace
from renyiquant._quadrature import BLOCK_INTERVALS, call_each, integrate, integrate_many
from renyiquant.design import optimal_point_density

GAUSS = truncated_gauss(0.4, 0.3, 0.0, 1.0)
LAPLACE = truncated_laplace(0.45, 0.3, 0.0, 1.0)
# the optimal point density of the Laplace source: a pdf that calls a pdf
POWER = optimal_point_density(LAPLACE, -2.0, 1.5)
PDFS = {"gauss": GAUSS.pdf, "laplace": LAPLACE.pdf, "power": POWER.pdf}

unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def _interval(draw):
    a = draw(unit)
    # wide, narrow and very narrow intervals
    width = draw(unit) * draw(st.sampled_from([1.0, 1e-3, 1e-9]))
    return a, a + width


@settings(max_examples=40, deadline=None)
@given(pdf=st.sampled_from(sorted(PDFS)), ends=_interval(), cuts=st.lists(unit, max_size=3),
       rel_tol=st.sampled_from([1e-10, 1e-6, 1e-13]))
def test_integrate_equals_the_recursion(pdf, ends, cuts, rel_tol):
    f = PDFS[pdf]
    a, b = ends
    breaks = [a + c * (b - a) for c in cuts] + [0.45]
    expected = reference.integrate(f, a, b, rel_tol, 40, breaks)
    assert integrate(f, a, b, rel_tol, 40, breaks) == expected


@settings(max_examples=3, deadline=None)
@given(pdf=st.sampled_from(sorted(PDFS)),
       intervals=st.lists(_interval(), min_size=BLOCK_INTERVALS + 1,
                          max_size=2 * BLOCK_INTERVALS + 3),
       scale=st.floats(min_value=0.5, max_value=2.0))
def test_integrate_many_equals_the_recursion_interval_by_interval(pdf, intervals, scale):
    # each interval has its own integrand, and the list spans several blocks
    f = PDFS[pdf]
    a, b = (np.array(col) for col in zip(*intervals))
    weight = scale * (1.0 + np.arange(len(a)))

    def values(x, k):
        return weight[k] * call_each(f, x)

    expected = [reference.integrate(lambda x, w=float(w): w * f(x), lo, hi)
                for lo, hi, w in zip(a.tolist(), b.tolist(), weight)]
    assert integrate_many(values, a, b).tolist() == expected


@settings(max_examples=40, deadline=None)
@given(ends=_interval(), root=unit, max_depth=st.integers(min_value=0, max_value=8))
def test_the_depth_cap_stops_refinement_as_the_recursion_does(ends, root, max_depth):
    a, b = ends
    x0 = a + root * (b - a)
    f = lambda x: math.sqrt(abs(x - x0))
    assert integrate(f, a, b, 1e-14, max_depth) == reference.integrate(f, a, b, 1e-14, max_depth)


def test_the_depth_cap_binds_on_a_square_root():
    f = lambda x: math.sqrt(abs(x - 0.3))
    capped = integrate(f, 0.0, 1.0, 1e-14, 4)
    assert capped == reference.integrate(f, 0.0, 1.0, 1e-14, 4)
    assert capped != integrate(f, 0.0, 1.0, 1e-14, 40)


@pytest.mark.parametrize("f, a, b, breaks", [
    (lambda x: math.inf if x == 0.0 else 1.0, 0.0, 1.0, ()),
    (lambda x: math.nan if x > 0.75 else x, 0.0, 1.0, (0.5,)),
    (lambda x: -math.inf if x == 1.0 else 2.0, 0.0, 1.0, (0.25,)),
])
def test_a_non_finite_integrand_raises_the_same_error(f, a, b, breaks):
    with pytest.raises(ValueError) as expected:
        reference.integrate(f, a, b, breakpoints=breaks)
    with pytest.raises(ValueError) as got:
        integrate(f, a, b, breakpoints=breaks)
    assert str(got.value) == str(expected.value)


def test_integrate_calls_its_integrand_with_python_floats():
    seen = set()

    def f(x):
        seen.add(type(x))
        return math.exp(x)

    expected = reference.integrate(math.exp, 0.0, 1.0, breakpoints=[0.5])
    assert integrate(f, 0, 1, breakpoints=[0.5]) == expected
    assert seen == {float}


def test_integrate_many_gives_zero_on_an_empty_interval():
    # the smooth cdf relies on this at the edges of its table
    out = integrate_many(lambda x, k: call_each(math.exp, x), [0.3, 0.5], [0.3, 0.7])
    assert out.tolist() == [0.0, reference.integrate(math.exp, 0.5, 0.7)]
    assert integrate_many(lambda x, k: x, [], []).shape == (0,)

import contextlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_quadrature as reference
import renyiquant._quadrature as quadrature
from renyiquant import SmoothDensity, truncated_gauss, truncated_laplace
from renyiquant._quadrature import (_DEPTH_LIMIT, DEFAULT_MAX_DEPTH, GAUSS_POINTS, LEVEL_NODES,
                                   PLAIN_POINTS, WORK_BUDGET, bisect_increasing, bisect_many,
                                   call_each, gauss_jacobi, golden_extremum, integrate,
                                   moments_many)
from renyiquant.design import optimal_point_density
from time_limit import time_limit

GAUSS = truncated_gauss(0.4, 0.3, 0.0, 1.0)
LAPLACE = truncated_laplace(0.45, 0.3, 0.0, 1.0)
# the optimal point density of the Laplace source: a pdf that calls a pdf
POWER = optimal_point_density(LAPLACE, -2.0, 1.5)
PDFS = {"gauss": GAUSS.pdf, "laplace": LAPLACE.pdf, "power": POWER.pdf}

unit = st.floats(min_value=0.0, max_value=1.0)


def _each(f):
    """The scalar function f as an integrand: a function of a point array."""
    return lambda xs: call_each(f, xs)


@st.composite
def _interval(draw):
    a = draw(unit)
    # wide, narrow and very narrow intervals
    width = draw(unit) * draw(st.sampled_from([1.0, 1e-3, 1e-9]))
    return a, a + width


def _outcome(call):
    """What a call gives: its value, or the message of its ValueError."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(pdf=st.sampled_from(sorted(PDFS)), ends=_interval(), cuts=st.lists(unit, max_size=3),
       rel_tol=st.sampled_from([1e-10, 1e-6, 1e-13]))
def test_integrate_equals_the_recursion(pdf, ends, cuts, rel_tol):
    # the pdfs jump to 0 past 1, so a piece from 1 halves to the cap and raises
    f = PDFS[pdf]
    a, b = ends
    breaks = [a + c * (b - a) for c in cuts] + [0.45]
    expected = _outcome(lambda: reference.integrate(f, a, b, rel_tol, 40, breaks))
    assert _outcome(lambda: integrate(_each(f), a, b, rel_tol, 40, breaks)) == expected


@settings(max_examples=3, deadline=None)
@given(pdf=st.sampled_from(sorted(PDFS)),
       intervals=st.lists(_interval(), min_size=49, max_size=99),
       scale=st.floats(min_value=0.5, max_value=2.0))
def test_moments_many_at_p0_equals_the_reference_piece_by_piece(pdf, intervals, scale):
    # the list spans several chunks
    f = PDFS[pdf]
    a, b = (np.array(col) for col in zip(*intervals))
    expected = [_outcome(lambda lo=lo, hi=hi: reference.integrate(lambda x: scale * f(x), lo, hi))
                for lo, hi in zip(a.tolist(), b.tolist())]
    with _block_size(48):
        got = _outcome(lambda: moments_many(lambda x: scale * call_each(f, x), a, b, a,
                                            0.0).tolist())
    # a call with a piece that raises names one such piece
    assert got == expected if isinstance(got, list) else got in expected


@settings(max_examples=40, deadline=None)
@given(ends=_interval(), root=unit, max_depth=st.integers(min_value=0, max_value=8))
def test_the_depth_cap_stops_refinement_as_the_recursion_does(ends, root, max_depth):
    # a kink inside the interval that no cut marks: the pieces holding it
    # halve to the cap, and the call raises there or converges first
    a, b = ends
    x0 = a + root * (b - a)
    f = lambda x: math.sqrt(abs(x - x0))
    assert (_outcome(lambda: integrate(_each(f), a, b, 1e-14, max_depth))
            == _outcome(lambda: reference.integrate(f, a, b, 1e-14, max_depth)))


def test_the_depth_cap_binds_on_a_square_root():
    # sqrt(x + 0.3) converges at depth 11 at this tolerance, near x = 0
    f = lambda x: math.sqrt(x + 0.3)
    message = "an integral does not converge on [0.0, 0.0009765625]"
    assert _outcome(lambda: reference.integrate(f, 0.0, 1.0, 1e-14, 10)) == message
    with pytest.raises(ValueError) as capped:
        integrate(_each(f), 0.0, 1.0, 1e-14, 10)
    assert str(capped.value) == message
    expected = reference.integrate(f, 0.0, 1.0, 1e-14, 11)
    assert integrate(_each(f), 0.0, 1.0, 1e-14, 11) == expected
    assert integrate(_each(f), 0.0, 1.0, 1e-14, 40) == expected


def _inverse_root(x):
    # x**-0.5, 0 at 0: 2 on [0, 1]
    return np.where(x > 0.0, 1.0 / np.sqrt(np.where(x > 0.0, x, 1.0)), 0.0)


def test_max_depth_is_bounded_below_the_recursion_limit():
    # the square of x's binary exponent: constant on [2**(e - 1), 2**e), so
    # of the two halves of [0, 2**-k] only the one at 0 splits, and the
    # deepest allowed depth is reached; one more is refused, not a RecursionError
    f = lambda x: np.frexp(x)[1].astype(float) ** 2
    assert _DEPTH_LIMIT == 200
    with pytest.raises(ValueError, match=rf"does not converge on \[0.0, {2.0**-200}\]"):
        integrate(f, 0.0, 1.0, 1e-10, _DEPTH_LIMIT)
    with pytest.raises(ValueError, match="max_depth must be at most 200"):
        integrate(f, 0.0, 1.0, 1e-10, _DEPTH_LIMIT + 1)
    SmoothDensity(GAUSS.pdf, 0.0, 1.0, max_depth=_DEPTH_LIMIT)
    with pytest.raises(ValueError, match="max_depth must be at most 200"):
        SmoothDensity(GAUSS.pdf, 0.0, 1.0, max_depth=_DEPTH_LIMIT + 1)


def test_a_singular_integral_raises_instead_of_truncating():
    # no node lies on 0, so the piece at 0 halves to the cap, where adaptive
    # refinement that truncates returns 1.9999994163689756
    with time_limit(10.0):
        with pytest.raises(ValueError, match=r"converge on \[0.0, 9.094947017729282e-13\]"):
            integrate(_inverse_root, 0.0, 1.0)


def test_a_call_stops_at_its_work_budget():
    # a ripple the rules resolve on pieces about 2**-23 wide: the call would
    # take some 2**24 pieces, while a depth of 40 is far off
    asked = []

    def values(x):
        asked.append(len(x))
        return 1.0 + 1e-6 * np.sin(2.0**20 * x)

    message = f"takes more than {WORK_BUDGET} pdf values a piece"
    with pytest.raises(ValueError, match=message):
        moments_many(values, [0.0], [1.0], [0.0], 0.0)
    # the call that would pass the budget is never made
    assert WORK_BUDGET - 3 * PLAIN_POINTS * LEVEL_NODES < sum(asked) <= WORK_BUDGET
    # a cdf table of 8 cells, whose pdf is called a point at a time
    pdf = lambda x: 1.0 + 1e-6 * math.sin(1e12 * x)
    with time_limit(30.0):
        with pytest.raises(ValueError, match=message):
            SmoothDensity(pdf, 0.0, 1.0, ess_inf=1.0 - 1e-6, ess_sup=1.0 + 1e-6, table_cells=8)


@pytest.mark.parametrize("f, a, b, breaks", [
    (lambda x: math.inf if x < 0.1 else 1.0, 0.0, 1.0, ()),
    (lambda x: math.nan if x > 0.75 else x, 0.0, 1.0, (0.5,)),
    (lambda x: -math.inf if x > 0.9 else 2.0, 0.0, 1.0, (0.25,)),
])
def test_a_non_finite_integrand_raises_the_same_error(f, a, b, breaks):
    with pytest.raises(ValueError) as expected:
        reference.integrate(f, a, b, breakpoints=breaks)
    with pytest.raises(ValueError) as got:
        integrate(_each(f), a, b, breakpoints=breaks)
    assert str(got.value) == str(expected.value)


def test_integrate_refuses_a_reversed_range():
    with pytest.raises(ValueError, match=r"^empty integration range \[1.0, 0.0\]$"):
        integrate(lambda xs: xs, 1.0, 0.0)


def test_moments_many_gives_zero_on_an_empty_piece():
    # the smooth cdf relies on this at the edges of its table
    out = moments_many(_each(math.exp), [0.3, 0.5], [0.3, 0.7], [0.3, 0.5], 0.0)
    assert out.tolist() == [0.0, reference.integrate(math.exp, 0.5, 0.7)]
    assert moments_many(lambda x: x, [], [], [], 0.0).shape == (0,)


@contextlib.contextmanager
def _block_size(n):
    saved = quadrature.LEVEL_NODES
    quadrature.LEVEL_NODES = n
    try:
        yield
    finally:
        quadrature.LEVEL_NODES = saved


@settings(max_examples=20, deadline=None)
@given(intervals=st.lists(_interval(), min_size=1, max_size=12), x0=unit)
def test_the_plain_rule_does_not_depend_on_level_nodes(intervals, x0):
    # each piece halves on its own: LEVEL_NODES only sets which pieces run together
    a, b = (np.array(col) for col in zip(*intervals))
    expected = [reference.integrate(lambda x: math.sqrt(abs(x - x0) + 1e-2), lo, hi)
                for lo, hi in zip(a.tolist(), b.tolist())]
    results = []
    for n in (1, 2, 3, 48, LEVEL_NODES):
        with _block_size(n):
            results.append(moments_many(lambda x: np.sqrt(np.abs(x - x0) + 1e-2), a, b, a,
                                        0.0).tolist())
    assert all(r == results[0] for r in results)
    assert results[0] == expected


def _ripple(x):
    # 1e-6 * sin(1e12 x) keeps the two rules apart on every piece down to
    # widths near 1e-12: a unit piece would halve into about 2**40
    return 1.0 + 1e-6 * np.sin(1e12 * x)


def test_the_plain_rule_holds_a_level_of_pieces_at_a_time():
    # 16 unit pieces: the first chunk of each level goes on down to the depth
    # cap, so the levels past LEVEL_NODES pieces are cut and held a chunk each
    asked = []

    def values(x):
        asked.append(len(x))
        return _ripple(x)

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="an integral does not converge on"):
            moments_many(values, np.arange(16.0), np.arange(1.0, 17.0), np.arange(16.0), 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(asked) <= 3 * PLAIN_POINTS * LEVEL_NODES
    assert peak < 4_000_000  # 3.2 MB; a whole level of 2**20 pieces would be 50 MB an array


@pytest.mark.parametrize("a, b", [
    ([0.0, 1.0], [1.0]),  # one end short
    ([1.0], [0.0]),  # reversed
    ([0.0, math.nan], [1.0, 1.0]),
    ([[0.0]], [[1.0]]),  # not 1-D
    (0.0, 1.0),
])
def test_moments_many_refuses_pieces_that_are_not_ordered_pairs(a, b):
    with pytest.raises(ValueError, match="a <= b"):
        moments_many(lambda x: x * x, a, b, a, 0.0)


@st.composite
def _bracket(draw):
    lo = draw(st.floats(min_value=-10.0, max_value=10.0))
    # open, zero-width and already converged brackets (width <= tol)
    width = draw(st.sampled_from([0.0, 1e-300, 1e-14]) | st.floats(min_value=0.0, max_value=10.0))
    tol = draw(st.sampled_from([0.0, 1e-13, 1e-6, 1.0]))
    # a nondecreasing step function with flat stretches: f(x) = floor(scale * x)
    scale = draw(st.floats(min_value=0.5, max_value=1e3))
    target = draw(st.floats(min_value=-1e4, max_value=1e4))
    return lo, lo + width, tol, scale, target


@settings(max_examples=80, deadline=None)
@given(brackets=st.lists(_bracket(), min_size=1, max_size=8), shared_tol=st.booleans(),
       max_iter=st.sampled_from([0, 1, 5, 40, 200]))
def test_bisect_many_is_one_bisect_increasing_per_bracket(brackets, shared_tol, max_iter):
    # both against the plain scalar loop, bracket by bracket
    lo, hi, tol, scale, target = (np.array(col) for col in zip(*brackets))
    if shared_tol:
        tol = np.full(len(lo), tol[0])
    cases = [(lambda x, s=s: math.floor(s * x), a, b, t, e, max_iter)
             for a, b, e, s, t in zip(*(col.tolist() for col in (lo, hi, tol, scale, target)))]
    expected = [reference.bisect_increasing(*case) for case in cases]
    got = bisect_many(lambda m, k: np.floor(scale[k] * m) < target[k], lo, hi,
                      tol[0] if shared_tol else tol, max_iter)
    assert got.tolist() == expected
    assert [bisect_increasing(*case) for case in cases] == expected


def test_bisect_many_asks_only_for_the_open_brackets():
    asked = []

    def below(m, k):
        asked.append(k.tolist())
        return m < 0.3

    got = bisect_many(below, [0.0, 0.5, 0.0], [1.0, 0.5, 1.0], [1e-3, 1e-3, 1.0], max_iter=3)
    # the zero-width bracket and the one already within its tolerance are never asked
    assert asked == [[0], [0], [0]]
    assert got.tolist() == [0.3125, 0.5, 0.5]


@pytest.mark.parametrize("known", [False, True], ids=["plain", "known"])
def test_bisect_many_on_no_brackets_returns_at_once(known):
    # with nothing open, every bracket has stopped: the loop must end there
    none = np.zeros(0)
    with time_limit(10.0):
        got = bisect_many(lambda m, k: m < 0.5, none, none, 1e-3,
                          known=(none, none) if known else None)
    assert got.shape == (0,)


GAUSS_BETAS = [0.0, 0.5, 1.5, 2.0, 3.9, 200.0]
RULE_SIZES = sorted({PLAIN_POINTS, 2 * PLAIN_POINTS, GAUSS_POINTS, 2 * GAUSS_POINTS})


@pytest.mark.parametrize("beta", GAUSS_BETAS)
@pytest.mark.parametrize("n", RULE_SIZES)
def test_gauss_jacobi_matches_50_digit_jacobi_roots(beta, n):
    # on [-1, 1] the nodes are the roots x of the Jacobi polynomial
    # P_n^(0, beta), and the weights for (1 + x)**beta are
    # 2**(beta + 1) / ((1 - x**2) * P_n'(x)**2); t = (1 + x) / 2 scales
    # them by 2**-(beta + 1)
    nodes, weights = gauss_jacobi(beta, n)
    assert len(nodes) == len(weights) == n and sorted(set(nodes)) == list(nodes)
    with mpmath.workdps(50):
        b = mpmath.mpf(beta)
        for t, w in zip(nodes, weights):
            x = mpmath.findroot(lambda x: mpmath.jacobi(n, 0, b, x), 2 * mpmath.mpf(t) - 1)
            slope = (n + b + 1) / 2 * mpmath.jacobi(n - 1, 1, b + 1, x)
            assert abs((1 + x) / 2 - t) <= 1e-15
            assert abs(1 / ((1 - x * x) * slope**2) - w) <= 1e-15


@pytest.mark.parametrize("beta", GAUSS_BETAS)
@pytest.mark.parametrize("n", RULE_SIZES)
def test_gauss_jacobi_integrates_polynomials_of_degree_below_2n_exactly(beta, n):
    nodes, weights = gauss_jacobi(beta, n)
    with mpmath.workdps(50):
        for j in range(2 * n):
            total = mpmath.fsum(mpmath.mpf(w) * mpmath.mpf(t) ** j
                                for t, w in zip(nodes, weights))
            assert abs(total - 1 / (mpmath.mpf(beta) + j + 1)) <= 1e-15


def test_moments_many_raises_past_the_depth_cap():
    # a jump the pieces do not cut at: the piece holding it never converges
    levels = []

    def step(x):
        levels.append(len(x))
        return np.where(x < 0.3, 1.0, 2.0)

    with pytest.raises(ValueError, match="a cell moment does not converge on"):
        moments_many(step, [0.0], [1.0], [0.0], 1.5)
    assert len(levels) == DEFAULT_MAX_DEPTH + 1


def test_moments_many_takes_a_zero_integrand_at_the_first_level():
    points = []

    def zero(x):
        points.append(len(x))
        return np.zeros(len(x))

    assert moments_many(zero, [0.0, 0.5], [0.5, 2.0], [0.5, 0.5], 1.5).tolist() == [0.0, 0.0]
    # one level of nodes, then the pdf at both ends of each piece, as its sums are 0
    assert points == [2 * 3 * GAUSS_POINTS, 2 * 2]
    # a truncated Gaussian whose pdf underflows to 0 on the whole cell
    d = truncated_gauss(0.0, 0.01, -1.0, 1.0)
    with time_limit(10.0):
        assert d._moment_terms([0.5], [0.9], [0.7], 2.0).tolist() == [[0.0]]


def test_moments_many_holds_each_level_to_level_nodes_pieces():
    # a kink at a quarter of each unit piece: every piece splits, and so do
    # its halves, so the levels hold n, 2n, 4n and 2n pieces
    sizes = []

    def kinked(x):
        sizes.append(len(x))
        return np.abs(x - np.floor(x) - 0.25)

    n = 3 * LEVEL_NODES // 2
    a = np.arange(n, dtype=float)
    got = moments_many(kinked, a, a + 1.0, a, 1.5)
    assert sum(sizes) == 3 * GAUSS_POINTS * 9 * n
    assert max(sizes) <= 3 * GAUSS_POINTS * LEVEL_NODES
    # a piece gets the bits of a call on it alone
    assert got.tolist() == [moments_many(kinked, [k], [k + 1.0], [k], 1.5)[0]
                            for k in a.tolist()]


def test_golden_extremum_ends_when_the_bracket_stops_shrinking():
    # floats near 1e6 lie 1.2e-10 apart, far above the tolerance of 1e-12
    lo = 1e6
    w = (lo + 1e-6) - lo
    with time_limit(10.0):
        x, v = golden_extremum(lambda x: x, lo, math.nextafter(lo, math.inf), maximize=False)
        # the essential bounds are scanned for, and refined by golden_extremum
        d = SmoothDensity(lambda x: (1 + (x - lo) / w) / (1.5 * w), lo, lo + w)
    assert x in (lo, math.nextafter(lo, math.inf)) and v == x
    assert d.ess_bounds() == (d.pdf(lo), d.pdf(lo + w))

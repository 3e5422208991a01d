import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renyiquant import (
    Interval,
    MixtureComponent,
    MixtureSpec,
    NEG_INF,
    POS_INF,
    RenyiOrder,
    allocate_rates,
    allocation_weights,
    check_rate_condition,
    compose,
    composed_entropy,
    distortion,
    exponents,
    f_functional,
    f_minimizer,
    predicted_limit,
    renyi_entropy,
    truncated_gauss,
    uniform,
    uniform_optimal,
    uniform_quantizer,
)

ORDERS = (NEG_INF, RenyiOrder(-2.0), RenyiOrder(0.0), RenyiOrder(0.5),
          RenyiOrder(1.0), RenyiOrder(2.0), POS_INF)


def halves_spec():
    return MixtureSpec([
        MixtureComponent(0.25, uniform(0.0, 0.5)),
        MixtureComponent(0.75, uniform(0.5, 1.0)),
    ])


def test_mixture_validation():
    with pytest.raises(ValueError):
        MixtureSpec([MixtureComponent(1.0, uniform(0.0, 1.0))])
    with pytest.raises(ValueError):
        MixtureSpec([MixtureComponent(0.5, uniform(0.0, 1.0)),
                     MixtureComponent(0.4, uniform(1.0, 2.0))])
    with pytest.raises(ValueError, match="overlapping"):
        MixtureSpec([MixtureComponent(0.5, uniform(0.0, 1.0)),
                     MixtureComponent(0.5, uniform(0.8, 2.0))])
    with pytest.raises(ValueError):
        MixtureComponent(0.0, uniform(0.0, 1.0))


def test_a_mixture_spec_checks_its_weights_as_the_mixture_functions_do():
    # a sum within 1e-9 of 1 passes every weight check, the spec's included
    spec = MixtureSpec([MixtureComponent(0.5, uniform(0.0, 1.0)),
                        MixtureComponent(0.5 + 5e-10, uniform(1.0, 2.0))])
    combined = spec.combined_density()
    mass = float(np.dot(combined.heights, np.diff(combined.breakpoints)))
    assert mass == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="^weights must sum to 1, got 1.000000002"):
        MixtureSpec([MixtureComponent(0.5, uniform(0.0, 1.0)),
                     MixtureComponent(0.5 + 2e-9, uniform(1.0, 2.0))])


@pytest.mark.parametrize("weights", [[0.5, 0.5, 0.0], [0.5, 0.5 + 5e-10, -5e-10]])
def test_mixture_functions_need_positive_weights(weights):
    calls = [
        lambda: allocation_weights(weights, 0.5, 2.0),
        lambda: allocate_rates(weights, 0.5, 2.0, 3.0),
        lambda: check_rate_condition(weights, [1.0, 1.0, 1.0], 1.0, 0.5),
        lambda: composed_entropy(weights, [1.0, 1.0, 1.0], 0.5),
        lambda: f_functional(weights, [1.0, 1.0, 1.0], 2.0),
        lambda: f_minimizer(weights, 0.5, 2.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="weights must be positive"):
            call()
    # the entropy of a mass vector drops those entries instead
    assert renyi_entropy(weights, 0.5) == renyi_entropy(weights[:2], 0.5)


@pytest.mark.parametrize("weights, message", [
    ([0.5, -0.1, 0.6], "weights must be nonnegative"),
    ([0.5, 0.6, 0.0], "weights must sum to 1, got 1.1"),
    ([0.0, 0.0, 0.0], "weights must sum to 1, got 0.0"),
    ([[0.5, 0.25, 0.25]], "weights must be a nonempty 1-d vector"),
    ([0.5, 0.5, 0.0], "weights must be positive"),
])
def test_each_mixture_weight_check_raises_its_message(weights, message):
    calls = [
        lambda: allocation_weights(weights, 0.5, 2.0),
        lambda: check_rate_condition(weights, [1.0, 1.0, 1.0], 1.0, 0.5),
        lambda: composed_entropy(weights, [1.0, 1.0, 1.0], 0.5),
        lambda: f_functional(weights, [1.0, 1.0, 1.0], 2.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{message}"):
            call()


def test_combined_density_scales_heights(two_mass):
    combined = halves_spec().combined_density()
    assert np.allclose(combined.breakpoints, two_mass.breakpoints)
    assert np.allclose(combined.heights, two_mass.heights)


def test_gapped_mixture_is_detected():
    spec = MixtureSpec([MixtureComponent(0.5, uniform(0.0, 1.0)),
                        MixtureComponent(0.5, uniform(1.5, 2.0))])
    assert not spec.is_abutting()
    with pytest.raises(ValueError):
        spec.combined_density()
    with pytest.raises(ValueError, match="gapped"):
        compose(spec, [uniform_quantizer(Interval(0.0, 1.0), 2),
                       uniform_quantizer(Interval(1.5, 2.0), 2)])


def test_a_part_that_does_not_span_its_component_is_refused():
    spec = MixtureSpec([MixtureComponent(0.5, uniform(0.0, 1.0)),
                        MixtureComponent(0.5, uniform(1.0, 2.0))])
    with pytest.raises(ValueError, match=r"^part spanning \[0.0, 0.9\] does not match the "
                                         r"component support \[0.0, 1.0\]$"):
        compose(spec, [uniform_quantizer(Interval(0.0, 0.9), 2),
                       uniform_quantizer(Interval(1.0, 2.0), 2)])


def test_allocation_weights_frozen():
    t = allocation_weights([0.25, 0.75], RenyiOrder(0.5), 2.0)
    assert np.allclose(t, [0.46492398928058182, 0.57917019801629388], rtol=1e-14)


def test_allocate_rates_frozen_and_threshold():
    rates = allocate_rates([0.25, 0.75], RenyiOrder(0.5), 2.0, 3.0)
    assert np.allclose(rates, [2.2341186493308105, 2.4538411070644326], rtol=1e-14)
    with pytest.raises(ValueError):
        allocate_rates([0.25, 0.75], RenyiOrder(0.5), 2.0, 0.0)


@pytest.mark.parametrize("alpha", ORDERS)
def test_composed_entropy_of_equal_halves(alpha):
    # two equal-weight parts, each uniform over two cells: four equal outcomes
    got = composed_entropy([0.5, 0.5], [math.log(2.0), math.log(2.0)], alpha)
    assert got == pytest.approx(math.log(4.0), abs=1e-13)


def test_composed_entropy_rate_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        s = rng.dirichlet(np.ones(k))
        alpha = RenyiOrder(float(rng.uniform(-3.0, 0.9)))
        r = float(rng.choice([1.5, 2.0, 3.0]))
        t = allocation_weights(s, alpha, r)
        rate = 0.5 + max(0.0, float(np.max(-np.log(t))))
        rates = allocate_rates(s, alpha, r, rate)
        assert composed_entropy(s, rates, alpha) == pytest.approx(rate, abs=1e-12)


def test_check_rate_condition():
    assert check_rate_condition([0.5, 0.5], [0.2, 0.2], 1.0, RenyiOrder(0.5))
    assert not check_rate_condition([0.5, 0.5], [1.0, 1.0], 1.0, RenyiOrder(0.5))
    with pytest.raises(ValueError):
        check_rate_condition([0.5, 0.5], [0.2, 0.2], 1.0, RenyiOrder(-1.0))
    with pytest.raises(ValueError):
        check_rate_condition([0.5, 0.5], [0.2, 0.2], 1.0, RenyiOrder(1.0))


def test_compose_concatenates_cells():
    spec = halves_spec()
    parts = [uniform_quantizer(Interval(0.0, 0.5), 2),
             uniform_quantizer(Interval(0.5, 1.0), 3)]
    q = compose(spec, parts)
    assert len(q.codepoints) == 5
    assert np.allclose(q.boundaries, [0.0, 0.25, 0.5, 2.0 / 3.0, 5.0 / 6.0, 1.0])


def test_f_functional_matches_closed_form():
    s = [0.25, 0.75]
    t = f_minimizer(s, RenyiOrder(0.5), 2.0)
    value = f_functional(s, t, 2.0)
    assert value == pytest.approx(3.3924629655896297, rel=1e-13)
    pair = exponents(RenyiOrder(0.5), 2.0)
    closed = float(np.sum(np.asarray(s) ** pair.first)) ** pair.second
    assert value == pytest.approx(closed, rel=1e-13)


@settings(max_examples=60)
@given(
    raw=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=6),
    alpha=st.floats(min_value=-4.0, max_value=0.9),
    r=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_allocation_constraint_identity(raw, alpha, r):
    s = np.asarray(raw)
    s = s / s.sum()
    t = allocation_weights(s, RenyiOrder(alpha), r)
    assert float(np.sum(s ** alpha * t ** (1.0 - alpha))) == pytest.approx(
        1.0, abs=1e-12)


@pytest.mark.parametrize("rate", [math.log(64.0), math.log(128.0)])
def test_composed_uniform_parts_track_the_limit(two_mass, rate):
    # allocating the total rate across the halves and designing each part on
    # its own keeps the scaled distortion within 5% of the predicted limit
    alpha, r = RenyiOrder(0.5), 2.0
    spec = halves_spec()
    rates = allocate_rates(spec.weights, alpha, r, rate)
    parts = [uniform_optimal(c.density.support, alpha, ri, r)
             for c, ri in zip(spec.components, rates)]
    q = compose(spec, parts)
    scaled = math.exp(r * rate) * distortion(q, spec.combined_density(), r)
    assert scaled <= 1.05 * predicted_limit(two_mass, alpha, r).value


def _mp_composed_entropy(s, hs, v):
    with mpmath.workdps(50):
        v = mpmath.mpf(v)
        total = mpmath.fsum(mpmath.mpf(si) ** v * mpmath.exp((1 - v) * mpmath.mpf(hi))
                            for si, hi in zip(s, hs))
        return float(mpmath.log(total) / (1 - v))


@pytest.mark.parametrize("alpha", [500.0, -500.0, 5000.0, -5000.0])
def test_composed_entropy_at_extreme_orders_matches_mpmath(alpha):
    s, hs = [0.3, 0.7], [2.0, 3.0]
    got = composed_entropy(s, hs, RenyiOrder(alpha))
    assert got == pytest.approx(_mp_composed_entropy(s, hs, alpha), rel=1e-13)
    # between the +inf and -inf limits -log max/min s_i e^-H_i
    assert composed_entropy(s, hs, POS_INF) <= got <= composed_entropy(s, hs, NEG_INF)


def _mp_extreme_entropy(s, hs, top):
    # -log of the largest (top) or smallest scaled mass s_i e^-H_i, 50 digits
    with mpmath.workdps(50):
        masses = [mpmath.mpf(si) * mpmath.exp(-mpmath.mpf(hi)) for si, hi in zip(s, hs)]
        return float(-mpmath.log(max(masses) if top else min(masses)))


@pytest.mark.parametrize("s, hs", [
    ([0.5, 0.5], [800.0, 800.0]),
    ([0.3, 0.7], [800.0, 760.0]),
    ([0.3, 0.7], [2.0, 900.0]),
    ([0.2, 0.8], [-800.0, -790.0]),
])
def test_composed_entropy_at_infinite_orders_matches_mpmath(s, hs):
    assert composed_entropy(s, hs, POS_INF) == pytest.approx(_mp_extreme_entropy(s, hs, True),
                                                             rel=1e-14)
    assert composed_entropy(s, hs, NEG_INF) == pytest.approx(_mp_extreme_entropy(s, hs, False),
                                                             rel=1e-14)


def test_composed_entropy_at_infinite_orders_keeps_the_plain_form_where_it_is_normal():
    rng = np.random.default_rng(22)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        s = rng.dirichlet(np.ones(k))
        hs = rng.uniform(0.0, 20.0, k)
        masses = s * np.exp(-hs)
        assert composed_entropy(s, hs, POS_INF) == -math.log(float(masses.max()))
        assert composed_entropy(s, hs, NEG_INF) == -math.log(float(masses.min()))


def test_composed_entropy_keeps_the_plain_sum_where_it_is_normal():
    rng = np.random.default_rng(21)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        s = rng.dirichlet(np.ones(k))
        hs = rng.uniform(0.0, 5.0, size=k)
        v = float(rng.uniform(-5.0, 5.0))
        if abs(v - 1.0) < 1e-3:
            continue
        plain = math.log(float((s**v * np.exp((1.0 - v) * hs)).sum())) / (1.0 - v)
        assert composed_entropy(s, hs, RenyiOrder(v)) == plain


@pytest.mark.parametrize("alpha", ORDERS)
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_composition_rejects_non_finite_entropies_and_rates(alpha, bad):
    with pytest.raises(ValueError, match="entropies must be finite"):
        composed_entropy([0.5, 0.5], [bad, 1.0], alpha)
    if alpha.is_finite and alpha.value >= 0.0 and alpha.value != 1.0:
        with pytest.raises(ValueError, match="rates must be finite"):
            check_rate_condition([0.5, 0.5], [bad, 1.0], 1.0, alpha)


@pytest.mark.parametrize("alpha", [500.0, 5000.0])
def test_check_rate_condition_at_extreme_orders(alpha):
    # for alpha > 1 the budget holds iff the composed entropy is at most the rate
    s, rates = [0.3, 0.7], [2.0, 3.0]
    h = _mp_composed_entropy(s, rates, alpha)
    assert check_rate_condition(s, rates, h * (1.0 + 1e-9), RenyiOrder(alpha))
    assert not check_rate_condition(s, rates, h * (1.0 - 1e-9), RenyiOrder(alpha))


@pytest.mark.parametrize("alpha", [2.999, 2.9999999])
def test_allocation_weights_near_one_plus_r_never_return_nan(alpha):
    # equal weights: t = 1/2 exactly, though each plain factor leaves the float range
    t = allocation_weights([0.5, 0.5], RenyiOrder(alpha), 2.0)
    assert np.allclose(t, [0.5, 0.5], rtol=1e-13, atol=0.0)
    # unequal weights: the larger t_i is far past the largest float
    with pytest.raises(ValueError, match=f"order {alpha}"):
        allocation_weights([0.3, 0.7], RenyiOrder(alpha), 2.0)


def test_allocation_weights_in_logs_match_mpmath():
    # at 2.999 the plain factors overflow and underflow; t_1 is near 6.7e173
    s, alpha, r = [0.45, 0.55], 2.999, 2.0
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        first, second = (1 - a + a * r) / (1 - a + r), (1 - a + r) / (1 - a)
        scale = mpmath.fsum(mpmath.mpf(x) ** first for x in s) ** (-1 / (1 - a))
        ref = [float(mpmath.mpf(x) ** (1 / second) * scale) for x in s]
    assert np.allclose(allocation_weights(s, RenyiOrder(alpha), r), ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("values, message", [
    ([float("nan"), 1.0], "strictly positive"),
    ([0.0, 1.0], "strictly positive"),
    ([1e-200, 1.0], "float range"),
    ([1e200, 1e200], "float range"),
])
def test_f_functional_rejects_values_it_cannot_evaluate(values, message):
    with pytest.raises(ValueError, match=message):
        f_functional([0.3, 0.7], values, 2.0)
    with pytest.raises(ValueError, match=message):
        f_functional([0.3, 0.7], [[1.0, 1.0], values], 2.0)


def test_f_functional_rows_report_the_same_errors():
    for bad in ([1.0, 1.0, 1.0], [1.0, -1.0]):
        with pytest.raises(ValueError) as one:
            f_functional([0.3, 0.7], bad, 2.0)
        with pytest.raises(ValueError) as rows:
            f_functional([0.3, 0.7], [[1.0] * len(bad), bad], 2.0)
        assert str(rows.value) == str(one.value)


@settings(max_examples=60)
@given(
    data=st.data(),
    k=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=20),
    r=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_f_functional_rows_equal_the_one_dimensional_calls(data, k, m, r):
    raw = np.asarray(data.draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    s = raw / raw.sum()
    values = np.asarray(data.draw(st.lists(
        st.lists(st.floats(0.05, 3.0), min_size=k, max_size=k), min_size=m, max_size=m)))
    rows = f_functional(s, values, r)
    assert rows.shape == (m,)
    assert rows.tolist() == [f_functional(s, row, r) for row in values]


# the infinite orders, order 1, and finite orders on both sides of the
# exclusion window around 1 (|alpha - 1| < 1e-9), which both forms reject
NEAR_ORDERS = st.sampled_from([-math.inf, math.inf, 1.0, -2.0, 0.5, 1.0 + 2e-9, 1.0 - 2e-9,
                               1.0 + 1e-6, 1.0 - 1e-6, 1.0 + 5e-10]) | st.floats(-60.0, 60.0)


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    k=st.integers(min_value=1, max_value=6),
    orders=st.lists(NEAR_ORDERS, min_size=1, max_size=8),
    as_tuple=st.booleans(),
)
def test_composed_entropy_of_a_list_of_orders_equals_the_single_calls(data, k, orders, as_tuple):
    raw = np.asarray(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k)))
    s = raw / raw.sum()
    # entropies up to 800 nats, where s_i e**(-H_i) underflows at the infinite orders
    rows = [data.draw(st.lists(st.floats(0.0, 800.0), min_size=k, max_size=k)) for _ in orders]
    singles = [_outcome(lambda: composed_entropy(s, row, a)) for row, a in zip(rows, orders)]
    errors = [x for x in singles if isinstance(x, str)]
    got = _outcome(lambda: composed_entropy(s, rows, tuple(orders) if as_tuple else orders))
    if errors:
        assert got == errors[0]
    else:
        assert isinstance(got, list) and all(type(h) is float for h in got)
        assert [h.hex() for h in got] == [h.hex() for h in singles]


def test_composed_entropy_of_a_list_of_orders_checks_its_shape():
    with pytest.raises(ValueError, match="^need one entropy per weight"):
        composed_entropy([0.5, 0.5], [1.0, 2.0], [RenyiOrder(0.5)])
    with pytest.raises(ValueError, match="^need one entropy per weight"):
        composed_entropy([0.5, 0.5], [[1.0, 2.0]] * 3, [RenyiOrder(0.5), POS_INF])
    with pytest.raises(ValueError, match="^entropies must be finite"):
        composed_entropy([0.5, 0.5], [[1.0, 2.0], [1.0, math.inf]], [RenyiOrder(0.5), POS_INF])


@pytest.mark.parametrize("call, message", [
    (lambda: allocation_weights([0.5, 0.5], math.inf, 2.0), "require a finite order"),
    (lambda: allocation_weights([0.5, 0.5], 1.0, 2.0), "undefined at order 1"),
    (lambda: allocation_weights([0.5, 0.5], 3.5, 2.0), "require order < 1 \\+ r, got 3.5"),
    (lambda: check_rate_condition([0.5, 0.5], [1.0, 1.0, 1.0], 1.0, 0.5),
     "need one rate per weight"),
    (lambda: f_minimizer([0.5, 0.5], 1.5, 2.0), "finite orders below 1"),
    (lambda: compose(halves_spec(), [uniform_quantizer(Interval(0.0, 0.5), 2)]),
     "need exactly one part per component"),
    (lambda: MixtureSpec([MixtureComponent(0.5, truncated_gauss(0.5, 0.2, 0.0, 1.0)),
                          MixtureComponent(0.5, uniform(1.0, 2.0))]).combined_density(),
     "requires piecewise components"),
], ids=["alloc_inf", "alloc_1", "alloc_high", "rate_shape", "minimizer_order", "compose_parts",
        "combined_smooth"])
def test_each_mixture_argument_check_raises_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()

import math

import pytest
from hypothesis import given, strategies as st

from renyiquant import (
    NEG_INF,
    POS_INF,
    SHANNON,
    RenyiOrder,
    as_order,
    distortion_constant,
    exponents,
    parse_order,
)
from renyiquant.core import branch_of, validate_exponent


def test_order_construction_and_flags():
    assert RenyiOrder(0.5).is_finite
    assert NEG_INF.is_neg_inf and not NEG_INF.is_finite
    assert POS_INF.is_pos_inf
    assert SHANNON.is_shannon
    assert RenyiOrder(1.0) == SHANNON


def test_order_rejects_nan():
    with pytest.raises(ValueError):
        RenyiOrder(float("nan"))


def test_order_is_ordered():
    assert NEG_INF < RenyiOrder(-2.0) < RenyiOrder(1.0) < POS_INF


def test_as_order_accepts_numbers_and_orders():
    assert as_order(0.5) == RenyiOrder(0.5)
    assert as_order(RenyiOrder(2.0)).value == 2.0
    assert as_order(float("-inf")).is_neg_inf


@pytest.mark.parametrize("text, value", [
    ("neg_inf", float("-inf")),
    ("pos_inf", float("inf")),
    ("0.5", 0.5),
    ("-2", -2.0),
])
def test_parse_order(text, value):
    assert parse_order(text).value == value


def test_parse_order_rejects_garbage():
    with pytest.raises(ValueError):
        parse_order("huge")


@pytest.mark.parametrize("alpha, branch", [
    (float("-inf"), "neg_inf"),
    (float("inf"), "pos_inf"),
    (1.0, "shannon"),
    (0.999, "finite"),
    (-3.0, "finite"),
])
def test_branch_of(alpha, branch):
    assert branch_of(as_order(alpha)) == branch


@pytest.mark.parametrize("alpha", [1.0 + 1e-10, 1.0 - 1e-10])
def test_branch_of_rejects_the_order_one_window(alpha):
    # orders indistinguishable from 1 must be written as exactly 1
    with pytest.raises(ValueError):
        branch_of(RenyiOrder(alpha))


def test_validate_exponent():
    assert validate_exponent(1.0) == 1.0
    assert validate_exponent(2) == 2.0
    for bad in (0.5, 0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            validate_exponent(bad)


@pytest.mark.parametrize("r, expected", [
    (1.0, 0.25),
    (2.0, 0.083333333333333329),
    (3.0, 0.03125),
])
def test_distortion_constant(r, expected):
    assert distortion_constant(r) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("r", [1020.0, 1100.0])
def test_a_distortion_constant_that_underflows_raises(r):
    # (1 + r) * 2**r overflows to inf at r = 1020, and 2**r raised OverflowError at 1100
    with pytest.raises(ValueError, match=f"^the distortion constant .* underflows at r = {r!r}$"):
        distortion_constant(r)


@pytest.mark.parametrize("alpha, r, first, second", [
    (0.5, 2.0, 0.6, 5.0),
    (-2.0, 2.0, -0.2, 1.6666666666666667),
    (0.0, 2.0, 1.0 / 3.0, 3.0),
    (2.0, 3.0, 2.5, -2.0),
    (float("-inf"), 2.0, -1.0, 1.0),
])
def test_exponent_pairs(alpha, r, first, second):
    pair = exponents(as_order(alpha), r)
    assert pair.first == pytest.approx(first, rel=1e-14)
    assert pair.second == pytest.approx(second, rel=1e-14)


@pytest.mark.parametrize("alpha, r", [
    (1.0, 2.0),            # excluded order
    (float("inf"), 2.0),   # no finite exponent pair
    (3.0, 2.0),            # alpha = 1 + r
    (3.5, 2.0),            # alpha > 1 + r
])
def test_exponents_rejections(alpha, r):
    with pytest.raises(ValueError):
        exponents(as_order(alpha), r)


@given(
    alpha=st.floats(min_value=-50.0, max_value=0.999),
    r=st.floats(min_value=1.0, max_value=8.0),
)
def test_exponent_identities(alpha, r):
    pair = exponents(RenyiOrder(alpha), r)
    assert (1.0 - pair.first) * pair.second == pytest.approx(r, rel=1e-9)
    assert pair.first * pair.second == pytest.approx(
        (1.0 - alpha + alpha * r) / (1.0 - alpha), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("value, branch", [
    (-math.inf, "neg_inf"), (math.inf, "pos_inf"), (1.0, "shannon"), (-2.0, "finite"),
    (1.0 + 2e-9, "finite"), (1.0 - 2e-9, "finite"),
])
def test_an_order_carries_its_branch_from_construction(value, branch):
    a = RenyiOrder(value)
    assert a._branch == branch and branch_of(a) == branch == branch_of(value)
    # the tag is not a field: equality, hashing, ordering and repr see the value alone
    assert a == RenyiOrder(value) and hash(a) == hash(RenyiOrder(value))
    assert repr(a) in ("RenyiOrder(neg_inf)", "RenyiOrder(pos_inf)", f"RenyiOrder({value!r})")


@pytest.mark.parametrize("value", [1.0 + 5e-10, 1.0 - 9e-10])
def test_an_order_inside_the_window_is_built_but_has_no_branch(value):
    a = RenyiOrder(value)
    with pytest.raises(ValueError, match="inside the exclusion window around 1"):
        branch_of(a)

"""Entropy orders, distortion exponents, and the constants they induce.

The entropy order ``alpha`` ranges over the extended reals.  Most formulas
split into four branches (finite ``alpha != 1``, the Shannon point
``alpha = 1``, and the two infinite endpoints), so the order is carried as a
small value object that makes the branch explicit instead of a bare float.

The inputs every module takes are checked here once each: the order
(``RenyiOrder``), the distortion exponent (``validate_exponent``), a count
(``_as_count``) and an entropy budget (``_as_rate``: nonnegative, +inf meaning
no budget, NaN refused).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "RenyiOrder",
    "NEG_INF",
    "POS_INF",
    "SHANNON",
    "ExponentPair",
    "as_order",
    "parse_order",
    "branch_of",
    "validate_exponent",
    "distortion_constant",
    "exponents",
]

# Orders closer to 1 than this are ambiguous between the finite and the
# Shannon formula; finite-branch callers must pass exactly 1.0 instead.
SHANNON_WINDOW = 1e-9


@dataclass(frozen=True, order=True)
class RenyiOrder:
    """Entropy order in [-inf, +inf]; ``value`` may be ``math.inf`` of either sign.

    Its ``branch_of`` tag is found once, here; an order inside the exclusion
    window around 1 is tagged None, and ``branch_of`` rejects it.
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v):
            raise ValueError("entropy order must not be NaN")
        object.__setattr__(self, "value", v)
        if v == -math.inf:
            branch = "neg_inf"
        elif v == math.inf:
            branch = "pos_inf"
        elif v == 1.0:
            branch = "shannon"
        else:
            branch = None if abs(v - 1.0) < SHANNON_WINDOW else "finite"
        object.__setattr__(self, "_branch", branch)

    @property
    def is_neg_inf(self) -> bool:
        return self.value == -math.inf

    @property
    def is_pos_inf(self) -> bool:
        return self.value == math.inf

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    @property
    def is_shannon(self) -> bool:
        return self.value == 1.0

    def __repr__(self):
        if self.is_neg_inf:
            return "RenyiOrder(neg_inf)"
        if self.is_pos_inf:
            return "RenyiOrder(pos_inf)"
        return f"RenyiOrder({self.value!r})"


NEG_INF = RenyiOrder(-math.inf)
POS_INF = RenyiOrder(math.inf)
SHANNON = RenyiOrder(1.0)


def as_order(alpha) -> RenyiOrder:
    """Coerce a float or RenyiOrder to a RenyiOrder."""
    if isinstance(alpha, RenyiOrder):
        return alpha
    return RenyiOrder(float(alpha))


def parse_order(text: str) -> RenyiOrder:
    """Parse a CLI-style order: a float literal, ``neg_inf``, or ``pos_inf``."""
    t = text.strip().lower()
    if t == "neg_inf":
        return NEG_INF
    if t == "pos_inf":
        return POS_INF
    try:
        return RenyiOrder(float(t))
    except ValueError:
        raise ValueError(f"cannot parse entropy order {text!r}") from None


def branch_of(alpha) -> str:
    """Dispatch tag: 'neg_inf' | 'pos_inf' | 'shannon' | 'finite'.

    Finite orders inside the window around 1 (but not exactly 1) are
    rejected: the finite formula loses all significance there and the caller
    must use the Shannon branch explicitly.
    """
    a = as_order(alpha)
    if a._branch is None:
        raise ValueError(
            f"order {a.value!r} is inside the exclusion window around 1; "
            "pass exactly 1 for the Shannon branch"
        )
    return a._branch


def validate_exponent(r: float) -> float:
    """Check a distortion exponent: finite real with r >= 1."""
    r = float(r)
    if not math.isfinite(r) or r < 1.0:
        raise ValueError(f"distortion exponent must be finite and >= 1, got {r!r}")
    return r


def _as_rate(rate) -> float:
    """An entropy budget as a float: nonnegative, +inf included; ValueError otherwise, NaN too."""
    rate = float(rate)
    if not rate >= 0.0:
        raise ValueError(f"rate must be nonnegative, got {rate!r}")
    return rate


def _as_count(n, what: str) -> int:
    """n as an int if it is a whole number (7 or 7.0, not 2.7); ValueError otherwise."""
    try:
        if int(n) == n:
            return int(n)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be a whole number, got {n!r}")


def _high_order(a: RenyiOrder, r: float) -> bool:
    """Whether order a is in the high-order regime: +inf, or finite with a >= 1 + r."""
    return a.is_pos_inf or (a.is_finite and a.value >= 1.0 + r)


def distortion_constant(r: float) -> float:
    """Moment constant of a centred unit cell: 1 / ((1+r) * 2**r); ValueError where it is 0."""
    r = validate_exponent(r)
    c = 1.0 / ((1.0 + r) * 2.0**r) if r < 1024.0 else 0.0  # else 2**r raises OverflowError
    if c == 0.0:
        raise ValueError(f"the distortion constant 1 / ((1 + r) * 2**r) underflows at r = {r!r}")
    return c


@dataclass(frozen=True)
class ExponentPair:
    """The pair of exponents driving the high-resolution limits.

    Satisfies (1 - first) * second == r and
    first * second == (1 - alpha + alpha*r) / (1 - alpha).
    """

    first: float
    second: float


def exponents(alpha, r: float) -> ExponentPair:
    """Exponent pair for a finite order below 1 + r (or the -inf limit).

    For finite alpha:  first = (1 - a + a*r) / (1 - a + r),
                       second = (1 - a + r) / (1 - a).
    At alpha = -inf the pair degenerates to (1 - r, 1); the second entry is
    only meaningful where it multiplies nothing.
    """
    a = as_order(alpha)
    r = validate_exponent(r)
    if a.is_neg_inf:
        return ExponentPair(1.0 - r, 1.0)
    if a.is_pos_inf:
        raise ValueError("exponent pair is undefined at order +inf")
    if branch_of(a) == "shannon":
        raise ValueError("exponent pair is undefined at order 1")
    if _high_order(a, r):
        raise ValueError(f"exponent pair requires order < 1 + r, got {a.value}")
    v = a.value
    first = (1.0 - v + v * r) / (1.0 - v + r)
    second = (1.0 - v + r) / (1.0 - v)
    return ExponentPair(first, second)

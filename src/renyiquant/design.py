"""Asymptotically optimal quantizer design and predicted limits.

For orders below 1 + r the scaled distortion e**(r*H) * D of a good
companding quantizer approaches a closed-form constant; this module computes
those constants, the point density reaching them, and the exact optimum for
a uniform source at finite rate.  Orders at or above 1 + r scale differently
and get their own predictor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import bisect_increasing
from .compander import Compander, bennett_functional
from .core import as_order, branch_of, distortion_constant, exponents, validate_exponent
from .densities import Density, Interval, PiecewiseConstantDensity, SmoothDensity, uniform
from .entropy import _log_sum_exp, _normal_sums, relative_entropy, renyi_entropy
from .quantizer import IntervalQuantizer, uniform_quantizer

__all__ = [
    "PredictedLimit",
    "optimal_point_density",
    "predicted_limit",
    "predicted_limit_high_alpha",
    "design_compander",
    "uniform_optimal",
    "pierce_upper_bound",
    "compander_score",
]

INTEGER_SNAP = 1e-9
# Largest level count uniform_optimal builds.  A design at rate R has up to
# floor(e**R) + 1 levels, so rates above log(MAX_UNIFORM_LEVELS - 1), about
# 13.9, raise ValueError before any array is allocated.
MAX_UNIFORM_LEVELS = 2**20


@dataclass(frozen=True)
class PredictedLimit:
    """A predicted scaled-distortion limit.

    ``rate_exponent`` is the factor multiplying the rate in the scaling
    e**(rate_exponent * R) * D(R) -> value.
    """

    value: float
    regime: str
    rate_exponent: float


def _power_density(f: Density, p: float, order: float) -> Density:
    """The density proportional to f**p; ``order`` is the order it serves.

    Near order 1 + r, |p| is large and a piecewise f**p overflows or
    underflows.  When its integral is not a normal float (the rule of
    ``entropy._normal_sums``) the heights are normalized in logs, as
    ``predicted_limit`` sums them; a height that still underflows to 0
    raises ValueError.
    """
    if isinstance(f, PiecewiseConstantDensity):
        with np.errstate(over="ignore"):
            norm = f.power_integral(p)
        if _normal_sums(norm):
            heights = f.heights**p / norm
        else:
            t = p * np.log(f.heights)
            t -= t.max()
            heights = np.exp(t - _log_sum_exp(t + np.log(np.diff(f.breakpoints))))
        if not np.all(heights > 0.0):
            raise ValueError(
                f"the point density at order {order!r} underflows to 0 on part of the support")
        return PiecewiseConstantDensity(f.breakpoints, heights)
    norm = f.power_integral(p)
    lo_f, hi_f = f.ess_bounds()
    bounds = sorted((lo_f**p / norm, hi_f**p / norm))

    # the point density has f's support, so it never asks outside it and
    # f's own pdf can skip the support test of f.pdf
    def pdf(x, _f=f._pdf, _p=p, _n=norm):
        return _f(x) ** _p / _n

    return SmoothDensity(
        pdf,
        f.support.lo,
        f.support.hi,
        breakpoints=f.interior_breakpoints(),
        ess_inf=bounds[0],
        ess_sup=bounds[1],
    )


def optimal_point_density(f: Density, alpha, r: float) -> Density:
    """Point density minimizing the asymptotic scaled distortion.

    Finite alpha != 1 below 1 + r: the normalized power (1-alpha)/(1-alpha+r)
    of the source density.  alpha = 1: uniform over the support.
    alpha = -inf: the source density itself.
    """
    r = validate_exponent(r)
    a = as_order(alpha)
    branch = branch_of(a)
    if branch == "pos_inf" or (branch == "finite" and a.value >= 1.0 + r):
        raise ValueError(f"no companding optimum at order {a.value} >= 1 + r")
    if branch == "neg_inf":
        return f
    if branch == "shannon":
        supp = f.support
        return uniform(supp.lo, supp.hi)
    return _power_density(f, 1.0 / exponents(a, r).second, a.value)


def predicted_limit(f: Density, alpha, r: float) -> PredictedLimit:
    """Limit of e**(r*R) * D(R) for orders below 1 + r.

    Finite alpha != 1: C(r) * (integral of f**a1) ** a2.  Near 1 + r, a1
    is large and the integral of a piecewise f overflows or underflows; it
    is then summed in logs.  A smooth f whose integral is not positive and
    finite raises ValueError.
    alpha = 1: C(r) * exp(-r * integral of f log f).
    alpha = -inf: C(r) * integral of f**(1-r).
    """
    r = validate_exponent(r)
    a = as_order(alpha)
    branch = branch_of(a)
    cr = distortion_constant(r)
    if branch == "pos_inf" or (branch == "finite" and a.value >= 1.0 + r):
        raise ValueError(f"order {a.value!r} is outside the fixed-exponent regime")
    if branch == "neg_inf":
        return PredictedLimit(cr * f.power_integral(1.0 - r), "neg_inf", r)
    if branch == "shannon":
        return PredictedLimit(cr * math.exp(-r * f.log_integral()), "shannon", r)
    pair = exponents(a, r)
    with np.errstate(over="ignore"):
        integral = f.power_integral(pair.first)
    if isinstance(f, PiecewiseConstantDensity) and not _normal_sums(integral):
        t = pair.first * np.log(f.heights) + np.log(np.diff(f.breakpoints))
        return PredictedLimit(cr * math.exp(pair.second * float(_log_sum_exp(t))), "finite", r)
    if not (math.isfinite(integral) and integral > 0.0):
        raise ValueError(f"power integral of order {pair.first} is not positive and finite")
    return PredictedLimit(cr * integral ** pair.second, "finite", r)


def predicted_limit_high_alpha(f: Density, alpha, r: float) -> PredictedLimit:
    """Limit constant and rate exponent for orders at or above 1 + r.

    The scaled distortion e**((1+r) * beta * R) * D(R) approaches
    C(r) / (ess sup f)**r, with beta = (alpha - 1)/alpha (1 at +inf).
    """
    r = validate_exponent(r)
    a = as_order(alpha)
    if a.is_neg_inf or (a.is_finite and a.value < 1.0 + r):
        raise ValueError(f"order {a.value!r} is below the high-order regime 1 + r")
    beta = 1.0 if a.is_pos_inf else (a.value - 1.0) / a.value
    value = distortion_constant(r) * f.ess_bounds()[1] ** (-r)
    return PredictedLimit(value, "high", (1.0 + r) * beta)


def design_compander(f: Density, alpha, r: float, n: int) -> IntervalQuantizer:
    """n-level companding quantizer built on the optimal point density."""
    return Compander(optimal_point_density(f, alpha, r)).build(n)


def _snap_floor(x: float) -> int:
    k = round(x)
    if abs(x - k) <= INTEGER_SNAP * max(1.0, abs(k)):
        return int(k)
    return int(math.floor(x))


def uniform_optimal(interval: Interval, alpha, rate: float, r: float) -> IntervalQuantizer:
    """Exact constrained optimum for a uniform source on the interval.

    Orders alpha <= 0 (including -inf): floor(e**rate) equal cells.  Orders
    in (0, 1 + r): n equal cells plus one shorter cell at the right end,
    with the short length tuned so the output entropy equals the rate.
    Requires r > 1 and at most MAX_UNIFORM_LEVELS levels.
    """
    r = validate_exponent(r)
    if r <= 1.0:
        raise ValueError("the structured uniform optimum requires r > 1")
    rate = float(rate)
    if rate < 0.0:
        raise ValueError(f"rate must be nonnegative, got {rate!r}")
    a = as_order(alpha)
    if a.is_pos_inf or (a.is_finite and a.value >= 1.0 + r):
        raise ValueError(f"order {a.value!r} is outside the structured regime")
    if rate > math.log(MAX_UNIFORM_LEVELS - 1):
        raise ValueError(
            f"rate {rate!r} needs about e**rate levels, more than "
            f"MAX_UNIFORM_LEVELS = {MAX_UNIFORM_LEVELS}"
        )

    if a.is_neg_inf or a.value <= 0.0:
        return uniform_quantizer(interval, max(_snap_floor(math.exp(rate)), 1))

    # alpha > 0: the entropy constraint binds with equality; the bucket has
    # log(n_equal) < rate <= log(n_equal + 1)
    x = math.exp(rate)
    k = round(x)
    if abs(x - k) <= INTEGER_SNAP * max(1.0, k):
        n_equal = int(k) - 1
    else:
        n_equal = int(math.floor(x))
    if n_equal < 1:
        return uniform_quantizer(interval, 1)

    width = interval.width

    def entropy_at(short):
        h = (width - short) / n_equal
        masses = np.full(n_equal + 1, h / width)
        masses[-1] = short / width
        return renyi_entropy(masses, a)

    lo_s, hi_s = 1e-15 * width, width / (n_equal + 1)
    grid = np.linspace(lo_s, hi_s, 33)
    vals = [entropy_at(float(s)) for s in grid]
    if all(b >= a_ for a_, b in zip(vals, vals[1:])):
        short = bisect_increasing(entropy_at, lo_s, hi_s, target=rate, tol=1e-14 * width)
    else:
        # fall back to a dense scan from the right for the largest root
        xs = np.linspace(hi_s, lo_s, 4097)
        short = None
        prev = float(xs[0])
        for x in xs[1:]:
            if entropy_at(float(x)) <= rate:
                short = bisect_increasing(entropy_at, float(x), prev, target=rate, tol=1e-14 * width)
                break
            prev = float(x)
        if short is None:
            raise ValueError("could not match the entropy constraint")

    h = (width - short) / n_equal
    bounds = np.concatenate((interval.lo + h * np.arange(n_equal + 1), [interval.hi]))
    bounds[-2] = interval.hi - short
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    return IntervalQuantizer(bounds, mids)


def pierce_upper_bound(f: Density, r: float, rate: float) -> float:
    """Nonasymptotic distortion bound (2 / ess inf f)**r * e**(-r * rate)."""
    r = validate_exponent(r)
    rate = float(rate)
    if rate < 0.0:
        raise ValueError(f"rate must be nonnegative, got {rate!r}")
    lo = f.ess_bounds()[0]
    if lo <= 0.0:
        raise ValueError("bound requires a density bounded away from zero")
    return (2.0 / lo) ** r * math.exp(-r * rate)


def compander_score(f: Density, g: Density, alpha, r: float) -> float:
    """Asymptotic figure of merit of companding on g for source f.

    Equals exp(-r * divergence(f, g)) times the scaled-distortion functional
    of g; it is minimized over point densities by optimal_point_density and
    its minimum is the predicted limit.
    """
    return math.exp(-validate_exponent(r) * relative_entropy(f, g, alpha)) * bennett_functional(
        f, g, r
    )

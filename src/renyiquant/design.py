"""Asymptotically optimal quantizer design and predicted limits.

For orders below 1 + r the scaled distortion e**(r*H) * D of a good
companding quantizer approaches a closed-form constant; this module computes
those constants, the point density reaching them, and the exact optimum for
a uniform source at finite rate.  Orders at or above 1 + r scale differently
and get their own predictor.  The family formulas (the density
proportional to f**p, and (integral of f**p)**q) are methods of the density
classes in ``densities``; this module never tests the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import _exp_product, _normal_sums, bisect_increasing
from .compander import Compander, _bennett_functionals
from .core import (_as_rate, _high_order, as_order, branch_of, distortion_constant, exponents,
                   validate_exponent)
from .densities import Density, Interval, _ess_inf, _plain_power_integral, uniform
from .entropy import _divergences, renyi_entropy
from .quantizer import (MAX_UNIFORM_LEVELS, IntervalQuantizer, _masses_and_distortion,
                        uniform_quantizer)

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


@dataclass(frozen=True)
class PredictedLimit:
    """A predicted scaled-distortion limit.

    ``rate_exponent`` is the factor multiplying the rate in the scaling
    e**(rate_exponent * R) * D(R) -> value.
    """

    value: float
    regime: str
    rate_exponent: float

    def __post_init__(self):
        if not _normal_sums(self.value):
            raise ValueError(f"the predicted limit {self.value!r} is not a positive normal "
                             "float: the source's scale to the power r leaves the float range")


def optimal_point_density(f: Density, alpha, r: float) -> Density:
    """Point density minimizing the asymptotic scaled distortion.

    Finite alpha != 1 below 1 + r: the normalized power (1-alpha)/(1-alpha+r)
    of the source density.  alpha = 1: uniform over the support.
    alpha = -inf: the source density itself.
    """
    r = validate_exponent(r)
    a = as_order(alpha)
    branch = branch_of(a)
    if _high_order(a, r):
        raise ValueError(f"no companding optimum at order {a.value} >= 1 + r")
    if branch == "neg_inf":
        return f
    if branch == "shannon":
        supp = f.support
        return uniform(supp.lo, supp.hi)
    return f._power_density(1.0 / exponents(a, r).second, a.value)


def predicted_limit(f: Density, alpha, r: float) -> PredictedLimit:
    """Limit of e**(r*R) * D(R) for orders below 1 + r.

    Finite alpha != 1: C(r) * (integral of f**a1) ** a2.
    alpha = 1: C(r) * exp(-r * integral of f log f).
    alpha = -inf: C(r) * integral of f**(1-r).
    Each is taken in logs where it, or the integral, is not a positive normal
    float, the integral's by ``_log_power_integral``; a limit past the float range, or a
    smooth f whose integral is not positive and finite, raises ValueError.

    Proven orders: 0 and 1 (classical), [-inf, 0) and (0, 1) (the source
    paper, arXiv:1008.1744); 1 + r and above (earlier work) is
    ``predicted_limit_high_alpha``.  On (1, 1 + r) the value is only what
    companding achieves, not a proven optimum.
    """
    r = validate_exponent(r)
    a = as_order(alpha)
    branch = branch_of(a)
    cr = distortion_constant(r)
    if _high_order(a, r):
        raise ValueError(f"order {a.value!r} is outside the fixed-exponent regime")
    if branch == "shannon":
        t = -r * f.log_integral()
        plain, log_power = lambda: math.exp(t), lambda: t
    else:
        pair = exponents(a, r)  # (1 - r, 1) at -inf, where integral ** 1.0 is the integral
        p, q = pair.first, pair.second
        integral = _plain_power_integral(f, p)  # nan where it lost digits: the log way
        plain, log_power = lambda: integral**q, lambda: q * f._log_power_integral(p)
    value = _exp_product(lambda: cr * plain(), lambda: (math.log(cr), log_power()))
    return PredictedLimit(value, branch, r)


def predicted_limit_high_alpha(f: Density, alpha, r: float) -> PredictedLimit:
    """Limit constant and rate exponent for orders at or above 1 + r.

    The scaled distortion e**((1+r) * beta * R) * D(R) approaches
    C(r) / (ess sup f)**r, with beta = (alpha - 1)/alpha (1 at +inf).
    """
    r = validate_exponent(r)
    a = as_order(alpha)
    if not _high_order(a, r):
        raise ValueError(f"order {a.value!r} is below the high-order regime 1 + r")
    beta = 1.0 if a.is_pos_inf else (a.value - 1.0) / a.value
    cr, peak = distortion_constant(r), f.ess_bounds()[1]
    value = _exp_product(lambda: cr * peak ** (-r), lambda: (math.log(cr), -r * math.log(peak)))
    return PredictedLimit(value, "high", (1.0 + r) * beta)


def design_compander(f: Density, alpha, r: float, n: int) -> IntervalQuantizer:
    """n-level companding quantizer built on the optimal point density."""
    return Compander(optimal_point_density(f, alpha, r)).build(n)


def _sweep_row(compander, f, alpha, r: float, n: int, normalization: str):
    """H, D and e**(r*H) * D, or n**r * D at "levels", of ``compander.build(n)`` on f."""
    masses, d = _masses_and_distortion(compander.build(n), f, r)
    h = renyi_entropy(masses, alpha)
    levels = normalization == "levels"
    normalized = _exp_product(lambda: (float(n) ** r if levels else math.exp(r * h)) * d,
                              lambda: (r * math.log(n) if levels else r * h, math.log(d)))
    if not math.isfinite(normalized):
        raise ValueError(f"the normalized distortion at N = {n} leaves the float range")
    return h, d, normalized


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
    Requires r > 1 and at most MAX_UNIFORM_LEVELS levels, floor(e**rate) + 1,
    so rates above log(MAX_UNIFORM_LEVELS - 1), about 13.9, raise ValueError.
    """
    r = validate_exponent(r)
    if r <= 1.0:
        raise ValueError("the structured uniform optimum requires r > 1")
    rate = _as_rate(rate)
    a = as_order(alpha)
    if _high_order(a, r):
        raise ValueError(f"order {a.value!r} is outside the structured regime")
    if rate > math.log(MAX_UNIFORM_LEVELS - 1):
        raise ValueError(
            f"rate {rate!r} needs about e**rate levels, more than "
            f"MAX_UNIFORM_LEVELS = {MAX_UNIFORM_LEVELS}"
        )

    if a.is_neg_inf or a.value <= 0.0:
        return uniform_quantizer(interval, max(_snap_floor(math.exp(rate)), 1))

    # alpha > 0: the entropy constraint binds with equality; n_equal is the
    # least n with rate <= log(n + 1), that is e**rate snapped up, minus 1
    n_equal = -_snap_floor(-math.exp(rate)) - 1
    if n_equal < 1:
        return uniform_quantizer(interval, 1)

    width = interval.width

    def entropy_at(short):
        h = (width - short) / n_equal
        masses = np.full(n_equal + 1, h / width)
        masses[-1] = short / width
        return renyi_entropy(masses, a)

    # nondecreasing in short: raising it towards the others' width moves the
    # masses towards uniform, and for alpha > 0 the entropy is Schur-concave
    short = bisect_increasing(entropy_at, 1e-15 * width, width / (n_equal + 1), target=rate,
                              tol=1e-14 * width)

    h = (width - short) / n_equal
    bounds = np.concatenate((interval.lo + h * np.arange(n_equal + 1), [interval.hi]))
    bounds[-2] = interval.hi - short
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    return IntervalQuantizer(bounds, mids)


def pierce_upper_bound(f: Density, r: float, rate: float) -> float:
    """Nonasymptotic distortion bound (2 / ess inf f)**r * e**(-r * rate), in logs if need be."""
    r = validate_exponent(r)
    rate = _as_rate(rate)
    lo = _ess_inf(f, "bound requires a density bounded away from zero")
    bound = _exp_product(lambda: (2.0 / lo) ** r * math.exp(-r * rate),
                         lambda: (r * (math.log(2.0) - math.log(lo)), -r * rate))
    if not _normal_sums(bound):
        raise ValueError("the bound (2 / ess inf f)**r * e**(-r * rate) leaves the float range")
    return bound


def compander_score(f: Density, g: Density, alpha, r: float) -> float | list[float]:
    """Asymptotic figure of merit of companding on g for source f.

    Equals exp(-r * divergence(f, g)) times the scaled-distortion functional
    of g; it is minimized over point densities by optimal_point_density and
    its minimum is the predicted limit.

    ``g`` may also be a list or tuple of point densities: the result is then
    a list of floats whose entry i equals ``compander_score(f, g[i], alpha,
    r)`` bit for bit.  Point densities with one support and the same
    breakpoints share each check and each integral call; for piecewise ones
    that is one common refinement with f, a row of pieces per density.
    """
    r = validate_exponent(r)
    many = isinstance(g, (list, tuple))
    gs = list(g) if many else [g]
    groups = {}
    for i, gi in enumerate(gs):
        key = (type(gi), gi.support, tuple(gi.interior_breakpoints()))
        groups.setdefault(key, []).append(i)
    scores = [0.0] * len(gs)
    for rows in groups.values():
        share = [gs[i] for i in rows]
        pairs = zip(_divergences(f, share, alpha), _bennett_functionals(f, share, r))
        for i, (div, bennett) in zip(rows, pairs):
            scores[i] = math.exp(-r * div) * bennett
    return scores if many else scores[0]

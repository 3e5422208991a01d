"""Rate allocation and quantizer composition over finite mixtures.

A mixture splits the source into weighted components on ordered disjoint
intervals.  Given a total rate, closed-form allocation weights spread it over
the components so that the composed quantizer meets the total entropy budget
and minimizes the aggregate scaled distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import as_order, branch_of, exponents, validate_exponent
from .densities import Density, PiecewiseConstantDensity
from .entropy import _log_sum_exp, _normal_sums
from .quantizer import IntervalQuantizer

__all__ = [
    "MixtureComponent",
    "MixtureSpec",
    "allocation_weights",
    "allocate_rates",
    "check_rate_condition",
    "composed_entropy",
    "compose",
    "f_functional",
    "f_minimizer",
]

WEIGHT_TOL = 1e-12
SPAN_TOL = 1e-12


@dataclass(frozen=True)
class MixtureComponent:
    weight: float
    density: Density

    def __post_init__(self):
        w = float(self.weight)
        if not (math.isfinite(w) and w > 0.0):
            raise ValueError(f"component weight must be positive, got {w!r}")
        object.__setattr__(self, "weight", w)


class MixtureSpec:
    """Weighted components on ordered non-overlapping supports."""

    def __init__(self, components: Sequence[MixtureComponent]):
        comps = list(components)
        if len(comps) < 2:
            raise ValueError("a mixture needs at least two components")
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_TOL}, got {total!r}")
        span = comps[-1].density.support.hi - comps[0].density.support.lo
        for left, right in zip(comps[:-1], comps[1:]):
            if right.density.support.lo < left.density.support.hi - SPAN_TOL * max(span, 1.0):
                raise ValueError("component supports must be ordered and non-overlapping")
        self.components = comps

    @property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])

    @property
    def span(self):
        from .densities import Interval

        return Interval(self.components[0].density.support.lo, self.components[-1].density.support.hi)

    def is_abutting(self) -> bool:
        tol = SPAN_TOL * max(self.span.width, 1.0)
        return all(
            abs(right.density.support.lo - left.density.support.hi) <= tol
            for left, right in zip(self.components[:-1], self.components[1:])
        )

    def combined_density(self) -> PiecewiseConstantDensity:
        """Single piecewise density equal to the weighted mixture.

        Requires abutting piecewise components; heights are renormalized so
        float rounding in the weights cannot break the unit-mass invariant.
        """
        if not self.is_abutting():
            raise ValueError("combined density requires abutting component supports")
        breakpoints = [self.components[0].density.support.lo]
        heights = []
        for comp in self.components:
            d = comp.density
            if not isinstance(d, PiecewiseConstantDensity):
                raise ValueError("combined density requires piecewise components")
            heights.extend(comp.weight * h for h in d.heights)
            breakpoints.extend(float(x) for x in d.breakpoints[1:])
        b = np.asarray(breakpoints)
        h = np.asarray(heights)
        h = h / float(np.dot(h, np.diff(b)))
        return PiecewiseConstantDensity(b, h)


def _clean_weights(weights) -> np.ndarray:
    s = np.ascontiguousarray(weights, dtype=float)
    if s.ndim != 1 or len(s) < 1:
        raise ValueError("weights must be a nonempty 1-d vector")
    if np.any(~np.isfinite(s)) or np.any(s <= 0.0):
        raise ValueError("weights must be positive and finite")
    if abs(float(s.sum()) - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {float(s.sum())!r}")
    return s


def allocation_weights(weights, alpha, r: float) -> np.ndarray:
    """Per-component rate multipliers t_i.

    t_i = s_i**(1/a2) * (sum_j s_j**a1)**(-1/(1-alpha)) with the exponent
    pair of (alpha, r); they satisfy sum_i s_i**alpha * t_i**(1-alpha) = 1.
    Near alpha = 1 + r the two factors overflow and underflow, so where a
    plain t_i is not a normal float it is taken from logs; a weight that
    still leaves the float range raises ``ValueError``.
    """
    s = _clean_weights(weights)
    r = validate_exponent(r)
    a = as_order(alpha)
    if not a.is_finite:
        raise ValueError("allocation weights require a finite order")
    if branch_of(a) == "shannon":
        raise ValueError("allocation weights are undefined at order 1")
    if a.value >= 1.0 + r:
        raise ValueError(f"allocation weights require order < 1 + r, got {a.value}")
    pair = exponents(a, r)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float((s**pair.first).sum()) ** (-1.0 / (1.0 - a.value))
        t = s ** (1.0 / pair.second) * scale
        if np.all(_normal_sums(t)):
            return t
        # log t_i = -log(sum_j s_j**a1 / s_i**c) / (1-alpha), c = a1 - alpha, with
        # the ratio taken before the power so the huge exponents cannot cancel
        v, log_s = a.value, np.log(s)
        c = (1.0 - v) ** 2 / (1.0 - v + r)
        t = np.exp(-_log_sum_exp(v * log_s + c * (log_s - log_s[:, None])) / (1.0 - v))
    if not np.all(_normal_sums(t)):
        raise ValueError(f"allocation weights at order {a.value} leave the float range")
    return t


def allocate_rates(weights, alpha, r: float, rate: float) -> np.ndarray:
    """Split a total rate across components: R_i = rate + log t_i.

    The rate must be at least max(0, max_i(-log t_i)) so every component
    rate is nonnegative.
    """
    t = allocation_weights(weights, alpha, r)
    rate = float(rate)
    threshold = max(0.0, float(-np.log(t).min()))
    if rate < threshold - 1e-12:
        raise ValueError(f"rate {rate!r} is below the feasibility threshold {threshold!r}")
    return rate + np.log(t)


def _log_weighted_sum(s: np.ndarray, v: float, xs: np.ndarray) -> float:
    """log of sum_i s_i**v * e**((1-v) x_i), by the ``entropy._log_power_sums`` rule.

    The plain sum where it is a normal float, so those cases keep their bits;
    a log-sum-exp over v log s_i + (1-v) x_i where it overflows or underflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = float((s**v * np.exp((1.0 - v) * xs)).sum())
    if _normal_sums(total):
        return math.log(total)
    return float(_log_sum_exp(v * np.log(s) + (1.0 - v) * xs))


def check_rate_condition(weights, rates, rate: float, alpha) -> bool:
    """Whether component rates meet the composability budget at the order.

    For alpha in [0, 1): log sum s_i**alpha e**((1-alpha) R_i) must not
    exceed (1-alpha) * rate; for alpha > 1 the inequality reverses.
    """
    s = _clean_weights(weights)
    rs = np.ascontiguousarray(rates, dtype=float)
    if rs.shape != s.shape:
        raise ValueError("need one rate per weight")
    if not np.all(np.isfinite(rs)):
        raise ValueError("rates must be finite")
    a = as_order(alpha)
    if not a.is_finite or a.value < 0.0:
        raise ValueError("the rate condition is stated for finite orders >= 0")
    if branch_of(a) == "shannon":
        raise ValueError("the rate condition is undefined at order 1")
    v = a.value
    lhs = _log_weighted_sum(s, v, rs)
    rhs = (1.0 - v) * float(rate)
    if v < 1.0:
        return lhs <= rhs + 1e-12
    return lhs >= rhs - 1e-12


def composed_entropy(weights, entropies, alpha) -> float:
    """Entropy of the composed output from component entropies.

    Exact identity: for finite alpha != 1 the composed value is
    log(sum s_i**alpha e**((1-alpha) H_i)) / (1-alpha); order 1 adds the
    weight entropy; the infinite orders track the extreme scaled masses.
    """
    s = _clean_weights(weights)
    hs = np.ascontiguousarray(entropies, dtype=float)
    if hs.shape != s.shape:
        raise ValueError("need one entropy per weight")
    if not np.all(np.isfinite(hs)):
        raise ValueError("entropies must be finite")
    a = as_order(alpha)
    branch = branch_of(a)
    if branch == "pos_inf":
        return -math.log(float((s * np.exp(-hs)).max()))
    if branch == "neg_inf":
        return -math.log(float((s * np.exp(-hs)).min()))
    if branch == "shannon":
        return float((s * hs).sum() - (s * np.log(s)).sum())
    return _log_weighted_sum(s, a.value, hs) / (1.0 - a.value)


def compose(spec: MixtureSpec, parts: Sequence[IntervalQuantizer]) -> IntervalQuantizer:
    """Concatenate per-component quantizers into one quantizer.

    Each part must span its component's support; adjacent parts must abut
    (no gaps, no overlaps) within a strict span-relative tolerance.
    """
    parts = list(parts)
    if len(parts) != len(spec.components):
        raise ValueError("need exactly one part per component")
    tol = SPAN_TOL * max(spec.span.width, 1.0)
    for comp, q in zip(spec.components, parts):
        supp = comp.density.support
        if abs(float(q.boundaries[0]) - supp.lo) > tol or abs(float(q.boundaries[-1]) - supp.hi) > tol:
            raise ValueError(
                f"part spanning [{float(q.boundaries[0])}, {float(q.boundaries[-1])}] does not "
                f"match the component support [{supp.lo}, {supp.hi}]"
            )
    for left, right in zip(parts[:-1], parts[1:]):
        gap = float(right.boundaries[0]) - float(left.boundaries[-1])
        if abs(gap) > tol:
            kind = "gapped" if gap > 0 else "overlapping"
            raise ValueError(f"{kind} part spans at {float(left.boundaries[-1])!r}")
    bounds = [parts[0].boundaries]
    points = [parts[0].codepoints]
    for q in parts[1:]:
        bounds.append(q.boundaries[1:])
        points.append(q.codepoints)
    return IntervalQuantizer(np.concatenate(bounds), np.concatenate(points))


def f_functional(weights, values, r: float) -> float | np.ndarray:
    """Aggregate inverse-power objective sum_i s_i * v_i**(-r).

    ``values`` of shape (k,) is one candidate and gives a float.  Shape
    (m, k) holds m candidates, one per row, and gives an array of m values;
    row i equals the call on ``values[i]`` bit for bit, and the weights and
    r are validated once.  A value that is not positive, or an objective
    that overflows or underflows, raises ``ValueError``.
    """
    s = _clean_weights(weights)
    v = np.ascontiguousarray(values, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1:] != s.shape:
        raise ValueError("need one value per weight")
    if not np.all(v > 0.0):
        raise ValueError("values must be strictly positive")
    r = validate_exponent(r)
    with np.errstate(over="ignore"):
        f = (s * v ** (-r)).sum(axis=-1)
    if not np.all(_normal_sums(f)):
        raise ValueError(f"f_functional at r = {r} leaves the float range")
    return float(f) if v.ndim == 1 else f


def f_minimizer(weights, alpha, r: float) -> np.ndarray:
    """Minimizer of f_functional under sum s_i**alpha v_i**(1-alpha) = 1.

    For finite alpha < 1 the allocation weights are the unique minimizer.
    """
    a = as_order(alpha)
    if not a.is_finite or a.value >= 1.0:
        raise ValueError("the minimizer is available for finite orders below 1")
    return allocation_weights(weights, a, r)

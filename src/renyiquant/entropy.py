"""Entropy of discrete mass vectors and of densities.

All logarithms are natural.  Zero masses never contribute: the conventions
0 * log 0 = 0 and 0**0 = 0 are applied throughout, so the order-0 value is
the log of the number of positive entries.  Power sums that leave the float
range at a large |alpha| are summed in logs (``_quadrature._log_of_sum``).
"""

from __future__ import annotations

import math

import numpy as np

from ._quadrature import _log_of_sum, call_each
from .core import as_order, branch_of
from .densities import (Density, _pair_integrals, _powers, _ratio_bounds, _require_covered,
                        require_nested_supports)

__all__ = ["renyi_entropy", "differential_entropy", "relative_entropy"]

WEIGHT_TOL = 1e-9


def _checked_weights(weights):
    """A checked probability vector as a float array, and its least entry.

    On success two reductions do: a finite sum of entries at least
    -WEIGHT_TOL means every entry is finite.  Only a failing vector runs
    the checks one by one, for the message of the first that fails.
    """
    w = np.ascontiguousarray(weights, dtype=float)
    if w.ndim != 1 or len(w) == 0:
        raise ValueError("weights must be a nonempty 1-d vector")
    total, least = float(w.sum()), float(w.min())
    if not (math.isfinite(total) and least >= -WEIGHT_TOL):
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if least < -WEIGHT_TOL:
            raise ValueError("weights must be nonnegative")
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"weights must sum to 1, got {total!r}")
    return w, least


def _clean_weights(weights) -> np.ndarray:
    """The positive entries of a checked probability vector; as it sums to 1, some exist."""
    w, least = _checked_weights(weights)
    return w if least > 0.0 else w[w > 0.0]


def renyi_entropy(weights, alpha) -> float | list[float]:
    """Entropy of order alpha of a probability vector.

    Branches: finite alpha != 1 uses log(sum p_i**alpha) / (1 - alpha),
    switching to a log-sum-exp where the power sum overflows or falls below
    the smallest normal float;
    alpha = 1 is the Shannon value; alpha = +inf is -log(max p_i); and
    alpha = -inf is -log(min positive p_i).  Orders within the exclusion
    window around 1 (other than exactly 1) are rejected.

    ``alpha`` may also be a list or tuple of orders: the weights are then
    checked once, and the result is a list of floats whose entry i equals
    ``renyi_entropy(weights, alpha[i])`` bit for bit.
    """
    pos = _clean_weights(weights)
    with np.errstate(over="ignore"):
        if isinstance(alpha, (list, tuple)):
            return [_entropy_of(pos, a) for a in alpha]
        return _entropy_of(pos, alpha)


def _entropy_of(pos: np.ndarray, alpha) -> float:
    """``renyi_entropy`` at one order, of the positive masses ``pos``; a power
    sum may overflow, so the caller ignores numpy's overflow warning."""
    a = as_order(alpha)
    branch = branch_of(a)
    if branch == "pos_inf":
        return -math.log(float(pos.max()))
    if branch == "neg_inf":
        return -math.log(float(pos.min()))
    if branch == "shannon":
        return float(-(pos * np.log(pos)).sum())
    v = a.value
    return _log_of_sum((pos**v).sum(), lambda: v * np.log(pos)) / (1.0 - v)


def differential_entropy(d: Density, alpha) -> float:
    """Differential entropy of order alpha of a density.

    Finite alpha != 1: log(integral of pdf**alpha) / (1 - alpha), from
    ``_log_power_integral``, which sums it in logs where need be.
    alpha = 1: minus the log-moment integral.  alpha = +inf / -inf: minus the
    log of the essential supremum / infimum over the support.
    """
    a = as_order(alpha)
    branch = branch_of(a)
    if branch == "pos_inf":
        return -math.log(d.ess_bounds()[1])
    if branch == "neg_inf":
        lo = d.ess_bounds()[0]
        if lo <= 0.0:
            raise ValueError("order -inf requires a density bounded away from zero")
        return -math.log(lo)
    if branch == "shannon":
        return -d.log_integral()
    return d._log_power_integral(a.value) / (1.0 - a.value)


def relative_entropy(f: Density, g: Density, alpha) -> float:
    """Divergence of order alpha of f from g.

    Finite alpha != 1: log(integral of f**alpha * g**(1-alpha)) / (alpha - 1),
    over the part of f's support that g covers.  alpha = 1 is the usual
    log-ratio integral; alpha = +inf / -inf take the essential sup / inf of
    f/g.  f's support must lie in g's, and from order 1 up f has no mass past it.
    Below order 0, f must be bounded away from zero: where its pdf vanishes or
    underflows, f**alpha is out of range.
    """
    return _divergences(f, [g], alpha)[0]


def _divergences(f: Density, gs, alpha) -> list[float]:
    """``relative_entropy`` of f from each of the densities gs, which share one
    support and, if piecewise, one breakpoint grid: the checks run once, and
    each integral is one ``densities._pair_integrals`` call for all of them."""
    require_nested_supports(f, gs[0])
    a = as_order(alpha)
    branch = branch_of(a)
    if a.value >= 1.0:
        _require_covered(f, gs[0])
    if a.value < 0.0 and f.ess_bounds()[0] <= 0.0:
        raise ValueError(f"a divergence of negative order {a.value} requires a first density "
                         "bounded away from zero; its pdf vanishes or underflows")
    if branch in ("pos_inf", "neg_inf"):
        lows, highs = _ratio_bounds(f, gs, 4096)
        return [math.log(x) for x in (highs if branch == "pos_inf" else lows)]
    if branch == "shannon":
        def phi(w, hf, hg):
            with np.errstate(divide="ignore"):
                ratio = hf / hg
            return w * hf * call_each(math.log, ratio.ravel()).reshape(ratio.shape)

        integrals = _pair_integrals(f, gs, phi).tolist()
        if not all(map(math.isfinite, integrals)):
            raise ValueError("divergence integral of order 1 diverges")
        return integrals
    v = a.value
    try:
        integrals = _pair_integrals(f, gs,
                                    lambda w, hf, hg: w * _powers(hf, v) * _powers(hg, 1.0 - v))
    except OverflowError:
        raise ValueError(f"divergence integral of order {v} overflows") from None
    out = []
    for integral in integrals.tolist():
        if not math.isfinite(integral) or integral <= 0.0:
            raise ValueError(f"divergence integral of order {v} diverges or vanishes")
        out.append(math.log(integral) / (v - 1.0))
    return out

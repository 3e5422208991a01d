"""Entropy of discrete mass vectors and of densities.

All logarithms are natural.  Zero masses never contribute: the conventions
0 * log 0 = 0 and 0**0 = 0 are applied throughout, so the order-0 value is
the log of the number of positive entries.  Power sums that leave the float
range at a large |alpha| are summed in logs (``_quadrature._log_of_sum``).
"""

from __future__ import annotations

import math

import numpy as np

# _log_sum_exp and _normal_sums stay importable from here for the tests
from ._quadrature import _log_of_sum, _log_sum_exp, _normal_sums  # noqa: F401
from .core import as_order, branch_of
from .densities import (Density, _pair_integral, _ratio_bounds, _require_covered,
                        require_nested_supports)

__all__ = ["renyi_entropy", "differential_entropy", "relative_entropy"]

WEIGHT_TOL = 1e-9


def _clean_weights(weights) -> np.ndarray:
    """The positive entries of a checked probability vector; as it sums to 1, some exist."""
    w = np.ascontiguousarray(weights, dtype=float)
    if w.ndim != 1 or len(w) == 0:
        raise ValueError("weights must be a nonempty 1-d vector")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if (w < -WEIGHT_TOL).any():
        raise ValueError("weights must be nonnegative")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"weights must sum to 1, got {total!r}")
    return w[w > 0.0]


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
    if isinstance(alpha, (list, tuple)):
        return [_entropy_of(pos, a) for a in alpha]
    return _entropy_of(pos, alpha)


def _entropy_of(pos: np.ndarray, alpha) -> float:
    """``renyi_entropy`` at one order, of the positive masses ``pos``."""
    a = as_order(alpha)
    branch = branch_of(a)
    if branch == "pos_inf":
        return -math.log(float(pos.max()))
    if branch == "neg_inf":
        return -math.log(float(pos.min()))
    if branch == "shannon":
        return float(-(pos * np.log(pos)).sum())
    v = a.value
    with np.errstate(over="ignore"):
        total = (pos**v).sum()
    return _log_of_sum(total, lambda: v * np.log(pos)) / (1.0 - v)


def differential_entropy(d: Density, alpha) -> float:
    """Differential entropy of order alpha of a density.

    Finite alpha != 1: log(integral of pdf**alpha) / (1 - alpha).
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
    v = a.value
    integral = d.power_integral(v)
    if not math.isfinite(integral) or integral <= 0.0:
        raise ValueError(f"power integral of order {v} is not positive and finite")
    return math.log(integral) / (1.0 - v)


def relative_entropy(f: Density, g: Density, alpha) -> float:
    """Divergence of order alpha of f from g.

    Finite alpha != 1: log(integral of f**alpha * g**(1-alpha)) / (alpha - 1),
    over the part of f's support that g covers.  alpha = 1 is the usual
    log-ratio integral; alpha = +inf / -inf take the essential sup / inf of
    f/g.  f's support must lie in g's, and from order 1 up f has no mass past it.
    Below order 0, f must be bounded away from zero: where its pdf vanishes or
    underflows, f**alpha is out of range.
    """
    require_nested_supports(f, g)
    a = as_order(alpha)
    branch = branch_of(a)
    if a.value >= 1.0:
        _require_covered(f, g)
    if a.value < 0.0 and f.ess_bounds()[0] <= 0.0:
        raise ValueError(f"a divergence of negative order {a.value} requires a first density "
                         "bounded away from zero; its pdf vanishes or underflows")
    if branch in ("pos_inf", "neg_inf"):
        low, high = _ratio_bounds(f, g, 4096)
        return math.log(high if branch == "pos_inf" else low)
    if branch == "shannon":
        return _pair_integral(f, g, lambda w, hf, hg: w * hf * math.log(hf / hg))
    v = a.value
    try:
        integral = _pair_integral(f, g, lambda w, hf, hg: w * hf**v * hg ** (1.0 - v))
    except OverflowError:
        raise ValueError(f"divergence integral of order {v} overflows") from None
    if not math.isfinite(integral) or integral <= 0.0:
        raise ValueError(f"divergence integral of order {v} diverges or vanishes")
    return math.log(integral) / (v - 1.0)

"""Plain-Python references for the batched quadrature.

``integrate`` is the recursive adaptive Simpson rule, one interval at a
time; ``renyiquant._quadrature.integrate_many`` must follow it step for step
and give the same floats.  The other helpers build the cdf, the quantile and
the cell moments of a ``SmoothDensity`` from it, one argument or one cell at
a time.
"""

from __future__ import annotations

import math

import numpy as np

from renyiquant._quadrature import bisect_increasing


def _simpson(fa, fm, fb, a, b):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, b, fa, fm, fb, whole, eps, depth, max_depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    delta = left + right - whole
    if depth >= max_depth or abs(delta) <= 15.0 * eps:
        # Richardson correction: one extrapolation order for free.
        return left + right + delta / 15.0
    return _adapt(f, a, m, fa, flm, fm, left, 0.5 * eps, depth + 1, max_depth) + _adapt(
        f, m, b, fm, frm, fb, right, 0.5 * eps, depth + 1, max_depth
    )


def _integrate_piece(f, a, b, rel_tol, max_depth):
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    for v in (fa, fm, fb):
        if not math.isfinite(v):
            raise ValueError(f"integrand is not finite on [{a}, {b}]")
    whole = _simpson(fa, fm, fb, a, b)
    eps = rel_tol * max(abs(whole), 1e-12)
    return _adapt(f, a, b, fa, fm, fb, whole, eps, 0, max_depth)


def integrate(f, a, b, rel_tol=1e-10, max_depth=40, breakpoints=()):
    """Integrate f over [a, b], splitting at the given interior breakpoints."""
    if b < a:
        raise ValueError(f"empty integration range [{a}, {b}]")
    if b == a:
        return 0.0
    cuts = [a] + sorted(x for x in breakpoints if a < x < b) + [b]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi > lo:
            total += _integrate_piece(f, lo, hi, rel_tol, max_depth)
    return total


def cdf(d, x: float) -> float:
    """SmoothDensity.cdf at one point: table entry plus one integral in its cell."""
    lo, hi = d.support.lo, d.support.hi
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    j = int(np.searchsorted(d._edges, x, side="right")) - 1
    if d._edges[j] == x:
        return float(d._cum[j])
    part = integrate(d._pdf, float(d._edges[j]), x, d._rel_tol, d._max_depth)
    return min(float(d._cum[j] + part / d._total), 1.0)


def quantile(d, u: float) -> float:
    """SmoothDensity.quantile at one argument: bisection of ``cdf`` in its cell."""
    if u <= 0.0:
        return d.support.lo
    if u >= 1.0:
        return d.support.hi
    j = min(int(np.searchsorted(d._cum, u, side="right")) - 1, len(d._edges) - 2)
    lo, hi = float(d._edges[j]), float(d._edges[j + 1])
    return bisect_increasing(lambda x: cdf(d, x), lo, hi, target=u, tol=1e-13 * d.support.width)


def moment(d, s: float, t: float, c: float, p: float) -> float:
    """Integral of |x - c|**p against d over [s, t], split at its kinks and at c."""
    inner = [x for x in d.interior_breakpoints() if s < x < t] + ([c] if s < c < t else [])
    return integrate(lambda x: abs(x - c) ** p * d.pdf(x), s, t, breakpoints=inner)


def balance(d, lo: float, hi: float, a: float, r: float) -> float:
    """One-sided (r-1)-moments of [lo, hi] about a, left minus right."""
    return moment(d, lo, a, a, r - 1.0) - moment(d, a, hi, a, r - 1.0)

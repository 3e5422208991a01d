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
    """SmoothDensity.quantile at one argument: safeguarded Newton on ``cdf`` in its cell.

    It starts at the table's linear interpolant and keeps the cell as its
    bracket; a Newton step that is not finite, leaves the bracket or does
    not halve the previous step gives way to bisection.
    """
    if u <= 0.0:
        return d.support.lo
    if u >= 1.0:
        return d.support.hi
    j = min(int(np.searchsorted(d._cum, u, side="right")) - 1, len(d._edges) - 2)
    a, b, c = float(d._edges[j]), float(d._edges[j + 1]), float(d._cum[j])
    x = a + (u - c) / (float(d._cum[j + 1]) - c) * (b - a)
    step, tol = b - a, 1e-13 * d.support.width
    for _ in range(200):
        f = cdf(d, x)
        if f < u:
            a = x
        else:
            b = x
        g = d.pdf(x)
        dx = (u - f) * d._total / g if g != 0.0 else math.inf
        if abs(dx) <= 0.5 * step and a <= x + dx <= b:
            x, step = x + dx, abs(dx)
        else:
            x, step = 0.5 * (a + b), 0.5 * (b - a)
        if step <= tol or b - a <= tol:
            return x
    raise ValueError(f"quantile of {u!r} does not converge in 200 steps")


def moment(d, s: float, t: float, c: float, p: float) -> float:
    """Integral of |x - c|**p against d over [s, t], clipped to the support of
    d (where the pdf vanishes) and split at its kinks and at c.

    At a non-integer p, a piece of width h with c at one end integrates
    s**3 * pdf(c +- h * s**k) over s in [0, 1], with k = 4 / (p + 1), and
    takes k * h**(p + 1) times that; every other piece integrates
    |x - c|**p * pdf(x) over x.  The pieces add left to right from 0.0.
    """
    s, t = (min(max(v, d.support.lo), d.support.hi) for v in (s, t))
    inner = [x for x in d.interior_breakpoints() if s < x < t] + ([c] if s < c < t else [])
    cuts = [s] + sorted(inner) + [t]
    bend = not float(p).is_integer()
    k = 4.0 / (p + 1.0)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if not hi > lo:
            continue
        if bend and c in (lo, hi):
            reach = hi - lo if lo == c else lo - hi

            def g(u, lo=lo, hi=hi, reach=reach):
                return u * u * u * d.pdf(min(max(c + reach * u**k, lo), hi))

            total += k * (hi - lo) ** (p + 1.0) * integrate(g, 0.0, 1.0)
        else:
            total += integrate(lambda x: abs(x - c) ** p * d.pdf(x), lo, hi)
    return total


def balance(d, lo: float, hi: float, a: float, r: float) -> float:
    """One-sided (r-1)-moments of [lo, hi] about a, left minus right."""
    return moment(d, lo, a, a, r - 1.0) - moment(d, a, hi, a, r - 1.0)

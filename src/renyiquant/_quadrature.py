"""Adaptive Simpson quadrature and scalar search helpers.

All integrands in this package are piecewise smooth on a compact interval,
with the kink locations known in advance, so a Simpson rule with interval
bisection and a Richardson correction is both simple and accurate.
"""

from __future__ import annotations

import math

__all__ = ["integrate", "bisect_increasing", "golden_extremum", "scan_extremum"]

DEFAULT_REL_TOL = 1e-10
DEFAULT_MAX_DEPTH = 40


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


def integrate(f, a, b, rel_tol=DEFAULT_REL_TOL, max_depth=DEFAULT_MAX_DEPTH, breakpoints=()):
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


def bisect_increasing(f, lo, hi, target=0.0, tol=None, max_iter=200):
    """Find x in [lo, hi] with f(x) == target for f nondecreasing.

    Returns the midpoint of the final bracket; the bracket endpoints are kept
    even when f evaluates exactly to the target, so ties resolve stably.
    """
    if tol is None:
        tol = 1e-13 * (hi - lo)
    a, b = lo, hi
    for _ in range(max_iter):
        if b - a <= tol:
            break
        m = 0.5 * (a + b)
        if f(m) < target:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_extremum(f, lo, hi, maximize, tol=None):
    """Golden-section search for an interior extremum of a unimodal section."""
    if tol is None:
        tol = 1e-12 * max(hi - lo, 1.0)
    sign = -1.0 if maximize else 1.0
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = sign * f(c), sign * f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = sign * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = sign * f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def scan_extremum(f, xs, vals, maximize):
    """Extremum of f from its values ``vals`` on the increasing grid ``xs``.

    A golden-section search refines between the neighbours of the best grid
    point; the grid value is kept when the refinement comes out less extreme.
    """
    i = int(vals.argmax() if maximize else vals.argmin())
    a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])
    best = float(vals[i])
    if not b > a:
        return best
    _, v = golden_extremum(f, a, b, maximize)
    return float(max(v, best) if maximize else min(v, best))

"""Plain-Python references for the batched quadrature.

``moment`` and ``balance`` give a density's cell moments one piece at a
time, by the Gauss rules of ``renyiquant._quadrature.gauss_jacobi`` and the
halving of ``moments_many``, and its sliver rule for a codepoint just past
a piece; ``renyiquant._quadrature.moments_many`` must follow them step for
step and give the same floats.  ``integrate`` is the same rule at p = 0,
the plain Gauss-Legendre pair, for any scalar integrand over an interval
cut at its breakpoints.  ``cdf`` and ``quantile`` build those of a
``SmoothDensity`` from it, one argument at a time.  ``bisect_increasing``
is the plain scalar bisection loop that ``_quadrature.bisect_many`` runs on
every bracket at once.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from renyiquant._quadrature import (DEFAULT_MAX_DEPTH, DEFAULT_REL_TOL, GAUSS_POINTS,
                                    PLAIN_POINTS, SLIVER, gauss_jacobi)


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
    part = integrate(d.pdf, float(d._edges[j]), x, d._rel_tol, d._max_depth)
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


def _gauss_piece(f, a, b, c, p, rel_tol, max_depth, depth=0, share=0.0):
    """Integral of |x - c|**p * f over the piece [a, b], c at one end or outside.

    At p = 0 it is (b - a) times a Gauss-Legendre rule of ``PLAIN_POINTS`` on
    f(a + (b - a) * t), whatever c is.  Otherwise, with c at one end, it is
    (b - a)**(p + 1) times a Gauss rule for t**p on f(c +- (b - a) * t), and
    else b - a times a Gauss-Legendre rule on |x - c|**p * f(a + (b - a) * t),
    both of ``GAUSS_POINTS``; each point is clamped into the piece.  The
    2n-point sum stands where it agrees with the n-point sum to rel_tol of
    itself or of the smallest normal float, whichever is larger, and, if it
    is below that float, where the pdf at both ends bounds the piece below
    it too; otherwise the piece is the sum of its halves.
    """
    if p == 0.0:
        c = a
    on = c in (a, b)
    start, reach = (b, a - b) if c == b else (a, b - a)
    scale = (b - a) ** (p + 1.0) if on else b - a
    n = PLAIN_POINTS if p == 0.0 else GAUSS_POINTS
    sums = []
    for k in (n, 2 * n):
        nodes, weights = gauss_jacobi(p if on else 0.0, k)
        total = 0.0
        for t, w in zip(nodes, weights):
            x = min(max(start + reach * t, a), b)
            v = f(x)
            if not math.isfinite(v):
                raise ValueError(f"integrand is not finite on [{a}, {b}]")
            total += w * (v if on else abs(x - c) ** p * v)
        sums.append(total * scale)
    few, many = sums
    if abs(many - few) <= rel_tol * max(abs(many), share, sys.float_info.min):
        if abs(many) >= sys.float_info.min:
            return many
        ends = f(a), f(b)
        if not all(map(math.isfinite, ends)):
            raise ValueError(f"integrand is not finite on [{a}, {b}]")
        if (b - a) * max(abs(a - c), abs(b - c)) ** p * max(ends) <= sys.float_info.min:
            return many
    if depth >= max_depth:
        what = "a cell moment" if p else "an integral"
        raise ValueError(f"{what} does not converge on [{a}, {b}]")
    m = 0.5 * (a + b)
    share = 0.5 * max(share, abs(many))
    return (_gauss_piece(f, a, m, c, p, rel_tol, max_depth, depth + 1, share)
            + _gauss_piece(f, m, b, c, p, rel_tol, max_depth, depth + 1, share))


def _moment_piece(f, a, b, c, p, rel_tol=DEFAULT_REL_TOL, max_depth=DEFAULT_MAX_DEPTH):
    """``_gauss_piece``, except that at p > 0 c less than SLIVER widths past
    an end takes the piece out to c less the sliver between that end and c."""
    gap = max(a - c, c - b)
    if p != 0.0 and 0.0 < gap < SLIVER * (b - a):
        sliver = (c, a) if c < a else (b, c)
        return (_gauss_piece(f, min(a, c), max(b, c), c, p, rel_tol, max_depth)
                - _gauss_piece(f, *sliver, c, p, rel_tol, max_depth))
    return _gauss_piece(f, a, b, c, p, rel_tol, max_depth)


def integrate(f, a, b, rel_tol=DEFAULT_REL_TOL, max_depth=DEFAULT_MAX_DEPTH, breakpoints=()):
    """Integrate the scalar f over [a, b], split at the given interior
    breakpoints, by the plain Gauss-Legendre pair; the pieces add left to
    right from 0.0."""
    if b < a:
        raise ValueError(f"empty integration range [{a}, {b}]")
    cuts = [a] + sorted(x for x in breakpoints if a < x < b) + [b]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi > lo:
            total += _moment_piece(f, lo, hi, lo, 0.0, rel_tol, max_depth)
    return total


def moment(d, s: float, t: float, c: float, p: float) -> float:
    """Integral of |x - c|**p against d over [s, t], clipped to the support of
    d (where the pdf vanishes) and split at its kinks and at c; the pieces
    add left to right from 0.0."""
    s, t = (min(max(v, d.support.lo), d.support.hi) for v in (s, t))
    inner = [x for x in d.interior_breakpoints() if s < x < t] + ([c] if s < c < t else [])
    cuts = [s] + sorted(inner) + [t]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi > lo:
            total += _moment_piece(d.pdf, lo, hi, c, p, d._rel_tol, d._max_depth)
    return total


def balance(d, lo: float, hi: float, a: float, r: float) -> float:
    """One-sided (r-1)-moments of [lo, hi] about a, left minus right."""
    return moment(d, lo, a, a, r - 1.0) - moment(d, a, hi, a, r - 1.0)

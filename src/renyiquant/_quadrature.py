"""Adaptive Simpson quadrature and scalar search helpers.

All integrands in this package are piecewise smooth on a compact interval,
with the kink locations known in advance, so a Simpson rule with interval
bisection and a Richardson correction is both simple and accurate.

The rule is the classic recursion: an interval whose two half-interval
Simpson sums differ from its own by more than 15 * eps splits into halves,
each with eps / 2, until ``max_depth``; a leaf returns its halves plus the
Richardson correction, and a split interval returns left + right.  One
kernel, ``integrate_many``, runs that recursion on many intervals at once,
level by level, with the same midpoints, sums, stop rule, depth cap and
order of additions, so each result equals the recursive one bit for bit
(``tests/reference_quadrature.py`` keeps the recursion as the reference).
The integrands stay scalar callables; ``call_each`` evaluates one over an
array, a Python float at a time.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "integrate",
    "integrate_many",
    "call_each",
    "bisect_increasing",
    "golden_extremum",
    "scan_extremum",
]

DEFAULT_REL_TOL = 1e-10
DEFAULT_MAX_DEPTH = 40
# Intervals refined together by integrate_many.  A block keeps the value of
# every node of its refinement trees until it adds them up, and its widest
# level sets the size of every temporary array, so this bounds the memory
# one call holds (a larger block saves a little numpy overhead per level).
BLOCK_INTERVALS = 48


def call_each(f, xs: np.ndarray) -> np.ndarray:
    """The scalar callable f at each entry of the 1-D float array xs."""
    return np.fromiter(map(f, xs.tolist()), float, count=len(xs))


def integrate_many(values, a, b, rel_tol=DEFAULT_REL_TOL, max_depth=DEFAULT_MAX_DEPTH):
    """Adaptive Simpson integral over each interval [a[i], b[i]].

    ``values(x, k)`` returns the integrand at the points ``x``, where x[j]
    lies in interval k[j], so each interval may have its own integrand.
    An empty interval (a[i] == b[i]) gives exactly 0.0.  The intervals go
    through in blocks of ``BLOCK_INTERVALS``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rel_tol, max_depth = float(rel_tol), int(max_depth)
    out = np.empty(len(a))
    for start in range(0, len(a), BLOCK_INTERVALS):
        block = slice(start, start + BLOCK_INTERVALS)
        k = np.arange(start, start + len(a[block]))
        out[block] = _refine(values, a[block], b[block], k, rel_tol, max_depth)
    return out


def _refine(values, a, b, k, rel_tol, max_depth):
    """integrate_many for one block: every tree refined a level at a time.

    A level holds the nodes at one recursion depth.  Each node ends as a
    leaf, whose value is its Richardson-corrected sum, or splits into two
    halves; the next level lists all left halves, then all right halves, in
    the order of the nodes that split.  Adding up runs from the deepest
    level back to the roots, each split node taking left + right.
    """
    n = len(a)
    m = 0.5 * (a + b)
    f = values(np.concatenate((a, m, b)), np.concatenate((k, k, k)))
    if not np.isfinite(f).all():
        i = int(np.isfinite(f.reshape(3, n)).all(axis=0).argmin())
        raise ValueError(f"integrand is not finite on [{a[i]}, {b[i]}]")
    fa, fm, fb = f[:n], f[n : 2 * n], f[2 * n :]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    eps = rel_tol * np.maximum(np.abs(whole), 1e-12)
    sums, splits = [], []
    for depth in range(max(max_depth, 0) + 1):
        m = 0.5 * (a + b)
        f = values(np.concatenate((0.5 * (a + m), 0.5 * (m + b))), np.concatenate((k, k)))
        flm, frm = f[:n], f[n:]
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        both = left + right
        delta = both - whole
        # Richardson correction: one extrapolation order for free
        sums.append(both + delta / 15.0)
        # a NaN delta splits, as in the recursion
        done = np.abs(delta) <= 15.0 * eps
        if depth >= max_depth or done.all():
            break
        split = np.nonzero(~done)[0]
        splits.append(split)
        # the left halves [a, m] of the split nodes, then their right halves [m, b]
        ms, fms = m[split], fm[split]
        a, b = np.concatenate((a[split], ms)), np.concatenate((ms, b[split]))
        fa, fb = np.concatenate((fa[split], fms)), np.concatenate((fms, fb[split]))
        fm = np.concatenate((flm[split], frm[split]))
        whole = np.concatenate((left[split], right[split]))
        eps = np.tile(0.5 * eps[split], 2)
        k = np.tile(k[split], 2)
        n = len(a)
    total = sums.pop()
    while sums:
        level, split = sums.pop(), splits.pop()
        half = len(split)
        level[split] = total[:half] + total[half:]
        total = level
    return total


def integrate(f, a, b, rel_tol=DEFAULT_REL_TOL, max_depth=DEFAULT_MAX_DEPTH, breakpoints=()):
    """Integrate the scalar callable f over [a, b], splitting at the given
    interior breakpoints; the pieces are added left to right."""
    if b < a:
        raise ValueError(f"empty integration range [{a}, {b}]")
    if b == a:
        return 0.0
    cuts = np.array([a] + sorted(x for x in breakpoints if a < x < b) + [b], dtype=float)
    lo, hi = cuts[:-1], cuts[1:]
    keep = hi > lo
    pieces = integrate_many(lambda x, k: call_each(f, x), lo[keep], hi[keep], rel_tol, max_depth)
    total = 0.0
    for piece in pieces.tolist():
        total += piece
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

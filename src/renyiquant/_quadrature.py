"""Quadrature, bisection, scalar search and log-sum-exp helpers.

All integrands in this package are piecewise smooth on a compact interval,
with the kink locations known in advance.  One engine integrates them all:
``moments_many``, pairs of Gauss rules (``gauss_jacobi``) on many pieces at
once, weighted by |x - c|**p at a codepoint c and plain at p = 0 (masses,
cdfs, ``integrate``), a piece halved where its rules disagree.  It raises
past its depth cap or work budget: it never truncates.  Every integrand is
a function of a 1-D array of points (``over_arrays``).
``bisect_many``, the one bisection loop, steps all brackets at once; given
a bracket known to hold each root, it asks only for the midpoints inside it,
for all brackets in one call.  A power sum that leaves the float range is
summed in logs: ``_log_of_sum`` does it for one sum, with ``math.log`` where
the sum is a normal float, and ``oracle._entropies`` row by row with
``np.log``, whose last bit may differ.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

_TINY = float(np.finfo(float).tiny)
DEFAULT_REL_TOL = 1e-10
DEFAULT_MAX_DEPTH = 40
# deepest halving allowed: at most 3 stack frames a level, well inside 1000
_DEPTH_LIMIT = 200
# Most pieces moments_many evaluates in one call of the integrand.  A wider
# level is cut into chunks of this width, each halved depth first, so a call
# holds a few levels of this width however many pieces it is given.
LEVEL_NODES = 1024
GAUSS_POINTS = 4  # the n of the weighted rules: n- and 2n-point, 3n pdf values a piece
PLAIN_POINTS = 2  # the n at p = 0; 4 would double the pdf values of a smooth sweep's cdf
# pdf values a moments_many call may spend per piece it is given: a smooth
# benchmark sweep takes at most 2,634, the steepest power integral tested 4,218
WORK_BUDGET = 100_000
# a codepoint this close past a piece, in its widths, takes the piece out to it
SLIVER = 2.0**-20


def _log_sum_exp(t: np.ndarray, top=None) -> np.ndarray:
    """log(sum of exp(t)) along the last axis; -inf entries add nothing.

    Each row needs a finite entry.  ``top``, the maximum of each row, may
    be passed in when the caller has it already.
    """
    if top is None:
        top = t.max(axis=-1)
    return top + np.log(np.exp(t - top[..., None]).sum(axis=-1))


def _normal_sums(sums):
    """True where a sum is finite and at least the smallest normal float.

    Only there is its plain log accurate; a power sum or integral outside
    this range has overflowed or underflowed and must be summed in logs.
    """
    return (sums >= _TINY) & (sums < np.inf)


def _log_of_sum(total: float, log_terms) -> float:
    """log of ``total``, the sum of exp over ``log_terms()``: math.log where total
    is a normal float, else the log-sum-exp of the terms, built only then."""
    if _normal_sums(total):
        return math.log(total)
    return float(_log_sum_exp(log_terms()))


def _exp_product(plain, log_terms) -> float:
    """A product of positive factors: ``plain()`` where it is a positive normal float,
    else e**(sum of ``log_terms()``, their logs), inf where that overflows."""
    with contextlib.suppress(OverflowError):  # from a float ** or math.exp
        value = plain()
        if _normal_sums(value):
            return value
    with contextlib.suppress(OverflowError):
        return math.exp(sum(log_terms()))
    return math.inf


def call_each(f, xs: np.ndarray) -> np.ndarray:
    """The scalar callable f at each entry of the 1-D float array xs: with
    math.exp or math.log, libm's bits, where numpy's may take a SIMD path
    that differs in the last one."""
    return np.fromiter(map(f, xs.tolist()), float, count=len(xs))


def with_array_form(many):
    """``many``, a pdf written as a function of a 1-D float array, marked so.

    Each entry must get the bits of the pdf's formula in Python floats: so
    ``many`` does only correctly rounded arithmetic in numpy, and takes powers
    with ``np.float_power`` (the C ``pow``, as ``**``), exp and log by ``call_each``.
    """
    many._array_form = True
    return many


def over_arrays(f):
    """f as a function of a 1-D float array: f itself if ``with_array_form``
    marked it, otherwise f called at each entry through ``call_each``."""
    return f if getattr(f, "_array_form", False) else lambda xs: call_each(f, xs)


@functools.lru_cache(maxsize=64)
def gauss_jacobi(beta: float, n: int):
    """Nodes and weights, as tuples, of the n-point Gauss rule for t**beta on [0, 1].

    It is exact on t**beta times a polynomial of degree below 2n.  The
    orthonormal P_k follow the shifted Jacobi recurrence (Golub & Welsch,
    Math. Comp. 1969) with c_k = 1 - d_k, so t - d_k stays accurate near 1.
    Each root of P_k is bisected to adjacent floats between two roots of
    P_(k-1), and weighs 1 / ((beta + 1) * sum of P_j(t)**2, j < n).  Only
    + - * / and sqrt are used, all correctly rounded: the same bits anywhere.
    """
    c, e = [1.0 / (beta + 2.0)], [0.0]
    for k in range(1, n + 1):
        s = 2.0 * k + beta
        c.append((2.0 * k * (k + beta + 1.0) + beta) / (s * (s + 2.0)))
        e.append(math.sqrt((k * k) * ((k + beta) * (k + beta)) / ((s * s) * (s + 1.0) * (s - 1.0))))

    def ortho(t, k):  # P_0(t), ..., P_k(t)
        v = [0.0, 1.0]
        for j in range(k):
            v.append(((c[j] - (1.0 - t)) * v[-1] - e[j] * v[-2]) / e[j + 1])
        return v[1:]

    roots = []
    for k in range(1, n + 1):
        ends, roots = [0.0, *roots, 1.0], []
        for lo, hi in zip(ends[:-1], ends[1:]):
            below = ortho(lo, k)[-1] < 0.0
            while lo < 0.5 * (lo + hi) < hi:
                m = 0.5 * (lo + hi)
                lo, hi = (m, hi) if (ortho(m, k)[-1] < 0.0) == below else (lo, m)
            roots.append(min((lo, hi), key=lambda t: abs(ortho(t, k)[-1])))
    return tuple(roots), tuple(1.0 / ((beta + 1.0) * math.fsum(v * v for v in ortho(t, n - 1)))
                              for t in roots)


def moments_many(f, a, b, c, p, rel_tol=DEFAULT_REL_TOL, max_depth=DEFAULT_MAX_DEPTH):
    """Integral of |x - c[k]|**p * f(x) over each piece [a[k], b[k]], p >= 0.

    ``a``, ``b`` and ``c`` are 1-D of one length with a[k] <= b[k]; an empty
    piece gives exactly 0.0.  At p = 0, c plays no part: a piece of width h
    is h times the integral of f(a + h * t) on [0, 1], by the Gauss-Legendre
    rules of ``PLAIN_POINTS``.  Else c[k] is an end of its piece or outside
    it, and with c at an end the piece is h**(p + 1) times the integral of
    t**p * f(c +- h * t), by the ``gauss_jacobi`` rules for t**p of
    ``GAUSS_POINTS``, and otherwise h times that of |x - c|**p * f(a + h * t).
    A piece keeps its 2n-point sum Q where the n-point one is within
    ``rel_tol`` of the largest of |Q|, its share of the piece it was halved
    from (half of that one's |Q| or share) and the smallest normal float,
    and, as no node lies on an end, where Q is a normal float or the pdf at
    both ends bounds the piece below one (a pdf that is 0 at every node and
    at both ends, but not between, reads 0).  Else it adds up its halves, or
    raises ValueError past ``max_depth`` halvings or ``WORK_BUDGET`` pdf
    values per piece given.  A level calls the array function f once per
    ``LEVEL_NODES`` pieces and adds elementwise, so a piece gets the bits of
    a call on it.  A piece that c[k] lies past by less than SLIVER widths is
    taken out to c[k], which its rules would halve towards, less the sliver.
    """
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    if a.ndim != 1 or not a.shape == b.shape == c.shape or not (a <= b).all():
        raise ValueError("moments_many needs 1-D piece ends of one length with a <= b")
    if int(max_depth) > _DEPTH_LIMIT:
        raise ValueError(f"max_depth must be at most {_DEPTH_LIMIT}, got {max_depth!r}")
    p = float(p)
    c = a if p == 0.0 else c  # at p = 0 every piece runs from a
    gap = np.maximum(a - c, c - b)
    near = (gap > 0.0) & (gap < SLIVER * (b - a))
    if near.any():
        # out to c, then the sliver between the end and c taken off
        out = moments_many(f, np.where(near, np.minimum(a, c), a),
                           np.where(near, np.maximum(b, c), b), c, p, rel_tol, max_depth)
        out[near] -= moments_many(f, np.where(c < a, c, b)[near], np.where(c < a, a, c)[near],
                                  c[near], p, rel_tol, max_depth)
        return out
    rule = _rule(p, PLAIN_POINTS if p == 0.0 else GAUSS_POINTS)
    job = [float(rel_tol), int(max_depth), WORK_BUDGET * len(a),
           "a cell moment" if p else "an integral"]
    return _gauss_pieces(f, a, b, c, np.zeros(len(a)), p, rule, job, 0) if len(a) else np.zeros(0)


@functools.lru_cache(maxsize=64)
def _rule(p, n):
    """Nodes and weights, only read: n-point rows, then 2n; columns for t**p, t**0."""
    return [np.column_stack([np.concatenate([gauss_jacobi(beta, k)[i] for k in (n, 2 * n)])
                             for beta in (p, 0.0)]) for i in (0, 1)]


def _gauss_pieces(f, a, b, c, share, p, rule, job, depth):
    """``moments_many`` on one level of pieces and their shares, halving those that do not
    converge.  ``job``: the tolerance, depth cap, pdf values left and what is integrated."""
    if len(a) > LEVEL_NODES:
        parts = [slice(k, k + LEVEL_NODES) for k in range(0, len(a), LEVEL_NODES)]
        return np.concatenate([_gauss_pieces(f, a[k], b[k], c[k], share[k], p, rule, job, depth)
                               for k in parts])
    n = len(rule[0]) // 3
    rel_tol, max_depth, _, what = job

    def values(x, k):
        # f at the points x, a column for each piece k, charged to the budget
        job[2] -= x.size
        if job[2] < 0:
            raise ValueError(f"{what} takes more than {WORK_BUDGET} pdf values a piece; "
                             f"it was halving [{a[0]}, {b[0]}]")
        g = f(x.ravel()).reshape(x.shape)
        if not np.isfinite(g).all():
            i = k[int(np.isfinite(g).all(axis=0).argmin())]
            raise ValueError(f"integrand is not finite on [{a[i]}, {b[i]}]")
        return g

    h = b - a
    if p == 0.0:  # c is a: every piece runs from a, with weight 1
        on, start, step, off = True, a, h, ()
    else:
        on, at_b = (a == c) | (b == c), b == c
        # a piece with c at b runs from b towards a
        start, step, off = np.where(at_b, b, a), np.where(at_b, -h, h), np.flatnonzero(~on)
    # the rules for t**p on the pieces at c, for t**0 on the others
    t, w = (u[:, :1] if len(off) == 0 else np.where(on, u[:, :1], u[:, 1:]) for u in rule)
    x = np.minimum(np.maximum(start + step * t, a), b)
    g = values(x, range(len(a)))
    with np.errstate(over="ignore", invalid="ignore"):
        wg, scale = g * w, h if p == 0.0 else np.where(on, np.float_power(h, p + 1.0), h)
        if len(off):
            # the weight |x - c|**p, only on the pieces that c is not at
            wg[:, off] = np.float_power(np.abs(x[:, off] - c[off]), p) * g[:, off] * w[:, off]
        few, many = (functools.reduce(np.add, rows) * scale for rows in (wg[:n], wg[n:]))
        size, apart = np.abs(many), np.abs(many - few)
    if not np.isfinite(apart).all():
        raise ValueError(f"{what} overflows; reduce r or the cell widths")
    split = ~(apart <= rel_tol * np.maximum(np.maximum(size, share), _TINY))
    faint = np.flatnonzero(~split & (size < _TINY)) if size.min() < _TINY else []
    if len(faint):
        ends = values(np.stack((a[faint], b[faint])), faint)
        reach = np.maximum(np.abs(a - c), np.abs(b - c))[faint]
        with np.errstate(over="ignore"):
            # the pdf at an end, times the largest |x - c|**p and the width
            split[faint] = ~(h[faint] * np.float_power(reach, p) * ends.max(axis=0) <= _TINY)
    split = np.flatnonzero(split)
    if len(split) == 0:
        return many
    if depth >= max_depth:
        raise ValueError(f"{what} does not converge on [{a[split[0]]}, {b[split[0]]}]")
    m, share = 0.5 * (a + b), 0.5 * np.maximum(share, size)
    halves = [np.concatenate((u[split], v[split]))
              for u, v in ((a, m), (m, b), (c, c), (share, share))]
    del x, g, wg, t, w, on, start, step, h, scale, few, size, m, share  # gone before the next level
    sums = _gauss_pieces(f, *halves, p, rule, job, depth + 1)
    many[split] = sums[: len(split)] + sums[len(split):]
    return many


def integrate(f, a, b, rel_tol=DEFAULT_REL_TOL, max_depth=DEFAULT_MAX_DEPTH, breakpoints=()):
    """Integrate f, a function of a 1-D array of points, over [a, b] cut at the
    interior breakpoints: one ``moments_many`` call at p = 0, added left to right."""
    if b < a:
        raise ValueError(f"empty integration range [{a}, {b}]")
    cuts = np.unique([a, b, *(x for x in breakpoints if a < x < b)])
    total = 0.0
    for piece in moments_many(f, cuts[:-1], cuts[1:], cuts[:-1], 0.0, rel_tol, max_depth).tolist():
        total += piece
    return total


def bisect_increasing(f, lo, hi, target, tol, max_iter=200):
    """x in [lo, hi] with f(x) == target for f nondecreasing: ``bisect_many`` on the
    one bracket, to width ``tol``.  It does not stop where f meets the target
    exactly, so ties resolve stably."""
    return float(bisect_many(lambda m, k: np.array([f(float(m[0])) < target]),
                             [lo], [hi], tol, max_iter)[0])


def bisect_many(below, lo, hi, tol, max_iter=200, known=None):
    """Bisect every bracket [lo[k], hi[k]] at once, a step at a time, to the
    midpoint of its last bracket: it keeps [m, hi] where f_k(m) < target_k,
    else [lo, m], and stops at width ``tol`` (a scalar or one per bracket),
    after ``max_iter`` steps, or once a step leaves it as it was (its midpoint
    rounds onto the end it replaces): every later step would repeat that one.
    ``below(m, k)`` gets the midpoints m of brackets k and returns, for
    each, whether f_k(m) < target_k; without ``known`` it is asked for every
    open bracket at every step.  ``known = (xa, xb)`` says that
    f_k(xa[k]) < target_k <= f_k(xb[k]), so a midpoint at or left of xa[k]
    is below and one at or right of xb[k] is not.  The brackets then step on
    by these answers while they can, and ``below`` is asked only once every
    open bracket waits on a midpoint strictly inside its (xa[k], xb[k]), for
    all of them in one call.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    # the open brackets: their indices k, ends, tolerances and steps taken
    k, al, bl = np.arange(len(a)), a, b
    tl = np.broadcast_to(np.asarray(tol, dtype=float), a.shape)
    xa, xb = known if known is not None else (al, bl)  # placeholders without known
    steps = np.zeros(len(a), dtype=int)
    while True:
        # a bracket stops where b - a <= tol, so a NaN width keeps going
        go_on = ~(bl - al <= tl) & (steps < max_iter)
        if not go_on.all():
            a[k], b[k] = al, bl
            k, al, bl, tl, xa, xb, steps = (v[go_on] for v in (k, al, bl, tl, xa, xb, steps))
        if len(k) == 0:
            return 0.5 * (a + b)
        m = 0.5 * (al + bl)
        move = True
        if known is None:
            go = below(m, k)
        else:
            go = m <= xa
            wait = ~go & (m < xb)
            if wait.all():
                go = below(m, k)
            else:
                move = ~wait
        # a step onto an end changes nothing, nor would any later one
        same = move & np.where(go, m == al, m == bl)
        al = np.where(move & go, m, al)
        bl = np.where(move & ~go, m, bl)
        steps = np.where(same, max_iter, steps + move)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_extremum(f, lo, hi, maximize):
    """Golden-section search for an interior extremum of a unimodal section."""
    tol = 1e-12 * max(hi - lo, 1.0)
    sign = -1.0 if maximize else 1.0
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = sign * f(c), sign * f(d)
    width = math.inf
    # a step that leaves the bracket as wide ends it: its ends are a few floats apart
    while tol < b - a < width:
        width = b - a
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

"""Quadrature, bisection, scalar search and log-sum-exp helpers.

All integrands in this package are piecewise smooth on a compact interval,
with the kink locations known in advance.  Masses, cdfs and power integrals
use adaptive Simpson with a Richardson correction: ``integrate_many`` runs
the classic recursion on many intervals at once, a level of nodes at a time,
with its sums and additions, so each result equals it bit for bit
(``tests/reference_quadrature.py`` keeps the references).  Cell moments take
|x - c|**p as the weight of Gauss rules (``gauss_jacobi``) on the pieces at
the codepoint c, where it is singular; ``moments_many`` halves a piece until
its n- and 2n-point rules agree.  Every integrand is a function of a 1-D
array of points: the smooth families give their pdfs an array form that
equals the scalar pdf bit for bit, and ``over_arrays`` maps any other scalar
pdf over an array with ``call_each``.
``bisect_many`` runs one ``bisect_increasing`` per bracket, all brackets a
step at a time; given a bracket known to hold each root, it asks only for
the midpoints inside it, for all brackets in one call.  A power sum that
leaves the float range is summed in logs: ``_log_of_sum`` does it for one
sum, with ``math.log`` where the sum is a normal float, and
``oracle._entropies`` row by row with ``np.log``, whose last bit may differ.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "integrate",
    "integrate_many",
    "gauss_jacobi",
    "moments_many",
    "call_each",
    "with_array_form",
    "over_arrays",
    "bisect_increasing",
    "bisect_many",
    "golden_extremum",
    "scan_extremum",
]

_TINY = float(np.finfo(float).tiny)
DEFAULT_REL_TOL = 1e-10
DEFAULT_MAX_DEPTH = 40
# deepest refinement allowed: at most 3 stack frames a level, well inside 1000
_DEPTH_LIMIT = 200
# Most nodes integrate_many refines in one step.  A wider level is cut into
# near-equal chunks, each refined depth first, so an integrand call gets at
# most 3 * LEVEL_NODES points (3 per root, 2 per node below) and a call holds
# a few levels of this width however large its trees.  Wider saves numpy
# overhead per level (at 2048 a smooth sweep's peak resident set is 1% more).
LEVEL_NODES = 1024
GAUSS_POINTS = 4  # the n of moments_many: n- and 2n-point rules, 3n pdf values a piece
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


def call_each(f, xs: np.ndarray) -> np.ndarray:
    """The scalar callable f at each entry of the 1-D float array xs."""
    return np.fromiter(map(f, xs.tolist()), float, count=len(xs))


def with_array_form(f, many):
    """The scalar callable f, carrying ``many``, its form over 1-D float arrays.

    ``many`` must give f's bits at every point, and raise where f raises.  So
    it does only correctly rounded arithmetic in numpy and takes powers with
    ``np.float_power``, which calls the C ``pow`` as Python's ``**`` does.
    """
    f._array_form = many
    return f


def over_arrays(f):
    """f as a function of a 1-D float array: its array form if it carries
    one, otherwise f called at each entry through ``call_each``."""
    many = getattr(f, "_array_form", None)
    return many if many is not None else lambda xs: call_each(f, xs)


def integrate_many(f, a, b, rel_tol=DEFAULT_REL_TOL, max_depth=DEFAULT_MAX_DEPTH):
    """Adaptive Simpson integral of f over each interval [a[i], b[i]].

    ``f(x)`` returns the integrand at each entry of the 1-D array x.
    ``a`` and ``b`` are 1-D of one length with a[i] <= b[i]; an empty
    interval (a[i] == b[i]) gives exactly 0.0.  Each refinement level takes
    a stack frame, so ``max_depth`` above ``_DEPTH_LIMIT`` raises ValueError.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape or not (a <= b).all():
        raise ValueError("integrate_many needs 1-D interval ends of one length with a <= b")
    if int(max_depth) > _DEPTH_LIMIT:
        raise ValueError(f"max_depth must be at most {_DEPTH_LIMIT}, got {max_depth!r}")
    m = 0.5 * (a + b)
    v = np.empty((3, len(a)))
    for part in _chunks(len(a)):
        v[:, part] = f(np.concatenate((a[part], m[part], b[part]))).reshape(3, -1)
    if not np.isfinite(v).all():
        i = int(np.isfinite(v).all(axis=0).argmin())
        raise ValueError(f"integrand is not finite on [{a[i]}, {b[i]}]")
    whole = (b - a) / 6.0 * (v[0] + 4.0 * v[1] + v[2])
    level = [a, b, *v, whole, float(rel_tol) * np.maximum(np.abs(whole), 1e-12)]
    del a, b, m, v, whole
    return _refine(f, level, 0, int(max_depth))


def _chunks(n):
    """Near-equal slices covering range(n), none longer than LEVEL_NODES."""
    parts = -(-n // LEVEL_NODES)
    return [slice(n * i // parts, n * (i + 1) // parts) for i in range(parts)]


def _refine(f, level, depth, max_depth):
    """The sums of one level's nodes at ``depth``, each tree refined below it.

    ``level`` lists the nodes' [a, b, fa, fm, fb, whole, eps] and is
    emptied, so its arrays go before the next level is refined; a level
    wider than ``LEVEL_NODES`` goes in chunks, views that hold it to the
    last.  A leaf takes its Richardson sum; the nodes that split make the
    next level, left halves then right halves, and take left + right.
    """
    if len(level[0]) > LEVEL_NODES:
        parts = [[x[part] for x in level] for part in _chunks(len(level[0]))]
        level.clear()
        return np.concatenate([_refine(f, nodes, depth, max_depth) for nodes in parts])
    a, b, fa, fm, fb, whole, eps = level
    level.clear()
    m = 0.5 * (a + b)
    flm, frm = f(np.concatenate((0.5 * (a + m), 0.5 * (m + b)))).reshape(2, -1)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    both = left + right
    delta = both - whole
    # Richardson correction: one extrapolation order for free
    total = both + delta / 15.0
    # a NaN delta splits, as in the recursion
    split = np.flatnonzero(~(np.abs(delta) <= 15.0 * eps))
    if depth >= max_depth or len(split) == 0:
        return total
    # the left halves [a, m] of the split nodes, then their right halves [m, b]
    halves = [np.concatenate((x[split], y[split])) for x, y in ((a, m), (m, b), (fa, fm),
              (flm, frm), (fm, fb), (left, right), (0.5 * eps, 0.5 * eps))]
    del a, b, fa, fm, fb, whole, eps, m, flm, frm, left, right, both, delta
    sums = _refine(f, halves, depth + 1, max_depth)
    total[split] = sums[: len(split)] + sums[len(split) :]
    return total


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


def moments_many(f, a, b, c, p):
    """Integral of |x - c[k]|**p * f(x) over each piece [a[k], b[k]], p >= 0.

    c[k] is an end of its piece or outside it.  A piece of width h with c at
    an end is h**(p + 1) times the integral of t**p * f(c +- h * t) on
    [0, 1], by the ``gauss_jacobi`` rules for t**p; any other is h times that
    of |x - c|**p * f(a + h * t), by those for t**0.  A piece keeps its
    2n-point sum Q where the n-point one is within DEFAULT_REL_TOL of |Q| or
    of the smallest normal float, and, as no node lies on an end, where Q is
    a normal float or the pdf at both ends bounds the piece below one.  Else
    it adds up its halves, or raises ValueError past DEFAULT_MAX_DEPTH
    halvings.  A level calls the array function f once per ``LEVEL_NODES``
    pieces and adds elementwise, so a piece gets the bits of a call on it.
    Where c[k] lies past an end by less than SLIVER widths, the plain rules
    would halve towards it about log2(width / gap) times: the piece is taken
    out to c[k] instead, less the sliver between that end and c[k].
    """
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    gap = np.maximum(a - c, c - b)
    near = (gap > 0.0) & (gap < SLIVER * (b - a))
    if near.any():
        # out to c, then the sliver between the end and c taken off
        out = moments_many(f, np.where(near, np.minimum(a, c), a),
                           np.where(near, np.maximum(b, c), b), c, p)
        out[near] -= moments_many(f, np.where(c < a, c, b)[near], np.where(c < a, a, c)[near],
                                  c[near], p)
        return out
    n, p = GAUSS_POINTS, float(p)
    # rows: the n-point rule, then the 2n-point one; columns: for t**p, for t**0
    rule = [np.column_stack([np.concatenate([gauss_jacobi(beta, k)[i] for k in (n, 2 * n)])
                             for beta in (p, 0.0)]) for i in (0, 1)]
    return _gauss_pieces(f, a, b, c, p, rule, 0) if len(a) else np.zeros(0)


def _gauss_pieces(f, a, b, c, p, rule, depth):
    """``moments_many`` on the pieces of one level, those that do not converge halved below it."""
    if len(a) > LEVEL_NODES:
        return np.concatenate([_gauss_pieces(f, a[s], b[s], c[s], p, rule, depth)
                               for s in _chunks(len(a))])
    (nodes, weights), n = rule, GAUSS_POINTS
    on, at_b, h = (a == c) | (b == c), b == c, b - a
    # a piece with c at b runs from b towards a
    x = np.where(at_b, b, a) + np.where(at_b, -h, h) * np.where(on, nodes[:, :1], nodes[:, 1:])
    x = np.clip(x, a, b)
    g = f(x.ravel()).reshape(x.shape)
    if not np.isfinite(g).all():
        i = int(np.isfinite(g).all(axis=0).argmin())
        raise ValueError(f"integrand is not finite on [{a[i]}, {b[i]}]")
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.where(on, g, np.float_power(np.abs(x - c), p) * g)
        g *= np.where(on, weights[:, :1], weights[:, 1:])
        scale = np.where(on, np.float_power(h, p + 1.0), h)
        few, many = (functools.reduce(np.add, rows) * scale for rows in (g[:n], g[n:]))
    if not np.isfinite([few, many]).all():
        raise ValueError("a cell moment overflows; reduce r or the cell widths")
    size = np.abs(many)
    split = ~(np.abs(many - few) <= DEFAULT_REL_TOL * np.maximum(size, _TINY))
    faint = np.flatnonzero(~split & (size < _TINY)) if size.min() < _TINY else []
    if len(faint):
        ends = f(np.concatenate((a[faint], b[faint]))).reshape(2, -1)
        if not np.isfinite(ends).all():
            i = faint[int(np.isfinite(ends).all(axis=0).argmin())]
            raise ValueError(f"integrand is not finite on [{a[i]}, {b[i]}]")
        reach = np.maximum(np.abs(a - c), np.abs(b - c))[faint]
        with np.errstate(over="ignore"):
            # the pdf at an end, times the largest |x - c|**p and the width
            split[faint] = ~(h[faint] * np.float_power(reach, p) * ends.max(axis=0) <= _TINY)
    split = np.flatnonzero(split)
    if len(split) == 0:
        return many
    if depth == DEFAULT_MAX_DEPTH:
        raise ValueError(f"a cell moment does not converge on [{a[split[0]]}, {b[split[0]]}]")
    m = 0.5 * (a + b)
    halves = [np.concatenate((u[split], v[split])) for u, v in ((a, m), (m, b), (c, c))]
    sums = _gauss_pieces(f, *halves, p, rule, depth + 1)
    many[split] = sums[: len(split)] + sums[len(split):]
    return many


def integrate(f, a, b, rel_tol=DEFAULT_REL_TOL, max_depth=DEFAULT_MAX_DEPTH, breakpoints=()):
    """Integrate f, a function of a 1-D array of points, over [a, b],
    splitting at the given interior breakpoints; the pieces are added left
    to right."""
    if b < a:
        raise ValueError(f"empty integration range [{a}, {b}]")
    if b == a:
        return 0.0
    cuts = np.unique([a, b, *(x for x in breakpoints if a < x < b)])
    pieces = integrate_many(f, cuts[:-1], cuts[1:], rel_tol, max_depth)
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


def bisect_many(below, lo, hi, tol, max_iter=200, known=None):
    """``bisect_increasing`` on every bracket [lo[k], hi[k]] at once, step for step.

    Bracket k gets the midpoints, comparisons, tolerance ``tol`` (a scalar
    or one per bracket) and iteration cap of its own scalar call, except
    that a bracket stops once a step leaves it as it was (its midpoint
    rounds onto the end it replaces): every later step would repeat that
    one.  ``below(m, k)`` gets the midpoints m of brackets k and returns, for
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
        # the scalar loop stops where b - a <= tol, so a NaN width keeps going
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


def golden_extremum(f, lo, hi, maximize, tol=None):
    """Golden-section search for an interior extremum of a unimodal section."""
    if tol is None:
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

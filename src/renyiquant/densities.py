"""One-dimensional source densities on compact intervals.

Two families are supported: piecewise-constant densities, for which every
integral used by the library has a closed form, and smooth densities backed
by one Gauss quadrature engine (``_quadrature.moments_many``).  Both expose
the same small surface: ``pdf``, ``cdf`` and ``quantile`` (the generalized
inverse of the cdf), power and log-moment integrals, essential bounds, and
similarity transforms.  ``cdf`` and ``quantile`` take a scalar or a whole
array of arguments and treat the array in one pass: a piecewise density in
closed form, a smooth one with one batched quadrature call per cdf, and
per step of one safeguarded Newton iteration that moves every quantile
argument together.  A sweep over level counts designs its point
density once and, when the level counts are nested, asks it for each
expander value once (see ``compander.Compander``).

Every formula that differs between the families lives here: each class
has the private methods ``_cell_masses``, ``_moment_terms``, ``_cell_terms``
(both, one walk for a piecewise density), ``_power_density`` and
``_log_power_integral``, and each carries its JSON ``spec`` (None for a
caller's smooth pdf).  The family is tested only in ``_pair_cut``, which
gives the functions of two densities the shared support, the kinks in it
and, for two piecewise densities, the common refinement on which their
closed forms run.  Codepoint balances are moments of power r - 1, so
``quantizer`` takes them from ``_moment_terms``.

Densities are immutable; all caches, ``support`` among them, are built
eagerly in ``__init__``, so a pdf that is not a density is refused there
and every later call only reads them.

Two rules on densities are written once, here, for the whole package: how far
an end may miss its mate on a span of width w (``_span_tol``, 1e-12 * max(w, 1))
and that a density is bounded away from zero where a negative power of it is
taken (``_ess_inf``, which refuses an essential infimum that is not positive,
NaN included).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from ._quadrature import (DEFAULT_MAX_DEPTH, DEFAULT_REL_TOL, _log_of_sum, _log_sum_exp,
                          _normal_sums, call_each, integrate, moments_many, over_arrays,
                          scan_extremum, with_array_form)

__all__ = [
    "Interval",
    "PiecewiseConstantDensity",
    "SmoothDensity",
    "Density",
    "uniform",
    "truncated_gauss",
    "truncated_laplace",
    "require_nested_supports",
    "density_from_spec",
    "density_to_spec",
]

MASS_TOL = 1e-12
ESS_SCAN_POINTS = 4096
SPLIT_EDGES = 1024  # a second ``pieces`` call in ``_piece_terms`` costs about this many edges


@dataclass(frozen=True, order=True)
class Interval:
    """Closed bounded interval [lo, hi] with lo < hi and a finite width."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if not lo < hi:
            raise ValueError(f"interval must satisfy lo < hi, got [{lo}, {hi}]")
        if hi - lo == math.inf:
            raise ValueError(f"interval width overflows, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


def _arguments(x, ok, rule: str):
    """``x`` as a float, or a float array if it has any dimensions, after
    checking that ``ok`` holds for every entry; ValueError stating ``rule``
    otherwise."""
    if isinstance(x, (float, int)) or np.ndim(x) == 0:
        x = float(x)
        if not ok(x):
            raise ValueError(f"{rule}, got {x!r}")
        return x
    xs = np.asarray(x, dtype=float)
    bad = ~ok(xs)
    if bad.any():
        raise ValueError(f"{rule}, got {float(xs[bad][0])!r}")
    return xs


def _not_nan(x, name="cdf argument"):
    return _arguments(x, lambda v: v == v, f"{name} must not be NaN")


def _unit_arguments(u):
    return _arguments(u, lambda v: (0.0 <= v) & (v <= 1.0), "quantile argument must lie in [0, 1]")


def _positive_scale(c):
    """c, refused unless it is positive."""
    if not c > 0:
        raise ValueError(f"scale must be positive, got {c!r}")
    return c


def _span_tol(width: float) -> float:
    """How far an end may miss its mate on a span of this width: 1e-12 of the
    width, and at least 1e-12."""
    return 1e-12 * max(width, 1.0)


def _ess_inf(d, message: str) -> float:
    """The essential infimum of d; ValueError(message) unless it is positive."""
    lo = d.ess_bounds()[0]
    if not lo > 0.0:
        raise ValueError(message)
    return lo


class PiecewiseConstantDensity:
    """Density that is constant on finitely many abutting segments.

    Segment i covers (breakpoints[i-1], breakpoints[i]]; the first segment is
    closed on the left.  All heights are strictly positive and the total mass
    must equal 1 within a strict tolerance.
    """

    def __init__(self, breakpoints: Sequence[float], heights: Sequence[float]):
        b = np.ascontiguousarray(breakpoints, dtype=float)
        h = np.ascontiguousarray(heights, dtype=float)
        if b.ndim != 1 or h.ndim != 1 or len(b) != len(h) + 1 or len(h) < 1:
            raise ValueError("need m+1 breakpoints for m >= 1 heights")
        with np.errstate(over="ignore", invalid="ignore"):
            lens = b[1:] - b[:-1]
            total = float(np.dot(h, lens))
        # positive widths and heights with a finite mass leave no entry
        # infinite or NaN, so a valid density passes on these three reductions;
        # a failing one runs the checks one by one, for the first message that applies
        if not (lens.min() > 0.0 and h.min() > 0.0 and abs(total - 1.0) <= MASS_TOL):
            if not (np.isfinite(b).all() and np.isfinite(h).all()):
                raise ValueError("breakpoints and heights must be finite")
            if (lens <= 0.0).any():
                raise ValueError("breakpoints must be strictly increasing")
            if (h <= 0.0).any():
                raise ValueError("heights must be strictly positive")
            raise ValueError(f"total mass must be 1 within {MASS_TOL}, got {total!r}")
        b.flags.writeable = False
        h.flags.writeable = False
        self.breakpoints = b
        self.heights = h
        self._lens = lens
        self._support = Interval(float(b[0]), float(b[-1]))
        # heights with a 0 on either side: entry j + 1 for segment j
        self._padded = np.zeros(len(h) + 2)
        self._padded[1:-1] = h
        self._cum = np.zeros(len(b))
        np.cumsum(h * lens, out=self._cum[1:])
        self._cum[-1] = 1.0

    @property
    def support(self) -> Interval:
        return self._support

    def interior_breakpoints(self):
        return [float(x) for x in self.breakpoints[1:-1]]

    def pdf(self, x: float) -> float:
        return float(self._pdf_values(np.float64(_not_nan(x, "pdf argument"))))

    def _pdf_values(self, xs: np.ndarray) -> np.ndarray:
        """``pdf`` at each entry of the array xs."""
        # segment k owns (b[k], b[k+1]], segment 0 also b[0]
        b = self.breakpoints
        return np.where((xs < b[0]) | (xs > b[-1]), 0.0, self.heights[b[1:-1].searchsorted(xs)])

    def cdf(self, x):
        """Mass at or left of x, exact.

        ``x`` may be a scalar, giving a float, or an array, giving an array
        of the same shape.
        """
        xs = _not_nan(x)
        b, cum = self.breakpoints, self._cum
        # outside the support the clipped value is replaced below
        inside = np.clip(xs, b[0], b[-1])
        j = np.minimum(np.searchsorted(b, inside, side="right") - 1, len(self.heights) - 1)
        bj = b[j]
        v = np.where(bj == inside, cum[j], cum[j] + self.heights[j] * (inside - bj))
        v = np.where(xs <= b[0], 0.0, np.where(xs >= b[-1], 1.0, v))
        return float(v) if isinstance(xs, float) else v

    def quantile(self, u):
        """Largest x with cdf(x) <= u; exact segment inversion.

        ``u`` may be a scalar, giving a float, or an array, giving an array
        of the same shape.
        """
        us = _unit_arguments(u)
        b, cum = self.breakpoints, self._cum
        # u >= 1 may land past the last segment; it takes b[-1] below
        j = np.minimum(np.searchsorted(cum, us, side="right") - 1, len(self.heights) - 1)
        cj, bj = cum[j], b[j]
        v = np.where(us >= 1.0, b[-1], np.where(cj == us, bj, bj + (us - cj) / self.heights[j]))
        return float(v) if isinstance(us, float) else v

    def power_integral(self, p: float) -> float:
        """Integral of pdf**p over the support; at a large |p| it may overflow or underflow."""
        with np.errstate(over="ignore"):
            return float(np.dot(self.heights ** float(p), self._lens))

    def log_integral(self) -> float:
        """Integral of pdf * log(pdf) over the support."""
        return float(np.dot(self.heights * np.log(self.heights), self._lens))

    def ess_bounds(self):
        return float(self.heights.min()), float(self.heights.max())

    def _piece_terms(self, lo, hi, first, count, pieces) -> np.ndarray:
        """Closed-form integrals over the pieces of many cells [lo[k], hi[k]].

        Cell k's edges are lo[k], its ``count[k]`` inner breakpoints from
        ``first[k]`` on, then hi[k] repeated; piece j takes the height
        ``_padded[first + j]`` (0 outside the support).  Row k holds its
        pieces left to right, with an exact 0.0 for an empty piece or one of
        height 0.  ``pieces(edges, h, rows)`` gets the edges of the cells
        ``rows``, a row each, and the piece heights, and returns each piece's
        integral, or a pair of matrices that the walk keeps apart.  Where few
        cells hold a breakpoint, every cell passes edges 0 and 1 and only
        those few the rest, so a cell with none is one piece.
        """
        x = self.breakpoints

        def window(rows, i):
            # edges i[0] .. i[-1] of the cells rows (edge 0 is lo), built as
            # rows of the transpose so the long loops run down its columns;
            # padding slots read a clipped index, then take hi
            f, j = first[rows], i[:, None]
            edges = np.where(j <= count[rows], x.take(f + (j - 1), mode="clip"), hi[rows])
            if i[0] == 0:
                edges[0] = lo[rows]
            h = self._padded.take(f + j[:-1], mode="clip").T
            return np.where(h > 0.0, pieces(edges.T, h, rows), 0.0)

        w = count.max(initial=0) + 1
        with np.errstate(over="ignore", invalid="ignore"):
            # padding every row passes n * (w + 1) edges, the split 2 * n + k * w
            if (w - 1) * len(lo) <= np.count_nonzero(count) * w + SPLIT_EDGES:
                return window(slice(None), np.arange(w + 1))
            head = window(slice(None), np.arange(2))
            terms = np.zeros(head.shape[:-1] + (w,))
            terms[..., :1] = head
            rows = np.flatnonzero(count)
            terms[..., rows, 1:] = window(rows, np.arange(1, w + 1))
        return terms

    def _placed(self, bounds: np.ndarray):
        """``first`` and ``count`` of the cells between consecutive entries of the
        increasing ``bounds``: the breakpoints placed among the ends, then counted."""
        left = bounds.searchsorted(self.breakpoints)  # the ends below each breakpoint
        right = left + (bounds.take(left, mode="clip") == self.breakpoints)
        first, last = (np.bincount(v, minlength=len(bounds) + 1).cumsum() for v in (left, right))
        return first[:-2], last[1:-1] - first[:-2]

    def _cell_masses(self, bounds: np.ndarray) -> np.ndarray:
        """Mass of each cell between consecutive entries of ``bounds``."""
        # add each cell up from its pieces: no cancellation, so even tiny
        # masses keep full relative accuracy
        return _cell_sums(self._piece_terms(bounds[:-1], bounds[1:], *self._placed(bounds),
                                            _mass_pieces))

    def _moment_terms(self, lo, hi, c, p: float) -> np.ndarray:
        """Integral of |x - c[k]|**p dmu over each piece of each cell [lo[k], hi[k]],
        a row of pieces per cell, left to right; ``_cell_sums`` adds them up."""
        lo, hi, c = (np.asarray(v, dtype=float) for v in (lo, hi, c))
        first = self.breakpoints.searchsorted(lo, side="right")
        count = np.maximum(self.breakpoints.searchsorted(hi) - first, 0)
        return self._piece_terms(lo, hi, first, count,
                                 lambda e, h, rows: _moment_pieces(e, h, c[rows], p))

    def _cell_terms(self, bounds: np.ndarray, c: np.ndarray, p: float):
        """``_cell_masses`` and ``_moment_terms`` of the same cells, from one walk."""
        masses, moments = self._piece_terms(
            bounds[:-1], bounds[1:], *self._placed(bounds),
            lambda e, h, rows: (_mass_pieces(e, h, rows), _moment_pieces(e, h, c[rows], p)))
        return _cell_sums(masses), moments

    def _power_density(self, p: float, order: float) -> "PiecewiseConstantDensity":
        """The density proportional to pdf**p; ``order`` is the order it serves.

        Near order 1 + r, |p| is large and pdf**p overflows or underflows.
        Where its integral loses digits (``_plain_power_integral``) the heights
        are normalized in logs, as ``_log_power_integral`` sums them; a height
        that still underflows to 0 raises ValueError.
        """
        norm = _plain_power_integral(self, p)
        if not math.isnan(norm):
            heights = self.heights**p / norm
        else:
            t = p * np.log(self.heights)
            t -= t.max()
            heights = np.exp(t - _log_sum_exp(t + np.log(self._lens)))
        if not (heights > 0.0).all():
            raise ValueError(
                f"the point density at order {order!r} underflows to 0 on part of the support")
        return PiecewiseConstantDensity(self.breakpoints, heights)

    def _log_power_integral(self, p: float) -> float:
        """log of ``power_integral(p)``, summed in logs where the integral
        overflows or underflows, as it does at large |p|."""
        return _log_of_sum(_plain_power_integral(self, p),
                           lambda: p * np.log(self.heights) + np.log(self._lens))

    def similarity_transform(self, c: float, t: float, reflect: bool = False):
        """Density of c*X + t (or c*(-X) + t when reflect is set)."""
        c = _positive_scale(float(c))
        # negation is exact, so t + (-c) * x is t - c * x; reflecting reverses the order
        step = -1 if reflect else 1
        return PiecewiseConstantDensity((t + step * c * self.breakpoints)[::step],
                                        (self.heights / c)[::step])

    @property
    def spec(self) -> dict:
        """The JSON description that ``density_from_spec`` reads back."""
        return {"kind": "piecewise", "breakpoints": self.breakpoints.tolist(),
                "heights": self.heights.tolist()}

    def __repr__(self):
        return (
            f"PiecewiseConstantDensity({list(map(float, self.breakpoints))!r}, "
            f"{list(map(float, self.heights))!r})"
        )


class SmoothDensity:
    """Quadrature-backed density given by a pdf callable on [lo, hi].

    The constructor integrates the pdf over every cell of a table in one
    batched quadrature call to build a monotone cdf table; cdf evaluations
    then only integrate within one cell.  Every integral halves a piece
    where its pair of Gauss rules disagrees by more than ``rel_tol``, at
    most ``max_depth`` times (``_quadrature.moments_many``), or raises
    ValueError.  Every integrand evaluates the pdf over whole arrays: a pdf
    written over point arrays (``_quadrature.with_array_form``), as the
    package's own are, is called on them, any other once per point
    (``_quadrature.over_arrays``); ``pdf`` is that array function at one
    point.  ``breakpoints`` lists interior kink locations respected by every
    quadrature call.  An essential bound not passed in, as the package's own
    densities pass theirs, is found by a dense scan refined by golden sections;
    the two bounds must satisfy 0 <= ess_inf <= ess_sup, so a NaN one raises
    ValueError.
    """

    spec = None  # the JSON description: only the shipped families set one

    def __init__(
        self,
        pdf: Callable[[float], float],
        lo: float,
        hi: float,
        *,
        breakpoints: Sequence[float] = (),
        rel_tol: float = DEFAULT_REL_TOL,
        max_depth: int = DEFAULT_MAX_DEPTH,
        ess_inf: float | None = None,
        ess_sup: float | None = None,
        table_cells: int = 1024,
    ):
        support = Interval(lo, hi)
        self._pdf_many = over_arrays(pdf)
        self._support = support
        self._breaks = sorted(float(x) for x in breakpoints if support.lo < x < support.hi)
        self._rel_tol = float(rel_tol)
        self._max_depth = int(max_depth)

        pieces = [support.lo] + self._breaks + [support.hi]
        edges = []
        for a, b in zip(pieces[:-1], pieces[1:]):
            n = max(8, int(round(table_cells * (b - a) / support.width)))
            edges.extend(np.linspace(a, b, n + 1)[:-1])
        edges.append(support.hi)
        self._edges = np.asarray(edges, dtype=float)
        masses = self._cell_masses(self._edges)
        self._total = total = float(masses.sum())
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"pdf must integrate to 1 within quadrature tolerance, got {total!r}")
        self._cum = np.concatenate(([0.0], np.cumsum(masses / total)))
        self._cum[-1] = 1.0

        if ess_inf is None or ess_sup is None:
            xs = np.linspace(support.lo, support.hi, ESS_SCAN_POINTS)
            vals = self._pdf_many(xs)
            ess_inf, ess_sup = (scan_extremum(self.pdf, xs, vals, top) if bound is None else bound
                                for top, bound in ((False, ess_inf), (True, ess_sup)))
        self._ess = (float(ess_inf), float(ess_sup))
        if not 0.0 <= self._ess[0] <= self._ess[1]:
            raise ValueError(f"essential bounds must satisfy 0 <= inf <= sup, got {self._ess!r}")

    @property
    def support(self) -> Interval:
        return self._support

    def interior_breakpoints(self):
        return list(self._breaks)

    def pdf(self, x: float) -> float:
        return float(self._pdf_values(np.array([_not_nan(x, "pdf argument")]))[0])

    def _pdf_values(self, xs: np.ndarray) -> np.ndarray:
        """``pdf`` at each entry of the 1-D array xs."""
        out = np.zeros(len(xs))
        inside = np.flatnonzero((xs >= self._support.lo) & (xs <= self._support.hi))
        out[inside] = self._pdf_many(xs[inside])
        return out

    def cdf(self, x):
        """Mass at or left of x: the table entry of x's cell plus one
        quadrature within the cell.

        ``x`` may be a scalar, giving a float, or an array, giving an array
        of the same shape.
        """
        xs = _not_nan(x)
        flat = np.ravel(xs)
        lo, hi = self._support.lo, self._support.hi
        out = np.where(flat <= lo, 0.0, 1.0)
        inside = np.flatnonzero((flat > lo) & (flat < hi))
        out[inside] = self._cdf_inside(flat[inside])
        return float(out[0]) if isinstance(xs, float) else out.reshape(xs.shape)

    def _cdf_inside(self, x: np.ndarray) -> np.ndarray:
        """cdf at points strictly inside the support, one quadrature call for all.

        A point on a table edge integrates over an empty piece, which gives
        exactly 0.0, so it takes its table entry unchanged.
        """
        j = np.searchsorted(self._edges, x, side="right") - 1
        a = self._edges[j]
        part = moments_many(self._pdf_many, a, x, a, 0.0, self._rel_tol, self._max_depth)
        return np.minimum(self._cum[j] + part / self._total, 1.0)

    def quantile(self, u):
        """Generalized inverse of the cdf by safeguarded Newton inside one table cell.

        ``u`` may be a scalar, giving a float, or an array, giving an array
        of the same shape.  All arguments step together, one batched cdf
        call per step.
        """
        us = _unit_arguments(u)
        out = self._invert(np.ravel(us))
        return float(out[0]) if isinstance(us, float) else out.reshape(us.shape)

    def _invert(self, us: np.ndarray) -> np.ndarray:
        """quantile at each entry of the 1-D array us.

        Each argument inside (0, 1) starts at the table's linear interpolant
        in its cell, which is its bracket.  A step makes one batched cdf call
        F at the open iterates x, moves the bracket's left end to x where
        F(x) < u and its right end otherwise, and takes the Newton step
        (u - F) * total / pdf; it bisects instead where that step is not
        finite, leaves the bracket or does not halve the previous step.  An
        argument ends at its new iterate once the step or the bracket is at
        most 1e-13 of the support width or its midpoint rounds onto an end
        (as in ``_quadrature.bisect_many``), or raises ValueError after 200
        steps.  All is elementwise, so an array gives its scalar calls' bits.
        """
        out = np.where(us <= 0.0, self._support.lo, self._support.hi)
        live = np.flatnonzero((us > 0.0) & (us < 1.0))
        u = us[live]
        j = np.minimum(np.searchsorted(self._cum, u, side="right") - 1, len(self._edges) - 2)
        a, b, c = self._edges[j], self._edges[j + 1], self._cum[j]
        x = a + (u - c) / (self._cum[j + 1] - c) * (b - a)
        step, tol = b - a, 1e-13 * self._support.width
        for _ in range(200):
            if len(live) == 0:
                return out
            f = self._cdf_inside(x)
            a, b = np.where(f < u, x, a), np.where(f < u, b, x)
            g = self._pdf_many(x)
            with np.errstate(all="ignore"):
                dx = (u - f) * self._total / g
                y = x + dx
            # every comparison is False at a NaN step
            newton = (np.abs(dx) <= 0.5 * step) & (a <= y) & (y <= b)
            m = 0.5 * (a + b)
            x = np.where(newton, y, m)
            step = np.where(newton, np.abs(dx), 0.5 * (b - a))
            done = (step <= tol) | (b - a <= tol) | (m == a) | (m == b)
            out[live[done]] = x[done]
            live, u, a, b, x, step = (v[~done] for v in (live, u, a, b, x, step))
        if len(live):
            raise ValueError(f"quantile of {float(u[0])!r} does not converge in 200 steps")
        return out

    def _whole(self, f) -> float:
        """Integral of f, a function of a point array, over the support cut at the kinks."""
        return integrate(f, self._support.lo, self._support.hi, self._rel_tol, self._max_depth,
                         breakpoints=self._breaks)

    def power_integral(self, p: float) -> float:
        """Integral of pdf**p over the support.  The quadrature's first nodes can
        all miss a narrow peak and read it as 0, so at p > 1 or p < 0 a result
        below Jensen's bound total**p * width**(1 - p), total the cdf table's
        mass, taken in logs with a slack of 1e-8, raises ValueError."""
        p = float(p)
        if p < 0:
            _ess_inf(self, "negative power integral requires a density bounded away from zero")
        try:
            value = self._whole(lambda x: _powers(self._pdf_many(x), p))
        except OverflowError:
            raise ValueError(f"power integral of order {p} overflows") from None
        bound = p * math.log(self._total) + (1.0 - p) * math.log(self._support.width)
        if not (0.0 <= p <= 1.0 or value > 0.0 and math.log(value) >= bound - 1e-8):
            raise ValueError(f"power integral of order {p} misses the peak of the density")
        return value

    def log_integral(self) -> float:
        """Integral of pdf * log(pdf) over the support; ValueError where the same
        quadrature of the pdf misses the cdf table's mass by more than 1e-8."""
        if abs(self._whole(self._pdf_many) - self._total) > 1e-8:
            raise ValueError("the integral of pdf * log(pdf) misses the peak of the density")

        def f(x):
            v = self._pdf_many(x)
            positive = v > 0.0
            return np.where(positive, v * call_each(math.log, np.where(positive, v, 1.0)), 0.0)

        return self._whole(f)

    def ess_bounds(self):
        return self._ess

    def _cell_masses(self, bounds: np.ndarray) -> np.ndarray:
        """Mass of each cell between consecutive entries of ``bounds``, each
        integrated on its own: no cdf difference cancels near 1."""
        return self._moment_terms(bounds[:-1], bounds[1:], bounds[:-1], 0.0)[:, 0]

    def _cell_terms(self, bounds: np.ndarray, c: np.ndarray, p: float):
        """``_cell_masses(bounds)`` and the ``_moment_terms`` of the same cells about c."""
        return self._cell_masses(bounds), self._moment_terms(bounds[:-1], bounds[1:], c, p)

    def _moment_terms(self, s, t, c, p: float) -> np.ndarray:
        """Integral of |x - c[k]|**p dmu over each cell [s[k], t[k]], as one column.

        Each cell is clipped to the support and cut at the kinks and at c[k]
        inside it, so the pdf is analytic on each piece and c[k] lies at one
        end of it or outside it.  All pieces of all cells go through one
        ``_quadrature.moments_many`` call: Gauss rules for the weight
        |x - c|**p on the pieces at c, and for the plain integrand elsewhere,
        each piece halved until its two rules agree.  Each cell adds its
        pieces left to right from 0.0.
        """
        supp = self._support
        s, t = (np.clip(np.asarray(v, dtype=float), supp.lo, supp.hi) for v in (s, t))
        c = np.asarray(c, dtype=float)
        kinks = [np.full(len(s), x) for x in self._breaks]
        inner = np.column_stack(kinks + [c])
        strictly = (s[:, None] < inner) & (inner < t[:, None])
        # cut points past the end sort last and leave empty pieces
        cuts = np.column_stack((s, np.sort(np.where(strictly, inner, t[:, None]), axis=1), t))
        lo, hi = cuts[:, :-1], cuts[:, 1:]
        live = hi > lo
        pieces = np.zeros(lo.shape)
        pieces[live] = moments_many(self._pdf_many, lo[live], hi[live], c[np.nonzero(live)[0]],
                                    p, self._rel_tol, self._max_depth)
        return _cell_sums(pieces)[:, None]

    def _power_density(self, p: float, order: float) -> "SmoothDensity":
        """The density proportional to pdf**p; ``order`` is the order it serves."""
        norm = self._positive_power_integral(p)
        lo_f, hi_f = self._ess
        bounds = sorted((lo_f**p / norm, hi_f**p / norm))

        # the point density has this support, so it never asks outside it and
        # the raw pdf can skip the support test of pdf
        def pdf(x, _f=self._pdf_many, _p=p, _n=norm):
            return np.float_power(_f(x), _p) / _n

        return SmoothDensity(with_array_form(pdf), self._support.lo, self._support.hi,
                             breakpoints=self._breaks, ess_inf=bounds[0], ess_sup=bounds[1])

    def _positive_power_integral(self, p: float) -> float:
        """``power_integral(p)``; ValueError unless the integral is positive and finite."""
        integral = self.power_integral(p)
        if not (math.isfinite(integral) and integral > 0.0):
            raise ValueError(f"power integral of order {p} is not positive and finite")
        return integral

    def _log_power_integral(self, p: float) -> float:
        return math.log(self._positive_power_integral(p))

    def similarity_transform(self, c: float, t: float, reflect: bool = False):
        c = _positive_scale(float(c))
        base = self._pdf_many
        # y = t + s * x with s = +-c.  Negation is exact, so the inverse
        # (sign * y - sign * t) / c is (t - y) / c when reflecting, +0.0 at y == t.
        sign = -1.0 if reflect else 1.0
        s, shift = sign * c, sign * t
        new_pdf = lambda y: base((sign * y - shift) / c) / c
        lo, hi = sorted(t + s * x for x in (self._support.lo, self._support.hi))
        ess_inf, ess_sup = self._ess
        return SmoothDensity(
            with_array_form(new_pdf),
            lo,
            hi,
            breakpoints=[t + s * x for x in self._breaks],
            rel_tol=self._rel_tol,
            max_depth=self._max_depth,
            ess_inf=ess_inf / c,
            ess_sup=ess_sup / c,
        )

    def __repr__(self):
        return f"SmoothDensity([{self._support.lo}, {self._support.hi}])"


Density = Union[PiecewiseConstantDensity, SmoothDensity]


def uniform(lo: float, hi: float) -> PiecewiseConstantDensity:
    """Uniform density on [lo, hi]."""
    width = float(hi) - float(lo)
    return PiecewiseConstantDensity([lo, hi], [1.0 / width])


def _plain_power_integral(d: Density, p: float) -> float:
    """``d.power_integral(p)`` where it keeps its digits: divided by max(1, width)
    it is a normal float.  NaN elsewhere, which sends the caller to logs."""
    value = d.power_integral(p)
    return value if _normal_sums(value / max(1.0, d.support.width)) else math.nan


def _powers(x: np.ndarray, p: float) -> np.ndarray:
    """x**p at each entry, with the bits of Python's ``**``: ``np.float_power``
    calls the C ``pow`` as it does.  An infinite power raises OverflowError,
    as ``**`` does where it overflows."""
    with np.errstate(over="ignore", divide="ignore"):
        v = np.float_power(x, p)
    if np.isinf(v).any():
        raise OverflowError
    return v


def _require_mass(mass: float):
    # a subnormal mass has lost its precision, and 1 / mass may overflow
    if not mass >= sys.float_info.min:
        raise ValueError("truncation interval carries no mass")


def _peaked(pdf, lo: float, hi: float, centre: float, **kwargs) -> SmoothDensity:
    """SmoothDensity of ``pdf``, a function of a point array that falls away from
    ``centre`` on both sides: its essential bounds are its values at the support
    end farther from the centre and at the centre clipped to the support."""
    s = Interval(lo, hi)
    v = pdf(np.array([s.lo, s.hi, min(max(centre, s.lo), s.hi)]))
    return SmoothDensity(with_array_form(pdf), lo, hi, ess_inf=float(min(v[0], v[1])),
                         ess_sup=float(v[2]), **kwargs)


def truncated_gauss(mean: float, sigma: float, lo: float, hi: float) -> SmoothDensity:
    """Gaussian restricted to [lo, hi] and renormalized."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    rt2 = math.sqrt(2.0)
    z_lo, z_hi = (lo - mean) / (sigma * rt2), (hi - mean) / (sigma * rt2)
    # on one side of the mean the erf difference cancels; the tail there is erfc
    if z_lo > 0.0:
        mass = 0.5 * (math.erfc(z_lo) - math.erfc(z_hi))
    elif z_hi < 0.0:
        mass = 0.5 * (math.erfc(-z_hi) - math.erfc(-z_lo))
    else:
        mass = 0.5 * (math.erf(z_hi) - math.erf(z_lo))
    _require_mass(mass)
    norm = 1.0 / (mass * sigma * math.sqrt(2.0 * math.pi))

    def pdf(x, _m=mean, _s=sigma, _n=norm):
        return _n * call_each(math.exp, -0.5 * np.float_power((x - _m) / _s, 2.0))

    d = _peaked(pdf, lo, hi, mean)
    d.spec = {"kind": "truncated_gauss", "mean": float(mean),
              "sigma": float(sigma), "lo": float(lo), "hi": float(hi)}
    return d


def truncated_laplace(center: float, scale: float, lo: float, hi: float) -> SmoothDensity:
    """Two-sided exponential restricted to [lo, hi] and renormalized."""
    _positive_scale(scale)

    def raw_cdf(x):
        z = (x - center) / scale
        return 0.5 * math.exp(z) if z < 0 else 1.0 - 0.5 * math.exp(-z)

    if lo > center:
        # 1 - tail cancels right of the center: subtract the tails themselves
        mass = 0.5 * math.exp(-(lo - center) / scale) - 0.5 * math.exp(-(hi - center) / scale)
    else:
        mass = raw_cdf(hi) - raw_cdf(lo)
    _require_mass(mass)
    norm = 1.0 / (2.0 * scale * mass)

    def pdf(x, _c=center, _s=scale, _n=norm):
        return _n * call_each(math.exp, -np.abs(x - _c) / _s)

    # the kink at the center matters for quadrature when it is interior
    d = _peaked(pdf, lo, hi, center, breakpoints=[center] if lo < center < hi else [])
    d.spec = {"kind": "truncated_laplace", "center": float(center),
              "scale": float(scale), "lo": float(lo), "hi": float(hi)}
    return d


def _require_within(inner: Interval, lo: float, hi: float, message: str):
    """ValueError(message.format(inner.lo, inner.hi, lo, hi)) unless ``inner``
    reaches past [lo, hi] by at most ``_span_tol(hi - lo)``."""
    tol = _span_tol(hi - lo)
    if inner.lo < lo - tol or inner.hi > hi + tol:
        raise ValueError(message.format(inner.lo, inner.hi, lo, hi))


def require_nested_supports(f: Density, g: Density):
    """Raise unless the support of f lies inside the support of g."""
    sg = g.support
    _require_within(f.support, sg.lo, sg.hi,
                    "first support [{}, {}] must lie inside second [{}, {}]")


def _checked(total):
    """``total``, unless some sum in it overflowed: then ValueError."""
    if not np.isfinite(total).all():
        raise ValueError("a closed-form cell integral overflows; reduce r or the cell widths")
    return total


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Each row of ``terms`` added left to right from 0.0, as Python's ``sum``
    adds a list: so a piecewise cell gives bit for bit what a scalar loop over
    its sorted cut points gives, and a one-column smooth row gives its entry."""
    total = np.zeros(len(terms))
    for col in terms.T:
        total += col
    return total


def _cell_sums(terms: np.ndarray) -> np.ndarray:
    """``_row_sums`` of cell terms; an overflowing sum raises ValueError."""
    return _checked(_row_sums(terms))


def _mass_pieces(edges, h, rows):
    return h * (edges[:, 1:] - edges[:, :-1])


def _moment_pieces(edges, h, c, p: float):
    """h times the integral of |x - c[k]|**p over each piece, a row of edges per k.
    Powers must go through ``np.float_power``: it calls the C ``pow`` as Python's
    ``**`` does, while ``np.power`` may take a SIMD path that differs in the last bit."""
    # antiderivative of |x|**p at each cut, relative to the codepoint
    y, rp1 = edges - c[:, None], p + 1.0
    psi = np.copysign(np.float_power(np.abs(y), rp1), y) / rp1
    return h * (psi[:, 1:] - psi[:, :-1])


def _pair_cut(f: Density, gs):
    """The shared support (lo, hi) of f and the densities gs, without the sliver
    of f past them that ``require_nested_supports`` allows; the kinks of f and
    gs[0] strictly inside it, sorted; and, when f and gs are piecewise, their
    common refinement there (else None): the piece widths left to right, the
    heights of f on them and a row of heights per density of gs.  gs share one
    support and one breakpoint grid, so gs[0] stands for all of them."""
    g = gs[0]
    lo, hi = max(f.support.lo, g.support.lo), min(f.support.hi, g.support.hi)
    cuts = np.unique(np.concatenate((f.interior_breakpoints(), g.interior_breakpoints())))
    kinks = cuts[(cuts > lo) & (cuts < hi)]
    if not (isinstance(f, PiecewiseConstantDensity) and isinstance(g, PiecewiseConstantDensity)):
        return (lo, hi), kinks, None
    # the height just right of each left end
    edges = np.concatenate(([lo], kinks, [hi]))
    left = edges[:-1]
    jf, jg = (d.breakpoints.searchsorted(left, side="right") for d in (f, g))
    hg = np.array([d._padded[jg] for d in gs])
    return (lo, hi), kinks, (edges[1:] - left, f._padded[jf], hg)


def _require_covered(f: Density, g: Density):
    """``require_nested_supports``, and at most MASS_TOL of f past g, where it
    makes divergences from order 1 up, f/g**r and G(X)'s density infinite."""
    require_nested_supports(f, g)
    s, t = f.support, g.support
    slivers = [(a, b) for a, b in ((s.lo, t.lo), (t.hi, s.hi)) if a < b]
    mass = sum(integrate(f._pdf_values, a, b, breakpoints=f.interior_breakpoints())
               for a, b in slivers)
    if mass > MASS_TOL:
        raise ValueError(f"the first density has mass {mass!r} where the second vanishes")


def _ratio_bounds(f: Density, gs, points: int):
    """Essential infimum and supremum of f/g over the shared support of
    ``_pair_cut``, for each g of gs: a list of infima and a list of suprema.

    A common refinement gives the extreme height ratios of its pieces;
    otherwise the array ratio at ``points`` evenly spaced points is refined
    by ``_quadrature.scan_extremum`` with the scalar ratio.
    """
    support, _, pieces = _pair_cut(f, gs)
    if pieces is not None:
        _, hf, hg = pieces
        ratios = hf / hg
        return ratios.min(axis=1).tolist(), ratios.max(axis=1).tolist()
    xs = np.linspace(*support, points)
    vf = f._pdf_values(xs)
    lows, highs = [], []
    for g in gs:
        with np.errstate(all="ignore"):
            vals = vf / g._pdf_values(xs)
        if not np.isfinite(vals).all():
            raise ValueError("the density ratio is unbounded: the second density vanishes")
        ratio = lambda x, g=g: f.pdf(x) / g.pdf(x)
        lows.append(scan_extremum(ratio, xs, vals, False))
        highs.append(scan_extremum(ratio, xs, vals, True))
    return lows, highs


def _pair_integrals(f: Density, gs, phi) -> np.ndarray:
    """Integral of phi(w, f, g) over the shared support of ``_pair_cut``, each g of gs.

    ``phi(w, hf, hg)`` takes arrays: the integrals over pieces of width w on
    which the densities take the values hf and hg.  A common refinement gives
    it its pieces, hg a row per g, and each row is added left to right;
    otherwise phi(1.0, f(x), g(x)) is integrated by quadrature, cut at the
    kinks, wherever f(x) > 0, the pdfs taken over arrays.  Powers in phi go
    through ``_powers`` and logs through ``call_each``, so each piece or point
    gets the bits of Python's scalar arithmetic.
    """
    support, kinks, pieces = _pair_cut(f, gs)
    if pieces is not None:
        return _row_sums(np.broadcast_to(phi(*pieces), pieces[2].shape))

    def integral(g):
        def integrand(xs):
            vf, vg = f._pdf_values(xs), g._pdf_values(xs)
            out = np.zeros(len(xs))
            live = vf > 0.0
            out[live] = phi(1.0, vf[live], vg[live])
            return out

        return integrate(integrand, *support, breakpoints=kinks)

    return np.array([integral(g) for g in gs], dtype=float)


def _compressed(f: Density, g: Density, table_cells: int) -> Density:
    """Density of G(X), X drawn from f and G the cdf of g, over the shared
    support [lo, hi] of ``_pair_cut``; g must be bounded away from zero there.

    A common refinement gives a piecewise density with the heights f/g of its
    pieces.  Otherwise the result is a quadrature-backed density on
    [G(lo), G(hi)] with ``table_cells`` table cells, cut at the images of the kinks.
    """
    (lo, hi), kinks, pieces = _pair_cut(f, [g])
    if pieces is not None:
        widths, hf, (hg,) = pieces
        edges = np.concatenate(([g.cdf(lo)], g.cdf(lo) + np.cumsum(widths * hg)))
        return PiecewiseConstantDensity(edges, hf / hg)

    def pdf(ys):
        xs = g.quantile(ys)
        return f._pdf_values(xs) / g._pdf_values(xs)

    # essential bounds of f/g are cheap to locate in x-space
    (ess_inf,), (ess_sup,) = _ratio_bounds(f, [g], 2048)
    return SmoothDensity(with_array_form(pdf), g.cdf(lo), g.cdf(hi),
                         breakpoints=sorted(g.cdf(x) for x in kinks), rel_tol=1e-9,
                         ess_inf=ess_inf, ess_sup=ess_sup, table_cells=table_cells)


def density_from_spec(spec: dict) -> Density:
    """Build a density from its JSON description.

    Recognized kinds: ``uniform`` (lo, hi), ``piecewise`` (breakpoints,
    heights), ``truncated_gauss`` (mean, sigma, lo, hi), and
    ``truncated_laplace`` (center, scale, lo, hi).
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("density spec must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "uniform":
            return uniform(spec["lo"], spec["hi"])
        if kind == "piecewise":
            return PiecewiseConstantDensity(spec["breakpoints"], spec["heights"])
        if kind == "truncated_gauss":
            return truncated_gauss(spec["mean"], spec["sigma"], spec["lo"], spec["hi"])
        if kind == "truncated_laplace":
            return truncated_laplace(spec["center"], spec["scale"], spec["lo"], spec["hi"])
    except KeyError as exc:
        raise ValueError(f"density spec of kind {kind!r} is missing field {exc}") from None
    raise ValueError(f"unknown density kind {kind!r}")


def density_to_spec(d: Density) -> dict:
    """Inverse of density_from_spec: a copy of ``d.spec``."""
    if d.spec is None:
        raise ValueError("density does not carry a serializable description")
    return dict(d.spec)

"""Finite interval quantizers and their exact figures of merit.

A quantizer is a strictly increasing boundary vector plus one codepoint per
cell.  Cell i covers (boundaries[i], boundaries[i+1]]; the first cell is
closed on the left.  Distortion and cell masses are evaluated in closed form
against piecewise-constant densities, one array pass over all cells and
density pieces.  Against smooth densities the cell masses are differences of
one array cdf call, and every cell moment goes through ``_smooth_moments``:
one batched adaptive-Simpson call over the pieces of all cells.  Per-cell
work dispatches on the family in ``_cell_moments`` (distortions) and
``_balances`` (codepoint balances); every codepoint solve, for one cell or
many, is one ``_quadrature.bisect_many`` call on ``_balances``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quadrature import bisect_many, integrate_many
from .core import validate_exponent
from .densities import (Density, Interval, PiecewiseConstantDensity, SmoothDensity, _cut_cells,
                        _not_nan)
from .entropy import renyi_entropy

__all__ = [
    "IntervalQuantizer",
    "cell_masses",
    "quantizer_entropy",
    "distortion",
    "cell_distortion",
    "optimal_codepoint",
    "improve_codepoints",
    "uniform_quantizer",
    "transform_quantizer",
]

CODEPOINT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class IntervalQuantizer:
    boundaries: np.ndarray
    codepoints: np.ndarray

    def __post_init__(self):
        b = np.ascontiguousarray(self.boundaries, dtype=float)
        c = np.ascontiguousarray(self.codepoints, dtype=float)
        if b.ndim != 1 or c.ndim != 1 or len(b) != len(c) + 1 or len(c) < 1:
            raise ValueError("need n+1 boundaries for n >= 1 codepoints")
        if not (np.isfinite(b).all() and np.isfinite(c).all()):
            raise ValueError("boundaries and codepoints must be finite")
        lo, hi = b[:-1], b[1:]
        if (hi <= lo).any():
            raise ValueError("boundaries must be strictly increasing")
        tol = CODEPOINT_TOL * (b[-1] - b[0])
        if ((c < lo - tol) | (c > hi + tol)).any():
            raise ValueError("each codepoint must lie in the closure of its cell")
        # snap float dust back into the closed cell so the invariant is exact
        c = np.minimum(np.maximum(c, lo), hi)
        b.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "codepoints", c)

    @property
    def levels(self) -> int:
        return len(self.codepoints)

    @property
    def span(self) -> Interval:
        return Interval(float(self.boundaries[0]), float(self.boundaries[-1]))

    def quantize(self, x: float) -> int:
        """Cell index of x; the first cell is closed on the left."""
        x = float(x)
        b = self.boundaries
        if not b[0] <= x <= b[-1]:
            raise ValueError(f"{x!r} is outside the quantizer span [{b[0]}, {b[-1]}]")
        idx = int(np.searchsorted(b, x, side="left")) - 1
        return min(max(idx, 0), self.levels - 1)

    def to_json(self) -> dict:
        return {
            "boundaries": [float(x) for x in self.boundaries],
            "codepoints": [float(x) for x in self.codepoints],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IntervalQuantizer":
        try:
            return cls(obj["boundaries"], obj["codepoints"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed quantizer object: {exc}") from None

    def __repr__(self):
        return f"IntervalQuantizer(levels={self.levels}, span=[{self.span.lo}, {self.span.hi}])"


def _check_covers(q: IntervalQuantizer, d: Density):
    supp = d.support
    lo, hi = float(q.boundaries[0]), float(q.boundaries[-1])
    tol = 1e-12 * max(hi - lo, 1.0)
    if supp.lo < lo - tol or supp.hi > hi + tol:
        raise ValueError(
            f"density support [{supp.lo}, {supp.hi}] is not covered by the "
            f"quantizer span [{lo}, {hi}]"
        )


def cell_masses(q: IntervalQuantizer, d: Density) -> np.ndarray:
    """Probability carried by each cell; exact zeros stay exact."""
    _check_covers(q, d)
    bounds = q.boundaries
    if isinstance(d, PiecewiseConstantDensity):
        # add each cell up from its pieces: no cancellation, so even tiny
        # masses keep full relative accuracy
        masses = _piecewise_cell_sums(d, bounds[:-1], bounds[1:],
                                      lambda edges, h: h * (edges[:, 1:] - edges[:, :-1]))
    else:
        masses = np.diff(d.cdf(bounds))
        masses[masses < 0.0] = 0.0
    total = float(masses.sum())
    if total <= 0.0:
        raise ValueError("density mass inside the quantizer span is zero")
    return masses / total


def quantizer_entropy(q: IntervalQuantizer, d: Density, alpha) -> float:
    """Entropy of order alpha of the quantizer output distribution."""
    return renyi_entropy(cell_masses(q, d), alpha)


def distortion(q: IntervalQuantizer, d: Density, r: float) -> float:
    """Expected r-th power error of the quantizer against the density."""
    r = validate_exponent(r)
    _check_covers(q, d)
    lo, hi, c = q.boundaries[:-1], q.boundaries[1:], q.codepoints
    if isinstance(d, PiecewiseConstantDensity):
        # every piece of every cell, added left to right across the span
        terms = _piece_terms(d, lo, hi, _distortion_pieces(c, r))
        return float(_checked(np.cumsum(terms.ravel())[-1]))
    # cell by cell, added left to right
    return float(np.cumsum(_smooth_moments(d, lo, hi, c, r))[-1])


def _piece_terms(d: PiecewiseConstantDensity, lo, hi, pieces) -> np.ndarray:
    """Closed-form integrals over the pieces of many cells [lo[k], hi[k]].

    ``densities._cut_cells`` cuts each cell at the density breakpoints inside
    it.  ``pieces(edges, h)`` gets those cut rows and the height of each piece
    and returns the integral over each piece.  A piece counts only where its
    height is positive; elsewhere, and on the empty pieces that pad short
    rows, the term is an exact 0.0.  Powers must go through
    ``np.float_power``: it calls the C library ``pow`` as Python's ``**``
    does, while ``np.power`` may take a SIMD path that differs in the last
    bit.
    """
    edges, h = _cut_cells(d, lo, hi)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(h > 0.0, pieces(edges, h), 0.0)


def _checked(total):
    """``total``, unless some closed-form sum in it overflowed: then ValueError."""
    if not np.isfinite(total).all():
        raise ValueError("a closed-form cell integral overflows; reduce r or the cell widths")
    return total


def _piecewise_cell_sums(d: PiecewiseConstantDensity, lo, hi, pieces) -> np.ndarray:
    """The ``_piece_terms`` of each cell added left to right from 0.0.

    So a cell gives bit for bit what a scalar loop over its sorted cut points
    gives.  An overflowing sum raises ValueError.
    """
    terms = _piece_terms(d, lo, hi, pieces)
    total = np.zeros(len(terms))
    for col in terms.T:
        total += col
    return _checked(total)


def _distortion_pieces(c, r: float):
    """``pieces`` for the integral of |x - c[k]|**r over cell k."""
    rp1 = r + 1.0
    c = np.asarray(c, dtype=float)[:, None]

    def pieces(edges, h):
        # antiderivative of |x|**r at each cut, relative to the codepoint
        y = edges - c
        psi = np.copysign(np.float_power(np.abs(y), rp1), y) / rp1
        return h * (psi[:, 1:] - psi[:, :-1])

    return pieces


def _codepoint_balances(d: PiecewiseConstantDensity, lo, hi, a, r: float) -> np.ndarray:
    """One-sided (r-1)-moments of each cell [lo[k], hi[k]] about a[k], left minus right.

    Both sides go through one kernel call, rows [lo, a] first and rows
    [a, hi] after.  On either side |x - a|**r / r integrates |x - a|**(r-1),
    falling towards a on the left.  Since a - x and x - a differ only in sign,
    |x - a| gives both sides' bases exactly.
    """
    a = np.asarray(a, dtype=float)
    n = len(a)
    ac = np.concatenate((a, a))[:, None]
    left = (np.arange(2 * n) < n)[:, None]

    def pieces(edges, h):
        g = np.float_power(np.abs(edges - ac), r)
        return h * np.where(left, g[:, :-1] - g[:, 1:], g[:, 1:] - g[:, :-1]) / r

    sides = _piecewise_cell_sums(d, np.concatenate((lo, a)), np.concatenate((a, hi)), pieces)
    return sides[:n] - sides[n:]


def _smooth_moments(d: SmoothDensity, s, t, c, p: float) -> np.ndarray:
    """Integral of |x - c[k]|**p dmu over each cell [s[k], t[k]].

    Each cell is first clipped to the support, where the pdf vanishes, and
    then cut at the density's kinks and at c[k] where they lie strictly
    inside it.  All pieces of all cells go through one
    ``integrate_many`` call, with the package's default tolerance and depth;
    each cell adds its pieces left to right from 0.0, as a scalar
    ``integrate`` call with those breakpoints does.  The power goes through
    ``np.float_power``, which calls the C library ``pow`` as Python's ``**``
    does.
    """
    supp = d.support
    s, t = (np.clip(np.asarray(v, dtype=float), supp.lo, supp.hi) for v in (s, t))
    c = np.asarray(c, dtype=float)
    kinks = [np.full(len(s), x) for x in d.interior_breakpoints()]
    inner = np.column_stack(kinks + [c])
    strictly = (s[:, None] < inner) & (inner < t[:, None])
    # cut points past the end sort last and leave empty pieces
    cuts = np.column_stack((s, np.sort(np.where(strictly, inner, t[:, None]), axis=1), t))
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    live = hi > lo
    centre = c[np.nonzero(live)[0]]

    def values(x, k):
        with np.errstate(over="ignore"):
            w = np.float_power(np.abs(x - centre[k]), p)
        if np.isinf(w).any():
            raise ValueError("a cell moment overflows; reduce r or the cell widths")
        # every point lies in the clipped cells, so the support test is not needed
        return w * d._pdf_many(x)

    pieces = np.zeros(lo.shape)
    pieces[live] = integrate_many(values, lo[live], hi[live])
    total = np.zeros(len(s))
    for col in pieces.T:
        total += col
    return total


def _cell_moments(d: Density, lo, hi, c, p: float) -> np.ndarray:
    """Integral of |x - c[k]|**p against the density over each cell [lo[k], hi[k]]."""
    if isinstance(d, PiecewiseConstantDensity):
        return _piecewise_cell_sums(d, lo, hi, _distortion_pieces(c, p))
    return _smooth_moments(d, lo, hi, c, p)


def _balances(d: Density, lo, hi, a, r: float) -> np.ndarray:
    """One-sided (r-1)-moments of each cell [lo[k], hi[k]] about a[k], left minus right."""
    if isinstance(d, PiecewiseConstantDensity):
        return _codepoint_balances(d, lo, hi, a, r)
    n = len(a)
    sides = _smooth_moments(d, np.concatenate((lo, a)), np.concatenate((a, hi)),
                            np.concatenate((a, a)), r - 1.0)
    return sides[:n] - sides[n:]


def cell_distortion(d: Density, lo: float, hi: float, c: float, r: float) -> float:
    """Integral of |x - c|**r against the density over a single cell."""
    r = validate_exponent(r)
    lo, hi, c = _not_nan(lo, "lo"), _not_nan(hi, "hi"), _not_nan(c, "c")
    if hi <= lo:
        return 0.0
    return float(_cell_moments(d, [lo], [hi], [c], r)[0])


def optimal_codepoint(cell: Interval, d: Density, r: float) -> float:
    """Codepoint balancing the one-sided (r-1)-moments of the cell.

    The balance function is nondecreasing in the candidate point, so plain
    bisection brackets the stationary point; for r = 2 this is the
    conditional mean, for r = 1 the conditional median.
    """
    r = validate_exponent(r)
    lo, hi = cell.lo, cell.hi
    if d.cdf(hi) - d.cdf(lo) <= 0.0:
        raise ValueError(f"cell [{lo}, {hi}] carries no mass")
    return float(_optimal_codepoints(d, np.array([lo]), np.array([hi]), r)[0])


def _optimal_codepoints(d: Density, lo: np.ndarray, hi: np.ndarray, r: float) -> np.ndarray:
    """Optimal codepoint of every cell [lo[k], hi[k]], in one ``bisect_many`` call.

    Each cell gets what a scalar ``bisect_increasing`` call on its balance
    alone gives, with tolerance 1e-13 times the cell width.
    """
    return bisect_many(lambda m, k: _balances(d, lo[k], hi[k], m, r) < 0.0, lo, hi,
                       1e-13 * (hi - lo))


def improve_codepoints(q: IntervalQuantizer, d: Density, r: float) -> IntervalQuantizer:
    """Replace each codepoint by the cell optimum; zero-mass cells keep theirs."""
    r = validate_exponent(r)
    b = q.boundaries
    live = np.flatnonzero(np.diff(d.cdf(b)) > 0.0)
    points = q.codepoints.copy()
    points[live] = _optimal_codepoints(d, b[:-1][live], b[1:][live], r)
    return IntervalQuantizer(b, points)


def uniform_quantizer(interval: Interval, n: int) -> IntervalQuantizer:
    """n equal cells with midpoint codepoints."""
    n = int(n)
    if n < 1:
        raise ValueError(f"need at least one cell, got {n}")
    b = interval.lo + (interval.width / n) * np.arange(n + 1)
    b[-1] = interval.hi
    mids = 0.5 * (b[:-1] + b[1:])
    return IntervalQuantizer(b, mids)


def transform_quantizer(q: IntervalQuantizer, c: float, t: float) -> IntervalQuantizer:
    """Image of the quantizer under x -> c*x + t with c > 0."""
    c = float(c)
    if not c > 0:
        raise ValueError(f"scale must be positive, got {c!r}")
    return IntervalQuantizer(c * q.boundaries + t, c * q.codepoints + t)

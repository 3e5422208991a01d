"""Finite interval quantizers and their exact figures of merit.

A quantizer is a strictly increasing boundary vector plus one codepoint per
cell.  Cell i covers (boundaries[i], boundaries[i+1]]; the first cell is
closed on the left.  Distortion and cell masses are evaluated in closed form
against piecewise-constant densities, one array pass over all cells and
density pieces.  Against smooth densities the cell masses are differences of
one array cdf call, and every cell moment goes through ``_smooth_moments``:
one batched adaptive-Simpson call over the pieces of all cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quadrature import bisect_increasing, integrate_many
from .densities import Density, Interval, PiecewiseConstantDensity, SmoothDensity, _cut_cells
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
        if not np.all(np.isfinite(b)) or not np.all(np.isfinite(c)):
            raise ValueError("boundaries and codepoints must be finite")
        if np.any(np.diff(b) <= 0):
            raise ValueError("boundaries must be strictly increasing")
        tol = CODEPOINT_TOL * (b[-1] - b[0])
        if np.any(c < b[:-1] - tol) or np.any(c > b[1:] + tol):
            raise ValueError("each codepoint must lie in the closure of its cell")
        # snap float dust back into the closed cell so the invariant is exact
        c = np.minimum(np.maximum(c, b[:-1]), b[1:])
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
        if x < b[0] or x > b[-1]:
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
    span, supp = q.span, d.support
    tol = 1e-12 * max(span.width, 1.0)
    if supp.lo < span.lo - tol or supp.hi > span.hi + tol:
        raise ValueError(
            f"density support [{supp.lo}, {supp.hi}] is not covered by the "
            f"quantizer span [{span.lo}, {span.hi}]"
        )


def cell_masses(q: IntervalQuantizer, d: Density) -> np.ndarray:
    """Probability carried by each cell; exact zeros stay exact."""
    _check_covers(q, d)
    bounds = np.asarray(q.boundaries)
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
    from .core import validate_exponent

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


def _cell_distortions(d: PiecewiseConstantDensity, lo, hi, c, r: float) -> np.ndarray:
    """Integral of |x - c[k]|**r over each cell [lo[k], hi[k]]."""
    return _piecewise_cell_sums(d, lo, hi, _distortion_pieces(c, r))


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

    Each cell is cut at the density's kinks and at c[k] where they lie
    strictly inside it.  All pieces of all cells go through one
    ``integrate_many`` call, with the package's default tolerance and depth;
    each cell adds its pieces left to right from 0.0, as a scalar
    ``integrate`` call with those breakpoints does.  The power goes through
    ``np.float_power``, which calls the C library ``pow`` as Python's ``**``
    does.
    """
    s, t, c = (np.asarray(v, dtype=float) for v in (s, t, c))
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
        return w * d._pdf_values(x)

    pieces = np.zeros(lo.shape)
    pieces[live] = integrate_many(values, lo[live], hi[live])
    total = np.zeros(len(s))
    for col in pieces.T:
        total += col
    return total


def cell_distortion(d: Density, lo: float, hi: float, c: float, r: float) -> float:
    """Integral of |x - c|**r against the density over a single cell."""
    from .core import validate_exponent

    r = validate_exponent(r)
    if hi <= lo:
        return 0.0
    if isinstance(d, PiecewiseConstantDensity):
        return float(_cell_distortions(d, [lo], [hi], [c], r)[0])
    return float(_smooth_moments(d, [lo], [hi], [c], r)[0])


def optimal_codepoint(cell: Interval, d: Density, r: float) -> float:
    """Codepoint balancing the one-sided (r-1)-moments of the cell.

    The balance function is nondecreasing in the candidate point, so plain
    bisection brackets the stationary point; for r = 2 this is the
    conditional mean, for r = 1 the conditional median.
    """
    from .core import validate_exponent

    r = validate_exponent(r)
    lo, hi = cell.lo, cell.hi
    mass = d.cdf(hi) - d.cdf(lo)
    if mass <= 0.0:
        raise ValueError(f"cell [{lo}, {hi}] carries no mass")

    if isinstance(d, PiecewiseConstantDensity):
        def balance(a):
            return float(_codepoint_balances(d, [lo], [hi], [a], r)[0])
    else:
        def balance(a):
            left, right = _smooth_moments(d, [lo, a], [a, hi], [a, a], r - 1.0).tolist()
            return left - right

    return bisect_increasing(balance, lo, hi, target=0.0, tol=1e-13 * (hi - lo))


def _optimal_codepoints(d: PiecewiseConstantDensity, lo: np.ndarray, hi: np.ndarray,
                        r: float) -> np.ndarray:
    """optimal_codepoint for many cells at once, step for step.

    Every cell runs its own copy of bisect_increasing on the moment balance:
    the same tolerance, midpoints, comparisons and iteration cap, so each
    result equals the scalar one exactly.
    """
    tol = 1e-13 * (hi - lo)
    a, b = lo.copy(), hi.copy()
    for _ in range(200):
        live = np.flatnonzero(b - a > tol)
        if len(live) == 0:
            break
        al, bl = a[live], b[live]
        m = 0.5 * (al + bl)
        below = _codepoint_balances(d, lo[live], hi[live], m, r) < 0.0
        a[live] = np.where(below, m, al)
        b[live] = np.where(below, bl, m)
    return 0.5 * (a + b)


def improve_codepoints(q: IntervalQuantizer, d: Density, r: float) -> IntervalQuantizer:
    """Replace each codepoint by the cell optimum; zero-mass cells keep theirs."""
    new_points = []
    for i in range(q.levels):
        cell = Interval(float(q.boundaries[i]), float(q.boundaries[i + 1]))
        if d.cdf(cell.hi) - d.cdf(cell.lo) > 0.0:
            new_points.append(optimal_codepoint(cell, d, r))
        else:
            new_points.append(float(q.codepoints[i]))
    return IntervalQuantizer(q.boundaries, np.asarray(new_points))


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

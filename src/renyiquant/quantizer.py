"""Finite interval quantizers and their exact figures of merit.

A quantizer is a strictly increasing boundary vector plus one codepoint per
cell.  Cell i covers (boundaries[i], boundaries[i+1]]; the first cell is
closed on the left.  The formulas of each density family live in
``densities``: this module asks the density for its cell masses
(``_cell_masses``), its moment terms (``_moment_terms``: a closed form per
piece for a piecewise density, where a cell with no breakpoint is one piece;
for a smooth one, Gauss rules weighted by |x - c|**p on the pieces that end
at the codepoint c) or both, from one walk (``_cell_terms``, through
``_masses_and_distortion``), and never looks at the family.

A distortion adds all moment terms left to right across the span, a row of
pieces per cell; a cell's own moment adds its row (``densities._cell_sums``).
Every codepoint solve, for one cell or many, is a bisection of ``_balances``:
a cell's r-th moment's derivative in its codepoint, over r, which is the
(r-1)-moment left of the codepoint minus the one right.  A secant search
narrows each cell's bracket in a few batched calls, and one
``_quadrature.bisect_many`` call replays the bisection from it, evaluating
only the midpoints inside it, so each result keeps the plain bisection's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quadrature import _normal_sums, bisect_many
from .core import _as_count, validate_exponent
from .densities import (Density, Interval, _cell_sums, _checked, _not_nan, _positive_scale,
                        _require_within)
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
# Most levels ``uniform_quantizer``, ``Compander.build`` and ``uniform_optimal``
# build: a larger count raises ValueError before any array is allocated.
MAX_UNIFORM_LEVELS = 2**20
# A codepoint search step tests the balance this many cell widths either side
# of its point; a cell's search stops after SECANT_STEPS steps.
BALANCE_BAND = 1e-14
SECANT_STEPS = 30


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
        tol = CODEPOINT_TOL * (float(b[-1]) - float(b[0]))  # inf, not a warning, past the range
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
    _require_within(d.support, float(q.boundaries[0]), float(q.boundaries[-1]),
                    "density support [{}, {}] is not covered by the quantizer span [{}, {}]")


def _normalized(masses: np.ndarray) -> np.ndarray:
    total = float(masses.sum())
    if total <= 0.0:
        raise ValueError("density mass inside the quantizer span is zero")
    return masses / total


def _added(terms: np.ndarray) -> float:
    """Every term of every cell, added left to right across the span: a distortion,
    which must be a positive normal float, else ValueError."""
    total = float(_checked(np.cumsum(terms.ravel())[-1]))
    if not _normal_sums(total):
        raise ValueError(f"the distortion {total!r} is not a positive normal float: "
                         "the cell moments underflow at this scale and r")
    return total


def _masses_and_distortion(q: IntervalQuantizer, d: Density, r: float):
    """``cell_masses(q, d)`` and ``distortion(q, d, r)`` from one walk over the
    cells, raising as the two calls do, in their order, for a valid r."""
    r = validate_exponent(r)
    _check_covers(q, d)
    masses, moments = d._cell_terms(q.boundaries, q.codepoints, r)
    return _normalized(masses), _added(moments)


def cell_masses(q: IntervalQuantizer, d: Density) -> np.ndarray:
    """Probability carried by each cell; exact zeros stay exact."""
    _check_covers(q, d)
    return _normalized(d._cell_masses(q.boundaries))


def quantizer_entropy(q: IntervalQuantizer, d: Density, alpha) -> float:
    """Entropy of order alpha of the quantizer output distribution."""
    return renyi_entropy(cell_masses(q, d), alpha)


def distortion(q: IntervalQuantizer, d: Density, r: float) -> float:
    """Expected r-th power error of the quantizer against the density."""
    r = validate_exponent(r)
    _check_covers(q, d)
    return _added(d._moment_terms(q.boundaries[:-1], q.boundaries[1:], q.codepoints, r))


def cell_distortion(d: Density, lo: float, hi: float, c: float, r: float) -> float:
    """Integral of |x - c|**r against the density over a single cell."""
    r = validate_exponent(r)
    lo, hi, c = _not_nan(lo, "lo"), _not_nan(hi, "hi"), _not_nan(c, "c")
    if hi <= lo:
        return 0.0
    return float(_cell_sums(d._moment_terms([lo], [hi], [c], r))[0])


def optimal_codepoint(cell: Interval, d: Density, r: float) -> float:
    """Codepoint balancing the one-sided (r-1)-moments of the cell.

    The balance function is nondecreasing in the candidate point, so
    bisection brackets the stationary point; for r = 2 this is the
    conditional mean, for r = 1 the conditional median.  The result is the
    plain bisection's, from a few balance evaluations
    (``_optimal_codepoints``).  A cell without mass, or whose balances
    underflow, one far out in a tail, raises ValueError.
    """
    r = validate_exponent(r)
    return float(_optimal_codepoints(d, np.array([cell.lo]), np.array([cell.hi]), r)[0])


def _balances(d: Density, lo, hi, a, r: float) -> np.ndarray:
    """One-sided (r-1)-moments of each cell [lo[k], hi[k]] about a[k], left minus right."""
    n = len(a)
    sides = _cell_sums(d._moment_terms(np.concatenate((lo, a)), np.concatenate((a, hi)),
                                       np.concatenate((a, a)), r - 1.0))
    return sides[:n] - sides[n:]


def _optimal_codepoints(d: Density, lo: np.ndarray, hi: np.ndarray, r: float) -> np.ndarray:
    """Optimal codepoint of every cell [lo[k], hi[k]], in a handful of ``_balances`` calls.

    Each cell gets what a scalar ``bisect_increasing`` call on its balance B
    alone gives, with tolerance 1e-13 times the cell width: ``bisect_many``
    replays that bisection from a bracket [a, b] on which B(a) < 0 <= B(b),
    and evaluates B only at the midpoints strictly inside it.  A search
    narrows the brackets first.  Its first call takes B at each cell's ends
    and midpoint, the bisection's first step; B at the ends must be a normal
    float (``_normal_sums``), else ValueError, as a subnormal balance has
    too few bits to place its root.  Then a step takes the secant point x of
    each bracket and evaluates B at x -+ BALANCE_BAND cell widths in one
    call: the root lies right of the pair, left of it, or between, and the
    bracket shrinks to match.  The secant's value at an end kept a second
    time in a row is scaled by the Anderson-Bjorck factor (BIT 1973), the
    Illinois method's cure for a bracket closing from one side.  A cell
    stops once its pair straddles the root or no float lies inside its
    bracket, and every cell after SECANT_STEPS steps.
    """
    n, width = len(lo), hi - lo
    mid = 0.5 * (lo + hi)
    f_lo, f_hi, f_mid = _balances(d, np.tile(lo, 3), np.tile(hi, 3),
                                  np.concatenate((lo, hi, mid)), r).reshape(3, n)
    bad = np.flatnonzero(~(_normal_sums(-f_lo) & _normal_sums(f_hi)))
    if len(bad):
        k = int(bad[0])
        raise ValueError(f"the balance of cell [{lo[k]}, {hi[k]}] is not a normal float at "
                         "its ends: too little mass to place its codepoint")
    right = f_mid < 0.0
    a, b = np.where(right, mid, lo), np.where(right, hi, mid)
    fa, fb = np.where(right, f_mid, f_lo), np.where(right, f_hi, f_mid)
    kept = np.zeros(n, dtype=np.int8)  # the end the last step kept: 1 for a, -1 for b
    live = np.arange(n)
    for _ in range(SECANT_STEPS):
        c = 0.5 * (a[live] + b[live])
        live = live[(a[live] < c) & (c < b[live])]
        if len(live) == 0:
            break
        al, bl, ga, gb, kl = a[live], b[live], fa[live], fb[live], kept[live]
        with np.errstate(all="ignore"):
            x = al + ga / (ga - gb) * (bl - al)
        x = np.where((al <= x) & (x <= bl), x, 0.5 * (al + bl))  # a NaN point bisects
        # within the bracket, and at least a float apart
        band = BALANCE_BAND * width[live]
        xr = np.minimum(np.maximum(x + band, np.nextafter(x, np.inf)), bl)
        xl = np.maximum(np.minimum(x - band, np.nextafter(xr, -np.inf)), al)
        fl, fr = _balances(d, np.tile(lo[live], 2), np.tile(hi[live], 2),
                           np.concatenate((xl, xr)), r).reshape(2, -1)
        up = fr < 0.0  # the root lies right of the pair
        down = ~up & ~(fl < 0.0)  # or left of it
        with np.errstate(all="ignore"):
            # Anderson-Bjorck: 1 - B(new end) / B(end it replaces) if positive, else 1/2
            sa, sb = 1.0 - fl / gb, 1.0 - fr / ga
        sa, sb = np.where(sa > 0.0, sa, 0.5), np.where(sb > 0.0, sb, 0.5)
        a[live] = np.where(up, xr, np.where(down, al, xl))
        b[live] = np.where(down, xl, np.where(up, bl, xr))
        fa[live] = np.where(up, fr, np.where(down & (kl == 1), sa * ga, ga))
        fb[live] = np.where(down, fl, np.where(up & (kl == -1), sb * gb, gb))
        kept[live] = np.where(up, -1, np.where(down, 1, 0))
        live = live[up | down]
    return bisect_many(lambda m, k: _balances(d, lo[k], hi[k], m, r) < 0.0, lo, hi,
                       1e-13 * width, known=(a, b))


def improve_codepoints(q: IntervalQuantizer, d: Density, r: float) -> IntervalQuantizer:
    """Replace each codepoint by the cell optimum; zero-mass cells keep theirs."""
    r = validate_exponent(r)
    b = q.boundaries
    live = np.flatnonzero(d._cell_masses(b) > 0.0)
    points = q.codepoints.copy()
    points[live] = _optimal_codepoints(d, b[:-1][live], b[1:][live], r)
    return IntervalQuantizer(b, points)


def _level_count(n) -> int:
    """n as an int, if a whole number in [1, MAX_UNIFORM_LEVELS]; ValueError otherwise."""
    n = _as_count(n, "the level count")
    if n < 1:
        raise ValueError(f"need at least one level, got {n}")
    if n > MAX_UNIFORM_LEVELS:
        raise ValueError(f"{n} levels is more than MAX_UNIFORM_LEVELS = {MAX_UNIFORM_LEVELS}")
    return n


def uniform_quantizer(interval: Interval, n: int) -> IntervalQuantizer:
    """n equal cells with midpoint codepoints."""
    n = _level_count(n)
    b = interval.lo + (interval.width / n) * np.arange(n + 1)
    b[-1] = interval.hi
    return IntervalQuantizer(b, 0.5 * (b[:-1] + b[1:]))


def transform_quantizer(q: IntervalQuantizer, c: float, t: float) -> IntervalQuantizer:
    """Image of the quantizer under x -> c*x + t with c > 0."""
    c = _positive_scale(float(c))
    return IntervalQuantizer(c * q.boundaries + t, c * q.codepoints + t)

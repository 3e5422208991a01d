"""Finite interval quantizers and their exact figures of merit.

A quantizer is a strictly increasing boundary vector plus one codepoint per
cell.  Cell i covers (boundaries[i], boundaries[i+1]]; the first cell is
closed on the left.  The formulas of each density family live in
``densities``: this module asks the density for its cell masses
(``_cell_masses``) and its moment terms (``_moment_terms``: a closed form per
piece for a piecewise density, where a cell with no breakpoint is one piece;
for a smooth one, Gauss rules weighted by |x - c|**p on the pieces that end
at the codepoint c), and never looks at the family.

A distortion adds all moment terms left to right across the span, a row of
pieces per cell; a cell's own moment adds its row (``densities._cell_sums``).
Every codepoint solve, for one cell or many, is one ``_quadrature.bisect_many``
call on ``_balances``: a cell's r-th moment's derivative in its codepoint,
over r, which is the (r-1)-moment left of the codepoint minus the one right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quadrature import bisect_many
from .core import _as_count, validate_exponent
from .densities import Density, Interval, _cell_sums, _checked, _not_nan
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


@dataclass(frozen=True, eq=False)
class IntervalQuantizer:
    boundaries: np.ndarray
    codepoints: np.ndarray

    def __post_init__(self):
        b = np.ascontiguousarray(self.boundaries, dtype=float)
        c = np.ascontiguousarray(self.codepoints, dtype=float)
        if b.ndim != 1 or c.ndim != 1 or len(b) != len(c) + 1 or len(c) < 1:
            raise ValueError("need n+1 boundaries for n >= 1 codepoints")
        self._settle(b, c, in_cells=False)

    @classmethod
    def _derived(cls, boundaries: np.ndarray, codepoints: np.ndarray,
                 in_cells: bool) -> "IntervalQuantizer":
        """``__init__`` without its shape checks, for arrays derived from checked
        ones.  ``in_cells`` says each finite codepoint lies in its closed cell
        (a midpoint does), so the codepoint check and the snap are skipped; the
        other checks stay, as a scale or a sum can overflow or collapse."""
        q = object.__new__(cls)
        q._settle(np.ascontiguousarray(boundaries), np.ascontiguousarray(codepoints), in_cells)
        return q

    def _settle(self, b: np.ndarray, c: np.ndarray, in_cells: bool):
        """Check the values of b and c, snap the codepoints into their cells and freeze both."""
        if not (np.isfinite(b).all() and np.isfinite(c).all()):
            raise ValueError("boundaries and codepoints must be finite")
        lo, hi = b[:-1], b[1:]
        if (hi <= lo).any():
            raise ValueError("boundaries must be strictly increasing")
        if not in_cells:
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
    masses = d._cell_masses(q.boundaries)
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
    terms = d._moment_terms(q.boundaries[:-1], q.boundaries[1:], q.codepoints, r)
    # every term of every cell, added left to right across the span
    return float(_checked(np.cumsum(terms.ravel())[-1]))


def cell_distortion(d: Density, lo: float, hi: float, c: float, r: float) -> float:
    """Integral of |x - c|**r against the density over a single cell."""
    r = validate_exponent(r)
    lo, hi, c = _not_nan(lo, "lo"), _not_nan(hi, "hi"), _not_nan(c, "c")
    if hi <= lo:
        return 0.0
    return float(_cell_sums(d._moment_terms([lo], [hi], [c], r))[0])


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


def _balances(d: Density, lo, hi, a, r: float) -> np.ndarray:
    """One-sided (r-1)-moments of each cell [lo[k], hi[k]] about a[k], left minus right."""
    n = len(a)
    sides = _cell_sums(d._moment_terms(np.concatenate((lo, a)), np.concatenate((a, hi)),
                                       np.concatenate((a, a)), r - 1.0))
    return sides[:n] - sides[n:]


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
    return IntervalQuantizer._derived(b, 0.5 * (b[:-1] + b[1:]), in_cells=True)


def transform_quantizer(q: IntervalQuantizer, c: float, t: float) -> IntervalQuantizer:
    """Image of the quantizer under x -> c*x + t with c > 0."""
    c = float(c)
    if not c > 0:
        raise ValueError(f"scale must be positive, got {c!r}")
    # x -> c*x + t rounds monotonically, so each image codepoint stays in its image cell
    return IntervalQuantizer._derived(c * q.boundaries + t, c * q.codepoints + t,
                                      in_cells=True)

"""Exhaustive small-instance optimum over grid-aligned quantizers.

The search space is every partition of a fixed candidate boundary grid into
at most ``max_cells`` contiguous cells, each cell carrying its exactly
optimal codepoint.  Instances are deliberately tiny (grid of at most 32
points, at most 8 cells) so the enumeration stays exact and fast.  An n-point
grid has only n(n - 1)/2 cells, so every per-partition figure reduces one
n * n per-cell table (masses, powers, distortions) along the tree that
``partitions()`` enumerates: a k-cell row is its (k - 1)-cell prefix and one
more cut, so each row costs its parent's value and two table reads
(``_PartitionTree``), and every sum adds a row's cells left to right, at
every ``max_cells``.  ``_entropies`` holds the row form of the range rule
of ``_quadrature._log_of_sum``: ``np.log`` of each normal power sum, the
log-sum-exp of its row's logs for the rest.  ``brute_force_optimal`` reads
its argmin's bounds and codepoints from the tree's cells of the best row.

The tree and its buffers depend only on the grid size and ``max_cells``, so
each thread keeps the last one it built for every instance of that shape,
held after its last search: 9.4 MB at 28 points and 7 cells, 84 MB at 32/8.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._quadrature import _exp_product, _log_sum_exp, _normal_sums
from .core import RenyiOrder, _as_count, _as_rate, as_order, branch_of, validate_exponent
from .densities import (PiecewiseConstantDensity, _cell_sums, _span_tol, density_from_spec,
                         density_to_spec)
from .quantizer import IntervalQuantizer, _optimal_codepoints

__all__ = [
    "GridInstance",
    "OracleResult",
    "MonotonicityError",
    "brute_force_optimal",
    "alpha_profile",
    "empirical_limit_probe",
    "instance_from_spec",
    "instance_to_spec",
]

MAX_GRID_POINTS = 32
MAX_CELLS = 8
FEASIBILITY_SLACK = 1e-12
# partitions() rows hold grid indices; the smallest type that holds them keeps
# the largest table (313,912 rows of 8 at 28 points and 7 cells) at 2.5 MB
_GRID_INDEX = np.min_scalar_type(MAX_GRID_POINTS - 1)
_last_tree = threading.local()  # .tree: the last _PartitionTree this thread built


class MonotonicityError(RuntimeError):
    """A profile that is provably monotone came out non-monotone."""


@dataclass(frozen=True)
class OracleResult:
    value: float
    argmin: IntervalQuantizer
    feasible_count: int


class CellTable(NamedTuple):
    """Per-order oracle table; cell (i, j) spans grid[i] to grid[j], i < j."""

    points: np.ndarray  # optimal codepoint of cell (i, j); NaN off the upper triangle
    distortions: np.ndarray  # distortion of cell (i, j); 0.0 elsewhere
    partition_distortion: np.ndarray  # total distortion of each partitions() row


class GridInstance:
    """A piecewise density with a candidate boundary grid.

    The grid must span the support exactly and contain every density
    breakpoint, so each grid segment has constant height and all cell masses
    are exact.  Cell (i, j) of an n-point grid sits at i * n + j of the flat
    per-cell tables; the search reduces them over every partition along the
    ``_PartitionTree`` of its shape, which ``_tree`` shares per thread.
    """

    def __init__(self, density: PiecewiseConstantDensity, grid: Sequence[float], max_cells: int):
        if not isinstance(density, PiecewiseConstantDensity):
            raise ValueError("the exhaustive search needs a piecewise-constant density")
        g = np.ascontiguousarray(grid, dtype=float)
        if g.ndim != 1 or len(g) < 2:
            raise ValueError("grid must hold at least two points")
        if len(g) > MAX_GRID_POINTS:
            raise ValueError(f"grid may hold at most {MAX_GRID_POINTS} points, got {len(g)}")
        if not np.isfinite(g).all():
            raise ValueError("grid points must be finite")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        supp = density.support
        tol = _span_tol(supp.width)
        if abs(g[0] - supp.lo) > tol or abs(g[-1] - supp.hi) > tol:
            raise ValueError("grid must span the density support exactly")
        for x in density.interior_breakpoints():
            if np.abs(g - x).min() > tol:
                raise ValueError(f"density breakpoint {x!r} is missing from the grid")
        max_cells = _as_count(max_cells, "max_cells")
        if not 1 <= max_cells <= MAX_CELLS:
            raise ValueError(f"max_cells must lie in [1, {MAX_CELLS}], got {max_cells}")
        if max_cells > len(g) - 1:
            raise ValueError("max_cells exceeds the number of grid segments")
        g.flags.writeable = False
        self.density = density
        self.grid = g
        self.max_cells = max_cells
        pref = density.cdf(g)
        self._cell_mass = (pref[None, :] - pref[:, None]).ravel()  # cell (i, j) at i * n + j
        self._partitions = None
        self._mass_matrix = None
        self._per_r = {}

    def partitions(self) -> np.ndarray:
        """Boundary indices of every partition, one row each.

        Rows run fewest cells first, cuts lexicographic.  A row holds
        max_cells + 1 grid indices: 0, the cuts, then the last grid index
        repeated, so a k-cell row ends in max_cells - k + 1 copies of it.
        """
        if self._partitions is None:
            n, tree = len(self.grid), self._tree()
            idx = np.full((tree.rows, self.max_cells + 1), n - 1, dtype=_GRID_INDEX)
            idx[:, 0] = 0
            b = tree.bounds
            for k, (parent, step) in enumerate(zip(tree.parents, tree.steps), start=1):
                # a row of k cuts: its parent's cuts, then its own last cut
                new = idx[b[k] : b[k + 1]]
                new[:, :k] = idx[b[k - 1] : b[k], :k][parent]
                new[:, k] = step % n
            idx.flags.writeable = False
            self._partitions = idx
        return self._partitions

    def _tree(self) -> "_PartitionTree":
        """The partitions() rows as a tree: this thread's last one, if it has this shape."""
        tree = getattr(_last_tree, "tree", None)
        if tree is None or tree.shape != (len(self.grid), self.max_cells):
            _last_tree.tree = None  # the old tree goes before the new one is built
            tree = _last_tree.tree = _PartitionTree(len(self.grid), self.max_cells)
        return tree

    def mass_matrix(self) -> np.ndarray:
        """Cell masses per partition; padding cells carry an exact zero."""
        if self._mass_matrix is None:
            tree = self._tree()
            self._mass_matrix = self._cell_mass[tree.cells(np.arange(tree.rows))]
            self._mass_matrix.flags.writeable = False
        return self._mass_matrix

    def cell_table(self, r: float) -> CellTable:
        """Optimal codepoint and distortion for every contiguous cell."""
        r = validate_exponent(r)
        if r not in self._per_r:
            g = self.grid
            n = len(g)
            lo_i, hi_i = np.triu_indices(n, k=1)
            lo, hi = g[lo_i], g[hi_i]
            mass = self._cell_mass.reshape(n, n)[lo_i, hi_i]
            if np.any(mass <= 0.0):
                k = int(np.flatnonzero(mass <= 0.0)[0])
                raise ValueError(f"cell [{lo[k]}, {hi[k]}] carries no mass")
            c = _optimal_codepoints(self.density, lo, hi, r)
            points = np.full((n, n), np.nan)
            points[lo_i, hi_i] = c
            dists = np.zeros((n, n))
            dists[lo_i, hi_i] = _cell_sums(self.density._moment_terms(lo, hi, c, r))
            tree = self._tree()
            vec = tree.reduce(dists.ravel(), np.add, np.empty(tree.rows))
            for arr in (points, dists, vec):
                arr.flags.writeable = False
            self._per_r[r] = CellTable(points, dists, vec)
        return self._per_r[r]


class _PartitionTree:
    """The partitions() rows as the tree they are enumerated along.

    The k-cell rows extend the (k - 1)-cell rows in order, each by every
    later cut, so the (k + 1)-cell rows are one per prefix of k cuts, and
    the prefixes of k cuts are their parents' children.  For each depth
    k = 1 .. max_cells - 1, ``parents[k - 1]`` maps a prefix of k cuts to its
    prefix of k - 1 cuts and ``steps[k - 1]`` holds its last cell (x[k - 1],
    x[k]) at x[k - 1] * n + x[k]; the empty prefix is cut 0.  The partitions
    of each cell count take the slice ``bounds[k - 1]:bounds[k]`` of a row
    vector.  ``reduce`` walks the depths in order, so each row's value is
    one fold of its cells from the left.  The index arrays are read-only.
    ``out`` and ``scratch`` are buffers of a row vector and of the largest
    level, kept so that repeated reductions allocate nothing; one thread
    uses them, since each thread builds its own tree (``GridInstance._tree``).
    """

    def __init__(self, n: int, max_cells: int):
        self.n, self.shape = n, (n, max_cells)
        self.parents, self.steps = [], []
        cut = np.zeros(1, dtype=np.intp)  # last cut of each prefix
        for _ in range(1, max_cells):
            more = n - 2 - cut  # each later cut makes one child
            parent = np.repeat(np.arange(len(cut)), more)
            # the child at place c of a prefix whose first child is at place
            # s cuts at cut + 1 + c - s, that is at c - shift
            shift = np.cumsum(more) - more - cut - 1
            rank = np.arange(len(parent))
            step = np.take(cut * n - shift, parent)
            step += rank
            cut = np.subtract(rank, np.take(shift, parent), out=rank)
            self.parents.append(parent)
            self.steps.append(step)
        self.bounds = np.cumsum([0, 1, *map(len, self.steps)])
        for arr in (self.bounds, *self.parents, *self.steps):
            arr.flags.writeable = False
        self.rows = int(self.bounds[-1])
        self.out = np.empty(self.rows)
        self.scratch = np.empty(int(np.diff(self.bounds).max()))

    def reduce(self, table: np.ndarray, op, out: np.ndarray):
        """Reduce a flat n * n per-cell table over each row's cells into out.

        Cells fold left to right, for every ``max_cells``: each level of out
        first holds its prefixes' folds, which their children extend, and
        then takes each prefix's closing cell (x[k], n - 1).
        """
        n, scratch = self.n, self.scratch
        # the closing cell (x, n - 1) of a row whose last cell is (w, x)
        closes = np.ascontiguousarray(np.broadcast_to(table[n - 1 :: n], (n, n))).ravel()
        levels = [out[a:b] for a, b in zip(self.bounds[:-1], self.bounds[1:])]
        levels[0][0] = table[n - 1]
        for depth, (parent, step) in enumerate(zip(self.parents, self.steps), start=1):
            here = levels[depth]
            if depth == 1:
                np.take(table, step, out=here, mode="clip")
            else:
                np.take(levels[depth - 1], parent, out=here, mode="clip")
                op(here, np.take(table, step, out=scratch[: len(step)], mode="clip"), out=here)
        for level, step in zip(levels[1:], self.steps):
            op(level, np.take(closes, step, out=scratch[: len(step)], mode="clip"), out=level)
        return out

    def cells(self, rows: np.ndarray) -> np.ndarray:
        """Flat cells of the partitions() rows ``rows``, given in order, one row each.

        Padding cells are (n - 1, n - 1), whose mass and distortion are 0.
        """
        n = self.n
        cells = np.full((len(rows), len(self.steps) + 1), n * n - 1)
        ends = np.searchsorted(rows, self.bounds)
        for k in range(1, len(ends)):  # the rows of k cells, walked up to the root
            block = cells[ends[k - 1] : ends[k]]
            j = rows[ends[k - 1] : ends[k]] - self.bounds[k - 1]
            block[:, k - 1] = (self.steps[k - 2][j] % n if k > 1 else 0) * n + n - 1
            for depth in range(k - 1, 0, -1):
                block[:, depth - 1] = self.steps[depth - 1][j]
                j = self.parents[depth - 1][j]
        return cells


def _entropies(inst: GridInstance, alpha: RenyiOrder) -> np.ndarray:
    """Entropy of order alpha of every partition, from the flat cell masses.

    The result is the output buffer of this thread's tree, which the next
    call in the same thread overwrites, whatever its instance.
    """
    mass, tree = inst._cell_mass, inst._tree()
    branch = branch_of(alpha)
    if branch in ("pos_inf", "neg_inf"):
        if branch == "pos_inf":
            out = tree.reduce(mass, np.maximum, tree.out)
        else:
            out = tree.reduce(np.where(mass > 0.0, mass, np.inf), np.minimum, tree.out)
        return np.negative(np.log(out, out=out), out=out)
    if branch == "shannon":
        safe = np.where(mass > 0.0, mass, 1.0)
        out = tree.reduce(safe * np.log(safe), np.add, tree.out)
        return np.negative(out, out=out)
    v = alpha.value
    powered = np.zeros_like(mass)
    with np.errstate(over="ignore"):
        np.power(mass, v, out=powered, where=mass > 0.0)
    sums = tree.reduce(powered, np.add, tree.out)
    # the two extremes tell whether any row leaves the normal range
    bad = None if _normal_sums(sums.min()) and _normal_sums(sums.max()) else ~_normal_sums(sums)
    with np.errstate(divide="ignore"):
        logs = np.log(sums, out=sums)
    if bad is not None:
        pos = mass > 0.0
        cell_logs = np.where(pos, v * np.log(np.where(pos, mass, 1.0)), -np.inf)
        # each row's largest term along the tree: max is exact, so any order gives its bits
        top = tree.reduce(cell_logs, np.maximum, np.empty(tree.rows))[bad]
        logs[bad] = _log_sum_exp(cell_logs[tree.cells(np.flatnonzero(bad))], top)
    return np.divide(logs, 1.0 - v, out=logs)


def brute_force_optimal(inst: GridInstance, alpha, rate: float, r: float) -> OracleResult:
    """Exact minimum distortion over the instance's partition class.

    Feasibility is entropy <= rate + a strict slack; ties resolve to the
    partition with the fewest cells and then the lexicographically smallest
    cut vector, which is the enumeration order.
    """
    a = as_order(alpha)
    rate = _as_rate(rate)
    feasible = _entropies(inst, a) <= rate + FEASIBILITY_SLACK
    count = int(np.count_nonzero(feasible))
    if count == 0:
        raise ValueError("no partition satisfies the entropy budget")
    table = inst.cell_table(r)
    dist = table.partition_distortion
    best_value = float(np.min(dist, where=feasible, initial=np.inf))
    n, best = len(inst.grid), np.argmax(feasible & (dist == best_value))
    cells = inst._tree().cells(np.array([best]))[0]
    lo, hi = np.divmod(cells[cells < n * n - 1], n)  # the padding cells go
    bounds = inst.grid[np.append(lo, hi[-1])]
    return OracleResult(best_value, IntervalQuantizer(bounds, table.points[lo, hi]), count)


def alpha_profile(inst: GridInstance, alphas, rate: float, r: float):
    """Oracle values across a nondecreasing grid of orders.

    The feasible sets grow with the order, so the values must come out
    nonincreasing; any increase is an implementation fault and raises.
    """
    orders = [as_order(a) for a in alphas]
    if any(b < a for a, b in zip(orders[:-1], orders[1:])):
        raise ValueError("orders must be nondecreasing")
    results = [brute_force_optimal(inst, a, rate, r) for a in orders]
    values = [res.value for res in results]
    for (a0, v0), (a1, v1) in zip(zip(orders[:-1], values[:-1]), zip(orders[1:], values[1:])):
        if v1 > v0:
            raise MonotonicityError(
                f"oracle value rose from {v0!r} at order {a0.value} to {v1!r} at order {a1.value}"
            )
    return results


def empirical_limit_probe(inst: GridInstance, alpha, r: float, rates) -> list:
    """Scaled oracle values e**(r * rate) * value along a rate schedule."""
    r = validate_exponent(r)
    scaled = []
    for R in map(float, rates):
        value = brute_force_optimal(inst, alpha, R, r).value
        scaled.append(_exp_product(lambda: math.exp(r * R) * value,
                                   lambda: (r * R, math.log(value))))
        if not math.isfinite(scaled[-1]):
            raise ValueError(f"the scaled oracle value at rate {R!r} overflows")
    return scaled


def instance_from_spec(spec: dict) -> GridInstance:
    """Build an instance from JSON: density spec, grid, max_cells."""
    if not isinstance(spec, dict):
        raise ValueError("instance spec must be an object")
    try:
        density = density_from_spec(spec["density"])
        grid = spec["grid"]
        max_cells = spec["max_cells"]
    except KeyError as exc:
        raise ValueError(f"instance spec is missing field {exc}") from None
    return GridInstance(density, grid, max_cells)


def instance_to_spec(inst: GridInstance) -> dict:
    return {
        "density": density_to_spec(inst.density),
        "grid": [float(x) for x in inst.grid],
        "max_cells": inst.max_cells,
    }

"""Exhaustive small-instance optimum over grid-aligned quantizers.

The search space is every partition of a fixed candidate boundary grid into
at most ``max_cells`` contiguous cells, each cell carrying its exactly
optimal codepoint.  Instances are deliberately tiny (grid of at most 32
points, at most 8 cells) so the enumeration stays exact and fast.  An n-point
grid has only n(n - 1)/2 cells, so per-partition work reduces one n * n
per-cell table (masses, powers, distortions) through a flat cell index.
``_entropies`` holds the row form of the range rule of ``_quadrature._log_of_sum``:
``np.log`` of each normal power sum, the log-sum-exp of its row's logs for the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._quadrature import _log_sum_exp, _normal_sums
from .core import RenyiOrder, as_order, branch_of, validate_exponent
from .densities import PiecewiseConstantDensity, _cell_sums, density_from_spec, density_to_spec
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
    are exact.
    """

    def __init__(self, density: PiecewiseConstantDensity, grid: Sequence[float], max_cells: int):
        if not isinstance(density, PiecewiseConstantDensity):
            raise ValueError("the exhaustive search needs a piecewise-constant density")
        g = np.ascontiguousarray(grid, dtype=float)
        if g.ndim != 1 or len(g) < 2:
            raise ValueError("grid must hold at least two points")
        if len(g) > MAX_GRID_POINTS:
            raise ValueError(f"grid may hold at most {MAX_GRID_POINTS} points, got {len(g)}")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        supp = density.support
        tol = 1e-12 * max(supp.width, 1.0)
        if abs(g[0] - supp.lo) > tol or abs(g[-1] - supp.hi) > tol:
            raise ValueError("grid must span the density support exactly")
        for x in density.interior_breakpoints():
            if np.abs(g - x).min() > tol:
                raise ValueError(f"density breakpoint {x!r} is missing from the grid")
        max_cells = int(max_cells)
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
        self._cells = None
        self._mass_matrix = None
        self._per_r = {}

    def partitions(self) -> np.ndarray:
        """Boundary indices of every partition, one row each.

        Rows run fewest cells first, cuts lexicographic.  A row holds
        max_cells + 1 grid indices: 0, the cuts, then the last grid index
        repeated, so a k-cell row ends in max_cells - k + 1 copies of it.
        """
        if self._partitions is None:
            last = len(self.grid) - 1
            counts = [math.comb(last - 1, k - 1) for k in range(1, self.max_cells + 1)]
            idx = np.full((sum(counts), self.max_cells + 1), last, dtype=_GRID_INDEX)
            idx[:, 0] = 0
            start, stop = 0, 1
            for k in range(1, self.max_cells):
                # each (k - 1)-cut row, in order, followed by every later cut
                prev = idx[start:stop, :k]
                more = last - 1 - prev[:, -1].astype(np.intp)
                new = idx[stop : stop + counts[k]]
                new[:, :k] = np.repeat(prev, more, axis=0)
                new[:, k] = new[:, k - 1] + np.arange(1, counts[k] + 1) - np.repeat(
                    np.cumsum(more) - more, more)
                start, stop = stop, stop + counts[k]
            idx.flags.writeable = False
            self._partitions = idx
        return self._partitions

    def _cell_index(self) -> np.ndarray:
        """Row j: flat cell i * n + k of slot j of every partitions() row.

        Padding cells are (last, last), whose mass and distortion are 0.
        """
        if self._cells is None:
            idx = self.partitions()
            cells = np.empty((self.max_cells, len(idx)), dtype=np.intp)
            for j, row in enumerate(cells):
                np.multiply(idx[:, j], len(self.grid), out=row, dtype=np.intp)
                row += idx[:, j + 1]
            cells.flags.writeable = False
            self._cells = cells
        return self._cells

    def mass_matrix(self) -> np.ndarray:
        """Cell masses per partition; padding cells carry an exact zero."""
        if self._mass_matrix is None:
            self._mass_matrix = self._cell_mass[self._cell_index().T]
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
            # the last grid index pairs with itself in padding cells: 0.0
            dists[lo_i, hi_i] = _cell_sums(self.density._moment_terms(lo, hi, c, r))
            vec = _partition_reduce(dists.ravel(), self._cell_index(), np.add)
            for arr in (points, dists, vec):
                arr.flags.writeable = False
            self._per_r[r] = CellTable(points, dists, vec)
        return self._per_r[r]


def _partition_reduce(table: np.ndarray, cells: np.ndarray, op) -> np.ndarray:
    """Reduce a flat per-cell table over each partition's cells, left to right."""
    out = table[cells[0]]
    for slot in cells[1:]:
        op(out, table[slot], out=out)
    return out


def _partition_sums(table: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Sum over each partition as np.sum adds a row: by pairs of pairs at 8 cells."""
    if len(cells) < 8:
        return _partition_reduce(table, cells, np.add)
    pairs = [table[a] + table[b] for a, b in zip(cells[::2], cells[1::2])]
    return (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])


def _entropies(mass: np.ndarray, cells: np.ndarray, alpha: RenyiOrder) -> np.ndarray:
    """Entropy of order alpha of every partition, from the flat cell masses."""
    branch = branch_of(alpha)
    if branch == "pos_inf":
        return -np.log(_partition_reduce(mass, cells, np.maximum))
    if branch == "neg_inf":
        return -np.log(_partition_reduce(np.where(mass > 0.0, mass, np.inf), cells, np.minimum))
    if branch == "shannon":
        safe = np.where(mass > 0.0, mass, 1.0)
        return -_partition_sums(safe * np.log(safe), cells)
    v = alpha.value
    powered = np.zeros_like(mass)
    with np.errstate(over="ignore"):
        np.power(mass, v, out=powered, where=mass > 0.0)
    sums = _partition_sums(powered, cells)
    with np.errstate(divide="ignore"):
        logs = np.log(sums)
    bad = ~_normal_sums(sums)
    if bad.any():
        rows = np.ascontiguousarray(mass[cells[:, bad]].T)
        pos = rows > 0.0
        logs[bad] = _log_sum_exp(np.where(pos, v * np.log(np.where(pos, rows, 1.0)), -np.inf))
    return logs / (1.0 - v)


def brute_force_optimal(inst: GridInstance, alpha, rate: float, r: float) -> OracleResult:
    """Exact minimum distortion over the instance's partition class.

    Feasibility is entropy <= rate + a strict slack; ties resolve to the
    partition with the fewest cells and then the lexicographically smallest
    cut vector, which is the enumeration order.
    """
    a = as_order(alpha)
    rate = float(rate)
    if math.isnan(rate):
        raise ValueError(f"the rate must be a number, got {rate!r}")
    if rate < 0.0:
        raise ValueError(f"the feasible set is empty for negative rate {rate!r}")
    ent = _entropies(inst._cell_mass, inst._cell_index(), a)
    feasible = ent <= rate + FEASIBILITY_SLACK
    count = int(feasible.sum())
    if count == 0:
        raise ValueError("no partition satisfies the entropy budget")
    table = inst.cell_table(r)
    dist = table.partition_distortion
    best_value = float(dist[feasible].min())
    row = inst.partitions()[int(np.flatnonzero(feasible & (dist == best_value))[0])]
    part = row[: int(np.argmax(row == row[-1])) + 1]  # drop the padding
    bounds = inst.grid[part]
    points = table.points[part[:-1], part[1:]]
    return OracleResult(best_value, IntervalQuantizer(bounds, points), count)


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
        try:
            scaled.append(math.exp(r * R) * value)
        except OverflowError:
            scaled.append(math.inf)
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

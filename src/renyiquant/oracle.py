"""Exhaustive small-instance optimum over grid-aligned quantizers.

The search space is every partition of a fixed candidate boundary grid into
at most ``max_cells`` contiguous cells, each cell carrying its exactly
optimal codepoint.  Instances are deliberately tiny (grid of at most 32
points, at most 8 cells) so the enumeration stays exact and fast; per-cell
masses and distortions are cached and shared across entropy orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import NamedTuple, Sequence

import numpy as np

from .core import RenyiOrder, as_order, branch_of, validate_exponent
from .densities import PiecewiseConstantDensity, density_from_spec, density_to_spec
from .entropy import _log_power_sums
from .quantizer import IntervalQuantizer, _cell_distortions, _optimal_codepoints

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
        self._mass_prefix = np.array([density.cdf(float(x)) for x in g])
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
            last = len(self.grid) - 1
            counts = [math.comb(last - 1, k - 1) for k in range(1, self.max_cells + 1)]
            idx = np.full((sum(counts), self.max_cells + 1), last, dtype=_GRID_INDEX)
            idx[:, 0] = 0
            row = 0
            for k, count in enumerate(counts, start=1):
                cuts = chain.from_iterable(combinations(range(1, last), k - 1))
                idx[row : row + count, 1:k] = np.fromiter(
                    cuts, dtype=_GRID_INDEX, count=count * (k - 1)
                ).reshape(count, k - 1)
                row += count
            idx.flags.writeable = False
            self._partitions = idx
        return self._partitions

    def mass_matrix(self) -> np.ndarray:
        """Cell masses per partition; padding cells carry an exact zero."""
        if self._mass_matrix is None:
            idx = self.partitions()
            pref = self._mass_prefix
            m = pref[idx[:, 1:]] - pref[idx[:, :-1]]
            m.flags.writeable = False
            self._mass_matrix = m
        return self._mass_matrix

    def cell_table(self, r: float) -> CellTable:
        """Optimal codepoint and distortion for every contiguous cell."""
        r = validate_exponent(r)
        if r not in self._per_r:
            g = self.grid
            n = len(g)
            lo_i, hi_i = np.triu_indices(n, k=1)
            lo, hi = g[lo_i], g[hi_i]
            mass = self._mass_prefix[hi_i] - self._mass_prefix[lo_i]
            if np.any(mass <= 0.0):
                k = int(np.flatnonzero(mass <= 0.0)[0])
                raise ValueError(f"cell [{lo[k]}, {hi[k]}] carries no mass")
            c = _optimal_codepoints(self.density, lo, hi, r)
            points = np.full((n, n), np.nan)
            points[lo_i, hi_i] = c
            dists = np.zeros((n, n))
            # the last grid index pairs with itself in padding cells: 0.0
            dists[lo_i, hi_i] = _cell_distortions(self.density, lo, hi, c, r)
            idx = self.partitions()
            vec = dists[idx[:, 0], idx[:, 1]]
            for j in range(1, self.max_cells):
                vec += dists[idx[:, j], idx[:, j + 1]]
            for arr in (points, dists, vec):
                arr.flags.writeable = False
            self._per_r[r] = CellTable(points, dists, vec)
        return self._per_r[r]


def _entropies(masses: np.ndarray, alpha: RenyiOrder) -> np.ndarray:
    branch = branch_of(alpha)
    if branch == "pos_inf":
        return -np.log(masses.max(axis=1))
    if branch == "neg_inf":
        return -np.log(np.where(masses > 0.0, masses, np.inf).min(axis=1))
    if branch == "shannon":
        safe = np.where(masses > 0.0, masses, 1.0)
        return -(safe * np.log(safe)).sum(axis=1)
    v = alpha.value
    if v == 0.0:
        return np.log((masses > 0.0).sum(axis=1))
    powered = np.zeros_like(masses)
    with np.errstate(over="ignore"):
        np.power(masses, v, out=powered, where=masses > 0.0)
    return _log_power_sums(masses, v, powered.sum(axis=1)) / (1.0 - v)


def brute_force_optimal(inst: GridInstance, alpha, rate: float, r: float) -> OracleResult:
    """Exact minimum distortion over the instance's partition class.

    Feasibility is entropy <= rate + a strict slack; ties resolve to the
    partition with the fewest cells and then the lexicographically smallest
    cut vector, which is the enumeration order.
    """
    a = as_order(alpha)
    rate = float(rate)
    if rate < 0.0:
        raise ValueError(f"the feasible set is empty for negative rate {rate!r}")
    ent = _entropies(inst.mass_matrix(), a)
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
    return [math.exp(r * float(R)) * brute_force_optimal(inst, alpha, R, r).value for R in rates]


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
    if not isinstance(density, PiecewiseConstantDensity):
        raise ValueError("instance density must be uniform or piecewise")
    return GridInstance(density, grid, max_cells)


def instance_to_spec(inst: GridInstance) -> dict:
    return {
        "density": density_to_spec(inst.density),
        "grid": [float(x) for x in inst.grid],
        "max_cells": inst.max_cells,
    }

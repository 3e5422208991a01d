"""Plain references for the oracle's per-partition work.

``partitions`` builds the partition table from ``itertools.combinations``
and ``entropies`` reduces a whole P x max_cells mass matrix, padding zeros
included, one order at a time.  Every sum adds a row left to right, at
every width.  ``renyiquant.oracle`` does the same work by reducing per-cell
tables along the partition tree, and must give the same arrays bit for bit.
"""

from __future__ import annotations

import math
from itertools import chain, combinations

import numpy as np

from renyiquant.core import branch_of
from renyiquant._quadrature import _log_sum_exp, _normal_sums


def partitions(n_points: int, max_cells: int) -> np.ndarray:
    """Boundary indices of every partition: fewest cells first, cuts lexicographic."""
    last = n_points - 1
    counts = [math.comb(last - 1, k - 1) for k in range(1, max_cells + 1)]
    idx = np.full((sum(counts), max_cells + 1), last, dtype=np.uint8)
    idx[:, 0] = 0
    row = 0
    for k, count in enumerate(counts, start=1):
        cuts = chain.from_iterable(combinations(range(1, last), k - 1))
        idx[row : row + count, 1:k] = np.fromiter(
            cuts, dtype=np.uint8, count=count * (k - 1)
        ).reshape(count, k - 1)
        row += count
    return idx


def mass_matrix(prefix: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Cell masses of every partition row; padding cells carry an exact zero."""
    return prefix[idx[:, 1:]] - prefix[idx[:, :-1]]


def _left_to_right(rows: np.ndarray) -> np.ndarray:
    """Each row's entries added left to right."""
    total = rows[:, 0].copy()
    for col in rows.T[1:]:
        total += col
    return total


def _log_power_sums(masses, v, sums):
    bad = ~_normal_sums(sums)
    with np.errstate(divide="ignore"):
        logs = np.log(sums)
    if bad.any():
        rows = masses[bad]
        pos = rows > 0.0
        logs[bad] = _log_sum_exp(np.where(pos, v * np.log(np.where(pos, rows, 1.0)), -np.inf))
    return logs


def entropies(masses: np.ndarray, alpha) -> np.ndarray:
    """Entropy of order alpha of every row of a mass matrix."""
    branch = branch_of(alpha)
    if branch == "pos_inf":
        return -np.log(masses.max(axis=1))
    if branch == "neg_inf":
        return -np.log(np.where(masses > 0.0, masses, np.inf).min(axis=1))
    if branch == "shannon":
        safe = np.where(masses > 0.0, masses, 1.0)
        return -_left_to_right(safe * np.log(safe))
    v = alpha.value
    if v == 0.0:
        return np.log((masses > 0.0).sum(axis=1))
    powered = np.zeros_like(masses)
    with np.errstate(over="ignore"):
        np.power(masses, v, out=powered, where=masses > 0.0)
    return _log_power_sums(masses, v, _left_to_right(powered)) / (1.0 - v)


def partition_distortion(dists: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Each row's cell distortions from an n x n table, added left to right."""
    return _left_to_right(dists[idx[:, :-1], idx[:, 1:]])

"""Plain reference for the common refinement of two piecewise densities.

``common_pieces`` cuts the support of f at the breakpoints of g inside it,
then cuts each of those pieces at the breakpoints of f inside it, with one
``cut_cells`` call per density.  ``renyiquant.densities._pair_cut`` merges
both breakpoint sets in one step and must return the same widths and
heights, float for float, on the pieces where g is positive.

A piece takes the height of the segment it lies in, found from its left end
with a scalar search, 0 outside the support.  Its midpoint would not do: a
piece one float wide has its midpoint rounded onto one of its ends, which
may be a breakpoint or an end of the support.
"""

from __future__ import annotations

import bisect

import numpy as np


def height_right_of(d, x: float) -> float:
    """Height of d on the segment (b[j], b[j + 1]] with b[j] <= x < b[j + 1]; 0 if none."""
    j = bisect.bisect_right(d.breakpoints.tolist(), x) - 1
    return float(d.heights[j]) if 0 <= j < len(d.heights) else 0.0


def cut_cells(d, lo, hi):
    """Cut each cell [lo[k], hi[k]] at the breakpoints of d strictly inside it.

    Returns ``(edges, heights)``: row k of ``edges`` holds lo[k], the inner
    breakpoints and then hi[k], repeated out to the longest row;
    ``heights[k, j]`` is the height of piece j of row k.
    """
    x = d.breakpoints
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    first = np.searchsorted(x, lo, side="right")
    count = np.maximum(np.searchsorted(x, hi, side="left") - first, 0)
    inner = np.arange(count.max())
    idx = np.minimum(first[:, None] + inner, len(x) - 1)
    edges = np.empty((len(lo), len(inner) + 2), order="F")
    edges[:, 0] = lo
    edges[:, 1:-1] = np.where(inner < count[:, None], x[idx], hi[:, None])
    edges[:, -1] = hi
    left = edges[:, :-1]
    heights = np.array([height_right_of(d, x) for x in left.ravel().tolist()])
    return edges, heights.reshape(left.shape)


def common_pieces(f, g):
    """Piece widths and the heights of f and of g, left to right over f's support."""
    g_edges, g_heights = cut_cells(g, [f.support.lo], [f.support.hi])
    edges, f_heights = cut_cells(f, g_edges[0, :-1], g_edges[0, 1:])
    # every piece of row k lies inside piece k of g, where g is constant
    g_heights = np.broadcast_to(g_heights[0][:, None], f_heights.shape)
    widths = np.diff(edges, axis=1)
    keep = widths > 0.0
    return widths[keep], f_heights[keep], g_heights[keep]

"""Plain reference for the common refinement of two piecewise densities.

``common_pieces`` cuts the support of f at the breakpoints of g inside it,
then cuts each of those pieces at the breakpoints of f inside it, with one
``cut_cells`` call per density.  ``renyiquant.densities._common_pieces``
merges both breakpoint sets in one step and must return the same widths
and heights, float for float.
"""

from __future__ import annotations

import numpy as np


def cut_cells(d, lo, hi):
    """Cut each cell [lo[k], hi[k]] at the breakpoints of d strictly inside it.

    Returns ``(edges, heights)``: row k of ``edges`` holds lo[k], the inner
    breakpoints and then hi[k], repeated out to the longest row;
    ``heights[k, j]`` is the pdf at the midpoint of piece j of row k.
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
    return edges, d._pdf_values(0.5 * (edges[:, :-1] + edges[:, 1:]))


def common_pieces(f, g):
    """Piece widths and the heights of f and of g, left to right over f's support."""
    g_edges, g_heights = cut_cells(g, [f.support.lo], [f.support.hi])
    edges, f_heights = cut_cells(f, g_edges[0, :-1], g_edges[0, 1:])
    # every piece of row k lies inside piece k of g, where g is constant
    g_heights = np.broadcast_to(g_heights[0][:, None], f_heights.shape)
    widths = np.diff(edges, axis=1)
    keep = widths > 0.0
    return widths[keep], f_heights[keep], g_heights[keep]

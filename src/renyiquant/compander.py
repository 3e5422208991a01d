"""Companding quantizers driven by a point density.

A compander is described by a probability density g on a compact interval.
Its compressor G is the cdf of g and the expander is the generalized inverse
of G.  The N-level companding quantizer places boundaries at expander(i/N)
and codepoints at expander((2i-1)/(2N)); a midpoint variant keeps the same
boundaries but uses cell midpoints.
"""

from __future__ import annotations

import numpy as np

from ._quadrature import scan_extremum
from .core import distortion_constant, validate_exponent
from .densities import (
    Density,
    PiecewiseConstantDensity,
    SmoothDensity,
    _common_pieces,
    _pair_integral,
    require_nested_supports,
)
from .entropy import relative_entropy
from .quantizer import IntervalQuantizer

__all__ = [
    "Compander",
    "bennett_functional",
    "entropy_offset",
    "compressed_density",
]

INVERSE_CHECK_POINTS = 65
INVERSE_TOL = 1e-10


class Compander:
    """Point-density view of a companding quantizer family.

    The point density must be bounded away from zero on its support;
    construction verifies that the expander inverts the compressor on a grid.
    ``build`` keeps the expander values of its latest grid, so a sweep over
    nested level counts asks the point density for each argument only once.
    """

    def __init__(self, point_density: Density):
        if point_density.ess_bounds()[0] <= 0.0:
            raise ValueError("point density must be bounded away from zero on its support")
        self.point_density = point_density
        supp = point_density.support
        xs = np.linspace(supp.lo, supp.hi, INVERSE_CHECK_POINTS)
        us = self.compress(xs)
        worst = float(np.max(np.abs(self.expand(us) - xs)))
        if worst > INVERSE_TOL * supp.width:
            raise ValueError(f"expander fails to invert the compressor (err {worst!r})")
        # the latest grid build expanded: sorted arguments and their images
        self._last_grid = (np.empty(0), np.empty(0))

    @property
    def support(self):
        return self.point_density.support

    def compress(self, x):
        """Compressor at x, a scalar or an array."""
        return self.point_density.cdf(x)

    def expand(self, u):
        """Expander at u, a scalar or an array."""
        return self.point_density.quantile(u)

    def _expand_grid(self, us: np.ndarray) -> np.ndarray:
        """Expander at the sorted distinct arguments us.

        Arguments shared with the previous call reuse its values; the rest
        come from one expander call.  Only this call's grid is kept, so the
        memory held stays at one grid whatever sequence of grids is asked.
        """
        last_u, last_x = self._last_grid
        pos = np.searchsorted(last_u, us)
        seen = pos < len(last_u)
        seen[seen] = last_u[pos[seen]] == us[seen]
        xs = np.empty(len(us))
        xs[seen] = last_x[pos[seen]]
        new = ~seen
        if new.any():
            xs[new] = self.expand(us[new])
        self._last_grid = (us, xs)
        return xs

    def build(self, n: int) -> IntervalQuantizer:
        """N-level companding quantizer with expanded-midpoint codepoints."""
        n = int(n)
        if n < 1:
            raise ValueError(f"need at least one level, got {n}")
        # even entries are the boundaries i/n, odd ones the codepoints (2i-1)/(2n):
        # a correctly rounded quotient does not depend on how the fraction is written
        xs = self._expand_grid(np.arange(2 * n + 1) / (2 * n))
        bounds = xs[0::2]
        if np.any(np.diff(bounds) <= 0):
            raise ValueError(f"companding boundaries collapse at {n} levels")
        return IntervalQuantizer(bounds, xs[1::2])

    def midpoint_variant(self, n: int) -> IntervalQuantizer:
        """Same boundaries as build(n) but with cell-midpoint codepoints."""
        q = self.build(n)
        mids = 0.5 * (q.boundaries[:-1] + q.boundaries[1:])
        return IntervalQuantizer(q.boundaries, mids)

    def __repr__(self):
        return f"Compander({self.point_density!r})"


def bennett_functional(f: Density, g: Density, r: float) -> float:
    """Predicted scaled distortion limit: C(r) times the integral of f/g**r.

    Integration runs over the support of f, which must sit inside the
    support of g; the point density g must be bounded away from zero there.
    """
    r = validate_exponent(r)
    require_nested_supports(f, g)
    if g.ess_bounds()[0] <= 0.0:
        raise ValueError("point density must be bounded away from zero")
    integral = _pair_integral(f, g, lambda w, hf, hg: w * hf / hg**r)
    return distortion_constant(r) * integral


def entropy_offset(f: Density, g: Density, alpha) -> float:
    """Limit of (output entropy - log N) for companding quantizers.

    Equals minus the order-alpha divergence of the source f from the point
    density g.
    """
    return -relative_entropy(f, g, alpha)


def compressed_density(f: Density, g: Density, *, table_cells: int = 256) -> Density:
    """Distribution of the compressed variable G(X) with X drawn from f.

    For piecewise inputs the result is piecewise-constant with heights f/g
    mapped through the compressor; otherwise a quadrature-backed density on
    [G(lo_f), G(hi_f)] is returned.
    """
    require_nested_supports(f, g)
    if g.ess_bounds()[0] <= 0.0:
        raise ValueError("point density must be bounded away from zero")
    lo, hi = f.support.lo, f.support.hi
    if isinstance(f, PiecewiseConstantDensity) and isinstance(g, PiecewiseConstantDensity):
        widths, hf, hg = _common_pieces(f, g)
        edges = np.concatenate(([g.cdf(lo)], g.cdf(lo) + np.cumsum(widths * hg)))
        return PiecewiseConstantDensity(edges, hf / hg)

    y_lo, y_hi = g.cdf(lo), g.cdf(hi)

    def pdf(y):
        x = g.quantile(y)
        return f.pdf(x) / g.pdf(x)

    # essential bounds of f/g are cheap to locate in x-space
    xs = np.linspace(lo, hi, 2048)
    ratio = lambda x: f.pdf(x) / g.pdf(x)
    vals = np.array([ratio(float(x)) for x in xs])
    breaks = sorted(
        g.cdf(x)
        for x in set(f.interior_breakpoints()) | set(g.interior_breakpoints())
        if lo < x < hi
    )
    return SmoothDensity(
        pdf,
        y_lo,
        y_hi,
        breakpoints=breaks,
        rel_tol=1e-9,
        ess_inf=scan_extremum(ratio, xs, vals, False),
        ess_sup=scan_extremum(ratio, xs, vals, True),
        table_cells=table_cells,
    )

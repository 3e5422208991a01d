"""Companding quantizers driven by a point density.

A compander is described by a probability density g on a compact interval.
Its compressor G is the cdf of g and the expander is the generalized inverse
of G.  The N-level companding quantizer places boundaries at expander(i/N)
and codepoints at expander((2i-1)/(2N)); a midpoint variant keeps the same
boundaries but uses cell midpoints.
"""

from __future__ import annotations

import math

import numpy as np

from .core import distortion_constant, validate_exponent
from .densities import Density, _compressed, _pair_integrals, _powers, _require_covered
from .entropy import relative_entropy
from .quantizer import IntervalQuantizer, _level_count

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
    construction verifies that the expander inverts the compressor at the
    centres of equal cells, which miss an even cdf table's edges but the middle one.
    ``build`` keeps the expander values of its latest grid, so a sweep over
    nested level counts asks the point density for each argument only once.
    It finds them by stride: k/(2n) and j/(2m) round to one float exactly when
    k*m == j*n, so with g = gcd(n, m) every (n/g)-th argument of the n-level
    grid is every (m/g)-th of the m-level one.
    """

    def __init__(self, point_density: Density):
        if point_density.ess_bounds()[0] <= 0.0:
            raise ValueError("point density must be bounded away from zero on its support")
        self.point_density = point_density
        supp = point_density.support
        xs = np.linspace(supp.lo, supp.hi, 2 * INVERSE_CHECK_POINTS + 1)[1::2]
        us = self.compress(xs)
        worst = float(np.max(np.abs(self.expand(us) - xs)))
        if worst > INVERSE_TOL * supp.width:
            raise ValueError(f"expander fails to invert the compressor (err {worst!r})")
        # the latest grid build expanded: its level count and its 2m+1 images
        self._last_grid = (0, np.empty(0))

    @property
    def support(self):
        return self.point_density.support

    def compress(self, x):
        """Compressor at x, a scalar or an array."""
        return self.point_density.cdf(x)

    def expand(self, u):
        """Expander at u, a scalar or an array."""
        return self.point_density.quantile(u)

    def build(self, n: int) -> IntervalQuantizer:
        """N-level companding quantizer with expanded-midpoint codepoints."""
        n = _level_count(n)
        # even entries are the boundaries i/n, odd ones the codepoints (2i-1)/(2n);
        # only the previous grid is kept, so the memory held stays at one grid
        us, (m, last_x) = np.arange(2 * n + 1) / (2 * n), self._last_grid
        xs, new = np.empty(len(us)), np.ones(len(us), dtype=bool)
        if m:
            g = math.gcd(n, m)
            xs[::n // g] = last_x[::m // g]
            new[::n // g] = False
        if new.any():
            xs[new] = self.expand(us[new])
        self._last_grid = (n, xs)
        bounds = xs[0::2]
        if np.any(np.diff(bounds) <= 0):
            raise ValueError(f"companding boundaries collapse at {n} levels")
        # an expanded codepoint may land a float past its cell: it is snapped back
        return IntervalQuantizer(bounds, xs[1::2])

    def midpoint_variant(self, n: int) -> IntervalQuantizer:
        """Same boundaries as build(n) but with cell-midpoint codepoints."""
        b = self.build(n).boundaries
        return IntervalQuantizer(b, 0.5 * (b[:-1] + b[1:]))

    def __repr__(self):
        return f"Compander({self.point_density!r})"


def bennett_functional(f: Density, g: Density, r: float) -> float:
    """Predicted scaled distortion limit: C(r) times the integral of f/g**r.

    Integration runs over the support of f, which must sit inside the
    support of g with no mass past it; g must be bounded away from zero there.
    An integral that leaves the float range raises ValueError.
    """
    return _bennett_functionals(f, [g], r)[0]


def _bennett_functionals(f: Density, gs, r: float) -> list[float]:
    """``bennett_functional`` of f on each of the densities gs, which share one
    support and, if piecewise, one breakpoint grid: the checks run once, and
    the integral is one ``densities._pair_integrals`` call for all of them."""
    r = validate_exponent(r)
    _require_covered(f, gs[0])
    if min(g.ess_bounds()[0] for g in gs) <= 0.0:
        raise ValueError("point density must be bounded away from zero")
    try:
        with np.errstate(divide="ignore", over="ignore"):
            integrals = _pair_integrals(f, gs, lambda w, hf, hg: w * hf / _powers(hg, r))
        finite = np.isfinite(integrals).all()
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"the Bennett integral at r = {r} leaves the float range")
    return (distortion_constant(r) * integrals).tolist()


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
    [G(lo_f), G(hi_f)] is returned.  f may have no mass past the support of g.
    """
    _require_covered(f, g)
    if g.ess_bounds()[0] <= 0.0:
        raise ValueError("point density must be bounded away from zero")
    return _compressed(f, g, table_cells)

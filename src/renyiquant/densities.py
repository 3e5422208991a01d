"""One-dimensional source densities on compact intervals.

Two families are supported: piecewise-constant densities, for which every
integral used by the library has a closed form, and smooth densities backed
by adaptive quadrature.  Both expose the same small surface: ``pdf``,
``cdf`` and ``quantile`` (the generalized inverse of the cdf), power and
log-moment integrals, essential bounds, and similarity transforms.  ``cdf``
and ``quantile`` take a scalar or a whole array of arguments and treat the
array in one pass: a piecewise density in closed form, a smooth one with
one batched quadrature call (``_quadrature.integrate_many``) per cdf, and
per step of one bisection that moves every quantile argument together.  A
sweep over level counts designs its point density once and, when the level
counts are nested, asks it for each expander value once (see
``compander.Compander``).

Densities are immutable after construction; all caches are built eagerly in
``__init__`` so instances can be shared across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from ._quadrature import call_each, integrate, integrate_many, scan_extremum

__all__ = [
    "Interval",
    "PiecewiseConstantDensity",
    "SmoothDensity",
    "Density",
    "uniform",
    "truncated_gauss",
    "truncated_laplace",
    "require_nested_supports",
    "density_from_spec",
    "density_to_spec",
]

MASS_TOL = 1e-12
ESS_SCAN_POINTS = 4096


@dataclass(frozen=True, order=True)
class Interval:
    """Closed bounded interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if not lo < hi:
            raise ValueError(f"interval must satisfy lo < hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


def _arguments(x, ok, rule: str):
    """``x`` as a float, or a float array if it has any dimensions, after
    checking that ``ok`` holds for every entry; ValueError stating ``rule``
    otherwise."""
    if isinstance(x, (float, int)) or np.ndim(x) == 0:
        x = float(x)
        if not ok(x):
            raise ValueError(f"{rule}, got {x!r}")
        return x
    xs = np.asarray(x, dtype=float)
    bad = ~ok(xs)
    if bad.any():
        raise ValueError(f"{rule}, got {float(xs[bad][0])!r}")
    return xs


def _cdf_arguments(x):
    return _arguments(x, lambda v: v == v, "cdf argument must not be NaN")


def _unit_arguments(u):
    return _arguments(u, lambda v: (0.0 <= v) & (v <= 1.0), "quantile argument must lie in [0, 1]")


class PiecewiseConstantDensity:
    """Density that is constant on finitely many abutting segments.

    Segment i covers (breakpoints[i-1], breakpoints[i]]; the first segment is
    closed on the left.  All heights are strictly positive and the total mass
    must equal 1 within a strict tolerance.
    """

    def __init__(self, breakpoints: Sequence[float], heights: Sequence[float]):
        b = np.ascontiguousarray(breakpoints, dtype=float)
        h = np.ascontiguousarray(heights, dtype=float)
        if b.ndim != 1 or h.ndim != 1 or len(b) != len(h) + 1 or len(h) < 1:
            raise ValueError("need m+1 breakpoints for m >= 1 heights")
        if not np.all(np.isfinite(b)) or not np.all(np.isfinite(h)):
            raise ValueError("breakpoints and heights must be finite")
        if np.any(np.diff(b) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(h <= 0):
            raise ValueError("heights must be strictly positive")
        lens = np.diff(b)
        total = float(np.dot(h, lens))
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass must be 1 within {MASS_TOL}, got {total!r}")
        b.flags.writeable = False
        h.flags.writeable = False
        self.breakpoints = b
        self.heights = h
        self._lens = lens
        cum = np.concatenate(([0.0], np.cumsum(h * lens)))
        cum[-1] = 1.0
        self._cum = cum

    @property
    def support(self) -> Interval:
        return Interval(float(self.breakpoints[0]), float(self.breakpoints[-1]))

    def interior_breakpoints(self):
        return [float(x) for x in self.breakpoints[1:-1]]

    def _segment_index(self, x: float) -> int:
        # segment i owns (b[i], b[i+1]]; x == b[0] belongs to segment 0
        idx = int(np.searchsorted(self.breakpoints, x, side="left")) - 1
        return min(max(idx, 0), len(self.heights) - 1)

    def pdf(self, x: float) -> float:
        x = float(x)
        if x < self.breakpoints[0] or x > self.breakpoints[-1]:
            return 0.0
        return float(self.heights[self._segment_index(x)])

    def cdf(self, x):
        """Mass at or left of x, exact.

        ``x`` may be a scalar, giving a float, or an array, giving an array
        of the same shape.
        """
        xs = _cdf_arguments(x)
        b, cum = self.breakpoints, self._cum
        # outside the support the clipped value is replaced below
        inside = np.clip(xs, b[0], b[-1])
        j = np.minimum(np.searchsorted(b, inside, side="right") - 1, len(self.heights) - 1)
        bj = b[j]
        v = np.where(bj == inside, cum[j], cum[j] + self.heights[j] * (inside - bj))
        v = np.where(xs <= b[0], 0.0, np.where(xs >= b[-1], 1.0, v))
        return float(v) if isinstance(xs, float) else v

    def quantile(self, u):
        """Largest x with cdf(x) <= u; exact segment inversion.

        ``u`` may be a scalar, giving a float, or an array, giving an array
        of the same shape.
        """
        us = _unit_arguments(u)
        if isinstance(us, float):
            return self._invert(us)
        b, cum = self.breakpoints, self._cum
        # u >= 1 may land past the last segment; it takes b[-1] below
        j = np.minimum(np.searchsorted(cum, us, side="right") - 1, len(self.heights) - 1)
        cj, bj = cum[j], b[j]
        return np.where(us >= 1.0, b[-1], np.where(cj == us, bj, bj + (us - cj) / self.heights[j]))

    def _invert(self, u: float) -> float:
        # the scalar form of the array inversion in quantile, without its set-up
        if u >= 1.0:
            return float(self.breakpoints[-1])
        j = int(np.searchsorted(self._cum, u, side="right")) - 1
        if self._cum[j] == u:
            return float(self.breakpoints[j])
        return float(self.breakpoints[j] + (u - self._cum[j]) / self.heights[j])

    def power_integral(self, p: float) -> float:
        """Integral of pdf**p over the support."""
        return float(np.dot(self.heights ** float(p), self._lens))

    def log_integral(self) -> float:
        """Integral of pdf * log(pdf) over the support."""
        return float(np.dot(self.heights * np.log(self.heights), self._lens))

    def ess_bounds(self):
        return float(self.heights.min()), float(self.heights.max())

    def similarity_transform(self, c: float, t: float, reflect: bool = False):
        """Density of c*X + t (or c*(-X) + t when reflect is set)."""
        c = float(c)
        if not c > 0:
            raise ValueError(f"scale must be positive, got {c!r}")
        if reflect:
            b = (t - c * self.breakpoints)[::-1]
            h = self.heights[::-1] / c
        else:
            b = t + c * self.breakpoints
            h = self.heights / c
        return PiecewiseConstantDensity(b, h)

    def __repr__(self):
        return (
            f"PiecewiseConstantDensity({list(map(float, self.breakpoints))!r}, "
            f"{list(map(float, self.heights))!r})"
        )


class SmoothDensity:
    """Quadrature-backed density given by a pdf callable on [lo, hi].

    The constructor integrates the pdf over every cell of a table in one
    batched quadrature call to build a monotone cdf table; cdf evaluations
    then only integrate within one cell.
    ``breakpoints`` lists interior kink locations respected by every
    quadrature call.  Essential bounds use a dense scan refined by a
    golden-section pass.
    """

    def __init__(
        self,
        pdf: Callable[[float], float],
        lo: float,
        hi: float,
        *,
        breakpoints: Sequence[float] = (),
        rel_tol: float = 1e-10,
        max_depth: int = 40,
        ess_inf: float | None = None,
        ess_sup: float | None = None,
        table_cells: int = 1024,
    ):
        support = Interval(lo, hi)
        self._pdf = pdf
        self._support = support
        self._breaks = sorted(float(x) for x in breakpoints if support.lo < x < support.hi)
        self._rel_tol = float(rel_tol)
        self._max_depth = int(max_depth)

        pieces = [support.lo] + self._breaks + [support.hi]
        edges = []
        for a, b in zip(pieces[:-1], pieces[1:]):
            n = max(8, int(round(table_cells * (b - a) / support.width)))
            edges.extend(np.linspace(a, b, n + 1)[:-1])
        edges.append(support.hi)
        edges = np.asarray(edges, dtype=float)
        masses = integrate_many(self._pdf_pieces, edges[:-1], edges[1:], self._rel_tol,
                                self._max_depth)
        total = float(masses.sum())
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"pdf must integrate to 1 within quadrature tolerance, got {total!r}")
        self._total = total
        cum = np.concatenate(([0.0], np.cumsum(masses / total)))
        cum[-1] = 1.0
        self._edges = edges
        self._cum = cum

        if ess_inf is not None and ess_sup is not None:
            self._ess = (float(ess_inf), float(ess_sup))
        else:
            self._ess = self._scan_bounds(ess_inf, ess_sup)

    def _scan_bounds(self, inf_override, sup_override):
        xs = np.linspace(self._support.lo, self._support.hi, ESS_SCAN_POINTS)
        vals = call_each(self._pdf, xs)
        return tuple(
            scan_extremum(self._pdf, xs, vals, maximize) if override is None else float(override)
            for maximize, override in ((False, inf_override), (True, sup_override))
        )

    @property
    def support(self) -> Interval:
        return self._support

    def interior_breakpoints(self):
        return list(self._breaks)

    def pdf(self, x: float) -> float:
        x = float(x)
        if x < self._support.lo or x > self._support.hi:
            return 0.0
        return float(self._pdf(x))

    def _pdf_values(self, xs: np.ndarray) -> np.ndarray:
        """``pdf`` at each entry of the 1-D array xs."""
        out = np.zeros(len(xs))
        inside = np.flatnonzero((xs >= self._support.lo) & (xs <= self._support.hi))
        out[inside] = call_each(self._pdf, xs[inside])
        return out

    def _pdf_pieces(self, xs, k):
        # the pdf as an integrate_many integrand: the same on every piece
        return call_each(self._pdf, xs)

    def cdf(self, x):
        """Mass at or left of x: the table entry of x's cell plus one
        quadrature within the cell.

        ``x`` may be a scalar, giving a float, or an array, giving an array
        of the same shape.
        """
        xs = _cdf_arguments(x)
        flat = np.ravel(xs)
        lo, hi = self._support.lo, self._support.hi
        out = np.where(flat <= lo, 0.0, 1.0)
        inside = np.flatnonzero((flat > lo) & (flat < hi))
        out[inside] = self._cdf_inside(flat[inside])
        return float(out[0]) if isinstance(xs, float) else out.reshape(xs.shape)

    def _cdf_inside(self, x: np.ndarray) -> np.ndarray:
        """cdf at points strictly inside the support, one quadrature call for all.

        A point on a table edge integrates over an empty interval, which
        gives exactly 0.0, so it takes its table entry unchanged.
        """
        j = np.searchsorted(self._edges, x, side="right") - 1
        part = integrate_many(self._pdf_pieces, self._edges[j], x, self._rel_tol, self._max_depth)
        return np.minimum(self._cum[j] + part / self._total, 1.0)

    def quantile(self, u):
        """Generalized inverse of the cdf by bisection inside one table cell.

        ``u`` may be a scalar, giving a float, or an array, giving an array
        of the same shape.  All arguments bisect together, one batched cdf
        call per step.
        """
        us = _unit_arguments(u)
        out = self._invert(np.ravel(us))
        return float(out[0]) if isinstance(us, float) else out.reshape(us.shape)

    def _invert(self, us: np.ndarray) -> np.ndarray:
        """quantile at each entry of the 1-D array us, step for step.

        Every argument inside (0, 1) runs its own copy of
        ``_quadrature.bisect_increasing`` on the cdf over its table cell: the
        same tolerance, midpoints, comparisons and iteration cap.
        """
        out = np.where(us <= 0.0, self._support.lo, self._support.hi)
        inside = np.flatnonzero((us > 0.0) & (us < 1.0))
        u = us[inside]
        j = np.minimum(np.searchsorted(self._cum, u, side="right") - 1, len(self._edges) - 2)
        a, b = self._edges[j], self._edges[j + 1]
        tol = 1e-13 * self._support.width
        for _ in range(200):
            live = np.flatnonzero(b - a > tol)
            if len(live) == 0:
                break
            al, bl = a[live], b[live]
            m = 0.5 * (al + bl)
            below = self._cdf_inside(m) < u[live]
            a[live] = np.where(below, m, al)
            b[live] = np.where(below, bl, m)
        out[inside] = 0.5 * (a + b)
        return out

    def power_integral(self, p: float) -> float:
        p = float(p)
        if p < 0 and self.ess_bounds()[0] <= 0.0:
            raise ValueError("negative power integral requires a density bounded away from zero")
        try:
            return integrate(
                lambda x: self._pdf(x) ** p,
                self._support.lo,
                self._support.hi,
                self._rel_tol,
                self._max_depth,
                breakpoints=self._breaks,
            )
        except OverflowError:
            raise ValueError(f"power integral of order {p} overflows") from None

    def log_integral(self) -> float:
        def f(x):
            v = self._pdf(x)
            return v * math.log(v) if v > 0.0 else 0.0

        return integrate(
            f, self._support.lo, self._support.hi, self._rel_tol, self._max_depth, breakpoints=self._breaks
        )

    def ess_bounds(self):
        return self._ess

    def similarity_transform(self, c: float, t: float, reflect: bool = False):
        c = float(c)
        if not c > 0:
            raise ValueError(f"scale must be positive, got {c!r}")
        base = self._pdf
        if reflect:
            new_pdf = lambda y: base((t - y) / c) / c
            lo, hi = t - c * self._support.hi, t - c * self._support.lo
            breaks = [t - c * x for x in self._breaks]
        else:
            new_pdf = lambda y: base((y - t) / c) / c
            lo, hi = t + c * self._support.lo, t + c * self._support.hi
            breaks = [t + c * x for x in self._breaks]
        i, s = self._ess
        return SmoothDensity(
            new_pdf,
            lo,
            hi,
            breakpoints=breaks,
            rel_tol=self._rel_tol,
            max_depth=self._max_depth,
            ess_inf=i / c,
            ess_sup=s / c,
        )

    def __repr__(self):
        return f"SmoothDensity([{self._support.lo}, {self._support.hi}])"


Density = Union[PiecewiseConstantDensity, SmoothDensity]


def uniform(lo: float, hi: float) -> PiecewiseConstantDensity:
    """Uniform density on [lo, hi]."""
    width = float(hi) - float(lo)
    return PiecewiseConstantDensity([lo, hi], [1.0 / width])


def _require_mass(mass: float):
    # a subnormal mass has lost its precision, and 1 / mass may overflow
    if not mass >= sys.float_info.min:
        raise ValueError("truncation interval carries no mass")


def truncated_gauss(mean: float, sigma: float, lo: float, hi: float) -> SmoothDensity:
    """Gaussian restricted to [lo, hi] and renormalized."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    rt2 = math.sqrt(2.0)
    z_lo, z_hi = (lo - mean) / (sigma * rt2), (hi - mean) / (sigma * rt2)
    # on one side of the mean the erf difference cancels; the tail there is erfc
    if z_lo > 0.0:
        mass = 0.5 * (math.erfc(z_lo) - math.erfc(z_hi))
    elif z_hi < 0.0:
        mass = 0.5 * (math.erfc(-z_hi) - math.erfc(-z_lo))
    else:
        mass = 0.5 * (math.erf(z_hi) - math.erf(z_lo))
    _require_mass(mass)
    norm = 1.0 / (mass * sigma * math.sqrt(2.0 * math.pi))

    def pdf(x, _m=mean, _s=sigma, _n=norm):
        return _n * math.exp(-0.5 * ((x - _m) / _s) ** 2)

    d = SmoothDensity(pdf, lo, hi)
    d.spec = {"kind": "truncated_gauss", "mean": float(mean),
              "sigma": float(sigma), "lo": float(lo), "hi": float(hi)}
    return d


def truncated_laplace(center: float, scale: float, lo: float, hi: float) -> SmoothDensity:
    """Two-sided exponential restricted to [lo, hi] and renormalized."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")

    def raw_cdf(x):
        z = (x - center) / scale
        return 0.5 * math.exp(z) if z < 0 else 1.0 - 0.5 * math.exp(-z)

    if lo > center:
        # 1 - tail cancels right of the center: subtract the tails themselves
        mass = 0.5 * math.exp(-(lo - center) / scale) - 0.5 * math.exp(-(hi - center) / scale)
    else:
        mass = raw_cdf(hi) - raw_cdf(lo)
    _require_mass(mass)
    norm = 1.0 / (2.0 * scale * mass)

    def pdf(x, _c=center, _s=scale, _n=norm):
        return _n * math.exp(-abs(x - _c) / _s)

    # the kink at the center matters for quadrature when it is interior
    breaks = [center] if lo < center < hi else []
    d = SmoothDensity(pdf, lo, hi, breakpoints=breaks)
    d.spec = {"kind": "truncated_laplace", "center": float(center),
              "scale": float(scale), "lo": float(lo), "hi": float(hi)}
    return d


def require_nested_supports(f: Density, g: Density):
    """Raise unless the support of f lies inside the support of g."""
    sf, sg = f.support, g.support
    tol = 1e-12 * max(sg.width, 1.0)
    if sf.lo < sg.lo - tol or sf.hi > sg.hi + tol:
        raise ValueError(
            f"first support [{sf.lo}, {sf.hi}] must lie inside second [{sg.lo}, {sg.hi}]"
        )


def _cut_cells(d: PiecewiseConstantDensity, lo, hi):
    """Cut each cell [lo[k], hi[k]] at the density breakpoints strictly inside it.

    Returns ``(edges, heights)``.  Row k of ``edges`` holds lo[k], the
    breakpoints inside the cell in increasing order, and then hi[k], repeated
    out to the width of the row with the most breakpoints, so short rows end
    in empty pieces.  ``heights[k, j]`` is the pdf at the midpoint of the
    piece from ``edges[k, j]`` to ``edges[k, j + 1]``: 0 outside the support.
    """
    x = d.breakpoints
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    first = np.searchsorted(x, lo, side="right")
    count = np.maximum(np.searchsorted(x, hi, side="left") - first, 0)
    inner = np.arange(count.max())
    idx = np.minimum(first[:, None] + inner, len(x) - 1)
    # column-major: the rows are short, so whole columns make the long loops
    edges = np.empty((len(lo), len(inner) + 2), order="F")
    edges[:, 0] = lo
    edges[:, 1:-1] = np.where(inner < count[:, None], x[idx], hi[:, None])
    edges[:, -1] = hi
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    # d.pdf at each midpoint: segment k owns (x[k], x[k+1]], segment 0 also x[0]
    seg = np.searchsorted(x[1:-1], mid, side="left")
    heights = np.where((mid < x[0]) | (mid > x[-1]), 0.0, d.heights[seg])
    return edges, heights


def _common_pieces(f: PiecewiseConstantDensity, g: PiecewiseConstantDensity):
    """The support of f cut at the breakpoints of both densities, left to right.

    Returns the piece widths and the heights of f and of g on each piece.
    """
    g_edges, g_heights = _cut_cells(g, [f.support.lo], [f.support.hi])
    edges, f_heights = _cut_cells(f, g_edges[0, :-1], g_edges[0, 1:])
    # every piece of row k lies inside piece k of g, where g is constant
    g_heights = np.broadcast_to(g_heights[0][:, None], f_heights.shape)
    widths = np.diff(edges, axis=1)
    keep = widths > 0.0
    return widths[keep], f_heights[keep], g_heights[keep]


def _pair_integral(f: Density, g: Density, phi) -> float:
    """Integral over the support of f, which g must cover, of phi(w, f, g).

    ``phi(w, hf, hg)`` is the integral over a piece of width w on which the
    densities take the values hf and hg.  For two piecewise densities it is
    summed left to right over the pieces of their common refinement;
    otherwise phi(1.0, f(x), g(x)) is integrated by quadrature wherever
    f(x) > 0.
    """
    if isinstance(f, PiecewiseConstantDensity) and isinstance(g, PiecewiseConstantDensity):
        pieces = _common_pieces(f, g)
        return float(sum(map(phi, *(col.tolist() for col in pieces))))

    def integrand(x):
        vf = f.pdf(x)
        return phi(1.0, vf, g.pdf(x)) if vf > 0.0 else 0.0

    breaks = sorted(set(f.interior_breakpoints()) | set(g.interior_breakpoints()))
    return float(integrate(integrand, f.support.lo, f.support.hi, breakpoints=breaks))


def density_from_spec(spec: dict) -> Density:
    """Build a density from its JSON description.

    Recognized kinds: ``uniform`` (lo, hi), ``piecewise`` (breakpoints,
    heights), ``truncated_gauss`` (mean, sigma, lo, hi), and
    ``truncated_laplace`` (center, scale, lo, hi).
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("density spec must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "uniform":
            return uniform(spec["lo"], spec["hi"])
        if kind == "piecewise":
            return PiecewiseConstantDensity(spec["breakpoints"], spec["heights"])
        if kind == "truncated_gauss":
            return truncated_gauss(spec["mean"], spec["sigma"], spec["lo"], spec["hi"])
        if kind == "truncated_laplace":
            return truncated_laplace(spec["center"], spec["scale"], spec["lo"], spec["hi"])
    except KeyError as exc:
        raise ValueError(f"density spec of kind {kind!r} is missing field {exc}") from None
    raise ValueError(f"unknown density kind {kind!r}")


def density_to_spec(d: Density) -> dict:
    """Inverse of density_from_spec."""
    if isinstance(d, PiecewiseConstantDensity):
        return {
            "kind": "piecewise",
            "breakpoints": [float(x) for x in d.breakpoints],
            "heights": [float(x) for x in d.heights],
        }
    spec = getattr(d, "spec", None)
    if spec is not None:
        return dict(spec)
    raise ValueError("density does not carry a serializable description")

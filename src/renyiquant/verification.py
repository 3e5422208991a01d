"""Self-checking suites covering the library's verifiable identities.

Each suite measures how far the implementation strays from a closed-form
identity, a frozen reference constant, or a structural property, and reports
the worst observed value normalized by its allowance.  A suite passes when
that normalized slack is at most 1.  ``run_all`` executes every suite in a
fixed order; the command line front end renders the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compander import Compander, bennett_functional, entropy_offset
from .core import NEG_INF, POS_INF, RenyiOrder, as_order, exponents
from .densities import Interval, PiecewiseConstantDensity, uniform
from .design import (
    _sweep_row,
    compander_score,
    optimal_point_density,
    pierce_upper_bound,
    predicted_limit,
)
from .entropy import renyi_entropy
from .mixture import (
    MixtureComponent,
    MixtureSpec,
    allocate_rates,
    allocation_weights,
    compose,
    composed_entropy,
    f_functional,
    f_minimizer,
)
from .oracle import GridInstance, MonotonicityError, alpha_profile, brute_force_optimal
from .quantizer import (
    IntervalQuantizer,
    _masses_and_distortion,
    cell_masses,
    distortion,
    transform_quantizer,
    uniform_quantizer,
)

__all__ = ["SuiteResult", "run_all", "SUITES"]

# Reference constants, frozen from an independent high-precision evaluation
# of the closed forms.  The two-mass density has heights (0.5, 1.5) on the
# halves of [0, 1].
TWO_MASS_LIMIT_HALF = 0.070676311783117279  # alpha = 0.5, r = 2
TWO_MASS_LIMIT_NEG2 = 0.088308236499885327  # alpha = -2, r = 2
TWO_MASS_LIMIT_NEG_INF = 0.11111111111111111  # alpha = -inf, r = 2: C(2)*int f^-1
EXACT_BENNETT_SELF = {1.0: 0.25, 2.0: 0.083333333333333329, 3.0: 0.03125}

# Deviations below this are treated as converged to rounding noise; trend
# comparisons between two such values are meaningless.
NOISE_FLOOR = 1e-12

ALPHA_GRID = (NEG_INF, RenyiOrder(-2.0), RenyiOrder(0.0), RenyiOrder(0.5),
              RenyiOrder(1.0), RenyiOrder(2.0), POS_INF)


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one verification suite.

    ``worst`` is the largest measured deviation divided by its allowance, so
    the suite passes iff worst <= tolerance (always 1.0).
    """

    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str


def _result(name: str, worst: float, detail: str) -> SuiteResult:
    return SuiteResult(name, bool(worst <= 1.0), float(worst), 1.0, detail)


def _two_mass() -> PiecewiseConstantDensity:
    return PiecewiseConstantDensity([0.0, 0.5, 1.0], [0.5, 1.5])


def suite_uniform_exactness() -> SuiteResult:
    """n equal cells on Uniform[0,1]: distortion 1/(12 n^2), entropy log n."""
    u = uniform(0.0, 1.0)
    worst = 0.0
    for n in range(1, 65):
        masses, d = _masses_and_distortion(uniform_quantizer(Interval(0.0, 1.0), n), u, 2.0)
        worst = max(worst, abs(d - 1.0 / (12.0 * n * n)) / 1e-12)
        for h in renyi_entropy(masses, ALPHA_GRID):
            worst = max(worst, abs(h - math.log(n)) / 1e-12)
    return _result("uniform_exactness", worst, "n = 1..64, r = 2, all orders")


def suite_limit_convergence() -> SuiteResult:
    """Designed companders approach the predicted limit on the two-mass density."""
    f = _two_mass()
    cases = [
        (RenyiOrder(0.5), TWO_MASS_LIMIT_HALF),
        (RenyiOrder(-2.0), TWO_MASS_LIMIT_NEG2),
        (NEG_INF, TWO_MASS_LIMIT_NEG_INF),
    ]
    worst = 0.0
    parts = []
    for alpha, frozen in cases:
        pred = predicted_limit(f, alpha, 2.0).value
        worst = max(worst, abs(pred - frozen) / frozen / 1e-9)
        compander = Compander(optimal_point_density(f, alpha, 2.0))
        devs = {n: abs(_sweep_row(compander, f, alpha, 2.0, n, "entropy")[2] - frozen)
                for n in (2 ** k for k in range(4, 12))}
        rel_final = devs[2048] / frozen
        worst = max(worst, rel_final / 0.02)
        # trend: the tail deviation must not exceed the early one (noise floored)
        worst = max(worst, devs[2048] / max(devs[64], NOISE_FLOOR))
        parts.append(f"alpha={alpha.value:g}: rel@2048={rel_final:.2e}")
    return _result("limit_convergence", worst, "; ".join(parts))


def suite_bennett_integral() -> SuiteResult:
    """N^r D of a compander matches C(r) int f/g^r at N = 2048."""
    f = _two_mass()
    pairs = [
        (f, uniform(0.0, 1.0), 2.0),
        (uniform(0.0, 1.0), PiecewiseConstantDensity([0.0, 0.5, 1.0], [1.25, 0.75]), 1.0),
        (f, PiecewiseConstantDensity([0.0, 0.25, 1.0], [1.6, 0.8]), 3.0),
    ]
    n = 2048
    worst = 0.0
    parts = []
    for src, g, r in pairs:
        bnt = bennett_functional(src, g, r)
        comp = Compander(g)
        d_std = distortion(comp.build(n), src, r)
        d_mid = distortion(comp.midpoint_variant(n), src, r)
        rel = abs(n ** r * d_std / bnt - 1.0)
        worst = max(worst, rel / 1e-2)
        worst = max(worst, abs(d_mid / d_std - 1.0) / 5e-3)
        parts.append(f"r={r:g}: rel={rel:.2e}")
    # pin the constant itself so a perturbed C(r) cannot hide inside the 1% band
    u = uniform(0.0, 1.0)
    for r, exact in EXACT_BENNETT_SELF.items():
        worst = max(worst, abs(bennett_functional(u, u, r) - exact) / 1e-14)
    return _result("bennett_integral", worst, "; ".join(parts))


def suite_entropy_offset() -> SuiteResult:
    """Compander entropy sits at log N minus the order-matched divergence."""
    alphas = (NEG_INF, RenyiOrder(-1.0), RenyiOrder(0.0), RenyiOrder(0.5),
              RenyiOrder(1.0), RenyiOrder(2.0))
    f, g = uniform(0.0, 1.0), uniform(0.0, 2.0)
    comp = Compander(g)
    worst = 0.0
    for n in (2, 4, 6, 8, 10, 16, 64, 256, 1000, 4096):
        for h in renyi_entropy(cell_masses(comp.build(n), f), alphas):
            worst = max(worst, abs(h - (math.log(n) - math.log(2.0))) / 1e-12)
    f2 = _two_mass()
    g2 = PiecewiseConstantDensity([0.0, 0.5, 1.0], [1.25, 0.75])
    q = Compander(g2).build(4096)
    masses = cell_masses(q, f2)
    for alpha in alphas:
        off = entropy_offset(f2, g2, alpha)
        dev = abs(renyi_entropy(masses, alpha) - (math.log(4096.0) + off))
        worst = max(worst, dev / 1e-3)
    return _result("entropy_offset", worst, "uniform pair exact; piecewise pair at N=4096")


def _monotonicity_instances():
    inst1 = GridInstance(
        _two_mass(),
        np.unique(np.concatenate((np.linspace(0.0, 1.0, 23), [0.5]))),
        6,
    )
    inst2 = GridInstance(
        PiecewiseConstantDensity([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0], [0.8, 1.4, 0.8]),
        np.unique(np.concatenate((np.linspace(0.0, 1.0, 22), [1.0 / 3.0, 2.0 / 3.0]))),
        6,
    )
    return inst1, inst2


ORACLE_ALPHAS = (NEG_INF, RenyiOrder(-2.0), RenyiOrder(-1.0), RenyiOrder(0.0),
                 RenyiOrder(0.5), RenyiOrder(1.0), RenyiOrder(2.0), POS_INF)


def suite_oracle_monotonicity() -> SuiteResult:
    """Exhaustive optima are nonincreasing in the entropy order."""
    rate = math.log(4.0)
    worst = 0.0
    for inst in _monotonicity_instances():
        try:
            results = alpha_profile(inst, ORACLE_ALPHAS, rate, 2.0)
        except MonotonicityError as exc:
            return _result("oracle_monotonicity", math.inf, str(exc))
        values = [res.value for res in results]
        rise = max(b - a for a, b in zip(values, values[1:]))
        worst = max(worst, max(0.0, rise) / 1e-15)
    return _result("oracle_monotonicity", worst,
                   "two 24-point instances, 8 orders, R = log 4")


def suite_negative_order_uniform() -> SuiteResult:
    """On a uniform source every order below zero gives the order-0 optimum."""
    inst = GridInstance(uniform(0.0, 1.0), np.linspace(0.0, 1.0, 13), 4)
    worst = 0.0
    for rate, n in ((math.log(2.0), 2), (math.log(3.0), 3)):
        base = brute_force_optimal(inst, RenyiOrder(0.0), rate, 2.0).value
        worst = max(worst, abs(base - 1.0 / (12.0 * n * n)) / 1e-12)
        for alpha in (NEG_INF, RenyiOrder(-2.0), RenyiOrder(-0.5)):
            val = brute_force_optimal(inst, alpha, rate, 2.0).value
            worst = max(worst, abs(val - base) / 1e-12)
    return _result("negative_order_uniform", worst, "R in {log 2, log 3}, r = 2")


def _random_density(rng) -> PiecewiseConstantDensity:
    k = int(rng.integers(1, 5))
    widths = rng.uniform(0.1, 1.0, size=k)
    lo = float(rng.uniform(-2.0, 0.0))
    bounds = lo + np.concatenate(([0.0], np.cumsum(widths)))
    masses = rng.dirichlet(np.ones(k))
    return PiecewiseConstantDensity(bounds, masses / widths)


def _random_quantizer(rng, support: Interval, n: int):
    cuts = np.sort(rng.uniform(support.lo, support.hi, size=n - 1))
    bounds = np.concatenate(([support.lo], cuts, [support.hi]))
    points = (bounds[:-1] + bounds[1:]) / 2.0
    return IntervalQuantizer(bounds, points)


def suite_scaling_invariance() -> SuiteResult:
    """Similarity maps scale distortion by c^r and leave entropy unchanged."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        f = _random_density(rng)
        q = _random_quantizer(rng, f.support, int(rng.integers(1, 6)))
        c = float(rng.uniform(0.25, 4.0))
        t = float(rng.uniform(-3.0, 3.0))
        r = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        ft = f.similarity_transform(c, t)
        qt = transform_quantizer(q, c, t)
        masses, base = _masses_and_distortion(q, f, r)
        masses_t, d_t = _masses_and_distortion(qt, ft, r)
        worst = max(worst, abs(d_t / (c ** r * base) - 1.0) / 1e-10)
        hs_t = renyi_entropy(masses_t, ALPHA_GRID)
        for h_t, h in zip(hs_t, renyi_entropy(masses, ALPHA_GRID)):
            worst = max(worst, abs(h_t - h) / 1e-12)
    # the exhaustive optimum is equivariant as well
    inst, _ = _monotonicity_instances()
    scaled = GridInstance(inst.density.similarity_transform(2.0, 1.0),
                          2.0 * np.asarray(inst.grid) + 1.0, inst.max_cells)
    for alpha in (RenyiOrder(0.5), RenyiOrder(-2.0)):
        a = brute_force_optimal(inst, alpha, math.log(4.0), 2.0)
        b = brute_force_optimal(scaled, alpha, math.log(4.0), 2.0)
        worst = max(worst, abs(b.value / (4.0 * a.value) - 1.0) / 1e-10)
        mapped = 2.0 * np.asarray(a.argmin.boundaries) + 1.0
        gap = float(np.max(np.abs(np.asarray(b.argmin.boundaries) - mapped)))
        worst = max(worst, gap / 1e-9)
    return _result("scaling_invariance", worst, "50 random cases plus one oracle pair")


def _random_mixture(rng):
    k = int(rng.integers(2, 5))
    widths = rng.uniform(0.3, 1.2, size=k)
    edges = np.concatenate(([0.0], np.cumsum(widths)))
    weights = rng.dirichlet(np.ones(k))
    comps = []
    for i in range(k):
        seg = int(rng.integers(1, 4))
        sub = np.linspace(edges[i], edges[i + 1], seg + 1)
        masses = rng.dirichlet(np.ones(seg))
        comps.append(MixtureComponent(
            float(weights[i]),
            PiecewiseConstantDensity(sub, masses / np.diff(sub)),
        ))
    return MixtureSpec(comps)


def suite_mixture_composition() -> SuiteResult:
    """Composed quantizers obey the exact entropy and distortion identities."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        spec = _random_mixture(rng)
        r = float(rng.choice([1.0, 2.0, 3.0]))
        parts = [uniform_quantizer(c.density.support, int(rng.integers(1, 5)))
                 for c in spec.components]
        q = compose(spec, parts)
        comb = spec.combined_density()
        weights = spec.weights
        figures = [_masses_and_distortion(p, c.density, r)
                   for p, c in zip(parts, spec.components)]
        comb_masses, comb_d = _masses_and_distortion(q, comb, r)
        worst = max(worst, abs(comb_d - sum(w * d for w, (_, d) in zip(weights, figures))) / 1e-12)
        # one row of entropies per part, one entry per order
        part_hs = [renyi_entropy(masses, ALPHA_GRID) for masses, _ in figures]
        comb_hs = renyi_entropy(comb_masses, ALPHA_GRID)
        for got, h in zip(composed_entropy(weights, list(zip(*part_hs)), ALPHA_GRID), comb_hs):
            worst = max(worst, abs(got - h) / 1e-12)
    # rate allocation composes back to the total rate exactly
    for _ in range(100):
        k = int(rng.integers(2, 5))
        s = rng.dirichlet(np.ones(k))
        alpha = RenyiOrder(float(rng.uniform(-3.0, 0.9)))
        r = float(rng.choice([1.5, 2.0, 3.0]))
        t = allocation_weights(s, alpha, r)
        rate = 0.25 + max(0.0, float(np.max(-np.log(t))))
        rates = allocate_rates(s, alpha, r, rate)
        dev = abs(composed_entropy(s, rates, alpha) - rate)
        worst = max(worst, dev / 1e-12)
    return _result("mixture_composition", worst,
                   "100 compositions; 100 rate allocations")


def suite_allocation_minimizer() -> SuiteResult:
    """The closed-form allocation minimizes sum s_i v_i^-r on the constraint set."""
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 6))
        s = rng.dirichlet(np.ones(k))
        while True:
            a = float(rng.uniform(-3.0, 1.0))
            if abs(a) > 1e-3 and a < 1.0 - 1e-3:
                break
        alpha = RenyiOrder(a)
        r = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        t = f_minimizer(s, alpha, r)
        ft = f_functional(s, t, r)
        pair = exponents(alpha, r)
        closed = float(np.sum(s ** pair.first)) ** pair.second
        worst = max(worst, abs(ft - closed) / closed / 1e-10)
        # 1000 competitors as rows; float_power is Python's float ** row-wise
        v = rng.uniform(0.05, 3.0, size=(1000, k))
        scale = np.float_power(np.sum(s ** a * v ** (1.0 - a), axis=1), -1.0 / (1.0 - a))
        fv = f_functional(s, scale[:, None] * v, r)
        worst = max(worst, max(0.0, float(np.max(ft - fv))) / 1e-12)
    return _result("allocation_minimizer", worst,
                   "20 random (s, alpha, r), 1000 competitors each")


def suite_order_seam_continuity() -> SuiteResult:
    """Branches agree across the order-1 window and the neg-inf limit."""
    f = _two_mass()
    masses = cell_masses(uniform_quantizer(Interval(0.0, 1.0), 8), f)
    h1 = renyi_entropy(masses, RenyiOrder(1.0))
    p1 = predicted_limit(f, RenyiOrder(1.0), 2.0).value
    worst = 0.0
    for eps in (1e-4, -1e-4):
        alpha = RenyiOrder(1.0 + eps)
        worst = max(worst, abs(renyi_entropy(masses, alpha) / h1 - 1.0) / 1e-3)
        worst = max(worst, abs(predicted_limit(f, alpha, 2.0).value / p1 - 1.0) / 1e-3)
    # near-flat densities keep the finite branch close to its limiting form
    mild = [
        PiecewiseConstantDensity([0.0, 0.5, 1.0], [0.95, 1.05]),
        PiecewiseConstantDensity([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0], [1.02, 0.96, 1.02]),
    ]
    for dens in mild:
        lim = predicted_limit(dens, NEG_INF, 2.0).value
        deep = predicted_limit(dens, RenyiOrder(-50.0), 2.0).value
        worst = max(worst, abs(deep / lim - 1.0) / 1e-3)
    return _result("order_seam_continuity", worst,
                   "order 1 +/- 1e-4 and order -50 vs the limit branch")


def suite_pierce_bound() -> SuiteResult:
    """Every sub-zero-order oracle optimum sits under the explicit upper bound."""
    worst = 0.0
    neg = (NEG_INF, RenyiOrder(-2.0), RenyiOrder(-1.0))
    for inst in _monotonicity_instances():
        bound = pierce_upper_bound(inst.density, 2.0, math.log(4.0))
        for alpha in neg:
            val = brute_force_optimal(inst, alpha, math.log(4.0), 2.0).value
            worst = max(worst, val / bound)
    inst_u = GridInstance(uniform(0.0, 1.0), np.linspace(0.0, 1.0, 13), 4)
    for rate in (math.log(2.0), math.log(3.0)):
        bound = pierce_upper_bound(inst_u.density, 2.0, rate)
        for alpha in (NEG_INF, RenyiOrder(-2.0), RenyiOrder(-0.5)):
            val = brute_force_optimal(inst_u, alpha, rate, 2.0).value
            worst = max(worst, val / bound)
    return _result("pierce_bound", worst, "all oracle optima at orders below zero")


def suite_point_density_optimality() -> SuiteResult:
    """The derived point density beats random perturbations of itself."""
    rng = np.random.default_rng(12)
    f = _two_mass()
    grid = np.linspace(0.0, 1.0, 7)
    mids = (grid[:-1] + grid[1:]) / 2.0
    widths = np.diff(grid)
    worst = 0.0
    for a in (-2.0, 0.5):
        alpha = RenyiOrder(a)
        star = optimal_point_density(f, alpha, 2.0)
        best = compander_score(f, star, alpha, 2.0)
        pred = predicted_limit(f, alpha, 2.0).value
        worst = max(worst, abs(best / pred - 1.0) / 1e-9)
        base = np.array([star.pdf(x) for x in mids])
        candidates = []
        for _ in range(200):
            h = base * np.exp(rng.normal(0.0, 0.3, size=base.size))
            h /= float(np.sum(h * widths))
            candidates.append(PiecewiseConstantDensity(grid, h))
        for score in compander_score(f, candidates, alpha, 2.0):
            worst = max(worst, max(0.0, best - score) / 1e-12)
    return _result("point_density_optimality", worst,
                   "orders {-2, 0.5}, 200 perturbations each")


SUITES = (
    suite_uniform_exactness,
    suite_limit_convergence,
    suite_bennett_integral,
    suite_entropy_offset,
    suite_oracle_monotonicity,
    suite_negative_order_uniform,
    suite_scaling_invariance,
    suite_mixture_composition,
    suite_allocation_minimizer,
    suite_order_seam_continuity,
    suite_pierce_bound,
    suite_point_density_optimality,
)


def run_all() -> list:
    """Run every suite; a crash counts as a failure of that suite alone."""
    results = []
    for fn in SUITES:
        name = fn.__name__.removeprefix("suite_")
        try:
            results.append(fn())
        except Exception as exc:  # noqa: BLE001 - suites must not kill the run
            results.append(SuiteResult(name, False, math.inf, 1.0,
                                       f"raised {type(exc).__name__}: {exc}"))
    return results

"""Acceptance gate: every check maps to one verification suite.

Run with -s to see one PASS/FAIL line per criterion.
"""
import pytest

from renyiquant import design, run_all, verification

CRITERIA = [
    ("uniform_exactness", "closed-form figures for uniform quantizers"),
    ("limit_convergence", "normalized distortion approaches the predicted limit"),
    ("bennett_integral", "compander distortion matches the density functional"),
    ("entropy_offset", "compander entropy offset equals a divergence"),
    ("oracle_monotonicity", "exact small-instance profiles fall with order"),
    ("negative_order_uniform", "negative orders reduce to cardinality designs"),
    ("scaling_invariance", "affine changes of variable rescale as expected"),
    ("mixture_composition", "split designs compose exactly"),
    ("allocation_minimizer", "closed-form rate split beats all competitors"),
    ("order_seam_continuity", "limits are continuous across special orders"),
    ("pierce_bound", "oracle values stay below the Pierce upper bound"),
    ("point_density_optimality", "the tilted density beats perturbations"),
]


@pytest.fixture(scope="module")
def suite_results():
    return {res.name: res for res in run_all()}


@pytest.mark.parametrize("name,blurb", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance(suite_results, name, blurb):
    res = suite_results[name]
    verdict = "PASS" if res.passed else "FAIL"
    print(f"{verdict} {name}: {blurb} (slack={res.worst:.3e}, "
          f"tol={res.tolerance})")
    assert res.passed, f"{name} exceeded tolerance: {res.detail}"


def test_every_suite_is_covered(suite_results):
    assert sorted(suite_results) == sorted(name for name, _ in CRITERIA)


def test_limit_convergence_builds_one_point_density_per_order(monkeypatch):
    # one compander per order serves all eight level counts, as in a sweep
    built = []
    real = design.optimal_point_density

    def counted(*args):
        built.append(args[1])
        return real(*args)

    monkeypatch.setattr(design, "optimal_point_density", counted)
    monkeypatch.setattr(verification, "optimal_point_density", counted)
    assert verification.suite_limit_convergence().passed
    assert len(built) == 3

"""The two density families give the same figures of merit for the same pdf,
and only ``densities`` tells them apart.  Every object the library builds goes
through its constructor, and each shared input rule is written once."""

import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import renyiquant
from renyiquant import (
    Interval,
    IntervalQuantizer,
    PiecewiseConstantDensity,
    SmoothDensity,
    cell_distortion,
    cell_masses,
    distortion,
    improve_codepoints,
    optimal_codepoint,
    optimal_point_density,
    predicted_limit,
)
from renyiquant._quadrature import with_array_form

WIDTHS = np.array([0.3, 0.25, 0.45])
STEP = PiecewiseConstantDensity([0.0, 0.3, 0.55, 1.0], np.array([0.15, 0.5, 0.35]) / WIDTHS)


def _twin(step):
    """The same step pdf, integrated by quadrature with its jumps as kinks."""
    return SmoothDensity(with_array_form(lambda xs: step._pdf_values(xs)), step.support.lo,
                         step.support.hi, breakpoints=step.interior_breakpoints())


TWIN = _twin(STEP)
# the outer cells reach past the support; one boundary sits on a jump, one
# cell holds a jump inside
BOUNDS = [-0.1, 0.12, 0.3, 0.41, 0.7, 0.93, 1.1]
POINTS = [0.05, 0.2, 0.35, 0.6, 0.8, 0.95]


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
def test_a_step_pdf_gives_the_same_figures_in_both_families(r):
    q = IntervalQuantizer(BOUNDS, POINTS)
    assert np.abs(cell_masses(q, STEP) - cell_masses(q, TWIN)).max() <= 1e-12
    assert abs(distortion(q, STEP, r) - distortion(q, TWIN, r)) <= 1e-12
    for lo, hi, c in zip(BOUNDS[:-1], BOUNDS[1:], POINTS):
        assert abs(cell_distortion(STEP, lo, hi, c, r) - cell_distortion(TWIN, lo, hi, c, r)) <= 1e-12
        cell = Interval(lo, hi)
        assert abs(optimal_codepoint(cell, STEP, r) - optimal_codepoint(cell, TWIN, r)) <= 1e-12
    assert predicted_limit(TWIN, 0.5, r).value == pytest.approx(
        predicted_limit(STEP, 0.5, r).value, rel=1e-12)
    xs = np.linspace(0.0, 1.0, 11)
    point_cdfs = [optimal_point_density(d, 0.5, r).cdf(xs) for d in (STEP, TWIN)]
    assert np.abs(point_cdfs[0] - point_cdfs[1]).max() <= 1e-12


EPS = float(np.finfo(float).eps)
# roundings a twin's moment may be off by: its Gauss sums, and the sum over a
# dozen or so pieces of those, at most SUMS; and FEW for each width the
# support lies from 0, since the ends of every piece round to that scale (the
# distortion takes FEW roundings of each node's place instead)
SUMS, FEW = 32, 4


@st.composite
def _step_twins(draw):
    """A step density of 1-5 pieces, its heights 1e-3 to 1e3 apart before they
    are scaled to mass 1, its support up to 1e3 widths from 0, and its twin:
    the same step pdf in the smooth family, with the jumps as kinks."""
    pieces = draw(st.integers(1, 5))
    widths = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=pieces, max_size=pieces)))
    heights = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=pieces,
                                             max_size=pieces)))
    width = 2.0 ** draw(st.integers(-4, 4))
    lo = draw(st.floats(-1e3, 1e3)) * width
    b = lo + width * np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))
    b[-1] = lo + width
    step = PiecewiseConstantDensity(b, heights / float(np.dot(heights, np.diff(b))))
    return step, _twin(step)


def _relative(a, b):
    return abs(a - b) / abs(a)


# pieces of height exactly 1 beside a jump: f log f is 0 at each of their
# nodes, and the pdf at the kink is the next piece's
_FLAT = PiecewiseConstantDensity([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0], [1.0, 1.0 + 2.0 * EPS, 1.0])


@settings(max_examples=40, deadline=None)
@example(pair=(_FLAT, _twin(_FLAT)), cuts=[], at=[0.0] * 5, us=[0.0], r=1.0)
@given(pair=_step_twins(), cuts=st.lists(st.integers(1, 999), max_size=4, unique=True),
       at=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
       us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
       r=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_a_random_step_pdf_gives_the_closed_forms_through_the_smooth_engine(pair, cuts, at, us, r):
    step, twin = pair
    lo, hi = step.support.lo, step.support.hi
    width, far = hi - lo, max(abs(lo), abs(hi))
    moment = EPS * (SUMS + FEW * far / width)
    # a point is off by the quantile's and the codepoint solve's stopping
    # width, 1e-13 of the width each, and a few roundings of its place
    point = 2e-13 * width + FEW * float(np.spacing(far))
    # the twin's cdf adds up its table's cell masses, one rounding each
    cdf = len(twin._edges) * EPS / 2.0 + moment
    xs = lo + width * np.array(us)
    assert np.abs(step.cdf(xs) - twin.cdf(xs)).max() <= cdf
    # the quantile of a cdf off by cdf is off by cdf / f, f the smaller
    # height on either side of the point
    x = step.quantile(np.array(us))
    f = np.minimum(*(step._pdf_values(np.clip(np.nextafter(x, end), lo, hi))
                     for end in (-np.inf, np.inf)))
    assert (np.abs(twin.quantile(np.array(us)) - x) <= point + cdf / f).all()
    for p in (-2.0, 0.6, 2.0):
        assert _relative(step.power_integral(p), twin.power_integral(p)) <= moment
    # cells of at least 1e-3 of the width, codepoints anywhere in them
    b = np.concatenate(([lo], lo + width * np.sort(cuts) / 1000.0, [hi]))
    q = IntervalQuantizer(b, b[:-1] + np.array(at[: len(b) - 1]) * np.diff(b))
    assert np.abs(cell_masses(q, step) - cell_masses(q, twin)).max() <= moment
    # each node off the codepoint's own pieces places x a few roundings of
    # far off, which moves |x - c|**r by r * |x - c|**(r - 1) times that; and
    # the mean of |x - c|**(r - 1) is at most D**((r - 1) / r)
    dist = distortion(q, step, r)
    assert abs(dist - distortion(q, twin, r)) <= EPS * (
        SUMS * dist + FEW * r * far * dist ** ((r - 1.0) / r))
    points = [improve_codepoints(q, d, r).codepoints for d in (step, twin)]
    assert np.abs(points[0] - points[1]).max() <= point
    for alpha in (a for a in (-2.0, 0.5, 1.0, 2.0) if a < 1.0 + r):
        # a limit raises its integral to the power q = (1 - a + r) / (1 - a),
        # and at a = 1 takes e**(-r * the log integral): so many times its error
        q = r * max(1.0, *map(abs, np.log(step.heights))) if alpha == 1.0 else \
            (1.0 - alpha + r) / (1.0 - alpha)
        assert _relative(predicted_limit(step, alpha, r).value,
                         predicted_limit(twin, alpha, r).value) <= moment * (1.0 + abs(q))


FAMILIES = {"PiecewiseConstantDensity", "SmoothDensity"}
# the input checks of the two functions that accept only piecewise densities
FAMILY_CHECKS_ALLOWED = {("oracle.py", "GridInstance.__init__"),
                         ("mixture.py", "MixtureSpec.combined_density")}


def _family_checks(tree):
    """(enclosing function, line) of every isinstance call naming a density class."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and len(child.args) == 2):
                names = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(child.args[1])
                         if isinstance(n, (ast.Name, ast.Attribute))}
                if names & FAMILIES:
                    found.append((inner, child.lineno))
            visit(child, inner)

    visit(tree, "")
    return found


def _imported_packages(tree):
    """Top-level names of every absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


SOURCES = sorted(Path(renyiquant.__file__).parent.glob("*.py"))


def test_the_guard_sees_a_family_check():
    tree = ast.parse("class A:\n    def f(self, d):\n"
                     "        return isinstance(d, (float, densities.SmoothDensity))\n")
    assert _family_checks(tree) == [("A.f", 3)]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "densities.py"],
                         ids=lambda p: p.name)
def test_only_densities_tells_the_families_apart(path):
    checks = _family_checks(ast.parse(path.read_text()))
    assert {(path.name, scope) for scope, _ in checks} <= FAMILY_CHECKS_ALLOWED, checks


def test_densities_tests_the_family_of_a_pair_in_one_place():
    # the pair functions take the family from _pair_cut; each density
    # carries its own spec, so density_to_spec tests no family
    path = Path(renyiquant.__file__).parent / "densities.py"
    checks = _family_checks(ast.parse(path.read_text()))
    assert {scope for scope, _ in checks} <= {"_pair_cut"}, checks


def _rule_copies(tree):
    """(rule, enclosing function) of every place that writes out one of three
    input rules: a read of ``ess_bounds()[0]`` (a lower bound that must be
    positive), ``1e-12 * max(...)`` (a span's slack) and ``float(rate)``."""
    found = []

    def rule(node):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "ess_bounds"
                and isinstance(node.slice, ast.Constant) and node.slice.value == 0):
            return "ess_inf"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            sides = (node.left, node.right)
            if (any(isinstance(x, ast.Constant) and x.value == 1e-12 for x in sides)
                    and any(isinstance(x, ast.Call) and isinstance(x.func, ast.Name)
                            and x.func.id == "max" for x in sides)):
                return "span_tol"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float" and len(node.args) == 1
                and isinstance(node.args[0], ast.Name) and node.args[0].id == "rate"):
            return "rate"
        return None

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            name = rule(child)
            if name is not None:
                found.append((name, inner))
            visit(child, inner)

    visit(tree, "")
    return found


def test_the_guard_sees_a_copy_of_each_rule():
    tree = ast.parse("def f(d, rate, w):\n"
                     "    if min(g.ess_bounds()[0] for g in d) <= 0.0:\n"
                     "        return float(rate) + max(w, 1.0) * 1e-12\n")
    assert sorted(_rule_copies(tree)) == [("ess_inf", "f"), ("rate", "f"), ("span_tol", "f")]


def test_each_input_rule_is_written_once():
    # a positive lower bound, a span's slack and a rate are each checked by one
    # helper; golden_extremum's stop has the slack's form but is a search tolerance
    copies = {(path.name, *copy) for path in SOURCES
              for copy in _rule_copies(ast.parse(path.read_text()))}
    assert copies == {("densities.py", "ess_inf", "_ess_inf"),
                      ("densities.py", "span_tol", "_span_tol"),
                      ("_quadrature.py", "span_tol", "golden_extremum"),
                      ("core.py", "rate", "_as_rate")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_library_imports_only_numpy_and_the_standard_library(path):
    allowed = set(sys.stdlib_module_names) | {"__future__", "numpy"}
    assert set(_imported_packages(ast.parse(path.read_text()))) <= allowed


def _new_calls(tree):
    """Line of every call of a ``__new__`` attribute, as in ``cls.__new__(cls)``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"]


def test_the_guard_sees_a_new_call():
    tree = ast.parse("def f(cls):\n    q = object.__new__(cls)\n    return q\n")
    assert _new_calls(tree) == [2]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_object_the_library_builds_goes_through_its_constructor(path):
    # a density or quantizer made by __new__ would skip the checks in __init__,
    # and a tracer that wraps __init__ would not see it
    assert _new_calls(ast.parse(path.read_text())) == []

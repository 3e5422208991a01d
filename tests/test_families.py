"""The two density families give the same figures of merit for the same pdf,
and only ``densities`` tells them apart.  Every object the library builds goes
through its constructor."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import renyiquant
from renyiquant import (
    Interval,
    IntervalQuantizer,
    PiecewiseConstantDensity,
    SmoothDensity,
    cell_distortion,
    cell_masses,
    distortion,
    optimal_codepoint,
    optimal_point_density,
    predicted_limit,
)
from renyiquant._quadrature import with_array_form

WIDTHS = np.array([0.3, 0.25, 0.45])
STEP = PiecewiseConstantDensity([0.0, 0.3, 0.55, 1.0], np.array([0.15, 0.5, 0.35]) / WIDTHS)
# the same step pdf, integrated by quadrature with its jumps as kinks
TWIN = SmoothDensity(with_array_form(lambda xs: STEP._pdf_values(xs)), 0.0, 1.0,
                     breakpoints=STEP.interior_breakpoints())
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
    # the pair functions take the family from _pair_cut; density_to_spec
    # writes each family's spec
    path = Path(renyiquant.__file__).parent / "densities.py"
    checks = _family_checks(ast.parse(path.read_text()))
    assert {scope for scope, _ in checks} <= {"_pair_cut", "density_to_spec"}, checks


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

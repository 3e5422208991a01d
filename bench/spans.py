"""Span tracing of the renyiquant layers, driven from outside the package.

``Tracer.install()`` wraps the public functions and methods of each module
and rebinds every name that refers to them, in every loaded ``renyiquant``
module, so a call made through an import-site binding (``integrate`` as seen
from ``densities``, ``quantizer``, ``compander`` and ``entropy``) is traced
like a call through the defining module.  Methods are patched on their
class.  ``uninstall()`` restores every binding.

A span is (name, start, end, parent, command).  Spans stay in memory in
flat arrays and are written out once, at the end.  Self time is a span's
duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array

import numpy as np

import renyiquant._quadrature as quadrature
import renyiquant.cli as cli
import renyiquant.compander as compander
import renyiquant.densities as densities
import renyiquant.design as design
import renyiquant.entropy as entropy
import renyiquant.mixture as mixture
import renyiquant.oracle as oracle
import renyiquant.quantizer as quantizer
import renyiquant.verification as verification
from renyiquant.core import as_order

SUITE_NAMES = tuple(fn.__name__.removeprefix("suite_") for fn in verification.SUITES)

# (name, unit, better) for every per-layer metric; BENCHMARK.json lists the
# same names.  Counts and ratios repeat exactly for a given seed; times do not.
LAYER_METRICS = [
    ("quadrature.integrate.calls", "count", "lower"),
    ("quadrature.integrate.self_s", "s", "lower"),
    ("quadrature.bisect.calls", "count", "lower"),
    ("quadrature.bisect.evals", "count", "lower"),
    ("quadrature.bisect.self_s", "s", "lower"),
    ("quadrature.golden.calls", "count", "lower"),
    ("densities.construct_s", "s", "lower"),
    ("densities.pdf.calls", "count", "lower"),
    ("densities.cdf.calls", "count", "lower"),
    ("densities.cdf.self_s", "s", "lower"),
    ("densities.quantile.calls", "count", "lower"),
    ("densities.quantile.self_s", "s", "lower"),
    ("densities.cdf_per_quantile", "ratio", "lower"),
    ("compander.init_s", "s", "lower"),
    ("compander.build.calls", "count", "lower"),
    ("compander.build.self_s", "s", "lower"),
    ("compander.levels_built", "count", "lower"),
    ("quantizer.cell_masses.s", "s", "lower"),
    ("quantizer.distortion.calls", "count", "lower"),
    ("quantizer.distortion.s", "s", "lower"),
    ("quantizer.optimal_codepoint.calls", "count", "lower"),
    ("quantizer.optimal_codepoint.self_s", "s", "lower"),
    ("quantizer.cell_distortion.s", "s", "lower"),
    ("entropy.renyi_entropy.s", "s", "lower"),
    ("entropy.relative_entropy.s", "s", "lower"),
    ("design.optimal_point_density.calls", "count", "lower"),
    ("design.optimal_point_density.s", "s", "lower"),
    ("design.point_density_reuse", "ratio", "higher"),
    ("design.predicted_limit.s", "s", "lower"),
    ("mixture.s", "s", "lower"),
    ("oracle.partitions.s", "s", "lower"),
    ("oracle.mass_matrix.s", "s", "lower"),
    ("oracle.cell_table.calls", "count", "lower"),
    ("oracle.cell_table.self_s", "s", "lower"),
    ("oracle.table_builds", "count", "lower"),
    ("oracle.table_reuse", "ratio", "higher"),
    ("oracle.cells_solved", "count", "lower"),
    ("oracle.enumerate.self_s", "s", "lower"),
    ("oracle.partitions_scanned", "count", "lower"),
    ("oracle.feasible_ratio", "ratio", "higher"),
    *((f"verification.{name}.s", "s", "lower") for name in SUITE_NAMES),
    ("cli.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Ratios and the metric that is their base (the denominator's count).
RATIO_BASES = {
    "densities.cdf_per_quantile": "densities.quantile.calls",
    "design.point_density_reuse": "design.optimal_point_density.calls",
    "oracle.table_reuse": "oracle.table_builds",
    "oracle.feasible_ratio": "oracle.partitions_scanned",
}


def _ratio(num, den):
    return num / den if den else 0.0


def _any_ancestor(parent, test):
    """Per span: does ``test(ancestors, spans)`` hold for some ancestor?"""
    out = np.zeros(len(parent), dtype=bool)
    span = np.flatnonzero(parent >= 0)
    anc = parent[span]
    while span.size:
        out[span] |= test(anc, span)
        keep = parent[anc] >= 0
        span, anc = span[keep], parent[anc[keep]]
    return out


def _density_key(f):
    if isinstance(f, densities.PiecewiseConstantDensity):
        return ("piecewise", f.breakpoints.tobytes(), f.heights.tobytes())
    spec = getattr(f, "spec", None)
    return ("spec", json.dumps(spec, sort_keys=True)) if spec is not None else ("id", id(f))


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("l")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._command = -1
        self.counts = {"pdf_evals": 0, "bisect_evals": 0, "levels_built": 0,
                       "partitions_scanned": 0, "feasible": 0, "table_builds": 0}
        self._table_keys = set()
        self._density_requests = set()
        self._undo = []

    # -- span recording -------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.command.append(self._command)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook=None, new_command=False):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        if hook is None and not new_command:
            def wrapper(*args, **kwargs):
                i = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(i)
        else:
            call = hook or (lambda fn_, args, kwargs: fn_(*args, **kwargs))

            def wrapper(*args, **kwargs):
                if new_command:
                    self._command += 1
                i = open_(nid)
                try:
                    return call(fn, args, kwargs)
                finally:
                    close(i)

        return functools.update_wrapper(wrapper, fn)

    # -- hooks that count work at the layer boundary ----------------------

    def _counting_callback(self, key):
        counts = self.counts

        def hook(fn, args, kwargs):
            f = args[0]

            def counted(x):
                counts[key] += 1
                return f(x)

            return fn(counted, *args[1:], **kwargs)

        return hook

    def _count_levels(self, fn, args, kwargs):
        self.counts["levels_built"] += int(args[1] if len(args) > 1 else kwargs["n"])
        return fn(*args, **kwargs)

    def _note_point_density(self, fn, args, kwargs):
        f, alpha, r = args[:3]
        self._density_requests.add((_density_key(f), as_order(alpha), float(r)))
        return fn(*args, **kwargs)

    def _note_cell_table(self, fn, args, kwargs):
        inst, r = args[0], args[1]
        before = len(inst._per_r)
        out = fn(*args, **kwargs)
        if len(inst._per_r) > before:
            self.counts["table_builds"] += 1
            self._table_keys.add((_density_key(inst.density), inst.grid.tobytes(),
                                  inst.max_cells, float(r)))
        return out

    def _note_enumeration(self, fn, args, kwargs):
        inst = args[0]
        out = fn(*args, **kwargs)
        interior = len(inst.grid) - 2
        self.counts["partitions_scanned"] += sum(
            math.comb(interior, k - 1) for k in range(1, inst.max_cells + 1))
        self.counts["feasible"] += out.feasible_count
        return out

    # -- installation -----------------------------------------------------

    def _rebind(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "renyiquant" or modname.startswith("renyiquant.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _patch_function(self, module, attr, name, hook=None, new_command=False):
        original = getattr(module, attr)
        self._rebind(original, self._wrap(name, original, hook, new_command))

    def _patch_method(self, cls, attr, name, hook=None):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, hook))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        fn, meth = self._patch_function, self._patch_method
        fn(quadrature, "integrate", "quadrature.integrate", self._counting_callback("pdf_evals"))
        fn(quadrature, "bisect_increasing", "quadrature.bisect",
           self._counting_callback("bisect_evals"))
        fn(quadrature, "golden_extremum", "quadrature.golden")
        for cls in (densities.PiecewiseConstantDensity, densities.SmoothDensity):
            meth(cls, "__init__", "densities.construct")
            meth(cls, "cdf", "densities.cdf")
            meth(cls, "quantile", "densities.quantile")
        meth(compander.Compander, "__init__", "compander.init")
        meth(compander.Compander, "build", "compander.build", self._count_levels)
        for attr in ("cell_masses", "distortion", "optimal_codepoint", "cell_distortion"):
            fn(quantizer, attr, f"quantizer.{attr}")
        for attr in ("renyi_entropy", "relative_entropy"):
            fn(entropy, attr, f"entropy.{attr}")
        fn(design, "optimal_point_density", "design.optimal_point_density",
           self._note_point_density)
        fn(design, "predicted_limit", "design.predicted_limit")
        fn(design, "design_compander", "design.design_compander")
        for attr in mixture.__all__:
            obj = getattr(mixture, attr)
            if callable(obj) and not isinstance(obj, type):
                fn(mixture, attr, f"mixture.{attr}")
        meth(mixture.MixtureSpec, "__init__", "mixture.MixtureSpec")
        meth(mixture.MixtureSpec, "combined_density", "mixture.combined_density")
        meth(oracle.GridInstance, "partitions", "oracle.partitions")
        meth(oracle.GridInstance, "mass_matrix", "oracle.mass_matrix")
        meth(oracle.GridInstance, "cell_table", "oracle.cell_table", self._note_cell_table)
        fn(oracle, "brute_force_optimal", "oracle.enumerate", self._note_enumeration)
        self._undo.append((verification, "SUITES", verification.SUITES))
        verification.SUITES = tuple(
            self._wrap(f"verification.{suite.__name__.removeprefix('suite_')}", suite)
            for suite in verification.SUITES
        )
        fn(cli, "main", "cli.main", new_command=True)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def arrays(self):
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        return name, parent, start, end

    def metrics(self) -> dict:
        """Per-layer values keyed by LAYER_METRICS names (no trace.overhead_s)."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        outer = ~_any_ancestor(parent, lambda a, s: name[a] == name[s])
        layers = {}
        layer_of = np.array([layers.setdefault(n.split(".", 1)[0], len(layers))
                             for n in self.names], dtype=np.int64)
        layer = layer_of[name]
        outer_layer = ~_any_ancestor(parent, lambda a, s: layer[a] == layer[s])

        def mask(span):
            return name == self._ids.get(span, -1)

        def calls(span):
            return int(mask(span).sum())

        def self_s(span):
            return float(self_time[mask(span)].sum())

        def incl_s(span):
            return float(dur[mask(span) & outer].sum())

        quantile_id = self._ids.get("densities.quantile", -1)
        cdf_in_quantile = int((mask("densities.cdf")
                               & _any_ancestor(parent, lambda a, s: name[a] == quantile_id)).sum())
        table_id = self._ids.get("oracle.cell_table", -1)
        solved = int((mask("quantizer.optimal_codepoint") & has_parent
                      & (name[np.where(has_parent, parent, 0)] == table_id)).sum())
        mixture_layer = layers.get("mixture", -1)
        c = self.counts
        out = {
            "quadrature.integrate.calls": calls("quadrature.integrate"),
            "quadrature.integrate.self_s": self_s("quadrature.integrate"),
            "quadrature.bisect.calls": calls("quadrature.bisect"),
            "quadrature.bisect.evals": c["bisect_evals"],
            "quadrature.bisect.self_s": self_s("quadrature.bisect"),
            "quadrature.golden.calls": calls("quadrature.golden"),
            "densities.construct_s": incl_s("densities.construct"),
            "densities.pdf.calls": c["pdf_evals"],
            "densities.cdf.calls": calls("densities.cdf"),
            "densities.cdf.self_s": self_s("densities.cdf"),
            "densities.quantile.calls": calls("densities.quantile"),
            "densities.quantile.self_s": self_s("densities.quantile"),
            "densities.cdf_per_quantile": _ratio(cdf_in_quantile, calls("densities.quantile")),
            "compander.init_s": incl_s("compander.init"),
            "compander.build.calls": calls("compander.build"),
            "compander.build.self_s": self_s("compander.build"),
            "compander.levels_built": c["levels_built"],
            "quantizer.cell_masses.s": incl_s("quantizer.cell_masses"),
            "quantizer.distortion.calls": calls("quantizer.distortion"),
            "quantizer.distortion.s": incl_s("quantizer.distortion"),
            "quantizer.optimal_codepoint.calls": calls("quantizer.optimal_codepoint"),
            "quantizer.optimal_codepoint.self_s": self_s("quantizer.optimal_codepoint"),
            "quantizer.cell_distortion.s": incl_s("quantizer.cell_distortion"),
            "entropy.renyi_entropy.s": incl_s("entropy.renyi_entropy"),
            "entropy.relative_entropy.s": incl_s("entropy.relative_entropy"),
            "design.optimal_point_density.calls": calls("design.optimal_point_density"),
            "design.optimal_point_density.s": incl_s("design.optimal_point_density"),
            "design.point_density_reuse": _ratio(len(self._density_requests),
                                                 calls("design.optimal_point_density")),
            "design.predicted_limit.s": incl_s("design.predicted_limit"),
            "mixture.s": float(dur[(layer == mixture_layer) & outer_layer].sum()),
            "oracle.partitions.s": incl_s("oracle.partitions"),
            "oracle.mass_matrix.s": incl_s("oracle.mass_matrix"),
            "oracle.cell_table.calls": calls("oracle.cell_table"),
            "oracle.cell_table.self_s": self_s("oracle.cell_table"),
            "oracle.table_builds": c["table_builds"],
            "oracle.table_reuse": _ratio(len(self._table_keys), c["table_builds"]),
            "oracle.cells_solved": solved,
            "oracle.enumerate.self_s": self_s("oracle.enumerate"),
            "oracle.partitions_scanned": c["partitions_scanned"],
            "oracle.feasible_ratio": _ratio(c["feasible"], c["partitions_scanned"]),
        }
        for suite in SUITE_NAMES:
            out[f"verification.{suite}.s"] = incl_s(f"verification.{suite}")
        out["cli.self_s"] = self_s("cli.main")
        out["trace.spans"] = len(name)
        return out

    def write(self, path):
        """Write every span to an .npz file (times relative to the first span)."""
        name, parent, start, end = self.arrays()
        t0 = start.min() if len(start) else 0.0
        np.savez(path, names=np.array(self.names), name=name.astype(np.int32),
                 parent=parent.astype(np.int32), command=np.asarray(self.command, dtype=np.int32),
                 start=start - t0, end=end - t0)

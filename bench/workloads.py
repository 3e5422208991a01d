"""Seeded inputs, CLI commands and output checks for each workload.

A workload is a fixed list of CLI commands per pass.  Its inputs are JSON
files generated from the seed; the program sees only those files.  The seed
selects one of ``VARIANTS`` input sets (seed mod VARIANTS), and every variant
has reference outputs recorded from the seed commit in ``reference/``, so any
seed can be checked.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

VARIANTS = 32
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Tolerances, fixed before any measurement.  Sweep rows may move by the
# smooth-density mass tolerance of the code itself (SmoothDensity rejects a
# pdf whose mass misses 1 by more than 1e-8); the oracle value by 1e-10,
# twenty times the rounding of its 12 printed digits.  Oracle feasible counts
# and argmins, level counts, suite names and PASS marks must match exactly.
SWEEP_REL_TOL = 1e-8
ORACLE_VALUE_REL_TOL = 1e-10

SMOOTH_LEVELS = "16,32,64,128,256,512,1024"
PIECEWISE_LEVELS = "1024,2048,4096,8192,16384,32768,65536"
PIECEWISE_SEGMENTS = 48
ORACLE_ORDERS = "neg_inf,-2,-1,0,0.5,1,2,pos_inf"
ORACLE_GRID_POINTS = 28
ORACLE_MAX_CELLS = 7
ORACLE_SEGMENTS = 6

NAMES = ("verify", "sweep_smooth", "sweep_piecewise", "oracle_profile")


@dataclass
class Command:
    """One CLI invocation and the reference key its output is checked against."""

    key: str
    argv: list
    work: int


@dataclass
class Check:
    """Problems found in one command's output, and its accuracy gap next to the
    seed commit's gap on the same input (both 0 when the output is wrong)."""

    problems: list = field(default_factory=list)
    gap: float = 0.0
    reference_gap: float = 0.0


@dataclass
class Workload:
    name: str
    variant: int
    specs: dict                 # input file name -> JSON object
    setup_code: str             # run in a fresh interpreter after the cli import
    work_unit: str
    accuracy_meaning: str
    passes: list                # list of passes, each a list of Command; cycled
    input_dir: Path

    def commands(self, pass_index: int):
        return self.passes[pass_index % len(self.passes)]

    def inputs_digest(self) -> str:
        return hashlib.sha256(json.dumps(self.specs, sort_keys=True).encode()).hexdigest()


def _rng(workload: str, variant: int):
    return np.random.default_rng([NAMES.index(workload), variant])


def _levels_work(levels: str) -> int:
    return sum(int(n) for n in levels.split(","))


def make(name: str, seed: int, root: Path) -> Workload:
    """Build the workload for a seed and write its input files under root."""
    if name not in _MAKERS:
        raise ValueError(f"unknown workload {name!r}")
    variant = 0 if name == "verify" else seed % VARIANTS
    input_dir = root / f"{name}-v{variant}"
    wl = _MAKERS[name](variant, input_dir)
    input_dir.mkdir(parents=True, exist_ok=True)
    for fname, spec in wl.specs.items():
        (input_dir / fname).write_text(json.dumps(spec, indent=1) + "\n")
    return wl


def _make_verify(variant, d):
    # the suites seed themselves: there is nothing to generate
    return Workload(
        "verify", variant, {}, "pass", "suites", "largest suite slack (worst / allowance)",
        [[Command("verify", ["verify"], 12)]], d,
    )


def _make_sweep_smooth(variant, d):
    rng = _rng("sweep_smooth", variant)
    gauss = {"kind": "truncated_gauss", "mean": round(float(rng.uniform(0.35, 0.65)), 6),
             "sigma": round(float(rng.uniform(0.25, 0.45)), 6), "lo": 0.0, "hi": 1.0}
    laplace = {"kind": "truncated_laplace", "center": round(float(rng.uniform(0.3, 0.7)), 6),
               "scale": round(float(rng.uniform(0.2, 0.4)), 6), "lo": 0.0, "hi": 1.0}
    work = _levels_work(SMOOTH_LEVELS)
    sweep = ["--levels", SMOOTH_LEVELS, "--format", "json"]
    return Workload(
        "sweep_smooth", variant, {"gauss.json": gauss, "laplace.json": laplace},
        _DENSITY_SETUP.format(files=["gauss.json", "laplace.json"]),
        "levels", "largest final relative deviation from the predicted limit",
        [[Command("gauss", ["sweep", "--density", str(d / "gauss.json"),
                            "--alpha", "0.5", "--r", "2", *sweep], work),
          Command("laplace", ["sweep", "--density", str(d / "laplace.json"),
                              "--alpha", "-2", "--r", "1.5", *sweep], work)]], d,
    )


def _make_sweep_piecewise(variant, d):
    rng = _rng("sweep_piecewise", variant)
    widths = rng.uniform(0.5, 1.5, PIECEWISE_SEGMENTS)
    breaks = np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))
    breaks[-1] = 1.0
    heights = rng.uniform(0.25, 4.0, PIECEWISE_SEGMENTS)
    heights /= float(np.dot(heights, np.diff(breaks)))
    spec = {"kind": "piecewise", "breakpoints": [float(x) for x in breaks],
            "heights": [float(x) for x in heights]}
    return Workload(
        "sweep_piecewise", variant, {"piecewise.json": spec},
        _DENSITY_SETUP.format(files=["piecewise.json"]),
        "levels", "final relative deviation from the predicted limit",
        [[Command("piecewise", ["sweep", "--density", str(d / "piecewise.json"),
                                "--alpha", "0.5", "--r", "2", "--levels", PIECEWISE_LEVELS,
                                "--format", "json"], _levels_work(PIECEWISE_LEVELS))]], d,
    )


def _oracle_instance(variant):
    rng = _rng("oracle_profile", variant)
    n = ORACLE_GRID_POINTS
    grid = np.linspace(0.0, 1.0, n)
    grid[1:-1] += rng.uniform(-0.3, 0.3, n - 2) / (n - 1)
    cut_idx = np.sort(rng.choice(np.arange(1, n - 1), ORACLE_SEGMENTS - 1, replace=False))
    breaks = np.concatenate(([0.0], grid[cut_idx], [1.0]))
    heights = rng.uniform(0.3, 3.0, ORACLE_SEGMENTS)
    heights /= float(np.dot(heights, np.diff(breaks)))
    rates = [round(math.log(k) + float(rng.uniform(-0.1, 0.1)), 6) for k in (3, 4, 5)]
    spec = {"density": {"kind": "piecewise", "breakpoints": [float(x) for x in breaks],
                        "heights": [float(x) for x in heights]},
            "grid": [float(x) for x in grid], "max_cells": ORACLE_MAX_CELLS}
    return spec, rates


def _make_oracle_profile(variant, d):
    spec, rates = _oracle_instance(variant)
    partitions = sum(math.comb(ORACLE_GRID_POINTS - 2, k - 1)
                     for k in range(1, ORACLE_MAX_CELLS + 1))
    work = partitions * len(ORACLE_ORDERS.split(","))
    # one command per pass; the passes cycle through the rates
    passes = [[Command(f"rate{i}", ["oracle", "--instance", str(d / "instance.json"), "--alpha",
                                    ORACLE_ORDERS, "--rate", repr(rate), "--r", "2"], work)]
              for i, rate in enumerate(rates)]
    return Workload(
        "oracle_profile", variant, {"instance.json": spec},
        "from renyiquant.oracle import instance_from_spec\n"
        "instance_from_spec(json.load(open(sys.argv[1] + '/instance.json')))",
        "partition-order evaluations", "largest relative gap of profile values from the "
        "exact rational optimum of the reported partition",
        passes, d,
    )


_MAKERS = {"verify": _make_verify, "sweep_smooth": _make_sweep_smooth,
           "sweep_piecewise": _make_sweep_piecewise, "oracle_profile": _make_oracle_profile}

_DENSITY_SETUP = (
    "from renyiquant.densities import density_from_spec\n"
    "for name in {files!r}:\n"
    "    density_from_spec(json.load(open(sys.argv[1] + '/' + name)))"
)


# -- output checks -------------------------------------------------------------

def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def parse_output(name: str, out: str):
    """Parsed form of one command's stdout, as stored in the reference."""
    if name == "verify":
        lines = out.splitlines()
        suites = []
        for line in lines[:-1]:
            m = _SUITE_LINE.match(line)
            if m is None:
                raise ValueError(f"unparsable verify line {line!r}")
            suites.append([m.group(1), m.group(2), float(m.group(3))])
        m = _SUMMARY_LINE.match(lines[-1]) if lines else None
        if m is None:
            raise ValueError("verify output lacks its summary line")
        return {"suites": suites, "passed": int(m.group(1)), "total": int(m.group(2))}
    return json.loads(out)


_SUITE_LINE = re.compile(r"^(PASS|FAIL) (\S+) slack=(\S+) tol=\S+ \(.*\)$")
_SUMMARY_LINE = re.compile(r"^(\d+)/(\d+) suites passed$")


def check(wl: Workload, cmd: Command, rc: int, out: str, reference: dict) -> Check:
    """Compare one command's exit code and output with the reference."""
    result = Check()
    if rc != 0:
        result.problems.append(f"exit code {rc}")
        return result
    try:
        got = parse_output(wl.name, out)
    except ValueError as exc:
        result.problems.append(str(exc))
        return result
    entry = reference.get(str(wl.variant))
    if entry is None:
        result.problems.append(f"no reference for variant {wl.variant}")
        return result
    if entry["inputs_sha256"] != wl.inputs_digest():
        result.problems.append("generated inputs differ from the recorded reference")
        return result
    want = entry["outputs"][cmd.key]
    compare = {"verify": _compare_verify, "sweep_smooth": _compare_sweep,
               "sweep_piecewise": _compare_sweep, "oracle_profile": _compare_oracle}[wl.name]
    try:
        result.problems.extend(compare(got, want))
        if not result.problems:
            result.gap = accuracy_gap(wl, got)
            result.reference_gap = accuracy_gap(wl, want)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        result.problems.append(f"unexpected output: {exc!r}")
    return result


def accuracy_gap(wl: Workload, parsed) -> float:
    """The largest accuracy gap in one command's parsed output."""
    if wl.name == "verify":
        return max(s[2] for s in parsed["suites"])
    if wl.name == "oracle_profile":
        spec = wl.specs["instance.json"]
        return max(
            float(abs(Fraction(p["value"]) - exact) / exact)
            for p in parsed["profile"]
            for exact in [_exact_partition_distortion(spec, p["argmin"]["boundaries"])]
        )
    return parsed["final_relative_deviation"]


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _compare_verify(got, want):
    problems = []
    names = [s[1] for s in got["suites"]]
    if names != [s[1] for s in want["suites"]]:
        problems.append(f"suite list changed: {names}")
    failed = [s[1] for s in got["suites"] if s[0] != "PASS"]
    if failed:
        problems.append(f"suites failed: {failed}")
    if got["passed"] != got["total"] or got["total"] != want["total"]:
        problems.append(f"{got['passed']}/{got['total']} suites passed")
    return problems


def _compare_sweep(got, want):
    if [r["N"] for r in got["rows"]] != [r["N"] for r in want["rows"]]:
        return ["level counts differ"]
    problems = []
    for g, w in zip(got["rows"], want["rows"]):
        if "error" in g:
            problems.append(f"row N={g['N']} failed: {g['error']}")
            continue
        for key in ("entropy", "distortion", "normalized"):
            if not _close(g[key], w[key], SWEEP_REL_TOL):
                problems.append(f"N={g['N']} {key} {g[key]!r} != {w[key]!r}")
    if not _close(got["predicted"], want["predicted"], SWEEP_REL_TOL):
        problems.append(f"predicted {got['predicted']!r} != {want['predicted']!r}")
    # the deviation is a difference of two checked values: compare absolutely
    dev = got["final_relative_deviation"]
    if dev is None or abs(dev - want["final_relative_deviation"]) > 2 * SWEEP_REL_TOL:
        problems.append(f"final_relative_deviation {dev!r} "
                        f"!= {want['final_relative_deviation']!r}")
    return problems


def _compare_oracle(got, want):
    problems = [f"{key} {got[key]!r} != {want[key]!r}"
                for key in ("rate", "r") if got[key] != want[key]]
    if [p["alpha"] for p in got["profile"]] != [p["alpha"] for p in want["profile"]]:
        return problems + ["order ladder differs"]
    for g, w in zip(got["profile"], want["profile"]):
        if g["feasible_count"] != w["feasible_count"]:
            problems.append(f"alpha={g['alpha']} feasible_count "
                            f"{g['feasible_count']} != {w['feasible_count']}")
        if g["argmin"] != w["argmin"]:
            problems.append(f"alpha={g['alpha']} argmin differs")
        if not _close(g["value"], w["value"], ORACLE_VALUE_REL_TOL):
            problems.append(f"alpha={g['alpha']} value {g['value']!r} != {w['value']!r}")
    return problems


def _exact_partition_distortion(spec, boundaries) -> Fraction:
    """Squared-error distortion of a grid partition with conditional-mean codepoints,
    in exact rational arithmetic on the instance's float inputs."""
    grid = spec["grid"]
    idx = [min(range(len(grid)), key=lambda i: abs(grid[i] - b)) for b in boundaries]
    if any(abs(grid[i] - b) > 1e-9 for i, b in zip(idx, boundaries)):
        raise ValueError("argmin boundary is not a grid point")
    bp = [Fraction(x) for x in spec["density"]["breakpoints"]]
    hs = [Fraction(h) for h in spec["density"]["heights"]]
    total = Fraction(0)
    for i, j in zip(idx[:-1], idx[1:]):
        lo, hi = Fraction(grid[i]), Fraction(grid[j])
        m0 = m1 = m2 = Fraction(0)
        for s, t, h in zip(bp[:-1], bp[1:], hs):
            s, t = max(s, lo), min(t, hi)
            if t > s:
                m0 += h * (t - s)
                m1 += h * (t * t - s * s) / 2
                m2 += h * (t ** 3 - s ** 3) / 3
        total += m2 - m1 * m1 / m0
    return total

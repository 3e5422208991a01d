"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

They run real workload passes, so they take a few minutes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SEEDED = [name for name in workloads.NAMES if name != "verify"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def bench():
    cwd = os.getcwd()
    os.chdir(ROOT)
    import run

    cli = run.import_cli()
    run.OUT.mkdir(exist_ok=True)
    yield run, cli
    os.chdir(cwd)


def _traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "1"], cwd=ROOT, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace1.json"
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(record.read_text())


def test_metric_tables_match_benchmark_json(bench):
    run, _ = bench
    import spans

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names + list(workloads.NAMES))


@pytest.mark.parametrize("workload", SEEDED)
def test_seed_fixes_inputs(workload, tmp_path):
    a = workloads.make(workload, 7, tmp_path / "a")
    b = workloads.make(workload, 7, tmp_path / "b")
    c = workloads.make(workload, 8, tmp_path / "c")
    assert a.specs == b.specs
    for fname in a.specs:
        assert (a.input_dir / fname).read_bytes() == (b.input_dir / fname).read_bytes()
    assert c.inputs_digest() != a.inputs_digest()


@pytest.mark.parametrize("workload", SEEDED)
def test_other_seed_passes_the_output_check(bench, workload):
    run, cli = bench
    wl = workloads.make(workload, 12, run.OUT / "inputs")
    ledger = run.Ledger(wl)
    for index in range(len(wl.passes)):
        ledger.record(run.run_pass(cli, wl, index))
    assert ledger.failed == 0, ledger.problems
    assert ledger.accuracy > 0.0


def test_output_check_rejects_a_changed_value(bench):
    run, cli = bench
    wl = workloads.make("sweep_piecewise", 12, run.OUT / "inputs")
    [(cmd, rc, out, _)] = run.run_pass(cli, wl, 0)
    payload = json.loads(out)
    payload["rows"][-1]["distortion"] *= 1.0 + 1e-6
    check = workloads.check(wl, cmd, rc, json.dumps(payload), run.Ledger(wl).reference)
    assert any("distortion" in p for p in check.problems)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_runs_repeat_and_match_untraced_stdout(workload):
    # each traced run also compares traced with untraced stdout byte for byte
    first, record = _traced_run(workload, 11)
    second, _ = _traced_run(workload, 11)
    assert first["correct"] and second["correct"], record["problems"]
    exact = [name for name, m in first["metrics"].items() if m["unit"] in ("count", "ratio")]
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}
    calls = first["metrics"]["quadrature.integrate.calls"]["value"]
    assert (calls > 0) == (workload == "sweep_smooth")


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_reference_gap_is_positive(workload, tmp_path):
    # accuracy_err divides by these gaps
    for variant, entry in workloads.load_reference(workload).items():
        wl = workloads.make(workload, int(variant), tmp_path)
        for parsed in entry["outputs"].values():
            assert workloads.accuracy_gap(wl, parsed) > 0.0

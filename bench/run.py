"""Closed-loop benchmark of the renyiquant command line.

Run from the repository root:

    python3 bench/run.py --workload sweep_piecewise --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 25

One client sends one CLI command at a time, in process, through
``renyiquant.cli.main(argv)`` with stdout captured, and sends the next only
after the previous returns.  A pass is the workload's list of commands; a new
pass starts while it should still end within ``--seconds``.  Every command's
output is checked against the reference recorded from the seed commit.  The
process pins itself to one CPU and times a fixed calibration loop beside
every command, so the gated time (``wall_cal``) is steady when the host's CPU
speed swings.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass and prints the per-layer metrics.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Run records and span files go to ``.bench_out/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads.  QUANT_THREADS selects the sweep code path; BLAS
# threads would let numpy's matrix products compete with the client thread.
THREAD_ENV = {"QUANT_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5
WARMUP_POLICY = ("set-up: one untimed fresh interpreter to fill the bytecode cache, then "
                 f"{SETUP_RUNS} timed; passes: none untimed, every pass is timed")

# (name, unit, better) of the end-to-end metrics in the final JSON of a
# --trace 0 run, as listed in BENCHMARK.json.
END_TO_END = [
    ("wall_cal", "cal", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("accuracy_err", "ratio", "lower"),
]
# Printed too, but not gated: on a shared host the speed of a CPU swings by up
# to 1.8x for seconds to minutes at a time, which moves these by up to 50%
# between runs.  fail_ratio is 0 on correct code, so the final JSON carries
# it as its failed and attempted counts.
PRINTED_ONLY = [("wall_s", "s", "lower"), ("wall_s.tail", "s", "lower"),
                ("work_per_s", "1/s", "higher")]
CALIBRATION_LOOPS = 300_000
CALIBRATION_RUNS = 5


def _give_up(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    """Import the CLI from ./src; exit 2 without a result when it is not there."""
    if not (SRC / "renyiquant" / "cli.py").is_file():
        _give_up("src/renyiquant not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    import renyiquant.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "renyiquant").resolve():
        _give_up(f"renyiquant was imported from {cli.__file__}, not from ./src")
    return cli


def run_pass(cli, wl, index, after_each=None):
    """Run one pass; returns (command, exit code, stdout, seconds) per command.

    A command that raises gets the exception text as its exit code.
    ``after_each`` is called after every command, outside its timing.
    """
    results = []
    for cmd in wl.commands(index):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(cmd.argv))
            except Exception as exc:  # noqa: BLE001 - a crash fails the operation, not the run
                rc = f"{type(exc).__name__}: {exc}"
        results.append((cmd, rc, out.getvalue(), time.perf_counter() - start))
        if after_each is not None:
            after_each()
    return results


class Ledger:
    """Operation counts, output problems and the accuracy gaps of a run.

    ``accuracy`` is the largest ratio of a command's accuracy gap to the seed
    commit's gap on the same input, so it is 1 on the seed commit for every
    seed; ``gap`` is the largest gap itself.
    """

    def __init__(self, wl):
        self.wl = wl
        self.reference = workloads.load_reference(wl.name)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.accuracy = 0.0
        self.gap = 0.0

    def record(self, results, extra_problems=None):
        for (cmd, rc, out, _), extra in zip(results, extra_problems or [[]] * len(results)):
            check = workloads.check(self.wl, cmd, rc, out, self.reference)
            problems = check.problems + list(extra)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append({"command": cmd.key, "problems": problems})
            if check.reference_gap > 0.0:
                self.accuracy = max(self.accuracy, check.gap / check.reference_gap)
            self.gap = max(self.gap, check.gap)


def measure_setup(wl):
    """Wall time of fresh interpreters that import the CLI and build the inputs."""
    code = "import json, sys\nsys.path.insert(0, 'src')\nimport renyiquant.cli\n" + wl.setup_code
    argv = [sys.executable, "-c", code, str(wl.input_dir)]
    times = []
    for k in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - start)
    return times


def tail(samples):
    """Highest percentile with at least ten samples beyond it, and its label.

    Below 21 samples no percentile above the median qualifies, and the
    maximum is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 20:
        return xs[-1], f"p100, the maximum: no percentile above the median of {n} samples " \
                       "has 10 beyond it"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.0f} of {n} samples"


def environment(seed, wl):
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "renyiquant").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__, "commit": commit,
        "src_sha256": digest.hexdigest(), "seed": seed, "input_variant": wl.variant,
        "thread_env": THREAD_ENV, "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "warmup": WARMUP_POLICY, "client": "one closed-loop client",
    }


def calibrate():
    """Mean time of CALIBRATION_RUNS runs of a fixed pure-Python loop, in seconds."""
    start = time.perf_counter()
    for _ in range(CALIBRATION_RUNS):
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i
    return (time.perf_counter() - start) / CALIBRATION_RUNS


def end_to_end(cli, wl, seconds):
    ledger = Ledger(wl)
    setup = measure_setup(wl)
    times, in_cal, work = [], [], 0
    cals = [calibrate()]
    begin = time.perf_counter()
    # start a pass only if it should end in time, judged by the previous pass
    while not times or time.perf_counter() - begin + times[-1] <= seconds:
        results = run_pass(cli, wl, len(times), lambda: cals.append(calibrate()))
        times.append(sum(r[3] for r in results))
        # each command over the mean of the calibrations just before and after it
        k = len(results)
        in_cal.append(sum(r[3] / (0.5 * (a + b))
                          for r, a, b in zip(results, cals[-k - 1:-1], cals[-k:])))
        work += sum(r[0].work for r in results)
        ledger.record(results)
    tail_value, tail_label = tail(times)
    values = {
        "wall_s": statistics.median(times),
        "wall_s.tail": tail_value,
        "work_per_s": work / sum(times),
        "wall_cal": statistics.median(in_cal),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_err": ledger.accuracy,
    }
    notes = {
        "wall_s": f"median of {len(times)} passes",
        "wall_s.tail": tail_label,
        "work_per_s": f"{wl.work_unit} per second",
        "wall_cal": f"median of {len(times)} passes, each command over the calibration "
                    f"loop time beside it (median {statistics.median(cals) * 1e3:.3g} ms)",
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
        "peak_rss_mb": "peak resident set of this process",
        "accuracy_err": f"largest gap over the seed commit's on the same input; "
                        f"largest gap {ledger.gap:.6g}: {wl.accuracy_meaning}",
    }
    detail = {"pass_seconds": times, "calibration_seconds": cals, "setup_seconds": setup}
    return ledger, values, notes, detail


def traced(cli, wl, seed):
    import spans

    ledger = Ledger(wl)
    plain = run_pass(cli, wl, 0)
    tracer = spans.Tracer()
    with tracer:
        with_spans = run_pass(cli, wl, 0)
    ledger.record(plain)
    ledger.record(with_spans, [[] if a[2] == b[2] else ["traced stdout differs from untraced"]
                               for a, b in zip(plain, with_spans)])
    values = tracer.metrics()
    values["trace.overhead_s"] = sum(r[3] for r in with_spans) - sum(r[3] for r in plain)
    span_file = OUT / f"spans-{wl.name}-seed{seed}.npz"
    tracer.write(span_file)
    notes = {name: f"base {spans.RATIO_BASES[name]}" for name in spans.RATIO_BASES}
    detail = {"span_file": str(span_file.relative_to(ROOT)),
              "untraced_pass_s": sum(r[3] for r in plain)}
    return ledger, values, notes, detail, spans.LAYER_METRICS


def run_one(args) -> int:
    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    # passes and the calibration loop beside them share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = workloads.make(args.workload, args.seed, OUT / "inputs")
    if args.trace:
        ledger, values, notes, detail, table = traced(cli, wl, args.seed)
        printed = table
    else:
        ledger, values, notes, detail = end_to_end(cli, wl, args.seconds)
        table = END_TO_END
        printed = PRINTED_ONLY + END_TO_END
    env = environment(args.seed, wl)
    print(f"# renyiquant benchmark: workload={wl.name} seed={args.seed} "
          f"variant={wl.variant} seconds={args.seconds:g} trace={args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, unit, _ in printed:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<40} {values[name]:>16.6g} {unit}{note}")
    if not args.trace:
        print(f"{'fail_ratio':<40} {ledger.failed / ledger.attempted:>16.6g} ratio"
              f"  ({ledger.failed} failed of {ledger.attempted} operations)")
    for entry in ledger.problems:
        print(f"# check failed: {entry['command']}: {'; '.join(entry['problems'])}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in table}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record = dict(result, workload=wl.name, trace=args.trace, environment=env,
                  problems=ledger.problems, detail=detail)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; one table of every metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

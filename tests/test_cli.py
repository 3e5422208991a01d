import json
import math
from pathlib import Path

import numpy as np
import pytest

import renyiquant.cli as cli
import renyiquant.compander
from renyiquant import MonotonicityError
from renyiquant.cli import ConvergenceReport, SweepRequest, main


@pytest.fixture
def density_file(tmp_path):
    path = tmp_path / "two_mass.json"
    path.write_text(json.dumps({
        "kind": "piecewise",
        "breakpoints": [0.0, 0.5, 1.0],
        "heights": [0.5, 1.5],
    }))
    return str(path)


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({
        "density": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "grid": list(np.linspace(0.0, 1.0, 13)),
        "max_cells": 4,
    }))
    return str(path)


def run_cli(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr().out
    return rc, out


def test_predict_prints_the_limit(capsys, density_file):
    rc, out = run_cli(capsys, "predict", "--density", density_file,
                      "--alpha", "0.5", "--r", "2")
    assert rc == 0
    assert out == "value=0.0706763117831\nregime=finite\nrate_exponent=2\n"


def test_predict_dispatches_high_orders(capsys, density_file):
    rc, out = run_cli(capsys, "predict", "--density", density_file,
                      "--alpha", "3.5", "--r", "2")
    assert rc == 0
    assert "regime=high" in out
    assert "rate_exponent=2.14285714286" in out


def test_predict_regime_failure_exits_two(capsys, density_file):
    rc, _ = run_cli(capsys, "predict", "--density", density_file,
                    "--alpha", "1", "--r", "0.5")
    assert rc == 2


def test_parse_failures_exit_three(capsys, tmp_path, density_file):
    rc, _ = run_cli(capsys, "predict", "--density", str(tmp_path / "nope.json"),
                    "--alpha", "1", "--r", "2")
    assert rc == 3
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    rc, _ = run_cli(capsys, "predict", "--density", str(broken),
                    "--alpha", "1", "--r", "2")
    assert rc == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "bogus"}))
    rc, _ = run_cli(capsys, "predict", "--density", str(bad),
                    "--alpha", "1", "--r", "2")
    assert rc == 3


def test_usage_errors_surface_argparse_code(capsys):
    assert main(["predict"]) == 2
    capsys.readouterr()


def test_design_emits_a_quantizer(capsys, density_file):
    rc, out = run_cli(capsys, "design", "--density", density_file,
                      "--alpha", "0.5", "--r", "2", "--levels", "8")
    assert rc == 0
    payload = json.loads(out)
    assert payload["levels"] == 8
    assert len(payload["codepoints"]) == 8
    assert payload["boundaries"][0] == 0.0 and payload["boundaries"][-1] == 1.0
    rc2, out2 = run_cli(capsys, "design", "--density", density_file,
                        "--alpha", "0.5", "--r", "2", "--levels", "8")
    assert out2 == out


def test_design_rejects_top_order(capsys, density_file):
    rc, _ = run_cli(capsys, "design", "--density", density_file,
                    "--alpha", "pos_inf", "--r", "2", "--levels", "8")
    assert rc == 2


def test_sweep_csv_schema(capsys, density_file):
    rc, out = run_cli(capsys, "sweep", "--density", density_file,
                      "--alpha", "0.5", "--r", "2", "--levels", "16,32")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,entropy,distortion,normalized"
    assert lines[-1] == "# predicted=0.0706763117831"
    assert len(lines) == 4
    for line, n in zip(lines[1:3], (16, 32)):
        cells = line.split(",")
        assert cells[0] == str(n)
        assert all(float(c) > 0 for c in cells[1:])


def test_sweep_is_deterministic(capsys, density_file):
    args = ("sweep", "--density", density_file, "--alpha", "0.5", "--r", "2",
            "--levels", "16,32,64")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_sweep_levels_normalization(capsys, density_file):
    rc, out = run_cli(capsys, "sweep", "--density", density_file,
                      "--alpha", "0.5", "--r", "2", "--levels", "16",
                      "--normalization", "levels", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["normalized"] == pytest.approx(16.0 ** 2 * row["distortion"],
                                              rel=1e-10)


def test_sweep_json_report(capsys, density_file):
    rc, out = run_cli(capsys, "sweep", "--density", density_file,
                      "--alpha", "0.5", "--r", "2", "--levels", "16,64",
                      "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert [row["N"] for row in payload["rows"]] == [16, 64]
    assert payload["predicted"] == pytest.approx(0.070676311783117279, rel=1e-11)
    assert payload["final_relative_deviation"] < 0.02


def test_sweep_marks_failing_rows(capsys, density_file, monkeypatch):
    real = renyiquant.compander.Compander.build

    def flaky(self, n):
        if n == 24:
            raise ValueError("synthetic failure")
        return real(self, n)

    monkeypatch.setattr(renyiquant.compander.Compander, "build", flaky)
    rc, out = run_cli(capsys, "sweep", "--density", density_file,
                      "--alpha", "0.5", "--r", "2", "--levels", "16,24,32")
    assert rc == 2
    lines = out.strip().split("\n")
    assert "24,error,error,error" in lines
    assert any(line.startswith("16,") and "error" not in line for line in lines)


def test_sweep_request_validation():
    with pytest.raises(ValueError):
        SweepRequest({}, None, 2.0, (4, 2), None, "csv")
    with pytest.raises(ValueError):
        SweepRequest({}, None, 2.0, (2, 4), None, "yaml")
    with pytest.raises(ValueError):
        ConvergenceReport(((4, 1.0, 0.1, 0.5), (2, 1.0, 0.1, 0.5)), 0.5, 0.0)
    with pytest.raises(ValueError):
        ConvergenceReport(((2, 1.0, 0.1, -0.5),), 0.5, 0.0)


def test_oracle_baseline_round_trip(capsys, tmp_path, instance_file):
    out_path = tmp_path / "baseline.json"
    rc, _ = run_cli(capsys, "oracle", "--instance", instance_file,
                    "--alpha", "neg_inf,-2,0,0.5,pos_inf",
                    "--rate", str(math.log(2.0)), "--r", "2",
                    "--out", str(out_path))
    assert rc == 0
    payload = json.loads(out_path.read_text())
    values = [row["value"] for row in payload["profile"]]
    assert values == sorted(values, reverse=True)
    assert payload["profile"][0]["alpha"] == "neg_inf"
    assert values[0] == pytest.approx(1.0 / 48.0, rel=1e-11)
    first = out_path.read_text()
    run_cli(capsys, "oracle", "--instance", instance_file,
            "--alpha", "neg_inf,-2,0,0.5,pos_inf",
            "--rate", str(math.log(2.0)), "--r", "2", "--out", str(out_path))
    assert out_path.read_text() == first


def test_oracle_monotonicity_violation_exits_four(capsys, instance_file,
                                                  monkeypatch):
    def broken(*args, **kwargs):
        raise MonotonicityError("synthetic violation")

    monkeypatch.setattr(cli, "alpha_profile", broken)
    rc, _ = run_cli(capsys, "oracle", "--instance", instance_file,
                    "--alpha", "0,1", "--rate", "0.7", "--r", "2")
    assert rc == 4


def test_verify_passes_on_a_clean_tree(capsys):
    rc, out = run_cli(capsys, "verify")
    assert rc == 0
    assert "12/12 suites passed" in out
    assert out.count("PASS") == 12


def test_verify_json_lists_every_suite(capsys):
    rc, out = run_cli(capsys, "verify", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["suites"]) == 12
    names = {suite["name"] for suite in payload["suites"]}
    assert "bennett_integral" in names and "oracle_monotonicity" in names


def test_verify_stdout_matches_the_golden_file(capsys):
    # every suite's worst slack at full precision, recorded before the suites
    # were batched: the batched suites must reproduce it bit for bit
    rc, out = run_cli(capsys, "verify", "--format", "json")
    assert rc == 0
    assert out == (Path(__file__).parent / "data" / "verify_stdout.json").read_text()


def test_verify_catches_a_perturbed_constant(capsys, monkeypatch):
    real = renyiquant.compander.distortion_constant
    monkeypatch.setattr(renyiquant.compander, "distortion_constant",
                        lambda r: real(r) * 1.01)
    rc, out = run_cli(capsys, "verify")
    assert rc == 1
    assert "FAIL bennett_integral" in out


GOLDEN_INSTANCE = {
    "density": {"kind": "piecewise", "breakpoints": [0.0, 0.25, 0.6, 1.0],
                "heights": [0.4, 1.8, 0.675]},
    "grid": [0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
    "max_cells": 5,
}


def test_oracle_stdout_matches_the_golden_file(capsys, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(GOLDEN_INSTANCE))
    rc, out = run_cli(capsys, "oracle", "--instance", str(path),
                      "--alpha", "neg_inf,-2,-1,0,0.5,1,2,pos_inf",
                      "--rate", "1.2", "--r", "2")
    assert rc == 0
    golden = Path(__file__).parent / "data" / "oracle_ladder_stdout.json"
    assert out == golden.read_text()


# the printed output of these commands is fixed; the sweep's cells straddle
# the nine segments' breakpoints at every level count
GOLDEN_PIECEWISE = {
    "kind": "piecewise",
    "breakpoints": [0.0, 0.07, 0.19, 0.3, 0.42, 0.55, 0.61, 0.78, 0.9, 1.0],
    "heights": [0.4005340453938584, 1.4018691588785046, 0.8678237650200266,
                0.26702269692923897, 2.002670226969292, 1.1348464619492655,
                0.6008010680907876, 1.6021361815754336, 0.5340453938584779],
}
GOLDEN_GAUSS = {"kind": "truncated_gauss", "mean": 0.4, "sigma": 0.3, "lo": 0.0, "hi": 1.0}
# the kink at the center is interior, and at r = 1.5 the cells refine deeply
# next to each codepoint
GOLDEN_LAPLACE = {"kind": "truncated_laplace", "center": 0.45, "scale": 0.3, "lo": 0.0, "hi": 1.0}


@pytest.mark.parametrize("spec, args, golden", [
    (GOLDEN_PIECEWISE,
     ("sweep", "--alpha", "0.5", "--r", "2",
      "--levels", "1,2,3,5,8,16,32,64,128,256,512,1000,1024,2048,4096"),
     "sweep_piecewise_stdout.csv"),
    (GOLDEN_GAUSS,
     ("sweep", "--alpha", "0.5", "--r", "1.5", "--levels", "4,16,64,256", "--format", "json"),
     "sweep_gauss_stdout.json"),
    (GOLDEN_PIECEWISE,
     ("design", "--alpha", "0.5", "--r", "3", "--levels", "33"),
     "design_piecewise_stdout.json"),
    (GOLDEN_LAPLACE,
     ("sweep", "--alpha", "-2", "--r", "1.5", "--levels", "3,16,64,256", "--format", "csv"),
     "sweep_laplace_stdout.csv"),
])
def test_stdout_matches_the_golden_file(capsys, tmp_path, spec, args, golden):
    path = tmp_path / "density.json"
    path.write_text(json.dumps(spec))
    rc, out = run_cli(capsys, args[0], "--density", str(path), *args[1:])
    assert rc == 0
    assert out == (Path(__file__).parent / "data" / golden).read_text()


def test_a_sweep_without_a_design_marks_every_row(capsys, tmp_path):
    # no companding optimum at alpha >= 1 + r: every row carries the same error
    path = tmp_path / "density.json"
    path.write_text(json.dumps(GOLDEN_PIECEWISE))
    rc, out = run_cli(capsys, "sweep", "--density", str(path), "--alpha", "3.5", "--r", "2",
                      "--levels", "1,2,16,1024", "--format", "json")
    assert rc == 2
    assert out == (Path(__file__).parent / "data" / "sweep_high_order_stdout.json").read_text()


def test_sweep_designs_its_point_density_once(capsys, density_file, monkeypatch):
    calls = []
    real = cli.optimal_point_density

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "optimal_point_density", counted)
    rc, _ = run_cli(capsys, "sweep", "--density", density_file,
                    "--alpha", "0.5", "--r", "2", "--levels", "16,24,32")
    assert rc == 0
    assert len(calls) == 1

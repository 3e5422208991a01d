import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

import renyiquant.cli as cli
import renyiquant.compander
import renyiquant.design
from renyiquant import MonotonicityError
from renyiquant.cli import ConvergenceReport, SweepRequest, main

from time_limit import time_limit


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


_PIECEWISE = {"kind": "piecewise", "breakpoints": [0.0, 0.5, 1.0], "heights": [0.5, 1.5]}


@pytest.mark.parametrize("command, spec, message", [
    ("oracle", [_PIECEWISE], "instance spec must be an object"),
    ("oracle", {"density": _PIECEWISE, "max_cells": 2}, "missing field 'grid'"),
    ("oracle", {"density": _PIECEWISE, "grid": [0.0], "max_cells": 1}, "at least two points"),
    ("oracle", {"density": _PIECEWISE, "grid": [0.0, 0.5, 0.5, 1.0], "max_cells": 2},
     "strictly increasing"),
    ("oracle", {"density": _PIECEWISE, "grid": [0.0, 0.5, 1.0], "max_cells": 3},
     "max_cells exceeds"),
    ("predict", [_PIECEWISE], "density spec must be an object"),
    ("predict", {"kind": "truncated_gauss", "mean": 0.5, "lo": 0.0, "hi": 1.0},
     "missing field 'sigma'"),
    ("predict", {"kind": "truncated_gauss", "mean": 0.5, "sigma": 0.0, "lo": 0.0, "hi": 1.0},
     "sigma must be positive"),
    ("predict", {"kind": "truncated_laplace", "center": 0.5, "scale": -1.0, "lo": 0.0, "hi": 1.0},
     "scale must be positive"),
], ids=["instance_not_an_object", "no_grid", "one_point_grid", "repeated_grid_point",
        "too_many_cells", "density_not_an_object", "no_sigma", "zero_sigma", "negative_scale"])
def test_a_bad_spec_exits_three_with_empty_stdout(capsys, tmp_path, command, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    if command == "oracle":
        args = ["oracle", "--instance", str(path), "--alpha", "0.5", "--rate", "1", "--r", "2"]
    else:
        args = ["predict", "--density", str(path), "--alpha", "0.5", "--r", "2"]
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert message in captured.err


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


@pytest.mark.parametrize("levels, message", [((0, 2), "levels must be positive integers"),
                                             ((4, 2), "levels must be strictly increasing")])
def test_sweep_levels_get_one_check_and_message(capsys, density_file, levels, message):
    with pytest.raises(ValueError, match=message):
        SweepRequest({}, None, 2.0, levels, None, "csv")
    rc = main(["sweep", "--density", density_file, "--alpha", "0.5", "--r", "2",
               "--levels", ",".join(map(str, levels))])
    assert rc == 2
    assert message in capsys.readouterr().err


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


def test_oracle_nan_rate_exits_two_naming_the_rate(capsys, instance_file):
    rc = main(["oracle", "--instance", instance_file, "--alpha", "0,0.5",
               "--rate", "nan", "--r", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "rate" in captured.err and "nan" in captured.err
    assert "entropy budget" not in captured.err


def test_oracle_refuses_a_smooth_instance_density(capsys, tmp_path):
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps({
        "density": {"kind": "truncated_gauss", "mean": 0.5, "sigma": 0.3, "lo": 0.0, "hi": 1.0},
        "grid": [0.0, 0.5, 1.0],
        "max_cells": 2,
    }))
    rc = main(["oracle", "--instance", str(path), "--alpha", "0.5", "--rate", "1", "--r", "2"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "piecewise-constant density" in captured.err


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


def test_verify_text_stdout_matches_the_golden_file(capsys):
    # the rounded text form, which is what the benchmark reads, recorded
    # before the many-candidate scores and the list-form composed entropies
    rc, out = run_cli(capsys, "verify")
    assert rc == 0
    assert out == (Path(__file__).parent / "data" / "verify_stdout.txt").read_text()


def _spec_file(tmp_path, spec):
    path = tmp_path / "density.json"
    path.write_text(json.dumps(spec))
    return str(path)


FAR_LAPLACE = {"kind": "truncated_laplace", "center": 0.5, "scale": 1e-3, "lo": 0.0, "hi": 1.0}
FAR_GAUSS = {"kind": "truncated_gauss", "mean": 0.0, "sigma": 1.0, "lo": 30.0, "hi": 31.0}


@pytest.mark.parametrize("spec, alpha, r", [(FAR_LAPLACE, "-2", "7.5"), (FAR_GAUSS, "-50", "40")])
def test_predict_refuses_a_limit_past_the_float_range(capsys, tmp_path, spec, alpha, r):
    # C(r) * (integral of f**a1)**a2 overflows, even in logs; it used to escape as OverflowError
    rc = main(["predict", "--density", _spec_file(tmp_path, spec), "--alpha", alpha, "--r", r])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: the predicted limit inf is not a positive normal float")


def test_predict_at_the_top_order_takes_the_laplace_peak(capsys, tmp_path):
    # C(3) / peak**3, to the 12 printed digits of the 50-digit value
    spec = {"kind": "truncated_laplace", "center": 0.45, "scale": 0.3, "lo": 0.0, "hi": 1.0}
    rc, out = run_cli(capsys, "predict", "--density", _spec_file(tmp_path, spec),
                      "--alpha", "pos_inf", "--r", "3")
    with mpmath.workdps(50):
        c, s = mpmath.mpf(0.45), mpmath.mpf(0.3)
        peak = 1 / (2 * s * (1 - mpmath.exp(-c / s) / 2 - mpmath.exp((c - 1) / s) / 2))
        exact = 1 / (4 * 2**3 * peak**3)
    assert rc == 0
    assert out.splitlines()[0] == f"value={float(exact):.12g}" == "value=0.00356726903205"


def test_a_design_whose_power_integral_cannot_converge_ends(capsys, tmp_path):
    # the pdf underflows towards both ends of the support; adaptive
    # refinement with an absolute tolerance ran on for minutes here
    spec = {"kind": "truncated_gauss", "mean": 928.2188125461596, "sigma": 40.83788701536796,
            "lo": -1000.0, "hi": 6288.709361311061}
    with time_limit(30.0):
        rc = main(["design", "--density", _spec_file(tmp_path, spec), "--alpha", "-29.021",
                   "--r", "1.989", "--levels", "236"])
    captured = capsys.readouterr()
    assert rc in (0, 2)
    if rc == 2:
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")


def test_sweep_takes_the_entropy_scale_in_logs_where_it_overflows(capsys, tmp_path):
    # e**(40 H) overflows from N = 64 on, while e**(40 H) * D stays near 1e263
    rc, out = run_cli(capsys, "sweep", "--density", _spec_file(tmp_path, FAR_GAUSS),
                      "--alpha", "-2", "--r", "40", "--levels", "16,64,256,1024")
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[1:-1]]
    assert [row[0] for row in rows] == ["16", "64", "256", "1024"]
    assert all(math.isfinite(float(x)) for row in rows for x in row[1:])
    predicted = float(out.splitlines()[-1].split("=")[1])
    assert float(rows[-1][3]) == pytest.approx(predicted, rel=0.05)


def test_sweep_rows_whose_product_leaves_the_float_range_are_error_rows(monkeypatch):
    f = cli.density_from_spec({"kind": "uniform", "lo": 0.0, "hi": 1.0})
    req = SweepRequest({}, cli.RenyiOrder(0.5), 2.0, (2, 4), None, "csv")
    # an entropy of 800 nats: e**(2H) * D is about 1e695, past the float range
    monkeypatch.setattr(renyiquant.design, "renyi_entropy", lambda masses, alpha: 800.0)
    report, errors = cli.run_sweep(req, f)
    assert report.rows == ()
    assert errors == [(n, f"the normalized distortion at N = {n} leaves the float range")
                      for n in (2, 4)]


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
# the kink at the center is interior, and at r = 1.5 each cell's pieces at
# its codepoint take Gauss rules whose weight is |x - c|**1.5, singular there
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


def test_sweep_builds_its_density_once(capsys, tmp_path, monkeypatch):
    calls = []
    real = cli.density_from_spec

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(cli, "density_from_spec", counted)
    path = tmp_path / "density.json"
    path.write_text(json.dumps(GOLDEN_GAUSS))
    rc, _ = run_cli(capsys, "sweep", "--density", str(path), "--alpha", "0.5", "--r", "2",
                    "--levels", "4,8")
    assert rc == 0
    assert calls == [GOLDEN_GAUSS]
    # a spec that does not build still exits 3, with nothing on stdout
    path.write_text(json.dumps({"kind": "truncated_gauss", "mean": 0.5, "sigma": 0.0,
                                "lo": 0.0, "hi": 1.0}))
    rc = main(["sweep", "--density", str(path), "--alpha", "0.5", "--r", "2", "--levels", "4"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "sigma must be positive" in captured.err


def test_smooth_design_stdout_matches_the_golden_file(capsys, tmp_path):
    # design_compander's smooth path, recorded before the smooth pdfs took arrays
    path = tmp_path / "density.json"
    path.write_text(json.dumps(GOLDEN_LAPLACE))
    rc, out = run_cli(capsys, "design", "--density", str(path), "--alpha", "-2", "--r", "1.5",
                      "--levels", "24")
    assert rc == 0
    assert out == (Path(__file__).parent / "data" / "design_laplace_stdout.json").read_text()


@pytest.mark.parametrize("spec, args, golden", [
    (GOLDEN_GAUSS, ("--alpha", "0.5", "--r", "1.5", "--levels", "4,16,64,256", "--format", "json"),
     "sweep_gauss_stdout.json"),
    (GOLDEN_LAPLACE, ("--alpha", "-2", "--r", "1.5", "--levels", "3,16,64,256", "--format", "csv"),
     "sweep_laplace_stdout.csv"),
], ids=["gauss", "laplace"])
def test_smooth_sweeps_call_no_scalar_pdf_per_point(capsys, tmp_path, no_scalar_pdf, spec, args,
                                                    golden):
    # every integrand of a smooth sweep runs on the array form of its pdf
    path = tmp_path / "density.json"
    path.write_text(json.dumps(spec))
    rc, out = run_cli(capsys, "sweep", "--density", str(path), *args)
    assert rc == 0
    assert out == (Path(__file__).parent / "data" / golden).read_text()


def test_predict_at_order_one_calls_no_scalar_pdf(capsys, tmp_path, request):
    # the log integral of a smooth density takes its pdf over arrays
    path = tmp_path / "density.json"
    path.write_text(json.dumps(GOLDEN_GAUSS))
    args = ("predict", "--density", str(path), "--alpha", "1", "--r", "2")
    expected = run_cli(capsys, *args)
    request.getfixturevalue("no_scalar_pdf")
    assert run_cli(capsys, *args) == expected
    assert expected[0] == 0


def test_the_parser_is_built_once_per_process(capsys, density_file):
    cli.build_parser.cache_clear()
    args = ("predict", "--density", density_file, "--alpha", "0.5", "--r", "2")
    first, second = run_cli(capsys, *args), run_cli(capsys, *args)
    assert cli.build_parser.cache_info().misses == 1
    assert first == second and first[0] == 0


def test_a_huge_level_count_is_refused_before_allocating(capsys, density_file):
    # 10**12 levels would need terabytes: a one-line error and exit code 2
    rc = main(["design", "--density", density_file, "--alpha", "0.5", "--r", "2",
               "--levels", "1000000000000"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("error: 1000000000000 levels is more than "
                            "MAX_UNIFORM_LEVELS = 1048576\n")
    sweep = ("sweep", "--density", density_file, "--alpha", "0.5", "--r", "2", "--levels")
    rc, out = run_cli(capsys, *sweep, "16,1000000000000")
    assert rc == 2
    # the row that can be built is the one a sweep of it alone prints
    rows = run_cli(capsys, *sweep, "16")[1].splitlines()
    assert out.splitlines() == [*rows[:2], "1000000000000,error,error,error", rows[2]]


@pytest.mark.parametrize("argv, message", [
    (["predict", "--alpha", "half", "--r", "2"],
     "argument --alpha: cannot parse entropy order 'half'"),
    (["sweep", "--alpha", "0.5", "--r", "2", "--levels", "4,eight"],
     "argument --levels: bad level list '4,eight'"),
])
def test_a_bad_option_text_exits_two_with_its_message(capsys, density_file, argv, message):
    assert main([*argv, "--density", density_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_a_sweep_request_refuses_an_unknown_normalization():
    with pytest.raises(ValueError, match="unknown normalization 'bits'"):
        SweepRequest({}, None, 2.0, (2, 4), None, "csv", "bits")


TINY_UNIFORM = {"kind": "uniform", "lo": 0.0, "hi": 1e-8}
TINY_GAUSS = {"kind": "truncated_gauss", "mean": 0.0, "sigma": 1e-9, "lo": -1e-8, "hi": 1e-8}


@pytest.mark.parametrize("command, spec", [("predict", TINY_UNIFORM), ("sweep", TINY_UNIFORM),
                                           ("sweep", TINY_GAUSS)])
def test_a_limit_that_underflows_exits_two(capsys, tmp_path, command, spec):
    # the limit scales as the width**40: predict printed value=0 and a sweep
    # divided by it, ending in a ZeroDivisionError
    levels = ["--levels", "4,8"] if command == "sweep" else []
    rc = main([command, "--density", _spec_file(tmp_path, spec), "--alpha", "0.5", "--r", "40",
               *levels])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: the predicted limit 0.0 is not a positive normal float")


UNIT_UNIFORM = {"kind": "uniform", "lo": 0.0, "hi": 1.0}
WIDE_UNIFORM = {"kind": "uniform", "lo": 0.0, "hi": 1e10}


def _one_error_line(capsys, tmp_path, command, spec, alpha, r):
    """The one stderr line of a command that must exit 2 and print nothing."""
    levels = {"predict": [], "design": ["--levels", "4"], "sweep": ["--levels", "4,8"]}[command]
    rc = main([command, "--density", _spec_file(tmp_path, spec), "--alpha", alpha, "--r", r,
               *levels])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return lines[0]


@pytest.mark.parametrize("command", ["predict", "design", "sweep"])
def test_a_distortion_constant_past_the_float_range_exits_two(capsys, tmp_path, command):
    # 2**1100 in C(r) raised OverflowError: exit 1 with a traceback
    line = _one_error_line(capsys, tmp_path, command, UNIT_UNIFORM, "0.5", "1100")
    assert line == "error: the distortion constant 1 / ((1 + r) * 2**r) underflows at r = 1100.0"


@pytest.mark.parametrize("command", ["predict", "design", "sweep"])
def test_a_shannon_limit_past_the_float_range_exits_two(capsys, tmp_path, command):
    # C(40) * e**(40 * log 1e10) is about 1e386; math.exp raised OverflowError
    line = _one_error_line(capsys, tmp_path, command, WIDE_UNIFORM, "1", "40")
    assert line.startswith("error: the predicted limit inf is not a positive normal float")


@pytest.mark.parametrize("command", ["predict", "sweep"])
def test_a_high_order_limit_past_the_float_range_exits_two(capsys, tmp_path, command):
    # C(40) / (1e-10)**40 is about 2e386; the power raised OverflowError
    line = _one_error_line(capsys, tmp_path, command, WIDE_UNIFORM, "50", "40")
    assert line.startswith("error: the predicted limit inf is not a positive normal float")


def test_a_negative_infinite_order_limit_past_the_float_range_exits_two(capsys, tmp_path):
    # C(40) * (1e10)**40 is about 2e386; numpy's overflow warning came before the error
    line = _one_error_line(capsys, tmp_path, "predict", WIDE_UNIFORM, "neg_inf", "40")
    assert line.startswith("error: the predicted limit inf is not a positive normal float")


@pytest.mark.parametrize("alpha", ["neg_inf", "-2", "0.5", "1", "2", "pos_inf"])
def test_every_order_of_a_wide_uniform_source_prints_its_limit(capsys, tmp_path, alpha):
    # C(31) * (1e10)**31 at every order; the finite orders refused it as an
    # overflowing power, and -inf overflowed its integral
    rc = main(["predict", "--density", _spec_file(tmp_path, WIDE_UNIFORM), "--alpha", alpha,
               "--r", "31"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert captured.out.splitlines()[0] == "value=1.45519152284e+299"


def test_sweep_rows_whose_distortion_underflows_are_error_rows(capsys, tmp_path):
    # the limit, 8.33e-302, is normal, but the distortion underflowed to 0
    # and the report refused it as "normalized values must be positive"
    spec = {"kind": "uniform", "lo": 0.0, "hi": 1e-150}
    rc, out = run_cli(capsys, "sweep", "--density", _spec_file(tmp_path, spec), "--alpha", "0.5",
                      "--r", "2", "--levels", "4,8", "--format", "json")
    assert rc == 2
    rows = json.loads(out)["rows"]
    assert [row["N"] for row in rows] == [4, 8]
    assert all(row["error"].startswith("the distortion 0.0 is not a positive normal float")
               for row in rows)


@pytest.mark.parametrize("sigma, alpha, message", [
    # the limit is 0.00134431597219; integral of f**200 read 1.7e-322, not 2.17e178
    (0.05, "2.9801", "power integral of order 200.00502512563008 misses the peak"),
    # the limit is 1.2809601334e-05; integral of f log f read 0, giving C(2) as if uniform
    (0.003, "1", "the integral of pdf * log(pdf) misses the peak"),
])
def test_predict_refuses_an_integral_that_misses_a_narrow_peak(capsys, tmp_path, sigma, alpha,
                                                                message):
    spec = {"kind": "truncated_gauss", "mean": 0.5, "sigma": sigma, "lo": 0.0, "hi": 1.0}
    rc = main(["predict", "--density", _spec_file(tmp_path, spec), "--alpha", alpha, "--r", "2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {message}")

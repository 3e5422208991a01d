"""Command line front end: predictions, designs, sweeps, oracle baselines,
and the verification suite.

Exit codes: 0 success, 1 verification failure, 2 unsupported regime or other
library rejection, 3 input spec parse failure, 4 order-monotonicity violation
in the oracle (an implementation bug, not a usage error).

Every command is deterministic; identical inputs produce byte-identical
output.  Numbers print with 12 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

from .compander import Compander
from .core import RenyiOrder, parse_order
from .densities import density_from_spec
from .design import (
    design_compander,
    optimal_point_density,
    predicted_limit,
    predicted_limit_high_alpha,
)
from .entropy import renyi_entropy
from .oracle import MonotonicityError, alpha_profile, instance_from_spec
from .quantizer import cell_masses, distortion
from .verification import run_all

__all__ = ["SweepRequest", "ConvergenceReport", "main"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_REGIME = 2
EXIT_PARSE = 3
EXIT_MONOTONE = 4


def _fmt(x: float) -> str:
    # 12 significant digits, round-half-even
    return format(float(x), ".12g")


def _round12(x: float) -> float:
    return float(_fmt(x))


def _alpha_arg(text: str) -> RenyiOrder:
    try:
        return parse_order(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _levels_arg(text: str) -> tuple:
    try:
        levels = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}") from None
    return _check_levels(levels, argparse.ArgumentTypeError)


def _check_levels(levels: tuple, error=ValueError) -> tuple:
    """The level counts, if strictly increasing positive integers; else raises ``error``."""
    if not levels or any(int(n) < 1 for n in levels):
        raise error("levels must be positive integers")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise error("levels must be strictly increasing")
    return levels


def _alpha_list_arg(text: str) -> tuple:
    return tuple(_alpha_arg(part) for part in text.split(","))


def _alpha_str(alpha: RenyiOrder) -> str:
    if alpha.is_neg_inf:
        return "neg_inf"
    if alpha.is_pos_inf:
        return "pos_inf"
    return _fmt(alpha.value)


@dataclass(frozen=True)
class SweepRequest:
    """A convergence sweep: one designed compander per level count."""

    density_spec: dict
    alpha: RenyiOrder
    r: float
    levels: tuple
    out: str | None
    format: str
    normalization: str = "entropy"

    def __post_init__(self):
        _check_levels(self.levels)
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.normalization not in ("entropy", "levels"):
            raise ValueError(f"unknown normalization {self.normalization!r}")


@dataclass(frozen=True)
class ConvergenceReport:
    """Rows of (levels, entropy, distortion, normalized) plus the target."""

    rows: tuple
    predicted: float
    final_relative_deviation: float | None

    def __post_init__(self):
        ns = [row[0] for row in self.rows]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("report rows must be sorted by level count")
        if any(row[3] <= 0.0 for row in self.rows):
            raise ValueError("normalized values must be positive")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise _ParseFailure(f"cannot read {path}: {exc}") from None


class _ParseFailure(Exception):
    pass


def _load_density(path: str):
    spec = _load_json(path)
    try:
        return spec, density_from_spec(spec)
    except (ValueError, TypeError) as exc:
        raise _ParseFailure(f"bad density spec {path}: {exc}") from None


def _dispatch_prediction(f, alpha: RenyiOrder, r: float):
    if alpha.is_pos_inf or (alpha.is_finite and alpha.value >= 1.0 + r):
        return predicted_limit_high_alpha(f, alpha, r)
    return predicted_limit(f, alpha, r)


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_predict(args) -> int:
    _, f = _load_density(args.density)
    limit = _dispatch_prediction(f, args.alpha, args.r)
    lines = [
        f"value={_fmt(limit.value)}",
        f"regime={limit.regime}",
        f"rate_exponent={_fmt(limit.rate_exponent)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_design(args) -> int:
    _, f = _load_density(args.density)
    q = design_compander(f, args.alpha, args.r, args.levels)
    limit = _dispatch_prediction(f, args.alpha, args.r)
    payload = {
        "levels": len(q.codepoints),
        "boundaries": [_round12(x) for x in q.boundaries],
        "codepoints": [_round12(x) for x in q.codepoints],
        "predicted": _round12(limit.value),
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _sweep_row(compander, f, alpha, r, n, normalization):
    q = compander.build(n)
    h = renyi_entropy(cell_masses(q, f), alpha)
    d = distortion(q, f, r)
    try:
        scale = math.exp(r * h) if normalization == "entropy" else float(n) ** r
        normalized = scale * d
    except OverflowError:
        # the scale leaves the float range; the product may not: e**(rH + log D)
        log_scale = r * h if normalization == "entropy" else r * math.log(n)
        try:
            normalized = math.exp(log_scale + math.log(d)) if d > 0.0 else math.inf
        except OverflowError:
            normalized = math.inf
    if not math.isfinite(normalized):
        raise ValueError(f"the normalized distortion at N = {n} leaves the float range")
    return h, d, normalized


def run_sweep(req: SweepRequest, f):
    """Evaluate every level count on f, the density built from
    ``req.density_spec``; failures become per-row error markers.

    One point density and one compander serve every level count, so a sweep
    over nested level counts computes each expander value once.  If they
    cannot be built, every row carries that error.
    """
    limit = _dispatch_prediction(f, req.alpha, req.r)

    rows, errors = [], []
    try:
        compander = Compander(optimal_point_density(f, req.alpha, req.r))
    except ValueError as exc:
        errors = [(n, str(exc)) for n in req.levels]
    else:
        for n in req.levels:
            try:
                row = _sweep_row(compander, f, req.alpha, req.r, n, req.normalization)
            except ValueError as exc:
                errors.append((n, str(exc)))
            else:
                rows.append((n, *row))
    final = None
    if rows:
        final = abs(rows[-1][3] / limit.value - 1.0)
    report = ConvergenceReport(tuple(rows), limit.value, final)
    return report, errors


def _render_csv(report: ConvergenceReport, errors) -> str:
    marks = {n: err for n, err in errors}
    ns = sorted({row[0] for row in report.rows} | set(marks))
    by_n = {row[0]: row for row in report.rows}
    lines = ["N,entropy,distortion,normalized"]
    for n in ns:
        if n in marks:
            lines.append(f"{n},error,error,error")
        else:
            _, h, d, norm = by_n[n]
            lines.append(f"{n},{_fmt(h)},{_fmt(d)},{_fmt(norm)}")
    lines.append(f"# predicted={_fmt(report.predicted)}")
    return "\n".join(lines) + "\n"


def _render_json(report: ConvergenceReport, errors) -> str:
    rows = [
        {"N": n, "entropy": _round12(h), "distortion": _round12(d),
         "normalized": _round12(norm)}
        for n, h, d, norm in report.rows
    ]
    rows.extend({"N": n, "error": err} for n, err in errors)
    rows.sort(key=lambda row: row["N"])
    payload = {
        "rows": rows,
        "predicted": _round12(report.predicted),
        "final_relative_deviation":
            None if report.final_relative_deviation is None
            else _round12(report.final_relative_deviation),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_sweep(args) -> int:
    spec, f = _load_density(args.density)
    req = SweepRequest(spec, args.alpha, args.r, args.levels, args.out,
                       args.format, args.normalization)
    report, errors = run_sweep(req, f)
    text = _render_csv(report, errors) if req.format == "csv" else _render_json(report, errors)
    _emit(text, req.out)
    return EXIT_REGIME if errors else EXIT_OK


def cmd_oracle(args) -> int:
    spec = _load_json(args.instance)
    try:
        inst = instance_from_spec(spec)
    except (ValueError, TypeError) as exc:
        raise _ParseFailure(f"bad instance spec {args.instance}: {exc}") from None
    results = alpha_profile(inst, args.alpha, args.rate, args.r)
    payload = {
        "rate": _round12(args.rate),
        "r": _round12(args.r),
        "profile": [
            {
                "alpha": _alpha_str(alpha),
                "value": _round12(res.value),
                "feasible_count": res.feasible_count,
                "argmin": {
                    "boundaries": [_round12(x) for x in res.argmin.boundaries],
                    "codepoints": [_round12(x) for x in res.argmin.codepoints],
                },
            }
            for alpha, res in zip(args.alpha, results)
        ],
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_all()
    if args.format == "json":
        payload = {
            "passed": all(res.passed for res in results),
            "suites": [
                {"name": res.name, "passed": res.passed, "worst": res.worst,
                 "tolerance": res.tolerance, "detail": res.detail}
                for res in results
            ],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [
            f"{'PASS' if res.passed else 'FAIL'} {res.name} "
            f"slack={res.worst:.3e} tol={res.tolerance:g} ({res.detail})"
            for res in results
        ]
        good = sum(res.passed for res in results)
        lines.append(f"{good}/{len(results)} suites passed")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all(res.passed for res in results) else EXIT_VERIFY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="renyiquant",
        description="Scalar quantizer design and verification under "
                    "generalized entropy constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    predict = sub.add_parser("predict", help="print the high-resolution distortion limit")
    predict.add_argument("--density", required=True)
    predict.add_argument("--alpha", required=True, type=_alpha_arg)
    predict.add_argument("--r", required=True, type=float)
    predict.add_argument("--out")
    predict.set_defaults(fn=cmd_predict)

    design = sub.add_parser("design", help="emit a designed compander quantizer")
    design.add_argument("--density", required=True)
    design.add_argument("--alpha", required=True, type=_alpha_arg)
    design.add_argument("--r", required=True, type=float)
    design.add_argument("--levels", required=True, type=int)
    design.add_argument("--out")
    design.set_defaults(fn=cmd_design)

    sweep = sub.add_parser("sweep", help="convergence sweep across level counts")
    sweep.add_argument("--density", required=True)
    sweep.add_argument("--alpha", required=True, type=_alpha_arg)
    sweep.add_argument("--r", required=True, type=float)
    sweep.add_argument("--levels", required=True, type=_levels_arg)
    sweep.add_argument("--out")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--normalization", choices=("entropy", "levels"),
                       default="entropy")
    sweep.set_defaults(fn=cmd_sweep)

    oracle = sub.add_parser("oracle", help="exhaustive small-instance baseline")
    oracle.add_argument("--instance", required=True)
    oracle.add_argument("--alpha", required=True, type=_alpha_list_arg)
    oracle.add_argument("--rate", required=True, type=float)
    oracle.add_argument("--r", required=True, type=float)
    oracle.add_argument("--out")
    oracle.set_defaults(fn=cmd_oracle)

    verify = sub.add_parser("verify", help="run every verification suite")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out")
    verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except _ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MonotonicityError as exc:
        print(f"monotonicity violation: {exc}", file=sys.stderr)
        return EXIT_MONOTONE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME


if __name__ == "__main__":
    sys.exit(main())

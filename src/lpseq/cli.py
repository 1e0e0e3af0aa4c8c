"""Command-line surface: project, rates, simulate, reproduce, verify.

Results go to stdout (key/value lines, CSV, or JSON); progress and resolved
configuration echoes go to stderr.  Exit codes: 0 success, 1 failed
verification, 2 bad parameters or parse errors, 3 solver diagnostic failure,
4 partial (resumable) experiment completion.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import oracles, simulate
from .projection import KKT_BAR, LpBall, project
from .rates import RateQuery, classify_regime
from .rng import check_seed

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_PARTIAL = 4


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _echo_config(name: str, payload: dict) -> None:
    _log(f"[lpseq] {name} config: {json.dumps(payload, sort_keys=True)}")


def _parse_vector(text: str) -> np.ndarray:
    candidate = Path(text)
    if candidate.exists() and candidate.is_file():
        raw = candidate.read_text(encoding="utf-8")
        tokens = raw.replace(",", " ").split()
    else:
        tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty input vector")
    return np.array([float(tok) for tok in tokens])


def _cmd_project(args) -> int:
    p = float(args.p)
    y = _parse_vector(args.input)
    radius = 1.0 if args.radius is None and p != 0 else args.radius
    ball = LpBall(p=p, dim=y.size, radius=radius, sparsity=args.sparsity)
    _echo_config("project", dataclasses.asdict(ball))
    result = project(ball, y)
    print("point:", ",".join(repr(float(v)) for v in result.point))
    print("multiplier:", repr(result.multiplier))
    print("kkt_residual:", repr(result.kkt_residual))
    print("iterations:", result.iterations)
    if result.duality_gap is not None:
        print("duality_gap:", repr(result.duality_gap))
    if not result.kkt_residual <= KKT_BAR:  # also a NaN certificate
        _log(f"[lpseq] solver diagnostic failure: kkt residual exceeds {KKT_BAR:g}")
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_rates(args) -> int:
    query = RateQuery(p=float(args.p), d=args.d, sigma=args.sigma, radius=args.radius,
                      sparsity=args.sparsity, n=args.n, tau=args.tau)
    _echo_config("rates", dataclasses.asdict(query))
    report = classify_regime(query)
    print("control_value:", repr(report.control_value))
    print("lower_bound:", repr(report.lower_bound))
    print("upper_bound:", repr(report.upper_bound))
    print("label:", report.label.value)
    print("p_threshold:", repr(report.p_threshold))
    print("sigma_interval:", repr(report.sigma_interval[0]) + "," + repr(report.sigma_interval[1]))
    print("subinterval:", report.subinterval)
    return EXIT_OK


def _run_resumable(config: simulate.ExperimentConfig, out_dir: Path):
    """Run with a cell cursor under out_dir; returns (result, csv_path)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cursor_path = out_dir / "cursor.json"
    fingerprint = config.fingerprint()
    completed: dict[str, dict] = {}
    if cursor_path.exists():
        state = json.loads(cursor_path.read_text(encoding="utf-8"))
        if state.get("fingerprint") == fingerprint:
            completed = state.get("cells", {})
            _log(f"[lpseq] resuming: {len(completed)} cells already done")
        else:
            _log("[lpseq] cursor belongs to a different config; starting over")

    def on_cell_done(cell_id, row):  # the cursor holds every cell done so far
        completed[cell_id] = dataclasses.asdict(row)
        cursor_path.write_text(json.dumps({"fingerprint": fingerprint, "cells": completed}),
                               encoding="utf-8")
        _log(f"[lpseq] cell done: {cell_id} kkt_max={row.kkt_residual_max:.3g}"
             f" iterations_max={row.iterations_max}")

    resumed = {cid: simulate.RiskEstimate(**row) for cid, row in completed.items()}
    result = simulate.run_experiment(config, completed=resumed, on_cell_done=on_cell_done)
    csv_path = out_dir / "results.csv"
    simulate.write_csv(result, csv_path)
    cursor_path.unlink(missing_ok=True)
    return result, csv_path


def _cmd_simulate(args) -> int:
    try:
        config = simulate.ExperimentConfig.from_json(args.config)
    except (ValueError, TypeError, OSError) as exc:  # TypeError: a value of the wrong type
        _log(f"[lpseq] config error: {exc}")
        return EXIT_PARSE
    _echo_config("simulate", config.to_dict())
    result = simulate.run_experiment(config)
    if args.out is None:
        sys.stdout.write(simulate.rows_to_csv(result))
    else:
        simulate.write_csv(result, Path(args.out))
        _log(f"[lpseq] wrote {args.out}")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    d_grid = simulate.default_d_grid(max_d=args.max_d)
    if not d_grid:
        raise ValueError(f"--max-d must be at least {simulate.default_d_grid()[0]},"
                         f" got {args.max_d}")
    # argparse allows only 2a and 2b; p, the radius, the sigma rule and the
    # estimators are the config's defaults
    config = simulate.ExperimentConfig(regime=f"fig{args.figure}", d_grid=d_grid,
                                       reps=args.reps, seed=args.seed)
    _echo_config("reproduce", config.to_dict())
    out_dir = Path(args.out)
    try:
        result, csv_path = _run_resumable(config, out_dir)
    except KeyboardInterrupt:
        _log("[lpseq] interrupted; partial results saved, rerun to resume")
        return EXIT_PARTIAL
    except Exception as exc:
        _log(f"[lpseq] cell failure: {exc}; partial results saved, rerun to resume")
        return EXIT_PARTIAL
    summary = simulate.summarize_figure(result)
    (out_dir / "slopes.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8")
    spec = simulate.plot_specification(result, csv_path.name, summary)
    (out_dir / "plot_spec.json").write_text(
        json.dumps(spec, indent=2, sort_keys=True), encoding="utf-8")
    print(json.dumps({"slopes": summary["slopes"]}, sort_keys=True))
    _log(f"[lpseq] wrote {csv_path}, slopes.json, plot_spec.json")
    return EXIT_OK


def _cmd_verify(args) -> int:
    check_seed(args.seed)
    _echo_config("verify", {"suite": args.suite, "seed": args.seed})
    all_pass = True
    for name in oracles.SUITES if args.suite == "all" else [args.suite]:
        start = time.perf_counter()
        reports = oracles.run_suite(name, args.seed)
        _log(f"[lpseq] suite {name}: {time.perf_counter() - start:.2f} s")
        for report in reports:
            print(report.line())
            all_pass = all_pass and report.passed
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpseq",
        description="lp-ball projection estimators in the Gaussian sequence model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("project", help="project a vector onto an lp ball")
    pr.add_argument("--p", required=True, help="norm index (0, positive real, or inf)")
    pr.add_argument("--radius", type=float, default=None, help="radius at p > 0 (default 1)")
    pr.add_argument("--sparsity", type=int, default=None, help="sparsity at p = 0")
    pr.add_argument("--input", required=True,
                    help="comma/space separated values, or a file path")
    pr.set_defaults(func=_cmd_project)

    ra = sub.add_parser("rates", help="minimax rate control value and regime label")
    ra.add_argument("--p", required=True)
    ra.add_argument("--d", type=int, required=True)
    ra.add_argument("--sigma", type=float, default=None)
    ra.add_argument("--radius", type=float, default=None, help="radius at p > 0 (default 1)")
    ra.add_argument("--sparsity", type=int, default=None)
    ra.add_argument("--n", type=int, default=1)
    ra.add_argument("--tau", type=float, default=None)
    ra.set_defaults(func=_cmd_rates)

    si = sub.add_parser("simulate", help="run a Monte Carlo risk experiment from JSON")
    si.add_argument("--config", required=True, help="JSON experiment configuration")
    si.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    si.set_defaults(func=_cmd_simulate)

    re = sub.add_parser("reproduce", help="rerun a risk-figure recipe at desk scale")
    re.add_argument("--figure", required=True, choices=["2a", "2b"])
    re.add_argument("--max-d", type=int, default=simulate.DEFAULT_MAX_D)
    re.add_argument("--reps", type=int, default=100)
    re.add_argument("--seed", type=int, default=0)
    re.add_argument("--out", required=True, help="output directory")
    re.set_defaults(func=_cmd_reproduce)

    ve = sub.add_parser("verify", help="run empirical verification suites")
    ve.add_argument("--suite", default="all",
                    choices=["all"] + sorted(oracles.SUITES))
    ve.add_argument("--seed", type=int, default=0)
    ve.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        _log(f"[lpseq] error: {exc}")
        return EXIT_PARSE
    except RuntimeError as exc:  # a failed cell names itself; a parameter error is its cause
        if not isinstance(exc.__cause__, ValueError):
            raise
        _log(f"[lpseq] error: {exc}: {exc.__cause__}")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

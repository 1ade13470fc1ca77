"""Command-line entry point for the benchmark harness.

Subcommands:
  run        execute an experiment described by a JSON config
  summarize  recompute summary.json and plot data from stored traces
  check      run the trace-level descent/consistency checks on stored runs

A configuration error, or a missing or malformed input file (a trace with
no rows, ragged rows, wrong headers or a non-numeric cell, or a manifest
with no runs, is malformed), prints one ``iadmm: error: <message>`` line to
stderr and exits with status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .bench import load_config, read_manifest, run_experiment, summarize
from .core import ConfigError
from .diagnostics import check_lyapunov_descent, check_theorem1_residual, check_y_decrease
from .solver import NSDP_RTOL, CheckLevel, SolverConfig, TraceFormatError, read_trace_csv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="iadmm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", type=Path, required=True, help="experiment JSON")
    p_run.add_argument("--out", type=Path, required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override master seed")
    budget = p_run.add_mutually_exclusive_group()
    budget.add_argument("--budget-iters", type=int, default=None)
    budget.add_argument("--budget-secs", type=float, default=None)
    p_run.add_argument("--check-level", choices=[level.value for level in CheckLevel],
                       default=None)
    p_run.add_argument("--jobs", type=int, default=1, help="parallel runs (threads)")
    p_run.set_defaults(func=_cmd_run)

    p_sum = sub.add_parser("summarize", help="recompute summary from stored traces")
    p_sum.add_argument("--out", type=Path, required=True, help="experiment directory")
    p_sum.set_defaults(func=_cmd_summarize)

    p_chk = sub.add_parser("check", help="verify descent invariants on stored traces")
    p_chk.add_argument("--out", type=Path, required=True, help="experiment directory")
    p_chk.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    if args.command == "run" and args.jobs < 1:
        p_run.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            json.JSONDecodeError, TraceFormatError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    # the two budget flags are exclusive, so either one replaces the whole budget
    if args.budget_iters is not None or args.budget_secs is not None:
        overrides.update(budget_iters=args.budget_iters, budget_seconds=args.budget_secs)
    if args.check_level is not None:
        overrides["check_level"] = args.check_level
    cfg = dataclasses.replace(cfg, **overrides)
    summary = run_experiment(cfg, args.out, jobs=args.jobs)
    _print_rows(summary)
    print(f"summary written to {Path(args.out) / 'summary.json'}")
    return 0


def _cmd_summarize(args) -> int:
    summary, plots = summarize(args.out)
    _print_rows(summary)
    for size, paths in plots.items():
        print(f"plot data for {size}: {paths['iters']}, {paths['time']}")
    return 0


def _print_rows(summary: dict) -> None:
    """One line per summary row: algorithm, size, mean and std over the trials
    (nan for a group without a finite run)."""
    for row in summary["rows"]:
        mean, std = (math.nan if row[k] is None else row[k] for k in ("mean", "std"))
        print(
            f"{row['algorithm']:>16s} ({row['m']},{row['n']}): "
            f"mean {mean:.6g} std {std:.4g} over {row['n_trials']} trials"
        )


def _cmd_check(args) -> int:
    out = Path(args.out)
    manifest = read_manifest(out)
    reports = []
    failed = 0
    for meta in manifest["runs"]:
        if meta["algorithm"] == "gd":
            continue
        # descent is only guaranteed for runs that passed the smoothness gate
        advisory = bool(meta.get("gate_warnings"))
        rows = read_trace_csv(out / meta["file"])
        reports.append((meta["file"], check_lyapunov_descent(rows, NSDP_RTOL), advisory))
        if "al_after_x" in rows[0]:
            reports.append(
                (meta["file"], check_y_decrease(rows, meta["delta"], NSDP_RTOL), advisory))
        cfg = SolverConfig(
            beta=meta["beta"], tau1=meta["tau1"], tau2=meta["tau2"],
            tolerance=manifest["config"]["tolerance"],
        )
        reports.append((meta["file"], check_theorem1_residual(rows, cfg, 0.05), False))
    lines = []
    for fname, report, advisory in reports:
        status = report.status.upper()
        if report.status == "failed":
            if advisory:
                status = "FAILED*"  # gate-relaxed run: descent was never guaranteed
            else:
                failed += 1
        worst = "nan" if math.isnan(report.worst_violation) else f"{report.worst_violation:.3e}"
        print(f"{status:>12s}  {report.name:<24s} worst {worst}  {fname}")
        lines.append(dataclasses.asdict(report) | {"file": fname, "advisory": advisory})
    (out / "checks.json").write_text(
        json.dumps(lines, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Alternating parent/change pairs of ``perfbench/run.py``, written to one JSON file.

    python3 scripts/bench_pairs.py --parent ../iadmm-parent --change . \\
        --workloads tall-full desk-off --seeds 401-410 --out BENCH_6.json

Each tree is a checkout of the repository (it must hold ``perfbench/run.py``
and ``src/iadmm``).  For every workload and seed the script runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` once
in each tree, from that tree's root, with T the ``run_seconds`` of the parent
tree's ``BENCHMARK.json``; the tree that runs first alternates from one pair
to the next, so a drift of the host favours neither side.  The output holds
every run's metrics, each side's median and quartiles per metric, the
change's win count, a verdict against the metric's ``BENCHMARK.json`` bound,
whether every run was ``correct`` and how many operations failed, and the
environment (python, numpy, BLAS library, BLAS thread count, ``nproc``).
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# perfbench/run.py sets OPENBLAS/OMP/MKL_NUM_THREADS to this before numpy loads
BLAS_THREADS = 1
_NUMPY_PROBE = """
import json, numpy
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"numpy": numpy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version")}))
"""


def parse_seeds(text: str) -> list[int]:
    """``401-410`` or ``1,2,5`` (or a mix) as a list of ints."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` invocation in ``tree``; its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"returncode": proc.returncode, "correct": False, "failed": None,
                "metrics": {}, "stderr_tail": proc.stderr[-2000:]}
    metrics = {k: v.get("value") for k, v in doc.get("metrics", {}).items()}
    return {"returncode": proc.returncode, "correct": bool(doc.get("correct")),
            "attempted": doc.get("attempted"), "failed": doc.get("failed"),
            "metrics": metrics}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_rel": (q3 - q1) / med if med else None}


def verdict(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """``unresolved`` when the parent's quartile spread is wider than ``bound``,
    unless every change run reads better than every parent run; otherwise
    ``within_bound`` or ``beyond_bound`` by the median's relative worsening."""
    base = quartiles(parent)
    clear = max(sign * v for v in change) < min(sign * v for v in parent)
    if (base["iqr_rel"] or 0.0) > bound and not clear:
        return "unresolved"
    worse_rel = sign * (quartiles(change)["median"] - base["median"]) / base["median"]
    return "within_bound" if worse_rel <= bound else "beyond_bound"


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Per metric: each side's quartiles, the change's wins, relative shift and verdict."""
    names = sorted({k for p in pairs for s in SIDES for k in p[s]["metrics"]})
    out = {}
    for name in names:
        vals = {s: [p[s]["metrics"].get(name) for p in pairs] for s in SIDES}
        if any(v is None for s in SIDES for v in vals[s]):
            out[name] = {"absent_in_some_run": True}
            continue
        better = spec.get(name, {}).get("better", "lower")
        sign = 1.0 if better == "lower" else -1.0
        stats = {s: quartiles(vals[s]) for s in SIDES}
        base = stats["parent"]["median"]
        shift = stats["change"]["median"] - base
        wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
        out[name] = {
            "better": better,
            **stats,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_change_rel": shift / base if base else None,
            # a gain the parent's own spread cannot explain
            "gain_beyond_parent_iqr": sign * shift < 0
            and abs(shift) > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
        bound = spec.get(name, {}).get("bound")
        if bound is not None and base:
            out[name]["bound"] = bound
            out[name]["verdict"] = verdict(vals["parent"], vals["change"], sign, bound)
    return out


def environment() -> dict:
    probe = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], capture_output=True,
                           text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    try:
        numpy_info = json.loads(probe.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        numpy_info = {"numpy": None, "blas": None, "blas_version": None}
    return {
        "python": platform.python_version(),
        **numpy_info,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="tree of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="tree of the change")
    ap.add_argument("--workloads", required=True, nargs="+")
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 401-410 or 1,2,3")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"{side} tree {tree} has no perfbench/run.py")
    bench = trees["parent"] / "BENCHMARK.json"
    if not bench.is_file():
        ap.error(f"parent tree {trees['parent']} has no BENCHMARK.json")
    bench = json.loads(bench.read_text())
    seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}

    doc = {"environment": environment(), "seconds": seconds,
           "trees": {"parent": str(args.parent), "change": str(args.change)},
           "workloads": {}}
    for workload in args.workloads:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: {pair[side]['metrics']}",
                      file=sys.stderr)
            pairs.append(pair)
        runs = [p[s] for p in pairs for s in SIDES]
        doc["workloads"][workload] = {
            "correct": {s: all(p[s]["correct"] for p in pairs) for s in SIDES},
            "failed": {s: sum(p[s]["failed"] or 0 for p in pairs) for s in SIDES},
            "all_exit_zero": all(r["returncode"] == 0 for r in runs),
            "metrics": summarize(pairs, spec),
            "runs": pairs,
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

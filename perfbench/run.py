#!/usr/bin/env python3
"""Outside-in benchmark of iadmm: one named workload per invocation.

    python3 perfbench/run.py --workload desk-off --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``setup_s``, ``grid_wall_s``, ``solve_ms_per_iter``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones, taken from
spans around iadmm's public names (see ``tracer.py``).

One round is one ``bench.run_experiment`` grid plus a fixed number of
library solves (``iadmm.run`` on the first cell); a run repeats whole
rounds until ``--seconds`` have passed and reports medians over rounds.
Every solver or gradient-descent run is one operation, checked by
``oracle.py``; it fails if it raises or fails a check.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

VARIANTS = [
    {"tau1": 0.1, "tau2": 0.1, "inertial": True},
    {"tau1": 0.1, "tau2": 0.1, "inertial": False},
    {"tau1": 0.5, "tau2": 0.5, "inertial": True},
    {"tau1": 0.5, "tau2": 0.5, "inertial": False},
]
# the model settings of scripts/desk_benchmark.json
BASE_CONFIG = {
    "rank": 100, "density": 0.1, "c": 1.0, "lambda_row": 0.125, "lambda_col": 0.125,
    "beta": 1.0, "variants": VARIANTS, "include_gd": True, "b1": 0.9999, "b2": 0.9,
    "nu": 0.5, "tolerance": 0.0, "enforce_gate": True,
}


@dataclass(frozen=True)
class Workload:
    config: dict          # experiment config without master_seed
    lib_repeats: int = 1  # library solves per round (per check level when traced)


WORKLOADS = {
    "desk-off": Workload(dict(BASE_CONFIG, sizes=[[200, 200]], datasets_per_size=1,
                              inits_per_dataset=2, budget={"iters": 50},
                              check_level="off"), lib_repeats=4),
    "tall-full": Workload(dict(BASE_CONFIG, sizes=[[1000, 200]], datasets_per_size=1,
                               inits_per_dataset=1, budget={"iters": 10},
                               check_level="full"), lib_repeats=3),
    "small-many": Workload(dict(BASE_CONFIG, sizes=[[50, 50]], rank=10,
                                datasets_per_size=4, inits_per_dataset=4,
                                budget={"iters": 40}, check_level="cheap"),
                           lib_repeats=20),
}


def process_age() -> float:
    """Seconds since this process started (Linux, clock-tick resolution)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="master seed of the inputs")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    # one BLAS thread, fixed before numpy loads: the last digits of a solve
    # and its speed both depend on the thread count
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "iadmm" / "__init__.py").is_file():
        print(f"no iadmm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import iadmm

    if Path(iadmm.__file__).resolve().parent != SRC / "iadmm":
        print(f"imported iadmm from {iadmm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from harness import END_TO_END_UNITS, Bench, measure_end_to_end, measure_layers, \
        per_layer_units

    out_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        b = Bench(wl, args.seed, out_dir)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            attempted, failed, values = measure_layers(b, args.seconds, spans)
            units = per_layer_units()
        else:
            setup_s = process_age()
            attempted, failed, values = measure_end_to_end(b, args.seconds, setup_s)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        # a wrapped name that no longer exists, or no operation that succeeded
        absent = value is None or not math.isfinite(value)
        metrics[name] = (
            {"value": None, "unit": unit, "absent": True} if absent
            else {"value": value, "unit": unit}
        )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

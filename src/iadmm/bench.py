"""Benchmark harness: multi-trial factorization runs with shared data.

An experiment is a grid of (size, dataset, initial point) cells.  Each
cell's data matrix and starting factors are built once and every algorithm
variant of the cell runs on them (asserted by hashing); seeds derive
deterministically from the master seed and the cell coordinates.  Each run
writes one trace CSV; the experiment writes a manifest, a summary JSON, and
per-size plot-data CSVs (mean objective against iteration, and against wall
time on a fixed grid with last-observation-carried-forward alignment).

With a fixed master seed, iteration budget and BLAS thread count the
summary JSON and the iteration-series CSVs are byte-identical across
invocations and ``jobs`` values.  A different BLAS thread count can change
the last digits: one 2000-iteration cell ends at 1124.963250372305 with one
thread and at 1124.9632503723071 with two.  Wall-time columns are
machine-dependent by nature.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import statistics
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .core import ConfigError
from .logmf import (
    LogMfInstance,
    gd_run,
    generate_matrix,
    initial_factors,
    make_problem,
    model_objective_metric,
)
from .rng import derive_seed
from .solver import SolverConfig, read_trace_csv, run, validate_config, write_trace_csv

_SEED_DATA = 0
_SEED_INIT = 1


@dataclass(frozen=True)
class Variant:
    tau1: float
    tau2: float
    inertial: bool = True

    @property
    def label(self) -> str:
        stem = "iadmm" if self.inertial else "admm"
        return f"{stem}({self.tau1:g},{self.tau2:g})"


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment.

    ``budget`` carries either an iteration count ("iters") or a wall-clock
    allowance in seconds ("seconds"); iteration budgets are the
    reproducible mode.  All variants in a cell share data and initial
    point.  Unknown configuration keys are rejected.
    """

    sizes: tuple[tuple[int, int], ...] = ((200, 200),)
    rank: int = 100
    density: float = 0.1
    c: float = 1.0
    lambda_row: float = 0.25
    lambda_col: float = 0.25
    beta: float = 1.0
    variants: tuple[Variant, ...] = (
        Variant(0.1, 0.1, True),
        Variant(0.1, 0.1, False),
    )
    include_gd: bool = True
    datasets_per_size: int = 5
    inits_per_dataset: int = 5
    budget_iters: Optional[int] = 2000
    budget_seconds: Optional[float] = None
    master_seed: int = 0
    b1: float = 0.9999
    b2: float = 0.9
    nu: float = 0.5
    check_level: str = "off"
    tolerance: float = 0.0
    enforce_gate: bool = True

    def __post_init__(self):
        self.sizes = tuple((int(m), int(n)) for m, n in self.sizes)
        self.variants = tuple(
            v if isinstance(v, Variant) else Variant(**v) for v in self.variants
        )
        if not self.sizes:
            raise ConfigError("experiment needs at least one size")
        if self.datasets_per_size < 1 or self.inits_per_dataset < 1:
            raise ConfigError("trial counts must be >= 1")
        if not self.variants and not self.include_gd:
            raise ConfigError("experiment needs at least one algorithm")
        if (self.budget_iters is None) == (self.budget_seconds is None):
            raise ConfigError("budget needs exactly one of iters or seconds")

    def solver_config(self, variant: Variant) -> SolverConfig:
        return SolverConfig(
            beta=self.beta,
            tau1=variant.tau1,
            tau2=variant.tau2,
            b1=self.b1,
            b2=self.b2,
            nu=self.nu,
            extrapolation="nesterov" if variant.inertial else "none",
            max_iters=self.budget_iters,
            max_seconds=self.budget_seconds,
            tolerance=self.tolerance,
            check_level=self.check_level,
            enforce_gate=self.enforce_gate,
        )

    def echo(self) -> dict:
        """The configuration as read by :func:`config_from_dict`."""
        doc = asdict(self)
        iters, seconds = doc.pop("budget_iters"), doc.pop("budget_seconds")
        doc["budget"] = {"iters": iters} if iters is not None else {"seconds": seconds}
        return doc


# the config file's keys: the fields, with the two budget fields read as "budget"
_CONFIG_KEYS = (
    {f.name for f in fields(ExperimentConfig)} - {"budget_iters", "budget_seconds"}
) | {"budget"}
_BUDGET_KEYS = {"iters", "seconds"}
_VARIANT_KEYS = {f.name for f in fields(Variant)}
_REQUIRED_VARIANT_KEYS = {f.name for f in fields(Variant) if f.default is MISSING}


def _cast(key: str, default, value):
    """``value`` cast to the type of ``default``; a bool field takes only true or false."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false, got {value!r}")
        return value
    return type(default)(value)


def config_from_dict(raw: dict) -> ExperimentConfig:
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown experiment config keys: {sorted(unknown)}")
    kwargs: dict = {}
    # each scalar key is cast to the type of its field's default
    for f in fields(ExperimentConfig):
        if f.name in raw and f.name not in ("sizes", "variants"):
            kwargs[f.name] = _cast(f.name, f.default, raw[f.name])
    if "sizes" in raw:
        kwargs["sizes"] = tuple((int(m), int(n)) for m, n in raw["sizes"])
    if "variants" in raw:
        variants = []
        for v in raw["variants"]:
            unknown_v = set(v) - _VARIANT_KEYS
            if unknown_v:
                raise ConfigError(f"unknown variant keys: {sorted(unknown_v)}")
            missing_v = _REQUIRED_VARIANT_KEYS - set(v)
            if missing_v:
                raise ConfigError(f"variant misses keys: {sorted(missing_v)}")
            variants.append(
                Variant(
                    float(v["tau1"]), float(v["tau2"]),
                    _cast("inertial", True, v.get("inertial", True)),
                )
            )
        kwargs["variants"] = tuple(variants)
    if "budget" in raw:
        budget = raw["budget"]
        unknown_b = set(budget) - _BUDGET_KEYS
        if unknown_b:
            raise ConfigError(f"unknown budget keys: {sorted(unknown_b)}")
        if len(budget) != 1:
            raise ConfigError("budget needs exactly one of iters or seconds")
        if "iters" in budget:
            kwargs["budget_iters"] = int(budget["iters"])
            kwargs["budget_seconds"] = None
        else:
            kwargs["budget_iters"] = None
            kwargs["budget_seconds"] = float(budget["seconds"])
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("experiment config must be a JSON object")
    return config_from_dict(raw)


def _atomic_write_text(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _inputs_sha256(inputs: tuple) -> str:
    inst, u0, v0 = inputs
    h = hashlib.sha256()
    for arr in (inst.y, u0, v0):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def _cell_inputs(cfg: ExperimentConfig, size_idx: int, dataset: int, init: int) -> tuple:
    """The cell's (instance, U0, V0), built once and shared by its runs."""
    m, n = cfg.sizes[size_idx]
    data_seed = derive_seed(cfg.master_seed, _SEED_DATA, size_idx, dataset)
    init_seed = derive_seed(cfg.master_seed, _SEED_INIT, size_idx, dataset, init)
    inst = LogMfInstance(
        y=generate_matrix(m, n, cfg.density, data_seed), rank=cfg.rank, c=cfg.c,
        lam_row=cfg.lambda_row, lam_col=cfg.lambda_col, beta=cfg.beta,
    )
    u0, v0 = initial_factors(m, n, cfg.rank, init_seed)
    return inst, u0, v0


def _trace_name(size, dataset, init, label) -> str:
    m, n = size
    safe = label.replace("(", "_").replace(")", "").replace(",", "_")
    return f"trace_{m}x{n}_d{dataset}_i{init}_{safe}.csv"


def _run_one(cfg: ExperimentConfig, cell: tuple, inputs: tuple, label: str,
             out_dir: Path) -> dict:
    """Execute one (cell, algorithm) run and write its trace; returns metadata.

    ``inputs`` is the cell's shared (instance, U0, V0); their hash is taken
    just before the run starts.
    """
    size_idx, dataset, init = cell
    m, n = cfg.sizes[size_idx]
    inst, u0, v0 = inputs
    meta = {
        "file": _trace_name((m, n), dataset, init, label),
        "algorithm": label,
        "m": m,
        "n": n,
        "rank": cfg.rank,
        "dataset": dataset,
        "init": init,
        "input_sha256": _inputs_sha256(inputs),
    }
    if label == "gd":
        u_fin, v_fin, trace = gd_run(
            u0, v0, inst, max_iters=cfg.budget_iters, max_seconds=cfg.budget_seconds
        )
        meta.update(
            {
                "iterations": trace[-1].k,
                "final_objective": trace[-1].extras["model_objective"],
                "stop_reason": "budget",
            }
        )
    else:
        variant = next(v for v in cfg.variants if v.label == label)
        scfg = cfg.solver_config(variant)
        problem = make_problem(inst)
        result = run(
            problem,
            scfg,
            [u0, v0],
            extra_metrics={"model_objective": model_objective_metric(inst)},
        )
        trace = result.trace
        meta.update(
            {
                "iterations": result.iterations,
                "final_objective": trace[-1].extras["model_objective"],
                "stop_reason": result.stop_reason,
                "tau1": variant.tau1,
                "tau2": variant.tau2,
                "inertial": variant.inertial,
                "beta": cfg.beta,
                "b1": cfg.b1,
                "b2": cfg.b2,
                "delta": result.constants.delta,
                "c1": result.constants.c1,
                "c3": result.constants.c3,
                "gate_warnings": list(result.constants.warnings),
                "eta_min": list(result.eta_min),
                "eta_max": list(result.eta_max),
            }
        )
    write_trace_csv(out_dir / meta["file"], trace)
    return meta


def _run_cell(cfg: ExperimentConfig, cell: tuple, labels: Sequence[str], out_dir: Path,
              pool) -> list[dict]:
    """Build one cell's inputs once and run every algorithm on them.

    Raises RuntimeError when the runs saw different inputs, including when
    a run wrote into the shared arrays.
    """
    inputs = _cell_inputs(cfg, *cell)

    def one(label: str) -> dict:
        return _run_one(cfg, cell, inputs, label, out_dir)

    runs = list(map(one, labels) if pool is None else pool.map(one, labels))
    hashes = {meta["input_sha256"] for meta in runs} | {_inputs_sha256(inputs)}
    if len(hashes) != 1:
        raise RuntimeError(f"variants saw different inputs in cell {cell}")
    return runs


def run_experiment(cfg: ExperimentConfig, out_dir, jobs: int = 1) -> dict:
    """Run the full grid, write traces + manifest + summary + plot data.

    Every variant is validated before any run starts; a validation error
    aborts the whole experiment.  Cells run one at a time, each on inputs
    built once; ``jobs`` > 1 runs a cell's algorithms on a thread pool.
    Every run builds a private problem instance, and the manifest order
    (hence all outputs) is independent of scheduling.  Returns the summary
    document.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # validate all variants up front against a minimal instance
    probe = make_problem(LogMfInstance(
        y=np.zeros((2, 2)), rank=1, c=cfg.c, lam_row=cfg.lambda_row,
        lam_col=cfg.lambda_col, beta=cfg.beta,
    ))
    for variant in cfg.variants:
        validate_config(cfg.solver_config(variant), probe)

    labels = [v.label for v in cfg.variants] + (["gd"] if cfg.include_gd else [])
    cells = [
        (size_idx, dataset, init)
        for size_idx in range(len(cfg.sizes))
        for dataset in range(cfg.datasets_per_size)
        for init in range(cfg.inits_per_dataset)
    ]
    with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        runs = [meta for cell in cells for meta in _run_cell(cfg, cell, labels, out, pool)]

    manifest = {"config": cfg.echo(), "runs": runs}
    _atomic_write_text(
        out / "runs_manifest.json",
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
    )
    summary, _ = summarize(out)
    return summary


def summarize(trace_dir) -> tuple[dict, dict]:
    """Recompute the summary and plot data from stored traces.

    Reads the manifest for run metadata, then every trace CSV; final
    objectives come from the traces' model_objective column (falling back
    to the objective column).  Writes summary.json and per-size plot CSVs;
    returns (summary document, {size: {"time": path, "iters": path}}).
    """
    out = Path(trace_dir)
    manifest_path = out / "runs_manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no runs_manifest.json under {out}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    runs = manifest["runs"]
    if not runs:
        raise ValueError("manifest lists no runs")

    by_group: dict[tuple[str, int, int], list[dict]] = {}
    traces: dict[str, list[dict]] = {}
    for meta in runs:
        rows = read_trace_csv(out / meta["file"])
        traces[meta["file"]] = rows
        key = (meta["algorithm"], meta["m"], meta["n"])
        by_group.setdefault(key, []).append(meta)

    summary_rows = []
    for (algorithm, m, n) in sorted(by_group):
        finals = [_row_objective(traces[meta["file"]][-1])
                  for meta in by_group[(algorithm, m, n)]]
        mean = statistics.fmean(finals)
        std = statistics.stdev(finals) if len(finals) > 1 else 0.0
        summary_rows.append(
            {
                "algorithm": algorithm,
                "m": m,
                "n": n,
                "mean": mean,
                "std": std,
                "n_trials": len(finals),
            }
        )
    summary = {
        "experiment": manifest["config"],
        "rows": summary_rows,
        "provenance": {
            "master_seed": manifest["config"]["master_seed"],
            "version": __version__,
        },
    }
    _atomic_write_text(out / "summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")

    plot_paths: dict[tuple[int, int], dict] = {}
    budget = manifest["config"].get("budget", {})
    horizon_cfg = budget.get("seconds")
    sizes = sorted({(meta["m"], meta["n"]) for meta in runs})
    for size in sizes:
        plot_paths[size] = _write_plot_data(out, size, runs, traces, horizon_cfg)
    return summary, plot_paths


def _row_objective(row: dict) -> float:
    """The trace row's model_objective, falling back to its objective."""
    return row.get("model_objective", row["objective"])


def _write_plot_data(out: Path, size, runs, traces, horizon_cfg=None) -> dict:
    m, n = size
    algos = sorted({meta["algorithm"] for meta in runs if (meta["m"], meta["n"]) == size})
    series: dict[str, list[list[dict]]] = {
        algo: [
            traces[meta["file"]]
            for meta in runs
            if meta["algorithm"] == algo and (meta["m"], meta["n"]) == size
        ]
        for algo in algos
    }

    # mean objective per iteration index (over the trials that reached it)
    max_k = max(len(rows) for all_rows in series.values() for rows in all_rows)
    iter_lines = ["k," + ",".join(algos)]
    for k in range(max_k):
        vals = []
        for algo in algos:
            per_trial = [_row_objective(rows[min(k, len(rows) - 1)]) for rows in series[algo]]
            vals.append(statistics.fmean(per_trial))
        iter_lines.append(",".join([str(k)] + [format(v, ".17g") for v in vals]))
    iters_path = out / f"plot_iters_{m}x{n}.csv"
    _atomic_write_text(iters_path, "\n".join(iter_lines) + "\n")

    # mean objective on a shared time grid, last observation carried forward;
    # the grid spans the configured wall-clock budget when there is one,
    # else the longest observed run
    horizon = horizon_cfg if horizon_cfg is not None else max(
        rows[-1]["time_s"] for all_rows in series.values() for rows in all_rows
    )
    grid = [horizon * j / 99.0 for j in range(100)] if horizon > 0 else [0.0]
    # a trace's time_s is non-decreasing, so bisection finds the last row at
    # or before t (the first row when none is)
    times = {algo: [[row["time_s"] for row in rows] for rows in series[algo]]
             for algo in algos}
    time_lines = ["time_s," + ",".join(algos)]
    for t in grid:
        vals = []
        for algo in algos:
            per_trial = [
                _row_objective(rows[max(bisect.bisect_right(ts, t) - 1, 0)])
                for rows, ts in zip(series[algo], times[algo])
            ]
            vals.append(statistics.fmean(per_trial))
        time_lines.append(",".join([format(t, ".17g")] + [format(v, ".17g") for v in vals]))
    time_path = out / f"plot_time_{m}x{n}.csv"
    _atomic_write_text(time_path, "\n".join(time_lines) + "\n")
    return {"time": time_path, "iters": iters_path}

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
the last digits: over 2000 iterations the iadmm(0.5,0.5) run of the desk
grid's first cell ends at 1124.847663013638 with one thread and at
1124.8476630136417 with two.  Wall-time columns are machine-dependent by
nature.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import statistics
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
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
from .solver import (
    SolverConfig, TraceFormatError, read_trace_csv, run, validate_config, write_trace_csv,
)

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
        if not self.sizes or any(len(size) != 2 or min(size) < 1 for size in self.sizes):
            raise ConfigError(f"sizes must be [m, n] pairs with m, n >= 1, got {self.sizes}")
        if self.datasets_per_size < 1 or self.inits_per_dataset < 1:
            raise ConfigError("trial counts must be >= 1")
        if not self.variants and not self.include_gd:
            raise ConfigError("experiment needs at least one algorithm")
        # a label names trace files and summary rows
        labels = [v.label for v in self.variants]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"variants must have distinct labels, got {labels}")
        if (self.budget_iters is None) == (self.budget_seconds is None):
            raise ConfigError("budget needs exactly one of iters or seconds")
        budget = self.budget_seconds if self.budget_iters is None else self.budget_iters
        if not 0 <= budget < math.inf:
            raise ConfigError(f"budget must be finite and >= 0, got {budget}")

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

# how an error names the JSON values each field type takes
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _typed(key: str, kind: type, value):
    """``value`` as a ``kind``, if JSON typed it so (an integer is also a float);
    a ConfigError naming ``key`` otherwise."""
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, (int, float) if kind is float else kind)
            or kind is float and not math.isfinite(value)):
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return kind(value)


def _each(key: str, items, parse) -> tuple:
    """``parse`` of each of ``items``; a ConfigError naming ``key`` for a wrong shape."""
    try:
        return tuple(map(parse, items))
    except TypeError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def config_from_dict(raw: dict) -> ExperimentConfig:
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown experiment config keys: {sorted(unknown)}")
    kwargs: dict = {}
    # each scalar key takes the type of its field's default
    for f in fields(ExperimentConfig):
        if f.name in raw and f.name not in ("sizes", "variants"):
            kwargs[f.name] = _typed(f.name, type(f.default), raw[f.name])
    if "sizes" in raw:
        kwargs["sizes"] = _each("sizes", raw["sizes"],
                                lambda size: tuple(_typed("sizes", int, d) for d in size))
    if "variants" in raw:
        kwargs["variants"] = tuple(
            Variant(_typed("tau1", float, v.tau1), _typed("tau2", float, v.tau2),
                    _typed("inertial", bool, v.inertial))
            for v in _each("variants", raw["variants"], lambda v: Variant(**v))
        )
    if "budget" in raw:
        budget = raw["budget"]
        if not isinstance(budget, dict) or not set(budget) <= {"iters", "seconds"}:
            raise ConfigError(f"budget takes iters or seconds, got {budget!r}")
        for key, kind in (("iters", int), ("seconds", float)):
            kwargs[f"budget_{key}"] = (
                _typed(f"budget {key}", kind, budget[key]) if key in budget else None)
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: experiment config must be a JSON object")
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
        lam_row=cfg.lambda_row, lam_col=cfg.lambda_col,
    )
    u0, v0 = initial_factors(m, n, cfg.rank, init_seed)
    return inst, u0, v0


def _trace_name(size, dataset, init, label) -> str:
    m, n = size
    safe = label.replace("(", "_").replace(")", "").replace(",", "_")
    return f"trace_{m}x{n}_d{dataset}_i{init}_{safe}.csv"


def _run_one(cfg: ExperimentConfig, cell: tuple, inputs: tuple,
             variant: Optional[Variant], out_dir: Path) -> dict:
    """Execute one (cell, algorithm) run and write its trace; returns metadata.

    ``variant`` None is the gd baseline.  ``inputs`` is the cell's shared
    (instance, U0, V0); their hash is taken just before the run starts.
    """
    size_idx, dataset, init = cell
    m, n = cfg.sizes[size_idx]
    inst, u0, v0 = inputs
    label = "gd" if variant is None else variant.label
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
    if variant is None:
        *_, trace = gd_run(u0, v0, inst, max_iters=cfg.budget_iters,
                           max_seconds=cfg.budget_seconds)
        meta.update(iterations=trace[-1].k, stop_reason="budget")
    else:
        result = run(
            make_problem(inst),
            cfg.solver_config(variant),
            [u0, v0],
            extra_metrics={"model_objective": model_objective_metric(inst)},
        )
        trace, constants = result.trace, result.constants
        meta.update(
            asdict(variant),
            iterations=result.iterations,
            stop_reason=result.stop_reason,
            beta=cfg.beta,
            b1=cfg.b1,
            b2=cfg.b2,
            delta=constants.delta,
            c1=constants.c1,
            c3=constants.c3,
            gate_warnings=list(constants.warnings),
        )
    meta["final_objective"] = trace[-1].extras["model_objective"]
    write_trace_csv(out_dir / meta["file"], trace)
    return meta


def _run_cell(cfg: ExperimentConfig, cell: tuple, algorithms: Sequence[Optional[Variant]],
              out_dir: Path, pool) -> list[dict]:
    """Build one cell's inputs once and run every algorithm on them.

    Raises RuntimeError when the runs saw different inputs, including when
    a run wrote into the shared arrays.
    """
    inputs = _cell_inputs(cfg, *cell)

    def one(variant: Optional[Variant]) -> dict:
        return _run_one(cfg, cell, inputs, variant, out_dir)

    runs = list(map(one, algorithms) if pool is None else pool.map(one, algorithms))
    hashes = {meta["input_sha256"] for meta in runs} | {_inputs_sha256(inputs)}
    if len(hashes) != 1:
        raise RuntimeError(f"variants saw different inputs in cell {cell}")
    return runs


def run_experiment(cfg: ExperimentConfig, out_dir, jobs: int = 1) -> dict:
    """Run the full grid, write traces + manifest + summary + plot data.

    The rank, the density and every variant are validated before the
    output directory is created; a validation error aborts the whole
    experiment and leaves no output.  The gate check uses the largest L_G a
    0/1 data matrix can have, so it holds for every cell of the grid.
    Cells run one at a time, each on inputs built once; ``jobs`` > 1 runs a
    cell's algorithms on a thread pool.
    Every run builds a private problem instance, and the manifest order
    (hence all outputs) is independent of scheduling.  Returns the summary
    document.
    """
    # validate the data and every variant up front: the probe holds the grid's
    # rank and a data matrix whose L_G = max(1, c)/4 is the largest any 0/1
    # matrix has; both gate inequalities hold on an interval [0, r] of L_G, so
    # a variant that passes here passes on every cell
    generate_matrix(0, 0, cfg.density, 0)
    probe = make_problem(LogMfInstance(
        y=np.array([[0.0, 1.0]]), rank=cfg.rank, c=cfg.c, lam_row=cfg.lambda_row,
        lam_col=cfg.lambda_col,
    ))
    for variant in cfg.variants:
        validate_config(cfg.solver_config(variant), probe)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # None is the gd baseline
    algorithms = list(cfg.variants) + ([None] if cfg.include_gd else [])
    cells = [
        (size_idx, dataset, init)
        for size_idx in range(len(cfg.sizes))
        for dataset in range(cfg.datasets_per_size)
        for init in range(cfg.inits_per_dataset)
    ]
    with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        runs = [meta for cell in cells for meta in _run_cell(cfg, cell, algorithms, out, pool)]

    manifest = {"config": cfg.echo(), "runs": runs}
    _atomic_write_text(
        out / "runs_manifest.json",
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
    )
    summary, _ = summarize(out)
    return summary


def read_manifest(out: Path) -> dict:
    """The experiment's ``runs_manifest.json`` in ``out``.

    Raises :class:`~iadmm.solver.TraceFormatError`, naming the file, when it
    lists no runs: its JSON is not an object, or its ``runs`` is empty or
    missing.
    """
    path = out / "runs_manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict) or not manifest.get("runs"):
        raise TraceFormatError(f"manifest {path} lists no runs")
    return manifest


def summarize(trace_dir) -> tuple[dict, dict]:
    """Recompute the summary and plot data from stored traces.

    Reads the manifest for run metadata, then every trace CSV; final
    objectives come from the traces' model_objective column (falling back
    to the objective column).  A run whose manifest ``stop_reason`` is
    ``nonfinite`` is left out of its group's mean, std, n_trials and plot
    means; a group with no other run reports n_trials 0, mean and std null,
    and a plot column of nan.  Writes summary.json and per-size plot CSVs;
    returns (summary document, {size: {"time": path, "iters": path}}).
    """
    out = Path(trace_dir)
    manifest = read_manifest(out)

    # each finite run's trace, grouped by (algorithm, m, n) in manifest order
    groups: dict[tuple[str, int, int], list[list[dict]]] = {}
    for meta in manifest["runs"]:
        traces = groups.setdefault((meta["algorithm"], meta["m"], meta["n"]), [])
        if meta.get("stop_reason") != "nonfinite":
            traces.append(read_trace_csv(out / meta["file"]))

    summary_rows = []
    by_size: dict[tuple[int, int], dict[str, list[list[dict]]]] = {}
    for (algorithm, m, n), traces in sorted(groups.items()):
        finals = [_row_objective(rows[-1]) for rows in traces]
        mean = std = None
        if finals:
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
        by_size.setdefault((m, n), {})[algorithm] = traces
    summary = {
        "experiment": manifest["config"],
        "rows": summary_rows,
        "provenance": {
            "master_seed": manifest["config"]["master_seed"],
            "version": __version__,
        },
    }
    _atomic_write_text(out / "summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")

    horizon_cfg = manifest["config"].get("budget", {}).get("seconds")
    plot_paths = {
        size: _write_plot_data(out, size, by_size[size], horizon_cfg) for size in sorted(by_size)
    }
    return summary, plot_paths


def _mean(values) -> float:
    """The mean of ``values``; nan when there are none."""
    values = list(values)
    return statistics.fmean(values) if values else math.nan


def _row_objective(row: dict) -> float:
    """The trace row's model_objective, falling back to its objective."""
    return row.get("model_objective", row["objective"])


def _write_plot_data(out: Path, size, series: dict, horizon_cfg=None) -> dict:
    """Write one size's plot CSVs from ``series``, {algorithm: its traces' rows}."""
    m, n = size
    traces = [rows for all_rows in series.values() for rows in all_rows]
    # a trace shorter than the longest carries its last row forward
    iters = range(max(map(len, traces), default=1))
    iters_path = _write_plot_file(out / f"plot_iters_{m}x{n}.csv", "k", series, iters,
                                  map(str, iters), lambda rows, k: min(k, len(rows) - 1))

    # the time grid spans the configured wall-clock budget when there is one,
    # else the longest observed run
    horizon = horizon_cfg if horizon_cfg is not None else max(
        (rows[-1]["time_s"] for rows in traces), default=0.0
    )
    grid = [horizon * j / 99.0 for j in range(100)] if horizon > 0 else [0.0]

    def last_row_at(rows, t):
        # time_s is non-decreasing, so bisection finds the last row at or
        # before t (the first row when none is)
        return max(bisect.bisect_right(rows, t, key=lambda row: row["time_s"]) - 1, 0)

    time_path = _write_plot_file(out / f"plot_time_{m}x{n}.csv", "time_s", series, grid,
                                 (format(t, ".17g") for t in grid), last_row_at)
    return {"time": time_path, "iters": iters_path}


def _write_plot_file(path: Path, column: str, series: dict, points, labels, pick) -> Path:
    """One CSV line per point: its label, then each algorithm's mean objective
    over all its traces, each read at row ``pick(rows, point)`` (nan for an
    algorithm without traces)."""
    algos = sorted(series)
    lines = [",".join([column, *algos])]
    for point, label in zip(points, labels):
        means = (_mean(_row_objective(rows[pick(rows, point)])
                       for rows in series[algo]) for algo in algos)
        lines.append(",".join([label, *(format(v, ".17g") for v in means)]))
    _atomic_write_text(path, "\n".join(lines) + "\n")
    return path

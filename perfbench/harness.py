"""Operations and measurement loops of the benchmark (see run.py).

Imported only after run.py has fixed the BLAS thread count and put the
repository's ``src/`` first on the import path.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import iadmm
from iadmm import bench, logmf
from iadmm.rng import derive_seed

import oracle
import tracer as tracing

END_TO_END_UNITS = {
    "setup_s": "s", "grid_wall_s": "s", "solve_ms_per_iter": "ms/iter", "peak_rss_mb": "MB",
}
LEVELS = ("off", "cheap", "full")


def per_layer_units() -> dict:
    units = {"rng.inputs.calls": "count", "rng.inputs.ms": "ms"}
    for name in ("logmf.block_penalty_lipschitz", "logmf.y_value", "logmf.y_grad",
                 "logmf.model_objective", "logmf.coupling_value", "logmf.coupling_jac_t",
                 "logmf.separable_prox", "core.augmented_lagrangian", "core.objective_value"):
        units[f"{name}.calls_per_iter"] = "calls/iter"
        units[f"{name}.ms_per_iter"] = "ms/iter"
    units["logmf.gd_run.ms_per_iter"] = "ms/iter"
    for level in LEVELS:
        units[f"solver.run.ms_per_iter.{level}"] = "ms/iter"
    for level in LEVELS[1:]:
        units[f"solver.check.ms_per_iter.{level}"] = "ms/iter"
    for name in ("update_block", "update_multiplier", "self"):
        units[f"solver.{name}.ms_per_iter"] = "ms/iter"
    for name in ("update_y", "lyapunov_value"):
        units[f"solver.{name}.calls_per_iter"] = "calls/iter"
    units.update({
        "bench.write_trace_csv.ms_per_run": "ms/run", "bench.summarize.ms": "ms",
        "bench.self.ms": "ms", "bench.run.ms_median": "ms", "bench.busy_share": "ratio",
        "tracing.overhead_ratio": "ratio",
    })
    return units


class Bench:
    """One workload's cells, built once, and the operations run on them."""

    def __init__(self, workload, seed: int, out_dir: Path):
        self.wl = workload
        self.cfg = bench.config_from_dict(dict(workload.config, master_seed=seed))
        self.out_dir = out_dir
        self.cells = {}
        self.input_calls, input_s = 0, 0.0
        cfg = self.cfg
        for size_idx, (m, n) in enumerate(cfg.sizes):
            for d in range(cfg.datasets_per_size):
                for i in range(cfg.inits_per_dataset):
                    # the seed derivation bench uses for cell (size, dataset, init)
                    t = time.perf_counter()
                    y = logmf.generate_matrix(m, n, cfg.density, derive_seed(seed, 0, size_idx, d))
                    u0, v0 = logmf.initial_factors(m, n, cfg.rank,
                                                   derive_seed(seed, 1, size_idx, d, i))
                    input_s += time.perf_counter() - t
                    self.input_calls += 2
                    inst = logmf.LogMfInstance(y=y, rank=cfg.rank, c=cfg.c,
                                               lam_row=cfg.lambda_row,
                                               lam_col=cfg.lambda_col, beta=cfg.beta)
                    self.cells[(m, n, d, i)] = {
                        "y": y, "u0": u0, "v0": v0, "inst": inst,
                        "problem": logmf.make_problem(inst),
                        "reference": oracle.factor_objective(
                            u0, v0, y, cfg.c, cfg.lambda_row, cfg.lambda_col),
                    }
        self.input_ms = 1e3 * input_s
        self.n_grid_ops = len(self.cells) * (len(cfg.variants) + int(cfg.include_gd))
        # the y-step modulus delta = L_G + beta lambda_min(B^T B), B = -I here
        self.delta = {
            key: oracle.loss_lipschitz(cell["y"], cfg.c) + cfg.beta
            for key, cell in self.cells.items()
        } if cfg.check_level == "full" else None

    def grid(self, tracer=None) -> tuple[float, int, dict | None]:
        """One run_experiment; returns (wall seconds, failed ops, layer metrics)."""
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        layers = None
        try:
            if tracer is None:
                t = time.perf_counter()
                bench.run_experiment(self.cfg, self.out_dir)
                wall = time.perf_counter() - t
            else:
                with tracing.patched(tracer), tracer.span("grid") as root:
                    bench.run_experiment(self.cfg, self.out_dir)
                wall = root[tracing.END] - root[tracing.START]
                layers = tracing.grid_metrics(tracer, root)
            failed = self.n_grid_ops - self._passed_runs()
        except Exception:
            traceback.print_exc()
            return float("nan"), self.n_grid_ops, None
        return wall, failed, layers

    def _passed_runs(self) -> int:
        manifest = json.loads((self.out_dir / "runs_manifest.json").read_text())
        iters = self.cfg.budget_iters
        passed = 0
        for meta in manifest["runs"]:
            key = (meta["m"], meta["n"], meta["dataset"], meta["init"])
            failures = oracle.check_run(
                oracle.read_trace(self.out_dir / meta["file"]), iters,
                meta["algorithm"] == "gd", self.cells[key]["reference"],
                self.delta[key] if self.delta else None,
            )
            for msg in failures:
                print(f"FAIL {meta['file']}: {msg}", file=sys.stderr)
            passed += not failures
        return passed

    def solve(self, level: str) -> tuple[float, int]:
        """One library solve on the first cell; returns (ms per iteration, failed)."""
        cfg = self.cfg
        cell = next(iter(self.cells.values()))
        scfg = iadmm.SolverConfig(
            beta=cfg.beta, tau1=0.1, tau2=0.1, b1=cfg.b1, b2=cfg.b2, nu=cfg.nu,
            extrapolation="nesterov", max_iters=cfg.budget_iters, check_level=level,
            enforce_gate=cfg.enforce_gate,
        )
        metric = {"model_objective": logmf.model_objective_metric(cell["inst"])}
        try:
            t = time.perf_counter()
            res = iadmm.run(cell["problem"], scfg, [cell["u0"], cell["v0"]],
                            extra_metrics=metric)
            ms = 1e3 * (time.perf_counter() - t) / res.iterations
        except Exception:
            traceback.print_exc()
            return float("nan"), 1
        last = res.trace[-1]
        final = {"objective": last.objective, "feas": last.feas,
                 "aug_lagrangian": last.aug_lagrangian,
                 "model_objective": last.extras["model_objective"]}
        failures = [] if res.iterations == cfg.budget_iters else [
            f"{res.iterations} iterations, budget {cfg.budget_iters}"]
        failures += oracle.check_solve(
            res.x[0], res.x[1], res.y, res.omega, final, cell["y"], cfg.c,
            cfg.lambda_row, cfg.lambda_col, cfg.beta)
        for msg in failures:
            print(f"FAIL library solve ({level}): {msg}", file=sys.stderr)
        return ms, int(bool(failures))


def _median(values):
    values = [v for v in values if v == v]
    return statistics.median(values) if values else float("nan")


def measure_end_to_end(b: Bench, seconds: float, setup_s: float) -> tuple[int, int, dict]:
    walls, solve_ms = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        wall, bad, _ = b.grid()
        walls.append(wall)
        attempted += b.n_grid_ops
        failed += bad
        for _ in range(b.wl.lib_repeats):
            ms, bad = b.solve(b.cfg.check_level)
            solve_ms.append(ms)
            attempted += 1
            failed += bad
        print(f"round {len(walls)}: grid {wall:.4f} s, solves "
              + " ".join(f"{ms:.4f}" for ms in solve_ms[-b.wl.lib_repeats:]) + " ms/iter",
              file=sys.stderr)
        if time.perf_counter() >= deadline:
            break
    values = {
        "setup_s": setup_s,
        "grid_wall_s": _median(walls),
        "solve_ms_per_iter": _median(solve_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return attempted, failed, values


def measure_layers(b: Bench, seconds: float, spans_path: Path) -> tuple[int, int, dict]:
    plain, traced, rounds = [], [], []
    sweep = {level: [] for level in LEVELS}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        wall, bad, _ = b.grid()
        plain.append(wall)
        tr = tracing.Tracer()
        wall, bad2, layers = b.grid(tr)
        traced.append(wall)
        last_spans = tracing.dump(tr)
        if layers is not None:
            rounds.append(layers)
        attempted += 2 * b.n_grid_ops
        failed += bad + bad2
        for level in LEVELS:
            for _ in range(b.wl.lib_repeats):
                ms, bad = b.solve(level)
                sweep[level].append(ms)
                attempted += 1
                failed += bad
        if time.perf_counter() >= deadline:
            break

    values: dict = {}
    for name in rounds[0] if rounds else ():
        got = [r[name] for r in rounds]
        values[name] = None if None in got else statistics.median(got)
    if values.get("rng.inputs.calls") is not None:  # add the set-up's builds
        values["rng.inputs.calls"] += b.input_calls
        values["rng.inputs.ms"] += b.input_ms
    run_ms = {level: _median(sweep[level]) for level in LEVELS}
    for level in LEVELS:
        values[f"solver.run.ms_per_iter.{level}"] = run_ms[level]
    for level in LEVELS[1:]:
        values[f"solver.check.ms_per_iter.{level}"] = run_ms[level] - run_ms["off"]
    values["tracing.overhead_ratio"] = _median(traced) / _median(plain)
    spans_path.write_text(json.dumps({"spans": last_spans}))
    return attempted, failed, values



"""Traced grids: per-layer counts, absent names, self time, metric list."""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from iadmm import bench, solver  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

ITERS = 6


def tiny_grid(out_dir):
    cfg = bench.ExperimentConfig(
        sizes=((9, 7),), rank=2, density=0.3, lambda_row=0.125, lambda_col=0.125,
        variants=(bench.Variant(0.1, 0.1, True),), include_gd=True,
        datasets_per_size=1, inits_per_dataset=2, budget_iters=ITERS,
        budget_seconds=None, master_seed=5, b2=0.9, check_level="off",
    )
    tr = tracing.Tracer()
    with tracing.patched(tr), tr.span("grid") as root:
        bench.run_experiment(cfg, out_dir)
    return tr, tracing.grid_metrics(tr, root)


def test_counts_and_restore(tmp_path):
    originals = {name: getattr(bench, name) for name in tracing.MODULE_TARGETS["iadmm.bench"]}
    tr, m = tiny_grid(tmp_path)
    # two factor blocks, one modulus each per iteration
    assert m["logmf.block_penalty_lipschitz.calls_per_iter"] == 2.0
    assert m["solver.update_y.calls_per_iter"] == 0.0
    # two cells x (generate_matrix + initial_factors) x two algorithms
    assert m["rng.inputs.calls"] == 8
    assert 0.0 < m["bench.busy_share"] <= 1.0
    assert all(v is not None for v in m.values())
    assert set(m) <= set(harness.per_layer_units())
    assert tr.absent == set()
    assert {name: getattr(bench, name) for name in originals} == originals


def test_missing_name_is_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(solver, "lyapunov_value")
    tr, m = tiny_grid(tmp_path)
    assert tr.absent == {"solver.lyapunov_value"}
    assert m["solver.lyapunov_value.calls_per_iter"] is None
    assert m["solver.update_block.ms_per_iter"] > 0.0


def test_self_time_subtracts_covered_part():
    span = [1, "p", 0.0, 10.0, None, 0, None]
    kids = [[2, "a", 1.0, 4.0, 1, 0, None], [3, "b", 3.0, 5.0, 1, 1, None],
            [4, "c", 9.0, 12.0, 1, 0, None]]
    assert tracing.self_time(span, kids) == pytest.approx(10.0 - 4.0 - 1.0)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()

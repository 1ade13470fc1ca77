import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from iadmm import bench
from iadmm.bench import (
    ExperimentConfig,
    Variant,
    config_from_dict,
    load_config,
    run_experiment,
    summarize,
)
from iadmm.cli import main as cli_main
from iadmm.core import ConfigError
from iadmm.solver import NSDP_RTOL, TRACE_COLUMNS, read_trace_csv


# a trace with no rows, a ragged row, wrong headers, a non-numeric cell, and
# a k cell that is not a whole number
MALFORMED_TRACES = {
    "header-only": ",".join(TRACE_COLUMNS) + "\n",
    "ragged": ",".join(TRACE_COLUMNS) + "\n0,0,1\n",
    "wrong-headers": "k,objective\n0,1\n",
    "non-numeric": ",".join(TRACE_COLUMNS) + "\n0,0,1,1,x,1,1,1,0,0,0\n",
    "k-nan": ",".join(TRACE_COLUMNS) + "\nnan,0,1,1,1,1,1,1,0,0,0\n",
    "k-inf": ",".join(TRACE_COLUMNS) + "\ninf,0,1,1,1,1,1,1,0,0,0\n",
}

# a manifest that lists no runs: an empty list, no list, and not a JSON object
EMPTY_MANIFESTS = {
    "no-runs": {"config": {"b1": 0.5, "tolerance": 0.0}, "runs": []},
    "runs-missing": {"config": {"b1": 0.5, "tolerance": 0.0}},
    "not-an-object": [],
}


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        sizes=((10, 8),),
        rank=2,
        density=0.25,
        variants=(Variant(0.1, 0.1, True), Variant(0.1, 0.1, False)),
        include_gd=True,
        datasets_per_size=1,
        inits_per_dataset=1,
        budget_iters=15,
        budget_seconds=None,
        master_seed=77,
        b2=0.9,
        check_level="cheap",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _without_time(trace_text: str) -> list[list[str]]:
    rows = [line.split(",") for line in trace_text.splitlines()]
    col = rows[0].index("time_s")
    return [row[:col] + row[col + 1:] for row in rows]


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"sizes": [[4, 4]], "typo_key": 1})

    def test_unknown_variant_key_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            config_from_dict({"variants": [{"tau1": 1, "tau2": 1, "bogus": 2}]})
        with pytest.raises(ConfigError, match=r"variant.*'tau1'"):
            config_from_dict({"variants": [{"tau2": 0.1}]})

    def test_budget_must_be_single_mode(self):
        with pytest.raises(ConfigError):
            config_from_dict({"budget": {"iters": 5, "seconds": 1.0}})

    @pytest.mark.parametrize("seconds", [-1.0, float("nan"), float("inf")])
    def test_seconds_budget_must_be_finite_and_nonnegative(self, seconds):
        # a grid of gd runs alone meets no validate_config, and would never stop
        with pytest.raises(ConfigError, match="budget"):
            ExperimentConfig(variants=(), budget_iters=None, budget_seconds=seconds)

    def test_round_trip_through_file(self, tmp_path):
        doc = {
            "sizes": [[6, 5]],
            "rank": 2,
            "density": 0.2,
            "variants": [{"tau1": 0.5, "tau2": 0.5}],
            "include_gd": False,
            "datasets_per_size": 1,
            "inits_per_dataset": 1,
            "budget": {"iters": 3},
            "master_seed": 5,
            "b2": 0.9,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        assert cfg.sizes == ((6, 5),)
        assert cfg.variants[0].label == "iadmm(0.5,0.5)"
        assert cfg.budget_iters == 3

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_include_gd_must_be_json_bool(self, value):
        with pytest.raises(ConfigError, match="include_gd"):
            config_from_dict({"include_gd": value})
        assert config_from_dict({"include_gd": False}).include_gd is False

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_enforce_gate_must_be_json_bool(self, value):
        with pytest.raises(ConfigError, match="enforce_gate"):
            config_from_dict({"enforce_gate": value})
        assert config_from_dict({"enforce_gate": False}).enforce_gate is False

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_variant_inertial_must_be_json_bool(self, value):
        with pytest.raises(ConfigError, match="inertial"):
            config_from_dict({"variants": [{"tau1": 0.5, "tau2": 0.5, "inertial": value}]})
        cfg = config_from_dict({"variants": [{"tau1": 0.5, "tau2": 0.5, "inertial": False}]})
        assert cfg.variants[0].inertial is False

    def test_labels(self):
        assert Variant(0.1, 0.1, True).label == "iadmm(0.1,0.1)"
        assert Variant(1.0, 1.0, False).label == "admm(1,1)"

    @pytest.mark.parametrize("name", ["desk_benchmark.json", "full_table.json"])
    def test_shipped_config_round_trips(self, name):
        path = Path(__file__).resolve().parents[1] / "scripts" / name
        cfg = load_config(path)
        assert json.loads(json.dumps(cfg.echo())) == json.loads(path.read_text())


class TestRunExperiment:
    def test_file_counts(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, tmp_path)
        traces = sorted(tmp_path.glob("trace_*.csv"))
        # 1 cell x (2 variants + gd)
        assert len(traces) == 3
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "runs_manifest.json").exists()
        assert (tmp_path / "plot_iters_10x8.csv").exists()
        assert (tmp_path / "plot_time_10x8.csv").exists()

    def test_two_cells_two_variants_no_gd(self, tmp_path):
        cfg = tiny_config(include_gd=False, inits_per_dataset=2)
        run_experiment(cfg, tmp_path)
        assert len(list(tmp_path.glob("trace_*.csv"))) == 4

    def test_summary_schema(self, tmp_path):
        cfg = tiny_config()
        summary = run_experiment(cfg, tmp_path)
        assert set(summary) == {"experiment", "rows", "provenance"}
        assert set(summary["provenance"]) == {"master_seed", "version"}
        for row in summary["rows"]:
            assert set(row) == {"algorithm", "m", "n", "mean", "std", "n_trials"}
            assert row["n_trials"] == 1
            assert row["std"] >= 0.0

    def test_determinism_byte_identical_summary(self, tmp_path):
        cfg = tiny_config(inits_per_dataset=2)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        sa = (tmp_path / "a" / "summary.json").read_bytes()
        sb = (tmp_path / "b" / "summary.json").read_bytes()
        assert sa == sb
        ia = (tmp_path / "a" / "plot_iters_10x8.csv").read_bytes()
        ib = (tmp_path / "b" / "plot_iters_10x8.csv").read_bytes()
        assert ia == ib

    def test_different_seed_changes_summary(self, tmp_path):
        run_experiment(tiny_config(), tmp_path / "a")
        run_experiment(tiny_config(master_seed=78), tmp_path / "b")
        sa = json.loads((tmp_path / "a" / "summary.json").read_text())
        sb = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert sa["rows"] != sb["rows"]

    def test_variant_fairness_shared_inputs(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, tmp_path)
        manifest = json.loads((tmp_path / "runs_manifest.json").read_text())
        hashes = {r["input_sha256"] for r in manifest["runs"]}
        assert len(hashes) == 1  # single cell: every algorithm saw the same inputs

    def test_jobs2_writes_same_bytes_as_jobs1(self, tmp_path):
        cfg = tiny_config(inits_per_dataset=2)
        run_experiment(cfg, tmp_path / "j1", jobs=1)
        run_experiment(cfg, tmp_path / "j2", jobs=2)
        names = sorted(p.name for p in (tmp_path / "j1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "j2").iterdir())
        for name in names:
            if name.startswith("plot_time_"):
                continue  # wall-time grid: machine-dependent by nature
            one = (tmp_path / "j1" / name).read_text()
            two = (tmp_path / "j2" / name).read_text()
            if name.startswith("trace_"):
                one, two = _without_time(one), _without_time(two)
            assert one == two, name

    def test_run_writing_into_shared_inputs_detected(self, tmp_path, monkeypatch):
        real_gd_run = bench.gd_run

        def writing_gd_run(u0, v0, inst, **kwargs):
            out = real_gd_run(u0, v0, inst, **kwargs)
            u0[0, 0] += 1.0
            return out

        monkeypatch.setattr(bench, "gd_run", writing_gd_run)
        with pytest.raises(RuntimeError, match="different inputs"):
            run_experiment(tiny_config(), tmp_path)

    def test_invalid_variant_aborts_before_running(self, tmp_path):
        cfg = tiny_config(variants=(Variant(1.0, 1.0, True),), b2=0.5)
        # classical multipliers at beta 1 violate the smoothness gate
        with pytest.raises(ConfigError):
            run_experiment(cfg, tmp_path / "out")
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_unknown_check_level_aborts_before_running(self, tmp_path):
        cfg = config_from_dict({"sizes": [[10, 8]], "rank": 2, "check_level": "bogus",
                                "budget": {"iters": 3}})
        with pytest.raises(ConfigError, match="check_level"):
            run_experiment(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_gate_checked_for_every_cell_before_output(self, tmp_path):
        # at c = 2 a cell holding a 1 has L_G = 1/2, which fails the gate for
        # (0.9, 0.9); an all-zero matrix (L_G = 1/4) lets it pass
        cfg = config_from_dict({
            "sizes": [[20, 20]], "rank": 3, "c": 2.0, "beta": 2.0, "b2": 0.9,
            "variants": [{"tau1": 0.5, "tau2": 0.5}, {"tau1": 0.9, "tau2": 0.9}],
            "include_gd": True, "budget": {"iters": 30},
        })
        with pytest.raises(ConfigError, match="smoothness gate"):
            run_experiment(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_gate_relaxation_allows_classical_run(self, tmp_path):
        cfg = tiny_config(variants=(Variant(1.0, 1.0, True),), enforce_gate=False)
        summary = run_experiment(cfg, tmp_path)
        assert summary["rows"]

    def test_trace_schema_and_model_objective(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, tmp_path)
        manifest = json.loads((tmp_path / "runs_manifest.json").read_text())
        for meta in manifest["runs"]:
            rows = read_trace_csv(tmp_path / meta["file"])
            assert rows[0]["k"] == 0
            assert "model_objective" in rows[-1]
            assert rows[-1]["model_objective"] == pytest.approx(
                meta["final_objective"], rel=1e-12
            )


class TestSummarize:
    def test_single_trace_stats(self, tmp_path):
        cfg = tiny_config(include_gd=False, variants=(Variant(0.1, 0.1, True),))
        run_experiment(cfg, tmp_path)
        summary, _ = summarize(tmp_path)
        row = summary["rows"][0]
        assert row["std"] == 0.0 and row["n_trials"] == 1

    def test_mean_and_sample_std(self, tmp_path):
        # two trials: mean and n-1 std recomputed from the traces
        cfg = tiny_config(include_gd=False, variants=(Variant(0.1, 0.1, True),),
                          inits_per_dataset=2)
        run_experiment(cfg, tmp_path)
        manifest = json.loads((tmp_path / "runs_manifest.json").read_text())
        finals = [r["final_objective"] for r in manifest["runs"]]
        summary, _ = summarize(tmp_path)
        row = summary["rows"][0]
        assert row["mean"] == pytest.approx(np.mean(finals), rel=1e-12)
        assert row["std"] == pytest.approx(np.std(finals, ddof=1), rel=1e-12)

    def test_plot_grids(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, tmp_path)
        time_lines = (tmp_path / "plot_time_10x8.csv").read_text().splitlines()
        iter_lines = (tmp_path / "plot_iters_10x8.csv").read_text().splitlines()
        assert time_lines[0].startswith("time_s,")
        assert len(time_lines) == 101  # header + 100 grid points
        assert iter_lines[0] == "k,admm(0.1,0.1),gd,iadmm(0.1,0.1)"
        assert len(iter_lines) == 17  # header + initial record + 15 iterations

    def test_plot_time_values_from_known_traces(self, tmp_path):
        # two trials of one algorithm on the grid 0.99 * j / 99; a row of the
        # first lands on grid point 10, the second starts after grid point 0
        header = "k,time_s,objective,aug_lagrangian,lyapunov,feas,stat_x_max,stat_y,dx,dy,domega"
        traces = {
            "a.csv": [(0.0, 10.0), (0.99 * 10 / 99.0, 6.0), (0.505, 2.0)],
            "b.csv": [(0.205, 8.0), (0.305, 4.0), (0.605, 0.0)],
        }
        for name, rows in traces.items():
            lines = [header] + [f"{k},{t!r},{obj!r},0,0,0,0,0,0,0,0"
                                for k, (t, obj) in enumerate(rows)]
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        manifest = {
            "config": {"budget": {"seconds": 0.99}, "master_seed": 0},
            "runs": [{"file": name, "algorithm": "algo", "m": 3, "n": 2}
                     for name in traces],
        }
        (tmp_path / "runs_manifest.json").write_text(json.dumps(manifest))
        _, paths = summarize(tmp_path)

        def carried(rows, t):
            return ([obj for s, obj in rows if s <= t] or [rows[0][1]])[-1]

        lines = paths[(3, 2)]["time"].read_text().splitlines()
        assert lines[0] == "time_s,algo"
        assert len(lines) == 101
        seen = set()
        for line in lines[1:]:
            t, value = map(float, line.split(","))
            want = (carried(traces["a.csv"], t) + carried(traces["b.csv"], t)) / 2
            assert value == want
            seen.add(value)
        assert seen == {9.0, 7.0, 5.0, 3.0, 1.0}

    def test_plot_iters_values_from_known_traces(self, tmp_path):
        # traces of unequal length: every trial counts at every k, a short one
        # with its last row carried forward
        traces = {"a.csv": [10.0, 6.0, 2.0], "b.csv": [8.0, 4.0], "c.csv": [7.0]}
        for name, objectives in traces.items():
            lines = [",".join(TRACE_COLUMNS)] + [
                f"{k},0,{obj!r},0,0,0,0,0,0,0,0" for k, obj in enumerate(objectives)]
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        manifest = {
            "config": {"budget": {"iters": 2}, "master_seed": 0},
            "runs": [{"file": "a.csv", "algorithm": "algo", "m": 3, "n": 2},
                     {"file": "b.csv", "algorithm": "algo", "m": 3, "n": 2},
                     {"file": "c.csv", "algorithm": "base", "m": 3, "n": 2}],
        }
        (tmp_path / "runs_manifest.json").write_text(json.dumps(manifest))
        _, paths = summarize(tmp_path)
        assert paths[(3, 2)]["iters"].read_text().splitlines() == [
            "k,algo,base", "0,9,7", "1,5,7", "2,3,7",
        ]

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            summarize(tmp_path)

    @staticmethod
    def _nan_grid(tmp_path, monkeypatch, poisoned):
        """A 10 x 8, rank-2 grid of two cells whose problems numbered in
        ``poisoned`` (in build order, 0 being the gate probe) get a G(y) that
        is NaN from its 5th call."""
        built, bench_make_problem = [], bench.make_problem

        def make_problem(inst):
            p = bench_make_problem(inst)
            built.append(p)
            if len(built) - 1 in poisoned:
                calls, y_value = [], p.y_value
                p.y_value = lambda w: math.nan if calls.append(1) or len(calls) >= 5 else y_value(w)
            return p

        monkeypatch.setattr(bench, "make_problem", make_problem)
        cfg = tiny_config(variants=(Variant(0.1, 0.1, True),), inits_per_dataset=2,
                          budget_iters=10)
        summary = run_experiment(cfg, tmp_path)
        manifest = json.loads((tmp_path / "runs_manifest.json").read_text())
        rows = {row["algorithm"]: row for row in summary["rows"]}
        return manifest["runs"], rows

    def test_nonfinite_runs_left_out_of_every_mean(self, tmp_path, monkeypatch):
        runs, rows = self._nan_grid(tmp_path, monkeypatch, poisoned={1, 2})
        solver_runs = [r for r in runs if r["algorithm"] != "gd"]
        assert [(r["stop_reason"], r["iterations"]) for r in solver_runs] == [("nonfinite", 4)] * 2
        assert rows["iadmm(0.1,0.1)"] == {
            "algorithm": "iadmm(0.1,0.1)", "m": 10, "n": 8, "mean": None, "std": None,
            "n_trials": 0}
        assert rows["gd"]["n_trials"] == 2 and math.isfinite(rows["gd"]["mean"])
        for kind, column in (("iters", "k"), ("time", "time_s")):
            lines = (tmp_path / f"plot_{kind}_10x8.csv").read_text().splitlines()
            assert lines[0] == f"{column},gd,iadmm(0.1,0.1)"
            assert all(line.endswith(",nan") and "nan," not in line for line in lines[1:])

    def test_only_the_nonfinite_run_is_left_out(self, tmp_path, monkeypatch):
        runs, rows = self._nan_grid(tmp_path, monkeypatch, poisoned={2})
        finite, stopped = [r for r in runs if r["algorithm"] != "gd"]
        assert (finite["stop_reason"], stopped["stop_reason"]) == ("max_iters", "nonfinite")
        row = rows["iadmm(0.1,0.1)"]
        assert (row["mean"], row["std"], row["n_trials"]) == (finite["final_objective"], 0.0, 1)
        trace = read_trace_csv(tmp_path / finite["file"])
        gd = [read_trace_csv(tmp_path / r["file"]) for r in runs if r["algorithm"] == "gd"]
        lines = (tmp_path / "plot_iters_10x8.csv").read_text().splitlines()
        for k, line in enumerate(lines[1:]):
            gd_mean = (gd[0][k]["model_objective"] + gd[1][k]["model_objective"]) / 2
            assert list(map(float, line.split(","))) == [k, gd_mean, trace[k]["model_objective"]]


class TestCli:
    def test_run_and_summarize_and_check(self, tmp_path, capsys):
        doc = {
            "sizes": [[10, 8]],
            "rank": 2,
            "density": 0.25,
            "variants": [
                {"tau1": 0.1, "tau2": 0.1, "inertial": True},
                {"tau1": 0.1, "tau2": 0.1, "inertial": False},
            ],
            "include_gd": True,
            "datasets_per_size": 1,
            "inits_per_dataset": 1,
            "budget": {"iters": 10},
            "master_seed": 3,
            "b2": 0.9,
            "check_level": "full",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
        assert cli_main(["summarize", "--out", str(out)]) == 0
        assert cli_main(["check", "--out", str(out)]) == 0
        checks = json.loads((out / "checks.json").read_text())
        assert any(c["name"] == "lyapunov_descent" and c["status"] == "passed"
                   for c in checks)
        assert any(c["name"] == "y_sufficient_decrease" for c in checks)
        for c in checks:
            assert set(c) == {"name", "passed", "worst_violation", "location",
                              "tolerance", "status", "file", "advisory"}

    def test_budget_override(self, tmp_path):
        doc = {
            "sizes": [[8, 6]], "rank": 2, "density": 0.25,
            "variants": [{"tau1": 0.1, "tau2": 0.1}], "include_gd": False,
            "datasets_per_size": 1, "inits_per_dataset": 1,
            "budget": {"iters": 50}, "master_seed": 1, "b2": 0.9,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                  "--budget-iters", "4"])
        manifest = json.loads((out / "runs_manifest.json").read_text())
        assert manifest["runs"][0]["iterations"] == 4

    def test_config_error_is_one_line(self, tmp_path, capsys):
        doc = {"sizes": [[10, 8]], "rank": 2, "check_level": "bogus", "budget": {"iters": 3}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "iadmm: error: check_level must be one of off, cheap, full, got 'bogus'"
        ]
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("case,key", [
        ({"rank": 2.7}, "rank"),
        ({"sizes": [[10.9, 8]]}, "sizes"),
        ({"budget": {"iters": 2.9}}, "budget iters"),
        ({"beta": "1.0"}, "beta"),
        ({"variants": [{"tau1": "0.1", "tau2": 0.1}]}, "tau1"),
        ({"lambda_row": float("nan")}, "lambda_row"),
        ({"budget": {"iters": -2}}, "budget"),
        ({"rank": "two"}, "rank"),
        ({"rank": 0}, "rank"),
        ({"density": 1.5}, "density"),
        ({"variants": [{"tau1": 0.1, "tau2": 0.1}, {"tau1": 0.1000001, "tau2": 0.1}]},
         "variants"),
        ({"sizes": 5}, "sizes"),
        ({"sizes": [5]}, "sizes"),
        ({"sizes": [[0, 8]]}, "sizes"),
    ], ids=["rank-fraction", "size-fraction", "iters-fraction", "beta-string", "tau1-string",
            "lambda-nan", "iters-negative", "rank-word", "rank-zero", "density-above-1",
            "labels-equal", "sizes-scalar", "sizes-flat", "size-zero"])
    def test_malformed_config_is_one_line_before_output(self, tmp_path, capsys, case, key):
        doc = {"sizes": [[10, 8]], "rank": 2, "density": 0.25, "datasets_per_size": 1,
               "inits_per_dataset": 1, "budget": {"iters": 3}, **case}
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=key):
            run_experiment(config_from_dict(doc), out)
        assert not out.exists()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("iadmm: error: ") and key in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "{tmp}/nope.json", "--out", "{tmp}/out"],
        ["run", "--config", "{tmp}/broken.json", "--out", "{tmp}/out"],
        ["check", "--out", "{tmp}/nodir"],
        ["summarize", "--out", "{tmp}/nodir"],
        ["run", "--config", "{tmp}", "--out", "{tmp}/out"],
        ["summarize", "--out", "{tmp}/broken.json"],
        *([cmd, "--out", f"{{tmp}}/{trace}"] for cmd in ("check", "summarize")
          for trace in MALFORMED_TRACES),
        *([cmd, "--out", f"{{tmp}}/{case}"] for cmd in ("check", "summarize")
          for case in EMPTY_MANIFESTS),
    ], ids=["missing-config", "broken-json", "check-nodir", "summarize-nodir",
            "config-is-dir", "out-is-file",
            *(f"{cmd}-{trace}" for cmd in ("check", "summarize") for trace in MALFORMED_TRACES),
            *(f"{cmd}-{case}" for cmd in ("check", "summarize") for case in EMPTY_MANIFESTS)])
    def test_missing_or_malformed_input_is_one_line(self, tmp_path, capsys, argv):
        (tmp_path / "broken.json").write_text('{"rank": 2,')
        for case, doc in EMPTY_MANIFESTS.items():
            (tmp_path / case).mkdir()
            (tmp_path / case / "runs_manifest.json").write_text(json.dumps(doc))
        for trace, text in MALFORMED_TRACES.items():
            (tmp_path / trace).mkdir()
            (tmp_path / trace / "a.csv").write_text(text)
            (tmp_path / trace / "runs_manifest.json").write_text(json.dumps({
                "config": {"b1": 0.5, "tolerance": 0.0},
                "runs": [{"algorithm": "iadmm(0.1,0.1)", "m": 10, "n": 8, "file": "a.csv"}],
            }))
        assert cli_main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("iadmm: error: ")
        assert not (tmp_path / "out").exists()

    def test_non_object_config_error_names_the_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "list.json"
        cfg_path.write_text("[1, 2]\n")
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"iadmm: error: {cfg_path}: experiment config must be a JSON object"
        ]
        assert not (tmp_path / "out").exists()

    def test_broken_config_error_names_the_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text('{"rank": 2,\n')
        with pytest.raises(ConfigError, match=r"^" + re.escape(str(cfg_path)) + ": "):
            load_config(cfg_path)
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"iadmm: error: {cfg_path}: ")

    @pytest.mark.parametrize("iters", [0, 1])
    def test_check_after_short_run_is_inconclusive(self, tmp_path, capsys, iters):
        doc = {"sizes": [[10, 8]], "rank": 2, "density": 0.25, "datasets_per_size": 1,
               "inits_per_dataset": 1, "budget": {"iters": iters}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli_main(["check", "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        checks = json.loads((out / "checks.json").read_text())
        lyapunov = [c for c in checks if c["name"] == "lyapunov_descent"]
        assert lyapunov and all(c["status"] == "inconclusive" for c in lyapunov)

    @pytest.mark.parametrize("warned", [True, False], ids=["gate-relaxed", "gated"])
    def test_check_reports_a_rising_lyapunov_value(self, tmp_path, capsys, warned):
        # two hand-written runs whose Lyapunov value rises from 1 to 2 at row 2
        rows = ["0,0,1,1,nan,1,1,1,0,0,0", "1,0,1,1,1,1,1,1,0,0,0", "2,0,1,1,2,1,1,1,0,0,0"]
        runs = []
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text("\n".join([",".join(TRACE_COLUMNS), *rows]) + "\n")
            runs.append({
                "algorithm": "iadmm(0.1,0.1)", "file": name, "delta": 1.0, "beta": 1.0,
                "tau1": 0.1, "tau2": 0.1,
                "gate_warnings": ["smoothness gate violated"] if warned else [],
            })
        manifest = {"config": {"b1": 0.5, "tolerance": 0.0}, "runs": runs}
        (tmp_path / "runs_manifest.json").write_text(json.dumps(manifest))
        assert cli_main(["check", "--out", str(tmp_path)]) == (0 if warned else 1)
        failed = "FAILED*" if warned else "FAILED"
        assert capsys.readouterr().out.splitlines() == [
            f"{failed:>12s}  lyapunov_descent         worst 5.000e-01  a.csv",
            "INCONCLUSIVE  theorem1_residual        worst nan  a.csv",
            f"{failed:>12s}  lyapunov_descent         worst 5.000e-01  b.csv",
            "INCONCLUSIVE  theorem1_residual        worst nan  b.csv",
        ]
        checks = json.loads((tmp_path / "checks.json").read_text())
        assert [(c["name"], c["status"], c["location"], c["advisory"]) for c in checks] == [
            ("lyapunov_descent", "failed", 2, warned),
            ("theorem1_residual", "inconclusive", None, False),
        ] * 2

    def test_interrupted_check_leaves_the_previous_checks_json(self, tmp_path, monkeypatch):
        row = "0,0,1,1,nan,1,1,1,0,0,0"
        (tmp_path / "a.csv").write_text(",".join(TRACE_COLUMNS) + "\n" + row + "\n")
        run_meta = {"algorithm": "iadmm(0.1,0.1)", "file": "a.csv", "delta": 1.0,
                    "beta": 1.0, "tau1": 0.1, "tau2": 0.1, "gate_warnings": []}
        manifest = {"config": {"b1": 0.5, "tolerance": 0.0}, "runs": [run_meta]}
        (tmp_path / "runs_manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "checks.json").write_text("previous\n")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(bench.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli_main(["check", "--out", str(tmp_path)])
        assert (tmp_path / "checks.json").read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.csv", "checks.json", "runs_manifest.json"]

    def test_jobs_below_one_is_a_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sizes": [[8, 6]], "rank": 2, "datasets_per_size": 1,
                                        "inits_per_dataset": 1, "budget": {"iters": 2}}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                      "--jobs", "0"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_seed_seconds_and_check_level_overrides(self, tmp_path):
        doc = {
            "sizes": [[8, 6]], "rank": 2, "density": 0.25,
            "variants": [{"tau1": 0.1, "tau2": 0.1}], "include_gd": False,
            "datasets_per_size": 1, "inits_per_dataset": 1,
            "budget": {"seconds": 2.0}, "master_seed": 1, "check_level": "off",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert load_config(cfg_path).budget_seconds == 2.0
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "9",
                         "--budget-secs", "0.05", "--check-level", "cheap"]) == 0
        manifest = json.loads((out / "runs_manifest.json").read_text())
        assert manifest["config"]["master_seed"] == 9
        assert manifest["config"]["budget"] == {"seconds": 0.05}
        assert manifest["config"]["check_level"] == "cheap"
        assert [meta["stop_reason"] for meta in manifest["runs"]] == ["max_seconds"]

    @pytest.mark.parametrize("budget,flag,echo,stop", [
        ({"seconds": 60.0}, ["--budget-iters", "3"], {"iters": 3}, "max_iters"),
        ({"iters": 10**6}, ["--budget-secs", "0.05"], {"seconds": 0.05}, "max_seconds"),
    ], ids=["iters-over-seconds", "seconds-over-iters"])
    def test_budget_flag_replaces_the_other_mode(self, tmp_path, budget, flag, echo, stop):
        doc = {
            "sizes": [[8, 6]], "rank": 2, "density": 0.25,
            "variants": [{"tau1": 0.1, "tau2": 0.1}], "include_gd": False,
            "datasets_per_size": 1, "inits_per_dataset": 1, "budget": budget,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out), *flag]) == 0
        manifest = json.loads((out / "runs_manifest.json").read_text())
        assert manifest["config"]["budget"] == echo
        assert [meta["stop_reason"] for meta in manifest["runs"]] == [stop]

    def test_check_tolerance_is_the_runtime_slack(self, tmp_path):
        doc = {"sizes": [[10, 8]], "rank": 2, "density": 0.25, "datasets_per_size": 1,
               "inits_per_dataset": 1, "budget": {"iters": 5}, "check_level": "full"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli_main(["check", "--out", str(out)]) == 0
        checks = json.loads((out / "checks.json").read_text())
        descent = [c for c in checks if c["name"] != "theorem1_residual"]
        assert {c["name"] for c in descent} == {"lyapunov_descent", "y_sufficient_decrease"}
        assert {c["tolerance"] for c in descent} == {NSDP_RTOL}

    def test_budget_flags_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(tmp_path / "cfg.json"), "--out",
                      str(tmp_path / "out"), "--budget-iters", "4", "--budget-secs", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,code", [
        (["gen-data", "--rows", "6", "--cols", "4", "--density", "0.5", "--out", "{tmp}/y"], 2),
        (["--help"], 0),
        (["check", "--out", "{tmp}", "--tol", "1e-6"], 2),
    ], ids=["gen-data-is-a-usage-error", "help", "check-tol-is-a-usage-error"])
    def test_subcommands_are_run_summarize_check(self, tmp_path, capsys, argv, code):
        with pytest.raises(SystemExit) as exc:
            cli_main([arg.format(tmp=tmp_path) for arg in argv])
        assert exc.value.code == code
        captured = capsys.readouterr()
        assert "{run,summarize,check}" in captured.out + captured.err
        assert not (tmp_path / "y").exists()


class TestBenchmarkContract:
    """What perfbench/run.py relies on: its wrapped names, a silent grid, and a
    correct, complete result line from one round of its smallest workload."""

    def test_traced_names_are_bound(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for module_name, targets in tracer.MODULE_TARGETS.items():
            module = importlib.import_module(module_name)
            missing = [name for name in targets if not hasattr(module, name)]
            assert not missing, f"{module_name} lacks {missing}"

    def test_grid_writes_nothing_to_stdout_or_stderr(self, tmp_path, capfd):
        run_experiment(tiny_config(check_level="full", budget_iters=3), tmp_path, jobs=2)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
    def test_one_round_reports_every_metric(self, trace, section):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "small-many", "--seed", "1",
             "--seconds", "0", "--trace", str(trace)],  # --seconds 0: one round
            cwd=root, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-4000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0, proc.stderr[-4000:]
        declared = json.loads((root / "BENCHMARK.json").read_text())[section]
        assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
        absent = [name for name, m in result["metrics"].items() if m.get("absent")]
        assert not absent

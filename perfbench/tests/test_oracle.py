"""Each oracle check passes a clean run and rejects a perturbed one.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import iadmm  # noqa: E402
from iadmm import logmf  # noqa: E402
from iadmm.solver import write_trace_csv  # noqa: E402

import oracle  # noqa: E402

M, N, RANK, ITERS = 14, 11, 3, 30
C, LAM, BETA = 1.0, 0.125, 1.0


@pytest.fixture(scope="module")
def cell():
    y = logmf.generate_matrix(M, N, 0.3, 11)
    u0, v0 = logmf.initial_factors(M, N, RANK, 12)
    inst = logmf.LogMfInstance(y=y, rank=RANK, c=C, lam_row=LAM, lam_col=LAM, beta=BETA)
    return y, u0, v0, inst


@pytest.fixture(scope="module")
def reference(cell):
    y, u0, v0, _ = cell
    return oracle.factor_objective(u0, v0, y, C, LAM, LAM)


@pytest.fixture(scope="module")
def solve(cell, tmp_path_factory):
    y, u0, v0, inst = cell
    cfg = iadmm.SolverConfig(beta=BETA, tau1=0.1, tau2=0.1, b2=0.9, max_iters=ITERS,
                             check_level="full")
    res = iadmm.run(logmf.make_problem(inst), cfg, [u0, v0],
                    extra_metrics={"model_objective": logmf.model_objective_metric(inst)})
    path = tmp_path_factory.mktemp("split") / "trace.csv"
    write_trace_csv(path, res.trace)
    return res, oracle.read_trace(path)


@pytest.fixture(scope="module")
def gd_trace(cell, tmp_path_factory):
    _, u0, v0, inst = cell
    _, _, trace = logmf.gd_run(u0, v0, inst, max_iters=ITERS)
    path = tmp_path_factory.mktemp("gd") / "trace.csv"
    write_trace_csv(path, trace)
    return oracle.read_trace(path)


def delta(y):
    return oracle.loss_lipschitz(y, C) + BETA


def perturbed(trace, column, k, fn):
    out = {name: col.copy() for name, col in trace.items()}
    out[column][k] = fn(out[column][k])
    return out


def final_of(res):
    last = res.trace[-1]
    return {"objective": last.objective, "feas": last.feas,
            "aug_lagrangian": last.aug_lagrangian,
            "model_objective": last.extras["model_objective"]}


def check_solve(res, y, x=None, w=None, omega=None, final=None):
    u, v = x if x is not None else (res.x[0], res.x[1])
    return oracle.check_solve(
        u, v, res.y if w is None else w, res.omega if omega is None else omega,
        final_of(res) if final is None else final, y, C, LAM, LAM, BETA)


def test_clean_runs_pass(cell, reference, solve, gd_trace):
    y = cell[0]
    res, trace = solve
    assert oracle.check_run(trace, ITERS, False, reference, delta(y)) == []
    assert oracle.check_run(gd_trace, ITERS, True, reference, None) == []
    assert check_solve(res, y) == []


def test_budget_rejects_short_run(solve, gd_trace):
    trace = solve[1]
    short = {name: col[:-1] for name, col in trace.items()}
    assert oracle.check_budget(short, ITERS, gd=False)
    assert oracle.check_budget(gd_trace, ITERS + 1, gd=True)


@pytest.mark.parametrize("column", ["feas", "lyapunov", "dy", "objective"])
def test_budget_rejects_non_finite(solve, column):
    bad = perturbed(solve[1], column, 7, lambda v: np.nan)
    assert oracle.check_budget(bad, ITERS, gd=False)


def test_budget_rejects_non_finite_gd(gd_trace):
    bad = perturbed(gd_trace, "stat_x_max", 3, lambda v: np.inf)
    assert oracle.check_budget(bad, ITERS, gd=True)


def test_start_rejects_other_inputs(solve, reference):
    bad = perturbed(solve[1], "model_objective", 0, lambda v: v * (1 + 1e-7))
    assert oracle.check_start(bad, reference)
    assert oracle.check_start(solve[1], reference * (1 + 1e-7))


def test_lyapunov_rejects_rise(solve):
    trace = solve[1]
    bad = perturbed(trace, "lyapunov", 12, lambda v: trace["lyapunov"][11] * (1 + 1e-6))
    assert oracle.check_lyapunov(bad)


def test_gd_rejects_rise(gd_trace):
    bad = perturbed(gd_trace, "objective", 9, lambda v: gd_trace["objective"][8] * (1 + 1e-9))
    assert oracle.check_gd_descent(bad)


def test_nonnegative_rejects_negative(gd_trace):
    bad = perturbed(gd_trace, "model_objective", ITERS, lambda v: -1e-12)
    assert oracle.check_nonnegative(bad)


def test_y_decrease_rejects_violation(cell, solve):
    trace = solve[1]
    bad = perturbed(trace, "al_after_y", 5, lambda v: trace["al_after_x"][5] + 1e-3)
    assert oracle.check_y_decrease(bad, delta(cell[0]))
    assert oracle.check_y_decrease(trace, delta(cell[0]) * 1e6)
    no_full = {k: v for k, v in trace.items() if k != "al_after_y"}
    assert oracle.check_y_decrease(no_full, delta(cell[0]))


def test_solve_rejects_perturbed_iterate(cell, solve):
    y = cell[0]
    res = solve[0]
    u, v = res.x[0], res.x[1]
    cases = {
        "model_objective": dict(x=(u * (1 + 1e-6), v)),
        "objective": dict(w=res.y + 1e-6),
        "aug_lagrangian": dict(omega=res.omega + 1e-3),
        "feas": dict(final=dict(final_of(res), feas=final_of(res)["feas"] * 1.01 + 1e-6)),
    }
    for name, kwargs in cases.items():
        failures = check_solve(res, y, **kwargs)
        assert any(name in f for f in failures), (name, failures)


def test_solve_rejects_non_finite_final(cell, solve):
    res = solve[0]
    final = dict(final_of(res), aug_lagrangian=np.nan)
    assert check_solve(res, cell[0], final=final)

"""Correctness oracle for the benchmark, written apart from ``iadmm``.

Every check takes plain arrays, trace rows read with :func:`read_trace` and
the cell's own data, and returns a list of failure messages (empty when the
run passed).  Comparisons use tolerances, not byte equality: a different
BLAS thread count moves the last digits of the same solve.

The logistic matrix factorization objective is recomputed here with
``np.logaddexp``, independently of the package's ``softplus``:

    f(U, V) = sum (1 + (c - 1) y) log(1 + exp(UV)) - c y UV
              + lam_row/2 ||U||^2 + lam_col/2 ||V||^2.
"""

from __future__ import annotations

import csv
import math

import numpy as np

FIXED_COLUMNS = (
    "k", "time_s", "objective", "aug_lagrangian", "lyapunov", "feas",
    "stat_x_max", "stat_y", "dx", "dy", "domega",
)
# columns a gradient-descent trace carries (the splitting ones are NaN there)
GD_COLUMNS = ("k", "time_s", "objective", "stat_x_max")
# undefined before the first iteration of a splitting run
SPLIT_UNDEFINED_AT_K0 = ("lyapunov", "stat_x_max")

START_RTOL = 1e-9       # k = 0 model objective against the oracle's own value
LYAPUNOV_RTOL = 1e-8    # allowed relative rise of the Lyapunov column
GD_RTOL = 1e-10         # allowed relative rise of the descent-lemma objective
Y_DECREASE_RTOL = 1e-8  # slack of the y-step sufficient decrease
FINAL_RTOL = 1e-9       # library solve: trace finals against recomputation


def read_trace(path) -> dict:
    """Trace CSV as {column: float64 array}."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: data[:, j] for j, name in enumerate(header)}


def logistic_loss(w, y, c) -> float:
    return float(np.sum((1.0 + (c - 1.0) * y) * np.logaddexp(0.0, w) - c * y * w))


def regularizer(u, v, lam_row, lam_col) -> float:
    return 0.5 * lam_row * float(np.sum(u * u)) + 0.5 * lam_col * float(np.sum(v * v))


def factor_objective(u, v, y, c, lam_row, lam_col) -> float:
    return logistic_loss(u @ v, y, c) + regularizer(u, v, lam_row, lam_col)


def loss_lipschitz(y, c) -> float:
    """L_G = max (1 + (c - 1) y) / 4, the logistic loss's curvature bound."""
    return float(np.max(1.0 + (c - 1.0) * y) / 4.0)


def _close(a: float, b: float, rtol: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale, 1.0)


def check_budget(trace: dict, iters: int, gd: bool) -> list[str]:
    """The run spent its full iteration budget with finite fixed columns."""
    missing = [c for c in FIXED_COLUMNS if c not in trace]
    if missing:
        return [f"missing columns {missing}"]
    k = trace["k"]
    if len(k) != iters + 1 or not np.array_equal(k, np.arange(iters + 1)):
        return [f"expected iterations 0..{iters}, got {len(k)} rows"]
    failures = []
    for col in GD_COLUMNS if gd else FIXED_COLUMNS:
        vals = trace[col]
        if not gd and col in SPLIT_UNDEFINED_AT_K0:
            vals = vals[1:]
        if not np.all(np.isfinite(vals)):
            failures.append(f"non-finite {col} at k={int(np.argmin(np.isfinite(vals)))}")
    return failures


def check_start(trace: dict, reference: float) -> list[str]:
    """k = 0 model objective equals the oracle's objective of (Y, U0, V0)."""
    got = trace["model_objective"][0]
    if not _close(got, reference, START_RTOL):
        return [f"k=0 model_objective {got!r} != oracle {reference!r}"]
    return []


def check_nonnegative(trace: dict) -> list[str]:
    """The factor-space objective is a sum of nonnegative terms."""
    mo = trace["model_objective"]
    if np.any(mo < 0.0):
        return [f"model_objective {mo.min()!r} < 0"]
    return []


def _rises(values: np.ndarray, rtol: float) -> list[str]:
    prev, cur = values[:-1], values[1:]
    excess = cur - prev - rtol * np.maximum(np.abs(prev), 1.0)
    if np.any(excess > 0.0):
        j = int(np.argmax(excess))
        return [f"rises from {prev[j]!r} to {cur[j]!r} at step {j}->{j + 1}"]
    return []


def check_lyapunov(trace: dict) -> list[str]:
    """Splitting runs: the Lyapunov column never rises (gated variants)."""
    return [f"lyapunov {m}" for m in _rises(trace["lyapunov"][1:], LYAPUNOV_RTOL)]


def check_gd_descent(trace: dict) -> list[str]:
    """Gradient descent with exact block steps never raises the objective."""
    return [f"gd objective {m}" for m in _rises(trace["objective"], GD_RTOL)]


def check_y_decrease(trace: dict, delta: float) -> list[str]:
    """al_after_y + delta/2 dy^2 <= al_after_x, with delta = L_G + beta."""
    if "al_after_x" not in trace or "al_after_y" not in trace:
        return ["full-check columns al_after_x/al_after_y missing"]
    ax, ay, dy = trace["al_after_x"][1:], trace["al_after_y"][1:], trace["dy"][1:]
    excess = ay + 0.5 * delta * dy * dy - ax - Y_DECREASE_RTOL * (1.0 + np.abs(ax))
    if not np.all(np.isfinite(excess)) or np.any(excess > 0.0):
        j = int(np.argmax(np.where(np.isfinite(excess), excess, np.inf)))
        return [f"y sufficient decrease fails at k={j + 1} by {excess[j]!r}"]
    return []


def check_run(trace: dict, iters: int, gd: bool, reference: float,
              delta: float | None) -> list[str]:
    """Every check that applies to one grid run's trace."""
    failures = check_budget(trace, iters, gd)
    if failures:
        return failures
    if "model_objective" not in trace:
        return ["model_objective column missing"]
    failures += check_start(trace, reference) + check_nonnegative(trace)
    if gd:
        failures += check_gd_descent(trace)
    else:
        failures += check_lyapunov(trace)
        if delta is not None:
            failures += check_y_decrease(trace, delta)
    return failures


def check_solve(u, v, w, omega, final: dict, y, c, lam_row, lam_col, beta) -> list[str]:
    """Library solve: the final trace record agrees with a recomputation.

    ``final`` holds the last record's objective, feas, aug_lagrangian and
    model_objective; (u, v) are the factor blocks, ``w`` the logit matrix
    (the splitting variable) and ``omega`` the multiplier of UV - W = 0.
    """
    uv = u @ v
    r = uv - w
    feas = float(np.linalg.norm(r))
    objective = logistic_loss(w, y, c) + regularizer(u, v, lam_row, lam_col)
    expected = {
        "objective": (objective, 0.0),
        # the residual cancels UV against W, so its rounding scales with them
        "feas": (feas, float(np.linalg.norm(uv) + np.linalg.norm(w))),
        "aug_lagrangian": (
            objective + float(np.vdot(r, omega)) + 0.5 * beta * feas * feas, 0.0
        ),
        "model_objective": (factor_objective(u, v, y, c, lam_row, lam_col), 0.0),
    }
    failures = []
    for name, (want, scale) in expected.items():
        got = final[name]
        if not (math.isfinite(got) and _close(got, want, FINAL_RTOL, scale)):
            failures.append(f"final {name} {got!r} != recomputed {want!r}")
    return failures

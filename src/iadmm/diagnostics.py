"""Independent verification oracles and trace-level checkers.

These deliberately avoid the solver's own code paths: gradients come from
central differences, subproblem minimizers from grid search plus pattern
refinement, and the descent checkers only read recorded traces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Array, ConfigError
from .solver import SolverConfig, TraceRecord

MAX_GRID_POINTS = 10**7


def finite_diff_grad(f: Callable[[Array], float], x: Array, step: float) -> Array:
    """Central-difference gradient (f(x + h e_j) - f(x - h e_j)) / (2h)."""
    if step <= 0.0:
        raise ConfigError("finite-difference step must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for j in range(x.size):
        saved = xf[j]
        xf[j] = saved + step
        fp = f(x)
        xf[j] = saved - step
        fm = f(x)
        xf[j] = saved
        flat[j] = (fp - fm) / (2.0 * step)
    return grad


def brute_force_argmin(
    f: Callable[[Array], float],
    bounds: Sequence[tuple[float, float]],
    grid_points_per_dim: int,
) -> Array:
    """Grid argmin followed by deterministic pattern-search refinement.

    The refinement does coordinate moves of a shrinking step, halving until
    the step falls below spacing * 2**-24, and stays inside the box.  On
    smooth unimodal objectives this sharpens the grid minimizer to around
    1e-6 of the true one.
    """
    if grid_points_per_dim < 1:
        raise ConfigError("need at least one grid point per dimension")
    dims = len(bounds)
    if dims == 0:
        raise ConfigError("empty box")
    for lo, hi in bounds:
        if not lo <= hi:
            raise ConfigError(f"empty box: [{lo}, {hi}]")
    if grid_points_per_dim**dims > MAX_GRID_POINTS:
        raise ConfigError("grid too large")

    axes = [np.linspace(lo, hi, grid_points_per_dim) for lo, hi in bounds]
    best_val = math.inf
    best = None
    for point in itertools.product(*axes):
        arr = np.array(point)
        val = f(arr)
        if val < best_val:
            best_val = val
            best = arr
    spacing = max(
        (hi - lo) / max(grid_points_per_dim - 1, 1) for lo, hi in bounds
    )
    if spacing == 0.0:
        spacing = max(abs(hi) + abs(lo) for lo, hi in bounds) or 1.0

    x = best.copy()
    step = spacing
    min_step = spacing * 2.0**-24
    while step > min_step:
        improved = True
        while improved:
            improved = False
            for j in range(dims):
                for direction in (+step, -step):
                    cand = x.copy()
                    cand[j] = min(max(cand[j] + direction, bounds[j][0]), bounds[j][1])
                    val = f(cand)
                    if val < best_val:
                        best_val = val
                        x = cand
                        improved = True
        step *= 0.5
    return x


@dataclass
class CheckReport:
    """Outcome of one trace-level check.

    ``status`` is "passed", "failed", or "inconclusive" (preconditions not
    met, e.g. an unconverged run); ``passed`` is True only for "passed".
    ``worst_violation`` is NaN for inconclusive reports.
    """

    name: str
    passed: bool
    worst_violation: float
    location: Optional[int]
    tolerance: float
    status: str = "passed"


def _conclude(name: str, worst: float, location, tol: float) -> CheckReport:
    ok = worst <= tol
    return CheckReport(
        name=name,
        passed=bool(ok),
        worst_violation=float(worst),
        location=location,
        tolerance=float(tol),
        status="passed" if ok else "failed",
    )


def _inconclusive(name: str, tol: float) -> CheckReport:
    return CheckReport(
        name=name,
        passed=False,
        worst_violation=math.nan,
        location=None,
        tolerance=float(tol),
        status="inconclusive",
    )


def _get(row, field: str) -> float:
    if isinstance(row, TraceRecord):
        if field in row.extras:
            return float(row.extras[field])
        return float(getattr(row, field))
    return float(row[field])


def check_descent(
    trace: Sequence, kind: str, tol: float, delta: Optional[float] = None
) -> CheckReport:
    """Descent checks over a recorded trace.

    kind="lyapunov": the compound descent value never rises by more than
    tol * (1 + |previous|) between consecutive iterations.
    kind="y_sufficient_decrease": requires full-check traces carrying the
    intermediate Lagrangian columns al_after_x / al_after_y, plus the
    y-subproblem modulus ``delta``; asserts
    al_after_y + delta/2 * dy^2 <= al_after_x + tol * (1 + |al_after_x|).
    """
    if len(trace) < 2:
        raise ValueError("descent check needs at least two records")
    if kind == "lyapunov":
        values = [(i, _get(r, "lyapunov")) for i, r in enumerate(trace)]
        values = [(i, v) for i, v in values if math.isfinite(v)]
        if len(values) < 2:
            raise ValueError("trace carries no finite lyapunov values")
        worst = -math.inf
        where = None
        for (i0, prev), (i1, cur) in zip(values, values[1:]):
            violation = (cur - prev) / (1.0 + abs(prev))
            if violation > worst:
                worst = violation
                where = i1
        return _conclude("lyapunov_descent", worst, where, tol)
    if kind == "y_sufficient_decrease":
        if delta is None:
            raise ValueError("y_sufficient_decrease needs the modulus delta")
        worst = -math.inf
        where = None
        found = False
        for i, row in enumerate(trace):
            try:
                ax = _get(row, "al_after_x")
                ay = _get(row, "al_after_y")
                dy = _get(row, "dy")
            except (KeyError, AttributeError):
                continue
            if not (math.isfinite(ax) and math.isfinite(ay)):
                continue
            found = True
            violation = (ay + 0.5 * delta * dy * dy - ax) / (1.0 + abs(ax))
            if violation > worst:
                worst = violation
                where = i
        if not found:
            raise ValueError(
                "trace lacks al_after_x/al_after_y columns (record with full checks)"
            )
        return _conclude("y_sufficient_decrease", worst, where, tol)
    raise ValueError(f"unknown descent check kind {kind!r}")


def check_theorem1_residual(
    trace: Sequence, cfg: SolverConfig, tol: float
) -> CheckReport:
    """Limit-point consistency of the scaled multiplier update.

    At a converged run the final feasibility gap must equal
    (1 - tau1) / (tau2 beta) * ||omega|| up to tol * (feas + cfg.tolerance).
    Inconclusive when the final stationarity exceeds cfg.tolerance.
    """
    if not trace:
        raise ValueError("empty trace")
    last = trace[-1]
    feas = _get(last, "feas")
    stat = max(feas, _get(last, "stat_x_max"), _get(last, "stat_y"))
    if not math.isfinite(stat) or stat > cfg.tolerance:
        return _inconclusive("theorem1_residual", tol)
    omega_norm = _get(last, "omega_norm")
    target = (1.0 - cfg.tau1) / (cfg.tau2 * cfg.beta) * omega_norm
    scale = max(feas + cfg.tolerance, np.finfo(float).tiny)
    violation = abs(feas - target) / scale
    return _conclude("theorem1_residual", violation, len(trace) - 1, tol)

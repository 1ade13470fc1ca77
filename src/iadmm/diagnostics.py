"""Trace-level checks run by ``iadmm check``.

The checks only read recorded traces, never the solver's own code paths:
the Lyapunov and y-step descent, and the limit-point consistency of the
scaled multiplier update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .solver import SolverConfig, TraceRecord


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


def inconclusive(name: str, tol: float) -> CheckReport:
    """The report of a check whose preconditions the trace does not meet."""
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
        return inconclusive("theorem1_residual", tol)
    omega_norm = _get(last, "omega_norm")
    target = (1.0 - cfg.tau1) / (cfg.tau2 * cfg.beta) * omega_norm
    scale = max(feas + cfg.tolerance, np.finfo(float).tiny)
    violation = abs(feas - target) / scale
    return _conclude("theorem1_residual", violation, len(trace) - 1, tol)

"""Trace-level checks run by ``iadmm check``.

The checks only read recorded traces, never the solver's own code paths:
the Lyapunov and y-step descent, and the limit-point consistency of the
scaled multiplier update.  A trace is a sequence of rows, and a row maps
each column name to a float, as :func:`~iadmm.solver.read_trace_csv`
returns it and :meth:`~iadmm.solver.TraceRecord.row` builds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .solver import SolverConfig

Row = Mapping[str, float]


@dataclass
class CheckReport:
    """Outcome of one trace-level check.

    ``status`` is "passed", "failed", or "inconclusive" (preconditions not
    met, e.g. an unconverged run or a trace too short to judge);
    ``passed`` is True only for "passed".  ``worst_violation`` is NaN and
    ``location`` None for inconclusive reports.
    """

    name: str
    passed: bool
    worst_violation: float
    location: Optional[int]
    tolerance: float
    status: str = "passed"


def _verdict(name: str, violations: Iterable[tuple[int, float]], tol: float) -> CheckReport:
    """The report on the worst (row, violation) pair; the first row wins a tie.

    With no pair the trace cannot be judged, and the report is inconclusive.
    """
    location, worst = max(violations, key=lambda pair: pair[1], default=(None, math.nan))
    passed = location is not None and bool(worst <= tol)
    status = "inconclusive" if location is None else "passed" if passed else "failed"
    return CheckReport(name, passed, float(worst), location, float(tol), status)


def check_lyapunov_descent(rows: Sequence[Row], tol: float) -> CheckReport:
    """The compound descent value never rises by more than tol * (1 + |previous|).

    Row 0 may lack a value, because the solver records NaN there.  From row 1
    on, a non-finite value is a violation of +inf at its row; a finite value
    that follows a non-finite one is not compared.  Fewer than two values to
    compare make the report inconclusive.
    """
    values = [row["lyapunov"] for row in rows]
    violations = [
        (k, (cur - prev) / (1.0 + abs(prev)) if math.isfinite(cur) else math.inf)
        for k, (prev, cur) in enumerate(zip(values, values[1:]), 1)
        if math.isfinite(prev) or not math.isfinite(cur)
    ]
    return _verdict("lyapunov_descent", violations, tol)


def check_y_decrease(rows: Sequence[Row], delta: float, tol: float) -> CheckReport:
    """The y step decreases the Lagrangian sufficiently, with modulus ``delta``.

    Asserts al_after_y + delta/2 * dy^2 <= al_after_x + tol * (1 + |al_after_x|)
    at each row k >= 1 that carries al_after_x (traces recorded with full
    checks).  Row 0 is skipped, because the solver records NaN there; from
    row 1 on, a non-finite al_after_x, al_after_y or dy is a violation of +inf
    at its row.  Without such a row the report is inconclusive.
    """
    violations = []
    for k, row in enumerate(rows[1:], 1):
        if "al_after_x" in row:
            ax, ay, dy = row["al_after_x"], row["al_after_y"], row["dy"]
            finite = math.isfinite(ax) and math.isfinite(ay) and math.isfinite(dy)
            violations.append(
                (k, (ay + 0.5 * delta * dy * dy - ax) / (1.0 + abs(ax)) if finite else math.inf))
    return _verdict("y_sufficient_decrease", violations, tol)


def check_theorem1_residual(
    trace: Sequence[Row], cfg: SolverConfig, tol: float
) -> CheckReport:
    """Limit-point consistency of the scaled multiplier update.

    At a converged run the final feasibility gap must equal
    (1 - tau1) / (tau2 beta) * ||omega|| up to tol * (feas + cfg.tolerance).
    Inconclusive for an empty trace, and when the final stationarity exceeds
    cfg.tolerance.
    """
    if not trace:
        return _verdict("theorem1_residual", (), tol)
    last = trace[-1]
    feas = last["feas"]
    stat = max(feas, last["stat_x_max"], last["stat_y"])
    if not math.isfinite(stat) or stat > cfg.tolerance:
        return _verdict("theorem1_residual", (), tol)
    target = (1.0 - cfg.tau1) / (cfg.tau2 * cfg.beta) * last["omega_norm"]
    scale = max(feas + cfg.tolerance, np.finfo(float).tiny)
    return _verdict("theorem1_residual", [(len(trace) - 1, abs(feas - target) / scale)], tol)

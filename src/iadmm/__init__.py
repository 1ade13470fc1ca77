"""Inertial ADMM for nonconvex composite problems with nonlinear coupling.

Solver engine (:mod:`iadmm.solver`), problem containers (:mod:`iadmm.core`),
the logistic matrix factorization instance and baselines (:mod:`iadmm.logmf`),
trace checks run by ``iadmm check`` (:mod:`iadmm.diagnostics`), and the
benchmark harness (:mod:`iadmm.bench`, CLI in :mod:`iadmm.cli`).
"""

__version__ = "0.1.0"

from .core import (
    BlockTraits,
    ConfigError,
    DenseMap,
    DimensionError,
    InvariantViolation,
    LinearMap,
    ProblemSpec,
    Residuals,
    ScaledIdentity,
    augmented_lagrangian,
    constraint_residual,
    objective_value,
    stationarity_residuals,
)
from .solver import (
    CheckLevel,
    DerivedConstants,
    Extrapolation,
    IterateState,
    RunResult,
    SolverConfig,
    TraceRecord,
    UpdateRule,
    extrapolation_weight,
    lyapunov_value,
    nesterov_t_next,
    run,
    update_block,
    update_multiplier,
    update_y,
    validate_config,
)

__all__ = [
    "__version__",
    "BlockTraits",
    "ConfigError",
    "DenseMap",
    "DimensionError",
    "InvariantViolation",
    "LinearMap",
    "ProblemSpec",
    "Residuals",
    "ScaledIdentity",
    "augmented_lagrangian",
    "constraint_residual",
    "objective_value",
    "stationarity_residuals",
    "CheckLevel",
    "DerivedConstants",
    "Extrapolation",
    "IterateState",
    "RunResult",
    "SolverConfig",
    "TraceRecord",
    "UpdateRule",
    "extrapolation_weight",
    "lyapunov_value",
    "nesterov_t_next",
    "run",
    "update_block",
    "update_multiplier",
    "update_y",
    "validate_config",
]

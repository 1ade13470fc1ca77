"""Inertial ADMM engine for nonlinearly coupled composite problems.

One outer iteration performs, in order:

1. for each block i: extrapolate ``xbar_i = x_i + alpha_i dx_i`` along the
   block's last step ``dx_i = x_i - x_i_prev`` and minimize an inertial
   proximal surrogate of the augmented Lagrangian in that block (three
   update rules, see :class:`UpdateRule`);
2. a proximal-linearized step in the splitting variable
   ``y_new = (beta B^T B + L_G I)^{-1} (L_G y - grad_G(y) - B^T (omega + beta h(x_new)))``;
3. the scaled multiplier step
   ``omega_new = tau1 * omega + tau2 * beta * (h(x_new) + B y_new)``.

Extrapolation weights follow the capped Nesterov schedule: alpha_i is the
minimum of ``(t_prev - 1)/t_cur`` with ``t`` obeying the standard
``t = (1 + sqrt(1 + 4 t_prev^2))/2`` recurrence, and a cap that enforces the
per-block carry-over inequality ``gamma_i^k <= B1 * eta_i^{k-1}`` between the
proximal-descent coefficients of consecutive iterations.

The engine verifies its own behavior while running (``check_level``):
"cheap" recomputes the multiplier identity, the y-step normal equations and
each block's first-order optimality from fresh oracle calls every iteration;
"full" additionally asserts the per-block descent inequality and the y-step
sufficient decrease of the augmented Lagrangian.  Those Lagrangians are
assembled from values taken once per visited point: the x part of the
objective and h at each post-update block point (the last block's h is
also the h(x_new) of the y step), B y once per sweep, and the objective
and h(x) + B y after the y step, which the trace record reuses; G(y) of
that objective is carried into the next sweep.  Violations raise
:class:`~iadmm.core.InvariantViolation`.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    Array,
    BlockTraits,
    BlockVector,
    ConfigError,
    InvariantViolation,
    ProblemSpec,
    Residuals,
    augmented_lagrangian,  # not called here: perfbench/tracer.py wraps it in this module
    lagrangian_from_parts,
    norm,
    objective_from_parts,
    objective_value,  # not called here either, wrapped the same way
    stationarity_residuals,
    vdot,
    x_objective_value,
    y_stationarity,
)

TRACE_COLUMNS = (
    "k",
    "time_s",
    "objective",
    "aug_lagrangian",
    "lyapunov",
    "feas",
    "stat_x_max",
    "stat_y",
    "dx",
    "dy",
    "domega",
)

# floating-point slack for the runtime-verified invariants
MULTIPLIER_IDENTITY_RTOL = 1e-10
Y_OPTIMALITY_RTOL = 1e-9
BLOCK_OPTIMALITY_RTOL = 1e-8
NSDP_RTOL = 1e-8

_KAPPA_FLOOR = 1e-12


class UpdateRule(str, enum.Enum):
    """Block subproblem family.

    PENALTY_LINEARIZED: linearize the quadratic penalty ||h||^2/2 at the
        extrapolated point and keep f_i exact through its prox; any smooth
        coupled term must be folded into the prox oracle.  Proximal weight
        beta * kappa with kappa >= l_i, the block Lipschitz modulus of the
        penalty gradient.
    FULLY_LINEARIZED: linearize both the smooth term F and the penalty at
        the extrapolated point; weight kappa >= L_i + beta * l_i.
    PENALTY_EXACT: keep the quadratic penalty exact (solved by the
        problem's ``coupled_prox`` oracle) and linearize only F; weight
        kappa >= L_i.  The only rule usable when the penalty gradient is
        not block-Lipschitz.
    """

    PENALTY_LINEARIZED = "penalty_linearized"
    FULLY_LINEARIZED = "fully_linearized"
    PENALTY_EXACT = "penalty_exact"


class Extrapolation(str, enum.Enum):
    NONE = "none"
    NESTEROV = "nesterov"


class CheckLevel(str, enum.Enum):
    OFF = "off"
    CHEAP = "cheap"
    FULL = "full"


def _per_block(value, s: int, caster) -> tuple:
    if isinstance(value, (list, tuple)):
        if len(value) != s:
            raise ConfigError(f"per-block setting needs {s} entries, got {len(value)}")
        return tuple(caster(v) for v in value)
    return tuple(caster(value) for _ in range(s))


@dataclass
class SolverConfig:
    """Parameters of one solver run.

    ``tau1``/``tau2`` scale and step the multiplier update; classical dual
    ascent is tau1 = tau2 = 1.  ``b1`` bounds the extrapolation carry-over,
    ``b2`` the y-step carry-over, ``nu`` splits each block's proximal gap
    between the descent and carry-over coefficients.  Each block uses the
    exact proximal modulus kappa = l_i when its :class:`BlockTraits` admit
    it (linear coupling and a convex subproblem) and kappa = ``kappa_margin``
    * l_i otherwise; ``kappa_margin`` must exceed 1.  Per-block settings
    (``nu``, ``update_rule``) accept either a scalar or one entry per block.

    ``enforce_gate`` controls whether the scalar smoothness inequality
    ``8 C2 L_G^2 <= B2 C3`` rejects the configuration or merely emits a
    warning into :attr:`DerivedConstants.warnings` (descent of the
    compound Lyapunov value is then no longer guaranteed).
    """

    beta: float = 1.0
    tau1: float = 1.0
    tau2: float = 1.0
    b1: float = 0.9999
    b2: float = 0.5
    nu: float | Sequence[float] = 0.5
    kappa_margin: float = 1.01
    update_rule: str | Sequence[str] = UpdateRule.PENALTY_LINEARIZED
    extrapolation: str = Extrapolation.NESTEROV
    max_iters: Optional[int] = 1000
    max_seconds: Optional[float] = None
    tolerance: float = 0.0
    check_level: str = CheckLevel.CHEAP
    enforce_gate: bool = True

    def resolved(self, s: int) -> "ResolvedConfig":
        return ResolvedConfig(
            nu=_per_block(self.nu, s, float),
            update_rule=_per_block(self.update_rule, s, UpdateRule),
            extrapolation=Extrapolation(self.extrapolation),
            check_level=CheckLevel(self.check_level),
        )


@dataclass
class ResolvedConfig:
    nu: tuple[float, ...]
    update_rule: tuple[UpdateRule, ...]
    extrapolation: Extrapolation
    check_level: CheckLevel


@dataclass(frozen=True)
class DerivedConstants:
    """Scalar constants derived from (tau1, tau2, beta) and the problem.

    c1 weights the multiplier-gap carry-over, c2 the y-gap carry-over,
    delta is the strong-convexity modulus of the y subproblem, and
    c3 = delta/2 - 2 c2 L_G^2 is the net y-descent coefficient.
    """

    c1: float
    c2: float
    c3: float
    delta: float
    sigma_b: float
    warnings: tuple[str, ...] = ()


def validate_config(cfg: SolverConfig, p: ProblemSpec) -> DerivedConstants:
    """Check every scalar parameter condition and derive the constants.

    Raises :class:`~iadmm.core.ConfigError` naming the first violated
    condition.  The smoothness gate ``8 C2 L_G^2 <= B2 C3`` (and C3 > 0)
    is downgraded to a warning when ``cfg.enforce_gate`` is False.
    """
    r = cfg.resolved(p.s)
    beta, tau1, tau2 = cfg.beta, cfg.tau1, cfg.tau2
    if not beta > 0.0:
        raise ConfigError(f"beta must be positive, got {beta}")
    if not (0.0 < tau1 <= 1.0):
        raise ConfigError(f"tau1 must lie in (0, 1], got {tau1}")
    ratio = tau2 / tau1
    if not (0.0 < ratio < 2.0):
        raise ConfigError(f"tau2/tau1 must lie in (0, 2), got {ratio}")
    if not abs(tau1 - tau2) < 1.0:
        raise ConfigError(f"|tau1 - tau2| must be < 1, got {abs(tau1 - tau2)}")
    if not (0.0 < cfg.b1 < 1.0):
        raise ConfigError(f"b1 must lie in (0, 1), got {cfg.b1}")
    if not (0.0 < cfg.b2 < 1.0):
        raise ConfigError(f"b2 must lie in (0, 1), got {cfg.b2}")
    for i, nu in enumerate(r.nu):
        if not (0.0 < nu < 1.0):
            raise ConfigError(f"nu for block {i} must lie in (0, 1), got {nu}")
    if not cfg.kappa_margin > 1.0:
        raise ConfigError(f"kappa_margin must exceed 1, got {cfg.kappa_margin}")
    if cfg.max_iters is None and cfg.max_seconds is None:
        raise ConfigError("need an iteration or wall-clock budget (or both)")
    if cfg.tolerance < 0.0:
        raise ConfigError(f"tolerance must be >= 0, got {cfg.tolerance}")
    for i in range(p.s):
        _check_block_rule(p, r, i)

    sigma_b = p.lin_map.lambda_min_bbt
    if not sigma_b > 0.0:
        raise ConfigError(f"lambda_min(B B^T) must be positive, got {sigma_b}")
    lg = p.y_grad_lipschitz
    if lg < 0.0:
        raise ConfigError(f"L_G must be >= 0, got {lg}")

    gap = abs(tau1 - tau2)
    c1 = (tau1 + 1.0) * gap / (2.0 * sigma_b * tau2 * beta * (1.0 - gap))
    c2 = (tau1 + 1.0) * ratio / (
        2.0 * sigma_b * beta * (1.0 - gap) * (1.0 - abs(1.0 - ratio))
    )
    delta = lg + beta * p.lin_map.lambda_min_btb
    c3 = 0.5 * delta - 2.0 * c2 * lg * lg

    warnings: list[str] = []
    if not c3 > 0.0:
        msg = f"net y-descent coefficient C3 = {c3:.6g} must be positive"
        if cfg.enforce_gate:
            raise ConfigError(msg)
        warnings.append(msg)
    if not 8.0 * c2 * lg * lg <= cfg.b2 * c3:
        msg = (
            f"smoothness gate violated: 8 C2 L_G^2 = {8.0 * c2 * lg * lg:.6g} "
            f"> B2 C3 = {cfg.b2 * c3:.6g}"
        )
        if cfg.enforce_gate:
            raise ConfigError(msg)
        warnings.append(msg)
    return DerivedConstants(
        c1=c1, c2=c2, c3=c3, delta=delta, sigma_b=sigma_b, warnings=tuple(warnings)
    )


def _check_block_rule(p: ProblemSpec, r: ResolvedConfig, i: int) -> None:
    rule = r.update_rule[i]
    if rule in (UpdateRule.FULLY_LINEARIZED, UpdateRule.PENALTY_EXACT):
        if p.smooth_grad_block is None or p.block_smooth_lipschitz is None:
            raise ConfigError(
                f"block {i}: rule {rule.value} needs smooth_grad_block and "
                "block_smooth_lipschitz oracles"
            )
    if rule in (UpdateRule.PENALTY_LINEARIZED, UpdateRule.FULLY_LINEARIZED):
        if not p.traits(i).coupling_linear:
            raise ConfigError(
                f"block {i}: rule {rule.value} requires h linear in the block; "
                "use penalty_exact with a coupled_prox oracle otherwise"
            )
    if rule is UpdateRule.PENALTY_EXACT and p.coupled_prox is None:
        raise ConfigError(f"block {i}: rule penalty_exact needs a coupled_prox oracle")


def _exact_kappa_ok(rule: UpdateRule, traits: BlockTraits) -> bool:
    if not (traits.coupling_linear and traits.separable_convex):
        return False
    if rule is UpdateRule.PENALTY_LINEARIZED:
        return True
    return traits.smooth_convex


def nesterov_t_next(t_prev: float) -> float:
    """t -> (1 + sqrt(1 + 4 t^2)) / 2, the standard momentum recurrence."""
    if t_prev < 1.0:
        raise ConfigError(f"momentum scalar must be >= 1, got {t_prev}")
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev))


def extrapolation_weight(
    t_prev: float,
    t_cur: float,
    b1: float,
    nu: float,
    exact_kappa: bool,
    lip_prev: Optional[float],
    kappa_prev: Optional[float],
    lip_cur: float,
    kappa_cur: float,
) -> float:
    """Capped momentum weight min{(t_prev - 1)/t_cur, cap}.

    The cap enforces gamma_i^k <= b1 * eta_i^{k-1} for the coefficients of
    the current rule: b1 * sqrt(lip_prev / lip_cur) in the exact-modulus
    (convex, block-linear) case, and the solution of the quadratic
    carry-over inequality otherwise.  Returns 0 on the first iteration,
    when no previous modulus exists.
    """
    nesterov = (t_prev - 1.0) / t_cur
    if nesterov <= 0.0 or lip_prev is None:
        return 0.0
    if exact_kappa:
        if lip_cur <= 0.0 or lip_prev <= 0.0:
            return 0.0
        cap = b1 * math.sqrt(lip_prev / lip_cur)
    else:
        rho_prev = kappa_prev - lip_prev
        rho_cur = kappa_cur - lip_cur
        if rho_prev <= 0.0 or rho_cur <= 0.0:
            return 0.0
        cap = math.sqrt(b1 * nu * (1.0 - nu) * rho_cur * rho_prev) / (lip_cur + kappa_cur)
    return min(nesterov, cap)


def _descent_coefficients(
    rule: UpdateRule,
    exact_kappa: bool,
    beta: float,
    nu: float,
    lip: float,
    kappa: float,
    alpha: float,
) -> tuple[float, float]:
    """(eta, gamma) of the per-block descent inequality

        L(after) + eta ||dx_new||^2 <= L(before) + gamma ||dx_old||^2.

    The penalty-linearized rule scales by beta because its proximal weight
    is beta * kappa; the other two rules use the plain weight kappa.
    """
    scale = beta if rule is UpdateRule.PENALTY_LINEARIZED else 1.0
    if exact_kappa:
        eta = 0.5 * scale * lip
        gamma = 0.5 * scale * lip * alpha * alpha
    else:
        rho = scale * (kappa - lip)
        a = scale * (lip + kappa) * alpha
        eta = 0.5 * (1.0 - nu) * rho
        gamma = a * a / (2.0 * nu * rho) if alpha != 0.0 else 0.0
    return eta, gamma


@dataclass
class IterateState:
    """Current iterates, the steps that produced them, and per-block bookkeeping.

    ``dx`` (one array per block), ``dy`` and ``domega`` are the steps
    x - x_prev, y - y_prev and omega - omega_prev of the most recently
    completed iteration, zero before the first one.  The solver forms each
    step once, when it accepts the new iterate; the extrapolation, the
    descent check, the trace record and :func:`lyapunov_value` all read it.
    ``lip``/``kappa``/``alpha``/``eta`` hold the values used by
    the same iteration.  ``chi`` stores the separable subgradients
    recovered from the proximal identities.  ``coupling_cur`` holds h(x)
    at the current iterate for metric hooks.
    """

    x: BlockVector
    dx: list
    y: Array
    dy: Array
    omega: Array
    domega: Array
    k: int = 0
    t_prev: float = 1.0
    lip: list = field(default_factory=list)
    kappa: list = field(default_factory=list)
    alpha: list = field(default_factory=list)
    eta: list = field(default_factory=list)
    chi: list = field(default_factory=list)
    coupling_cur: Optional[Array] = None


@dataclass
class TraceRecord:
    """Per-iteration scalars; ``extras`` carries optional diagnostics."""

    k: int
    time_s: float
    objective: float
    aug_lagrangian: float
    lyapunov: float
    feas: float
    stat_x_max: float
    stat_y: float
    dx: float
    dy: float
    domega: float
    alpha: tuple[float, ...] = ()
    eta: tuple[float, ...] = ()
    extras: dict = field(default_factory=dict)

    def row(self) -> dict:
        base = {name: getattr(self, name) for name in TRACE_COLUMNS}
        base.update(self.extras)
        return base


@dataclass
class RunResult:
    x: BlockVector
    y: Array
    omega: Array
    trace: list
    constants: DerivedConstants
    stop_reason: str
    iterations: int
    wall_time_s: float
    eta_min: tuple[float, ...]
    eta_max: tuple[float, ...]


def lyapunov_value(
    p: ProblemSpec,
    cfg: SolverConfig,
    consts: DerivedConstants,
    state: IterateState,
    al: float,
) -> float:
    """Compound descent quantity tracked across iterations.

    ``al`` is the augmented Lagrangian at the current iterate; the value
    subtracts the multiplier-norm correction (1 - tau1) / (2 tau2 beta)
    ||omega||^2 and adds the carry-over terms b1 * eta_i ||dx_i||^2,
    c1 ||B^T domega||^2 and b2 c3 ||dy||^2, reading the steps stored in
    ``state``.  Defined only once a full iteration has run (k >= 1).
    """
    if state.k < 1:
        raise ConfigError("compound descent value is undefined before the first iteration")
    beta, tau1, tau2 = cfg.beta, cfg.tau1, cfg.tau2
    value = al - (1.0 - tau1) / (2.0 * tau2 * beta) * vdot(state.omega, state.omega)
    for i in range(p.s):
        value += cfg.b1 * state.eta[i] * vdot(state.dx[i], state.dx[i])
    domega_t = p.lin_map.apply_t(state.domega)
    value += consts.c1 * vdot(domega_t, domega_t)
    value += cfg.b2 * consts.c3 * vdot(state.dy, state.dy)
    return float(value)


def _block_modulus(
    p: ProblemSpec, rule: UpdateRule, beta: float, i: int, blocks: Sequence[Array]
) -> float:
    """Lipschitz modulus entering block i's subproblem under the given rule."""
    if rule is UpdateRule.PENALTY_LINEARIZED:
        return float(p.block_penalty_lipschitz(i, blocks))
    if rule is UpdateRule.FULLY_LINEARIZED:
        return float(p.block_smooth_lipschitz(i, blocks)) + beta * float(
            p.block_penalty_lipschitz(i, blocks)
        )
    return float(p.block_smooth_lipschitz(i, blocks))


def update_block(
    p: ProblemSpec,
    rule: UpdateRule,
    i: int,
    blocks: list,
    xbar: Array,
    dual_vec: Array,
    beta: float,
    kappa: float,
) -> tuple[Array, Array]:
    """Solve block i's subproblem; returns (new block, separable subgradient).

    ``blocks`` carries the current sweep values (earlier blocks already
    updated); ``dual_vec`` is omega + beta * B y at the sweep's start.
    The subgradient is the element of the separable part's subdifferential
    certified by the proximal identity (or, for the exact-penalty rule, by
    the subproblem's own first-order condition).
    """
    probe = _with(blocks, i, xbar)
    if rule is UpdateRule.PENALTY_EXACT:
        lin = p.smooth_grad_block(i, probe)
        x_new = p.coupled_prox(i, blocks, dual_vec, beta, lin, kappa, xbar)
        pen = _penalty_grad(p, i, _with(blocks, i, x_new), dual_vec, beta)
        chi = -(pen + lin + kappa * (x_new - xbar))
        return x_new, chi
    lin, weight = _linearization(p, rule, i, probe, dual_vec, beta, kappa)
    center = xbar - lin / weight
    x_new = p.separable_prox(i, center, weight)
    chi = weight * (center - x_new)
    return x_new, chi


def _linearization(
    p: ProblemSpec,
    rule: UpdateRule,
    i: int,
    probe: Sequence[Array],
    dual_vec: Array,
    beta: float,
    kappa: float,
) -> tuple[Array, float]:
    """(lin, weight) of block i's linearized subproblem at ``probe``.

    ``probe`` holds the extrapolated block in slot i.  ``lin`` is the
    gradient of the linearized terms there and ``weight`` the proximal
    weight of the rule (beta * kappa or kappa).
    """
    lin = _penalty_grad(p, i, probe, dual_vec, beta)
    if rule is UpdateRule.FULLY_LINEARIZED:
        return lin + p.smooth_grad_block(i, probe), kappa
    return lin, beta * kappa


def _with(blocks: Sequence[Array], i: int, value: Array) -> list:
    out = list(blocks)
    out[i] = value
    return out


def _penalty_grad(
    p: ProblemSpec, i: int, blocks: Sequence[Array], dual_vec: Array, beta: float
) -> Array:
    """Block-i gradient of <h(x), dual_vec> + beta/2 ||h(x)||^2 at ``blocks``."""
    return p.coupling_jac_t(i, blocks, dual_vec + beta * p.coupling_value(blocks))


def _block_optimality_residual(
    p: ProblemSpec,
    rule: UpdateRule,
    i: int,
    blocks: Sequence[Array],
    xbar: Array,
    x_new: Array,
    chi: Array,
    dual_vec: Array,
    beta: float,
    kappa: float,
) -> float:
    """Recompute the subproblem's first-order residual from fresh oracle calls."""
    if rule is UpdateRule.PENALTY_EXACT:
        pen = _penalty_grad(p, i, _with(blocks, i, x_new), dual_vec, beta)
        lin = p.smooth_grad_block(i, _with(blocks, i, xbar))
        return norm(chi + pen + lin + kappa * (x_new - xbar))
    lin, weight = _linearization(p, rule, i, _with(blocks, i, xbar), dual_vec, beta, kappa)
    return norm(chi + lin + weight * (x_new - xbar))


def update_y(
    p: ProblemSpec, beta: float, y: Array, grad_y: Array, omega: Array, h_new: Array
) -> Array:
    """Proximal-linearized y step solving the ridge normal equations.

    ``grad_y`` is the gradient of G at ``y``.
    """
    lg = p.y_grad_lipschitz
    rhs = lg * y - grad_y - p.lin_map.apply_t(omega + beta * h_new)
    return p.lin_map.solve_ridge(beta, lg, rhs)


def y_optimality_residual(
    p: ProblemSpec, beta: float, y_old: Array, y_new: Array, omega: Array, h_new: Array
) -> tuple[float, float]:
    """Residual of the y-step first-order condition and its natural scale."""
    lg = p.y_grad_lipschitz
    t1 = p.lin_map.apply_t(omega + beta * (h_new + p.lin_map.apply(y_new)))
    t2 = p.y_grad(y_old)
    t3 = lg * (y_new - y_old)
    scale = 1.0 + max(norm(t1), norm(t2), norm(t3))
    return norm(t1 + t2 + t3), scale


def update_multiplier(
    beta: float, tau1: float, tau2: float, omega: Array, residual: Array
) -> Array:
    """omega -> tau1 * omega + tau2 * beta * (h(x) + B y)."""
    return tau1 * omega + tau2 * beta * residual


def run(
    p: ProblemSpec,
    cfg: SolverConfig,
    x0: BlockVector | Sequence[Array],
    y0: Optional[Array] = None,
    omega0: Optional[Array] = None,
    extra_metrics: Optional[Mapping[str, Callable[[IterateState], float]]] = None,
) -> RunResult:
    """Run the solver until the budget is spent or residuals reach tolerance.

    When ``y0`` is omitted it is chosen feasible (solving B y = -h(x0) by
    least squares) if the linear map supports that and the fit is exact,
    else zero.  ``omega0`` defaults to zero.  Deterministic for fixed
    inputs and iteration budget.  Returns the final iterates, the trace
    (one record per iteration plus the initial one), and the observed
    range of the per-block descent coefficients.
    """
    consts = validate_config(cfg, p)
    r = cfg.resolved(p.s)
    beta, tau1, tau2 = cfg.beta, cfg.tau1, cfg.tau2
    check = r.check_level

    x = x0.copy() if isinstance(x0, BlockVector) else BlockVector(x0)
    p.check_x(x)
    h0 = p.coupling_value(x.blocks)
    if y0 is None:
        y = _feasible_y(p, h0)
    else:
        y = np.asarray(y0, dtype=float).copy()
    p.check_y(y)
    omega = (
        np.zeros(p.constraint_shape)
        if omega0 is None
        else np.asarray(omega0, dtype=float).copy()
    )
    p.check_omega(omega)

    state = IterateState(
        x=x, dx=[np.zeros_like(b) for b in x.blocks], y=y, dy=np.zeros_like(y),
        omega=omega, domega=np.zeros_like(omega),
    )
    start = time.perf_counter()
    state.coupling_cur = h0
    by = p.lin_map.apply(y)
    g_y = p.y_value(y)
    obj = objective_from_parts(x_objective_value(p, x), g_y)
    record, _, grad_y = _record(p, cfg, consts, state, obj, h0 + by, start, extra_metrics)
    trace: list[TraceRecord] = [record]

    use_nesterov = r.extrapolation is Extrapolation.NESTEROV
    max_iters = cfg.max_iters if cfg.max_iters is not None else (1 << 62)
    eta_min = [math.inf] * p.s
    eta_max = [-math.inf] * p.s
    stop_reason = "max_iters"

    for it in range(max_iters):
        if cfg.max_seconds is not None and time.perf_counter() - start >= cfg.max_seconds:
            stop_reason = "max_seconds"
            break
        t_cur = nesterov_t_next(state.t_prev) if use_nesterov else 1.0

        blocks = list(state.x.blocks)
        dual_vec = state.omega + beta * by

        lip_new: list[float] = []
        kappa_new: list[float] = []
        alpha_new: list[float] = []
        eta_new: list[float] = []
        chi_new: list[Array] = []
        dx_new: list[Array] = []
        check_extras: dict[str, float] = {}
        if check is CheckLevel.FULL:
            # the Lagrangian at the sweep's start, as recorded for the current
            # iterate; g_y = G(y) from the same record stays fixed during the sweep
            al_before = trace[-1].aug_lagrangian

        for i in range(p.s):
            rule = r.update_rule[i]
            exact = _exact_kappa_ok(rule, p.traits(i))
            lip = _block_modulus(p, rule, beta, i, blocks)
            if lip < 0.0:
                raise ConfigError(f"block {i}: negative Lipschitz modulus {lip}")
            kappa = max(lip, _KAPPA_FLOOR) if exact else max(cfg.kappa_margin * lip, _KAPPA_FLOOR)

            if use_nesterov and state.lip:
                alpha = extrapolation_weight(
                    state.t_prev,
                    t_cur,
                    cfg.b1,
                    r.nu[i],
                    exact,
                    state.lip[i],
                    state.kappa[i],
                    lip,
                    kappa,
                )
            else:
                alpha = 0.0
            xbar = blocks[i] + alpha * state.dx[i]

            x_new, chi = update_block(p, rule, i, blocks, xbar, dual_vec, beta, kappa)
            step = x_new - blocks[i]
            eta, gamma = _descent_coefficients(
                rule, exact, beta, r.nu[i], lip, kappa, alpha
            )

            if check in (CheckLevel.CHEAP, CheckLevel.FULL):
                res = _block_optimality_residual(
                    p, rule, i, blocks, xbar, x_new, chi, dual_vec, beta, kappa
                )
                rel = res / (1.0 + norm(x_new))
                check_extras["block_opt_rel"] = max(
                    check_extras.get("block_opt_rel", 0.0), rel
                )
                if rel > BLOCK_OPTIMALITY_RTOL:
                    raise InvariantViolation(
                        f"iteration {it}, block {i}: subproblem optimality residual "
                        f"{res:.3e} exceeds {BLOCK_OPTIMALITY_RTOL * (1.0 + norm(x_new)):.3e}"
                    )
            if check is CheckLevel.FULL:
                after = _with(blocks, i, x_new)
                h_after = p.coupling_value(after)
                al_after = lagrangian_from_parts(
                    objective_from_parts(x_objective_value(p, BlockVector(after)), g_y),
                    h_after + by, state.omega, beta,
                )
                lhs = al_after + eta * vdot(step, step)
                rhs = al_before + gamma * vdot(state.dx[i], state.dx[i])
                slack = NSDP_RTOL * (1.0 + abs(al_before))
                if lhs > rhs + slack:
                    raise InvariantViolation(
                        f"iteration {it}, block {i}: descent inequality violated by "
                        f"{lhs - rhs:.3e} (slack {slack:.3e})"
                    )
                al_before = al_after

            blocks[i] = x_new
            dx_new.append(step)
            lip_new.append(lip)
            kappa_new.append(kappa)
            alpha_new.append(alpha)
            eta_new.append(eta)
            chi_new.append(chi)
            eta_min[i] = min(eta_min[i], eta)
            eta_max[i] = max(eta_max[i], eta)

        x_new_vec = BlockVector(blocks)
        # at full, the last block's check already took h at these blocks
        h_new = h_after if check is CheckLevel.FULL else p.coupling_value(blocks)
        y_new = update_y(p, beta, state.y, grad_y, state.omega, h_new)
        p.check_y(y_new)  # the linear map's solve_ridge is caller-supplied
        dy = y_new - state.y
        if check in (CheckLevel.CHEAP, CheckLevel.FULL):
            res, scale = y_optimality_residual(p, beta, state.y, y_new, state.omega, h_new)
            check_extras["y_opt_rel"] = res / scale
            if res > Y_OPTIMALITY_RTOL * scale:
                raise InvariantViolation(
                    f"iteration {it}: y-step optimality residual {res:.3e} exceeds "
                    f"{Y_OPTIMALITY_RTOL * scale:.3e}"
                )
        by = p.lin_map.apply(y_new)  # also feeds the next sweep's dual_vec
        residual = h_new + by
        omega_new = update_multiplier(beta, tau1, tau2, state.omega, residual)
        if check in (CheckLevel.CHEAP, CheckLevel.FULL):
            implied = (omega_new - tau1 * state.omega) / (tau2 * beta)
            err = norm(implied - residual)
            rel = err / (1.0 + norm(implied))
            check_extras["mult_identity_rel"] = rel
            if rel > MULTIPLIER_IDENTITY_RTOL:
                raise InvariantViolation(
                    f"iteration {it}: multiplier identity residual {err:.3e} exceeds "
                    f"{MULTIPLIER_IDENTITY_RTOL * (1.0 + norm(implied)):.3e}"
                )

        omega_prev = state.omega
        state.x = x_new_vec
        state.dx = dx_new
        state.y = y_new
        state.dy = dy
        state.domega = omega_new - omega_prev
        state.omega = omega_new
        state.k = it + 1
        state.t_prev = t_cur
        state.lip = lip_new
        state.kappa = kappa_new
        state.alpha = alpha_new
        state.eta = eta_new
        state.chi = chi_new
        state.coupling_cur = h_new

        # evaluated once the previous iterate's arrays are released, so that its
        # temporaries reuse their memory instead of growing the heap; G(y) is
        # carried into the next sweep's descent checks
        g_y = p.y_value(state.y)
        obj = objective_from_parts(x_objective_value(p, state.x), g_y)
        full_extras = {}
        if check is CheckLevel.FULL:
            # al_before now holds the Lagrangian after the whole block sweep
            al_after_y = lagrangian_from_parts(obj, residual, omega_prev, beta)
            lhs = al_after_y + 0.5 * consts.delta * vdot(dy, dy)
            slack = NSDP_RTOL * (1.0 + abs(al_before))
            if lhs > al_before + slack:
                raise InvariantViolation(
                    f"iteration {it}: y sufficient decrease violated by "
                    f"{lhs - al_before:.3e} (slack {slack:.3e})"
                )
            full_extras = {"al_after_x": al_before, "al_after_y": al_after_y}

        record, res, grad_y = _record(p, cfg, consts, state, obj, residual, start, extra_metrics)
        record.extras.update(check_extras)
        record.extras.update(full_extras)
        trace.append(record)

        if cfg.tolerance > 0.0 and res.max_residual <= cfg.tolerance:
            stop_reason = "tolerance"
            break

    wall = time.perf_counter() - start
    return RunResult(
        x=state.x,
        y=state.y,
        omega=state.omega,
        trace=trace,
        constants=consts,
        stop_reason=stop_reason,
        iterations=state.k,
        wall_time_s=wall,
        eta_min=tuple(eta_min),
        eta_max=tuple(eta_max),
    )


def _feasible_y(p: ProblemSpec, h0: Array) -> Array:
    """y with B y = -h0 when the linear map can solve for it exactly, else zero."""
    candidate = p.lin_map.least_squares(-h0)
    if candidate is not None:
        gap = norm(h0 + p.lin_map.apply(candidate))
        if gap <= 1e-9 * (1.0 + norm(h0)):
            return np.asarray(candidate, dtype=float)
    return np.zeros(p.y_shape)


def _record(
    p: ProblemSpec,
    cfg: SolverConfig,
    consts: DerivedConstants,
    state: IterateState,
    obj: float,
    residual: Array,
    start: float,
    extra_metrics,
) -> tuple[TraceRecord, Residuals, Array]:
    """Build the trace record at the current iterate without re-evaluating it.

    ``obj`` is the objective and ``residual`` is h(x) + B y, both at the
    current iterate; the record evaluates neither again.  Before the first
    iteration (k = 0) no subgradient exists yet, so stat_x and the Lyapunov
    value are NaN.  Returns the record, its residuals, and the gradient of
    G at y for reuse by the next y step.
    """
    al = lagrangian_from_parts(obj, residual, state.omega, cfg.beta)
    grad_y = p.y_grad(state.y)
    if state.k == 0:
        res = Residuals((math.nan,), y_stationarity(p, grad_y, state.omega), norm(residual))
        lyap = math.nan
    else:
        res = stationarity_residuals(p, state.x, state.omega, state.chi, grad_y, residual)
        lyap = lyapunov_value(p, cfg, consts, state, al)

    rec = TraceRecord(
        k=state.k,
        time_s=time.perf_counter() - start,
        objective=obj,
        aug_lagrangian=al,
        lyapunov=lyap,
        feas=res.feas,
        stat_x_max=res.stat_x_max,
        stat_y=res.stat_y,
        dx=math.sqrt(sum(vdot(d, d) for d in state.dx)),
        dy=norm(state.dy),
        domega=norm(state.domega),
        alpha=tuple(state.alpha),
        eta=tuple(state.eta),
        extras={"omega_norm": norm(state.omega)},
    )
    if extra_metrics:
        for name, fn in extra_metrics.items():
            rec.extras[name] = float(fn(state))
    return rec, res, grad_y


def write_trace_csv(path, trace: Sequence[TraceRecord]) -> None:
    """Trace as CSV: the fixed columns, then sorted extras, 17 significant digits."""
    extra_keys = sorted({k for rec in trace for k in rec.extras})
    header = ",".join(TRACE_COLUMNS + tuple(extra_keys))
    lines = [header]
    for rec in trace:
        row = rec.row()
        fields = [_fmt(row.get(col, math.nan)) for col in TRACE_COLUMNS]
        fields += [_fmt(row.get(k, math.nan)) for k in extra_keys]
        lines.append(",".join(fields))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path) -> list[dict]:
    """Rows as dicts of floats (k as int); schema-checked against the fixed columns."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines:
        raise ValueError(f"empty trace file {path}")
    header = tuple(lines[0].split(","))
    if header[: len(TRACE_COLUMNS)] != TRACE_COLUMNS:
        raise ValueError(
            f"trace {path} has unexpected columns {header[:len(TRACE_COLUMNS)]}"
        )
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(f"trace {path}: ragged row")
        row = {name: float(val) for name, val in zip(header, parts)}
        row["k"] = int(row["k"])
        rows.append(row)
    return rows


def _fmt(v: float) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")

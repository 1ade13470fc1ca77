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

The engine verifies its own behavior while running (``check_level``).
"cheap" checks every iteration that each block step minimizes its
subproblem, by comparing values of the subproblem and of f_i at the new
block p, the extrapolated block and the prox center p + chi/w; that the y
step solves its normal equations, with B and B^T applied afresh to the
solution and the gradient of G the step used; and the multiplier identity.
"full" additionally asserts the per-block descent inequality and the y-step
sufficient decrease of the augmented Lagrangian.  Those Lagrangians are
assembled from values taken once per visited point: the x part of the
objective and h at each post-update block point (shared with penalty_exact's
certificate there; the last block's h is also the h(x_new) of the y step),
B y once per sweep, and the objective and h(x) + B y after the y step, which
the trace record reuses; G(y) of that objective is carried into the next
sweep.  Each check runs inside the phase it checks (:func:`_sweep`,
:func:`_y_step`, :func:`_multiplier_step`) except the y sufficient decrease,
which :func:`run` asserts once the point after the y step is evaluated.
Violations raise :class:`~iadmm.core.InvariantViolation`.  At every level a
run stops with ``stop_reason="nonfinite"`` after a record whose objective,
augmented Lagrangian or feasibility gap is not finite.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    Array,
    BlockTraits,
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

# floating-point slack for the runtime-verified invariants
MULTIPLIER_IDENTITY_RTOL = 1e-10
Y_OPTIMALITY_RTOL = 1e-9
BLOCK_OPTIMALITY_RTOL = 1e-8
NSDP_RTOL = 1e-8

# kappa = KAPPA_MARGIN * l_i for blocks that do not admit the exact modulus l_i
KAPPA_MARGIN = 1.01
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


@dataclass
class SolverConfig:
    """Parameters of one solver run.

    ``tau1``/``tau2`` scale and step the multiplier update; classical dual
    ascent is tau1 = tau2 = 1.  ``b1`` bounds the extrapolation carry-over,
    ``b2`` the y-step carry-over, ``nu`` splits each block's proximal gap
    between the descent and carry-over coefficients.  ``nu`` and
    ``update_rule`` apply to every block.  Each block uses the exact
    proximal modulus kappa = l_i when its :class:`BlockTraits` admit it
    (linear coupling and a convex subproblem) and kappa =
    :data:`KAPPA_MARGIN` * l_i otherwise.

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
    nu: float = 0.5
    update_rule: str = UpdateRule.PENALTY_LINEARIZED
    extrapolation: str = Extrapolation.NESTEROV
    max_iters: Optional[int] = 1000
    max_seconds: Optional[float] = None
    tolerance: float = 0.0
    check_level: str = CheckLevel.CHEAP
    enforce_gate: bool = True


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
    warnings: tuple[str, ...] = ()


def validate_config(cfg: SolverConfig, p: ProblemSpec) -> DerivedConstants:
    """Check every scalar parameter condition and derive the constants.

    Raises :class:`~iadmm.core.ConfigError` naming the first violated
    condition.  The smoothness gate ``8 C2 L_G^2 <= B2 C3`` (and C3 > 0)
    is downgraded to a warning when ``cfg.enforce_gate`` is False.
    """
    rule = _member(UpdateRule, "update_rule", cfg.update_rule)
    _member(Extrapolation, "extrapolation", cfg.extrapolation)
    _member(CheckLevel, "check_level", cfg.check_level)
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
    if not (isinstance(cfg.nu, numbers.Real) and 0.0 < cfg.nu < 1.0):
        raise ConfigError(f"nu must be one number in (0, 1) for every block, got {cfg.nu!r}")
    check_budget(cfg.max_iters, cfg.max_seconds)
    if not 0.0 <= cfg.tolerance < math.inf:
        raise ConfigError(f"tolerance must be finite and >= 0, got {cfg.tolerance}")
    for i in range(p.s):
        _check_block_rule(p, rule, i)

    # ProblemSpec guarantees lambda_min(B B^T) > 0 and L_G >= 0
    sigma_b = p.lin_map.lambda_min_bbt
    lg = p.y_grad_lipschitz

    gap = abs(tau1 - tau2)
    c1 = (tau1 + 1.0) * gap / (2.0 * sigma_b * tau2 * beta * (1.0 - gap))
    c2 = (tau1 + 1.0) * ratio / (
        2.0 * sigma_b * beta * (1.0 - gap) * (1.0 - abs(1.0 - ratio))
    )
    delta = lg + beta * p.lin_map.lambda_min_btb
    c3 = 0.5 * delta - 2.0 * c2 * lg * lg

    warnings: list[str] = []
    if not c3 > 0.0:
        warnings.append(f"net y-descent coefficient C3 = {c3:.6g} must be positive")
    if not 8.0 * c2 * lg * lg <= cfg.b2 * c3:
        warnings.append(
            f"smoothness gate violated: 8 C2 L_G^2 = {8.0 * c2 * lg * lg:.6g} "
            f"> B2 C3 = {cfg.b2 * c3:.6g}"
        )
    if warnings and cfg.enforce_gate:
        raise ConfigError(warnings[0])
    return DerivedConstants(
        c1=c1, c2=c2, c3=c3, delta=delta, warnings=tuple(warnings)
    )


def check_budget(max_iters: Optional[int], max_seconds: Optional[float]) -> None:
    """Raise :class:`~iadmm.core.ConfigError` unless the budget stops a run.

    At least one of ``max_iters`` (an int >= 0) and ``max_seconds`` (finite
    and >= 0) must be set; None leaves that limit off.
    """
    if max_iters is None and max_seconds is None:
        raise ConfigError("need an iteration or wall-clock budget (or both)")
    if not (max_iters is None or isinstance(max_iters, numbers.Integral) and max_iters >= 0):
        raise ConfigError(f"max_iters must be None or an int >= 0, got {max_iters!r}")
    if not (max_seconds is None or 0.0 <= max_seconds < math.inf):
        raise ConfigError(f"max_seconds must be None or finite and >= 0, got {max_seconds}")


def _member(kind: type[enum.Enum], name: str, value) -> enum.Enum:
    """``value`` as a member of ``kind``; a ConfigError naming ``name`` otherwise."""
    try:
        return kind(value)
    except ValueError:
        choices = ", ".join(m.value for m in kind)
        raise ConfigError(f"{name} must be one of {choices}, got {value!r}") from None


def _check_block_rule(p: ProblemSpec, rule: UpdateRule, i: int) -> None:
    if rule is UpdateRule.PENALTY_LINEARIZED:
        if p.smooth_value is not None or p.smooth_grad_block is not None:
            raise ConfigError(
                f"block {i}: rule penalty_linearized never reads the smooth term F; "
                "fold it into separable_prox and leave smooth_value and smooth_grad_block unset"
            )
    elif p.smooth_grad_block is None or p.block_smooth_lipschitz is None:
        raise ConfigError(
            f"block {i}: rule {rule.value} needs smooth_grad_block and "
            "block_smooth_lipschitz oracles"
        )
    if rule is UpdateRule.PENALTY_EXACT:
        if p.coupled_prox is None:
            raise ConfigError(f"block {i}: rule penalty_exact needs a coupled_prox oracle")
    elif not p.traits(i).coupling_linear:
        raise ConfigError(
            f"block {i}: rule {rule.value} requires h linear in the block; "
            "use penalty_exact with a coupled_prox oracle otherwise"
        )


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
    scale = _weight_scale(rule, beta)
    if exact_kappa:
        eta = 0.5 * scale * lip
        gamma = 0.5 * scale * lip * alpha * alpha
    else:
        rho = scale * (kappa - lip)
        a = scale * (lip + kappa) * alpha
        eta = 0.5 * (1.0 - nu) * rho
        gamma = a * a / (2.0 * nu * rho) if alpha != 0.0 else 0.0
    return eta, gamma


def _weight_scale(rule: UpdateRule, beta: float) -> float:
    """The factor of kappa in the rule's proximal weight: beta under penalty_linearized, else 1."""
    return beta if rule is UpdateRule.PENALTY_LINEARIZED else 1.0


@dataclass
class IterateState:
    """Current iterates, the steps that produced them, and per-block bookkeeping.

    ``x`` is the tuple of block arrays.  ``dx`` (one array per block),
    ``dy`` and ``domega`` are the steps x - x_prev, y - y_prev and
    omega - omega_prev of the most recently completed iteration, zero
    before the first one.  The solver forms each step once, when it accepts
    the new iterate; the extrapolation, the descent check, the trace record
    and :func:`lyapunov_value` all read it.
    ``lip``/``kappa``/``alpha``/``eta`` hold the values used by the same
    iteration; ``run`` starts ``lip`` and ``kappa`` at None per block, as no
    modulus exists before the first sweep.  ``chi`` stores the separable
    subgradients recovered from the proximal identities.  ``coupling_cur`` holds h(x)
    at the current iterate for metric hooks.

    ``run`` builds one state per accepted iterate and never changes it
    afterwards, so a metric hook may keep the state it is given.  A kept
    state keeps its five iterate-sized arrays (``y``, ``dy``, ``omega``,
    ``domega``, ``coupling_cur``) alive.  Each phase of an iteration frees
    its own temporaries when it returns, and ``run`` drops the previous
    ``coupling_cur`` before the sweep and the rest of the previous state
    before the y step: on logmf at 400 x 300, rank 10, with the
    ``model_objective`` hook, a run peaks at 10.3 arrays of the m x n
    constraint shape above its start at every ``check_level``, in the y
    step.
    """

    x: tuple
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
    """Per-iteration scalars; ``extras`` carries optional diagnostics.

    The splitting columns default to NaN, for a method (such as the gd
    baseline) that has no splitting variable or multiplier.
    """

    k: int
    time_s: float
    objective: float
    aug_lagrangian: float = math.nan
    lyapunov: float = math.nan
    feas: float = math.nan
    stat_x_max: float = math.nan
    stat_y: float = math.nan
    dx: float = math.nan
    dy: float = math.nan
    domega: float = math.nan
    alpha: tuple[float, ...] = ()
    eta: tuple[float, ...] = ()
    extras: dict = field(default_factory=dict)

    def row(self) -> dict:
        base = {name: getattr(self, name) for name in TRACE_COLUMNS}
        base.update(self.extras)
        return base


# the CSV's fixed columns: every TraceRecord field but alpha, eta and extras
TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))[:-3]


@dataclass
class RunResult:
    """What :func:`run` returns: the final iterates, the trace (the initial
    record, then one per iteration), the derived constants, why the run
    stopped, the number of iterations and the wall time from the start.

    The per-block coefficients eta_i of each iteration stay in the trace's
    records; the extrapolation cap certifies their carry-over at each step.
    """

    x: tuple
    y: Array
    omega: Array
    trace: list
    constants: DerivedConstants
    stop_reason: str
    iterations: int
    wall_time_s: float


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
    lin, weight = _linearization(p, rule, i, _with(blocks, i, xbar), dual_vec, beta, kappa)
    if rule is UpdateRule.PENALTY_EXACT:
        x_new = p.coupled_prox(i, blocks, dual_vec, beta, lin, weight, xbar)
        # the subproblem's first-order condition: the penalty gradient at x_new
        # plus lin (grad F at the probe) plus the proximal term
        grad = _penalty_grad(p, i, _with(blocks, i, x_new), dual_vec, beta) + lin
        return x_new, -(grad + weight * (x_new - xbar))
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
    """(lin, weight) of block i's subproblem at ``probe``.

    ``probe`` holds the extrapolated block in slot i.  ``lin`` is the
    gradient of the linearized terms there (for penalty_exact, of F alone)
    and ``weight`` the proximal weight of the rule (beta * kappa or kappa).
    """
    weight = _weight_scale(rule, beta) * kappa
    if rule is UpdateRule.PENALTY_EXACT:
        return p.smooth_grad_block(i, probe), weight
    lin = _penalty_grad(p, i, probe, dual_vec, beta)
    if rule is UpdateRule.FULLY_LINEARIZED:
        lin = lin + p.smooth_grad_block(i, probe)
    return lin, weight


def _with(blocks: Sequence[Array], i: int, value: Array) -> list:
    out = list(blocks)
    out[i] = value
    return out


def _penalty_grad(
    p: ProblemSpec, i: int, blocks: Sequence[Array], dual_vec: Array, beta: float
) -> Array:
    """Block-i gradient of <h(x), dual_vec> + beta/2 ||h(x)||^2 at ``blocks``."""
    return p.coupling_jac_t(i, blocks, dual_vec + beta * p.coupling_value(blocks))


def _check_block_optimality(
    p: ProblemSpec, rule: UpdateRule, i: int, blocks: Sequence[Array], xbar: Array, chi: Array,
    dual_vec: Array, beta: float, kappa: float, convex: bool, h_new: Optional[Array], where: str,
) -> float:
    """Certify by values that ``blocks[i]`` exactly minimizes block i's subproblem.

    The subproblem is phi(u) = f_i(u) + <lin, u - xbar> + w/2 ||u - xbar||^2,
    plus <h(u, rest), dual_vec> + beta/2 ||h(u, rest)||^2 under penalty_exact
    (measured from xbar, so its scale does not depend on the origin).  Its
    exact minimizer p satisfies phi(z) >= phi(p) + c w/2 ||z - p||^2 for every
    z, where c = 1 under the linearized rules when f_i is ``convex`` (phi is
    then w-strongly convex) and c = 0 otherwise.  The test runs at z = xbar.
    At the prox center z = p + chi/w the linearized rules' inequality reads
    f_i(z) >= f_i(p) + (1 + c)/2 <chi, z - p>.  For convex f_i that is the
    subgradient inequality, which penalty_exact's chi (the subproblem's
    first-order condition at p) must pass as well.  The linearized rules
    recover lin from the prox identity chi = w (xbar - lin/w - p), so they
    form no product with the coupling's Jacobian.  ``h_new`` is h at
    ``blocks``, which the sweep takes once for the certificate and the
    descent check; only penalty_exact reads it.  Each test is decided by
    :func:`_check_descent`; returns the largest normalized shortfall, which
    is <= 0 for an exact minimizer.
    """
    x_new, step = blocks[i], blocks[i] - xbar
    f_new = p.separable_value(i, x_new)
    if rule is UpdateRule.PENALTY_EXACT:
        probe = _with(blocks, i, xbar)
        lin, weight = _linearization(p, rule, i, probe, dual_vec, beta, kappa)
        f_bar = p.separable_value(i, xbar)
        at_bar = lagrangian_from_parts(f_bar, p.coupling_value(probe), dual_vec, beta)
        at_new = lagrangian_from_parts(f_new, h_new, dual_vec, beta)
    else:
        weight = _weight_scale(rule, beta) * kappa
        lin = -(weight * step + chi)
        at_bar, at_new = p.separable_value(i, xbar), f_new
    at_new += vdot(lin, step) + 0.5 * weight * vdot(step, step)
    strong = convex and rule is not UpdateRule.PENALTY_EXACT
    pairs = [(at_new + 0.5 * strong * weight * vdot(step, step), at_bar)]
    if convex or rule is not UpdateRule.PENALTY_EXACT:
        shift = chi / weight
        pairs.append((f_new + 0.5 * (1 + convex) * vdot(chi, shift),
                      p.separable_value(i, x_new + shift)))
    return max(_check_descent(lhs, rhs, at_new, where, BLOCK_OPTIMALITY_RTOL)
               for lhs, rhs in pairs)


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
    p: ProblemSpec, beta: float, y_old: Array, grad_y: Array, omega: Array, h_new: Array,
    y_new: Array,
) -> tuple[float, float]:
    """Residual of the first-order condition of the y step that gave ``y_new``, and its scale.

    The arguments before ``y_new`` are those of :func:`update_y`; ``grad_y``
    is the gradient of G at ``y_old`` that the step used.  The check applies
    B and B^T to ``y_new`` afresh, so it tests ``solve_ridge`` against them.
    """
    lg = p.y_grad_lipschitz
    t1 = p.lin_map.apply_t(omega + beta * (h_new + p.lin_map.apply(y_new)))
    t3 = lg * (y_new - y_old)
    scale = 1.0 + max(norm(t1), norm(grad_y), norm(t3))
    # t1 + grad_y + t3 without two temporaries: t1 is apply_t of a sum formed
    # here, so the LinearMap contract lets it be written
    t1 += grad_y
    t1 += t3
    return norm(t1), scale


def update_multiplier(
    beta: float, tau1: float, tau2: float, omega: Array, residual: Array
) -> Array:
    """omega -> tau1 * omega + tau2 * beta * (h(x) + B y)."""
    return tau1 * omega + tau2 * beta * residual


def _check_residual(
    extras: dict, key: str, res: float, scale: float, rtol: float, where: str
) -> None:
    """Raise unless the residual ``res`` is at most ``rtol * scale``; a NaN fails.

    ``extras[key]`` keeps the iteration's largest relative residual ``res / scale``.
    """
    rel = res / scale
    extras[key] = max(extras.get(key, rel), rel)
    bound = rtol * scale
    if not res <= bound:
        raise InvariantViolation(f"{where} residual {res:.3e} exceeds {bound:.3e}")


def _check_descent(
    lhs: float, rhs: float, ref: float, where: str, rtol: float = NSDP_RTOL
) -> float:
    """Raise unless ``lhs <= rhs`` up to the slack rtol * (1 + |ref|); a NaN fails.

    Returns the normalized shortfall (lhs - rhs) / (1 + |ref|).
    """
    scale = 1.0 + abs(ref)
    slack = rtol * scale
    if not lhs <= rhs + slack:
        raise InvariantViolation(f"{where} violated by {lhs - rhs:.3e} (slack {slack:.3e})")
    return (lhs - rhs) / scale


def run(
    p: ProblemSpec,
    cfg: SolverConfig,
    x0: Sequence[Array],
    y0: Optional[Array] = None,
    omega0: Optional[Array] = None,
    extra_metrics: Optional[Mapping[str, Callable[[IterateState], float]]] = None,
) -> RunResult:
    """Run the solver until the budget is spent or residuals reach tolerance.

    When ``y0`` is omitted it is chosen feasible (solving B y = -h(x0) by
    least squares) if the linear map supports that and the fit is exact,
    else zero.  ``omega0`` defaults to zero.  Deterministic for fixed
    inputs and iteration budget.  Returns the final iterates and the trace
    (one record per iteration plus the initial one).

    An iteration is three phases, each with its own checks and temporaries:
    :func:`_sweep`, :func:`_y_step` and :func:`_multiplier_step`, then
    :func:`_record`.  ``run`` keeps the start, the budget and stop rule, the
    y sufficient decrease at ``full`` (it reads the objective and residual
    that :func:`_evaluate` takes after the y step) and the state assembly.
    """
    consts = validate_config(cfg, p)
    rule, check = UpdateRule(cfg.update_rule), CheckLevel(cfg.check_level)
    # each block's modulus rule and optimality certificate depend only on the
    # rule and its declared traits: (exact kappa, convex f_i) per block
    plan = [(_exact_kappa_ok(rule, t), t.separable_convex) for t in map(p.traits, range(p.s))]
    use_nesterov = Extrapolation(cfg.extrapolation) is Extrapolation.NESTEROV
    max_iters = cfg.max_iters if cfg.max_iters is not None else (1 << 62)

    state = _start_state(p, x0, y0, omega0)
    start = time.perf_counter()
    g_y, obj, by, residual = _evaluate(p, state.x, state.y, state.coupling_cur)
    record, _, grad_y = _record(p, cfg, consts, state, obj, residual, start, extra_metrics)
    trace: list[TraceRecord] = [record]
    stop_reason = "max_iters"

    for it in range(max_iters):
        if cfg.max_seconds is not None and time.perf_counter() - start >= cfg.max_seconds:
            stop_reason = "max_seconds"
            break
        del residual  # the record read it last
        extras: dict[str, float] = {}
        t_cur = nesterov_t_next(state.t_prev) if use_nesterov else 1.0
        # the sweep reads no h(x) of the previous state, which goes before the
        # sweep takes h at its new blocks (at full)
        state, h_new = dataclasses.replace(state, coupling_cur=None), None
        blocks, sweep, h_new = _sweep(
            p, cfg, rule, check, plan, it, state, t_cur, by, g_y, trace[-1].aug_lagrangian, extras
        )
        # the previous x and dx go before the y step, where the run peaks; the
        # previous dy and domega go when their successors are bound
        y, omega = state.y, state.omega
        del state
        y, dy = _y_step(p, cfg.beta, it, y, grad_y, omega, h_new, check, extras)
        del grad_y
        # G(y) is carried into the next sweep's descent checks, B y into its dual_vec
        g_y, obj, by, residual = _evaluate(p, blocks, y, h_new)
        if check is CheckLevel.FULL:
            al_x = extras["al_after_x"]
            al_y = extras["al_after_y"] = lagrangian_from_parts(obj, residual, omega, cfg.beta)
            _check_descent(al_y + 0.5 * consts.delta * vdot(dy, dy), al_x, al_x,
                           f"iteration {it}: y sufficient decrease")
        omega, domega = _multiplier_step(cfg, it, omega, residual, check, extras)

        dx, lips, kappas, alphas, etas, chis = map(list, zip(*sweep))
        state = IterateState(
            x=tuple(blocks), dx=dx, y=y, dy=dy, omega=omega, domega=domega, k=it + 1, t_prev=t_cur,
            lip=lips, kappa=kappas, alpha=alphas, eta=etas, chi=chis, coupling_cur=h_new,
        )
        record, res, grad_y = _record(p, cfg, consts, state, obj, residual, start, extra_metrics)
        record.extras.update(extras)
        trace.append(record)

        finite = all(map(math.isfinite, (record.objective, record.aug_lagrangian, record.feas)))
        if not finite or cfg.tolerance > 0.0 and res.max_residual <= cfg.tolerance:
            stop_reason = "tolerance" if finite else "nonfinite"
            break

    return RunResult(x=state.x, y=state.y, omega=state.omega, trace=trace, constants=consts,
                     stop_reason=stop_reason, iterations=state.k,
                     wall_time_s=time.perf_counter() - start)


def _evaluate(
    p: ProblemSpec, x: Sequence[Array], y: Array, h: Array
) -> tuple[float, float, Array, Array]:
    """(G(y), objective, B y, h(x) + B y) at (x, y), given h = h(x).

    Taken once per iterate, at the start and after each y step; the record
    and the checks read these values instead of evaluating the point again.
    """
    g_y = p.y_value(y)
    obj = objective_from_parts(x_objective_value(p, x), g_y)
    by = p.lin_map.apply(y)
    return g_y, obj, by, h + by


def _sweep(
    p: ProblemSpec, cfg: SolverConfig, rule: UpdateRule, check: CheckLevel, plan: Sequence, it: int,
    state: IterateState, t_cur: float, by: Array, g_y: float, al_before: float, extras: dict,
) -> tuple[list, list, Array]:
    """The inertial block sweep of iteration ``it``, starting from ``state``.

    For each block: the modulus and kappa (``plan`` holds each block's
    (exact kappa, convex f_i) pair), the capped extrapolation weight, the
    block update and its descent coefficients.  At ``cheap`` each step's
    optimality certificate runs; at ``full`` also the per-block descent
    inequality, from ``al_before`` (the recorded Lagrangian at ``state``),
    with ``g_y`` = G(y) and ``by`` = B y fixed during the sweep, and
    ``extras["al_after_x"]`` is left at the Lagrangian after the sweep.
    h is taken once at each post-update block point where a check needs it
    (at ``full``, or under penalty_exact at ``cheap``); the last one is the
    returned h(x_new).  Returns the new blocks, one (step, lip, kappa,
    alpha, eta, chi) per block, and h(x_new).
    """
    beta, nu, omega = cfg.beta, float(cfg.nu), state.omega
    checked, full = check is not CheckLevel.OFF, check is CheckLevel.FULL
    blocks, dx = list(state.x), state.dx
    dual_vec = omega + beta * by
    sweep, h_new = [], None
    for i, (exact, convex) in enumerate(plan):
        lip = _block_modulus(p, rule, beta, i, blocks)
        if lip < 0.0:
            raise ConfigError(f"block {i}: negative Lipschitz modulus {lip}")
        kappa = max(lip if exact else KAPPA_MARGIN * lip, _KAPPA_FLOOR)
        # 0 without momentum (t stays 1) and on the first iteration (no modulus yet)
        alpha = extrapolation_weight(
            state.t_prev, t_cur, cfg.b1, nu, exact, state.lip[i], state.kappa[i], lip, kappa
        )
        xbar = blocks[i] + alpha * dx[i]

        x_new, chi = update_block(p, rule, i, blocks, xbar, dual_vec, beta, kappa)
        step = x_new - blocks[i]
        blocks[i] = x_new
        eta, gamma = _descent_coefficients(rule, exact, beta, nu, lip, kappa, alpha)
        sweep.append((step, lip, kappa, alpha, eta, chi))

        if full or (checked and rule is UpdateRule.PENALTY_EXACT):
            h_new = p.coupling_value(blocks)
        if checked:
            gap = _check_block_optimality(
                p, rule, i, blocks, xbar, chi, dual_vec, beta, kappa, convex, h_new,
                f"iteration {it}, block {i}: subproblem optimality",
            )
            extras["block_opt_rel"] = max(extras.get("block_opt_rel", gap), gap)
        if full:
            al_after = lagrangian_from_parts(
                objective_from_parts(x_objective_value(p, blocks), g_y), h_new + by, omega, beta
            )
            _check_descent(
                al_after + eta * vdot(step, step), al_before + gamma * vdot(dx[i], dx[i]),
                al_before, f"iteration {it}, block {i}: descent inequality",
            )
            al_before = extras["al_after_x"] = al_after
    if h_new is None:
        h_new = p.coupling_value(blocks)
    return blocks, sweep, h_new


def _y_step(
    p: ProblemSpec, beta: float, it: int, y: Array, grad_y: Array, omega: Array, h_new: Array,
    check: CheckLevel, extras: dict,
) -> tuple[Array, Array]:
    """The y step of iteration ``it``; returns (y_new, y_new - y).

    ``grad_y`` is the gradient of G at ``y``, taken by the record of ``y``.
    From ``cheap`` on, the step's normal equations are checked with B and
    B^T applied afresh to ``y_new``.
    """
    y_new = update_y(p, beta, y, grad_y, omega, h_new)
    p.check_y(y_new)  # the linear map's solve_ridge is caller-supplied
    if check is not CheckLevel.OFF:
        _check_residual(
            extras, "y_opt_rel", *y_optimality_residual(p, beta, y, grad_y, omega, h_new, y_new),
            Y_OPTIMALITY_RTOL, f"iteration {it}: y-step optimality",
        )
    return y_new, y_new - y


def _multiplier_step(
    cfg: SolverConfig, it: int, omega: Array, residual: Array, check: CheckLevel, extras: dict
) -> tuple[Array, Array]:
    """The scaled multiplier step of iteration ``it``; returns (omega_new, omega_new - omega).

    ``residual`` is h(x_new) + B y_new.  From ``cheap`` on, the residual is
    recovered from omega_new and must match it.
    """
    beta, tau1, tau2 = cfg.beta, cfg.tau1, cfg.tau2
    omega_new = update_multiplier(beta, tau1, tau2, omega, residual)
    if check is not CheckLevel.OFF:
        implied = (omega_new - tau1 * omega) / (tau2 * beta)
        _check_residual(
            extras, "mult_identity_rel", norm(implied - residual), 1.0 + norm(implied),
            MULTIPLIER_IDENTITY_RTOL, f"iteration {it}: multiplier identity",
        )
    return omega_new, omega_new - omega


def _start_state(
    p: ProblemSpec, x0: Sequence[Array], y0: Optional[Array], omega0: Optional[Array]
) -> IterateState:
    """The state at k = 0: the checked starting point, zero steps and h(x0).

    The finiteness check runs before any oracle, because a NaN start otherwise
    surfaces as an unrelated error from deep inside one (e.g. an eigensolver
    that does not converge).  The start arrays live on only in the state.
    """
    x = tuple(np.asarray(b, dtype=float) for b in x0)
    p.check_x(x)
    y = None if y0 is None else np.asarray(y0, dtype=float).copy()
    if y is not None:
        p.check_y(y)
    omega = (np.zeros(p.constraint_shape) if omega0 is None
             else np.asarray(omega0, dtype=float).copy())
    p.check_omega(omega)
    starts = [(f"x0 block {i}", b) for i, b in enumerate(x)] + [("y0", y), ("omega0", omega)]
    for name, arr in starts:
        if arr is not None and not np.isfinite(arr).all():
            raise ValueError(f"{name} holds a NaN or inf entry")
    h0 = p.coupling_value(x)
    if y is None:
        y = _feasible_y(p, h0)
        p.check_y(y)
    return IterateState(
        x=x, dx=[np.zeros_like(b) for b in x], y=y, dy=np.zeros_like(y), coupling_cur=h0,
        omega=omega, domega=np.zeros_like(omega), lip=[None] * p.s, kappa=[None] * p.s,
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
    columns = TRACE_COLUMNS + tuple(sorted({k for rec in trace for k in rec.extras}))
    lines = [",".join(columns)]
    for rec in trace:
        row = rec.row()
        lines.append(",".join(_fmt(row.get(col, math.nan)) for col in columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class TraceFormatError(ValueError):
    """A stored trace has no rows, other leading columns, ragged rows or a
    non-numeric cell, or a manifest lists no runs."""


def read_trace_csv(path) -> list[dict]:
    """Rows as dicts of floats (k as int); schema-checked against the fixed columns.

    Raises :class:`TraceFormatError`, naming ``path``, for a trace without
    rows, with other leading columns, with ragged rows, with a cell that is
    not a number or with a ``k`` that is not a whole number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if len(lines) < 2:
        raise TraceFormatError(f"trace {path} has no rows")
    header = tuple(lines[0].split(","))
    if header[: len(TRACE_COLUMNS)] != TRACE_COLUMNS:
        raise TraceFormatError(
            f"trace {path} has unexpected columns {header[:len(TRACE_COLUMNS)]}"
        )
    rows = []
    for index, ln in enumerate(lines[1:]):
        parts = ln.split(",")
        if len(parts) != len(header):
            raise TraceFormatError(f"trace {path}: ragged row")
        try:
            # a key is bound before its value, so ``name`` is the failing column
            row = {(name := col): float(val) for col, val in zip(header, parts)}
        except ValueError:
            raise TraceFormatError(f"trace {path}: row {index}, column {name} is not a number")
        if not row["k"].is_integer():  # also rejects nan and inf, which int() raises on
            raise TraceFormatError(f"trace {path}: row {index}, column k is not an integer")
        row["k"] = int(row["k"])
        rows.append(row)
    return rows


def _fmt(v: float) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")

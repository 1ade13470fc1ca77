"""Problem containers and evaluators for nonlinearly coupled composite programs.

The model problem is

    minimize   F(x) + sum_i f_i(x_i) + G(y)
    subject to h(x) + B y = 0,

where the primal variable x is split into ``s`` dense blocks, ``h`` maps x
into the constraint space, ``B`` is a linear map on the splitting variable
``y``, ``G`` has a Lipschitz gradient, and each ``f_i`` is proper lower
semicontinuous with an accessible proximal map.  Problems are described by
oracles collected in :class:`ProblemSpec`; the solver never differentiates
anything itself.

The primal point x is passed as the sequence of its block arrays.  Arrays
may carry any shape (matrices are common); inner products and norms always
act on the flattened data.  All dense data is float64, row-major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray


class DimensionError(ValueError):
    """Shape disagreement between problem data and supplied arrays."""


class ConfigError(ValueError):
    """Invalid configuration; the message names the violated condition."""


class InvariantViolation(RuntimeError):
    """A runtime-verified optimality or descent invariant failed."""


def vdot(a: Array, b: Array) -> float:
    return float(np.vdot(a, b))


def norm(a: Array) -> float:
    return float(np.linalg.norm(a.ravel()))


class LinearMap:
    """Linear operator B from y-space into the constraint space.

    Besides forward/adjoint applications the solver needs the extreme
    eigenvalues of the two Gram matrices and solves with ridge-shifted
    normal equations (scale * B^T B + shift * I).  ``apply`` and ``apply_t``
    return a new array or their argument, never an array the map keeps: the
    solver may write into the result when the argument is a temporary of its
    own.
    """

    y_shape: tuple[int, ...]
    constraint_shape: tuple[int, ...]

    def apply(self, y: Array) -> Array:
        raise NotImplementedError

    def apply_t(self, r: Array) -> Array:
        raise NotImplementedError

    @property
    def lambda_min_bbt(self) -> float:
        raise NotImplementedError

    @property
    def lambda_min_btb(self) -> float:
        raise NotImplementedError

    def solve_ridge(self, scale: float, shift: float, rhs: Array) -> Array:
        raise NotImplementedError

    def least_squares(self, target: Array) -> Optional[Array]:
        """Minimum-norm y with B y close to target, or None if unsupported."""
        return None


class ScaledIdentity(LinearMap):
    """B = c * I on arrays of a fixed shape (c nonzero)."""

    def __init__(self, c: float, shape: tuple[int, ...]):
        if c == 0.0:
            raise ConfigError("scaled identity map needs a nonzero factor")
        self.c = float(c)
        self.y_shape = tuple(shape)
        self.constraint_shape = tuple(shape)

    def apply(self, y: Array) -> Array:
        return self.c * y

    def apply_t(self, r: Array) -> Array:
        return self.c * r

    @property
    def lambda_min_bbt(self) -> float:
        return self.c * self.c

    @property
    def lambda_min_btb(self) -> float:
        return self.c * self.c

    def solve_ridge(self, scale: float, shift: float, rhs: Array) -> Array:
        return rhs / (scale * self.c * self.c + shift)

    def least_squares(self, target: Array) -> Array:
        return target / self.c


class DenseMap(LinearMap):
    """Explicit dense B acting on flat vectors."""

    def __init__(self, matrix: Array):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise DimensionError("dense map needs a 2-d matrix")
        q, m = self.matrix.shape
        self.y_shape = (m,)
        self.constraint_shape = (q,)
        self._bbt_eigs = np.linalg.eigvalsh(self.matrix @ self.matrix.T)
        self._btb_eigs = np.linalg.eigvalsh(self.matrix.T @ self.matrix)

    def apply(self, y: Array) -> Array:
        return self.matrix @ y

    def apply_t(self, r: Array) -> Array:
        return self.matrix.T @ r

    @property
    def lambda_min_bbt(self) -> float:
        return float(self._bbt_eigs[0])

    @property
    def lambda_min_btb(self) -> float:
        return float(self._btb_eigs[0])

    def solve_ridge(self, scale: float, shift: float, rhs: Array) -> Array:
        m = self.matrix.shape[1]
        system = scale * (self.matrix.T @ self.matrix) + shift * np.eye(m)
        return np.linalg.solve(system, rhs)

    def least_squares(self, target: Array) -> Array:
        sol, *_ = np.linalg.lstsq(self.matrix, target, rcond=None)
        return sol


@dataclass(frozen=True)
class BlockTraits:
    """Structure flags used to pick proximal coefficients for one block.

    coupling_linear: h is affine in this block when the others are fixed.
    separable_convex: f_i is convex.
    smooth_convex: F is convex in this block when the others are fixed.
    """

    coupling_linear: bool = False
    separable_convex: bool = False
    smooth_convex: bool = False


def _zero_separable(i: int, xi: Array) -> float:
    return 0.0


def _identity_prox(i: int, center: Array, weight: float) -> Array:
    return center


@dataclass
class ProblemSpec:
    """Oracle bundle describing one problem instance.

    Only the coupling and y-side oracles are mandatory.  ``smooth_value`` /
    ``smooth_grad_block`` describe the smooth coupled term F; leave them
    None when F is absent or folded into the separable proximal maps.
    ``separable_value`` may return ``math.inf`` outside the domain of f_i.
    ``coupled_prox`` solves the block subproblem that keeps the quadratic
    penalty exact (see solver.UpdateRule.PENALTY_EXACT); it receives
    (i, x_blocks, dual_vec, beta, lin, weight, anchor) and must return the
    exact minimizer of

        f_i(u) + <h(u, rest), dual_vec> + beta/2 ||h(u, rest)||^2
              + <lin, u> + weight/2 ||u - anchor||^2.

    All oracles must be deterministic functions of their arguments; the
    solver relies on this and does not check it.  It evaluates F and each
    f_i once per visited point and reuses the value wherever that point
    recurs: f_i taken by a block's optimality certificate also serves the
    descent checks, the objective and the next sweep.  The experiment runner
    builds one ProblemSpec per run; with ``jobs > 1`` the oracles of
    different runs execute concurrently on pool threads.
    """

    block_shapes: tuple[tuple[int, ...], ...]
    lin_map: LinearMap
    coupling_value: Callable[[Sequence[Array]], Array]
    coupling_jac_t: Callable[[int, Sequence[Array], Array], Array]
    block_penalty_lipschitz: Callable[[int, Sequence[Array]], float]
    y_value: Callable[[Array], float]
    y_grad: Callable[[Array], Array]
    y_grad_lipschitz: float
    smooth_value: Optional[Callable[[Sequence[Array]], float]] = None
    smooth_grad_block: Optional[Callable[[int, Sequence[Array]], Array]] = None
    block_smooth_lipschitz: Optional[Callable[[int, Sequence[Array]], float]] = None
    separable_value: Callable[[int, Array], float] = _zero_separable
    separable_prox: Callable[[int, Array, float], Array] = _identity_prox
    coupled_prox: Optional[Callable] = None
    block_traits: Optional[Callable[[int], BlockTraits]] = None

    def __post_init__(self):
        self.block_shapes = tuple(tuple(s) for s in self.block_shapes)
        if not self.block_shapes:
            raise ConfigError("problem needs at least one block")
        # written so that a NaN fails
        if not self.lin_map.lambda_min_bbt > 0.0:
            raise ConfigError("lambda_min(B B^T) must be positive")
        if not self.y_grad_lipschitz >= 0.0:
            raise ConfigError("y gradient Lipschitz constant must be >= 0")

    @property
    def s(self) -> int:
        return len(self.block_shapes)

    @property
    def y_shape(self) -> tuple[int, ...]:
        return self.lin_map.y_shape

    @property
    def constraint_shape(self) -> tuple[int, ...]:
        return self.lin_map.constraint_shape

    def traits(self, i: int) -> BlockTraits:
        if self.block_traits is None:
            return BlockTraits()
        return self.block_traits(i)

    def check_x(self, x: Sequence[Array]) -> None:
        shapes = tuple(b.shape for b in x)
        if shapes != self.block_shapes:
            raise DimensionError(
                f"block shapes {shapes} do not match problem {self.block_shapes}"
            )

    def check_y(self, y: Array) -> None:
        if tuple(y.shape) != tuple(self.y_shape):
            raise DimensionError(f"y shape {y.shape} does not match {self.y_shape}")

    def check_omega(self, omega: Array) -> None:
        if tuple(omega.shape) != tuple(self.constraint_shape):
            raise DimensionError(
                f"omega shape {omega.shape} does not match {self.constraint_shape}"
            )


def x_objective_value(
    p: ProblemSpec, x: Sequence[Array], f: Optional[Sequence[float]] = None
) -> float:
    """The x part F(x) + sum_i f_i(x_i) of the objective, +inf if any f_i is +inf.

    ``f``, when given, holds the values f_i(x_i) already taken at ``x``; F is
    evaluated here either way.
    """
    p.check_x(x)
    total = p.smooth_value(x) if p.smooth_value is not None else 0.0
    for i, xi in enumerate(x):
        fi = p.separable_value(i, xi) if f is None else f[i]
        if math.isinf(fi):
            return math.inf
        total += fi
    return float(total)


def objective_from_parts(fx: float, gy: float) -> float:
    """The objective from its x part ``fx`` and ``gy`` = G(y); +inf if ``fx`` is infinite."""
    if math.isinf(fx):
        return math.inf
    return float(fx + gy)


def objective_value(p: ProblemSpec, x: Sequence[Array], y: Array) -> float:
    """F(x) + sum_i f_i(x_i) + G(y), +inf if any f_i is +inf."""
    p.check_y(np.asarray(y))
    return objective_from_parts(x_objective_value(p, x), p.y_value(y))


def constraint_residual(p: ProblemSpec, x: Sequence[Array], y: Array) -> Array:
    """h(x) + B y."""
    p.check_x(x)
    p.check_y(np.asarray(y))
    return p.coupling_value(x) + p.lin_map.apply(y)


def augmented_lagrangian(
    p: ProblemSpec, x: Sequence[Array], y: Array, omega: Array, beta: float
) -> float:
    """Objective plus <h(x)+By, omega> plus beta/2 ||h(x)+By||^2."""
    if beta <= 0.0:
        raise ConfigError("penalty beta must be positive")
    p.check_omega(np.asarray(omega))
    obj = objective_value(p, x, y)
    if math.isinf(obj):
        return math.inf
    return lagrangian_from_parts(obj, constraint_residual(p, x, y), omega, beta)


def lagrangian_from_parts(obj: float, residual: Array, omega: Array, beta: float) -> float:
    """Augmented Lagrangian obj + <residual, omega> + beta/2 ||residual||^2.

    ``obj`` and ``residual`` = h(x) + B y must be taken at the same point.
    """
    return obj + vdot(residual, omega) + 0.5 * beta * vdot(residual, residual)


@dataclass(frozen=True)
class Residuals:
    """First-order residuals measuring approximate stationarity."""

    stat_x: tuple[float, ...]
    stat_y: float
    feas: float

    @property
    def stat_x_max(self) -> float:
        return max(self.stat_x)

    @property
    def max_residual(self) -> float:
        return max(self.stat_x_max, self.stat_y, self.feas)


def y_stationarity(p: ProblemSpec, grad_y: Array, omega: Array) -> float:
    """||grad G(y) + B^T omega||, the y part of the stationarity residuals."""
    return norm(grad_y + p.lin_map.apply_t(omega))


def stationarity_residuals(
    p: ProblemSpec,
    x: Sequence[Array],
    omega: Array,
    chi: Sequence[Array],
    grad_y: Array,
    residual: Array,
) -> Residuals:
    """Per-block dual residuals, y residual, and feasibility gap.

    ``chi[i]`` must be a subgradient of f_i at x_i, typically recovered
    from the proximal-map identity weight * (center - prox) at the last
    accepted update.  The smooth term's block gradient, when declared, is
    added here at the current point.  ``grad_y`` is the gradient of G at y
    and ``residual`` is h(x) + B y, both at the same point.
    """
    if len(chi) != p.s:
        raise DimensionError("need one subgradient element per block")
    stat_x = []
    for i in range(p.s):
        g = chi[i] + p.coupling_jac_t(i, x, omega)
        if p.smooth_grad_block is not None:
            g = g + p.smooth_grad_block(i, x)
        stat_x.append(norm(g))
    return Residuals(
        stat_x=tuple(stat_x), stat_y=y_stationarity(p, grad_y, omega), feas=norm(residual)
    )

"""Logistic matrix factorization over a binary interaction matrix.

The model fits logits W = U V to 0/1 data Y by minimizing

    sum_ij (1 + c y_ij - y_ij) * softplus((UV)_ij) - c y_ij (UV)_ij
        + lam_row/2 ||U||_F^2 + lam_col/2 ||V||_F^2,

with U (m x rank), V (rank x n) and a positive-class weight c.  For the
splitting solver the same problem is posed with an explicit logit matrix
and the bilinear coupling U V - W = 0, where the likelihood term lives on
W and the Frobenius regularizers ride inside the factor proximal maps.

The test suite checks the generic solver path against closed-form block
updates for U, V, W (kept with its reference oracles); the two must agree
to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Array, BlockTraits, ConfigError, ProblemSpec, ScaledIdentity, vdot
from .rng import Xoshiro256StarStar
from .solver import IterateState, TraceRecord, check_budget

__all__ = [
    "LogMfInstance",
    "generate_matrix",
    "initial_factors",
    "softplus",
    "sigmoid",
    "logistic_loss",
    "logistic_loss_grad",
    "logistic_loss_lipschitz",
    "frobenius_penalty",
    "objective",
    "gram_spectral_norm",
    "gd_step",
    "gd_run",
    "make_problem",
    "model_objective_metric",
]


@dataclass(frozen=True)
class LogMfInstance:
    """One problem instance: data matrix plus model hyperparameters."""

    y: Array
    rank: int
    c: float = 1.0
    lam_row: float = 0.25
    lam_col: float = 0.25
    beta: float = 1.0

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        if y.ndim != 2 or min(y.shape) < 1:
            raise ConfigError("data matrix must be 2-d and nonempty")
        vals = np.unique(y)
        if not np.all(np.isin(vals, (0.0, 1.0))):
            raise ConfigError("data matrix entries must be 0 or 1")
        if self.rank < 1:
            raise ConfigError("rank must be >= 1")
        if self.c <= 0.0:
            raise ConfigError("class weight c must be positive")
        if self.lam_row < 0.0 or self.lam_col < 0.0:
            raise ConfigError("regularization weights must be >= 0")

    @property
    def shape(self) -> tuple[int, int]:
        return self.y.shape


def generate_matrix(m: int, n: int, density: float, seed: int) -> Array:
    """Random m x n 0/1 matrix, each entry 1 with probability ``density``.

    Entries are drawn row-major from the seeded xoshiro256** stream, so the
    matrix is a pure function of (m, n, density, seed).
    """
    if not 0.0 <= density <= 1.0:
        raise ConfigError(f"density must lie in [0, 1], got {density}")
    gen = Xoshiro256StarStar(seed)
    return gen.bernoulli_matrix(m, n, density)


def initial_factors(m: int, n: int, rank: int, seed: int) -> tuple[Array, Array]:
    """Starting factors: i.i.d. standard normal entries.

    U is filled first, then V, both row-major from one stream.  Plain unit
    scale starts the logits deep in the saturated regime, which the inertial
    splitting solver escapes far faster than plain alternating descent.
    """
    gen = Xoshiro256StarStar(seed)
    u = gen.normals((m, rank))
    v = gen.normals((rank, n))
    return u, v


def _exp_neg_abs(w: Array) -> tuple[Array, Array]:
    """``w`` as a float array, and exp(-|w|) in a fresh buffer (an array even for 0-d ``w``)."""
    w = np.asarray(w, dtype=float)
    t = np.empty_like(w)
    np.abs(w, out=t)
    np.negative(t, out=t)
    return w, np.exp(t, out=t)


def softplus(w: Array) -> Array:
    """log(1 + exp(w)) as max(w, 0) + log1p(exp(-|w|)); safe for |w| > 700.

    Bit for bit the expression ``np.maximum(w, 0.0) + np.log1p(np.exp(-np.abs(w)))``
    (NaN signs included), formed in two buffers.
    """
    w, t = _exp_neg_abs(w)
    np.log1p(t, out=t)
    out = np.maximum(w, 0.0)
    # in place for arrays; for 0-d input ``out`` is a numpy scalar and this
    # is the scalar addition the unfused expression performed
    out += t[()]
    return out


def sigmoid(w: Array) -> Array:
    """1 / (1 + exp(-w)) without overflow.

    Bit for bit ``np.where(w >= 0, 1 / (1 + t), t / (1 + t))`` with
    t = exp(-|w|), at +-0, +-inf and NaN too: where w >= 0, t <= 1 and
    max(t, 1) = 1; elsewhere t >= 0 and max(t, 0) = t.  Always an array.
    """
    w, t = _exp_neg_abs(w)
    den = np.add(1.0, t)
    np.maximum(t, w >= 0.0, out=t)
    return np.divide(t, den, out=t)


def logistic_loss(w: Array, y: Array, c: float) -> float:
    """sum (1 + c y - y) softplus(w) - c y w.

    Bit for bit ``sum(softplus(w)) + (c - 1) <y, softplus(w)> - c <y, w>``,
    each inner product one BLAS reduction (:func:`~iadmm.core.vdot`): no
    weights and no product y w are formed.
    """
    w = np.asarray(w, dtype=float)
    sp = softplus(w)
    return float(np.sum(sp) + (c - 1.0) * vdot(y, sp) - c * vdot(y, w))


def logistic_loss_grad(w: Array, y: Array, c: float) -> Array:
    """Entrywise (1 + c y - y) sigmoid(w) - c y.

    Bit for bit ``(1 + (c - 1) y) * sigmoid(w) - c * y``, formed in
    sigmoid's buffer; the weights and c y share a second one.
    """
    g = sigmoid(w)
    buf = np.multiply(c - 1.0, y, out=np.empty_like(g))
    np.add(1.0, buf, out=buf)
    np.multiply(buf, g, out=g)
    np.subtract(g, np.multiply(c, y, out=buf), out=g)
    return g[()]


def logistic_loss_lipschitz(y: Array, c: float) -> float:
    """Sharp bound max_ij (1 + c y - y) / 4 on the entrywise curvature."""
    if c < 0.0:
        raise ConfigError(f"class weight c must be >= 0, got {c}")
    return float(np.max(1.0 + (c - 1.0) * np.asarray(y)) / 4.0)


def frobenius_penalty(x: Array, lam: float) -> float:
    """lam/2 ||x||_F^2, by one BLAS reduction; f_i of the splitting and the
    penalties of :func:`objective`."""
    return 0.5 * lam * vdot(x, x)


def objective(
    u: Array, v: Array, uv: Array, y: Array, c: float, lam_row: float, lam_col: float
) -> float:
    """Factor-space objective: logistic loss at ``uv`` = U V plus Frobenius penalties."""
    return logistic_loss(uv, y, c) + frobenius_penalty(u, lam_row) + frobenius_penalty(v, lam_col)


def gram_spectral_norm(a: Array) -> float:
    """lambda_max(A A^T) (= lambda_max(A^T A)), via the smaller Gram matrix."""
    a = np.asarray(a, dtype=float)
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    return float(np.linalg.eigvalsh(gram)[-1])


def gd_step(
    u: Array, v: Array, y: Array, c: float, lam_row: float, lam_col: float
) -> tuple[Array, Array]:
    """One sweep of alternating gradient descent with exact block step sizes.

    U moves first with step 1 / (L_G ||V V^T|| + lam_row); V follows at the
    new U with step 1 / (L_G ||U^T U|| + lam_col).  Each step satisfies the
    descent lemma for its block, so the objective cannot increase.
    """
    grad_u = logistic_loss_grad(u @ v, y, c) @ v.T + lam_row * u
    return _gd_step(u, v, grad_u, y, c, lam_row, lam_col, logistic_loss_lipschitz(y, c))


def _gd_step(
    u: Array, v: Array, grad_u: Array, y: Array, c: float, lam_row: float,
    lam_col: float, lg: float,
) -> tuple[Array, Array]:
    """:func:`gd_step` given the U-gradient ``grad_u`` at (u, v) and L_G = ``lg``."""
    u_new = u - grad_u / (lg * gram_spectral_norm(v) + lam_row)
    grad_v = u_new.T @ logistic_loss_grad(u_new @ v, y, c) + lam_col * v
    v_new = v - grad_v / (lg * gram_spectral_norm(u_new) + lam_col)
    return u_new, v_new


def gd_run(
    u0: Array,
    v0: Array,
    inst: LogMfInstance,
    max_iters: int | None = 1000,
    max_seconds: float | None = None,
) -> tuple[Array, Array, list]:
    """Alternating gradient descent baseline with a solver-compatible trace.

    Splitting-specific columns (aug_lagrangian, lyapunov, feas, ...) are NaN;
    ``objective`` and the extras' ``model_objective`` both carry the
    factor-space objective, and stat_x_max the larger block gradient norm.
    Each step starts from the U-gradient its preceding record formed at the
    same point, the expression :func:`gd_step` would evaluate.  The budget
    must pass :func:`~iadmm.solver.check_budget`, as the solver's does.
    """
    import time

    check_budget(max_iters, max_seconds)
    y, c = inst.y, inst.c
    lg = logistic_loss_lipschitz(y, c)
    u, v = np.asarray(u0, dtype=float).copy(), np.asarray(v0, dtype=float).copy()
    start = time.perf_counter()

    def record(k: int) -> tuple[TraceRecord, Array]:
        uv = u @ v
        obj = objective(u, v, uv, y, c, inst.lam_row, inst.lam_col)
        g = logistic_loss_grad(uv, y, c)
        # grad_u last, so that it is the only gradient alive alongside uv and g
        gv = float(np.linalg.norm(u.T @ g + inst.lam_col * v))
        grad_u = g @ v.T + inst.lam_row * u
        gu = float(np.linalg.norm(grad_u))
        return TraceRecord(
            k=k,
            time_s=time.perf_counter() - start,
            objective=obj,
            stat_x_max=max(gu, gv),
            extras={"model_objective": obj, "omega_norm": math.nan},
        ), grad_u

    rec, grad_u = record(0)
    trace = [rec]
    limit = max_iters if max_iters is not None else (1 << 62)
    for k in range(limit):
        if max_seconds is not None and time.perf_counter() - start >= max_seconds:
            break
        u, v = _gd_step(u, v, grad_u, y, c, inst.lam_row, inst.lam_col, lg)
        del grad_u  # not held while record(k + 1) forms the next one
        rec, grad_u = record(k + 1)
        trace.append(rec)
    return u, v, trace


def make_problem(inst: LogMfInstance) -> ProblemSpec:
    """Problem oracles for the splitting formulation UV - W = 0.

    The smooth coupled term is empty: the Frobenius regularizers enter as
    the separable parts, whose proximal maps are the closed-form shrinkages
    weight * center / (weight + lam).  The objective is bounded below by 0
    (every loss term is a nonnegative multiple of softplus at +-w).
    """
    y, c = inst.y, inst.c
    m, n = inst.shape
    rank = inst.rank
    lams = (inst.lam_row, inst.lam_col)

    def coupling_value(blocks):
        return blocks[0] @ blocks[1]

    def coupling_jac_t(i, blocks, r):
        if i == 0:
            return r @ blocks[1].T
        return blocks[0].T @ r

    def block_penalty_lipschitz(i, blocks):
        return gram_spectral_norm(blocks[1 - i])

    def separable_value(i, xi):
        return frobenius_penalty(xi, lams[i])

    def separable_prox(i, center, weight):
        return (weight / (weight + lams[i])) * center

    return ProblemSpec(
        block_shapes=((m, rank), (rank, n)),
        lin_map=ScaledIdentity(-1.0, (m, n)),
        coupling_value=coupling_value,
        coupling_jac_t=coupling_jac_t,
        block_penalty_lipschitz=block_penalty_lipschitz,
        y_value=lambda w: logistic_loss(w, y, c),
        y_grad=lambda w: logistic_loss_grad(w, y, c),
        y_grad_lipschitz=logistic_loss_lipschitz(y, c),
        separable_value=separable_value,
        separable_prox=separable_prox,
        block_traits=lambda i: BlockTraits(
            coupling_linear=True, separable_convex=True, smooth_convex=True
        ),
    )


def model_objective_metric(inst: LogMfInstance):
    """Trace metric: factor-space objective at the current iterate.

    Reads the factor product from the engine's ``coupling_cur``.
    """

    def metric(state: IterateState) -> float:
        return objective(
            state.x[0], state.x[1], state.coupling_cur, inst.y, inst.c,
            inst.lam_row, inst.lam_col,
        )

    return metric

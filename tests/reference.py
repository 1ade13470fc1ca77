"""Reference oracles the tests compare the engine against.

Each avoids the solver's own code paths: gradients come from central
differences, subproblem minimizers from grid search plus pattern refinement,
and the logistic-factorization block updates from their closed forms, which
must agree with the generic solver path to rounding.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from iadmm.core import Array, ConfigError
from iadmm.logmf import gram_spectral_norm, logistic_loss_grad, logistic_loss_lipschitz

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


def update_row_factors(
    u_ex: Array, v: Array, w: Array, omega: Array, beta: float, lam: float
) -> Array:
    """Exact minimizer of the extrapolated U subproblem.

    U+ = (beta ||V V^T|| U_ex - omega V^T - beta (U_ex V - W) V^T)
         / (beta ||V V^T|| + lam).
    """
    lip = gram_spectral_norm(v)
    denom = beta * lip + lam
    if denom == 0.0:
        raise ZeroDivisionError("U update needs beta * ||V V^T|| + lam > 0")
    numer = beta * lip * u_ex - omega @ v.T - beta * ((u_ex @ v - w) @ v.T)
    return numer / denom


def update_col_factors(
    v_ex: Array, u: Array, w: Array, omega: Array, beta: float, lam: float
) -> Array:
    """Exact minimizer of the extrapolated V subproblem (U already updated)."""
    lip = gram_spectral_norm(u)
    denom = beta * lip + lam
    if denom == 0.0:
        raise ZeroDivisionError("V update needs beta * ||U^T U|| + lam > 0")
    numer = beta * lip * v_ex - u.T @ omega - beta * (u.T @ (u @ v_ex - w))
    return numer / denom


def update_logits(
    w: Array, uv: Array, omega: Array, y: Array, c: float, beta: float
) -> Array:
    """Proximal-linearized logit update.

    W+ = (L_G W - grad(W) + omega + beta U V) / (beta + L_G) with L_G the
    loss curvature bound; ``uv`` is the freshly updated product.
    """
    lg = logistic_loss_lipschitz(y, c)
    return (lg * w - logistic_loss_grad(w, y, c) + omega + beta * uv) / (beta + lg)

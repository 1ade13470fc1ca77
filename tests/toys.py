"""Shared fixtures: a small convex quadratic test problem with a KKT oracle.

    minimize 1/2 ||x - a||^2 + 1/2 ||y - b||^2   s.t.  A x - y = 0

The optimality system is linear, so the exact solution comes from one
dense solve, independent of the splitting solver.
"""

from __future__ import annotations

import numpy as np

from iadmm.core import BlockTraits, ProblemSpec, ScaledIdentity


def quadratic_toy(n=4, q=4, seed=3):
    rng = np.random.default_rng(seed)
    a_mat = rng.standard_normal((q, n))
    a = rng.standard_normal(n)
    b = rng.standard_normal(q)
    return a_mat, a, b


def kkt_solution(a_mat, a, b):
    """Exact stationary point of the toy from its linear KKT system."""
    q, n = a_mat.shape
    k = np.zeros((n + 2 * q, n + 2 * q))
    k[:n, :n] = np.eye(n)
    k[:n, n + q:] = a_mat.T
    k[n:n + q, n:n + q] = np.eye(q)
    k[n:n + q, n + q:] = -np.eye(q)
    k[n + q:, :n] = a_mat
    k[n + q:, n:n + q] = -np.eye(q)
    rhs = np.concatenate([a, b, np.zeros(q)])
    sol = np.linalg.solve(k, rhs)
    return sol[:n], sol[n:n + q], sol[n + q:]


def toy_problem(a_mat, a, b, rule="penalty_linearized"):
    """ProblemSpec for the toy under any of the three update rules.

    For the penalty-linearized rule the smooth term is folded into the
    separable prox; the other rules expose it through gradient oracles.
    """
    q, n = a_mat.shape
    lip = float(np.linalg.eigvalsh(a_mat.T @ a_mat)[-1])
    kwargs = dict(
        block_shapes=((n,),),
        lin_map=ScaledIdentity(-1.0, (q,)),
        coupling_value=lambda blocks: a_mat @ blocks[0],
        coupling_jac_t=lambda i, blocks, r: a_mat.T @ r,
        block_penalty_lipschitz=lambda i, blocks: lip,
        y_value=lambda y: 0.5 * float(np.sum((y - b) ** 2)),
        y_grad=lambda y: y - b,
        y_grad_lipschitz=1.0,
        block_traits=lambda i: BlockTraits(True, True, True),
    )
    if rule == "penalty_linearized":
        kwargs["separable_value"] = lambda i, xi: 0.5 * float(np.sum((xi - a) ** 2))
        kwargs["separable_prox"] = lambda i, c, w: (w * c + a) / (w + 1.0)
    else:
        kwargs["smooth_value"] = lambda blocks: 0.5 * float(np.sum((blocks[0] - a) ** 2))
        kwargs["smooth_grad_block"] = lambda i, blocks: blocks[0] - a
        kwargs["block_smooth_lipschitz"] = lambda i, blocks: 1.0
    if rule == "penalty_exact":
        def coupled_prox(i, blocks, v, beta, g, weight, anchor):
            h = beta * (a_mat.T @ a_mat) + weight * np.eye(n)
            return np.linalg.solve(h, weight * anchor - a_mat.T @ v - g)

        kwargs["coupled_prox"] = coupled_prox
    return ProblemSpec(**kwargs)


def two_block_exact_problem(a_mat, a, b, split=2):
    """The toy under penalty_exact with x cut into two column blocks.

    x[:split] is block 0 and x[split:] block 1; h = A_0 x_0 + A_1 x_1 and F
    is the toy's 1/2 ||x - a||^2.  ``coupled_prox`` solves each block's
    subproblem exactly with the other block fixed.
    """
    cols = (slice(0, split), slice(split, a_mat.shape[1]))
    parts = [a_mat[:, c] for c in cols]
    anchors = [a[c] for c in cols]
    lips = [float(np.linalg.eigvalsh(m.T @ m)[-1]) for m in parts]

    def coupling_value(blocks):
        return parts[0] @ blocks[0] + parts[1] @ blocks[1]

    def coupled_prox(i, blocks, v, beta, g, weight, anchor):
        a_i = parts[i]
        rest = parts[1 - i] @ blocks[1 - i]
        h = beta * (a_i.T @ a_i) + weight * np.eye(a_i.shape[1])
        return np.linalg.solve(h, weight * anchor - a_i.T @ (v + beta * rest) - g)

    return ProblemSpec(
        block_shapes=tuple((m.shape[1],) for m in parts),
        lin_map=ScaledIdentity(-1.0, (a_mat.shape[0],)),
        coupling_value=coupling_value,
        coupling_jac_t=lambda i, blocks, r: parts[i].T @ r,
        block_penalty_lipschitz=lambda i, blocks: lips[i],
        y_value=lambda y: 0.5 * float(np.sum((y - b) ** 2)),
        y_grad=lambda y: y - b,
        y_grad_lipschitz=1.0,
        smooth_value=lambda blocks: 0.5 * float(
            sum(np.sum((x - c) ** 2) for x, c in zip(blocks, anchors))),
        smooth_grad_block=lambda i, blocks: blocks[i] - anchors[i],
        block_smooth_lipschitz=lambda i, blocks: 1.0,
        coupled_prox=coupled_prox,
        block_traits=lambda i: BlockTraits(True, True, True),
    )

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iadmm
from iadmm import logmf
from iadmm.core import (
    DenseMap,
    DimensionError,
    ScaledIdentity,
    augmented_lagrangian,
    constraint_residual,
    objective_value,
    stationarity_residuals,
)

from toys import kkt_solution, quadratic_toy, toy_problem


def logmf_problem(m=2, n=2, rank=1, c=1.0):
    inst = logmf.LogMfInstance(y=np.zeros((m, n)), rank=rank, c=c)
    return logmf.make_problem(inst)


class TestObjective:
    def test_logmf_zero_point_is_4_ln2(self):
        # two-by-two instance at U = V = W = 0 with unit class weight
        p = logmf_problem()
        x = [np.zeros((2, 1)), np.zeros((1, 2))]
        val = objective_value(p, x, np.zeros((2, 2)))
        assert val == pytest.approx(4.0 * math.log(2.0), rel=1e-15)

    def test_infinite_separable_value_propagates(self):
        a_mat, a, b = quadratic_toy()
        p = toy_problem(a_mat, a, b)
        p.separable_value = lambda i, xi: math.inf
        x = [np.zeros(4)]
        assert objective_value(p, x, np.zeros(4)) == math.inf
        assert augmented_lagrangian(p, x, np.zeros(4), np.zeros(4), 1.0) == math.inf

    def test_quadratic_toy_zero(self):
        a_mat = np.eye(3)
        p = toy_problem(a_mat, np.zeros(3), np.zeros(3))
        x = [np.zeros(3)]
        assert objective_value(p, x, np.zeros(3)) == 0.0

    def test_list_and_tuple_agree(self):
        p = logmf_problem(3, 2, 2)
        u = np.arange(6.0).reshape(3, 2) / 7.0
        v = np.arange(4.0).reshape(2, 2) / 5.0
        w = np.full((3, 2), 0.25)
        assert objective_value(p, [u, v], w) == objective_value(p, (u, v), w)

    def test_shape_mismatch_raises(self):
        p = logmf_problem()
        with pytest.raises(DimensionError):
            objective_value(p, [np.zeros((3, 1)), np.zeros((1, 2))],
                            np.zeros((2, 2)))


class TestAugmentedLagrangian:
    def test_feasible_point_equals_objective(self):
        # logmf with W = UV is feasible for any omega
        p = logmf_problem(3, 2, 2)
        u = np.arange(6.0).reshape(3, 2) / 7.0
        v = np.arange(4.0).reshape(2, 2) / 5.0
        x = [u, v]
        w = u @ v
        omega = np.full((3, 2), 2.5)
        al = augmented_lagrangian(p, x, w, omega, beta=3.0)
        assert al == pytest.approx(objective_value(p, x, w), abs=1e-12)

    def test_scalar_hand_value(self):
        # residual 2, omega 1, beta 1, zero objective -> 2 + 2 = 4
        p = toy_problem(np.eye(1), np.zeros(1), np.zeros(1))
        p.separable_value = lambda i, xi: 0.0
        p.y_value = lambda y: 0.0
        x = [np.array([3.0])]
        y = np.array([1.0])  # h + By = 3 - 1 = 2
        al = augmented_lagrangian(p, x, y, np.array([1.0]), beta=1.0)
        assert al == pytest.approx(4.0, abs=1e-14)

    def test_norm3_residual_value(self):
        # omega 0, beta 2, ||r|| = 3, objective 1 -> 1 + 9 = 10
        p = toy_problem(np.eye(3), np.zeros(3), np.zeros(3))
        p.separable_value = lambda i, xi: 1.0
        p.y_value = lambda y: 0.0
        x = [np.array([3.0, 0.0, 0.0])]
        y = np.zeros(3)
        al = augmented_lagrangian(p, x, y, np.zeros(3), beta=2.0)
        assert al == pytest.approx(10.0, abs=1e-14)

    def test_bad_beta_rejected(self):
        p = logmf_problem()
        x = [np.zeros((2, 1)), np.zeros((1, 2))]
        with pytest.raises(iadmm.ConfigError):
            augmented_lagrangian(p, x, np.zeros((2, 2)), np.zeros((2, 2)), 0.0)


class TestConstraintResidual:
    def test_feasible_is_zero(self):
        p = logmf_problem(1, 1, 1)
        u, v = np.array([[1.0]]), np.array([[2.0]])
        r = constraint_residual(p, [u, v], np.array([[2.0]]))
        np.testing.assert_allclose(r, 0.0)

    def test_logmf_infeasible_value(self):
        p = logmf_problem(1, 1, 1)
        u, v = np.array([[1.0]]), np.array([[2.0]])
        r = constraint_residual(p, [u, v], np.array([[0.0]]))
        np.testing.assert_allclose(r, [[2.0]])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linear_in_y(self, seed):
        rng = np.random.default_rng(seed)
        a_mat, a, b = quadratic_toy(seed=seed)
        p = toy_problem(a_mat, a, b)
        x = [rng.standard_normal(4)]
        y1 = rng.standard_normal(4)
        y2 = rng.standard_normal(4)
        lhs = (
            constraint_residual(p, x, y1 + y2)
            - constraint_residual(p, x, y1)
            - constraint_residual(p, x, y2)
            + constraint_residual(p, x, np.zeros(4))
        )
        np.testing.assert_allclose(lhs, 0.0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_al_equals_objective_on_feasible_toys(self, seed):
        rng = np.random.default_rng(seed)
        a_mat, a, b = quadratic_toy(seed=seed)
        p = toy_problem(a_mat, a, b)
        xv = rng.standard_normal(4)
        y = a_mat @ xv  # h(x) - y = 0
        omega = rng.standard_normal(4)
        x = [xv]
        al = augmented_lagrangian(p, x, y, omega, beta=2.0)
        assert al == pytest.approx(objective_value(p, x, y), abs=1e-12)


class TestStationarityResiduals:
    def test_exact_stationary_point_is_zero(self):
        a_mat, a, b = quadratic_toy()
        x_star, y_star, w_star = kkt_solution(a_mat, a, b)
        p = toy_problem(a_mat, a, b)
        # subgradient of the folded separable part at the solution
        chi = [x_star - a]
        x = [x_star]
        res = stationarity_residuals(
            p, x, w_star, chi, p.y_grad(y_star), constraint_residual(p, x, y_star)
        )
        assert res.max_residual < 1e-10
        assert all(v >= 0.0 for v in (*res.stat_x, res.stat_y, res.feas))

    def test_logmf_stat_y_hand_value(self):
        # grad of the loss at W = 0 is 0.5 everywhere; omega = 0.5 cancels it
        p = logmf_problem()
        x = [np.zeros((2, 1)), np.zeros((1, 2))]
        omega = np.full((2, 2), 0.5)
        chi = [np.zeros((2, 1)), np.zeros((1, 2))]
        y = np.zeros((2, 2))
        res = stationarity_residuals(
            p, x, omega, chi, p.y_grad(y), constraint_residual(p, x, y)
        )
        assert res.stat_y == pytest.approx(0.0, abs=1e-15)

    def test_wrong_chi_count_raises(self):
        p = logmf_problem()
        x = [np.zeros((2, 1)), np.zeros((1, 2))]
        with pytest.raises(DimensionError):
            stationarity_residuals(
                p, x, np.zeros((2, 2)), [], np.zeros((2, 2)), np.zeros((2, 2))
            )


class TestLinearMaps:
    def test_scaled_identity(self):
        lm = ScaledIdentity(-1.0, (2, 2))
        y = np.arange(4.0).reshape(2, 2)
        np.testing.assert_allclose(lm.apply(y), -y)
        np.testing.assert_allclose(lm.apply_t(y), -y)
        assert lm.lambda_min_bbt == 1.0
        rhs = np.ones((2, 2))
        np.testing.assert_allclose(lm.solve_ridge(2.0, 0.5, rhs), rhs / 2.5)
        np.testing.assert_allclose(lm.least_squares(y), -y)

    def test_dense_map_matches_numpy(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((3, 2))
        lm = DenseMap(b)
        y = rng.standard_normal(2)
        np.testing.assert_allclose(lm.apply(y), b @ y)
        np.testing.assert_allclose(lm.apply_t(np.ones(3)), b.T @ np.ones(3))
        gram = b.T @ b
        rhs = rng.standard_normal(2)
        np.testing.assert_allclose(
            lm.solve_ridge(1.5, 0.3, rhs), np.linalg.solve(1.5 * gram + 0.3 * np.eye(2), rhs)
        )
        assert lm.lambda_min_bbt == pytest.approx(
            np.linalg.eigvalsh(b @ b.T)[0], rel=1e-12
        )


class _NanGramMap(ScaledIdentity):
    """B = c I whose lambda_min(B B^T) reads NaN, as a broken eigensolver might."""

    lambda_min_bbt = math.nan


class TestProblemSpec:
    @pytest.mark.parametrize("change,message", [
        ({"y_grad_lipschitz": math.nan}, "Lipschitz constant must be >= 0"),
        ({"y_grad_lipschitz": -1.0}, "Lipschitz constant must be >= 0"),
        ({"lin_map": _NanGramMap(-1.0, (4,))}, re.escape("lambda_min(B B^T) must be positive")),
    ], ids=["nan-lg", "negative-lg", "nan-lambda-min"])
    def test_problem_constants_checked_at_construction(self, change, message):
        with pytest.raises(iadmm.ConfigError, match=message):
            dataclasses.replace(toy_problem(*quadratic_toy()), **change)


@pytest.mark.parametrize("module", [iadmm, logmf], ids=["iadmm", "logmf"])
def test_every_public_name_is_bound(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iadmm import logmf
from iadmm.core import ConfigError, ProblemSpec, ScaledIdentity
from iadmm.solver import (
    UpdateRule,
    extrapolation_weight,
    nesterov_t_next,
    update_block,
    update_multiplier,
    update_y,
)

import reference
from toys import quadratic_toy, toy_problem


class TestNesterovRecurrence:
    def test_first_step_is_golden_ratio(self):
        assert nesterov_t_next(1.0) == pytest.approx(1.618033988749895, rel=1e-15)

    def test_second_step(self):
        t1 = nesterov_t_next(1.0)
        assert nesterov_t_next(t1) == pytest.approx(2.193527085331054, rel=1e-15)

    def test_asymptotic_halving(self):
        t = 1.0
        for _ in range(100):
            t = nesterov_t_next(t)
        assert 0.49 <= t / 100.0 <= 0.56

    def test_below_one_rejected(self):
        with pytest.raises(ConfigError):
            nesterov_t_next(0.5)

    @given(st.floats(1.0, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_strictly_increasing(self, t):
        assert nesterov_t_next(t) > t


class TestExtrapolationWeight:
    def test_first_iteration_is_zero(self):
        # t_prev = 1 makes the momentum factor vanish
        t1 = nesterov_t_next(1.0)
        assert extrapolation_weight(1.0, t1, 0.9999, 0.5, True, 1.0, 1.0, 1.0, 1.0) == 0.0

    def test_ratio_one_hits_b1(self):
        # large momentum, equal moduli: the cap binds at b1
        alpha = extrapolation_weight(1e6, 1e6, 0.9999, 0.5, True, 1.0, 1.0, 1.0, 1.0)
        assert alpha == pytest.approx(0.9999, rel=1e-12)

    def test_quarter_ratio(self):
        alpha = extrapolation_weight(1e6, 1e6, 0.9999, 0.5, True, 1.0, 1.0, 4.0, 4.0)
        assert alpha == pytest.approx(0.9999 * 0.5, rel=1e-12)

    def test_no_previous_modulus_gives_zero(self):
        t1 = nesterov_t_next(1.0)
        assert extrapolation_weight(t1, nesterov_t_next(t1), 0.9999, 0.5, True,
                                    None, None, 1.0, 1.0) == 0.0

    @given(
        st.floats(1.0, 100.0),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
        st.floats(0.01, 100.0),
        st.floats(0.01, 100.0),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_cap_enforces_carryover_inequality(self, t_prev, b1, nu, lip_prev, lip_cur, exact):
        from iadmm.solver import _descent_coefficients

        t_cur = nesterov_t_next(t_prev)
        margin = 1.01
        kappa_prev = lip_prev if exact else margin * lip_prev
        kappa_cur = lip_cur if exact else margin * lip_cur
        alpha = extrapolation_weight(
            t_prev, t_cur, b1, nu, exact, lip_prev, kappa_prev, lip_cur, kappa_cur
        )
        rule = UpdateRule.PENALTY_LINEARIZED
        eta_prev, _ = _descent_coefficients(rule, exact, 1.0, nu, lip_prev, kappa_prev, 0.0)
        _, gamma_cur = _descent_coefficients(rule, exact, 1.0, nu, lip_cur, kappa_cur, alpha)
        assert gamma_cur <= b1 * eta_prev * (1 + 1e-12)


def scalar_logmf_problem():
    inst = logmf.LogMfInstance(y=np.zeros((1, 1)), rank=1, c=1.0, lam_row=1.0, lam_col=1.0)
    return logmf.make_problem(inst)


class TestUpdateBlock:
    def test_scalar_factor_block_hand_value(self):
        # lam 1, beta 1, V 1, W 0, omega 1, extrapolated U 0 -> -0.5
        p = scalar_logmf_problem()
        blocks = [np.array([[0.0]]), np.array([[1.0]])]
        xbar = np.array([[0.0]])
        dual_vec = np.array([[1.0]]) + 1.0 * (-np.array([[0.0]]))  # omega + beta*B W
        x_new, chi, _, _, _ = update_block(
            p, UpdateRule.PENALTY_LINEARIZED, 0, blocks, xbar, dual_vec, beta=1.0, kappa=1.0
        )
        assert x_new[0, 0] == pytest.approx(-0.5, abs=1e-15)
        # proximal identity certificate: chi is in the subdifferential at x_new
        assert chi[0, 0] == pytest.approx(1.0 * x_new[0, 0], abs=1e-15)

    def test_fixed_point_stays(self):
        # no extrapolation, already optimal: the update returns the point
        a_mat, a, b = quadratic_toy()
        from toys import kkt_solution

        x_star, y_star, w_star = kkt_solution(a_mat, a, b)
        p = toy_problem(a_mat, a, b)
        dual_vec = w_star + 2.0 * (-y_star)
        lip = float(np.linalg.eigvalsh(a_mat.T @ a_mat)[-1])
        # at the stationary point with feasibility, h(x*) = y*
        x_new, _, _, _, _ = update_block(
            p, UpdateRule.PENALTY_LINEARIZED, 0, [x_star], x_star, dual_vec, 2.0, lip
        )
        np.testing.assert_allclose(x_new, x_star, atol=1e-12)

    def test_penalty_exact_reduces_to_gradient_step(self):
        # h = 0, f = 0: the subproblem is a plain proximal-gradient step
        n = 1

        def coupled_prox(i, blocks, v, beta, g, weight, anchor):
            return anchor - g / weight

        p = ProblemSpec(
            block_shapes=((n,),),
            lin_map=ScaledIdentity(-1.0, (n,)),
            coupling_value=lambda blocks: np.zeros(n),
            coupling_jac_t=lambda i, blocks, r: np.zeros(n),
            block_penalty_lipschitz=lambda i, blocks: 0.0,
            y_value=lambda y: 0.0,
            y_grad=lambda y: np.zeros(n),
            y_grad_lipschitz=1.0,
            smooth_value=lambda blocks: 0.5 * float(blocks[0][0] ** 2),
            smooth_grad_block=lambda i, blocks: blocks[0].copy(),
            block_smooth_lipschitz=lambda i, blocks: 1.0,
            coupled_prox=coupled_prox,
        )
        xbar = np.array([2.0])
        x_new, _, _, _, _ = update_block(
            p, UpdateRule.PENALTY_EXACT, 0, [xbar.copy()], xbar,
            np.zeros(n), beta=1.0, kappa=1.0,
        )
        # xbar - grad(xbar)/kappa = 2 - 2/1
        assert x_new[0] == pytest.approx(0.0, abs=1e-15)
        x_new2, _, _, _, _ = update_block(
            p, UpdateRule.PENALTY_EXACT, 0, [xbar.copy()], xbar,
            np.zeros(n), beta=1.0, kappa=2.0,
        )
        assert x_new2[0] == pytest.approx(1.0, abs=1e-15)

    def test_fully_linearized_matches_manual(self):
        a_mat, a, b = quadratic_toy()
        p = toy_problem(a_mat, a, b, rule="fully_linearized")
        rng = np.random.default_rng(8)
        x = rng.standard_normal(4)
        xbar = rng.standard_normal(4)
        omega = rng.standard_normal(4)
        y = rng.standard_normal(4)
        beta = 2.0
        lip = float(np.linalg.eigvalsh(a_mat.T @ a_mat)[-1])
        kappa = 1.0 + beta * lip
        dual_vec = omega + beta * (-y)
        x_new, _, _, _, _ = update_block(
            p, UpdateRule.FULLY_LINEARIZED, 0, [x], xbar, dual_vec, beta, kappa
        )
        grad = (xbar - a) + a_mat.T @ (dual_vec + beta * (a_mat @ xbar))
        np.testing.assert_allclose(x_new, xbar - grad / kappa, atol=1e-12)

    @pytest.mark.parametrize("rule", list(UpdateRule))
    def test_hands_over_lin_weight_and_h(self, rule):
        # the certificate and the sweep read these instead of forming them again
        a_mat, a, b = quadratic_toy()
        p = toy_problem(a_mat, a, b, rule=rule.value)
        rng = np.random.default_rng(9)
        x, xbar, dual_vec = (rng.standard_normal(4) for _ in range(3))
        beta, kappa = 2.0, 3.7
        x_new, chi, lin, weight, h_new = update_block(p, rule, 0, [x], xbar, dual_vec, beta, kappa)
        scale = beta if rule is UpdateRule.PENALTY_LINEARIZED else 1.0
        assert weight == scale * kappa
        grad_f = xbar - a
        if rule is UpdateRule.PENALTY_EXACT:
            np.testing.assert_allclose(lin, grad_f, rtol=0, atol=1e-15)
            np.testing.assert_array_equal(h_new, p.coupling_value([x_new]))
        else:
            grad = a_mat.T @ (dual_vec + beta * (a_mat @ xbar))
            if rule is UpdateRule.FULLY_LINEARIZED:
                grad = grad + grad_f
            np.testing.assert_allclose(lin, grad, rtol=1e-14)
            np.testing.assert_array_equal(chi, weight * (xbar - lin / weight - x_new))
            assert h_new is None


class TestUpdateY:
    def test_scalar_logit_hand_value(self):
        # beta 1, L_G 1/4, W 0, data 0, grad 1/2, omega 0, UV 0 -> -0.4
        inst = logmf.LogMfInstance(y=np.zeros((1, 1)), rank=1)
        p = logmf.make_problem(inst)
        zero = np.zeros((1, 1))
        y_new = update_y(p, 1.0, zero, p.y_grad(zero), zero, zero)
        assert y_new[0, 0] == pytest.approx(-0.4, abs=1e-15)

    def test_fixed_point(self):
        # zero gradient, zero multiplier, h = -B y: y is already optimal
        a_mat, a, b = quadratic_toy()
        p = toy_problem(a_mat, a, b)
        p.y_grad = lambda y: np.zeros(4)
        y = np.arange(4.0)
        h_new = y.copy()  # -B y = y for B = -I
        y_new = update_y(p, 3.0, y, p.y_grad(y), np.zeros(4), h_new)
        np.testing.assert_allclose(y_new, y, atol=1e-14)

    def test_matches_closed_form_logit_update(self):
        rng = np.random.default_rng(4)
        data = (rng.uniform(size=(3, 4)) < 0.4).astype(float)
        inst = logmf.LogMfInstance(y=data, rank=2, c=1.5)
        p = logmf.make_problem(inst)
        w = rng.standard_normal((3, 4))
        omega = rng.standard_normal((3, 4))
        uv = rng.standard_normal((3, 4))
        got = update_y(p, 2.0, w, p.y_grad(w), omega, uv)
        want = reference.update_logits(w, uv, omega, data, 1.5, 2.0)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_optimality_residual_small(self):
        from iadmm.solver import y_optimality_residual

        rng = np.random.default_rng(5)
        data = (rng.uniform(size=(2, 2)) < 0.5).astype(float)
        inst = logmf.LogMfInstance(y=data, rank=1)
        p = logmf.make_problem(inst)
        w = rng.standard_normal((2, 2))
        omega = rng.standard_normal((2, 2))
        uv = rng.standard_normal((2, 2))
        grad_y = p.y_grad(w)
        y_new = update_y(p, 1.0, w, grad_y, omega, uv)
        res, scale = y_optimality_residual(p, 1.0, w, grad_y, omega, uv, y_new)
        assert res <= 1e-12 * scale


class TestUpdateMultiplier:
    def test_classical_ascent(self):
        r = np.array([1.0, -2.0])
        np.testing.assert_allclose(update_multiplier(1.0, 1.0, 1.0, np.zeros(2), r), r)

    def test_pure_scaling(self):
        omega = np.array([3.0, -1.0])
        got = update_multiplier(1.0, 0.1, 0.1, omega, np.zeros(2))
        np.testing.assert_allclose(got, 0.1 * omega)

    def test_scaled_step_hand_value(self):
        got = update_multiplier(2.0, 1.0, 0.5, np.array([1.0]), np.array([3.0]))
        np.testing.assert_allclose(got, [4.0])

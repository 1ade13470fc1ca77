import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iadmm import logmf
from iadmm.core import ConfigError, objective_value

import reference
from reference import finite_diff_grad


class TestGenerateMatrix:
    def test_density_zero(self):
        assert logmf.generate_matrix(5, 7, 0.0, 1).sum() == 0

    def test_density_one(self):
        m = logmf.generate_matrix(5, 7, 1.0, 1)
        assert m.sum() == 35

    def test_binomial_band_at_benchmark_scale(self):
        m = logmf.generate_matrix(200, 200, 0.1, 2024)
        assert 3400 <= m.sum() <= 4600

    def test_deterministic_per_seed(self):
        a = logmf.generate_matrix(20, 20, 0.3, 9)
        b = logmf.generate_matrix(20, 20, 0.3, 9)
        c = logmf.generate_matrix(20, 20, 0.3, 10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bad_density_rejected(self):
        with pytest.raises(ConfigError):
            logmf.generate_matrix(2, 2, 1.5, 0)


class TestLossPieces:
    def test_grad_at_zero_logit_negative_class(self):
        g = logmf.logistic_loss_grad(np.zeros((1, 1)), np.zeros((1, 1)), 1.0)
        assert g[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_grad_at_zero_logit_positive_class(self):
        g = logmf.logistic_loss_grad(np.zeros((1, 1)), np.ones((1, 1)), 1.0)
        assert g[0, 0] == pytest.approx(-0.5, abs=1e-15)

    def test_grad_saturates_to_one(self):
        g = logmf.logistic_loss_grad(np.full((1, 1), 50.0), np.zeros((1, 1)), 1.0)
        assert g[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        y = (rng.uniform(size=(2, 2)) < 0.5).astype(float)
        w = rng.uniform(-3.0, 3.0, size=(2, 2))
        want = finite_diff_grad(lambda z: logmf.logistic_loss(z, y, 1.3), w, 1e-5)
        got = logmf.logistic_loss_grad(w, y, 1.3)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_lipschitz_unit_weight(self):
        assert logmf.logistic_loss_lipschitz(np.eye(3), 1.0) == 0.25
        assert logmf.logistic_loss_lipschitz(np.zeros((2, 2)), 1.0) == 0.25

    def test_lipschitz_weighted_positive_class(self):
        y = np.zeros((2, 2))
        y[0, 0] = 1.0
        assert logmf.logistic_loss_lipschitz(y, 3.0) == 0.75

    def test_lipschitz_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            logmf.logistic_loss_lipschitz(np.zeros((1, 1)), -1.0)

    @given(st.floats(-30.0, 30.0), st.integers(0, 1), st.floats(0.5, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_lipschitz_majorizes_curvature(self, w, yv, c):
        # second derivative of the entry loss: (1 + c y - y) sigma(w)(1 - sigma(w))
        y = np.array([[float(yv)]])
        s = float(logmf.sigmoid(np.array([[w]]))[0, 0])
        curvature = (1.0 + (c - 1.0) * yv) * s * (1.0 - s)
        assert abs(curvature) <= logmf.logistic_loss_lipschitz(y, c) + 1e-12

    def test_lipschitz_majorizes_curvature_bulk(self):
        rng = np.random.default_rng(17)
        w = rng.uniform(-40.0, 40.0, size=10**4)
        y = (rng.uniform(size=10**4) < 0.5).astype(float)
        c = 2.3
        s = logmf.sigmoid(w)
        curvature = (1.0 + (c - 1.0) * y) * s * (1.0 - s)
        bound = logmf.logistic_loss_lipschitz(y.reshape(100, 100), c)
        assert np.all(np.abs(curvature) <= bound + 1e-12)

    @given(st.floats(-800.0, 800.0))
    @settings(max_examples=100, deadline=None)
    def test_softplus_overflow_safe_and_tight(self, w):
        v = float(logmf.softplus(np.array(w)))
        assert math.isfinite(v)
        assert v >= max(w, 0.0)
        if abs(w) < 30:
            assert v == pytest.approx(math.log(1.0 + math.exp(w)), rel=1e-12)


# the kernels as plain expressions; the fused kernels must reproduce every bit
def _softplus_ref(w):
    w = np.asarray(w, dtype=float)
    return np.maximum(w, 0.0) + np.log1p(np.exp(-np.abs(w)))


def _sigmoid_ref(w):
    w = np.asarray(w, dtype=float)
    t = np.exp(-np.abs(w))
    return np.where(w >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def _loss_ref(w, y, c):
    sp = _softplus_ref(w)
    return float(np.sum(sp) + (c - 1.0) * float(np.vdot(y, sp)) - c * float(np.vdot(y, w)))


def _loss_grad_ref(w, y, c):
    return (1.0 + (c - 1.0) * y) * _sigmoid_ref(w) - c * y


_EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
          710.0, -710.0, 1e-300, -1e-300)


def _kernel_inputs():
    """(w, y) pairs: the edge values and normals at four scales, 2-d and 0-d."""
    rng = np.random.default_rng(31)
    grids = [np.array(_EDGES).reshape(2, 5)]
    grids += [rng.normal(scale=s, size=(40, 30)) for s in (0.1, 3.0, 30.0, 800.0)]
    pairs = []
    for w in grids:
        y = (rng.uniform(size=w.shape) < 0.4).astype(float)
        pairs.append((w, y))
        pairs += [(np.array(wi), np.array(yi)) for wi, yi in zip(w.flat[:10], y.flat[:10])]
    return pairs


def _same_bits(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestKernelBits:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("c", [1.0, 2.3])
    def test_kernels_match_plain_expressions(self, c):
        pairs = _kernel_inputs()
        assert any(w.ndim == 0 and math.isnan(w) for w, _ in pairs)
        for w, y in pairs:
            w0, y0 = w.tobytes(), y.tobytes()
            _same_bits(logmf.softplus(w), _softplus_ref(w))
            _same_bits(logmf.sigmoid(w), _sigmoid_ref(w))
            _same_bits(logmf.logistic_loss(w, y, c), _loss_ref(w, y, c))
            _same_bits(logmf.logistic_loss_grad(w, y, c), _loss_grad_ref(w, y, c))
            # the kernels work in place, but never in their inputs
            assert w.tobytes() == w0 and y.tobytes() == y0

    @pytest.mark.parametrize("scale", [0.1, 3.0, 30.0])
    def test_loss_close_to_exact_sum_of_entry_terms(self, scale):
        rng = np.random.default_rng(47)
        w = rng.normal(scale=scale, size=(1000, 200))
        y = (rng.uniform(size=w.shape) < 0.3).astype(float)
        sp = _softplus_ref(w)
        for c in (0.4, 1.0, 2.3):
            exact = math.fsum(((1.0 + (c - 1.0) * y) * sp - c * y * w).flat)
            assert abs(logmf.logistic_loss(w, y, c) - exact) <= 1e-13 * abs(exact)

    def test_frobenius_penalty_matches_plain_expression(self):
        rng = np.random.default_rng(5)
        cases = [np.zeros((3, 2)), np.array([[1e-300, -1e300]]), np.array(2.5)]
        cases += [rng.normal(scale=s, size=(40, 30)) for s in (1e-3, 1.0, 1e3)]
        for x in cases:
            for lam in (0.0, 0.125, 0.25, 3.0):
                want = 0.5 * lam * float(np.vdot(x, x))
                _same_bits(logmf.frobenius_penalty(x, lam), want)
        inst = logmf.LogMfInstance(y=np.eye(40, 30), rank=30, lam_row=0.3, lam_col=0.7)
        p = logmf.make_problem(inst)
        _same_bits(p.separable_value(0, cases[-1]), logmf.frobenius_penalty(cases[-1], 0.3))
        _same_bits(p.separable_value(1, cases[-2].T), logmf.frobenius_penalty(cases[-2].T, 0.7))


class TestObjective:
    def test_zero_point_value(self):
        u = np.zeros((2, 1))
        v = np.zeros((1, 2))
        val = logmf.objective(u, v, u @ v, np.zeros((2, 2)), 1.0, 0.7, 0.9)
        assert val == pytest.approx(4.0 * math.log(2.0), rel=1e-15)

    def test_zero_product_any_rank(self):
        u = np.zeros((3, 2))
        v = np.zeros((2, 4))
        val = logmf.objective(u, v, u @ v, np.zeros((3, 4)), 1.0, 0.0, 0.0)
        assert val == pytest.approx(12.0 * math.log(2.0), rel=1e-15)

    def test_matches_split_objective_at_feasible_point(self):
        rng = np.random.default_rng(7)
        y = (rng.uniform(size=(4, 5)) < 0.3).astype(float)
        inst = logmf.LogMfInstance(y=y, rank=2, c=1.0, lam_row=0.3, lam_col=0.6)
        p = logmf.make_problem(inst)
        u = rng.standard_normal((4, 2))
        v = rng.standard_normal((2, 5))
        direct = logmf.objective(u, v, u @ v, y, 1.0, 0.3, 0.6)
        split = objective_value(p, [u, v], u @ v)
        assert split == pytest.approx(direct, rel=1e-10)


class TestClosedFormUpdates:
    def test_row_update_scalar_hand_value(self):
        got = reference.update_row_factors(
            u_ex=np.array([[0.0]]), v=np.array([[1.0]]), w=np.array([[0.0]]),
            omega=np.array([[1.0]]), beta=1.0, lam=1.0,
        )
        assert got[0, 0] == pytest.approx(-0.5, abs=1e-15)

    def test_row_update_residual_free_shrinkage(self):
        rng = np.random.default_rng(1)
        u_ex = rng.standard_normal((3, 2))
        v = rng.standard_normal((2, 4))
        w = u_ex @ v
        got = reference.update_row_factors(u_ex, v, w, np.zeros((3, 4)), beta=2.0, lam=0.5)
        lip = logmf.gram_spectral_norm(v)
        np.testing.assert_allclose(got, (2.0 * lip / (2.0 * lip + 0.5)) * u_ex, rtol=1e-12)

    def test_row_update_zero_lam_form(self):
        rng = np.random.default_rng(2)
        u_ex = rng.standard_normal((2, 2))
        v = rng.standard_normal((2, 3))
        w = rng.standard_normal((2, 3))
        omega = rng.standard_normal((2, 3))
        got = reference.update_row_factors(u_ex, v, w, omega, beta=1.5, lam=0.0)
        lip = logmf.gram_spectral_norm(v)
        want = u_ex - (omega + 1.5 * (u_ex @ v - w)) @ v.T / (1.5 * lip)
        np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_col_update_scalar_mirror(self):
        got = reference.update_col_factors(
            v_ex=np.array([[0.0]]), u=np.array([[1.0]]), w=np.array([[0.0]]),
            omega=np.array([[1.0]]), beta=1.0, lam=1.0,
        )
        assert got[0, 0] == pytest.approx(-0.5, abs=1e-15)

    def test_col_update_residual_free_shrinkage(self):
        rng = np.random.default_rng(3)
        v_ex = rng.standard_normal((2, 4))
        u = rng.standard_normal((3, 2))
        w = u @ v_ex
        got = reference.update_col_factors(v_ex, u, w, np.zeros((3, 4)), beta=1.0, lam=0.25)
        lip = logmf.gram_spectral_norm(u)
        np.testing.assert_allclose(got, (lip / (lip + 0.25)) * v_ex, rtol=1e-12)

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            reference.update_row_factors(
                np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                np.zeros((1, 1)), beta=1.0, lam=0.0,
            )

    def test_logit_update_scalar_hand_value(self):
        got = reference.update_logits(
            w=np.zeros((1, 1)), uv=np.zeros((1, 1)), omega=np.zeros((1, 1)),
            y=np.zeros((1, 1)), c=1.0, beta=1.0,
        )
        assert got[0, 0] == pytest.approx(-0.4, abs=1e-15)

    def test_logit_update_first_order_condition(self):
        rng = np.random.default_rng(4)
        y = (rng.uniform(size=(2, 2)) < 0.5).astype(float)
        w = rng.standard_normal((2, 2))
        uv = rng.standard_normal((2, 2))
        omega = rng.standard_normal((2, 2))
        beta = 1.7
        lg = logmf.logistic_loss_lipschitz(y, 1.0)
        w_new = reference.update_logits(w, uv, omega, y, 1.0, beta)
        # -(omega + beta(uv - w_new)) + grad(w) + L_G (w_new - w) = 0
        res = -(omega + beta * (uv - w_new)) + logmf.logistic_loss_grad(w, y, 1.0) \
            + lg * (w_new - w)
        np.testing.assert_allclose(res, 0.0, atol=1e-12)

    def test_subproblem_gradients_vanish_at_updates(self):
        rng = np.random.default_rng(5)
        u_ex = rng.standard_normal((3, 2))
        v = rng.standard_normal((2, 4))
        w = rng.standard_normal((3, 4))
        omega = rng.standard_normal((3, 4))
        beta, lam = 1.3, 0.4
        u_new = reference.update_row_factors(u_ex, v, w, omega, beta, lam)
        lip = logmf.gram_spectral_norm(v)
        grad = (
            lam * u_new
            + (omega - beta * w) @ v.T
            + beta * (u_ex @ v) @ v.T
            + beta * lip * (u_new - u_ex)
        )
        assert np.linalg.norm(grad) <= 1e-9 * (1.0 + np.linalg.norm(u_new))

        u = rng.standard_normal((3, 2))
        v_ex = rng.standard_normal((2, 4))
        v_new = reference.update_col_factors(v_ex, u, w, omega, beta, lam)
        lip_v = logmf.gram_spectral_norm(u)
        grad_v = (
            lam * v_new
            + u.T @ (omega - beta * w)
            + beta * (u.T @ (u @ v_ex))
            + beta * lip_v * (v_new - v_ex)
        )
        assert np.linalg.norm(grad_v) <= 1e-9 * (1.0 + np.linalg.norm(v_new))


class TestGdBaseline:
    def test_zero_gradient_fixed_point(self):
        # balanced pseudo-data makes the loss gradient vanish at zero logits;
        # pick nonzero factors with zero product so the step sizes stay finite
        u = np.array([[1.0, 0.0], [0.5, 0.0]])
        v = np.array([[0.0, 0.0], [2.0, -1.0]])
        y = np.full((2, 2), 0.5)
        np.testing.assert_allclose(u @ v, 0.0, atol=0)
        g = logmf.logistic_loss_grad(u @ v, y, 1.0)
        np.testing.assert_allclose(g, 0.0, atol=1e-15)
        u2, v2 = logmf.gd_step(u, v, y, 1.0, 0.0, 0.0)
        np.testing.assert_allclose(u2, u, atol=1e-15)
        np.testing.assert_allclose(v2, v, atol=1e-15)

    def test_scalar_hand_value(self):
        u = np.array([[1.0]])
        v = np.array([[1.0]])
        y = np.zeros((1, 1))
        u2, v2 = logmf.gd_step(u, v, y, 1.0, 0.25, 0.25)
        assert u2[0, 0] == pytest.approx(-0.9621171572600098, rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_one_step_never_increases_objective(self, seed):
        rng = np.random.default_rng(seed)
        y = (rng.uniform(size=(4, 5)) < 0.4).astype(float)
        u = rng.standard_normal((4, 2))
        v = rng.standard_normal((2, 5))
        before = logmf.objective(u, v, u @ v, y, 1.0, 0.25, 0.25)
        u2, v2 = logmf.gd_step(u, v, y, 1.0, 0.25, 0.25)
        after = logmf.objective(u2, v2, u2 @ v2, y, 1.0, 0.25, 0.25)
        assert after <= before + 1e-10 * (1.0 + abs(before))

    def test_gd_run_trace_and_step_agree(self):
        # gd_run reuses its records' U-gradients; that must not move a bit
        y = logmf.generate_matrix(6, 5, 0.3, 12)
        inst = logmf.LogMfInstance(y=y, rank=2, c=1.7)
        u, v = logmf.initial_factors(6, 5, 2, 13)
        u_fin, v_fin, trace = logmf.gd_run(u, v, inst, max_iters=5)
        assert [r.k for r in trace] == [0, 1, 2, 3, 4, 5]
        for k, rec in enumerate(trace):
            if k:
                u, v = logmf.gd_step(u, v, y, 1.7, 0.25, 0.25)
            assert rec.objective == logmf.objective(u, v, u @ v, y, 1.7, 0.25, 0.25)
        assert u_fin.tobytes() == u.tobytes()
        assert v_fin.tobytes() == v.tobytes()

    def test_gd_run_loss_gradients_per_run(self, monkeypatch):
        # one per record and one per V step: each U step takes its gradient
        # from the record at the same point
        calls = []
        grad = logmf.logistic_loss_grad

        def counted(*args):
            calls.append(1)
            return grad(*args)

        monkeypatch.setattr(logmf, "logistic_loss_grad", counted)
        y = logmf.generate_matrix(6, 5, 0.3, 12)
        u0, v0 = logmf.initial_factors(6, 5, 2, 13)
        n = 7
        logmf.gd_run(u0, v0, logmf.LogMfInstance(y=y, rank=2), max_iters=n)
        assert len(calls) == 2 * n + 1

    @pytest.mark.parametrize("budget,field", [
        ({"max_iters": -3}, "max_iters"), ({"max_iters": 2.5}, "max_iters"),
        ({"max_iters": 5, "max_seconds": math.nan}, "max_seconds"),
        ({"max_iters": 5, "max_seconds": math.inf}, "max_seconds"),
    ], ids=["negative-iters", "fractional-iters", "nan-seconds", "inf-seconds"])
    def test_gd_run_rejects_the_budgets_the_solver_rejects(self, budget, field):
        y = logmf.generate_matrix(6, 5, 0.3, 12)
        u0, v0 = logmf.initial_factors(6, 5, 2, 13)
        with pytest.raises(ConfigError, match=field):
            logmf.gd_run(u0, v0, logmf.LogMfInstance(y=y, rank=2), **budget)


class TestInstance:
    def test_non_binary_rejected(self):
        with pytest.raises(ConfigError):
            logmf.LogMfInstance(y=np.full((2, 2), 0.5), rank=1)

    def test_initial_factors_scaling(self):
        u, v = logmf.initial_factors(300, 400, 25, 5)
        assert u.shape == (300, 25) and v.shape == (25, 400)
        assert abs(u.std() - 1.0) < 0.05
        assert abs(v.std() - 1.0) < 0.05

import math

import numpy as np
import pytest

import iadmm
from iadmm import logmf
from iadmm.core import ConfigError
from iadmm.diagnostics import check_lyapunov_descent, check_theorem1_residual, check_y_decrease
from iadmm.solver import SolverConfig, TraceRecord

import reference
from reference import brute_force_argmin, finite_diff_grad


def _rec(k, lyap=math.nan, feas=math.nan, stat_x=math.nan, stat_y=math.nan,
         omega_norm=math.nan, **extras):
    e = {"omega_norm": omega_norm}
    e.update(extras)
    return TraceRecord(
        k=k, time_s=0.1 * k, objective=0.0, aug_lagrangian=0.0, lyapunov=lyap,
        feas=feas, stat_x_max=stat_x, stat_y=stat_y, dx=0.0, dy=0.0, domega=0.0,
        extras=e,
    ).row()


class TestFiniteDiff:
    def test_quadratic_exact(self):
        g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([1.0]), 1e-6)
        assert g[0] == pytest.approx(2.0, abs=1e-6)

    def test_constant_zero(self):
        g = finite_diff_grad(lambda x: 3.5, np.arange(4.0), 1e-5)
        np.testing.assert_allclose(g, 0.0)

    def test_matches_loss_gradient(self):
        rng = np.random.default_rng(6)
        y = (rng.uniform(size=(2, 2)) < 0.5).astype(float)
        w = rng.uniform(-2.0, 2.0, size=(2, 2))
        want = logmf.logistic_loss_grad(w, y, 1.0)
        got = finite_diff_grad(lambda z: logmf.logistic_loss(z, y, 1.0), w, 1e-5)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ConfigError):
            finite_diff_grad(lambda x: 0.0, np.zeros(1), 0.0)


class TestBruteForce:
    def test_shifted_quadratic(self):
        got = brute_force_argmin(lambda x: float((x[0] - 0.3) ** 2), [(-1.0, 1.0)], 1001)
        assert got[0] == pytest.approx(0.3, abs=1e-6)

    def test_absolute_value(self):
        got = brute_force_argmin(lambda x: abs(float(x[0])), [(-1.0, 1.0)], 101)
        assert got[0] == pytest.approx(0.0, abs=2e-2)

    def test_matches_scalar_factor_update(self):
        # subproblem behind the scalar row-factor example: minimum at -0.5
        def f(x):
            u = x[0]
            return 0.5 * u * u + u * 1.0 + 0.5 * (u - 0.0) ** 2

        got = brute_force_argmin(f, [(-2.0, 2.0)], 801)
        want = reference.update_row_factors(
            np.array([[0.0]]), np.array([[1.0]]), np.array([[0.0]]),
            np.array([[1.0]]), 1.0, 1.0,
        )[0, 0]
        assert got[0] == pytest.approx(want, abs=1e-4)

    def test_two_dimensional(self):
        got = brute_force_argmin(
            lambda x: float((x[0] - 0.25) ** 2 + (x[1] + 0.5) ** 2),
            [(-1.0, 1.0), (-1.0, 1.0)], 41,
        )
        np.testing.assert_allclose(got, [0.25, -0.5], atol=1e-6)

    def test_matches_two_dim_factor_update(self):
        # row-factor block with two entries: exhaustive search agrees with
        # the closed form on the extrapolated subproblem
        v = np.array([[1.0], [-0.5]])  # rank 2, single column
        w = np.array([[0.3]])
        omega = np.array([[-0.7]])
        u_ex = np.array([[0.4, -0.2]])
        beta, lam = 1.2, 0.6
        lip = logmf.gram_spectral_norm(v)

        def subproblem(x):
            u = x.reshape(1, 2)
            lin = (omega - beta * w) @ v.T + beta * (u_ex @ v) @ v.T
            return (
                0.5 * lam * float(np.sum(u * u))
                + float(np.sum(lin * u))
                + 0.5 * beta * lip * float(np.sum((u - u_ex) ** 2))
            )

        got = brute_force_argmin(subproblem, [(-2.0, 2.0), (-2.0, 2.0)], 81)
        want = reference.update_row_factors(u_ex, v, w, omega, beta, lam).ravel()
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_empty_box_rejected(self):
        with pytest.raises(ConfigError):
            brute_force_argmin(lambda x: 0.0, [(1.0, -1.0)], 11)

    def test_oversized_grid_rejected(self):
        with pytest.raises(ConfigError):
            brute_force_argmin(lambda x: 0.0, [(0.0, 1.0)] * 8, 100)


class TestCheckDescent:
    def test_monotone_trace_passes(self):
        trace = [_rec(k, lyap=10.0 - k) for k in range(5)]
        rep = check_lyapunov_descent(trace, 1e-8)
        assert rep.passed and rep.status == "passed"

    def test_constant_trace_passes_with_zero_violation(self):
        trace = [_rec(k, lyap=2.0) for k in range(4)]
        rep = check_lyapunov_descent(trace, 1e-8)
        assert rep.passed
        assert rep.worst_violation == 0.0

    def test_unit_increase_fails_with_unit_violation(self):
        trace = [_rec(0, lyap=0.0), _rec(1, lyap=0.0), _rec(2, lyap=1.0)]
        rep = check_lyapunov_descent(trace, 1e-8)
        assert not rep.passed and rep.status == "failed"
        assert rep.worst_violation == pytest.approx(1.0)
        assert rep.location == 2

    def test_skips_nan_initial_row(self):
        trace = [_rec(0), _rec(1, lyap=3.0), _rec(2, lyap=2.5)]
        rep = check_lyapunov_descent(trace, 1e-8)
        assert rep.passed

    def test_nonfinite_value_after_row_0_fails_at_its_row(self):
        values = [math.nan, 3.0, 2.0, math.inf, math.nan, 1.0]
        rep = check_lyapunov_descent([_rec(k, lyap=v) for k, v in enumerate(values)], 1e-8)
        assert rep.status == "failed" and not rep.passed
        assert (rep.worst_violation, rep.location) == (math.inf, 3)

    @pytest.mark.parametrize("column,value", [
        ("al_after_x", math.nan), ("al_after_y", math.inf), ("dy", math.nan),
    ])
    def test_y_decrease_nonfinite_value_fails_at_its_row(self, column, value):
        # row 0 carries NaN columns, as in a stored trace, and is not judged
        trace = [
            _rec(0, al_after_x=math.nan, al_after_y=math.nan),
            _rec(1, al_after_x=5.0, al_after_y=4.0),
            _rec(2, **{"al_after_x": 4.0, "al_after_y": 3.9, column: value}),
            _rec(3, al_after_x=3.0, al_after_y=2.0),
        ]
        assert check_y_decrease(trace[:2], 1.0, 1e-8).passed
        rep = check_y_decrease(trace, 1.0, 1e-8)
        assert rep.status == "failed" and not rep.passed
        assert (rep.worst_violation, rep.location) == (math.inf, 2)

    def test_y_decrease_needs_full_columns(self):
        trace = [_rec(0, lyap=1.0), _rec(1, lyap=0.5)]
        assert check_y_decrease(trace, 1.0, 1e-8).status == "inconclusive"

    def test_y_decrease_reads_full_columns(self):
        good = [
            _rec(0),
            _rec(1, al_after_x=5.0, al_after_y=4.0),
            _rec(2, al_after_x=4.0, al_after_y=3.9),
        ]
        rep = check_y_decrease(good, 1.0, 1e-8)
        assert rep.passed
        bad = [
            _rec(0),
            _rec(1, al_after_x=5.0, al_after_y=5.5),
        ]
        rep = check_y_decrease(bad, 1.0, 1e-8)
        assert not rep.passed

    def test_short_trace_rejected(self):
        assert check_lyapunov_descent([_rec(0)], 1e-8).status == "inconclusive"

    def test_passes_on_real_run(self):
        data = logmf.generate_matrix(12, 10, 0.25, 31)
        inst = logmf.LogMfInstance(y=data, rank=3)
        p = logmf.make_problem(inst)
        u0, v0 = logmf.initial_factors(12, 10, 3, 32)
        cfg = SolverConfig(tau1=1.0, tau2=1.0, beta=2.0, b2=0.5, max_iters=200,
                           check_level="full")
        res = iadmm.run(p, cfg, [u0, v0])
        rows = [rec.row() for rec in res.trace]
        assert check_lyapunov_descent(rows, 1e-8).passed
        assert check_y_decrease(rows, res.constants.delta, 1e-8).passed


class TestTheorem1:
    def test_classical_tau_requires_tiny_feasibility(self):
        cfg = SolverConfig(tau1=1.0, tau2=1.0, beta=1.0, tolerance=1e-6)
        trace = [_rec(1, feas=1e-8, stat_x=1e-8, stat_y=1e-8, omega_norm=3.0)]
        rep = check_theorem1_residual(trace, cfg, 0.05)
        assert rep.passed  # (1 - tau1) = 0 makes the target zero

    def test_scaled_tau_consistency(self):
        cfg = SolverConfig(tau1=0.5, tau2=0.5, beta=1.0, tolerance=10.0)
        omega_norm = 4.0
        feas = (1.0 - 0.5) / 0.5 * omega_norm  # exactly at the predicted gap
        trace = [_rec(1, feas=feas, stat_x=0.1, stat_y=0.1, omega_norm=omega_norm)]
        rep = check_theorem1_residual(trace, cfg, 0.05)
        assert rep.passed

    def test_unconverged_is_inconclusive(self):
        cfg = SolverConfig(tau1=0.5, tau2=0.5, tolerance=1e-6)
        trace = [_rec(1, feas=1.0, stat_x=1.0, stat_y=1.0, omega_norm=1.0)]
        rep = check_theorem1_residual(trace, cfg, 0.05)
        assert rep.status == "inconclusive"
        assert not rep.passed
        assert math.isnan(rep.worst_violation)

    def test_empty_trace_is_inconclusive(self):
        rep = check_theorem1_residual([], SolverConfig(), 0.05)
        assert (rep.status, rep.passed, rep.location) == ("inconclusive", False, None)


class TestCheckReport:
    def test_passed_iff_within_tolerance(self):
        trace = [_rec(0, lyap=1.0), _rec(1, lyap=1.0 + 5e-9)]
        rep = check_lyapunov_descent(trace, 1e-8)
        assert rep.passed == (rep.worst_violation <= rep.tolerance)

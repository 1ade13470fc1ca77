import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from iadmm import logmf, solver
from iadmm.core import (
    BlockTraits,
    ConfigError,
    DimensionError,
    InvariantViolation,
    ScaledIdentity,
    augmented_lagrangian,
    objective_value,
)
from iadmm.diagnostics import check_lyapunov_descent
from iadmm.solver import (
    TRACE_COLUMNS,
    IterateState,
    SolverConfig,
    TraceFormatError,
    lyapunov_value,
    read_trace_csv,
    run,
    validate_config,
    write_trace_csv,
)

from toys import kkt_solution, quadratic_toy, toy_problem


def small_logmf(m=10, n=8, rank=3, seed=21, **inst_kw):
    data = logmf.generate_matrix(m, n, 0.25, seed)
    inst = logmf.LogMfInstance(y=data, rank=rank, **inst_kw)
    p = logmf.make_problem(inst)
    u0, v0 = logmf.initial_factors(m, n, rank, seed + 1)
    return inst, p, u0, v0


class TestBudgets:
    def test_zero_iteration_budget_gives_initial_record_only(self):
        _, p, u0, v0 = small_logmf()
        res = run(p, SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, max_iters=0), [u0, v0])
        assert len(res.trace) == 1
        assert res.trace[0].k == 0
        assert res.iterations == 0

    def test_iteration_budget_respected(self):
        _, p, u0, v0 = small_logmf()
        res = run(p, SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, max_iters=7), [u0, v0])
        assert res.iterations == 7
        assert [rec.k for rec in res.trace] == list(range(8))

    def test_wall_clock_budget_stops(self):
        _, p, u0, v0 = small_logmf()
        cfg = SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, max_iters=None, max_seconds=0.2)
        res = run(p, cfg, [u0, v0])
        assert res.stop_reason == "max_seconds"

    def test_tolerance_stop(self):
        a_mat, a, b = quadratic_toy()
        p = toy_problem(a_mat, a, b)
        cfg = SolverConfig(beta=10.0, tau1=1.0, tau2=1.0, max_iters=5000, tolerance=1e-8)
        res = run(p, cfg, [np.zeros(4)])
        assert res.stop_reason == "tolerance"
        last = res.trace[-1]
        assert max(last.stat_x_max, last.stat_y, last.feas) <= 1e-8


class TestClassicalMultiplierConvergence:
    @pytest.mark.parametrize(
        "rule", ["penalty_linearized", "fully_linearized", "penalty_exact"]
    )
    def test_toy_reaches_kkt_point(self, rule):
        a_mat, a, b = quadratic_toy()
        x_star, y_star, w_star = kkt_solution(a_mat, a, b)
        p = toy_problem(a_mat, a, b, rule=rule)
        cfg = SolverConfig(beta=10.0, tau1=1.0, tau2=1.0, update_rule=rule,
                           max_iters=500, check_level="full")
        res = run(p, cfg, [np.zeros(4)])
        assert res.trace[-1].feas < 1e-6
        np.testing.assert_allclose(res.x[0], x_star, atol=1e-5)
        np.testing.assert_allclose(res.y, y_star, atol=1e-5)
        np.testing.assert_allclose(res.omega, w_star, atol=1e-5)

    def test_iterate_gaps_vanish(self):
        a_mat, a, b = quadratic_toy()
        p = toy_problem(a_mat, a, b)
        cfg = SolverConfig(beta=10.0, tau1=1.0, tau2=1.0, max_iters=2000)
        res = run(p, cfg, [np.zeros(4)])
        last = res.trace[-1]
        assert last.dx < 1e-9 and last.dy < 1e-9 and last.domega < 1e-9


class TestInflatedModulus:
    """Blocks whose traits deny the exact modulus take kappa = KAPPA_MARGIN * l_i."""

    @staticmethod
    def _run(rule, traits, nu=0.5):
        p = dataclasses.replace(
            toy_problem(*quadratic_toy(), rule=rule), block_traits=lambda i: traits
        )
        cfg = SolverConfig(beta=10.0, tau1=1.0, tau2=1.0, nu=nu, update_rule=rule,
                           max_iters=500, check_level="full")
        return p, run(p, cfg, [np.zeros(4)])

    @pytest.mark.parametrize("rule,traits", [
        ("penalty_linearized", BlockTraits(True, False, True)),
        ("fully_linearized", BlockTraits(True, False, True)),
        ("penalty_exact", BlockTraits(True, False, True)),
        ("fully_linearized", BlockTraits(True, True, False)),
        ("penalty_exact", BlockTraits(True, True, False)),
    ], ids=["pl-nonconvex-f", "fl-nonconvex-f", "pe-nonconvex-f",
            "fl-nonconvex-F", "pe-nonconvex-F"])
    def test_full_checks_and_lyapunov_descent(self, rule, traits):
        p, res = self._run(rule, traits)  # raises on any invariant violation
        assert not solver._exact_kappa_ok(solver.UpdateRule(rule), p.traits(0))
        assert res.iterations == 500
        assert check_lyapunov_descent([rec.row() for rec in res.trace], 1e-8).passed

    def test_nu_moves_the_iterates(self):
        # the cap depends on nu (1 - nu), so 0.3 and 0.7 would agree
        traits = BlockTraits(True, False, True)
        _, half = self._run("penalty_linearized", traits, nu=0.5)
        _, other = self._run("penalty_linearized", traits, nu=0.3)
        assert any(a > 0.0 for rec in half.trace for a in rec.alpha)
        assert [rec.alpha for rec in half.trace] != [rec.alpha for rec in other.trace]
        assert not np.array_equal(half.x[0], other.x[0])


class TestWorkingSet:
    """Traced peak of a run above its start, in m x n float64 arrays.

    At 400 x 300, rank 10, the blocks are small next to one m x n array, so
    the peak counts the iterate-sized arrays that one iteration holds at once.
    """

    M, N, RANK, ITERS = 400, 300, 10, 4

    @classmethod
    def _peak(cls, fn) -> float:
        fn()  # a first call takes numpy's one-time allocations out of the count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / (cls.M * cls.N * 8)

    @pytest.mark.parametrize("check_level", ["off", "cheap", "full"])
    def test_run_holds_at_most_11_arrays(self, check_level):
        inst, p, u0, v0 = small_logmf(self.M, self.N, self.RANK)
        cfg = SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, max_iters=self.ITERS,
                           check_level=check_level)
        hook = {"model_objective": logmf.model_objective_metric(inst)}
        assert self._peak(lambda: run(p, cfg, [u0, v0], extra_metrics=hook)) <= 11.0

    def test_gd_run_holds_at_most_3_6_arrays(self):
        inst, _, u0, v0 = small_logmf(self.M, self.N, self.RANK)
        assert self._peak(lambda: logmf.gd_run(u0, v0, inst, max_iters=self.ITERS)) <= 3.6


class TestRunInvariants:
    def test_hook_states_are_distinct_and_kept(self):
        _, p, u0, v0 = small_logmf()
        kept = []
        res = run(p, SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, max_iters=6), [u0, v0],
                  extra_metrics={"keep": lambda state: kept.append(state) or 0.0})
        assert [state.k for state in kept] == list(range(7))
        assert len({id(state) for state in kept}) == 7
        assert kept[-1].x is res.x and kept[-1].y is res.y

    def test_nothing_held_is_written(self):
        # every array a hook keeps, and every start array, reads the same after
        # the run as when it was handed over
        _, p, u0, v0 = small_logmf()
        rng = np.random.default_rng(5)
        y0, omega0 = rng.standard_normal((10, 8)), rng.standard_normal((10, 8))
        starts = [u0, v0, y0, omega0]
        start_copies = [a.copy() for a in starts]
        kept = []

        def arrays(state):
            return [*state.x, *state.dx, state.y, state.dy, state.omega, state.domega,
                    *state.chi, state.coupling_cur]

        def keep(state):
            kept.append((state, [a.copy() for a in arrays(state)]))
            return 0.0

        cfg = SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, max_iters=6, check_level="full")
        run(p, cfg, [u0, v0], y0=y0, omega0=omega0, extra_metrics={"keep": keep})
        assert len(kept) == 7
        for state, copies in kept:
            for held, copy in zip(arrays(state), copies, strict=True):
                assert held.tobytes() == copy.tobytes()
        for held, copy in zip(starts, start_copies):
            assert held.tobytes() == copy.tobytes()

    def test_multiplier_identity_along_trace(self):
        # omega^k = tau1 omega^{k-1} + tau2 beta (h(x^k) + B y^k) for every k >= 1,
        # checked outside the engine (check_level off, so no in-engine check fires)
        inst, p, u0, v0 = small_logmf()
        cfg = SolverConfig(beta=4.0, tau1=0.4, tau2=0.6, b2=0.9, max_iters=60,
                           check_level="off")
        seen = []

        def capture(state):
            seen.append((state.omega.copy(),
                         p.coupling_value(state.x) + p.lin_map.apply(state.y)))
            return 0.0

        res = run(p, cfg, [u0, v0], extra_metrics={"capture": capture})
        assert res.stop_reason == "max_iters"
        assert len(seen) == 61
        for (omega_prev, _), (omega, residual) in zip(seen, seen[1:]):
            np.testing.assert_allclose(
                omega, cfg.tau1 * omega_prev + cfg.tau2 * cfg.beta * residual, rtol=1e-12
            )

    def test_misshaped_y_step_rejected(self):
        # a caller-supplied map whose ridge solve returns (q, 1) for y of shape (q,)
        # must raise, not broadcast into a (q, q) step
        class ColumnRidge(ScaledIdentity):
            def solve_ridge(self, scale, shift, rhs):
                return super().solve_ridge(scale, shift, rhs).reshape(-1, 1)

        a_mat, a, b = quadratic_toy()
        p = dataclasses.replace(toy_problem(a_mat, a, b), lin_map=ColumnRidge(-1.0, (4,)))
        cfg = SolverConfig(beta=10.0, tau1=1.0, tau2=1.0, max_iters=3, check_level="off")
        with pytest.raises(DimensionError):
            run(p, cfg, [np.zeros(4)])

    @pytest.mark.parametrize("x0", [[], [np.zeros((10, 3)), np.zeros((2, 8))]],
                             ids=["no-blocks", "misshaped-block"])
    def test_bad_x0_rejected_before_any_oracle(self, x0):
        _, p, _, _ = small_logmf()
        called = []

        def spy(name):
            fn = getattr(p, name)
            return lambda *args: called.append(name) or fn(*args)

        names = ("coupling_value", "coupling_jac_t", "block_penalty_lipschitz",
                 "y_value", "y_grad", "separable_value", "separable_prox")
        p = dataclasses.replace(p, **{name: spy(name) for name in names})
        with pytest.raises(DimensionError):
            run(p, SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, max_iters=2), x0)
        assert called == []

    @pytest.mark.parametrize("arg,value,name", [
        ("x0", math.nan, "x0 block 1"),
        ("y0", math.inf, "y0"),
        ("omega0", math.nan, "omega0"),
    ], ids=["nan-in-x0-block", "inf-in-y0", "nan-in-omega0"])
    def test_nonfinite_start_rejected_before_any_oracle(self, arg, value, name):
        _, p, u0, v0 = small_logmf()
        start = {"x0": [u0, v0.copy()], "y0": u0 @ v0, "omega0": np.zeros((10, 8))}
        (start["x0"][1] if arg == "x0" else start[arg])[0, 0] = value

        def no_oracle(*args):
            raise AssertionError("oracle called")

        names = ("coupling_value", "coupling_jac_t", "block_penalty_lipschitz",
                 "y_value", "y_grad", "separable_value", "separable_prox")
        p = dataclasses.replace(p, **{n: no_oracle for n in names})
        with pytest.raises(ValueError, match=f"^{name} holds a NaN or inf entry$"):
            run(p, SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, max_iters=2), **start)

    def test_x0_left_unchanged(self):
        _, p, u0, v0 = small_logmf()
        before = (u0.tobytes(), v0.tobytes())
        cfg = SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, max_iters=5, check_level="full")
        run(p, cfg, [u0, v0])
        assert (u0.tobytes(), v0.tobytes()) == before

    def test_result_x_is_tuple_of_final_blocks(self):
        _, p, u0, v0 = small_logmf()
        res = run(p, SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, max_iters=5), [u0, v0])
        assert type(res.x) is tuple
        assert tuple(b.shape for b in res.x) == p.block_shapes
        assert objective_value(p, res.x, res.y) == res.trace[-1].objective

    def test_full_checks_pass_on_logmf(self):
        inst, p, u0, v0 = small_logmf()
        cfg = SolverConfig(beta=1.0, tau1=0.5, tau2=0.5, b2=0.9, max_iters=120,
                           check_level="full")
        res = run(p, cfg, [u0, v0])  # raises on any invariant violation
        assert res.iterations == 120
        assert "al_after_x" in res.trace[-1].extras

    def test_lyapunov_monotone_and_bounded(self):
        inst, p, u0, v0 = small_logmf()
        cfg = SolverConfig(beta=1.0, tau1=0.5, tau2=0.5, b2=0.9, max_iters=200)
        res = run(p, cfg, [u0, v0])
        values = [rec.lyapunov for rec in res.trace[1:]]
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev + 1e-8 * (1.0 + abs(prev))
        assert all(v >= -1e-6 for v in values)  # objective lower bound is 0

    def test_trace_lyapunov_matches_public_function(self):
        inst, p, u0, v0 = small_logmf()
        cfg = SolverConfig(beta=4.0, tau1=0.3, tau2=0.45, b2=0.9, max_iters=9)
        consts = validate_config(cfg, p)
        res = run(p, cfg, [u0, v0])
        # rebuild the final state from a fresh run of one fewer iteration
        cfg_prev = SolverConfig(beta=4.0, tau1=0.3, tau2=0.45, b2=0.9, max_iters=8)
        prev = run(p, cfg_prev, [u0, v0])
        cont = run(p, SolverConfig(beta=4.0, tau1=0.3, tau2=0.45, b2=0.9, max_iters=1),
                   prev.x, prev.y, prev.omega)
        # the one-step continuation reproduces iteration 9's lyapunov column
        state = IterateState(
            x=cont.x, dx=[a - b for a, b in zip(cont.x, prev.x)],
            y=cont.y, dy=cont.y - prev.y,
            omega=cont.omega, domega=cont.omega - prev.omega, k=9,
        )
        state.eta = list(cont.trace[1].eta)
        al = augmented_lagrangian(p, state.x, state.y, state.omega, cfg.beta)
        want = lyapunov_value(p, cfg, consts, state, al)
        assert cont.trace[1].lyapunov == pytest.approx(want, rel=1e-12)

    def test_lyapunov_equals_lagrangian_at_rest(self):
        # classical multipliers, zero iterate gaps: every correction vanishes
        inst, p, u0, v0 = small_logmf()
        cfg = SolverConfig(tau1=1.0, tau2=1.0, beta=2.0, b2=0.5)
        consts = validate_config(cfg, p)
        x = (u0, v0)
        w = u0 @ v0
        omega = np.full((10, 8), 0.3)
        state = IterateState(x=x, dx=[np.zeros_like(b) for b in x], y=w,
                             dy=np.zeros_like(w), omega=omega,
                             domega=np.zeros_like(omega), k=1)
        state.eta = [1.0, 1.0]
        want = augmented_lagrangian(p, x, w, omega, 2.0)
        assert lyapunov_value(p, cfg, consts, state, want) == pytest.approx(want, rel=1e-14)

    def test_lyapunov_value_before_first_iteration_raises(self):
        inst, p, u0, v0 = small_logmf()
        cfg = SolverConfig(tau1=0.5, tau2=0.5, b2=0.9)
        consts = validate_config(cfg, p)
        x = (u0, v0)
        state = IterateState(x=x, dx=[np.zeros_like(b) for b in x], y=u0 @ v0,
                             dy=np.zeros((10, 8)), omega=np.zeros((10, 8)),
                             domega=np.zeros((10, 8)))
        al = augmented_lagrangian(p, x, state.y, state.omega, cfg.beta)
        with pytest.raises(ConfigError):
            lyapunov_value(p, cfg, consts, state, al)

    def test_momentum_restart_continuation_matches(self):
        # determinism: same seed, same budget, byte-equal trace scalars
        inst, p, u0, v0 = small_logmf()
        cfg = SolverConfig(beta=1.0, tau1=0.5, tau2=0.5, b2=0.9, max_iters=25)
        r1 = run(p, cfg, [u0, v0])
        r2 = run(p, cfg, [u0, v0])
        assert [rec.objective for rec in r1.trace] == [rec.objective for rec in r2.trace]
        assert [rec.lyapunov for rec in r1.trace] == [rec.lyapunov for rec in r2.trace]


class TestInvariantsFire:
    """Each runtime invariant raises on a fault that only it can see.

    Every fault acts on the toy (beta = 10, tau1 = tau2 = 0.5).  Each test
    first runs the fault one check level lower, where nothing may fire, and
    then pins the message shape of the check it fires.
    """

    @staticmethod
    def _run(p, check_level, **kw):
        cfg = SolverConfig(beta=10.0, tau1=0.5, tau2=0.5, max_iters=20,
                           check_level=check_level, **kw)
        return run(p, cfg, [np.zeros(4)])

    @staticmethod
    def _wrong_block_step(rule):
        """The toy under ``rule`` with each block step 0.1% off its subproblem's minimizer."""
        p = toy_problem(*quadratic_toy(), rule=rule)
        if rule == "penalty_exact":
            exact = p.coupled_prox

            def short(*args):  # stops short of the minimizer, toward the anchor
                u = exact(*args)
                return u + 1e-3 * (args[-1] - u)

            return dataclasses.replace(p, coupled_prox=short)
        prox = p.separable_prox
        return dataclasses.replace(p, separable_prox=lambda i, c, w: 0.999 * prox(i, c, w))

    @pytest.mark.parametrize("rule", ["penalty_linearized", "fully_linearized", "penalty_exact"])
    def test_block_optimality(self, rule):
        p = self._wrong_block_step(rule)
        self._run(p, "off", update_rule=rule)
        with pytest.raises(InvariantViolation, match=(
            r"^iteration \d+, block 0: subproblem optimality violated by \S+ \(slack \S+\)$"
        )):
            self._run(p, "cheap", update_rule=rule)

    def test_block_descent(self):
        # a block modulus ten times too small breaks the per-block descent
        p = toy_problem(*quadratic_toy())
        lip = p.block_penalty_lipschitz
        p = dataclasses.replace(p, block_penalty_lipschitz=lambda i, b: 0.1 * lip(i, b))
        self._run(p, "cheap")
        with pytest.raises(InvariantViolation, match=(
            r"^iteration \d+, block 0: descent inequality violated by \S+ \(slack \S+\)$"
        )):
            self._run(p, "full")

    def test_y_step_optimality(self):
        class SkewedRidge(ScaledIdentity):
            def solve_ridge(self, scale, shift, rhs):
                return super().solve_ridge(scale, shift, rhs) * (1.0 + 1e-6)

        p = dataclasses.replace(toy_problem(*quadratic_toy()), lin_map=SkewedRidge(-1.0, (4,)))
        self._run(p, "off")
        with pytest.raises(InvariantViolation, match=(
            r"^iteration \d+: y-step optimality residual \S+ exceeds \S+$"
        )):
            self._run(p, "cheap")

    def test_multiplier_identity(self, monkeypatch):
        step = solver.update_multiplier
        monkeypatch.setattr(solver, "update_multiplier",
                            lambda *args: step(*args) * (1.0 + 1e-6))
        p = toy_problem(*quadratic_toy())
        self._run(p, "off")
        with pytest.raises(InvariantViolation, match=(
            r"^iteration \d+: multiplier identity residual \S+ exceeds \S+$"
        )):
            self._run(p, "cheap")

    def test_y_sufficient_decrease(self):
        # L_G = 0 understates the curvature of G(y) = ||y - b||^2 / 2
        p = dataclasses.replace(toy_problem(*quadratic_toy()), y_grad_lipschitz=0.0)
        self._run(p, "cheap", enforce_gate=False)
        with pytest.raises(InvariantViolation, match=(
            r"^iteration \d+: y sufficient decrease violated by \S+ \(slack \S+\)$"
        )):
            self._run(p, "full", enforce_gate=False)

    @staticmethod
    def _nan_from(name, n):
        """The toy with oracle ``name`` answering NaN from its n-th call on."""
        p = toy_problem(*quadratic_toy())
        fn, calls = getattr(p, name), []

        def wrapper(*args):
            calls.append(None)
            return fn(*args) * (math.nan if len(calls) >= n else 1.0)

        return dataclasses.replace(p, **{name: wrapper})

    def test_nan_block_solution(self):
        res = self._run(self._nan_from("separable_prox", 4), "off")
        assert np.isnan(res.x[0]).all() and res.stop_reason == "nonfinite"
        with pytest.raises(InvariantViolation, match=(
            r"^iteration 3, block 0: subproblem optimality violated by nan \(slack \S+\)$"
        )):
            self._run(self._nan_from("separable_prox", 4), "cheap")

    def test_nan_objective(self):
        self._run(self._nan_from("y_value", 6), "cheap")
        with pytest.raises(InvariantViolation, match=(
            r"^iteration 4: y sufficient decrease violated by nan \(slack \S+\)$"
        )):
            self._run(self._nan_from("y_value", 6), "full")

    def test_nonfinite_record_stops_the_run_at_off(self):
        # the record that first holds the NaN is kept, and the run ends after it
        res = self._run(self._nan_from("y_value", 6), "off")
        assert (res.stop_reason, res.iterations, len(res.trace)) == ("nonfinite", 5, 6)
        assert math.isnan(res.trace[-1].objective)
        assert all(math.isfinite(rec.objective) for rec in res.trace[:-1])


class TestPhases:
    """The phases of an iteration keep stable module-level names, which a
    profiler may wrap from outside the package."""

    N = 5
    PHASES = ("_sweep", "_y_step", "_multiplier_step", "_record")

    @staticmethod
    def _rows(res):
        return [(sorted((k, repr(v)) for k, v in rec.row().items() if k != "time_s"),
                 rec.alpha, rec.eta) for rec in res.trace]

    @pytest.mark.parametrize("check_level", ["off", "cheap", "full"])
    def test_each_phase_runs_once_per_iteration(self, monkeypatch, check_level):
        _, p, u0, v0 = small_logmf()
        cfg = SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, max_iters=self.N,
                           check_level=check_level)
        plain = run(p, cfg, [u0, v0])
        counts = dict.fromkeys(self.PHASES, 0)

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in self.PHASES:
            monkeypatch.setattr(solver, name, counted(getattr(solver, name), name))
        wrapped = run(p, cfg, [u0, v0])
        n = self.N
        assert counts == {"_sweep": n, "_y_step": n, "_multiplier_step": n, "_record": n + 1}
        assert self._rows(wrapped) == self._rows(plain)


class TestOracleCalls:
    N = 20

    def _counted_run(self, check_level):
        """Oracle and ``lin_map.apply`` calls of an N-iteration run."""
        inst, p, u0, v0 = small_logmf()
        counts = dict.fromkeys(
            ("y_grad", "y_value", "coupling_value", "coupling_jac_t",
             "block_penalty_lipschitz", "separable_prox", "separable_value",
             "lin_map.apply"), 0
        )

        def counted(fn, name):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        for name in counts:
            owner, attr = (p.lin_map, "apply") if name == "lin_map.apply" else (p, name)
            setattr(owner, attr, counted(getattr(owner, attr), name))
        cfg = SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, max_iters=self.N,
                           check_level=check_level)
        run(p, cfg, [u0, v0],
            extra_metrics={"model_objective": logmf.model_objective_metric(inst)})
        return counts

    def test_calls_per_run_at_check_off(self):
        # pins the per-run oracle work: one coupling value per block sweep
        # step, one y gradient per iteration (reused by the next y step),
        # one B y per iteration (shared by the residual and the next sweep),
        # and f_i of each block once per record
        counts = self._counted_run("off")
        n = self.N
        assert counts == {
            "y_grad": n + 1,
            "y_value": n + 1,
            "coupling_value": 3 * n + 1,
            "coupling_jac_t": 4 * n,
            "block_penalty_lipschitz": 2 * n,
            "separable_prox": 2 * n,
            "separable_value": 2 * n + 2,
            "lin_map.apply": n + 2,
        }

    def test_calls_per_run_at_check_cheap(self):
        # per iteration, with 2 blocks: each block's optimality certificate
        # takes f_i at the new block, the extrapolated block and the prox
        # center (6 in all), and the objective after the y step reads the two
        # values at the new blocks instead of evaluating them again; f_i at
        # x0 is taken once at the start.  B y twice: the record's and the y
        # check's.  The rest is as at off
        counts = self._counted_run("cheap")
        n = self.N
        assert counts == {
            "y_grad": n + 1,
            "y_value": n + 1,
            "coupling_value": 3 * n + 1,
            "coupling_jac_t": 4 * n,
            "block_penalty_lipschitz": 2 * n,
            "separable_prox": 2 * n,
            "separable_value": 6 * n + 2,
            "lin_map.apply": 2 * n + 2,
        }

    def test_calls_per_run_at_check_full(self):
        # the descent checks evaluate each visited point once: B y once per
        # sweep, h once per post-update block point (the last one shared with
        # the y step), and the objective after the y step is shared with the
        # record, whose G(y) is carried into the next sweep.  Per iteration,
        # with 2 blocks: h 4 times (each block's linearization and descent
        # check; the last check's h is the y step's), J^T 4 times (2 in the
        # sweep, 2 in the record), f_i 6 times (the 3 of each block's
        # optimality certificate; the descent checks and the objective after
        # the y step read the certificates' values at the new blocks, and the
        # first block's check reads the second block's value from the last
        # sweep) and B y twice (the record's and the y check's).  The y check
        # reuses the step's own grad G.
        counts = self._counted_run("full")
        n = self.N
        assert counts == {
            "y_grad": n + 1,
            "y_value": n + 1,
            "coupling_value": 4 * n + 1,
            "coupling_jac_t": 4 * n,
            "block_penalty_lipschitz": 2 * n,
            "separable_prox": 2 * n,
            "separable_value": 6 * n + 2,
            "lin_map.apply": 2 * n + 2,
        }

    # per iteration on the one-block toy: both rules take h and J^T once for
    # the subproblem's gradient, h once for the y step, and J^T and grad F
    # once for the record; at off, f once for the objective after the y step.
    # cheap's certificate takes f at the new block, the extrapolated block and
    # the prox center, and the objective reads its value at the new block;
    # penalty_exact's certificate also takes grad F and h at the extrapolated
    # block, and h at the new block, which the y step reuses.  full's descent
    # check reads the certificate's f and h at the new block
    @pytest.mark.parametrize("rule,check_level,per_iter", [
        ("fully_linearized", "off", dict(coupling_value=2, coupling_jac_t=2,
                                         smooth_grad_block=2, block_smooth_lipschitz=1,
                                         block_penalty_lipschitz=1, separable_prox=1,
                                         separable_value=1)),
        ("fully_linearized", "cheap", dict(coupling_value=2, coupling_jac_t=2,
                                           smooth_grad_block=2, block_smooth_lipschitz=1,
                                           block_penalty_lipschitz=1, separable_prox=1,
                                           separable_value=3)),
        ("penalty_exact", "off", dict(coupling_value=2, coupling_jac_t=2,
                                      smooth_grad_block=2, block_smooth_lipschitz=1,
                                      coupled_prox=1, separable_value=1)),
        ("penalty_exact", "cheap", dict(coupling_value=3, coupling_jac_t=2,
                                        smooth_grad_block=3, block_smooth_lipschitz=1,
                                        coupled_prox=1, separable_value=3)),
        ("penalty_exact", "full", dict(coupling_value=3, coupling_jac_t=2,
                                       smooth_grad_block=3, block_smooth_lipschitz=1,
                                       coupled_prox=1, separable_value=3)),
        ("fully_linearized", "full", dict(coupling_value=2, coupling_jac_t=2,
                                          smooth_grad_block=2, block_smooth_lipschitz=1,
                                          block_penalty_lipschitz=1, separable_prox=1,
                                          separable_value=3)),
    ])
    def test_toy_calls_per_run_by_rule(self, rule, check_level, per_iter):
        p = toy_problem(*quadratic_toy(), rule=rule)
        names = ("coupling_value", "coupling_jac_t", "smooth_grad_block",
                 "block_smooth_lipschitz", "block_penalty_lipschitz", "separable_prox",
                 "coupled_prox", "separable_value")
        counts = dict.fromkeys(names, 0)

        def counted(fn, name):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        p = dataclasses.replace(p, **{
            name: counted(getattr(p, name), name) for name in names if getattr(p, name)
        })
        cfg = SolverConfig(beta=10.0, tau1=0.5, tau2=0.5, update_rule=rule,
                           max_iters=self.N, check_level=check_level)
        run(p, cfg, [np.zeros(4)])
        expected = {name: self.N * per_iter.get(name, 0) for name in names}
        expected["coupling_value"] += 1  # h(x0)
        expected["separable_value"] += 1  # the objective at x0
        assert counts == expected

    def test_toy_smooth_value_once_per_visited_point_at_full(self):
        # F is taken once at x0 and once per iteration at the new block: the
        # descent check forms the x part of the objective there, and the
        # objective after the y step reads it
        p = toy_problem(*quadratic_toy(), rule="fully_linearized")
        smooth_value, calls = p.smooth_value, []
        p = dataclasses.replace(p, smooth_value=lambda b: calls.append(1) or smooth_value(b))
        cfg = SolverConfig(beta=10.0, tau1=0.5, tau2=0.5, update_rule="fully_linearized",
                           max_iters=self.N, check_level="full")
        run(p, cfg, [np.zeros(4)])
        assert len(calls) == self.N + 1

    def test_recorded_lagrangian_equals_core(self):
        # every Lagrangian the full-level checks assemble from parts equals the
        # from-scratch core value at the same point, bit for bit
        inst, p, u0, v0 = small_logmf()
        cfg = SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, max_iters=self.N, check_level="full")
        seen = []

        def capture(state):
            seen.append((tuple(b.copy() for b in state.x), state.y.copy(), state.omega.copy()))
            return 0.0

        res = run(p, cfg, [u0, v0], extra_metrics={"capture": capture})
        assert len(res.trace) == self.N + 1
        for rec, (x, y, omega) in zip(res.trace, seen):
            assert rec.aug_lagrangian == augmented_lagrangian(p, x, y, omega, cfg.beta)
        for rec, (_, y_prev, omega_prev), (x, y, _) in zip(res.trace[1:], seen, seen[1:]):
            assert rec.extras["al_after_x"] == augmented_lagrangian(
                p, x, y_prev, omega_prev, cfg.beta
            )
            assert rec.extras["al_after_y"] == augmented_lagrangian(
                p, x, y, omega_prev, cfg.beta
            )


class TestNonInertialAblation:
    def test_extrapolation_none_has_zero_alpha(self):
        inst, p, u0, v0 = small_logmf()
        cfg = SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, extrapolation="none", max_iters=10)
        res = run(p, cfg, [u0, v0])
        for rec in res.trace[1:]:
            assert all(a == 0.0 for a in rec.alpha)

    def test_inertial_weights_eventually_positive(self):
        inst, p, u0, v0 = small_logmf()
        cfg = SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, extrapolation="nesterov", max_iters=10)
        res = run(p, cfg, [u0, v0])
        assert all(a == 0.0 for a in res.trace[1].alpha)  # no momentum yet
        assert any(a > 0.0 for a in res.trace[3].alpha)


class TestFeasibleInit:
    def test_default_y0_is_feasible_product(self):
        inst, p, u0, v0 = small_logmf()
        res = run(p, SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, max_iters=0), [u0, v0])
        assert res.trace[0].feas == pytest.approx(0.0, abs=1e-12)

    def test_explicit_y0_used(self):
        inst, p, u0, v0 = small_logmf()
        y0 = np.ones((10, 8))
        res = run(p, SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, max_iters=0), [u0, v0], y0=y0)
        expect = np.linalg.norm(u0 @ v0 - y0)
        assert res.trace[0].feas == pytest.approx(expect, rel=1e-12)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        inst, p, u0, v0 = small_logmf()
        cfg = SolverConfig(tau1=0.5, tau2=0.5, b2=0.9, max_iters=5, check_level="full")
        res = run(p, cfg, [u0, v0],
                  extra_metrics={"model_objective": logmf.model_objective_metric(inst)})
        path = tmp_path / "trace.csv"
        write_trace_csv(path, res.trace)
        head = path.read_text().splitlines()[0]
        assert head.startswith(
            "k,time_s,objective,aug_lagrangian,lyapunov,feas,stat_x_max,stat_y,dx,dy,domega"
        )
        rows = read_trace_csv(path)
        assert len(rows) == len(res.trace)
        for rec, row in zip(res.trace, rows):
            assert row["k"] == rec.k
            if math.isfinite(rec.lyapunov):
                assert row["lyapunov"] == rec.lyapunov  # 17 digits round-trip exactly
            assert row["model_objective"] == rec.extras["model_objective"]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    @pytest.mark.parametrize("text", [
        "", ",".join(TRACE_COLUMNS) + "\n", ",".join(TRACE_COLUMNS) + "\n0,0,1\n",
        "k,objective\n0,1\n",
    ], ids=["empty", "header-only", "ragged", "wrong-headers"])
    def test_malformed_trace_error_names_the_file(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(TraceFormatError, match=re.escape(str(path))):
            read_trace_csv(path)

    def test_non_numeric_cell_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["0,0,1,1,nan,1,1,1,0,0,0", "1,0,1,1,x,1,1,1,0,0,0"]
        path.write_text("\n".join([",".join(TRACE_COLUMNS), *rows]) + "\n")
        with pytest.raises(TraceFormatError) as exc:
            read_trace_csv(path)
        assert str(exc.value) == f"trace {path}: row 1, column lyapunov is not a number"

    @pytest.mark.parametrize("k", ["nan", "inf", "-inf", "1.5"])
    def test_non_integer_k_error_names_row_and_column(self, tmp_path, k):
        path = tmp_path / "bad.csv"
        rows = ["0,0,1,1,1,1,1,1,0,0,0", f"{k},0,1,1,1,1,1,1,0,0,0"]
        path.write_text("\n".join([",".join(TRACE_COLUMNS), *rows]) + "\n")
        with pytest.raises(TraceFormatError) as exc:
            read_trace_csv(path)
        assert str(exc.value) == f"trace {path}: row 1, column k is not an integer"

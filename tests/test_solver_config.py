import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iadmm import logmf
from iadmm.core import ConfigError
from iadmm.solver import SolverConfig, check_budget, run, validate_config

from toys import quadratic_toy, toy_problem


def roomy_problem():
    """Toy with enough penalty headroom that the smoothness gate passes."""
    a_mat, a, b = quadratic_toy()
    return toy_problem(a_mat, a, b)


def cfg(**kw):
    base = dict(beta=10.0, b2=0.5, max_iters=10)
    base.update(kw)
    return SolverConfig(**base)


class TestScalarConditions:
    def test_tau_1_1_valid_and_c1_zero(self):
        consts = validate_config(cfg(tau1=1.0, tau2=1.0), roomy_problem())
        assert consts.c1 == 0.0
        assert not consts.warnings

    def test_tau_half_half_valid(self):
        consts = validate_config(cfg(tau1=0.5, tau2=0.5), roomy_problem())
        assert consts.c1 == 0.0
        assert consts.c3 > 0.0

    def test_ratio_above_two_rejected(self):
        with pytest.raises(ConfigError, match="tau2/tau1"):
            validate_config(cfg(tau1=1.0, tau2=2.1), roomy_problem())

    def test_tau1_above_one_rejected(self):
        with pytest.raises(ConfigError, match="tau1"):
            validate_config(cfg(tau1=1.5, tau2=1.0), roomy_problem())

    @given(st.floats(0.001, 1.0), st.floats(0.001, 1.999))
    @settings(max_examples=100, deadline=None)
    def test_tau_gap_implied_by_range_and_ratio(self, tau1, ratio):
        # on tau1 in (0,1] and tau2/tau1 in (0,2) the gap bound holds for free
        tau2 = tau1 * ratio
        assert abs(tau1 - tau2) < 1.0

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ConfigError, match="beta"):
            validate_config(cfg(beta=0.0), roomy_problem())

    @pytest.mark.parametrize("field,value", [("b1", 0.0), ("b1", 1.0), ("b2", -0.1), ("b2", 1.0)])
    def test_b_bounds_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            validate_config(cfg(**{field: value}), roomy_problem())

    def test_nu_bounds_rejected(self):
        with pytest.raises(ConfigError, match="nu"):
            validate_config(cfg(nu=1.0), roomy_problem())

    def test_per_block_length_mismatch(self):
        with pytest.raises(ConfigError, match="nu"):
            validate_config(cfg(nu=(0.5, 0.5)), roomy_problem())

    @pytest.mark.parametrize("field", ["check_level", "extrapolation", "update_rule"])
    def test_unknown_enum_value_named(self, field):
        seen = []
        with pytest.raises(ConfigError, match=field):
            run(roomy_problem(), cfg(**{field: "bogus"}), [np.zeros(4)],
                extra_metrics={"seen": lambda state: seen.append(state) or 0.0})
        assert not seen  # raised before the first trace record

    @pytest.mark.parametrize("field,value", [("nu", [0.5]), ("update_rule", ["penalty_linearized"])])
    def test_sequence_setting_rejected(self, field, value):
        # one entry per block (the toy has one block) is still not a setting
        with pytest.raises(ConfigError, match=field):
            validate_config(cfg(**{field: value}), roomy_problem())

    def test_penalty_linearized_rejects_smooth_term(self):
        # the rule never calls smooth_grad_block, so a declared F would be dropped
        p = toy_problem(*quadratic_toy(), rule="fully_linearized")
        with pytest.raises(ConfigError, match="block 0: rule penalty_linearized"):
            validate_config(cfg(tau1=1.0, tau2=1.0), p)

    def test_missing_budget_rejected(self):
        with pytest.raises(ConfigError, match="budget"):
            validate_config(cfg(max_iters=None, max_seconds=None), roomy_problem())

    def test_missing_budget_rejected_by_the_rule_gd_shares(self):
        # logmf.gd_run checks its budget with the same function; with neither
        # limit set it would never stop, so the case is tested here
        with pytest.raises(ConfigError, match="budget"):
            check_budget(None, None)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="tolerance"):
            validate_config(cfg(tolerance=-1.0), roomy_problem())

    @pytest.mark.parametrize("field,value", [
        ("max_iters", -3), ("max_iters", 2.5),
        ("max_seconds", -1.0), ("max_seconds", float("nan")), ("max_seconds", float("inf")),
        ("tolerance", float("nan")), ("tolerance", float("inf")),
    ], ids=["negative-iters", "fractional-iters", "negative-seconds", "nan-seconds",
            "inf-seconds", "nan-tolerance", "inf-tolerance"])
    def test_budget_that_would_run_wrongly_rejected(self, field, value):
        # a direct call: run() would stop at once, fail inside range or never stop
        budget = {"max_iters": None} if field == "max_seconds" else {}
        with pytest.raises(ConfigError, match=field):
            validate_config(cfg(**budget, **{field: value}), roomy_problem())

    @pytest.mark.parametrize("budget", [
        {"max_iters": 0}, {"max_iters": np.int64(3)},
        {"max_iters": None, "max_seconds": 0.0}, {"max_iters": 5, "max_seconds": 2.5},
    ], ids=["zero-iters", "numpy-int", "zero-seconds", "both"])
    def test_budget_at_its_bounds_accepted(self, budget):
        validate_config(cfg(**budget), roomy_problem())


class TestDerivedConstants:
    def test_formulas_match_hand_computation(self):
        p = roomy_problem()
        c = cfg(tau1=0.8, tau2=1.0, beta=10.0)
        consts = validate_config(c, p)
        sigma_b = 1.0  # identity coupling map
        gap = abs(0.8 - 1.0)
        ratio = 1.0 / 0.8
        c1 = (0.8 + 1.0) * gap / (2 * sigma_b * 1.0 * 10.0 * (1 - gap))
        c2 = (0.8 + 1.0) * ratio / (2 * sigma_b * 10.0 * (1 - gap) * (1 - abs(1 - ratio)))
        delta = 1.0 + 10.0 * 1.0
        c3 = delta / 2 - 2 * c2 * 1.0
        assert consts.c1 == pytest.approx(c1, rel=1e-14)
        assert consts.c2 == pytest.approx(c2, rel=1e-14)
        assert consts.delta == pytest.approx(delta, rel=1e-14)
        assert consts.c3 == pytest.approx(c3, rel=1e-14)

    def test_gate_failure_named(self):
        # beta = 1 on the toy leaves no smoothness headroom
        with pytest.raises(ConfigError, match="smoothness gate|C3"):
            validate_config(cfg(beta=1.0), roomy_problem())

    def test_gate_downgrades_to_warning(self):
        consts = validate_config(cfg(beta=1.0, enforce_gate=False), roomy_problem())
        assert consts.warnings

    def test_logmf_benchmark_settings_pass(self):
        # the benchmark configuration: beta 1, unit class weight
        inst = logmf.LogMfInstance(y=np.zeros((4, 4)), rank=2)
        p = logmf.make_problem(inst)
        consts = validate_config(
            SolverConfig(beta=1.0, tau1=0.1, tau2=0.1, b2=0.9), p
        )
        assert consts.delta == pytest.approx(1.25)
        assert not consts.warnings


def independent_gate(tau1, tau2, b1, b2, beta, sigma_b, lg, lam_min_btb):
    """Re-derivation of the scalar acceptance region, written separately."""
    if beta <= 0 or not (0 < tau1 <= 1):
        return False
    if tau2 <= 0 or not (tau2 / tau1 < 2):
        return False
    if abs(tau1 - tau2) >= 1:
        return False
    if not (0 < b1 < 1 and 0 < b2 < 1):
        return False
    gap = abs(tau1 - tau2)
    c2 = ((tau1 + 1) * (tau2 / tau1)) / (
        2 * sigma_b * beta * (1 - gap) * (1 - abs(1 - tau2 / tau1))
    )
    delta = lg + beta * lam_min_btb
    c3 = delta / 2 - 2 * c2 * lg * lg
    if c3 <= 0:
        return False
    return 8 * c2 * lg * lg <= b2 * c3


class TestGateAgreement:
    @given(
        st.floats(0.01, 1.2),
        st.floats(0.01, 2.4),
        st.floats(0.001, 0.999),
        st.floats(0.001, 0.999),
        st.floats(0.2, 8.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_tuples_agree(self, tau1, tau2, b1, b2, beta):
        p = roomy_problem()
        c = SolverConfig(beta=beta, tau1=tau1, tau2=tau2, b1=b1, b2=b2)
        expected = independent_gate(
            tau1, tau2, b1, b2, beta,
            p.lin_map.lambda_min_bbt, p.y_grad_lipschitz, p.lin_map.lambda_min_btb,
        )
        try:
            validate_config(c, p)
            accepted = True
        except ConfigError:
            accepted = False
        assert accepted == expected

    @given(
        st.floats(0.01, 1.0),
        st.floats(0.01, 1.9),
        st.floats(0.2, 8.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_accepted_configs_satisfy_inequalities(self, tau1, tau2, beta):
        p = roomy_problem()
        c = SolverConfig(beta=beta, tau1=tau1, tau2=tau2, b2=0.5)
        try:
            consts = validate_config(c, p)
        except ConfigError:
            return
        assert 0 < tau1 <= 1
        assert 0 < tau2 / tau1 < 2
        assert abs(tau1 - tau2) < 1
        assert consts.c3 > 0
        lg = p.y_grad_lipschitz
        assert 8 * consts.c2 * lg * lg <= c.b2 * consts.c3

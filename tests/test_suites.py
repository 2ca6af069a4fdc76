import json

import numpy as np
import pytest

from qsme.linalg import (
    SIGMA_X,
    SIGMA_Z,
    hermitianize,
    random_hermitian,
    random_operator,
)
from qsme import suites
from qsme.master import SMEParams
from qsme.suites import (
    MonteCarloConfig,
    _continuity,
    _convergence,
    _halving,
    _martingale,
    _moment_bound,
    _outcome,
    _trace_inequalities,
)

GAMMA0 = np.diag([0.7, 0.3]).astype(complex)


def qubit_cfg(m=500, l=SIGMA_X, initial=GAMMA0, horizon=0.5, seed=1, stride=100, dt=1e-3):
    p = SMEParams(0.5 * SIGMA_Z, np.asarray(l, complex)[None], dt)
    return MonteCarloConfig(p, initial, horizon, m, seed, checkpoint_stride=stride)


class TestOutcome:
    def test_equality_passes_with_zero_margin(self):
        res = _outcome("edge", 0.75, 0.75, 7, {"k": 1}, {"x": [1.0]})
        assert res.passed and res.margin == 0.0
        assert (res.observed, res.bound, res.seed, res.details) == (0.75, 0.75, 7, {"x": [1.0]})
        assert res.config_hash == suites.config_digest({"k": 1})
        assert _outcome("edge", 0.75, 0.75, 7, {}, at_least=True).passed

    def test_upper_bound_rule(self):
        res = _outcome("upper", 2.0, 3.0, 0, {})
        assert res.passed and res.margin == 1.0 and res.details == {}
        res = _outcome("upper", 4.0, 3.0, 0, {})
        assert not res.passed and res.margin == -1.0

    def test_at_least_mirrors_pass_and_margin(self):
        res = _outcome("lower", 2.0, 3.0, 0, {}, at_least=True)
        assert not res.passed and res.margin == -1.0
        res = _outcome("lower", 4.0, 3.0, 0, {}, at_least=True)
        assert res.passed and res.margin == 1.0

    def test_nan_observed_fails_both_ways(self):
        for at_least in (False, True):
            res = _outcome("nan", float("nan"), 1.0, 0, {}, at_least=at_least)
            assert not res.passed and np.isnan(res.margin)
            assert res.to_json()["pass"] is False


class TestHalving:
    H = 0.5 * SIGMA_Z
    L = SIGMA_X

    def test_error_proportional_to_dt_halves(self):
        seen = []

        def error(params, incr):
            seen.append((params.dt, params.picture, incr.shape))
            return params.dt

        res = _halving("halving", 3, {"d": 2}, "errs", self.H, self.L, 2, error)
        assert res.passed and res.observed == 0.5 and res.bound == 0.75 and res.margin == 0.25
        assert res.details == {"errs": [1e-2, 5e-3, 2.5e-3]}
        assert seen == [
            (1e-2, "schroedinger", (2, 100, 1)),
            (5e-3, "schroedinger", (2, 200, 1)),
            (2.5e-3, "schroedinger", (2, 400, 1)),
        ]
        config = {"d": 2, "dts": [1e-2, 5e-3, 2.5e-3], "paths": 2}
        assert res.config_hash == suites.config_digest(config)

    def test_constant_error_fails(self):
        res = _halving("halving", 3, {}, "errs", self.H, self.L, 1, lambda params, incr: 0.125)
        assert not res.passed and res.observed == 1.0 and res.margin == -0.25
        assert res.details == {"errs": [0.125] * 3}


class TestMartingaleTest:
    def test_constant_series_scores_zero(self):
        res = _martingale("constant", np.full((50, 6), 2.5), 0, {})
        assert np.allclose(res.details["zscores"], 0.0)
        assert res.passed

    def test_biased_series_flagged(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 1.0, 11)
        samples = 1.0 + rng.normal(0, 0.05, (200, 11)) + 0.1 * t
        res = _martingale("biased", samples, 0, {})
        assert not res.passed
        assert res.observed > 10

    def test_requires_enough_trajectories(self):
        with pytest.raises(ValueError):
            _martingale("short", np.ones((10, 5)), 0, {})


class TestMomentBounds:
    def test_free_case_is_exact_equality(self):
        # L = 0 in the interaction picture: tr gamma^2 is constant to roundoff
        gamma0 = hermitianize(np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]))
        p = SMEParams(0.5 * SIGMA_Z, np.zeros((1, 2, 2), complex), 1e-3, "interaction")
        cfg = MonteCarloConfig(p, gamma0, 0.5, 64, 2, checkpoint_stride=125)
        res = _moment_bound("gamma_squared_growth", cfg)
        observed, bound = np.array(res.details["observed"]), np.array(res.details["bound"])
        assert np.max(np.abs(observed - bound)) <= 1e-10
        assert res.passed

    def test_gamma_squared_growth_small(self):
        res = _moment_bound("gamma_squared_growth", qubit_cfg(m=2000, seed=3))
        assert res.passed

    def test_trace_abs_bound_small(self):
        res = _moment_bound("trace_abs_bound", qubit_cfg(m=2000, initial=0.5 * SIGMA_Z, seed=4))
        assert res.passed

    def test_pure_norm_growth_small(self):
        cfg = qubit_cfg(m=2000, initial=np.array([1.0, 0.0], complex), seed=5)
        res = _moment_bound("pure_norm_growth", cfg)
        assert res.passed

    def test_unknown_bound_rejected(self):
        with pytest.raises(ValueError):
            _moment_bound("nonsense", qubit_cfg())

    def test_report_is_json_serializable(self):
        res = _moment_bound("trace_squared_growth", qubit_cfg(m=200, seed=6))
        json.dumps(res.to_json())


class TestTraceInequalities:
    def test_identity_a_reduces_to_triangle(self):
        b = random_operator(2, np.random.default_rng(7))
        res = _trace_inequalities(np.eye(2, dtype=complex), b, 7)
        assert res.passed

    def test_pauli_equality_case(self):
        # A = sigma_z, B = sigma_x: both sides equal 4, so no slack is left
        res = _trace_inequalities(SIGMA_Z, SIGMA_X, 0)
        assert res.observed == pytest.approx(0.0, abs=1e-12)
        assert res.passed

    def test_random_draws(self):
        rng = np.random.default_rng(8)
        for d in (2, 4, 8, 16):
            a = np.stack([random_hermitian(d, rng) for _ in range(1000)])
            b = np.stack([random_operator(d, rng) for _ in range(1000)])
            res = _trace_inequalities(a, b, 8)
            assert res.passed
            assert res.details == {"count": 1000, "hermitian_corollary": True}

    def test_violated_inequality_detected(self, monkeypatch):
        # equality case: a negative slack turns both the inequalities and the
        # Hermitian corollary |tr(ZXZX)| = tr(Z^2 X^2) = 2 into failures
        res = _trace_inequalities(SIGMA_Z, SIGMA_X, 0)
        assert res.passed and res.details["hermitian_corollary"]
        monkeypatch.setattr(suites, "INEQUALITY_SLACK", -1e-3)
        bad = _trace_inequalities(SIGMA_Z, SIGMA_X, 0)
        assert not bad.passed
        assert bad.details["hermitian_corollary"] is False


class TestContinuity:
    def test_equal_hamiltonians_give_zero_deviation(self):
        h = 0.4 * SIGMA_X
        linear, r2, scaling = _continuity(h, h, qubit_cfg(m=100, l=SIGMA_Z, seed=9))
        assert linear.observed == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(linear.details["sq_dev"], 0.0, atol=1e-12)
        assert linear.passed

    def test_linear_bounds_and_nonlinear_linearity(self):
        h1 = np.zeros((2, 2), complex)
        h2 = 0.1 * SIGMA_X
        cfg = qubit_cfg(m=1000, l=SIGMA_Z, seed=10, stride=50)
        linear, r2, scaling = _continuity(h1, h2, cfg)
        assert [o.name for o in (linear, r2, scaling)] == [
            "hamiltonian_continuity_linear",
            "hamiltonian_continuity_nonlinear_r2",
            "hamiltonian_continuity_scaling",
        ]
        assert linear.passed
        assert r2.passed
        assert r2.observed >= 0.95
        # halving the perturbation halves the deviation within tolerance
        assert scaling.passed
        assert scaling.observed <= scaling.bound

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _continuity(SIGMA_X, np.eye(3), qubit_cfg())


class TestConvergenceOrder:
    def test_lindblad_ode_is_fourth_order(self):
        rho0 = hermitianize(np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]))
        cfg = qubit_cfg(m=1, initial=rho0, horizon=1.0, seed=11)
        res = _convergence("lindblad_ode", [0.0125, 0.025, 0.05, 0.1], cfg)
        assert res.observed >= 3.5
        assert res.passed

    def test_sme_steppers_have_euler_order(self):
        cfg = qubit_cfg(m=100, seed=12)
        res = _convergence("sme_linear", [5e-4, 1e-3, 2e-3, 4e-3], cfg)
        assert 0.4 <= res.observed <= 1.1
        assert res.passed

    def test_requires_three_levels(self):
        with pytest.raises(ValueError):
            _convergence("sme_linear", [1e-3, 2e-3], qubit_cfg())

    def test_rejects_unknown_stepper(self):
        with pytest.raises(ValueError):
            _convergence("leapfrog", [1e-3, 2e-3, 4e-3], qubit_cfg())

    def test_rejects_non_nested_levels(self):
        with pytest.raises(ValueError):
            _convergence("sme_linear", [1e-3, 2.5e-3, 4e-3], qubit_cfg(m=10))


def test_run_suite_rejects_sabotage_without_variant():
    # only the martingale suite has a sabotaged variant; nothing runs here
    for name in ("bounds", "inequalities", "continuity", "equivalence", "convergence"):
        with pytest.raises(ValueError, match="no sabotaged variant"):
            suites.run_suite(name, fast=True, sabotage=True)

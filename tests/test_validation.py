import numpy as np
import pytest

from qsme.linalg import (
    SIGMA_X,
    SIGMA_Z,
    hermitianize,
    random_hermitian,
    random_operator,
)
from qsme import validation
from qsme.master import SMEParams
from qsme.validation import (
    MonteCarloConfig,
    convergence_order,
    hamiltonian_continuity_experiment,
    hermitian_trace_inequality_check,
    martingale_test,
    moment_bound_check,
    trace_inequality_check,
)

GAMMA0 = np.diag([0.7, 0.3]).astype(complex)


def qubit_cfg(m=500, l=SIGMA_X, initial=GAMMA0, horizon=0.5, seed=1, stride=100, dt=1e-3):
    p = SMEParams(0.5 * SIGMA_Z, np.asarray(l, complex)[None], dt)
    return MonteCarloConfig(p, initial, horizon, m, seed, checkpoint_stride=stride)


class TestMartingaleTest:
    def test_constant_series_scores_zero(self):
        res = martingale_test(np.full((50, 6), 2.5), np.arange(6.0))
        assert np.allclose(res.zscores, 0.0)
        assert res.passed()

    def test_biased_series_flagged(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 1.0, 11)
        samples = 1.0 + rng.normal(0, 0.05, (200, 11)) + 0.1 * t
        res = martingale_test(samples, t)
        assert not res.passed()
        assert res.max_abs_z > 10

    def test_requires_enough_trajectories(self):
        with pytest.raises(ValueError):
            martingale_test(np.ones((10, 5)), np.arange(5.0))


class TestMomentBounds:
    def test_free_case_is_exact_equality(self):
        # L = 0 in the interaction picture: tr gamma^2 is constant to roundoff
        gamma0 = hermitianize(np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]))
        p = SMEParams(0.5 * SIGMA_Z, np.zeros((1, 2, 2), complex), 1e-3, "interaction")
        cfg = MonteCarloConfig(p, gamma0, 0.5, 64, 2, checkpoint_stride=125)
        res = moment_bound_check("gamma_squared_growth", cfg)
        assert np.max(np.abs(res.observed - res.bound)) <= 1e-10
        assert res.passed

    def test_gamma_squared_growth_small(self):
        res = moment_bound_check("gamma_squared_growth", qubit_cfg(m=2000, seed=3))
        assert res.passed

    def test_trace_abs_bound_small(self):
        res = moment_bound_check("trace_abs_bound", qubit_cfg(m=2000, initial=0.5 * SIGMA_Z, seed=4))
        assert res.passed

    def test_pure_norm_growth_small(self):
        cfg = qubit_cfg(m=2000, initial=np.array([1.0, 0.0], complex), seed=5)
        res = moment_bound_check("pure_norm_growth", cfg)
        assert res.passed

    def test_unknown_bound_rejected(self):
        with pytest.raises(ValueError):
            moment_bound_check("nonsense", qubit_cfg())

    def test_report_is_json_serializable(self):
        import json

        res = moment_bound_check("trace_squared_growth", qubit_cfg(m=200, seed=6))
        json.dumps(res.to_json())


class TestTraceInequalities:
    def test_identity_a_reduces_to_triangle(self):
        b = random_operator(2, np.random.default_rng(7))
        res = trace_inequality_check(np.eye(2, dtype=complex), b)
        assert res.ok

    def test_pauli_equality_case(self):
        # A = sigma_z, B = sigma_x: both sides equal 4
        res = trace_inequality_check(SIGMA_Z, SIGMA_X)
        assert res.lhs1 == pytest.approx(4.0)
        assert res.rhs1 == pytest.approx(4.0)
        assert res.ok

    def test_random_draws(self):
        rng = np.random.default_rng(8)
        for d in (2, 4, 8, 16):
            a = np.stack([random_hermitian(d, rng) for _ in range(1000)])
            b = np.stack([random_operator(d, rng) for _ in range(1000)])
            assert trace_inequality_check(a, b).ok
            _, _, ok = hermitian_trace_inequality_check(a, hermitianize(b))
            assert ok

    def test_violated_inequality_detected(self, monkeypatch):
        # doctored numbers: lhs exceeds rhs when B is scaled asymmetrically
        res = trace_inequality_check(SIGMA_Z, SIGMA_X)
        assert not (res.lhs1 > res.rhs1 * 1.0000001)  # sanity: equality case
        monkeypatch.setattr(validation, "INEQUALITY_SLACK", -1e-3)
        bad = trace_inequality_check(SIGMA_Z, SIGMA_X)
        assert not bad.ok  # negative slack turns equality into failure


class TestContinuity:
    def test_equal_hamiltonians_give_zero_deviation(self):
        h = 0.4 * SIGMA_X
        rep = hamiltonian_continuity_experiment(h, h, qubit_cfg(m=100, l=SIGMA_Z, seed=9))
        assert np.allclose(rep.trace_dev, 0.0, atol=1e-12)
        assert np.allclose(rep.sq_dev, 0.0, atol=1e-12)
        assert rep.linear_pass

    def test_linear_bounds_and_nonlinear_linearity(self):
        h1 = np.zeros((2, 2), complex)
        h2 = 0.1 * SIGMA_X
        cfg = qubit_cfg(m=1000, l=SIGMA_Z, seed=10, stride=50)
        rep = hamiltonian_continuity_experiment(h1, h2, cfg)
        assert rep.linear_pass
        assert rep.nonlinear_pass
        assert rep.r_squared >= 0.95
        # halving the perturbation halves the deviation within tolerance
        dev, se = rep.nonlinear_dev, rep.nonlinear_dev_stderr
        assert abs(dev[1] - 0.5 * dev[0]) <= 3 * np.hypot(se[1], 0.5 * se[0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamiltonian_continuity_experiment(SIGMA_X, np.eye(3), qubit_cfg())


class TestConvergenceOrder:
    def test_lindblad_ode_is_fourth_order(self):
        rho0 = hermitianize(np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]))
        cfg = qubit_cfg(m=1, initial=rho0, horizon=1.0, seed=11)
        rep = convergence_order("lindblad_ode", [0.0125, 0.025, 0.05, 0.1], cfg)
        assert rep.order >= 3.5

    def test_sme_steppers_have_euler_order(self):
        cfg = qubit_cfg(m=100, seed=12)
        rep = convergence_order("sme_linear", [5e-4, 1e-3, 2e-3, 4e-3], cfg)
        assert 0.4 <= rep.order <= 1.1

    def test_requires_three_levels(self):
        with pytest.raises(ValueError):
            convergence_order("sme_linear", [1e-3, 2e-3], qubit_cfg())

    def test_rejects_unknown_stepper(self):
        with pytest.raises(ValueError):
            convergence_order("leapfrog", [1e-3, 2e-3, 4e-3], qubit_cfg())

    def test_rejects_non_nested_levels(self):
        with pytest.raises(ValueError):
            convergence_order("sme_linear", [1e-3, 2.5e-3, 4e-3], qubit_cfg(m=10))

import numpy as np
import pytest

from qsme.linalg import (
    SIGMA_X,
    SIGMA_Z,
    hermitianize,
    hs_norm,
    random_density,
    random_hermitian,
)
from qsme.master import SMEParams, nonlinear_sme_step, run_linear_sme, run_nonlinear_sme
from qsme.meanfield import (
    InteractionMap,
    MeanFieldConfig,
    apply_interaction,
    frozen_field_step,
    mckean_vlasov_solve,
    reweighted_expectation,
)
from qsme.noise import sample_wiener_batch

from oracles import hermiticity_preserving_kernel

RHO0 = np.array([[0.65, 0.15], [0.15, 0.35]], dtype=complex)
TABLE = np.array([[1.0, -1.0], [-1.0, 1.0]])  # A(eta) = sigma_z * tr(sigma_z eta)


def base_config(interaction, seed=4242, trajectories=200, tol=1e-3, mode="normalized"):
    p = SMEParams(0.3 * SIGMA_X, SIGMA_Z[None], 1e-3)
    return MeanFieldConfig(
        params=p,
        interaction=interaction,
        rho0=RHO0,
        trajectories=trajectories,
        horizon=0.25,
        picard_max_iter=20,
        picard_tol=tol,
        mode=mode,
        seed=seed,
    )


class TestInteractionMap:
    def test_zero_variant(self):
        imap = InteractionMap.zero(3)
        eta = random_density(3, np.random.default_rng(0))
        assert np.allclose(apply_interaction(imap, eta), 0.0)

    def test_constant_potential_gives_identity_shift(self):
        imap = InteractionMap.from_potential(np.full((3, 3), 1.7))
        eta = random_density(3, np.random.default_rng(1))
        assert np.allclose(apply_interaction(imap, eta), 1.7 * np.eye(3), atol=1e-12)

    def test_potential_strength_is_sup_norm(self):
        imap = InteractionMap.from_potential(TABLE)
        assert imap.strength == 1.0
        assert np.isclose(InteractionMap.from_potential(2 * TABLE).strength, 2.0)

    def test_potential_output_bound(self):
        # |A(nu)|_op <= C_A tr|nu|
        rng = np.random.default_rng(2)
        imap = InteractionMap.from_potential(TABLE)
        for _ in range(200):
            nu = random_hermitian(2, rng)
            out = apply_interaction(imap, nu)
            assert np.linalg.norm(out, 2) <= imap.strength * np.linalg.norm(nu, "nuc") + 1e-12

    def test_hs_kernel_bound(self):
        # |A(nu)|_HS <= C_A |nu|_HS over random draws
        rng = np.random.default_rng(3)
        kernel = hermiticity_preserving_kernel(3, rng, strength=2.5)
        imap = InteractionMap.from_kernel(kernel)
        assert imap.strength == pytest.approx(2.5)
        for _ in range(1000):
            nu = random_hermitian(3, rng)
            assert hs_norm(apply_interaction(imap, nu)) <= imap.strength * hs_norm(nu) + 1e-10

    def test_hs_kernel_preserves_hermiticity(self):
        rng = np.random.default_rng(4)
        imap = InteractionMap.from_kernel(hermiticity_preserving_kernel(2, rng))
        eta = random_hermitian(2, rng)
        out = apply_interaction(imap, eta)
        assert np.array_equal(out, out.conj().T)

    def test_non_preserving_kernel_rejected(self):
        bad = 1j * np.eye(4)  # nu -> i nu maps Hermitian to anti-Hermitian
        with pytest.raises(ValueError, match="Hermitian"):
            InteractionMap.from_kernel(bad)


class TestFrozenFieldStep:
    def test_zero_interaction_is_bitwise_plain_step(self):
        cfg = base_config(InteractionMap.zero(2))
        db = np.array([0.02])
        out = frozen_field_step(RHO0, RHO0, cfg, db)
        assert np.array_equal(out, nonlinear_sme_step(RHO0, cfg.params, db))

    def test_maximally_mixed_scalar_shift(self):
        # constant potential shifts H by c I, which drops out of commutators
        p = SMEParams(0.3 * SIGMA_X, SIGMA_Z[None], 1e-3)
        imap = InteractionMap.from_potential(np.full((2, 2), 0.9))
        cfg = MeanFieldConfig(p, imap, 0.5 * np.eye(2), 100, 0.25, seed=0)
        eta = 0.5 * np.eye(2, dtype=complex)
        db = np.array([0.03])
        assert np.allclose(
            frozen_field_step(eta, eta, cfg, db), nonlinear_sme_step(eta, p, db), atol=1e-14
        )

    def test_hand_built_step_against_direct_formula(self):
        # d=2, A(eta) = sigma_z tr(sigma_z eta): evaluate the full update by hand
        cfg = base_config(InteractionMap.from_potential(TABLE))
        eta = random_density(2, np.random.default_rng(6))
        rho = random_density(2, np.random.default_rng(7))
        db = np.array([0.04])
        heff = 0.3 * SIGMA_X + SIGMA_Z * np.trace(SIGMA_Z @ eta).real
        l = SIGMA_Z
        lind = l @ rho @ l - rho  # sigma_z^2 = I
        m = np.trace(l @ rho + rho @ l).real
        expected = (
            rho
            + cfg.params.dt * (-1j * (heff @ rho - rho @ heff) + lind)
            + (l @ rho + rho @ l - m * rho) * db[0]
        )
        assert np.allclose(frozen_field_step(rho, eta, cfg, db), hermitianize(expected), atol=1e-14)


class TestMeanFieldConfig:
    @pytest.mark.parametrize("horizon, dt", [(1e308, 1e-308), (float("nan"), 1e-3)])
    def test_step_count_without_a_whole_value_is_a_horizon_error(self, horizon, dt):
        # horizon / dt is inf or NaN, which round() cannot turn into a step count
        p = SMEParams(0.5 * SIGMA_Z, SIGMA_X, dt)
        with pytest.raises(ValueError, match="horizon must be a positive whole number of dt steps"):
            MeanFieldConfig(p, InteractionMap.zero(2), 0.5 * np.eye(2), 10, horizon)


class TestPicard:
    def test_zero_interaction_converges_immediately(self):
        cfg = base_config(InteractionMap.zero(2))
        rep = mckean_vlasov_solve(cfg)
        assert rep.converged
        assert len(rep.iteration_distances) == 2
        assert rep.iteration_distances[1] == 0.0  # CRN makes the repeat exact

    def test_zero_interaction_reduces_to_plain_monte_carlo_bitwise(self):
        cfg = base_config(InteractionMap.zero(2))
        rep = mckean_vlasov_solve(cfg)
        incr = sample_wiener_batch(1, cfg.steps, cfg.params.dt, cfg.seed, cfg.trajectories)
        plain = run_nonlinear_sme(RHO0, cfg.params, incr).mean(axis=1)
        assert np.array_equal(rep.mean_field_path, plain)

    def test_report_is_pure_function_of_config(self):
        cfg = base_config(InteractionMap.from_potential(TABLE))
        a = mckean_vlasov_solve(cfg)
        b = mckean_vlasov_solve(cfg)
        assert np.array_equal(a.mean_field_path, b.mean_field_path)
        assert a.iteration_distances == b.iteration_distances

    def test_contraction_distances_decrease(self):
        cfg = base_config(InteractionMap.from_potential(TABLE), trajectories=500, tol=1e-4)
        rep = mckean_vlasov_solve(cfg)
        assert rep.converged
        d = rep.iteration_distances
        assert all(d[i + 1] < d[i] for i in range(len(d) - 1))
        assert len(rep.trace_norm_distances) == len(d)

    def test_doubling_strength_at_least_doubles_second_distance(self):
        rep1 = mckean_vlasov_solve(base_config(InteractionMap.from_potential(TABLE), tol=1e-4))
        rep2 = mckean_vlasov_solve(base_config(InteractionMap.from_potential(2 * TABLE), tol=1e-4))
        assert rep2.iteration_distances[1] >= 2.0 * rep1.iteration_distances[1] * (1 - 1e-3)

    def test_mean_field_path_is_a_valid_density_path(self):
        cfg = base_config(InteractionMap.from_potential(TABLE))
        rep = mckean_vlasov_solve(cfg)
        traces = np.einsum("kii->k", rep.mean_field_path).real
        assert np.max(np.abs(traces - 1.0)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(rep.mean_field_path)) >= -1e-9
        herm = rep.mean_field_path - np.conj(np.swapaxes(rep.mean_field_path, -1, -2))
        assert np.max(np.abs(herm)) <= 1e-12

    def test_non_convergence_is_reported_not_raised(self):
        cfg = base_config(InteractionMap.from_potential(TABLE), tol=1e-15)
        cfg.picard_max_iter = 2
        rep = mckean_vlasov_solve(cfg)
        assert not rep.converged
        assert len(rep.iteration_distances) == 2

    def test_noise_floor_flag(self):
        cfg = base_config(InteractionMap.from_potential(TABLE), trajectories=100, tol=1e-6)
        rep = mckean_vlasov_solve(cfg)
        assert rep.noise_floor > 0
        assert rep.tolerance_below_noise_floor  # 1e-6 is far below the MC floor

    def test_linear_mode_converges_to_valid_path(self):
        # the linear-mode field is E[gamma/tr gamma] under the reference
        # measure: a different fixed-point problem from the normalized mode,
        # with the same validity requirements on the mean path
        cfg = base_config(InteractionMap.from_potential(TABLE), mode="linear", trajectories=500)
        rep = mckean_vlasov_solve(cfg)
        assert rep.converged
        d = rep.iteration_distances
        assert all(d[i + 1] < d[i] for i in range(len(d) - 1))
        traces = np.einsum("kii->k", rep.mean_field_path).real
        assert np.max(np.abs(traces - 1.0)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(rep.mean_field_path)) >= -1e-9

    def test_report_json(self):
        rep = mckean_vlasov_solve(base_config(InteractionMap.zero(2)))
        data = rep.to_json()
        assert data["converged"] is True
        assert len(data["mean_field_path"]) == len(rep.times)


class TestReweighting:
    def test_identity_observable_is_exactly_one(self):
        rng = np.random.default_rng(8)
        gammas = np.stack([random_density(2, rng) * rng.uniform(0.5, 2.0) for _ in range(100)])
        est = reweighted_expectation(gammas, np.eye(2))
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_no_measurement_means_uniform_weights(self):
        # L = 0: tr gamma(t) stays tr gamma0, so weighting changes nothing
        p = SMEParams(0.3 * SIGMA_X, np.zeros((1, 2, 2)), 1e-3)
        incr = sample_wiener_batch(1, 100, 1e-3, 11, 500)
        gam = run_linear_sme(RHO0, p, incr, checkpoint_stride=100)[-1]
        est = reweighted_expectation(gam, SIGMA_Z)
        plain = np.einsum("ij,mji->m", SIGMA_Z, gam).real.mean()
        assert est.value == pytest.approx(plain, abs=1e-12)
        assert est.effective_sample_size == pytest.approx(500.0, rel=1e-9)

    def test_degenerate_flag(self):
        gammas = np.stack([np.eye(2, dtype=complex) * w for w in [1e-8] * 30 + [5.0]])
        est = reweighted_expectation(gammas, SIGMA_Z)
        assert est.degenerate

    def test_cross_validation_against_innovation_simulation(self):
        # reference-measure weighted estimate vs physical-measure unweighted
        p = SMEParams(0.7 * SIGMA_X, SIGMA_Z[None], 1e-3)
        m = 4000
        ref = sample_wiener_batch(1, 500, 1e-3, 2025, m)
        gam = run_linear_sme(RHO0, p, ref, checkpoint_stride=500)[-1]
        weighted = reweighted_expectation(gam, SIGMA_Z)
        phys = sample_wiener_batch(1, 500, 1e-3, 2026, m)
        rho = run_nonlinear_sme(RHO0, p, phys, checkpoint_stride=500)[-1]
        vals = np.einsum("ij,mji->m", SIGMA_Z, rho).real
        se = vals.std(ddof=1) / np.sqrt(m)
        combined = float(np.hypot(weighted.stderr, se))
        assert abs(weighted.value - vals.mean()) <= 3 * combined

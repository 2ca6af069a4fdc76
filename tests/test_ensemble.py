import numpy as np
import pytest

from qsme.ensemble import (
    WeightedEnsemble,
    _feedback,
    decompose_state,
    ensemble_step,
    reconstruct_density,
    run_ensemble,
    shared_feedback,
)
from qsme.linalg import (
    SIGMA_Z,
    coupling_norm,
    operator_norm,
    random_density,
    random_hermitian,
    random_ket,
    random_operator,
    trace_norm,
)
from qsme.master import SMEParams, output_compensators
from qsme.noise import sample_wiener_batch
from qsme.pure import linear_pure_step


def moderate_params(rng, d=4, dt=1e-3):
    h = random_hermitian(d, rng)
    h *= 0.7 / operator_norm(h)
    l = random_operator(d, rng)
    l *= 0.8 / operator_norm(l)
    return SMEParams(h, l[None], dt)


class TestDecompose:
    def test_diagonal_state(self):
        ens = decompose_state(np.diag([0.75, 0.25]).astype(complex))
        assert np.allclose(ens.weights, [0.75, 0.25])
        assert np.allclose(np.abs(ens.kets), np.eye(2))

    def test_pure_state_is_rank_one(self):
        phi = random_ket(3, np.random.default_rng(0))
        ens = decompose_state(np.outer(phi, phi.conj()))
        assert ens.weights.shape == (1,)
        assert abs(abs(np.vdot(ens.kets[0], phi)) - 1.0) <= 1e-12

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(1)
        rho0 = random_density(8, rng)
        ens = decompose_state(rho0, rank_tol=0.0)
        rebuilt = sum(p * np.outer(e, e.conj()) for p, e in zip(ens.weights, ens.kets))
        assert trace_norm(rebuilt - rho0) <= 1e-9

    def test_rank_tol_drops_mass(self):
        rho0 = np.diag([0.9, 0.1 - 1e-13, 1e-13]).astype(complex)
        ens = decompose_state(rho0, rank_tol=1e-12)
        assert ens.weights.shape == (2,)
        assert ens.dropped_mass == pytest.approx(1e-13, rel=0.5)
        assert np.isclose(ens.weights.sum(), 1.0)


class TestSharedFeedback:
    def test_single_eigenket(self):
        ens = WeightedEnsemble(np.array([1.0]), np.array([[1.0, 0.0]], complex), 1)
        assert np.allclose(shared_feedback(ens, SIGMA_Z[None]), [2.0])

    def test_anti_hermitian_channel_gives_zero(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(3, rng)
        l = 1j * a  # L* = -L
        ens = decompose_state(random_density(3, rng))
        assert np.allclose(shared_feedback(ens, l[None]), 0.0, atol=1e-12)

    def test_matches_reconstructed_density_identity(self):
        rng = np.random.default_rng(3)
        ens = decompose_state(random_density(4, rng))
        # perturb ket norms so the quotient is nontrivial
        kets = ens.kets * rng.uniform(0.5, 2.0, size=(ens.kets.shape[0], 1))
        ens = WeightedEnsemble(ens.weights, kets, ens.cutoff)
        ls = np.stack([random_operator(4, rng) for _ in range(2)])
        pi = shared_feedback(ens, ls)
        oracle = output_compensators(reconstruct_density(ens), ls)
        assert np.allclose(pi, oracle, atol=1e-12)


    def test_batched_feedback_matches_reconstructed_density(self):
        # (M, rank, d) kets, one feedback vector per trajectory from one GEMM
        rng = np.random.default_rng(11)
        d, rank, m = 4, 3, 6
        weights = np.sort(rng.uniform(0.2, 1.0, rank))[::-1]
        weights /= weights.sum()
        kets = np.stack([[random_ket(d, rng, unit=False) for _ in range(rank)] for _ in range(m)])
        ls = np.stack([random_operator(d, rng) for _ in range(2)])
        pi = _feedback(kets, weights, ls)
        assert pi.shape == (m, 2)
        for k in range(m):
            rho = reconstruct_density(WeightedEnsemble(weights, kets[k], rank))
            assert np.allclose(pi[k], output_compensators(rho, ls), atol=1e-12)


class TestEnsembleStep:
    def test_rank_one_reduction_to_linear_pure_step(self):
        # single-ket ensemble: the step is the linear pure step driven by
        # dY = dB + pi dt, bitwise
        rng = np.random.default_rng(4)
        p = moderate_params(rng, d=3)
        phi = random_ket(3, rng)
        ens = WeightedEnsemble(np.array([1.0]), phi[None].copy(), 1)
        db = rng.normal(0.0, 0.03, 1)
        stepped = ensemble_step(ens, p, db)
        pi = shared_feedback(ens, p.ls)
        direct = linear_pure_step(phi, p, db + pi * p.dt)
        assert np.array_equal(stepped.kets[0], direct)

    def test_scalar_channel_leaves_density_invariant(self):
        # L = c I: the common scalar drift cancels in the reconstruction
        rng = np.random.default_rng(5)
        d = 3
        p = SMEParams(np.zeros((d, d)), (0.6 * np.eye(d))[None], 1e-3)
        ens = decompose_state(random_density(d, rng))
        before = reconstruct_density(ens)
        out = ens
        for k in range(50):
            out = ensemble_step(out, p, rng.normal(0.0, 0.03, 1), k * p.dt)
        assert np.allclose(reconstruct_density(out), before, atol=1e-10)

    def test_weights_are_bitwise_constant(self):
        rng = np.random.default_rng(6)
        p = moderate_params(rng)
        ens = decompose_state(random_density(4, rng))
        w0 = ens.weights.copy()
        out = ens
        for k in range(20):
            out = ensemble_step(out, p, rng.normal(0.0, 0.03, 1), k * p.dt)
        assert np.array_equal(out.weights, w0)


class TestReconstruct:
    def test_orthonormal_kets_give_diagonal(self):
        ens = WeightedEnsemble(np.array([0.6, 0.4]), np.eye(2, dtype=complex), 2)
        assert np.allclose(reconstruct_density(ens), np.diag([0.6, 0.4]))

    def test_unit_trace_and_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            k = int(rng.integers(1, d + 1))
            w = np.sort(rng.uniform(0.1, 1.0, k))[::-1]
            w /= w.sum()
            kets = np.stack([random_ket(d, rng, unit=False) for _ in range(k)])
            ens = WeightedEnsemble(w, kets, k)
            rho = reconstruct_density(ens)
            assert abs(np.trace(rho).real - 1.0) <= 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


class TestEquivalenceAndGrowth:
    def test_density_growth_bound(self):
        # E sum p_k |e_k|^2 under the feedback-driven linear dynamics obeys
        # the exp(4 t |L|^2) estimate
        rng = np.random.default_rng(8)
        d = 2
        p = moderate_params(rng, d=d)
        ens0 = decompose_state(random_density(d, rng))
        incr = sample_wiener_batch(1, 500, 1e-3, seed=9, n_traj=4000)
        _, kets = run_ensemble(ens0, p, incr, checkpoint_stride=100, return_kets=True)
        mass = np.einsum("k,cmki->cm", ens0.weights, np.abs(kets) ** 2)
        lnorm2 = coupling_norm(p.ls) ** 2
        for c in range(mass.shape[0]):
            t = 0.1 * c
            se = mass[c].std(ddof=1) / np.sqrt(mass.shape[1])
            assert mass[c].mean() <= np.exp(4 * t * lnorm2) + 3 * se

    def test_feedback_stays_consistent_along_path(self):
        rng = np.random.default_rng(10)
        p = moderate_params(rng)
        ens = decompose_state(random_density(4, rng, rank=3))
        for k in range(30):
            pi = shared_feedback(ens, p.ls)
            oracle = output_compensators(reconstruct_density(ens), p.ls)
            assert np.allclose(pi, oracle, atol=1e-12)
            ens = ensemble_step(ens, p, rng.normal(0.0, 0.03, 1), k * p.dt)


class TestValidation:
    def test_rejects_increasing_weights(self):
        with pytest.raises(ValueError):
            WeightedEnsemble(np.array([0.3, 0.7]), np.eye(2, dtype=complex), 2)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError):
            WeightedEnsemble(np.array([0.7, 0.2]), np.eye(2, dtype=complex), 2)

    def test_rejects_vanishing_mass(self):
        with pytest.raises(ValueError):
            WeightedEnsemble(np.array([1.0]), np.zeros((1, 2), complex), 1)

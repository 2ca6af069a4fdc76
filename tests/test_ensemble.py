import numpy as np
import pytest

from qsme import pure
from qsme.ensemble import (
    WeightedEnsemble,
    _feedback,
    _kick_kets,
    _mass,
    _weighted_forms,
    decompose_state,
    run_ensemble,
    weighted_density,
    weighted_expectations,
)
from qsme.errors import TrajectoryAbort
from qsme.linalg import (
    SIGMA_Z,
    coupling_norm,
    hermitianize,
    operator_norm,
    random_density,
    random_hermitian,
    random_operator,
)
from qsme.master import SMEParams, output_compensators
from qsme.noise import sample_wiener_batch
from qsme.pure import BLOCK_BYTES, linear_pure_step

from oracles import ensemble_step, random_ket, reconstruct_density, shared_feedback, traced_peak


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
        ens = decompose_state(rho0)
        rebuilt = sum(p * np.outer(e, e.conj()) for p, e in zip(ens.weights, ens.kets))
        assert np.linalg.norm(rebuilt - rho0, "nuc") <= 1e-9

    def test_rank_tol_drops_mass(self):
        rho0 = np.diag([0.9, 0.1 - 1e-13, 1e-13]).astype(complex)
        ens = decompose_state(rho0)
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
        kets = run_ensemble(ens0, p, incr, checkpoint_stride=100, reduce=lambda kets, k: kets)
        mass = np.einsum("k,cmki->cm", ens0.weights, np.abs(kets) ** 2)
        lnorm2 = coupling_norm(p.ls) ** 2
        for c in range(mass.shape[0]):
            t = 0.1 * c
            se = mass[c].std(ddof=1) / np.sqrt(mass.shape[1])
            assert mass[c].mean() <= np.exp(4 * t * lnorm2) + 3 * se

    @pytest.mark.parametrize("picture", ["schroedinger", "interaction"])
    @pytest.mark.parametrize("rank", [1, 3])
    def test_expectations_from_kets_match_reconstructed_density(self, picture, rank):
        rng = np.random.default_rng(20 + rank)
        d = 4
        base = moderate_params(rng, d=d, dt=1e-2)
        p = SMEParams(base.h, base.ls, base.dt, picture)
        ens0 = decompose_state(random_density(d, rng, rank=rank))
        assert ens0.kets.shape == (rank, d)
        ops = np.stack([random_hermitian(d, rng), np.diag(np.arange(d)).astype(complex), np.eye(d)])
        incr = sample_wiener_batch(1, 40, p.dt, seed=21, n_traj=50)
        vals = run_ensemble(
            ens0, p, incr, checkpoint_stride=4,
            reduce=lambda kets, k: weighted_expectations(kets, ens0.weights, ops),
        )  # (K+1, n_obs, M)
        rhos = run_ensemble(ens0, p, incr, checkpoint_stride=4)  # (K+1, M, d, d)
        oracle = np.einsum("nij,kmji->knm", ops, rhos).real
        assert vals.shape == oracle.shape == (11, 3, 50)
        assert np.max(np.abs(vals - oracle)) <= 1e-13

    def test_feedback_stays_consistent_along_path(self):
        rng = np.random.default_rng(10)
        p = moderate_params(rng)
        ens = decompose_state(random_density(4, rng, rank=3))
        for k in range(30):
            pi = shared_feedback(ens, p.ls)
            oracle = output_compensators(reconstruct_density(ens), p.ls)
            assert np.allclose(pi, oracle, atol=1e-12)
            ens = ensemble_step(ens, p, rng.normal(0.0, 0.03, 1), k * p.dt)


class TestAborts:
    # H = 0, L = sigma_z, dt = 0.5 from |0>: the step multiplies the ket by
    # 0.75 + dY with dY = dB + pi dt = dB + 1, so dB = -1.75 zeroes it exactly
    P = SMEParams(np.zeros((2, 2)), SIGMA_Z[None], 0.5)
    ENS = decompose_state(np.diag([1.0, 0.0]).astype(complex))

    def test_vanished_norm_names_step_and_trajectory(self):
        incr = np.zeros((3, 2, 1))
        incr[1, 0, 0] = -1.75
        with pytest.raises(TrajectoryAbort, match="weighted ket norm vanished") as err:
            run_ensemble(self.ENS, self.P, incr)
        assert (err.value.step, err.value.trajectory) == (1, 1)

    def test_vanished_norm_at_a_checkpoint_is_located(self):
        incr = np.zeros((3, 1, 1))
        incr[2, 0, 0] = -1.75
        with pytest.raises(TrajectoryAbort) as err:
            run_ensemble(self.ENS, self.P, incr)
        assert (err.value.step, err.value.trajectory) == (1, 2)

    def test_feedback_names_first_vanished_trajectory(self):
        # trajectories 2 and 4 vanish in step 6; with no checkpoint reduction
        # in the way, the feedback of step 7 finds them and the run locates it
        incr = np.zeros((5, 9, 1))
        incr[[2, 4], 6, 0] = -1.75
        with pytest.raises(TrajectoryAbort, match="weighted ket norm vanished") as err:
            run_ensemble(self.ENS, self.P, incr, reduce=lambda kets, k: kets)
        assert (err.value.step, err.value.trajectory) == (7, 2)


class TestRealViewHelpers:
    # The helpers work on real views of the kets; the oracles are the complex
    # einsum formulas they replace.
    @staticmethod
    def check(kets, weights, ops):
        forms = np.einsum("k,...ki,...kni->...n", weights, np.conj(kets),
                          np.einsum("nij,...kj->...kni", ops, kets)).real
        mass = np.einsum("k,...ki->...", weights, np.abs(kets) ** 2)
        assert np.max(np.abs(_weighted_forms(kets, weights, ops) - forms)) <= 1e-13
        assert np.max(np.abs(_mass(kets, weights) - mass)) <= 1e-13
        vals = weighted_expectations(kets, weights, ops)
        assert np.max(np.abs(vals - np.moveaxis(forms / mass[..., None], -1, 0))) <= 1e-13
        pi = _feedback(kets, weights, ops)
        assert np.max(np.abs(pi - 2.0 * forms / mass[..., None])) <= 1e-13

    def test_non_contiguous_kets(self):
        rng = np.random.default_rng(30)
        d, rank, m = 4, 3, 7
        weights = decompose_state(random_density(d, rng, rank=rank)).weights
        ops = np.stack([random_operator(d, rng), random_hermitian(d, rng)])
        base = rng.normal(size=(m, d, rank)) + 1j * rng.normal(size=(m, d, rank))
        wide = rng.normal(size=(2 * m, rank, 2 * d)) + 1j * rng.normal(size=(2 * m, rank, 2 * d))
        transposed = base.swapaxes(-1, -2)  # (m, rank, d) with a strided last axis
        sliced = wide[::2, :, ::2]
        for kets in (transposed, sliced, transposed[0], sliced[3]):
            assert kets.shape[-2:] == (rank, d) and not kets.flags.c_contiguous
            self.check(kets, weights, ops)

    def test_identity_observable_reads_exactly_one(self):
        # the mass is the quadratic form of the identity, taken by the same dot product
        rng = np.random.default_rng(33)
        d = 4
        weights = decompose_state(random_density(d, rng)).weights
        kets = rng.normal(size=(200, d, d)) + 1j * rng.normal(size=(200, d, d))
        for frame in (kets, kets.swapaxes(-1, -2)):
            assert np.all(weighted_expectations(frame, weights, np.eye(d)) == 1.0)

    def test_interaction_picture_frames(self):
        rng = np.random.default_rng(31)
        d = 4
        base = moderate_params(rng, d=d, dt=1e-2)
        p = SMEParams(50.0 * base.h, base.ls, base.dt, "interaction")
        ens0 = decompose_state(random_density(d, rng, rank=3))
        incr = sample_wiener_batch(1, 20, p.dt, seed=32, n_traj=6)
        frames = run_ensemble(ens0, p, incr, checkpoint_stride=5, reduce=lambda kets, k: kets)
        assert frames.shape == (5, 6, 3, d)
        ops = np.stack([random_hermitian(d, rng), np.diag(np.arange(d)).astype(complex)])
        self.check(frames, ens0.weights, ops)  # every checkpoint at once
        for k, kets in enumerate(frames):
            self.check(kets, ens0.weights, p.channel_ops(5 * k * p.dt))  # dressed channels


class TestBlocks:
    """The ensemble's step and reductions run a block of trajectories at a
    time: the same bits for any blocking, and no state-sized scratch."""

    @staticmethod
    def ensemble(d, rank, m, seed=40):
        rng = np.random.default_rng(seed)
        p = moderate_params(rng, d=d, dt=1e-2)
        ens = decompose_state(random_density(d, rng, rank=rank))
        kets = ens.kets * (1.0 + 0.1 * rng.normal(size=(m, rank, 1))) + 0.05 * (
            rng.normal(size=(m, rank, d)) + 1j * rng.normal(size=(m, rank, d)))
        return p, ens.weights, kets, rng.normal(0.0, 0.1, (m, 1))

    # at d = 8, rank 8 a BLAS GEMV over k gave a short block's rows other bits
    @pytest.mark.parametrize("d, rank", [(2, 1), (2, 2), (4, 3), (8, 8)])
    def test_bits_do_not_depend_on_the_blocking(self, monkeypatch, d, rank):
        p, weights, kets, db = self.ensemble(d, rank, 37)
        ops = np.stack([random_hermitian(d, np.random.default_rng(41)), np.eye(d)])
        calls = [
            lambda k: _mass(k, weights),
            lambda k: _weighted_forms(k, weights, p.ls),
            lambda k: weighted_expectations(k, weights, ops),
            lambda k: weighted_density(k, weights),
            lambda k: _kick_kets(k, weights, p, db if k.ndim == 3 else db[0], 0.3),
        ]
        for frame in (kets, kets.swapaxes(-1, -2).copy().swapaxes(-1, -2), kets[5]):
            whole = [f(frame) for f in calls]
            for trajectories in (2, 5):  # 37 leave a remainder of 1 (joined to the last block) and 2
                monkeypatch.setattr(pure, "BLOCK_BYTES", trajectories * 16 * d * d)
                assert all(np.array_equal(f(frame), ref) for f, ref in zip(calls, whole))
            monkeypatch.undo()

    @pytest.mark.parametrize("d, rank", [(2, 1), (3, 3), (4, 2)])
    def test_density_is_finished_in_place_bitwise(self, d, rank):
        # divided by the weighted norms and symmetrized in its own array, it
        # has the bits of hermitianize(sum_k p_k e_k e_k† / norm) formed anew
        _, weights, kets, _ = self.ensemble(d, rank, 3000)
        rho = np.swapaxes(weights[:, None] * kets, -1, -2) @ np.conj(kets)
        assert np.array_equal(weighted_density(kets, weights), hermitianize(rho / _mass(kets, weights)[:, None, None]))

    def test_step_working_set(self):
        # d = 4, rank 4, one channel: 2048 trajectories a block of densities
        # and 16 blocks' worth of kets (an 8 MiB state).  One step of
        # run_ensemble holds its start state, the step's output, at most
        # three blocks and a few float64 per trajectory (norms, forms,
        # feedback): far less than one more state.
        d, rank = 4, 4
        m = 16 * BLOCK_BYTES // (16 * rank * d)
        rng = np.random.default_rng(2)
        p = moderate_params(rng, d=d, dt=1e-2)
        ens = decompose_state(random_density(d, rng))
        assert ens.cutoff == rank
        incr = rng.normal(0.0, 0.03, (m, 1, 1))
        state = m * rank * d * 16
        _, peak = traced_peak(lambda: run_ensemble(ens, p, incr, reduce=lambda kets, k: None))
        assert peak <= 2 * state + 3 * BLOCK_BYTES + 8 * m * 8, (peak - 2 * state) / BLOCK_BYTES

    def test_reductions_hold_no_ket_sized_array(self):
        # weighted_expectations takes each block's images under one operator
        # at a time, so no (M, rank, d) array is formed; the densities are
        # built in their own (M, d, d) array.  Rank one is a pure engine's
        # kets; at d = 8 they outweigh the bound's four copies of three
        # float64 values per trajectory
        for d, rank in ((4, 4), (8, 1)):
            m = 16 * BLOCK_BYTES // (16 * rank * d)
            _, weights, kets, _ = self.ensemble(d, rank, m)
            ops = np.stack([random_hermitian(d, np.random.default_rng(42)) for _ in range(3)])
            vals, peak = traced_peak(lambda: weighted_expectations(kets, weights, ops))
            assert peak <= 2 * BLOCK_BYTES + 4 * vals.nbytes < kets.nbytes, (d, rank)
            rho, peak = traced_peak(lambda: weighted_density(kets, weights))
            assert peak <= rho.nbytes + 3 * BLOCK_BYTES + 2 * m * 8, (d, rank)


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

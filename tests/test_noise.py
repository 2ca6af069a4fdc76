import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsme.linalg import SIGMA_X, SIGMA_Z, random_density, random_operator
from qsme.master import SMEParams, normalize_path, reconstruct_path, run_linear_sme
from qsme.noise import coarsen_increments, sample_wiener_batch, trajectory_seed


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample_wiener_batch(2, 100, 1e-3, seed=123, n_traj=1)
        b = sample_wiener_batch(2, 100, 1e-3, seed=123, n_traj=1)
        assert np.array_equal(a, b)

    def test_distinct_trajectories_differ(self):
        batch = sample_wiener_batch(1, 50, 1e-3, seed=123, n_traj=2)
        assert not np.array_equal(batch[0], batch[1])

    def test_batch_matches_individual(self):
        # row m is bitwise trajectory m's own stream, so a smaller batch is
        # a prefix of a larger one
        steps, n, dt = 30, 2, 1e-2
        batch = sample_wiener_batch(n, steps, dt, seed=9, n_traj=6)
        assert batch.shape == (6, steps, n)
        for m in range(6):
            rng = np.random.default_rng(trajectory_seed(9, m))
            assert np.array_equal(batch[m], rng.normal(0.0, np.sqrt(dt), (steps, n)))
        for n_traj in (1, 4):
            assert np.array_equal(sample_wiener_batch(n, steps, dt, seed=9, n_traj=n_traj), batch[:n_traj])

    def test_moments(self):
        dt = 1e-3
        x = sample_wiener_batch(1, 100_000, dt, seed=77, n_traj=1).ravel()
        assert abs(x.mean()) <= 3 * np.sqrt(dt / x.size)
        assert abs(x.var() - dt) <= 0.05 * dt

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            sample_wiener_batch(0, 10, 1e-3, 1, n_traj=2)
        with pytest.raises(ValueError):
            sample_wiener_batch(1, 0, 1e-3, 1, n_traj=2)
        with pytest.raises(ValueError):
            sample_wiener_batch(1, 10, -1e-3, 1, n_traj=2)
        with pytest.raises(ValueError):
            sample_wiener_batch(1, 10, 0.0, 1, n_traj=2)

    def test_cross_trajectory_correlation(self):
        # sub-seeded streams look independent: pairwise correlation of the
        # increment series is statistically consistent with zero
        steps = 400
        batch = sample_wiener_batch(1, steps, 1e-3, seed=5, n_traj=1001)[:, :, 0]
        x = batch - batch.mean(axis=1, keepdims=True)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        r = np.einsum("ms,ms->m", x[:-1], x[1:])
        level = 3.0 / np.sqrt(steps)
        assert abs(r.mean()) <= level / np.sqrt(r.size) * 3
        assert np.mean(np.abs(r) > level) <= 0.01


class TestConvertNoise:
    """Output <-> innovation increments where the package converts them.

    ``normalize_path`` maps dY to dB = dY - m dt and ``reconstruct_path``
    maps dB back to dY = dB + m dt, with m_j = tr(L_j rho + rho L_j†) at the
    normalized state of the same step.
    """

    @staticmethod
    def path(l, gamma0, steps=200, dt=1e-3, seed=1, h=None):
        """Linear states along one output path, the path's increments dY, the channels and dt."""
        p = SMEParams(np.zeros((2, 2)) if h is None else h, np.asarray(l, complex)[None], dt)
        incr = sample_wiener_batch(1, steps, dt, seed, n_traj=1)[0]
        return run_linear_sme(np.asarray(gamma0, complex), p, incr), incr, p.ls, dt

    def test_zero_compensator_is_bitwise_identity(self):
        # an anti-Hermitian channel has m = 2 Re tr(L rho) = 0 at every state
        states, dy, ls, dt = self.path(0.5j * SIGMA_Z, np.diag([0.6, 0.4]), h=0.3 * SIGMA_X)
        rhos, db = normalize_path(states, dy, ls, dt)
        assert np.array_equal(db, dy)
        assert np.array_equal(reconstruct_path(rhos, db, ls, dt)[1], dy)

    def test_eigenstate_compensator_value(self):
        # rho = |0><0| stays put under L = sigma_z with compensator 2<L_S> = 2,
        # so dB = dY - 2 dt
        states, dy, ls, dt = self.path(SIGMA_Z, np.diag([1.0, 0.0]), steps=20, dt=0.01)
        assert np.allclose(normalize_path(states, dy, ls, dt)[1], dy - 2 * dt, rtol=0, atol=1e-15)

    def test_length_mismatch_rejected(self):
        states, dy, ls, dt = self.path(SIGMA_Z, np.diag([0.6, 0.4]), steps=5)
        with pytest.raises(ValueError, match="lengths"):
            normalize_path(states, dy[:-1], ls, dt)
        with pytest.raises(ValueError, match="lengths"):
            reconstruct_path(states, dy[:-1], ls, dt)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 2.0))
    def test_round_trip_within_rounding(self, seed, scale):
        # floating-point subtraction is lossy, so the algebraic inverse is
        # exact only up to one rounding per direction
        rng = np.random.default_rng(seed)
        states, dy, ls, dt = self.path(scale * random_operator(2, rng), random_density(2, rng), steps=64, seed=seed)
        rhos, db = normalize_path(states, dy, ls, dt)
        m_dt = np.abs(dy - db)
        y2 = reconstruct_path(rhos, db, ls, dt)[1]
        assert np.all(np.abs(y2 - dy) <= 2 * np.spacing(np.abs(dy) + m_dt))


class TestRefinement:
    def test_coarsen_sums_blocks(self):
        incr = np.arange(12.0).reshape(6, 2)
        coarse = coarsen_increments(incr, 3)
        assert np.allclose(coarse, [[0 + 2 + 4, 1 + 3 + 5], [6 + 8 + 10, 7 + 9 + 11]])

    def test_coarsen_rejects_ragged(self):
        with pytest.raises(ValueError):
            coarsen_increments(np.zeros((7, 1)), 2)


def test_trajectory_seed_is_stable():
    # the derivation scheme is part of the reproducibility contract
    assert trajectory_seed(7, 3).spawn_key == (3,)
    assert trajectory_seed(7, 3).entropy == 7

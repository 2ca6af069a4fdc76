import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsme.noise import (
    coarsen_increments,
    convert_noise,
    sample_wiener,
    sample_wiener_batch,
    trajectory_seed,
)


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample_wiener(2, 100, 1e-3, seed=123)
        b = sample_wiener(2, 100, 1e-3, seed=123)
        assert np.array_equal(a.increments, b.increments)

    def test_distinct_trajectories_differ(self):
        a = sample_wiener(1, 50, 1e-3, seed=123, trajectory=0)
        b = sample_wiener(1, 50, 1e-3, seed=123, trajectory=1)
        assert not np.array_equal(a.increments, b.increments)

    def test_batch_matches_individual(self):
        batch = sample_wiener_batch(2, 30, 1e-2, seed=9, n_traj=5, offset=3)
        one = sample_wiener(2, 30, 1e-2, seed=9, trajectory=4)
        assert np.array_equal(batch[1], one.increments)

    def test_moments(self):
        dt = 1e-3
        path = sample_wiener(1, 100_000, dt, seed=77)
        x = path.increments.ravel()
        assert abs(x.mean()) <= 3 * np.sqrt(dt / x.size)
        assert abs(x.var() - dt) <= 0.05 * dt

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            sample_wiener(0, 10, 1e-3, 1)
        with pytest.raises(ValueError):
            sample_wiener(1, 10, -1e-3, 1)

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
    def test_zero_compensator_is_bitwise_identity(self):
        y = sample_wiener(2, 200, 1e-3, seed=1).increments
        comp = np.zeros_like(y)
        b = convert_noise("output_to_innovation", y, comp, 1e-3)
        assert np.array_equal(b, y)
        assert np.array_equal(convert_noise("innovation_to_output", b, comp, 1e-3), y)

    def test_eigenstate_compensator_value(self):
        # phi = (1,0), L = sigma_z: compensator 2<L_S> = 2, so dB = dY - 2 dt
        dt = 0.01
        dy = np.array([[0.3]])
        db = convert_noise("output_to_innovation", dy, np.array([[2.0]]), dt)
        assert np.allclose(db, 0.3 - 2 * dt)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            convert_noise("output_to_innovation", np.zeros((5, 2)), np.zeros((5, 3)), 0.1)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 10.0))
    def test_round_trip_within_rounding(self, seed, scale):
        # floating-point subtraction is lossy, so the algebraic inverse is
        # exact only up to one rounding per direction; see the docstring
        dt = 1e-3
        rng = np.random.default_rng(seed)
        y = rng.normal(0.0, np.sqrt(dt), size=(64, 2))
        comp = rng.uniform(-scale, scale, size=(64, 2))
        b = convert_noise("output_to_innovation", y, comp, dt)
        y2 = convert_noise("innovation_to_output", b, comp, dt)
        assert np.all(np.abs(y2 - y) <= 2 * np.spacing(np.abs(y) + np.abs(comp) * dt))


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

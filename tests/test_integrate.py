import weakref

import numpy as np
import pytest

from qsme.ensemble import (
    WeightedEnsemble,
    decompose_state,
    run_ensemble,
)
from qsme.integrate import integrate
from qsme.linalg import SIGMA_X, SIGMA_Z, hs_norm
from qsme.master import SMEParams, nonlinear_sme_step, run_nonlinear_sme
from qsme.meanfield import (
    InteractionMap,
    MeanFieldConfig,
    frozen_field_step,
    mckean_vlasov_solve,
)
from qsme.noise import sample_wiener_batch

from oracles import ensemble_step, hermiticity_preserving_kernel, reconstruct_density


def test_checkpoints_observe_every_stride_from_zero():
    out = integrate(lambda x, k: x + 1.0, np.zeros(2), 6, 2, lambda x, k: x * 10.0 + k)
    assert out.shape == (4, 2)
    assert np.array_equal(out[:, 0], [0.0, 22.0, 44.0, 66.0])
    with pytest.raises(ValueError, match="multiple of checkpoint_stride"):
        integrate(lambda x, k: x, np.zeros(2), 7, 2, lambda x, k: x)


def test_observe_returning_none_stacks_nothing():
    seen = []
    out = integrate(lambda x, k: x + 1.0, np.zeros(2), 6, 2, lambda x, k: seen.append((k, x[0])))
    assert out is None and seen == [(0, 0.0), (2, 2.0), (4, 4.0), (6, 6.0)]


def test_start_state_is_released_after_the_first_step():
    # observe returns the state itself, as keep_frame does at t = 0
    refs = []

    def step(x, k):
        if k == 0:
            refs.append(weakref.ref(x))
        else:
            refs.append(refs[0]() is None)
        return x + 1.0

    out = integrate(step, np.zeros(2), 4, 1, lambda x, k: x)
    assert np.array_equal(out[:, 0], [0.0, 1.0, 2.0, 3.0, 4.0])
    assert refs[1:] == [True] * 3


def _params():
    return SMEParams(0.8 * SIGMA_X, np.stack([SIGMA_Z, 0.4 * SIGMA_X]), 0.01, "interaction")


def test_sme_driver_is_bitwise_the_hand_loop():
    p = _params()
    incr = sample_wiener_batch(2, 20, p.dt, seed=3, n_traj=5)
    rho0 = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
    out = run_nonlinear_sme(rho0, p, incr, checkpoint_stride=4)
    x = np.broadcast_to(rho0, (5, 2, 2)).astype(complex)
    assert np.array_equal(out[0], x)
    for k in range(20):
        x = nonlinear_sme_step(x, p, incr[:, k, :], k * p.dt)
        if (k + 1) % 4 == 0:
            assert np.array_equal(out[(k + 1) // 4], p.to_schroedinger_frame_matrix(x, (k + 1) * p.dt))


def test_ensemble_driver_is_bitwise_the_hand_loop():
    p = _params()
    incr = sample_wiener_batch(2, 12, p.dt, seed=4, n_traj=1)[0]
    ens = decompose_state(np.diag([0.7, 0.3]).astype(complex))
    out = run_ensemble(ens, p, incr, checkpoint_stride=3)
    for k in range(12):
        ens = ensemble_step(ens, p, incr[k], k * p.dt)
        if (k + 1) % 3 == 0:
            kets = p.to_schroedinger_frame(ens.kets, (k + 1) * p.dt)
            frame = WeightedEnsemble(ens.weights, kets, ens.cutoff)
            assert np.array_equal(out[(k + 1) // 3], reconstruct_density(frame))


def _hand_picard(cfg):
    """The Picard iteration written out with frozen_field_step, no integrate."""
    p, steps = cfg.params, cfg.steps
    incr = sample_wiener_batch(p.n_channels, steps, p.dt, cfg.seed, cfg.trajectories)
    eta = np.broadcast_to(cfg.rho0, (steps + 1, p.dim, p.dim)).copy()
    distances, max_var = [], 0.0
    for _ in range(cfg.picard_max_iter):
        x = np.broadcast_to(cfg.rho0, (cfg.trajectories, p.dim, p.dim)).copy()
        new = np.empty_like(eta)
        new[0] = x.mean(axis=0)
        max_var = 0.0
        for k in range(steps):
            x = frozen_field_step(x, eta[k], cfg, incr[:, k, :], k * p.dt)
            samples = x
            if cfg.mode == "linear":
                samples = x / np.einsum("mii->m", x).real[:, None, None]
            new[k + 1] = samples.mean(axis=0)
            spread = samples - new[k + 1]
            max_var = max(max_var, float(np.mean(spread.real**2 + spread.imag**2, axis=0).sum()))
        distances.append(float(hs_norm(new - eta).max()))
        eta = new
        if distances[-1] <= cfg.picard_tol:
            break
    return eta, distances, float(np.sqrt(max_var / cfg.trajectories))


@pytest.mark.parametrize("mode", ["normalized", "linear"])
def test_picard_solver_is_bitwise_the_hand_loop(mode):
    p = SMEParams(0.3 * SIGMA_X, SIGMA_Z[None], 1e-3)
    if mode == "normalized":
        imap = InteractionMap.from_potential(np.array([[2.0, -2.0], [-2.0, 2.0]]))
    else:
        kernel = hermiticity_preserving_kernel(2, np.random.default_rng(8), strength=2.0)
        imap = InteractionMap.from_kernel(kernel)
    rho0 = np.array([[0.65, 0.15], [0.15, 0.35]])
    cfg = MeanFieldConfig(p, imap, rho0, 40, 0.05, picard_max_iter=4, picard_tol=1e-9,
                          mode=mode, seed=11)
    rep = mckean_vlasov_solve(cfg)
    path, distances, noise_floor = _hand_picard(cfg)
    assert len(distances) > 2
    assert np.array_equal(rep.mean_field_path, path)
    assert rep.iteration_distances == distances
    assert rep.noise_floor == noise_floor

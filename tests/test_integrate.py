import numpy as np
import pytest

from qsme.ensemble import (
    WeightedEnsemble,
    decompose_state,
    ensemble_step,
    reconstruct_density,
    run_ensemble,
)
from qsme.integrate import integrate
from qsme.linalg import SIGMA_X, SIGMA_Z
from qsme.master import SMEParams, nonlinear_sme_step, run_nonlinear_sme
from qsme.noise import sample_wiener_batch


def test_checkpoints_observe_every_stride_from_zero():
    out = integrate(lambda x, k: x + 1.0, np.zeros(2), 6, 2, lambda x, k: x * 10.0 + k)
    assert out.shape == (4, 2)
    assert np.array_equal(out[:, 0], [0.0, 22.0, 44.0, 66.0])
    with pytest.raises(ValueError, match="multiple of checkpoint_stride"):
        integrate(lambda x, k: x, np.zeros(2), 7, 2, lambda x, k: x)


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

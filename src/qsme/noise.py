"""Multichannel Wiener increments and Brownian coarsening.

Increments (not cumulative paths) are the canonical representation: the SDE
steppers consume increments directly and cumulative sums lose precision.

Reproducibility: paths are drawn from numpy's PCG64 generator (ziggurat
normal sampling), which is stream-stable for a fixed numpy version on a given
platform.  Trajectory ``k`` of a run seeded with ``seed`` is row ``k`` of
its batch and uses the counter-derived child
``SeedSequence(entropy=seed, spawn_key=(k,))``, so disjoint trajectories
never share a stream, a batch is a prefix of every larger batch of the same
seed, and the same (seed, k) always reproduces the same path, which is what
the common-random-numbers reuse in the mean-field Picard loop relies on.
"""

from __future__ import annotations

import numpy as np


def trajectory_seed(seed: int, index: int = 0) -> np.random.SeedSequence:
    """Child seed sequence for one trajectory of a seeded run."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def sample_wiener_batch(n_channels: int, step_count: int, dt: float, seed: int, n_traj: int) -> np.ndarray:
    """Stack of ``n_traj`` per-trajectory paths, shape (n_traj, step_count, n_channels).

    Row ``m`` holds i.i.d. Normal(0, dt) increments drawn from the generator
    of ``trajectory_seed(seed, m)`` alone, so a smaller batch is bitwise a
    prefix of a larger one.
    """
    if n_channels < 1 or step_count < 1:
        raise ValueError("n_channels and step_count must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    out = np.empty((n_traj, step_count, n_channels))
    scale = np.sqrt(dt)
    for m in range(n_traj):
        rng = np.random.default_rng(trajectory_seed(seed, m))
        out[m] = rng.normal(0.0, scale, size=(step_count, n_channels))
    return out


def coarsen_increments(increments: np.ndarray, factor: int) -> np.ndarray:
    """Aggregate consecutive fine increments into coarse ones (Brownian refinement).

    Used to couple simulations across step sizes: the coarse path at dt*factor
    is the same Brownian motion as the fine path at dt.
    """
    steps = increments.shape[-2]
    if steps % factor:
        raise ValueError(f"step count {steps} not divisible by {factor}")
    shape = increments.shape[:-2] + (steps // factor, factor) + increments.shape[-1:]
    return increments.reshape(shape).sum(axis=-2)


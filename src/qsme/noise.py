"""Multichannel Wiener paths, Brownian coarsening, and output/innovation conversions.

Increments (not cumulative paths) are the canonical representation: the SDE
steppers consume increments directly and cumulative sums lose precision.

Reproducibility: paths are drawn from numpy's PCG64 generator (ziggurat
normal sampling), which is stream-stable for a fixed numpy version on a given
platform.  Trajectory ``k`` of a run seeded with ``seed`` uses the
counter-derived child ``SeedSequence(entropy=seed, spawn_key=(k,))``, so
disjoint trajectories never share a stream and the same (seed, k) always
reproduces the same path, which is what the common-random-numbers reuse in
the mean-field Picard loop relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def trajectory_seed(seed: int, index: int = 0) -> np.random.SeedSequence:
    """Child seed sequence for one trajectory of a seeded run."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def trajectory_rng(seed: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(trajectory_seed(seed, index))


@dataclass
class WienerPath:
    """Increments of an n-channel Wiener process on a uniform grid."""

    n_channels: int
    step_count: int
    dt: float
    increments: np.ndarray  # (step_count, n_channels), each entry ~ Normal(0, dt)
    seed: int
    trajectory: int = 0

    def __post_init__(self):
        self.increments = np.asarray(self.increments, dtype=float)
        if self.increments.shape != (self.step_count, self.n_channels):
            raise ValueError(
                f"increments shape {self.increments.shape} != ({self.step_count}, {self.n_channels})"
            )

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.step_count + 1)


def sample_wiener(
    n_channels: int, step_count: int, dt: float, seed: int, trajectory: int = 0
) -> WienerPath:
    """Draw a reproducible n-channel Wiener path with i.i.d. Normal(0, dt) increments."""
    if n_channels < 1 or step_count < 1:
        raise ValueError("n_channels and step_count must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    rng = trajectory_rng(seed, trajectory)
    incr = rng.normal(0.0, np.sqrt(dt), size=(step_count, n_channels))
    return WienerPath(n_channels, step_count, dt, incr, seed, trajectory)


def sample_wiener_batch(
    n_channels: int, step_count: int, dt: float, seed: int, n_traj: int, offset: int = 0
) -> np.ndarray:
    """Stack of ``n_traj`` per-trajectory paths, shape (n_traj, step_count, n_channels).

    Row ``m`` is bitwise-identical to
    ``sample_wiener(..., trajectory=offset + m).increments``.
    """
    out = np.empty((n_traj, step_count, n_channels))
    scale = np.sqrt(dt)
    for m in range(n_traj):
        rng = trajectory_rng(seed, offset + m)
        out[m] = rng.normal(0.0, scale, size=(step_count, n_channels))
    return out


def convert_noise(
    direction: str, increments: np.ndarray, compensators: np.ndarray, dt: float
) -> np.ndarray:
    """Convert between output and innovation increments.

    ``output_to_innovation``:  dB = dY - compensator * dt
    ``innovation_to_output``:  dY = dB + compensator * dt

    The caller supplies the compensator evaluated at its own state convention
    (2<L_Sj> for pure states, tr(L_j rho + rho L_j*) for mixed states).
    The two directions are algebraic inverses; in floating point the round
    trip agrees to the last unit in the last place.
    """
    increments = np.asarray(increments, dtype=float)
    compensators = np.asarray(compensators, dtype=float)
    if increments.shape != compensators.shape:
        raise ValueError(
            f"increment/compensator length mismatch: {increments.shape} vs {compensators.shape}"
        )
    delta = compensators * dt
    if direction == "output_to_innovation":
        return increments - delta
    if direction == "innovation_to_output":
        return increments + delta
    raise ValueError(f"unknown direction {direction!r}")


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


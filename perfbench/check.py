"""Output checks for one benchmark repetition; run outside the timed region.

SME and ensemble workloads: the Monte Carlo mean of every observable must sit
within ``Z_MAX`` standard errors of the noise-free path at every checkpoint.
That path is the same scenario run through ``run_linear_sme`` with zero
increments.  The innovation term has zero mean and the Euler drift is linear,
so for the SME engines this is exactly E[rho_k] of the Euler scheme in either
picture.  The ensemble engine evolves unnormalized kets and normalizes at
read-out, so its mean differs from that path by an O(dt) weak error: about
0.2 standard errors a quarter of the way through ``ensemble_csv`` and 0.65 at
its end, at M=10^4.  The path itself is checked to converge to the RK4
Lindblad solution at first order in dt, and an ``identity`` observable must
read 1.

Mean-field workload: the Picard iteration must converge and every value must
be finite.
"""

from __future__ import annotations

import numpy as np

from qsme.master import SMEParams, deterministic_lindblad_path, run_linear_sme

# One run tests up to ~200 checkpoints, and every repetition of a seed sees
# the same noise, so a false alarm fails the whole run.  At 4 standard errors
# that happened on about 1 seed in 100 of ensemble_csv (seed 169: z = 4.42);
# 6 keeps it below 1e-6 per run (Bonferroni: 200 * P(|Z| > 6) = 4e-7) even
# after the ensemble engine's weak error, and still flags a mean moved by 10.
Z_MAX = 6.0
# Absolute slack for checkpoints where the standard error is zero (t = 0).
ATOL = 1e-9
# Euler is first order: halving dt must shrink the gap to RK4 to about one
# half; 0.6 leaves room for the second-order remainder.
FIRST_ORDER_RATIO = 0.6
IDENTITY_TOL = 1e-10


def _expectations(states: np.ndarray, op: np.ndarray) -> np.ndarray:
    return np.einsum("ij,kji->k", op, states).real


def noise_free_states(sc, dt: float | None = None) -> np.ndarray:
    """E[rho_k] of the Euler scheme at every step of ``dt`` (default: the scenario's)."""
    dt = sc.dt if dt is None else dt
    steps = round(sc.horizon / dt)
    p = SMEParams(sc.h, sc.ls, dt, sc.picture)
    return run_linear_sme(sc.rho0, p, np.zeros((steps, sc.ls.shape[0])))


def reference_means(sc) -> dict[str, np.ndarray]:
    """Noise-free expectation of every output at its checkpoints."""
    states = noise_free_states(sc)
    return {label: _expectations(states[::stride], op) for label, op, stride in sc.outputs}


def first_order_problems(sc) -> list[str]:
    """The noise-free Euler path must approach the RK4 Lindblad path at rate dt."""
    full = noise_free_states(sc)
    half = noise_free_states(sc, sc.dt / 2)[::2]
    # RK4 at a quarter of dt is exact to well below the Euler gap.
    rk4 = deterministic_lindblad_path(
        sc.rho0, SMEParams(sc.h, sc.ls, sc.dt, "schroedinger"), sc.horizon,
        steps=4 * sc.steps, checkpoint_stride=4,
    )
    problems = []
    for label, op, _ in sc.outputs:
        exact = _expectations(rk4, op)
        gap_full = float(np.max(np.abs(_expectations(full, op) - exact)))
        gap_half = float(np.max(np.abs(_expectations(half, op) - exact)))
        if not gap_half <= FIRST_ORDER_RATIO * gap_full + ATOL:
            problems.append(
                f"{label}: Euler gap to RK4 went {gap_full:.3e} -> {gap_half:.3e} when dt was halved"
            )
    return problems


def summary_problems(sc, summary: dict, reference: dict[str, np.ndarray] | None) -> tuple[list[str], float]:
    """Problems found in one run's summary JSON, and the largest z seen.

    ``reference`` is ``reference_means(sc)``; pass None for the mean-field
    engine, which is checked for convergence and finiteness instead.
    """
    problems: list[str] = []
    z_max = 0.0
    for label, op, _ in sc.outputs:
        obs = summary["observables"][label]
        mean = np.asarray(obs["mean"], dtype=float)
        stderr = np.asarray(obs["stderr"], dtype=float)
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(stderr))):
            problems.append(f"{label}: non-finite mean or stderr")
            continue
        if np.allclose(op, np.eye(op.shape[0])) and np.max(np.abs(mean - 1.0)) > IDENTITY_TOL:
            problems.append(f"{label}: identity observable deviates from 1 by {np.max(np.abs(mean - 1.0)):.3e}")
        if reference is None:
            continue
        ref = reference[label]
        if mean.shape != ref.shape:
            problems.append(f"{label}: {mean.size} checkpoints, expected {ref.size}")
            continue
        gap = np.abs(mean - ref)
        if np.any(gap > Z_MAX * stderr + ATOL):
            k = int(np.argmax(gap - Z_MAX * stderr))
            problems.append(
                f"{label}: Monte Carlo mean {mean[k]:.6g} vs noise-free {ref[k]:.6g} at checkpoint {k} "
                f"(gap {gap[k]:.3e}, stderr {stderr[k]:.3e})"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(gap > ATOL, gap / stderr, 0.0)
        z_max = max(z_max, float(np.max(z)))
    if sc.engine == "meanfield":
        picard = summary["engine_details"]["picard"]
        if not picard["converged"]:
            problems.append("Picard iteration did not converge")
        if not np.all(np.isfinite(picard["iteration_distances"])):
            problems.append("non-finite Picard distance")
        if not np.all(np.isfinite(np.asarray(picard["mean_field_path"], dtype=float))):
            problems.append("non-finite mean-field path")
    if not np.all(np.isfinite(np.asarray(summary["final_state_mean"], dtype=float))):
        problems.append("non-finite final state mean")
    return problems, z_max

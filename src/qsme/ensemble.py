"""Weighted pure-state ensemble representation of the normalized master equation.

A mixed initial state is expanded spectrally into weighted kets that all ride
the same innovation increments and the same scalar feedback pi(t).  Each ket
obeys the *linear* pure-state dynamics driven by dB + pi dt, weights never
change, and kets are never renormalized: their norms carry the likelihood
information that the reconstruction quotient consumes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import TrajectoryAbort
from .integrate import integrate, replicate
from .linalg import hermitianize
from .pure import PureFilterParams, apply_stacked, linear_pure_step, stacked_transpose

logger = logging.getLogger(__name__)

DEFAULT_RANK_TOL = 1e-12


@dataclass
class WeightedEnsemble:
    """Weights {p_k} plus kets {e_k} sharing one noise path."""

    weights: np.ndarray  # (rank,), nonincreasing, summing to 1
    kets: np.ndarray  # (rank, d)
    cutoff: int  # retained rank
    dropped_mass: float = 0.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.kets = np.asarray(self.kets, dtype=complex)
        if self.weights.ndim != 1 or self.kets.ndim != 2 or self.kets.shape[0] != self.weights.size:
            raise ValueError("weights and kets are inconsistent")
        if np.any(self.weights < 0.0) or np.any(np.diff(self.weights) > 0.0):
            raise ValueError("weights must be nonnegative and nonincreasing")
        if abs(self.weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must sum to 1")
        if self.mass() <= 0.0:
            raise ValueError("ensemble has vanishing weighted norm")

    @property
    def dim(self) -> int:
        return self.kets.shape[1]

    def mass(self) -> float:
        """The weighted squared norm sum_k p_k ||e_k||^2."""
        return float(np.sum(self.weights * np.sum(np.abs(self.kets) ** 2, axis=-1)))


def decompose_state(rho0: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> WeightedEnsemble:
    """Spectral expansion rho0 = sum_k p_k e_k (x) conj(e_k), largest weights first.

    Eigenvalues below ``rank_tol`` are dropped and the remaining weights
    renormalized; the dropped mass is logged and kept on the ensemble.
    """
    rho0 = hermitianize(np.asarray(rho0, dtype=complex))
    w, v = np.linalg.eigh(rho0)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    keep = w > rank_tol
    dropped = float(np.sum(w[~keep]))
    w = w[keep]
    if w.size == 0:
        raise ValueError("state has no spectral weight above rank_tol")
    if dropped:
        logger.info("decompose_state dropped %d terms with mass %.3e", int(np.sum(~keep)), dropped)
    return WeightedEnsemble(w / w.sum(), v[:, keep].T.copy(), cutoff=int(w.size), dropped_mass=dropped)


def _feedback(kets: np.ndarray, weights: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """pi_j = sum_k p_k (e_k, (L_j + L_j†) e_k) / sum_k p_k ||e_k||^2, batched (..., n).

    L_j e_k for every channel and ket comes from one GEMM.
    """
    lk = apply_stacked(stacked_transpose(ls), kets)  # (..., k, n, d)
    sym = np.einsum("...ki,...kni->...kn", np.conj(kets), lk).real
    num = 2.0 * np.einsum("k,...kn->...n", weights, sym)
    den = np.einsum("k,...ki->...", weights, np.abs(kets) ** 2)
    if np.any(den <= 0.0):
        raise TrajectoryAbort("ensemble weighted norm vanished")
    return num / den[..., None]


def shared_feedback(ens: WeightedEnsemble, ls: np.ndarray) -> np.ndarray:
    """The common feedback vector pi for one ensemble, shape (n,)."""
    return _feedback(ens.kets, ens.weights, np.asarray(ls, dtype=complex))


def _kick_kets(
    kets: np.ndarray, weights: np.ndarray, p: PureFilterParams, db: np.ndarray, t: float
) -> np.ndarray:
    """Advance all kets one step with shared noise and feedback frozen at the start state."""
    ls_t = p.channel_ops(t)
    pi = _feedback(kets, weights, ls_t)
    dy = db + pi * p.dt
    return linear_pure_step(kets, p, dy[..., None, :], t)


def ensemble_step(
    ens: WeightedEnsemble, p: PureFilterParams, db: np.ndarray, t: float = 0.0
) -> WeightedEnsemble:
    """One Euler update: de_k = (-iH e_k - (1/2) L†L e_k) dt + L e_k [dB + pi dt].

    Every ket receives the same dB and the same pi (computed once from the
    step's start state); weights are unchanged.
    """
    kets = _kick_kets(ens.kets, ens.weights, p, np.asarray(db, dtype=float), t)
    return WeightedEnsemble(ens.weights, kets, ens.cutoff, ens.dropped_mass)


def reconstruct_density(ens: WeightedEnsemble) -> np.ndarray:
    """rho = sum_k p_k e_k (x) conj(e_k) / sum_k p_k ||e_k||^2; unit trace by construction."""
    return _reconstruct(ens.kets, ens.weights)


def _reconstruct(kets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    den = np.einsum("k,...ki->...", weights, np.abs(kets) ** 2)
    if np.any(den <= 0.0):
        raise TrajectoryAbort("ensemble weighted norm vanished")
    rho = np.einsum("k,...ki,...kj->...ij", weights, kets, np.conj(kets))
    return hermitianize(rho / den[..., None, None])


def run_ensemble(
    ens0: WeightedEnsemble,
    p: PureFilterParams,
    increments: np.ndarray,
    checkpoint_stride: int = 1,
    return_kets: bool = False,
):
    """Drive an ensemble along innovation increments; densities at checkpoints.

    ``increments`` has shape (..., steps, n); the same batch of increments
    drives every ket.  Returns reconstructed Schroedinger-frame densities of
    shape (K+1, ..., d, d); with ``return_kets`` also the raw (unnormalized)
    kets at checkpoints, shape (K+1, ..., rank, d).
    """
    increments = np.asarray(increments, dtype=float)
    weights = ens0.weights

    def step(kets, k):
        return _kick_kets(kets, weights, p, increments[..., k, :], k * p.dt)

    def observe(kets, k):
        frame = p.to_schroedinger_frame(kets, k * p.dt)
        return frame if return_kets else _reconstruct(frame, weights)

    kets0 = replicate(ens0.kets, increments.shape[:-2])
    out = integrate(step, kets0, increments.shape[-2], checkpoint_stride, observe)
    return (_reconstruct(out, weights), out) if return_kets else out

"""Weighted pure-state ensemble representation of the normalized master equation.

A mixed initial state is expanded spectrally into weighted kets that all ride
the same innovation increments and the same scalar feedback pi(t).  Each ket
obeys the *linear* pure-state dynamics driven by dB + pi dt, weights never
change, and kets are never renormalized: their norms carry the likelihood
information that the reconstruction quotient consumes.  At rank one the
feedback is pi = 2 Re<e|L e> / ||e||^2, so a one-ket ensemble is the linear
pure-state filter driven by innovations, dY = dB + 2 a dt.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import TrajectoryAbort
from .integrate import drive
from .linalg import dag, hermitianize
from .pure import PureFilterParams, linear_pure_step, row_blocks

logger = logging.getLogger(__name__)

RANK_TOL = 1e-12  # eigenvalues of rho0 at or below this are dropped


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
        if _mass(self.kets, self.weights) <= 0.0:
            raise ValueError("ensemble has vanishing weighted norm")


def decompose_state(rho0: np.ndarray) -> WeightedEnsemble:
    """Spectral expansion rho0 = sum_k p_k e_k (x) conj(e_k), largest weights first.

    Eigenvalues at or below ``RANK_TOL`` are dropped and the remaining weights
    renormalized; the dropped mass is logged and kept on the ensemble.
    """
    rho0 = hermitianize(np.asarray(rho0, dtype=complex))
    w, v = np.linalg.eigh(rho0)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    keep = w > RANK_TOL
    dropped = float(np.sum(w[~keep]))
    w = w[keep]
    if w.size == 0:
        raise ValueError(f"state has no spectral weight above {RANK_TOL}")
    if dropped:
        logger.info("decompose_state dropped %d terms with mass %.3e", int(np.sum(~keep)), dropped)
    return WeightedEnsemble(w / w.sum(), v[:, keep].T.copy(), cutoff=int(w.size), dropped_mass=dropped)


def _trajectory_blocks(kets: np.ndarray) -> list:
    """``row_blocks`` over the trajectories of kets (..., k, d), whole ensembles per block.

    A trajectory counts as max(k, d) d complex entries, the larger of its
    kets and its density, so a block of kets, of their images under one
    operator or of their densities exceeds ``BLOCK_BYTES`` only where two
    trajectories do.
    """
    k, d = kets.shape[-2:]
    return row_blocks(kets.shape[:-2], 16 * max(k, d) * d)


def _weighted_dots(x: np.ndarray, kets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k p_k Re(x_k, e_k) for x and kets of shape (..., k, d): shape (...).

    On real views (real and imaginary parts interleaved) Re(x_k, e_k) is a
    plain dot product, so this is one two-operand real contraction and a GEMV.
    """
    xr, kr = (np.ascontiguousarray(z).view(float) for z in (x, kets))
    return np.einsum("...ki,...ki->...k", xr, kr) @ weights


def _mass(kets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k p_k ||e_k||^2 for kets (..., k, d): shape (...), a block of trajectories at a time.

    ``_weighted_forms`` of A = I by the same contraction, so an identity
    observable reads exactly 1.
    """
    out = np.empty(kets.shape[:-2])
    for blk in _trajectory_blocks(kets):
        out[blk] = _weighted_dots(kets[blk], kets[blk], weights)
    return out


def _weighted_forms(kets: np.ndarray, weights: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_k p_k Re(e_k, A_j e_k) for kets (..., k, d) and operators A_j (n, d, d): shape (..., n).

    A block of trajectories at a time and per operator, A_j e_k for every
    ket of the block is one GEMM; the images of one block under one operator
    are all that is held.
    """
    out = np.empty(kets.shape[:-2] + (len(ops),))
    for blk in _trajectory_blocks(kets):
        block, forms = kets[blk], out[blk]
        flat = block.reshape(-1, block.shape[-1])
        for j, a in enumerate(ops):
            forms[..., j] = _weighted_dots((flat @ a.T).reshape(block.shape), block, weights)
    return out


def _weighted_mass(kets: np.ndarray, weights: np.ndarray, step: int | None = None) -> np.ndarray:
    """sum_k p_k ||e_k||^2 per trajectory, shape (...); aborts where it is not positive."""
    den = _mass(kets, weights)
    TrajectoryAbort.unless(den > 0.0, "ensemble weighted norm vanished", step)
    return den


def _feedback(kets: np.ndarray, weights: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """pi_j = sum_k p_k (e_k, (L_j + L_j†) e_k) / sum_k p_k ||e_k||^2, batched (..., n)."""
    num = 2.0 * _weighted_forms(kets, weights, ls)
    return num / _weighted_mass(kets, weights)[..., None]


def _kick_kets(
    kets: np.ndarray, weights: np.ndarray, p: PureFilterParams, db: np.ndarray, t: float
) -> np.ndarray:
    """Advance all kets one step with shared noise and feedback frozen at the start state.

    A vanished weighted norm aborts without a step index; ``integrate`` adds it.
    """
    ls_t = p.channel_ops(t)
    pi = _feedback(kets, weights, ls_t)
    dy = db + pi * p.dt
    return linear_pure_step(kets, p, dy[..., None, :], t)


def weighted_density(kets: np.ndarray, weights: np.ndarray, step: int | None = None) -> np.ndarray:
    """The density of every trajectory's weighted kets (..., rank, d): shape (..., d, d).

    Each block of trajectories is built, divided by its weighted norms and
    symmetrized in place in its rows of the one output array.
    """
    den = _weighted_mass(kets, weights, step)
    rho = np.empty(kets.shape[:-2] + 2 * kets.shape[-1:], dtype=complex)
    for blk in _trajectory_blocks(kets):
        block, out = kets[blk], rho[blk]
        np.matmul(np.swapaxes(weights[:, None] * block, -1, -2), np.conj(block), out=out)
        out /= den[blk][..., None, None]
        out += dag(out)  # dag makes a fresh array: A + A†, then / 2, as ``hermitianize`` forms it
        np.multiply(0.5, out, out=out)
    return rho


def weighted_expectations(kets: np.ndarray, weights: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """tr(O rho) for every O of the stack ``ops`` (n_obs, d, d), straight from the kets.

    sum_k p_k Re(e_k, O e_k) / sum_k p_k ||e_k||^2; no density is formed.
    Returns shape (n_obs, ...).  A vanished weighted norm gives non-finite
    values rather than an abort, for the caller to locate.
    """
    d = kets.shape[-1]
    ops = np.asarray(ops, dtype=complex).reshape(-1, d, d)
    return np.moveaxis(_weighted_forms(kets, weights, ops) / _mass(kets, weights)[..., None], -1, 0)


def run_ensemble(
    ens0: WeightedEnsemble,
    p: PureFilterParams,
    increments: np.ndarray,
    checkpoint_stride: int = 1,
    reduce=None,
):
    """Drive an ensemble along innovation increments; densities at checkpoints.

    ``increments`` has shape (..., steps, n); the same batch of increments
    drives every ket.  Returns reconstructed Schroedinger-frame densities of
    shape (K+1, ..., d, d).  A per-checkpoint ``reduce(kets, k)`` receives the
    raw (unnormalized) Schroedinger-frame kets, shape (..., rank, d), and its
    results are stored instead.  A trajectory whose weighted norm is not
    positive aborts with the step and the trajectory.
    """
    weights = ens0.weights
    if reduce is None:
        def reduce(kets, k):
            return weighted_density(kets, weights, k)

    def step(kets, p, db, t):
        return _kick_kets(kets, weights, p, db, t)

    return drive(step, ens0.kets, p.to_schroedinger_frame, p, increments, checkpoint_stride, reduce)

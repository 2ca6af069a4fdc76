"""Reference implementations that the tests check the package against.

None of these is on a path that ``qsme simulate``, ``qsme check`` or the
acceptance criteria run: ``evolution_factor`` and ``dress`` are the direct
matrix-exponential form of ``Propagator``; ``ensemble_step``,
``shared_feedback`` and ``reconstruct_density`` drive one unbatched
``WeightedEnsemble`` through the same helpers as ``run_ensemble``; and
``hermiticity_preserving_kernel`` draws random ``hs_kernel`` interactions.
"""

from __future__ import annotations

import numpy as np

from qsme.ensemble import WeightedEnsemble, _feedback, _kick_kets, weighted_density
from qsme.linalg import dag, hermitian_spectrum, operator_norm
from qsme.pure import PureFilterParams


def evolution_factor(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-iHt) via spectral decomposition of the Hermitian H."""
    w, v = hermitian_spectrum(h)
    return (v * np.exp(-1j * w * t)) @ dag(v)


def dress(l: np.ndarray, h: np.ndarray, t: float) -> np.ndarray:
    """Conjugate a coupling operator into the interaction picture: exp(iHt) L exp(-iHt)."""
    if l.shape[-1] != h.shape[-1]:
        raise ValueError(f"dimension mismatch: {l.shape} vs {h.shape}")
    u = evolution_factor(h, t)
    return dag(u) @ l @ u


def shared_feedback(ens: WeightedEnsemble, ls: np.ndarray) -> np.ndarray:
    """The common feedback vector pi for one ensemble, shape (n,)."""
    return _feedback(ens.kets, ens.weights, np.asarray(ls, dtype=complex))


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
    return weighted_density(ens.kets, ens.weights)


def hermiticity_preserving_kernel(
    dim: int, rng: np.random.Generator, terms: int = 3, strength: float | None = None
) -> np.ndarray:
    """Random dim^2 x dim^2 kernel that maps Hermitian matrices to Hermitian matrices.

    Built as a real combination of maps nu -> M nu + nu M†, optionally scaled
    to a requested Hilbert-Schmidt operator norm.
    """
    eye = np.eye(dim)
    kernel = np.zeros((dim * dim, dim * dim), dtype=complex)
    for _ in range(terms):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        kernel += np.kron(m, eye) + np.kron(eye, np.conj(m))
    if strength is not None:
        kernel *= strength / operator_norm(kernel)
    return kernel

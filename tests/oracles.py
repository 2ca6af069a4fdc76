"""Reference implementations that the tests check the package against.

None of these is on a path that ``qsme simulate``, ``qsme check`` or the
acceptance criteria run: ``evolution_factor`` and ``dress`` are the direct
matrix-exponential form of ``Propagator``; ``ensemble_step``,
``shared_feedback`` and ``reconstruct_density`` drive one unbatched
``WeightedEnsemble`` through the same helpers as ``run_ensemble``; and
``hermiticity_preserving_kernel`` draws random ``hs_kernel`` interactions.
``direct_nonlinear_pure_step``, ``direct_nonlinear_sme_step`` and
``direct_innovation_output`` are the normalized steppers and the output that
drives the innovation-driven linear ket filter, written out as their own
drift and noise formulas; the package computes the steppers as the linear
step plus a compensator correction and runs that filter as the rank-one
ensemble, whose feedback is the output's drift.  ``direct_linear_sme_step``
is the linear density step by channel-wise einsum contractions; the package
takes every L_j gamma from one GEMM and builds the step from those products.
``random_ket`` draws the random kets the tests start from, and
``traced_peak`` measures what a call allocates.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from qsme.ensemble import WeightedEnsemble, _feedback, _kick_kets, weighted_density
from qsme.errors import TraceDeviation
from qsme.linalg import dag, hermitian_spectrum, hermitianize, operator_norm
from qsme.master import STEP_TRACE_TOL, SMEParams, lindblad_generator, output_compensators
from qsme.pure import PureFilterParams


def random_ket(d: int, rng: np.random.Generator, unit: bool = True) -> np.ndarray:
    """Complex Gaussian ket of dimension ``d``, normalized unless ``unit`` is False."""
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    return x / np.linalg.norm(x) if unit else x


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


def _channel_mv(ls: np.ndarray, x: np.ndarray) -> np.ndarray:
    """All channel operators applied to a batched vector, result (n, ..., d)."""
    return np.einsum("nij,...j->n...i", ls, x)


def _symmetric_expectations(ls_sym: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """<L_Sj> for every channel, shape (..., n); real by hermiticity."""
    nrm2 = np.sum(np.abs(phi) ** 2, axis=-1)
    vals = np.einsum("...i,nij,...j->...n", np.conj(phi), ls_sym, phi).real
    return vals / nrm2[..., None]


def direct_nonlinear_pure_step(
    phi: np.ndarray,
    p: PureFilterParams,
    db: np.ndarray,
    t: float = 0.0,
    renormalize: bool = True,
) -> np.ndarray:
    """One Euler update of the trace-preserving nonlinear filtering equation.

    d phi = -[i(H - sum_j <L_Sj> L_Aj) + (1/2) sum_j (L_j - <L_Sj>)†(L_j - <L_Sj>)] phi dt
            + sum_j (L_j - <L_Sj>) phi dB_j,

    with <L_Sj> the normalized expectation of the symmetric part of L_j.
    """
    phi = np.asarray(phi, dtype=complex)
    if np.any(np.sum(np.abs(phi) ** 2, axis=-1) == 0.0):
        raise ValueError("nonlinear step undefined for the zero vector")
    db = np.asarray(db, dtype=float)
    ls_t = p.channel_ops(t)
    ls_sym = 0.5 * (ls_t + dag(ls_t))
    ls_asym = (ls_t - dag(ls_t)) / 2j
    a = _symmetric_expectations(ls_sym, phi)  # (..., n)

    shifted = _channel_mv(ls_t, phi) - np.moveaxis(a, -1, 0)[..., None] * phi  # (n, ..., d)
    quad = np.einsum("nji,n...j->n...i", np.conj(ls_t), shifted) - (
        np.moveaxis(a, -1, 0)[..., None] * shifted
    )
    drift = -0.5 * quad.sum(axis=0)
    drift = drift + 1j * np.einsum("n...i,...n->...i", _channel_mv(ls_asym, phi), a)
    if p.picture == "schroedinger":
        drift = drift - 1j * np.einsum("ij,...j->...i", p.h, phi)
    noise = np.einsum("n...i,...n->...i", shifted, db)

    out = phi + p.dt * drift + noise
    if renormalize:
        out = out / np.linalg.norm(out, axis=-1, keepdims=True)
    return out


def direct_innovation_output(chi: np.ndarray, p: PureFilterParams, db: np.ndarray, t: float) -> np.ndarray:
    """dY_j = dB_j + <L_j + L_j†> dt, the output that drives the linear ket filter under innovations."""
    ls_t = p.channel_ops(t)
    return db + 2.0 * _symmetric_expectations(0.5 * (ls_t + dag(ls_t)), chi) * p.dt


def nonlinear_sme_rhs(
    rho: np.ndarray, p: SMEParams, t: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Drift and per-channel noise coefficients of the normalized equation at rho."""
    ls_t = p.channel_ops(t)
    drift = lindblad_generator(rho, ls_t)
    if p.picture == "schroedinger":
        drift = drift - 1j * (p.h @ rho - rho @ p.h)
    lx = np.einsum("nij,...jk->n...ik", ls_t, rho)
    coef = lx + dag(lx)
    m = output_compensators(rho, ls_t)
    coef = coef - np.moveaxis(m, -1, 0)[..., None, None] * rho
    return drift, coef


def direct_nonlinear_sme_step(
    rho: np.ndarray, p: SMEParams, db: np.ndarray, t: float = 0.0
) -> np.ndarray:
    """One Euler update of the normalized (nonlinear) stochastic master equation.

    d rho = -i[H, rho] dt + Dissipator(rho) dt
            + sum_j [L_j rho + rho L_j† - rho tr(L_j rho + rho L_j†)] dB_j.
    """
    rho = np.asarray(rho, dtype=complex)
    ok = np.abs(np.einsum("...ii->...", rho).real - 1.0) <= STEP_TRACE_TOL  # False for NaN
    TraceDeviation.unless(ok, f"input trace deviates from 1 beyond {STEP_TRACE_TOL}")
    db = np.asarray(db, dtype=float)
    drift, coef = nonlinear_sme_rhs(rho, p, t)
    noise = np.einsum("n...ij,...n->...ij", coef, db)
    return hermitianize(rho + p.dt * drift + noise)


def direct_linear_sme_step(
    gamma: np.ndarray, p: SMEParams, dy: np.ndarray, t: float = 0.0
) -> np.ndarray:
    """One Euler update of the linear stochastic master equation, by einsum.

    gamma + dt (-i[H, gamma] + Dissipator(gamma)) + sum_j (L_j gamma + gamma L_j†) dY_j,
    then symmetrized; the commutator is dropped and the channels dressed in
    the interaction picture.
    """
    gamma = np.asarray(gamma, dtype=complex)
    dy = np.asarray(dy, dtype=float)
    ls_t = p.channel_ops(t)
    drift = lindblad_generator(gamma, ls_t)
    if p.picture == "schroedinger":
        drift = drift - 1j * (p.h @ gamma - gamma @ p.h)
    lx = np.einsum("nij,...jk->n...ik", ls_t, gamma)
    noise = np.einsum("n...ij,...n->...ij", lx + dag(lx), dy)
    return hermitianize(gamma + p.dt * drift + noise)


def traced_peak(f):
    """f() and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        out = f()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

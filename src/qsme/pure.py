"""Euler-Maruyama stepping for the pure-state filtering equations.

Two equivalent descriptions are implemented:

* the linear equation for an unnormalized state chi driven by the output
  process Y, whose squared norm carries the observation likelihood, and
* the trace-preserving nonlinear equation for the normalized state phi driven
  by the innovation process B.

The drift lives in one place, ``PureFilterParams.linear_step_matrix``: the
nonlinear step is the linear step at dY = dB + a dt, with the compensators
a_j = Re<phi|L_j phi> / ||phi||^2 of ``ket_compensators``, minus a term along
phi; the innovation-driven linear run feeds dY = dB + 2 a dt.

All steppers are pure functions of (state, params, increments) and broadcast
over leading batch axes, so Monte Carlo runs are vectorized over trajectories.
States evolved in the interaction picture are mapped back to the Schroedinger
frame whenever a driver records them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .integrate import integrate, keep_frame, replicate
from .linalg import Propagator, dag, require_hermitian

PICTURES = ("schroedinger", "interaction")


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix times batched vector: (d,d) @ (..., d)."""
    return np.einsum("ij,...j->...i", a, x)


def stacked_transpose(ops: np.ndarray) -> np.ndarray:
    """(k, d, d) -> (d, k d) with columns [A_1ᵀ | ... | A_kᵀ].

    A row ket x times this matrix is [A_1 x | ... | A_k x], so a batch of kets
    meets all k operators in one GEMM (see ``apply_stacked``).
    """
    return ops.transpose(2, 0, 1).reshape(ops.shape[-1], -1)


def _step_matrix(k: np.ndarray, ls: np.ndarray, dt: float) -> np.ndarray:
    """[(I + dt K)ᵀ | L_1ᵀ ... L_nᵀ], the linear pure step as one matrix."""
    return stacked_transpose(np.concatenate([(np.eye(k.shape[-1]) + dt * k)[None], ls]))


def apply_stacked(stacked: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Every operator of a ``stacked_transpose`` matrix applied to (..., d) kets: (..., k, d)."""
    d = x.shape[-1]
    return (x.reshape(-1, d) @ stacked).reshape(x.shape[:-1] + (-1, d))


@dataclass
class PureFilterParams:
    """Hamiltonian, coupling channels, step size and picture for the pure filters.

    ``ls`` is a stack of shape (n, d, d).  In the interaction picture the
    Hamiltonian term is dropped and every channel operator is dressed with
    exp(iHt) ... exp(-iHt) at each step, from a spectral decomposition of H
    built on first use.
    """

    h: np.ndarray
    ls: np.ndarray
    dt: float
    picture: str = "schroedinger"
    _damping: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.h = require_hermitian(np.asarray(self.h, dtype=complex), name="H")
        ls = np.asarray(self.ls, dtype=complex)
        if ls.ndim == 2:
            ls = ls[None]
        if ls.ndim != 3 or ls.shape[-1] != ls.shape[-2] or ls.shape[-1] != self.h.shape[-1]:
            raise ValueError(f"channel stack shape {ls.shape} incompatible with H {self.h.shape}")
        self.ls = ls
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.picture not in PICTURES:
            raise ValueError(f"picture must be one of {PICTURES}")
        self._damping = 0.5 * sum(dag(l) @ l for l in ls)

    @cached_property
    def _prop(self) -> Propagator:
        return Propagator(self.h)

    @cached_property
    def _linear_step_matrix(self) -> np.ndarray:
        return _step_matrix(-1j * self.h - self._damping, self.ls, self.dt)

    @property
    def dim(self) -> int:
        return self.h.shape[-1]

    @property
    def n_channels(self) -> int:
        return self.ls.shape[0]

    def channel_ops(self, t: float) -> np.ndarray:
        if self.picture == "schroedinger" or t == 0.0:
            return self.ls
        return self._prop.dress(self.ls, t)

    def damping(self, t: float) -> np.ndarray:
        """(1/2) sum_j L_j† L_j, dressed when in the interaction picture."""
        if self.picture == "schroedinger" or t == 0.0:
            return self._damping
        u = self._prop.factor(t)
        return dag(u) @ self._damping @ u

    def linear_step_matrix(self, t: float) -> np.ndarray:
        """[(I + dt K)ᵀ | L_1ᵀ ... L_nᵀ] at time ``t``, K = -iH - (1/2) sum_j L_j† L_j.

        Cached in the Schroedinger picture; in the interaction picture K drops
        -iH and both K and the channels are dressed at ``t``, rebuilt per call.
        """
        if self.picture == "schroedinger":
            return self._linear_step_matrix
        return _step_matrix(-self.damping(t), self.channel_ops(t), self.dt)

    def to_schroedinger_frame(self, state: np.ndarray, t: float) -> np.ndarray:
        """Map an interaction-picture ket back: chi = exp(-iHt) xi."""
        if self.picture == "schroedinger" or t == 0.0:
            return state
        return _mv(self._prop.factor(t), state)


def expectation(op: np.ndarray, phi: np.ndarray) -> complex | np.ndarray:
    """Value of an operator in a (not necessarily normalized) pure state.

    (phi, A phi) / (phi, phi); real for Hermitian A, invariant under scaling.
    """
    nrm2 = np.sum(np.abs(phi) ** 2, axis=-1)
    if np.any(nrm2 == 0.0):
        raise ValueError("expectation undefined for the zero vector")
    val = np.einsum("...i,ij,...j->...", np.conj(phi), op, phi) / nrm2
    return complex(val) if val.ndim == 0 else val


def ket_compensators(phi: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """a_j = Re<phi|L_j phi> / ||phi||^2 = <L_Sj>, shape (..., n).

    Half the density compensator m_j = tr(L_j rho + rho L_j†) at
    rho = |phi><phi| / ||phi||^2.
    """
    nrm2 = np.sum(np.abs(phi) ** 2, axis=-1)
    vals = np.einsum("...i,nij,...j->...n", np.conj(phi), ls, phi).real
    return vals / nrm2[..., None]


def linear_pure_step(
    chi: np.ndarray, p: PureFilterParams, dy: np.ndarray, t: float = 0.0
) -> np.ndarray:
    """One Euler-Maruyama update of the linear filtering equation.

    d chi = -[iH chi + (1/2) sum_j L_j† L_j chi] dt + sum_j L_j chi dY_j;
    in the interaction picture the -iH term is dropped and the channels are
    dressed at time ``t``.  All 1 + n operators meet the kets in one GEMM
    with ``p.linear_step_matrix(t)``; the result is (I + dt K) chi plus
    sum_j dY_j L_j chi.
    """
    chi = np.asarray(chi, dtype=complex)
    dy = np.asarray(dy, dtype=float)
    y = apply_stacked(p.linear_step_matrix(t), chi)  # (..., 1 + n, d): (I + dt K) chi, L_j chi
    out = y[..., 0, :]
    for j in range(p.n_channels):
        out = out + dy[..., j, None] * y[..., j + 1, :]
    return out


def nonlinear_pure_step(
    phi: np.ndarray,
    p: PureFilterParams,
    db: np.ndarray,
    t: float = 0.0,
    renormalize: bool = True,
) -> np.ndarray:
    """One Euler update of the trace-preserving nonlinear filtering equation.

    d phi = -[i(H - sum_j a_j L_Aj) + (1/2) sum_j (L_j - a_j)†(L_j - a_j)] phi dt
            + sum_j (L_j - a_j) phi dB_j,

    with a_j = <L_Sj> the normalized expectation of the symmetric part of L_j
    (``ket_compensators``).  Expanded, this is the linear step at
    dY = dB + a dt minus (a·dB + (1/2) dt |a|^2) phi, which is how it is
    computed.  The continuous equation preserves the norm but Euler does not,
    so the result is renormalized by default; pass ``renormalize=False`` to
    observe the raw per-step norm defect.
    """
    phi = np.asarray(phi, dtype=complex)
    if np.any(np.sum(np.abs(phi) ** 2, axis=-1) == 0.0):
        raise ValueError("nonlinear step undefined for the zero vector")
    db = np.asarray(db, dtype=float)
    a = ket_compensators(phi, p.channel_ops(t))  # (..., n)
    out = linear_pure_step(phi, p, db + a * p.dt, t)
    out = out - np.sum(a * db + 0.5 * p.dt * a**2, axis=-1)[..., None] * phi
    if renormalize:
        out = out / np.linalg.norm(out, axis=-1, keepdims=True)
    return out


def mean_map(m: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The map f(psi) = <M>_psi psi whose derivative the filtering drift bounds rely on."""
    return expectation(m, psi) * psi


def jacobian_norm_estimate(m: np.ndarray, psi: np.ndarray, step: float = 1e-6) -> float:
    """Operator norm of the real-linear finite-difference Jacobian of mean_map at psi.

    psi and its conjugate are treated as independent real directions: the map
    C^d -> C^d is flattened to R^{2d} -> R^{2d} and differentiated centrally.
    """
    psi = np.asarray(psi, dtype=complex)
    d = psi.shape[-1]
    h = step * max(1.0, float(np.linalg.norm(psi)))

    def as_real(z):
        return np.concatenate([z.real, z.imag])

    jac = np.empty((2 * d, 2 * d))
    for k in range(2 * d):
        direction = np.zeros(d, dtype=complex)
        direction[k % d] = 1.0 if k < d else 1.0j
        fp = mean_map(m, psi + h * direction)
        fm = mean_map(m, psi - h * direction)
        jac[:, k] = as_real((fp - fm) / (2.0 * h))
    return float(np.linalg.norm(jac, 2))


def run_linear(
    chi0: np.ndarray,
    p: PureFilterParams,
    increments: np.ndarray,
    innovation_driven: bool = False,
    checkpoint_stride: int = 1,
    reduce=keep_frame,
) -> np.ndarray:
    """Drive the linear stepper along given increments; states at checkpoints.

    ``increments`` has shape (..., steps, n).  With ``innovation_driven`` the
    given increments are innovations dB and the output is synthesized per step
    as dY_j = dB_j + 2 a_j dt = dB_j + <L_j + L_j†> dt, with a from
    ``ket_compensators``, i.e. the linear equation under the physical
    measure.  Returns an array of shape (K+1, ..., d) of states in the
    Schroedinger frame, where K = steps // checkpoint_stride; a per-checkpoint
    ``reduce(frame, k)`` stores its result instead.
    """
    increments = np.asarray(increments, dtype=float)

    def step(chi, k):
        t = k * p.dt
        dy = increments[..., k, :]
        if innovation_driven:
            dy = dy + 2.0 * ket_compensators(chi, p.channel_ops(t)) * p.dt
        return linear_pure_step(chi, p, dy, t)

    chi = replicate(np.asarray(chi0, dtype=complex), increments.shape[:-2])
    return integrate(
        step, chi, increments.shape[-2], checkpoint_stride,
        lambda chi, k: reduce(p.to_schroedinger_frame(chi, k * p.dt), k),
    )


def run_nonlinear(
    phi0: np.ndarray,
    p: PureFilterParams,
    increments: np.ndarray,
    checkpoint_stride: int = 1,
    reduce=keep_frame,
) -> np.ndarray:
    """Drive the nonlinear stepper along innovation increments dB; states (or ``reduce``) at checkpoints."""
    increments = np.asarray(increments, dtype=float)

    def step(phi, k):
        return nonlinear_pure_step(phi, p, increments[..., k, :], k * p.dt)

    phi = replicate(np.asarray(phi0, dtype=complex), increments.shape[:-2])
    return integrate(
        step, phi, increments.shape[-2], checkpoint_stride,
        lambda phi, k: reduce(p.to_schroedinger_frame(phi, k * p.dt), k),
    )

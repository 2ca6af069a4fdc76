"""Euler-Maruyama stepping for the pure-state filtering equations.

Two equivalent descriptions are implemented:

* the linear equation for an unnormalized state chi driven by the output
  process Y, whose squared norm carries the observation likelihood, and
* the trace-preserving nonlinear equation for the normalized state phi driven
  by the innovation process B.

The drift lives in one place, ``PureFilterParams.linear_step_matrix``: the
nonlinear step is the linear step at dY = dB + a dt, with the compensators
a_j = Re<phi|L_j phi> / ||phi||^2 read off the L_j phi columns of that same
step's GEMM, minus a term along phi.  The linear equation driven by
innovations, dY = dB + 2 a dt, is the rank-one ensemble of ``qsme.ensemble``.

All steppers are pure functions of (state, params, increments) and broadcast
over leading batch axes, so Monte Carlo runs are vectorized over trajectories.
The ket steppers run over blocks of rows of the batch (``row_blocks``): each
block meets the whole stacked step matrix in one GEMM and is written into the
one fresh output, so a step holds its input, its output and about
``BLOCK_BYTES`` of scratch however many trajectories it advances.  The
scratch is allocated per call, so a stepper keeps no state between calls.
States evolved in the interaction picture are mapped back to the Schroedinger
frame whenever a driver records them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .integrate import drive, keep_frame
from .linalg import Propagator, dag, require_hermitian

PICTURES = ("schroedinger", "interaction")

# Bytes of the largest scratch array a ket step (or an ensemble reduction)
# holds for one block of rows: the block's GEMM images, (1 + n) d complex
# entries per ket.  From a sweep of 256 KiB, 512 KiB and 1 MiB on the
# ensemble_csv benchmark workload.
BLOCK_BYTES = 1 << 19


def row_blocks(batch: tuple, row_bytes: int) -> list:
    """Index blocks over the leading axis of a ``batch`` shape whose rows take ``row_bytes`` each.

    One leading index spans prod(batch[1:]) rows; each block spans as many
    leading indices as fit in ``BLOCK_BYTES``, and at least two, and a lone
    last index joins the block before it.  So no block is a single row
    unless the batch is: numpy multiplies a one-row matrix by another
    kernel, whose last bits differ.  An empty batch is the single block
    ``...``.
    """
    if not batch:
        return [...]
    size = max(2, BLOCK_BYTES // max(1, row_bytes * math.prod(batch[1:])))
    starts = list(range(0, batch[0], size))
    if len(starts) > 1 and batch[0] - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [batch[0]])]


def block_bytes(batch: tuple, row_bytes: int) -> int:
    """The bytes of the rows of the largest of ``row_blocks(batch, row_bytes)``."""
    if not batch:
        return row_bytes
    lead = max((b.stop - b.start for b in row_blocks(batch, row_bytes)), default=0)
    return lead * math.prod(batch[1:]) * row_bytes


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

    @cached_property
    def _step_stack(self) -> np.ndarray:
        return np.concatenate([self.ls, self._damping[None]])

    def channel_ops(self, t: float) -> np.ndarray:
        if self.picture == "schroedinger" or t == 0.0:
            return self.ls
        return self._prop.dress(self.ls, t)

    def step_ops(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The channels and the damping (1/2) sum_j L_j† L_j at ``t``.

        In the interaction picture both are dressed in one ``dress`` call, so
        a step builds exp(-iHt) once.
        """
        if self.picture == "schroedinger" or t == 0.0:
            return self.ls, self._damping
        dressed = self._prop.dress(self._step_stack, t)
        return dressed[:-1], dressed[-1]

    def linear_step_matrix(self, t: float) -> np.ndarray:
        """[(I + dt K)ᵀ | L_1ᵀ ... L_nᵀ] at time ``t``, K = -iH - (1/2) sum_j L_j† L_j.

        Cached in the Schroedinger picture; in the interaction picture K drops
        -iH and both K and the channels are dressed at ``t``, rebuilt per call.
        """
        if self.picture == "schroedinger":
            return self._linear_step_matrix
        ls_t, damping = self.step_ops(t)
        return _step_matrix(-damping, ls_t, self.dt)

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


def _combine(y: np.ndarray, dy: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write (I + dt K) chi + sum_j dY_j L_j chi into ``out``, from the ``apply_stacked`` images y."""
    acc = y[..., 0, :]
    for j in range(y.shape[-2] - 1):
        acc = np.add(acc, dy[..., j, None] * y[..., j + 1, :], out=out)
    if acc is not out:  # no channels
        out[...] = acc
    return out


def _broadcast(x: np.ndarray, incr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kets (..., d) and increments (..., n) broadcast to one batch shape."""
    batch = np.broadcast_shapes(x.shape[:-1], incr.shape[:-1])
    return np.broadcast_to(x, batch + x.shape[-1:]), np.broadcast_to(incr, batch + incr.shape[-1:])


def linear_pure_step(
    chi: np.ndarray, p: PureFilterParams, dy: np.ndarray, t: float = 0.0
) -> np.ndarray:
    """One Euler-Maruyama update of the linear filtering equation.

    d chi = -[iH chi + (1/2) sum_j L_j† L_j chi] dt + sum_j L_j chi dY_j;
    in the interaction picture the -iH term is dropped and the channels are
    dressed at time ``t``.  Over ``row_blocks`` of the kets, each block meets
    all 1 + n operators of ``p.linear_step_matrix(t)`` in one GEMM, and
    (I + dt K) chi plus sum_j dY_j L_j chi is written into the block's rows
    of the output.
    """
    chi, dy = _broadcast(np.asarray(chi, dtype=complex), np.asarray(dy, dtype=float))
    stacked = p.linear_step_matrix(t)
    out = np.empty(chi.shape, dtype=complex)
    for blk in row_blocks(chi.shape[:-1], stacked.itemsize * stacked.shape[1]):
        _combine(apply_stacked(stacked, chi[blk]), dy[blk], out[blk])
    return out


def _nonlinear_pure_update(phi: np.ndarray, p: PureFilterParams, db: np.ndarray, t: float) -> np.ndarray:
    """The Euler update of ``nonlinear_pure_step`` before renormalization.

    Over ``row_blocks`` of the kets, one GEMM with ``p.linear_step_matrix(t)``
    gives (I + dt K) phi and every L_j phi; the compensators
    a_j = Re<phi|L_j phi> / ||phi||^2 come from the same L_j phi columns, so
    the channels are dressed once per step.  Each block is finished in place
    in its rows of the output.
    """
    phi, db = _broadcast(np.asarray(phi, dtype=complex), np.asarray(db, dtype=float))
    stacked = p.linear_step_matrix(t)
    out = np.empty(phi.shape, dtype=complex)
    for blk in row_blocks(phi.shape[:-1], stacked.itemsize * stacked.shape[1]):
        x, dbk, o = phi[blk], db[blk], out[blk]
        nrm2 = np.sum(np.abs(x) ** 2, axis=-1)
        if np.any(nrm2 == 0.0):
            raise ValueError("nonlinear step undefined for the zero vector")
        y = apply_stacked(stacked, x)  # (..., 1 + n, d): (I + dt K) phi, L_j phi
        a = np.einsum("...i,...ni->...n", np.conj(x), y[..., 1:, :]).real / nrm2[..., None]
        _combine(y, dbk + a * p.dt, o)
        o -= np.sum(a * dbk + 0.5 * p.dt * a**2, axis=-1)[..., None] * x
    return out


def nonlinear_pure_step(
    phi: np.ndarray, p: PureFilterParams, db: np.ndarray, t: float = 0.0
) -> np.ndarray:
    """One Euler update of the trace-preserving nonlinear filtering equation.

    d phi = -[i(H - sum_j a_j L_Aj) + (1/2) sum_j (L_j - a_j)†(L_j - a_j)] phi dt
            + sum_j (L_j - a_j) phi dB_j,

    with a_j = <L_Sj> = Re<phi|L_j phi> / ||phi||^2 the normalized
    expectation of the symmetric part of L_j.  Expanded, this is the linear
    step at dY = dB + a dt minus (a·dB + (1/2) dt |a|^2) phi, which is how it
    is computed.  The continuous equation preserves the norm but Euler does
    not, so the result is renormalized, in place a block of rows at a time.
    """
    out = _nonlinear_pure_update(phi, p, db, t)
    for blk in row_blocks(out.shape[:-1], out.itemsize * out.shape[-1]):
        rows = out[blk]
        rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    return out


def mean_map(m: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The map f(psi) = <M>_psi psi whose derivative the filtering drift bounds rely on."""
    return expectation(m, psi) * psi


def jacobian_norm_estimate(m: np.ndarray, psi: np.ndarray) -> float:
    """Operator norm of the real-linear finite-difference Jacobian of mean_map at psi.

    psi and its conjugate are treated as independent real directions: the map
    C^d -> C^d is flattened to R^{2d} -> R^{2d} and differentiated centrally
    with step 1e-6 max(1, ||psi||).
    """
    psi = np.asarray(psi, dtype=complex)
    d = psi.shape[-1]
    h = 1e-6 * max(1.0, float(np.linalg.norm(psi)))

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
    checkpoint_stride: int = 1,
    reduce=keep_frame,
) -> np.ndarray:
    """Drive the linear stepper along output increments dY; states at checkpoints.

    ``increments`` has shape (..., steps, n).  Returns an array of shape
    (K+1, ..., d) of states in the Schroedinger frame, where
    K = steps // checkpoint_stride; a per-checkpoint ``reduce(frame, k)``
    stores its result instead.
    """
    return drive(
        linear_pure_step, np.asarray(chi0, dtype=complex), p.to_schroedinger_frame,
        p, increments, checkpoint_stride, reduce,
    )


def run_nonlinear(
    phi0: np.ndarray,
    p: PureFilterParams,
    increments: np.ndarray,
    checkpoint_stride: int = 1,
    reduce=keep_frame,
) -> np.ndarray:
    """Drive the nonlinear stepper along innovation increments dB; states (or ``reduce``) at checkpoints."""
    return drive(
        nonlinear_pure_step, np.asarray(phi0, dtype=complex), p.to_schroedinger_frame,
        p, increments, checkpoint_stride, reduce,
    )

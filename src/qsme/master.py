"""Mixed-state engines: stochastic quantum master equations and their transforms.

The linear equation evolves an unnormalized operator gamma driven by the
output process Y; its trace is the likelihood weight.  The normalized
equation evolves a density operator rho driven by the innovation process B
and preserves the trace exactly.  ``normalize_path`` / ``reconstruct_path``
realize the correspondence between the two at the discrete level, with
left-point (Ito) evaluation of every coefficient, for a whole batch of paths
at once: states in the (K+1, ..., d, d) layout ``run_linear_sme`` returns,
increments in the (..., K, n) layout the drivers take.  The same correspondence
gives the normalized stepper: one Euler step of it is the linear update at
dY = dB minus (m·dB) rho, so the drift lives only in the update both
steppers share.

That update forms every L_j gamma once per step, in one BLAS GEMM over the
stacked channels, and builds the step from those products: the sandwich
sum_j (L_j gamma) L_j† of the dissipator (one more GEMM), the noise
coefficients L_j gamma + (L_j gamma)†, and for the normalized step the
compensators m_j = 2 Re tr(L_j gamma).  The noise coefficients equal
L_j gamma + gamma L_j† because gamma is Hermitian, as every state the
drivers step is.  The -i[H, gamma] - (1/2){sum_j L_j† L_j, gamma} terms are
separate products with H and ``damping(t)``.  The update writes all its
state-sized arrays into a workspace that the params object keeps for the
batch shape it last stepped, and so does the interaction-picture frame map.
A step therefore allocates no state-sized array except the symmetrized one
it returns (plus, for a batch under numpy's 256 KiB temporary-elision size,
the temporaries of ``hermitianize``).  Because of the workspace, one params
object must not be stepped from two threads at once.

The deterministic (noise-averaged) Lindblad path, integrated by RK4, doubles
as a test oracle: the innovation term of the normalized equation has zero
mean under a Brownian driver, so the Monte Carlo mean of trajectories must
track it; its last checkpoint is the solution at the horizon.  It takes its
dissipator from ``lindblad_generator``, channel-wise einsum contractions
that share no kernel with the stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import TraceDeviation, TrajectoryAbort
from .integrate import drive, integrate, keep_frame
from .linalg import dag, hermitianize
from .pure import PureFilterParams, stacked_transpose

STEP_TRACE_TOL = 1e-8  # largest |tr rho - 1| the normalized stepper accepts


class _Workspace(NamedTuple):
    """The state-sized arrays of one ``_sme_update`` batch shape; see ``SMEParams._workspace``."""

    products: np.ndarray  # (..., d, n, d): products[..., c, j, i] = (L_j gamma)[i, c]
    rows: np.ndarray  # (..., d, n, d): rows[..., i, j, c] = (L_j gamma)[i, c]
    tmp: np.ndarray  # (..., d, d), in the space of rows
    scratch: np.ndarray  # (..., d, d), in the space of rows
    out: np.ndarray  # (..., d, d): the update


@dataclass
class SMEParams(PureFilterParams):
    """Coefficients of the stochastic master equations; contract as PureFilterParams.

    The density steppers and the frame map keep their scratch arrays here
    (``_workspace``), so one params object must not be stepped from two
    threads at once.
    """

    _ws: _Workspace | None = field(init=False, repr=False, compare=False, default=None)

    def _workspace(self, shape: tuple) -> _Workspace:
        """Arrays for states of ``shape`` (..., d, d), kept until a call with another shape.

        ``tmp`` and ``scratch`` are the first two states' worth of the space
        of ``rows`` (which has room for at least two), so they are free
        whenever ``rows`` is not being read.  The workspace holds 2n + 1
        states (4 for n = 1).
        """
        if self._ws is None or self._ws.out.shape != shape:
            self._ws = None  # the old arrays go before the new ones come
            size, n, d = math.prod(shape), self.n_channels, self.dim
            space = np.empty(max(n, 2) * size, complex)
            stacked = shape[:-2] + (d, n, d)
            self._ws = _Workspace(
                np.empty(stacked, complex), space[: n * size].reshape(stacked), space[:size].reshape(shape),
                space[size : 2 * size].reshape(shape), np.empty(shape, complex),
            )
        return self._ws

    def to_schroedinger_frame_matrix(self, state: np.ndarray, t: float) -> np.ndarray:
        """Map an interaction-picture operator back: gamma = exp(-iHt) nu exp(iHt).

        The product exp(-iHt) nu is formed in the workspace; the result is a fresh array.
        """
        if self.picture == "schroedinger" or t == 0.0:
            return state
        u = self._prop.factor(t)
        return np.matmul(u, state, out=self._workspace(state.shape).scratch) @ dag(u)


def output_compensators(rho: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """m_j = tr(L_j rho + rho L_j†) = 2 Re tr(L_j rho), shape (..., n)."""
    return 2.0 * np.einsum("nij,...ji->...n", ls, rho).real


def lindblad_generator(gamma: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """Dissipator sum_j [L_j gamma L_j† - (1/2){L_j† L_j, gamma}]; traceless on all inputs."""
    if gamma.shape[-1] != ls.shape[-1]:
        raise ValueError(f"dimension mismatch: {gamma.shape} vs {ls.shape}")
    lg = np.einsum("nij,...jk->n...ik", ls, gamma)
    sandwich = np.einsum("n...ik,nlk->...il", lg, np.conj(ls))
    kap2 = np.einsum("nji,njk->ik", np.conj(ls), ls)  # sum_j L_j† L_j
    return sandwich - 0.5 * (kap2 @ gamma + gamma @ kap2)


def _sme_update(
    gamma: np.ndarray, p: SMEParams, dy: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """The unsymmetrized linear update at ``t`` and the compensators of gamma.

    The update is gamma + dt (-i[H, gamma] + Dissipator(gamma))
    + sum_j (L_j gamma + gamma L_j†) dY_j, the commutator dropped and the
    channels dressed in the interaction picture.  Every L_j gamma comes from
    one GEMM: column c of L_j gamma is L_j applied to column c of gamma, so
    the rows of gamma^T meet all n channels in one (M d, d) @ (d, n d)
    product, as kets do in ``apply_stacked``.  From those products come the
    sandwich sum_j (L_j gamma) L_j† (one more GEMM over the stacked
    channels), the noise coefficients L_j gamma + (L_j gamma)†, which are
    L_j gamma + gamma L_j† for a Hermitian gamma, and the compensators
    m_j = 2 Re tr(L_j gamma), shape (..., n).

    Every state-sized array lives in ``p._workspace(gamma.shape)``: the
    returned update is the workspace's ``out``, which the next call on ``p``
    overwrites, so a caller copies it (the steppers' ``hermitianize`` does)
    before it steps ``p`` again.  Besides gamma, a step holds the 2n + 1
    states of the workspace (4 for n = 1): the products, their row-major
    copy and the update.  The copy of gamma^T that the first GEMM reads, and
    the later scratch, take the space of the row copy while it is not in use.
    """
    ls_t = p.channel_ops(t)
    d, n = gamma.shape[-1], ls_t.shape[0]
    y, rows, tmp, scratch, out = p._workspace(gamma.shape)
    np.copyto(scratch, np.swapaxes(gamma, -1, -2))  # gamma^T, read before rows is written
    # y[..., c, j, i] = (L_j gamma)[i, c]
    np.matmul(scratch.reshape(-1, d), stacked_transpose(ls_t), out=y.reshape(-1, n * d))
    np.copyto(rows, np.swapaxes(y, -3, -1))  # row i of [L_1 gamma | ... | L_n gamma]
    np.matmul(rows.reshape(-1, n * d), dag(ls_t).reshape(n * d, d), out=out.reshape(-1, d))  # sum_j (L_j gamma) L_j†
    damping = p.damping(t)
    np.matmul(damping, gamma, out=tmp)
    tmp += np.matmul(gamma, damping, out=scratch)
    out -= tmp
    if p.picture == "schroedinger":
        np.matmul(p.h, gamma, out=tmp)
        tmp -= np.matmul(gamma, p.h, out=scratch)
        tmp *= 1j
        out -= tmp
    out *= p.dt
    out += gamma
    for j in range(n):
        np.conj(y[..., j, :], out=tmp)  # (L_j gamma)†
        tmp += y[..., j, :].swapaxes(-1, -2)
        tmp *= dy[..., j, None, None]
        out += tmp
    return out, 2.0 * np.einsum("...iji->...j", y).real


def linear_sme_step(
    gamma: np.ndarray, p: SMEParams, dy: np.ndarray, t: float = 0.0
) -> np.ndarray:
    """One Euler update of the linear stochastic master equation.

    d gamma = -i[H, gamma] dt + Dissipator(gamma) dt + sum_j (L_j gamma + gamma L_j†) dY_j;
    the commutator is dropped and the channels dressed in the interaction
    picture.  Output is exactly Hermitian (symmetrized).
    """
    gamma = np.asarray(gamma, dtype=complex)
    if gamma.shape[-1] != p.dim:
        raise ValueError(f"state dimension {gamma.shape[-1]} != params dimension {p.dim}")
    return hermitianize(_sme_update(gamma, p, np.asarray(dy, dtype=float), t)[0])


def nonlinear_sme_step(
    rho: np.ndarray, p: SMEParams, db: np.ndarray, t: float = 0.0
) -> np.ndarray:
    """One Euler update of the normalized (nonlinear) stochastic master equation.

    d rho = -i[H, rho] dt + Dissipator(rho) dt
            + sum_j [L_j rho + rho L_j† - rho tr(L_j rho + rho L_j†)] dB_j,

    computed as the linear update at dY = dB minus (m·dB) rho, with
    m_j = tr(L_j rho + rho L_j†) read off the update's own L_j rho
    products: rho = gamma / tr gamma and dB = dY - m dt turn one equation
    into the other.  Drift and noise
    coefficients are traceless at unit trace, so the update preserves the
    trace to roundoff.  An input trace farther than ``STEP_TRACE_TOL`` from 1,
    or NaN, raises ``TraceDeviation``, and an output purity tr rho^2 above 2
    (a density has at most 1) raises ``TrajectoryAbort``, each naming the
    first such trajectory.  Output is exactly Hermitian.
    """
    rho = np.asarray(rho, dtype=complex)
    ok = np.abs(np.einsum("...ii->...", rho).real - 1.0) <= STEP_TRACE_TOL  # False for NaN
    TraceDeviation.unless(ok, f"input trace deviates from 1 beyond {STEP_TRACE_TOL}")
    db = np.asarray(db, dtype=float)
    out, m = _sme_update(rho, p, db, t)
    out -= np.multiply(np.einsum("...n,...n->...", m, db)[..., None, None], rho, out=p._workspace(rho.shape).scratch)
    out = hermitianize(out)
    purity = np.einsum("...ij,...ji->...", out, out).real
    TrajectoryAbort.unless(purity <= 2.0, "normalized density purity tr rho^2 exceeds 2")  # False for NaN
    return out


def _abort_at_first_step(ok: np.ndarray, reason: str) -> None:
    """Raise ``TrajectoryAbort`` at the first index of axis 0 where ``ok`` fails, naming the first trajectory there."""
    bad = np.flatnonzero(~np.all(ok, axis=tuple(range(1, ok.ndim))))
    if bad.size:
        TrajectoryAbort.unless(ok[bad[0]], reason, step=int(bad[0]))


def _path_compensators(states: np.ndarray, noise: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """Compensators m at every state but the last, in the layout of ``noise``: (..., K, n)."""
    if states.shape[0] != noise.shape[-2] + 1 or states.shape[1:-2] != noise.shape[:-2]:
        raise ValueError(f"states/noise lengths are inconsistent: {states.shape} vs {noise.shape}")
    return np.moveaxis(output_compensators(states[:-1], ls), 0, -2)


def normalize_path(
    states: np.ndarray, noise: np.ndarray, ls: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Map linear paths to normalized ones: rho = gamma / tr gamma, dB = dY - m dt.

    ``states`` are linear states in the layout ``run_linear_sme`` returns,
    (K+1, ..., d, d), and ``noise`` the output increments dY that drove them,
    (..., K, n); returns the densities and the innovations dB in the same
    layouts.  The compensator m is evaluated at the normalized state of the
    same step (left-point rule).  A nonpositive (or NaN) trace aborts with the
    step and, for a batch, the trajectory.
    """
    traces = np.einsum("...ii->...", states).real
    _abort_at_first_step(traces > 0.0, "nonpositive trace in linear path")
    rhos = states / traces[..., None, None]
    return rhos, noise - _path_compensators(rhos, noise, ls) * dt


def reconstruct_path(
    rhos: np.ndarray, db: np.ndarray, ls: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`normalize_path` at the discrete level, from unit initial trace.

    Rebuilds the trace process T_{k+1} = T_k (1 + m_k·dY_k), T_0 = 1, from
    dY = dB + m dt, and returns gamma = T rho and dY in the layouts
    ``normalize_path`` takes.  A trace driven nonpositive (or NaN) aborts
    naming the step that drove it there.
    """
    m = _path_compensators(rhos, db, ls)
    dy = db + m * dt
    growth = 1.0 + np.einsum("...kn,...kn->...k", m, dy)
    trace = np.cumprod(np.moveaxis(growth, -1, 0), axis=0)  # trace[k] = T_{k+1}
    _abort_at_first_step(trace > 0.0, "reconstructed trace driven nonpositive")
    trace = np.concatenate([np.ones((1,) + trace.shape[1:]), trace])
    return rhos * trace[..., None, None], dy


def run_linear_sme(
    gamma0: np.ndarray,
    p: SMEParams,
    increments: np.ndarray,
    checkpoint_stride: int = 1,
    reduce=keep_frame,
) -> np.ndarray:
    """Batched linear-equation driver; Schroedinger-frame states at checkpoints.

    ``increments`` has shape (..., steps, n); returns (K+1, ..., d, d), or
    what the per-checkpoint ``reduce(frame, k)`` returns for each frame.
    """
    return drive(
        linear_sme_step, hermitianize(np.asarray(gamma0, dtype=complex)), p.to_schroedinger_frame_matrix,
        p, increments, checkpoint_stride, reduce,
    )


def run_nonlinear_sme(
    rho0: np.ndarray,
    p: SMEParams,
    increments: np.ndarray,
    checkpoint_stride: int = 1,
    reduce=keep_frame,
) -> np.ndarray:
    """Batched normalized-equation driver; Schroedinger-frame states (or ``reduce``) at checkpoints."""
    return drive(
        nonlinear_sme_step, hermitianize(np.asarray(rho0, dtype=complex)), p.to_schroedinger_frame_matrix,
        p, increments, checkpoint_stride, reduce,
    )


def _lindblad_ode_rhs(eta: np.ndarray, p: SMEParams) -> np.ndarray:
    return -1j * (p.h @ eta - eta @ p.h) + lindblad_generator(eta, p.ls)


def deterministic_lindblad_path(
    rho0: np.ndarray,
    p: SMEParams,
    t: float,
    steps: int | None = None,
    checkpoint_stride: int = 1,
) -> np.ndarray:
    """Noise-averaged oracle: RK4 path of d eta/dt = -i[H, eta] + Dissipator(eta); states at checkpoints.

    Classic fixed-step RK4 over [0, t] in ``steps`` steps (default t / dt),
    always in the Schroedinger frame.  The dB term of the normalized
    equation has zero mean under a Brownian driver, so trajectory means must
    match this path; ``[-1]`` is the state at ``t``.
    """
    if steps is None:
        steps = max(1, round(t / p.dt))
    h = t / steps

    def rk4(eta, k):
        k1 = _lindblad_ode_rhs(eta, p)
        k2 = _lindblad_ode_rhs(eta + 0.5 * h * k1, p)
        k3 = _lindblad_ode_rhs(eta + 0.5 * h * k2, p)
        k4 = _lindblad_ode_rhs(eta + h * k3, p)
        return hermitianize(eta + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))

    eta0 = hermitianize(np.asarray(rho0, dtype=complex))
    return integrate(rk4, eta0, steps, checkpoint_stride, lambda eta, k: eta)

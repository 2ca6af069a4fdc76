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

That update is assembled as X + X†: the drift is a Hermitian map, so half
of it, half of gamma (times 1 - m·dB for the normalized step) and the
products gamma L_j† weighted by dY_j make an X whose sum with its adjoint is
the whole step, exactly Hermitian by construction and with no separate
symmetrization.  Every gamma L_j† comes
from a BLAS GEMM of the rows of gamma, once per step.  From those products
come the noise term of X, the compensators m_j = 2 Re tr(gamma L_j†) of the
normalized step and, through their adjoints L_j gamma, the sandwich
sum_j (L_j gamma) L_j† of the dissipator (one more GEMM over the stacked
channels).  The -i[H, gamma] - (1/2){sum_j L_j† L_j, gamma} terms are
separate products with H and the damping, which the interaction picture
dresses together with the channels from one exp(-iHt).  The update writes
all its state-sized arrays into a workspace that the params object keeps
for the batch shape it last stepped, and so does the interaction-picture
frame map.  A step therefore allocates one state-sized array: the C-ordered
update it returns.  Because of the workspace, one params object must not be
stepped from two threads at once.

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
from .pure import PureFilterParams

STEP_TRACE_TOL = 1e-8  # largest |tr rho - 1| the normalized stepper accepts


class _Workspace(NamedTuple):
    """The state-sized arrays of one ``_sme_update`` batch shape; see ``SMEParams._workspace``."""

    products: np.ndarray  # (n, ..., d, d): products[j] = gamma L_j†
    rows: np.ndarray  # (..., d, n, d): rows[..., i, j, c] = (L_j gamma)[i, c]
    tmp: np.ndarray  # (..., d, d), in the space of rows
    scratch: np.ndarray  # (..., d, d), in the space of rows
    out: np.ndarray  # (..., d, d): X, the half of the update that _sme_update adds to its adjoint


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
            self._ws = _Workspace(
                np.empty((n,) + shape, complex), space[: n * size].reshape(shape[:-2] + (d, n, d)),
                space[:size].reshape(shape), space[size : 2 * size].reshape(shape), np.empty(shape, complex),
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
    gamma: np.ndarray, p: SMEParams, dy: np.ndarray, t: float, normalized: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The Euler update at ``t``, assembled as X + X†, and the compensators of gamma.

    The linear update is gamma + dt (-i[H, gamma] + Dissipator(gamma))
    + sum_j (L_j gamma + gamma L_j†) dY_j, the commutator dropped and the
    channels dressed in the interaction picture; the ``normalized`` one
    subtracts (m·dY) gamma.  Both are X + X† for

        X = (dt/2) (-i[H, gamma] + Dissipator(gamma)) + (c/2) gamma + sum_j dY_j gamma L_j†,

    with c = 1, or 1 - m·dY when ``normalized``: the drift is a Hermitian
    map, so half of it plus its adjoint is all of it for a Hermitian gamma.
    Each gamma L_j† is one (M d, d) @ (d, d) GEMM of the rows of gamma, kept
    as a contiguous state so that the noise term of X is n passes with long
    inner loops.  The traces of those products give the compensators
    m_j = 2 Re tr(gamma L_j†), shape (..., n), and their conjugate
    transposes L_j gamma, copied row-major, meet the stacked (dt/2) L_j† in
    one (M d, n d) @ (n d, d) GEMM for the sandwich of the dissipator.  The
    factor dt/2 rides on those L_j† and on the damping and H matrices, so
    no pass over the batch scales the drift.  The last two passes add X to
    its conjugate transpose: the update is exactly Hermitian by
    construction, and a fresh C-ordered array.

    X and every other state-sized array live in ``p._workspace(gamma.shape)``.
    Besides gamma and the update, a step holds the 2n + 1 states of the
    workspace (4 for n = 1): the products, their row-major conjugate copy
    and X; the scratch takes the space of the row copy while it is not in use.
    """
    ls_t, damping = p.step_ops(t)
    d, n = gamma.shape[-1], ls_t.shape[0]
    half_dt = 0.5 * p.dt
    y, rows, tmp, scratch, out = p._workspace(gamma.shape)
    ls_dag, gamma_rows = dag(ls_t), gamma.reshape(-1, d)
    for j in range(n):
        np.matmul(gamma_rows, ls_dag[j], out=y[j].reshape(-1, d))  # y[j] = gamma L_j†
    m = 2.0 * np.einsum("j...ii->...j", y).real
    # rows[..., i, j, c] = (L_j gamma)[i, c]: row i of [L_1 gamma | ... | L_n gamma]
    np.conj(np.swapaxes(np.moveaxis(y, 0, -2), -3, -1), out=rows)
    np.matmul(rows.reshape(-1, n * d), half_dt * ls_dag.reshape(n * d, d), out=out.reshape(-1, d))
    damping = half_dt * damping
    np.matmul(damping, gamma, out=tmp)
    tmp += np.matmul(gamma, damping, out=scratch)
    out -= tmp
    if p.picture == "schroedinger":
        h = (1j * half_dt) * p.h
        np.matmul(h, gamma, out=tmp)
        tmp -= np.matmul(gamma, h, out=scratch)
        out -= tmp
    half_c = 0.5 - 0.5 * np.einsum("...n,...n->...", m, dy)[..., None, None] if normalized else 0.5
    out += np.multiply(gamma, half_c, out=tmp)
    for j in range(n):
        out += np.multiply(y[j], dy[..., j, None, None], out=tmp)
    update = np.conj(np.swapaxes(out, -1, -2), out=np.empty(gamma.shape, complex))
    update += out
    return update, m


def linear_sme_step(
    gamma: np.ndarray, p: SMEParams, dy: np.ndarray, t: float = 0.0
) -> np.ndarray:
    """One Euler update of the linear stochastic master equation.

    d gamma = -i[H, gamma] dt + Dissipator(gamma) dt + sum_j (L_j gamma + gamma L_j†) dY_j;
    the commutator is dropped and the channels dressed in the interaction
    picture.  The output is X + X† (``_sme_update``): exactly Hermitian, and
    a fresh C-ordered array.
    """
    gamma = np.asarray(gamma, dtype=complex)
    if gamma.shape[-1] != p.dim:
        raise ValueError(f"state dimension {gamma.shape[-1]} != params dimension {p.dim}")
    return _sme_update(gamma, p, np.asarray(dy, dtype=float), t)[0]


def nonlinear_sme_step(
    rho: np.ndarray, p: SMEParams, db: np.ndarray, t: float = 0.0
) -> np.ndarray:
    """One Euler update of the normalized (nonlinear) stochastic master equation.

    d rho = -i[H, rho] dt + Dissipator(rho) dt
            + sum_j [L_j rho + rho L_j† - rho tr(L_j rho + rho L_j†)] dB_j,

    computed as the linear update at dY = dB minus (m·dB) rho, with
    m_j = tr(L_j rho + rho L_j†) read off the update's own rho L_j†
    products: rho = gamma / tr gamma and dB = dY - m dt turn one equation
    into the other.  Drift and noise
    coefficients are traceless at unit trace, so the update preserves the
    trace to roundoff.  An input trace farther than ``STEP_TRACE_TOL`` from 1,
    or NaN, raises ``TraceDeviation``, and an output purity tr rho^2 above 2
    (a density has at most 1) raises ``TrajectoryAbort``, each naming the
    first such trajectory.  The output is X + X† (``_sme_update``): exactly
    Hermitian, and a fresh C-ordered array, so its purity is the sum of
    its squared entries.
    """
    rho = np.asarray(rho, dtype=complex)
    ok = np.abs(np.einsum("...ii->...", rho).real - 1.0) <= STEP_TRACE_TOL  # False for NaN
    TraceDeviation.unless(ok, f"input trace deviates from 1 beyond {STEP_TRACE_TOL}")
    out = _sme_update(rho, p, np.asarray(db, dtype=float), t, normalized=True)[0]
    flat = out.reshape(out.shape[:-2] + (-1,)).view(float)
    purity = np.einsum("...i,...i->...", flat, flat)
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

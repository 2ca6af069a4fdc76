"""Mixed-state engines: stochastic quantum master equations and their transforms.

The linear equation evolves an unnormalized operator gamma driven by the
output process Y; its trace is the likelihood weight.  The normalized
equation evolves a density operator rho driven by the innovation process B
and preserves the trace exactly.  ``normalize_path`` / ``reconstruct_path``
realize the correspondence between the two at the discrete level, with
left-point (Ito) evaluation of every coefficient.  The same correspondence
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
separate products with H and ``damping(t)``.

The deterministic (noise-averaged) Lindblad path, integrated by RK4, doubles
as a test oracle: the innovation term of the normalized equation has zero
mean under a Brownian driver, so the Monte Carlo mean of trajectories must
track it; its last checkpoint is the solution at the horizon.  It takes its
dissipator from ``lindblad_generator``, channel-wise einsum contractions
that share no kernel with the stepper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TraceDeviation, TrajectoryAbort
from .integrate import drive, integrate, keep_frame
from .linalg import dag, hermitianize, hs_norm
from .pure import PureFilterParams, apply_stacked, stacked_transpose

RECORD_KINDS = ("linear", "normalized")
STEP_TRACE_TOL = 1e-8  # largest |tr rho - 1| the normalized stepper accepts


@dataclass
class SMEParams(PureFilterParams):
    """Coefficients of the stochastic master equations; contract as PureFilterParams."""

    def to_schroedinger_frame_matrix(self, state: np.ndarray, t: float) -> np.ndarray:
        """Map an interaction-picture operator back: gamma = exp(-iHt) nu exp(iHt)."""
        if self.picture == "schroedinger" or t == 0.0:
            return state
        u = self._prop.factor(t)
        return u @ state @ dag(u)


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
    """
    ls_t = p.channel_ops(t)
    d, n = gamma.shape[-1], ls_t.shape[0]
    y = apply_stacked(stacked_transpose(ls_t), np.swapaxes(gamma, -1, -2))  # y[..., c, j, i] = (L_j gamma)[i, c]
    rows = np.swapaxes(y, -3, -1).reshape(-1, n * d)  # row i of [L_1 gamma | ... | L_n gamma]
    out = (rows @ dag(ls_t).reshape(n * d, d)).reshape(gamma.shape)  # sum_j (L_j gamma) L_j†
    del rows
    # The rest accumulates in place in out and one scratch array, so a step
    # holds few state-sized temporaries at once.
    damping = p.damping(t)
    tmp = damping @ gamma
    tmp += gamma @ damping
    out -= tmp
    if p.picture == "schroedinger":
        np.matmul(p.h, gamma, out=tmp)
        tmp -= gamma @ p.h
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
    out -= np.einsum("...n,...n->...", m, db)[..., None, None] * rho
    out = hermitianize(out)
    purity = np.einsum("...ij,...ji->...", out, out).real
    TrajectoryAbort.unless(purity <= 2.0, "normalized density purity tr rho^2 exceeds 2")  # False for NaN
    return out


@dataclass
class TrajectoryRecord:
    """One full trajectory of a mixed-state equation on a uniform grid.

    ``noise`` holds the driving increments per step (dY for ``linear``, dB
    for ``normalized``); ``trace`` holds the likelihood process T(t), which
    for a linear record equals the actual state traces.  Positivity of the
    stored states is a monitored property (Euler paths dip below zero at
    O(dt)), not checked at construction.
    """

    times: np.ndarray
    states: np.ndarray  # (steps+1, d, d)
    noise: np.ndarray  # (steps, n)
    trace: np.ndarray  # (steps+1,)
    kind: str
    params: SMEParams

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=complex)
        self.noise = np.asarray(self.noise, dtype=float)
        self.trace = np.asarray(self.trace, dtype=float)
        if self.kind not in RECORD_KINDS:
            raise ValueError(f"kind must be one of {RECORD_KINDS}")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.states.shape[0] != self.times.shape[0] or self.noise.shape[0] != self.times.shape[0] - 1:
            raise ValueError("times/states/noise lengths are inconsistent")
        herm_defect = hs_norm(self.states - dag(self.states)).max()
        if herm_defect > 1e-10 * max(1.0, float(hs_norm(self.states).max())):
            raise ValueError("stored states are not Hermitian")
        if self.kind == "normalized":
            tr = np.einsum("kii->k", self.states).real
            if np.max(np.abs(tr - 1.0)) > 1e-8:
                raise ValueError("normalized record requires unit-trace states")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def simulate_linear_record(
    gamma0: np.ndarray, p: SMEParams, increments: np.ndarray
) -> TrajectoryRecord:
    """Integrate the linear equation along one noise path, storing every step.

    States are recorded in the Schroedinger frame even when stepping in the
    interaction picture.
    """
    increments = np.asarray(increments, dtype=float)
    states = run_linear_sme(gamma0, p, increments)
    times = p.dt * np.arange(states.shape[0])
    trace = np.einsum("kii->k", states).real
    return TrajectoryRecord(times, states, increments, trace, "linear", p)


def normalize_path(rec: TrajectoryRecord) -> TrajectoryRecord:
    """Map a linear record to the normalized one: rho = gamma / tr gamma, dB = dY - m dt.

    The compensator m is always evaluated at the normalized state of the same
    step (left-point rule).  Aborts with the step index if a nonpositive
    trace is encountered.
    """
    if rec.kind != "linear":
        raise ValueError("normalize_path expects a linear record")
    traces = np.einsum("kii->k", rec.states).real
    bad = np.nonzero(traces <= 0.0)[0]
    if bad.size:
        raise TrajectoryAbort("nonpositive trace in linear path", step=int(bad[0]))
    rhos = rec.states / traces[:, None, None]
    m = output_compensators(rhos[:-1], rec.params.ls)
    db = rec.noise - m * rec.dt
    return TrajectoryRecord(rec.times, rhos, db, traces, "normalized", rec.params)


def reconstruct_path(rec: TrajectoryRecord, t0: float = 1.0) -> TrajectoryRecord:
    """Inverse of :func:`normalize_path` at the discrete level.

    Rebuilds the trace process from the inverse-trace dynamics driven by dB,
    then gamma = T rho and dY = dB + m dt.
    """
    if rec.kind != "normalized":
        raise ValueError("reconstruct_path expects a normalized record")
    if t0 <= 0.0:
        raise ValueError("initial trace must be positive")
    steps = rec.noise.shape[0]
    m = output_compensators(rec.states[:-1], rec.params.ls)
    dy = rec.noise + m * rec.dt
    trace = np.empty(steps + 1)
    trace[0] = t0
    for k in range(steps):
        nxt = trace[k] * (1.0 + float(np.dot(m[k], dy[k])))
        if nxt <= 0.0:
            raise TrajectoryAbort("reconstructed trace driven nonpositive", step=k)
        trace[k + 1] = nxt
    gammas = rec.states * trace[:, None, None]
    return TrajectoryRecord(rec.times, gammas, dy, trace, "linear", rec.params)


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

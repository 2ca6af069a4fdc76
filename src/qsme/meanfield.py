"""Mean-field (McKean-Vlasov) extension of the stochastic master equations.

The interaction enters as a state-dependent Hamiltonian shift A(eta) where
eta(t) is the expected density along the flow.  The solver freezes eta from
the previous Picard iterate, runs a Monte Carlo batch of trajectories reusing
identical noise seeds across iterations (common random numbers, so the
fixed-point map is deterministic given the seed), and iterates to a fixed
point of eta -> E[state(eta)].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrajectoryAbort
from .integrate import integrate, replicate, step_count
from .linalg import hermitianize, hs_norm, is_hermitian, operator_norm, require_density
from .master import SMEParams, linear_sme_step, nonlinear_sme_step
from .noise import sample_wiener_batch

VARIANTS = ("zero", "hs_kernel", "potential")
MODES = ("normalized", "linear")


@dataclass
class InteractionMap:
    """Bounded linear map eta -> A(eta) entering the Hamiltonian as H + A(eta).

    ``hs_kernel`` acts on the matrix entries through a dim^2 x dim^2 kernel
    (bounded on Hilbert-Schmidt operators, constant ``strength``);
    ``potential`` multiplies by a bounded real symmetric table contracted
    with the diagonal of eta (bounded from trace class to operators).
    """

    variant: str
    dim: int
    kernel: np.ndarray | None = None  # (dim^2, dim^2) for hs_kernel
    table: np.ndarray | None = None  # (dim, dim) real symmetric for potential
    strength: float = field(init=False, default=0.0)  # the constant C_A of the variant's bound

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.variant == "hs_kernel":
            k = np.asarray(self.kernel, dtype=complex)
            if k.shape != (self.dim**2, self.dim**2):
                raise ValueError(f"kernel must have shape ({self.dim**2}, {self.dim**2}), got {k.shape}")
            self.kernel = k
            self.strength = operator_norm(k)
            self._check_hermiticity_preserving()
        elif self.variant == "potential":
            a = np.asarray(self.table, dtype=float)
            if a.shape != (self.dim, self.dim) or not np.allclose(a, a.T, atol=1e-12):
                raise ValueError(f"potential table must be a real symmetric ({self.dim}, {self.dim}) array")
            self.table = a
            self.strength = float(np.max(np.abs(a)))

    def _check_hermiticity_preserving(self):
        d = self.dim
        for i in range(d):
            for j in range(i, d):
                sym = np.zeros((d, d), dtype=complex)
                sym[i, j] += 0.5
                sym[j, i] += 0.5
                elems = [sym]
                if i != j:
                    anti = np.zeros((d, d), dtype=complex)
                    anti[i, j] = 0.5j
                    anti[j, i] = -0.5j
                    elems.append(anti)
                for elem in elems:
                    out = (self.kernel @ elem.reshape(-1)).reshape(d, d)
                    if not is_hermitian(out):
                        raise ValueError("hs_kernel does not map Hermitian inputs to Hermitian outputs")

    @classmethod
    def zero(cls, dim: int) -> "InteractionMap":
        return cls("zero", dim)

    @classmethod
    def from_kernel(cls, kernel: np.ndarray) -> "InteractionMap":
        kernel = np.asarray(kernel, dtype=complex)
        d = int(round(np.sqrt(kernel.shape[0])))
        return cls("hs_kernel", d, kernel=kernel)

    @classmethod
    def from_potential(cls, table: np.ndarray) -> "InteractionMap":
        table = np.asarray(table, dtype=float)
        return cls("potential", table.shape[0], table=table)


def apply_interaction(imap: InteractionMap, eta: np.ndarray) -> np.ndarray:
    """Evaluate the interaction shift A(eta); output is symmetrized."""
    eta = np.asarray(eta, dtype=complex)
    if eta.shape[-1] != imap.dim:
        raise ValueError(f"dimension mismatch: eta {eta.shape} vs interaction dim {imap.dim}")
    if imap.variant == "zero":
        return np.zeros_like(eta)
    if imap.variant == "hs_kernel":
        out = (imap.kernel @ eta.reshape(-1)).reshape(imap.dim, imap.dim)
        return hermitianize(out)
    diag = np.einsum("xy,yy->x", imap.table, eta).real
    return np.diag(diag).astype(complex)


@dataclass
class MeanFieldConfig:
    """Everything a mean-field run needs; a pure function of this is the solver."""

    params: SMEParams
    interaction: InteractionMap
    rho0: np.ndarray
    trajectories: int
    horizon: float
    picard_max_iter: int = 20
    picard_tol: float = 1e-3
    mode: str = "normalized"
    seed: int = 0

    def __post_init__(self):
        if self.trajectories < 1:
            raise ValueError("trajectories must be >= 1")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.params.picture != "schroedinger":
            raise ValueError("the mean-field solver integrates in the Schroedinger picture")
        self.rho0 = require_density(np.asarray(self.rho0, dtype=complex))
        step_count(self.horizon, self.params.dt)  # raises unless the horizon is a whole number of steps

    @property
    def steps(self) -> int:
        return step_count(self.horizon, self.params.dt)


@dataclass
class PicardReport:
    """Outcome of the fixed-point iteration over Monte Carlo ensembles."""

    times: np.ndarray
    mean_field_path: np.ndarray  # (steps+1, d, d), the last iterate
    iteration_distances: list[float]  # sup_t HS distance between iterates
    trace_norm_distances: list[float]  # same in trace norm, for transparency
    converged: bool
    noise_floor: float  # 3x below this, the tolerance is under the MC noise
    tolerance_below_noise_floor: bool

    def to_json(self) -> dict:
        return {
            "times": self.times.tolist(),
            "iteration_distances": self.iteration_distances,
            "trace_norm_distances": self.trace_norm_distances,
            "converged": self.converged,
            "noise_floor": self.noise_floor,
            "tolerance_below_noise_floor": self.tolerance_below_noise_floor,
            "mean_field_path": [
                [[[z.real, z.imag] for z in row] for row in state]
                for state in self.mean_field_path
            ],
        }


def frozen_field_step(
    rho: np.ndarray,
    eta: np.ndarray,
    cfg: MeanFieldConfig,
    db: np.ndarray,
    t: float = 0.0,
) -> np.ndarray:
    """One step of the mean-field equation with the field frozen at eta.

    Delegates to the normalized stepper with effective Hamiltonian
    H + A(eta); in ``linear`` mode delegates to the linear stepper (the
    increments are then outputs dY).  With a zero interaction this is
    bitwise the plain step.
    """
    p = cfg.params
    if cfg.interaction.variant != "zero":
        p = SMEParams(p.h + apply_interaction(cfg.interaction, eta), p.ls, p.dt, p.picture)
    if cfg.mode == "normalized":
        return nonlinear_sme_step(rho, p, db, t)
    return linear_sme_step(rho, p, db, t)


def mckean_vlasov_solve(cfg: MeanFieldConfig) -> PicardReport:
    """Picard iteration eta_{k+1}(t) = MC mean of frozen-field trajectories.

    The same per-trajectory noise paths are reused across iterations, so the
    map is deterministic given cfg.  In ``normalized`` mode the mean is
    E[rho(t)]; in ``linear`` mode it is E[gamma(t)/tr gamma(t)].
    Non-convergence within ``picard_max_iter`` yields converged=False, not an
    exception.
    """
    p = cfg.params
    steps = cfg.steps
    incr = sample_wiener_batch(p.n_channels, steps, p.dt, cfg.seed, cfg.trajectories)
    times = p.dt * np.arange(steps + 1)

    eta_path = replicate(cfg.rho0, (steps + 1,))
    x0 = replicate(cfg.rho0, (cfg.trajectories,))
    distances: list[float] = []
    trace_distances: list[float] = []
    converged = False
    max_var = 0.0

    def step(x, k):  # eta_path is the previous iterate while integrate runs
        return frozen_field_step(x, eta_path[k], cfg, incr[:, k, :], k * p.dt)

    # The path is the Monte Carlo mean at every checkpoint, t=0 included, so
    # a zero interaction reduces bitwise to a plain Monte Carlo run.
    def observe(x, k):
        nonlocal max_var
        if cfg.mode == "linear":
            traces = np.einsum("mii->m", x).real
            TrajectoryAbort.unless(traces > 0.0, "trace collapse in a linear-mode trajectory", k)
            x = x / traces[:, None, None]
        mean = np.mean(x, axis=0)
        spread = x - mean
        max_var = max(max_var, float(np.mean(spread.real**2 + spread.imag**2, axis=0).sum()))
        return mean

    for _ in range(cfg.picard_max_iter):
        max_var = 0.0
        new_path = integrate(step, x0, steps, 1, observe)
        diff = new_path - eta_path
        distances.append(float(hs_norm(diff).max()))
        trace_distances.append(
            float(np.abs(np.linalg.eigvalsh(hermitianize(diff))).sum(axis=-1).max())
        )
        eta_path = new_path
        if distances[-1] <= cfg.picard_tol:
            converged = True
            break

    noise_floor = float(np.sqrt(max_var / cfg.trajectories))
    return PicardReport(
        times=times,
        mean_field_path=eta_path,
        iteration_distances=distances,
        trace_norm_distances=trace_distances,
        converged=converged,
        noise_floor=noise_floor,
        tolerance_below_noise_floor=cfg.picard_tol < 3.0 * noise_floor,
    )


@dataclass
class ReweightedEstimate:
    """Self-normalized importance-sampling estimate under the reference measure."""

    value: float
    stderr: float
    effective_sample_size: float
    degenerate: bool  # flagged when the effective sample size drops below 10


def reweighted_expectation(gammas: np.ndarray, observable: np.ndarray) -> ReweightedEstimate:
    """Physical-measure expectation of tr(O rho(t)) from reference-measure linear paths.

    Under the reference measure (Brownian output) the trace T(t) = tr gamma(t)
    is the likelihood weight, so E_phys[f] = E_ref[T f] / E_ref[T].  ``gammas``
    stacks the linear states of every path at one time, shape (M, d, d).
    """
    observable = np.asarray(observable, dtype=complex)
    weights = np.einsum("mii->m", gammas).real
    if np.any(weights <= 0.0):
        raise ValueError("nonpositive trace weight in linear paths")
    vals = np.einsum("ij,mji->m", observable, gammas).real / weights
    wsum = weights.sum()
    value = float(np.dot(weights, vals) / wsum)
    wtil = weights / wsum
    stderr = float(np.sqrt(np.sum((wtil * (vals - value)) ** 2)))
    ess = float(wsum**2 / np.dot(weights, weights))
    return ReweightedEstimate(value, stderr, ess, ess < 10.0)

"""Statistical and algebraic engines turning theorem-level claims into runnable checks.

Conventions: theorem checks are one-sided bound tests at 3 standard errors of
the Monte Carlo mean; continuity experiments couple the compared simulations
through a common driver (the variance of the difference is otherwise hopeless
at desk scale); convergence is measured against the finest level of a family
of step sizes coupled by Brownian refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import WeightedEnsemble, run_ensemble
from .integrate import step_count
from .linalg import coupling_norm, dag, hs_norm, operator_norm, positive_parts
from .master import (
    SMEParams,
    deterministic_lindblad_path,
    run_linear_sme,
    run_nonlinear_sme,
)
from .noise import coarsen_increments, sample_wiener_batch


@dataclass
class MonteCarloConfig:
    """Shared knobs of a Monte Carlo check: dynamics, initial state, budget."""

    params: SMEParams
    initial: np.ndarray  # ket (d,) for pure-state checks, operator (d, d) for mixed
    horizon: float
    trajectories: int
    seed: int
    checkpoint_stride: int = 1

    @property
    def steps(self) -> int:
        return step_count(self.horizon, self.params.dt)

    def increments(self) -> np.ndarray:
        return sample_wiener_batch(
            self.params.n_channels, self.steps, self.params.dt, self.seed, self.trajectories
        )

    def checkpoint_times(self) -> np.ndarray:
        return self.params.dt * self.checkpoint_stride * np.arange(
            self.steps // self.checkpoint_stride + 1
        )


@dataclass
class MartingaleTestResult:
    times: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    zscores: np.ndarray

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.zscores)))

    def passed(self) -> bool:
        return self.max_abs_z <= 3.0


def martingale_test(samples: np.ndarray, times: np.ndarray) -> MartingaleTestResult:
    """Z-scores of the sample mean of a scalar process against its initial value.

    ``samples`` has shape (M, K+1): M trajectories observed at K+1 times.
    A deviation of exactly zero scores zero even where the spread vanishes
    (constant series).
    """
    samples = np.asarray(samples, dtype=float)
    m = samples.shape[0]
    if m < 30:
        raise ValueError("martingale test needs at least 30 trajectories")
    means = samples.mean(axis=0)
    stderrs = samples.std(axis=0, ddof=1) / np.sqrt(m)
    dev = means - means[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(dev == 0.0, 0.0, dev / stderrs)
    return MartingaleTestResult(np.asarray(times, dtype=float), means, stderrs, z)


@dataclass
class BoundCheckResult:
    bound_name: str
    times: np.ndarray
    observed: np.ndarray
    bound: np.ndarray
    margin: np.ndarray  # (bound - observed) in stderr units
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.bound_name,
            "times": self.times.tolist(),
            "observed": self.observed.tolist(),
            "bound": self.bound.tolist(),
            "margin": [float(x) for x in self.margin],
            "pass": bool(self.passed),
        }


MOMENT_BOUNDS = (
    "pure_norm_growth",
    "gamma_squared_growth",
    "trace_squared_growth",
    "trace_abs_bound",
)


def moment_bound_check(which: str, cfg: MonteCarloConfig) -> BoundCheckResult:
    """Monte Carlo left side of a growth estimate vs its analytic right side.

    ``pure_norm_growth``:     E||chi(t)||^2 <= exp(4 t ||L||^2) ||chi0||^2
                              (linear pure dynamics driven by innovations,
                              dY = dB + 2 a dt: the rank-one ensemble)
    ``gamma_squared_growth``: E tr gamma^2(t) <= tr gamma0^2 exp(4 t ||L||^2)
    ``trace_squared_growth``: E (tr gamma)^2 <= [(tr gamma0+)^2 + (tr gamma0-)^2] exp(4 t ||L||^2)
    ``trace_abs_bound``:      E tr|gamma(t)| <= tr|gamma0|

    ||L|| is the summed per-channel operator norm.  Pass means every
    checkpoint margin is >= -3 stderr.
    """
    p = cfg.params
    lnorm2 = coupling_norm(p.ls) ** 2
    times = cfg.checkpoint_times()
    incr = cfg.increments()

    if which == "pure_norm_growth":
        chi0 = np.asarray(cfg.initial, dtype=complex)
        samples = run_ensemble(
            WeightedEnsemble(np.ones(1), chi0[None], 1), p, incr, checkpoint_stride=cfg.checkpoint_stride,
            reduce=lambda kets, k: np.sum(np.abs(kets[..., 0, :]) ** 2, axis=-1),
        ).T  # (M, K+1)
        norm0 = float(np.sum(np.abs(cfg.initial) ** 2))
        bound = np.exp(4.0 * times * lnorm2) * norm0
    elif which in ("gamma_squared_growth", "trace_squared_growth", "trace_abs_bound"):
        states = run_linear_sme(cfg.initial, p, incr, checkpoint_stride=cfg.checkpoint_stride)
        if which == "gamma_squared_growth":
            samples = np.einsum("kmij,kmji->km", states, states).real.T
            tr_sq0 = float(np.einsum("ij,ji->", cfg.initial, cfg.initial).real)
            bound = np.exp(4.0 * times * lnorm2) * tr_sq0
        elif which == "trace_squared_growth":
            samples = (np.einsum("kmii->km", states).real ** 2).T
            plus, minus = positive_parts(np.asarray(cfg.initial, dtype=complex))
            base = float(np.trace(plus).real ** 2 + np.trace(minus).real ** 2)
            bound = np.exp(4.0 * times * lnorm2) * base
        else:
            samples = np.abs(np.linalg.eigvalsh(states)).sum(axis=-1).T
            base = float(np.abs(np.linalg.eigvalsh(np.asarray(cfg.initial, complex))).sum())
            bound = np.full_like(times, base)
    else:
        raise ValueError(f"unknown bound {which!r}; expected one of {MOMENT_BOUNDS}")

    observed = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    # deterministic checkpoints (stderr 0) pass on equality up to roundoff
    slack = bound - observed + 1e-10 * np.maximum(1.0, np.abs(bound))
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = np.where(
            stderr > 0.0, (bound - observed) / stderr, np.where(slack >= 0.0, np.inf, -np.inf)
        )
    return BoundCheckResult(which, times, observed, bound, margin, bool(margin.min() >= -3.0))


@dataclass
class InequalityCheck:
    lhs1: np.ndarray  # 2|tr(A B A B†)|
    rhs1: np.ndarray  # tr[A^2 (B B† + B† B)], the right side of both inequalities
    ok: bool


INEQUALITY_SLACK = 1e-10  # relative tolerance of trace_inequality_check


def trace_inequality_check(a: np.ndarray, b: np.ndarray) -> InequalityCheck:
    """Direct evaluation of the trace inequalities for self-adjoint A, bounded B.

    2|tr(ABAB†)| <= tr[A^2(BB† + B†B)] and |tr(ABAB + AB†AB†)| <= same right
    side, each within ``INEQUALITY_SLACK`` relative tolerance.  Broadcasts over leading
    batch axes.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ab = a @ b
    abd = a @ dag(b)
    lhs1 = 2.0 * np.abs(np.einsum("...ij,...ji->...", ab, abd))
    rhs = np.einsum("...ij,...ji->...", a @ a, b @ dag(b) + dag(b) @ b).real
    lhs2 = np.abs(
        np.einsum("...ij,...ji->...", ab, ab) + np.einsum("...ij,...ji->...", abd, abd)
    )
    tol = INEQUALITY_SLACK * np.maximum(1.0, np.abs(rhs))
    ok = bool(np.all(lhs1 <= rhs + tol) and np.all(lhs2 <= rhs + tol))
    return InequalityCheck(lhs1, rhs, ok)


def hermitian_trace_inequality_check(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Corollary for self-adjoint B: |tr(ABAB)| <= tr(A^2 B^2), within 1e-10 relative tolerance."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ab = a @ b
    lhs = np.abs(np.einsum("...ij,...ji->...", ab, ab))
    rhs = np.einsum("...ij,...ji->...", a @ a, b @ b).real
    ok = bool(np.all(lhs <= rhs + 1e-10 * np.maximum(1.0, np.abs(rhs))))
    return lhs, rhs, ok


@dataclass
class ContinuityReport:
    """Coupled-simulation check of continuous dependence on the Hamiltonian."""

    times: np.ndarray
    trace_dev: np.ndarray  # E tr|gamma1 - gamma2|
    trace_dev_stderr: np.ndarray
    trace_bound: np.ndarray  # 2 t ||H2 - H1|| tr gamma0
    sq_dev: np.ndarray  # E tr (gamma1 - gamma2)^2
    sq_dev_stderr: np.ndarray
    sq_bound: np.ndarray  # [2 t ||dH|| sqrt(tr gamma0^2) exp(2 t ||L||^2)]^2
    linear_pass: bool
    magnitudes: np.ndarray  # ||H1 - H2|| values of the nonlinear sweep
    nonlinear_dev: np.ndarray  # E ||rho1 - rho2||_HS at the horizon
    nonlinear_dev_stderr: np.ndarray
    slope: float
    r_squared: float
    nonlinear_pass: bool  # R^2 >= 0.95


# Scales s of the perturbations H1 + s (H2 - H1) in the nonlinear sweep.
CONTINUITY_SCALES = (1.0, 0.5, 0.25)


def hamiltonian_continuity_experiment(h1: np.ndarray, h2: np.ndarray, cfg: MonteCarloConfig) -> ContinuityReport:
    """Coupled pairs of simulations differing only in the Hamiltonian.

    The linear theorem bounds E tr|gamma1 - gamma2| and E tr(gamma1-gamma2)^2
    explicitly; both are tested at 3 stderr.  For the normalized equation the
    constant is not explicit, so the deviation at the horizon is measured for
    scaled-down perturbations H1 + s (H2 - H1), s in ``CONTINUITY_SCALES``,
    and tested for linearity in ||H1 - H2|| (R^2 of a straight-line fit).
    """
    h1 = np.asarray(h1, dtype=complex)
    h2 = np.asarray(h2, dtype=complex)
    if h1.shape != h2.shape:
        raise ValueError("Hamiltonians must share a dimension")
    p = cfg.params
    dh_norm = operator_norm(h2 - h1)
    gamma0 = np.asarray(cfg.initial, dtype=complex)
    times = cfg.checkpoint_times()
    incr = cfg.increments()

    p1 = SMEParams(h1, p.ls, p.dt, p.picture)
    p2 = SMEParams(h2, p.ls, p.dt, p.picture)
    g1 = run_linear_sme(gamma0, p1, incr, checkpoint_stride=cfg.checkpoint_stride)
    g2 = run_linear_sme(gamma0, p2, incr, checkpoint_stride=cfg.checkpoint_stride)
    diff = g1 - g2
    tr_abs = np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1).T  # (M, K+1)
    sq = np.einsum("kmij,kmji->km", diff, diff).real.T
    m = tr_abs.shape[0]
    tr_mean, tr_se = tr_abs.mean(axis=0), tr_abs.std(axis=0, ddof=1) / np.sqrt(m)
    sq_mean, sq_se = sq.mean(axis=0), sq.std(axis=0, ddof=1) / np.sqrt(m)
    tr0 = float(np.trace(gamma0).real)
    lnorm2 = coupling_norm(p.ls) ** 2
    trace_bound = 2.0 * times * dh_norm * tr0
    sq_bound = (
        2.0 * times * dh_norm * np.sqrt(np.einsum("ij,ji->", gamma0, gamma0).real)
        * np.exp(2.0 * times * lnorm2)
    ) ** 2
    linear_pass = bool(
        np.all(tr_mean <= trace_bound + 3.0 * tr_se) and np.all(sq_mean <= sq_bound + 3.0 * sq_se)
    )

    rho0 = gamma0 / tr0
    r1 = run_nonlinear_sme(rho0, p1, incr, checkpoint_stride=cfg.steps)
    devs, dev_ses, eps = [], [], []
    for s in CONTINUITY_SCALES:
        ps = SMEParams(h1 + s * (h2 - h1), p.ls, p.dt, p.picture)
        r2 = run_nonlinear_sme(rho0, ps, incr, checkpoint_stride=cfg.steps)
        d = hs_norm(r1[-1] - r2[-1])
        devs.append(float(d.mean()))
        dev_ses.append(float(d.std(ddof=1) / np.sqrt(d.shape[0])))
        eps.append(s * dh_norm)
    eps_arr = np.asarray(eps)
    dev_arr = np.asarray(devs)
    if dh_norm == 0.0:  # identical Hamiltonians: coupled paths coincide exactly
        slope, r2 = 0.0, 1.0
    else:
        slope, intercept = np.polyfit(eps_arr, dev_arr, 1)
        fitted = slope * eps_arr + intercept
        ss_res = float(np.sum((dev_arr - fitted) ** 2))
        ss_tot = float(np.sum((dev_arr - dev_arr.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ContinuityReport(
        times=times,
        trace_dev=tr_mean,
        trace_dev_stderr=tr_se,
        trace_bound=trace_bound,
        sq_dev=sq_mean,
        sq_dev_stderr=sq_se,
        sq_bound=sq_bound,
        linear_pass=linear_pass,
        magnitudes=eps_arr,
        nonlinear_dev=dev_arr,
        nonlinear_dev_stderr=np.asarray(dev_ses),
        slope=float(slope),
        r_squared=float(r2),
        nonlinear_pass=bool(r2 >= 0.95),
    )


STEPPERS = ("sme_linear", "sme_nonlinear", "lindblad_ode")


@dataclass
class ConvergenceReport:
    stepper: str
    dts: np.ndarray
    errors: np.ndarray  # strong error vs the finest level
    order: float


def convergence_order(
    stepper: str, refinements: list[float], cfg: MonteCarloConfig
) -> ConvergenceReport:
    """Least-squares slope of log(strong error vs finest) against log(dt).

    All levels are coupled: coarse increments are sums of the finest ones.
    ``refinements`` must contain at least 3 levels on top of the finest; each
    dt must be an integer multiple of the finest.
    """
    if stepper not in STEPPERS:
        raise ValueError(f"unknown stepper {stepper!r}")
    dts = sorted(float(d) for d in refinements)
    if len(dts) < 3:
        raise ValueError("need at least 3 refinement levels")
    fine = dts[0]
    p = cfg.params

    def params_at(dt):
        return SMEParams(p.h, p.ls, dt, p.picture)

    finals = {}
    if stepper == "lindblad_ode":
        for dt in dts:
            finals[dt] = deterministic_lindblad_path(cfg.initial, params_at(dt), cfg.horizon)[-1]
    else:
        run = run_linear_sme if stepper == "sme_linear" else run_nonlinear_sme
        steps_fine = round(cfg.horizon / fine)
        incr_fine = sample_wiener_batch(p.n_channels, steps_fine, fine, cfg.seed, cfg.trajectories)
        for dt in dts:
            factor = round(dt / fine)
            if abs(factor * fine - dt) > 1e-12:
                raise ValueError("each dt must be an integer multiple of the finest")
            incr = incr_fine if factor == 1 else coarsen_increments(incr_fine, factor)
            finals[dt] = run(cfg.initial, params_at(dt), incr, checkpoint_stride=incr.shape[-2])[-1]
    errors = np.array([float(np.mean(hs_norm(finals[dt] - finals[fine]))) for dt in dts[1:]])

    slope = float(np.polyfit(np.log(np.asarray(dts[1:])), np.log(errors), 1)[0])
    return ConvergenceReport(stepper, np.asarray(dts[1:]), errors, slope)

"""Pinned-seed validation suites behind the ``check`` CLI command.

Every check runs a fixed configuration with a seed committed here, so CI is
deterministic; the statistical tolerances are 3 standard errors throughout.
``fast=True`` shrinks the Monte Carlo budgets for smoke testing and is not
the acceptance gate.  Each experiment is a helper that runs it and returns
its ``CheckOutcome``s; a suite calls its helpers at pinned budgets.

Conventions: a check of one value against one bound passes at ``observed <=
bound`` (``>=`` for a lower bound), with margin ``bound - observed`` (mirrored),
so a margin >= 0 passes; theorem checks are one-sided bound tests at 3
standard errors of the Monte Carlo mean, their margins counted in standard
errors; continuity experiments couple the compared simulations through a
common driver (the variance of the difference is otherwise hopeless at desk
scale); convergence is measured against the finest level of a family of step
sizes coupled by Brownian refinement.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .ensemble import WeightedEnsemble, decompose_state, run_ensemble
from .integrate import step_count
from .linalg import (
    SIGMA_X,
    SIGMA_Z,
    coupling_norm,
    dag,
    hermitianize,
    hs_norm,
    operator_norm,
    positive_parts,
    random_density,
    random_hermitian,
    random_operator,
)
from .master import (
    SMEParams,
    deterministic_lindblad_path,
    nonlinear_sme_step,
    normalize_path,
    reconstruct_path,
    run_linear_sme,
    run_nonlinear_sme,
)
from .noise import coarsen_increments, sample_wiener_batch
from .pure import run_linear

SEEDS = {
    "trace_martingale": 514201,
    "pure_norm_martingale": 514202,
    "gamma_squared_growth": 514203,
    "gamma_squared_equality_free": 514204,
    "pure_norm_growth": 514205,
    "trace_squared_growth": 514206,
    "trace_abs_bound": 514207,
    "inequalities": 514208,
    "continuity": 514209,
    "round_trip": 514210,
    "normalized_residual": 514211,
    "ensemble_equivalence": 99,
    "convergence": 514213,
}


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    observed: float
    bound: float
    margin: float
    seed: int
    config_hash: str
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "observed": self.observed,
            "bound": self.bound,
            "margin": self.margin,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "details": self.details,
        }


def config_digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _outcome(name: str, observed, bound, seed: int, config: dict, details=None, at_least=False) -> CheckOutcome:
    """One value against one bound: pass at ``observed <= bound``, margin ``bound - observed``.

    ``at_least`` mirrors both.  A NaN observed value fails either way.
    """
    passed = observed >= bound if at_least else observed <= bound
    margin = observed - bound if at_least else bound - observed
    return CheckOutcome(name, bool(passed), observed, bound, margin, seed, config_digest(config), details or {})


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


def _qubit_params() -> SMEParams:
    return SMEParams(0.5 * SIGMA_Z, SIGMA_X[None], 1e-3)


GAMMA0 = np.diag([0.7, 0.3]).astype(complex)
CHI0 = np.array([1.0, 0.0], dtype=complex)


def _martingale(name: str, samples: np.ndarray, seed: int, config: dict) -> CheckOutcome:
    """Z-scores of the sample mean of a scalar process against its initial value.

    ``samples`` has shape (M, K+1): M trajectories observed at K+1 times.
    A deviation of exactly zero scores zero even where the spread vanishes
    (constant series).  Passes when every |z| <= 3.
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
    worst = float(np.max(np.abs(z)))
    return _outcome(name, worst, 3.0, seed, config, {"zscores": z.tolist()})


def martingale_suite(fast: bool = False, sabotage: bool = False) -> list[CheckOutcome]:
    # the fast budget still resolves the sabotage bias (0.1 t) at > 3 sigma
    m = 5000 if fast else 10_000
    stride = 100
    p = _qubit_params()
    config = {"d": 2, "L": "sigma_x", "H": "0.5 sigma_z", "M": m, "T": 1.0, "dt": p.dt}

    def increments(name):
        return sample_wiener_batch(1, 1000, p.dt, SEEDS[name], m)

    states = run_linear_sme(GAMMA0, p, increments("trace_martingale"), checkpoint_stride=stride)
    traces = np.einsum("kmii->km", states).real.T
    kets = run_linear(CHI0, p, increments("pure_norm_martingale"), checkpoint_stride=stride)
    norms = np.sum(np.abs(kets) ** 2, axis=-1).T
    times = p.dt * stride * np.arange(traces.shape[1])
    out = []
    for name, samples, extra in (
        ("trace_martingale", traces, {}),
        ("pure_norm_martingale", norms, {"state": "ket"}),
    ):
        if sabotage:
            samples = samples + 0.1 * times
        out.append(_martingale(name, samples, SEEDS[name], {**config, **extra}))
    return out


MOMENT_BOUNDS = (
    "pure_norm_growth",
    "gamma_squared_growth",
    "trace_squared_growth",
    "trace_abs_bound",
)


def _moment_bound(which: str, cfg: MonteCarloConfig) -> CheckOutcome:
    """Monte Carlo left side of a growth estimate vs its analytic right side.

    ``pure_norm_growth``:     E||chi(t)||^2 <= exp(4 t ||L||^2) ||chi0||^2
                              (linear pure dynamics driven by innovations,
                              dY = dB + 2 a dt: the rank-one ensemble)
    ``gamma_squared_growth``: E tr gamma^2(t) <= tr gamma0^2 exp(4 t ||L||^2)
    ``trace_squared_growth``: E (tr gamma)^2 <= [(tr gamma0+)^2 + (tr gamma0-)^2] exp(4 t ||L||^2)
    ``trace_abs_bound``:      E tr|gamma(t)| <= tr|gamma0|

    ||L|| is the summed per-channel operator norm.  Pass means every
    checkpoint margin is >= -3 stderr; the outcome reports the horizon's
    mean and bound, the worst margin, and every checkpoint in ``details``,
    where the margin of a checkpoint with stderr 0 is None: it is ±inf,
    which JSON cannot hold.
    """
    if which not in MOMENT_BOUNDS:
        raise ValueError(f"unknown bound {which!r}; expected one of {MOMENT_BOUNDS}")
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
    else:
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

    observed = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    # deterministic checkpoints (stderr 0) pass on equality up to roundoff
    slack = bound - observed + 1e-10 * np.maximum(1.0, np.abs(bound))
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = np.where(
            stderr > 0.0, (bound - observed) / stderr, np.where(slack >= 0.0, np.inf, -np.inf)
        )
    passed = bool(margin.min() >= -3.0)
    return CheckOutcome(
        which,
        passed,
        float(observed[-1]),
        float(bound[-1]),
        float(margin.min()),
        cfg.seed,
        config_digest({"which": which, "M": cfg.trajectories}),
        {
            "name": which,
            "times": times.tolist(),
            "observed": observed.tolist(),
            "bound": bound.tolist(),
            "margin": [m if np.isfinite(m) else None for m in margin.tolist()],
            "pass": passed,
        },
    )


def bounds_suite(fast: bool = False) -> list[CheckOutcome]:
    m = 500 if fast else 10_000
    specs = [
        ("gamma_squared_growth", GAMMA0),
        ("trace_squared_growth", np.diag([0.75, -0.25]).astype(complex)),
        ("trace_abs_bound", 0.5 * SIGMA_Z),
        ("pure_norm_growth", CHI0),
    ]
    out = [
        _moment_bound(name, MonteCarloConfig(_qubit_params(), initial, 1.0, m, SEEDS[name], checkpoint_stride=100))
        for name, initial in specs
    ]

    # L = 0 reduction: in the interaction picture the free flow is exact, so
    # E tr gamma^2 must equal tr gamma0^2 to roundoff, not just within stderr.
    seed = SEEDS["gamma_squared_equality_free"]
    gamma0 = hermitianize(np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]))
    p = SMEParams(0.5 * SIGMA_Z, np.zeros((1, 2, 2), complex), 1e-3, "interaction")
    cfg = MonteCarloConfig(p, gamma0, 1.0, 64 if fast else 256, seed, checkpoint_stride=250)
    free = _moment_bound("gamma_squared_growth", cfg).details
    defect = float(np.max(np.abs(np.array(free["observed"]) - np.array(free["bound"]))))
    config = {"which": "gamma_squared_growth", "L": 0}
    details = {"observed": free["observed"], "bound": free["bound"]}
    out.append(_outcome("gamma_squared_equality_free", defect, 1e-10, seed, config, details))
    return out


INEQUALITY_SLACK = 1e-10  # relative tolerance of both trace inequalities and their corollary


def _trace_inequalities(a: np.ndarray, b: np.ndarray, seed: int) -> CheckOutcome:
    """Direct evaluation of the trace inequalities for self-adjoint A, bounded B.

    2|tr(ABAB†)| <= tr[A^2(BB† + B†B)] and |tr(ABAB + AB†AB†)| <= same right
    side, and the corollary for self-adjoint B, |tr(ABAB)| <= tr(A^2 B^2),
    taken at B -> (B + B†)/2; each within ``INEQUALITY_SLACK`` relative
    tolerance.  Broadcasts over leading batch axes.  The outcome observes the
    least slack of the first inequality and reports the corollary's verdict
    in ``details``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    d = a.shape[-1]
    count = a.size // (d * d)
    a2 = a @ a
    ab = a @ b
    abd = a @ dag(b)
    lhs1 = 2.0 * np.abs(np.einsum("...ij,...ji->...", ab, abd))
    rhs = np.einsum("...ij,...ji->...", a2, b @ dag(b) + dag(b) @ b).real
    lhs2 = np.abs(
        np.einsum("...ij,...ji->...", ab, ab) + np.einsum("...ij,...ji->...", abd, abd)
    )
    tol = INEQUALITY_SLACK * np.maximum(1.0, np.abs(rhs))
    ok = bool(np.all(lhs1 <= rhs + tol) and np.all(lhs2 <= rhs + tol))

    bh = hermitianize(b)
    abh = a @ bh
    lhs_h = np.abs(np.einsum("...ij,...ji->...", abh, abh))
    rhs_h = np.einsum("...ij,...ji->...", a2, bh @ bh).real
    ok_h = bool(np.all(lhs_h <= rhs_h + INEQUALITY_SLACK * np.maximum(1.0, np.abs(rhs_h))))

    slack1 = float(np.min(rhs - lhs1))
    return CheckOutcome(
        f"trace_inequalities_d{d}",
        ok and ok_h,
        slack1,
        0.0,
        slack1,
        seed,
        config_digest({"d": d, "count": count}),
        {"count": count, "hermitian_corollary": ok_h},
    )


def inequalities_suite(fast: bool = False) -> list[CheckOutcome]:
    count = 500 if fast else 10_000
    rng = np.random.default_rng(SEEDS["inequalities"])
    out = []
    for d in (2, 4, 8, 16):
        a = np.stack([random_hermitian(d, rng) for _ in range(count)])
        b = np.stack([random_operator(d, rng) for _ in range(count)])
        out.append(_trace_inequalities(a, b, SEEDS["inequalities"]))
    return out


# Scales s of the perturbations H1 + s (H2 - H1) in the nonlinear sweep.
CONTINUITY_SCALES = (1.0, 0.5, 0.25)


def _continuity(h1: np.ndarray, h2: np.ndarray, cfg: MonteCarloConfig) -> list[CheckOutcome]:
    """Coupled pairs of simulations differing only in the Hamiltonian.

    The linear theorem bounds E tr|gamma1 - gamma2| <= 2 t ||dH|| tr gamma0 and
    E tr(gamma1-gamma2)^2 <= [2 t ||dH|| sqrt(tr gamma0^2) exp(2 t ||L||^2)]^2
    explicitly; both are tested at 3 stderr (``hamiltonian_continuity_linear``).
    For the normalized equation the constant is not explicit, so the mean
    ||rho1 - rho2||_HS at the horizon is measured for scaled-down
    perturbations H1 + s (H2 - H1), s in ``CONTINUITY_SCALES``, and tested
    for linearity in ||H1 - H2||: R^2 >= 0.95 of a straight-line fit
    (``hamiltonian_continuity_nonlinear_r2``), and halving the perturbation
    halves the deviation within 3 combined stderr
    (``hamiltonian_continuity_scaling``).
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
    with np.errstate(divide="ignore", invalid="ignore"):  # stderr 0 when H1 == H2
        worst = float(np.min((trace_bound - tr_mean)[1:] / tr_se[1:]))

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
    dev = np.asarray(devs)
    se = np.asarray(dev_ses)
    if dh_norm == 0.0:  # identical Hamiltonians: coupled paths coincide exactly
        slope, r_squared = 0.0, 1.0
    else:
        slope, intercept = np.polyfit(eps_arr, dev, 1)
        fitted = slope * eps_arr + intercept
        ss_res = float(np.sum((dev - fitted) ** 2))
        ss_tot = float(np.sum((dev - dev.mean()) ** 2))
        r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    gap = abs(dev[1] - 0.5 * dev[0])
    tol = 3.0 * float(np.hypot(se[1], 0.5 * se[0]))
    return [
        CheckOutcome(
            "hamiltonian_continuity_linear",
            linear_pass,
            float(tr_mean[-1]),
            float(trace_bound[-1]),
            worst,
            cfg.seed,
            config_digest({"dH": dh_norm, "M": cfg.trajectories, "T": cfg.horizon}),
            {"sq_dev": sq_mean.tolist(), "sq_bound": sq_bound.tolist()},
        ),
        _outcome(
            "hamiltonian_continuity_nonlinear_r2", r_squared, 0.95, cfg.seed, {"magnitudes": list(eps_arr)},
            {"devs": dev.tolist(), "slope": float(slope)}, at_least=True,
        ),
        _outcome("hamiltonian_continuity_scaling", gap, tol, cfg.seed, {"magnitudes": list(eps_arr)}),
    ]


def continuity_suite(fast: bool = False) -> list[CheckOutcome]:
    m = 400 if fast else 4000
    h1 = np.zeros((2, 2), complex)
    p = SMEParams(h1, SIGMA_Z[None], 1e-3, "schroedinger")
    gamma0 = np.diag([0.6, 0.4]).astype(complex)
    cfg = MonteCarloConfig(p, gamma0, 0.5, m, SEEDS["continuity"], checkpoint_stride=50)
    return _continuity(h1, 0.1 * SIGMA_X, cfg)


def _residual_max(rhos: np.ndarray, db: np.ndarray, p: SMEParams) -> np.ndarray:
    """Per-path max one-step residual of normalized paths against the nonlinear equation.

    ``rhos`` is (K+1, M, d, d) and ``db`` is (M, K, n), as ``normalize_path`` returns them.
    """
    worst = np.zeros(rhos.shape[1])
    for k in range(db.shape[-2]):
        predicted = nonlinear_sme_step(rhos[k], p, db[:, k], k * p.dt)
        worst = np.maximum(worst, hs_norm(rhos[k + 1] - predicted))
    return worst


def _scaled_draw(rng, d: int, rank: int | None = None):
    """Pinned random scenario with moderate coupling: |H| = 0.7, |L| = 0.8."""
    rho0 = random_density(d, rng, rank=rank)
    h = random_hermitian(d, rng)
    h *= 0.7 / operator_norm(h)
    l = random_operator(d, rng)
    l *= 0.8 / operator_norm(l)
    return rho0, h, l


def _halving(name: str, seed: int, config: dict, key: str, h, l, n_paths: int, error) -> CheckOutcome:
    """``error(params, increments)`` shrinks by <= 0.75 per dt halving on noise coupled by Brownian refinement.

    ``n_paths`` paths at dt = 2.5e-3 over a unit horizon, coarsened by 4, 2 and 1; the outcome
    observes the larger of the two consecutive ratios and lists the errors under ``details[key]``.
    Its config hash covers ``config`` with the step sizes and the path count.
    """
    fine_dt = 2.5e-3
    fines = sample_wiener_batch(1, round(1.0 / fine_dt), fine_dt, seed, n_paths)
    errors = []
    for factor in (4, 2, 1):
        incr = coarsen_increments(fines, factor) if factor > 1 else fines
        errors.append(error(SMEParams(h, l[None], fine_dt * factor, "schroedinger"), incr))
    worst = max(errors[i + 1] / errors[i] for i in range(2))
    config = {**config, "dts": [1e-2, 5e-3, 2.5e-3], "paths": n_paths}
    return _outcome(name, worst, 0.75, seed, config, {key: errors})


def equivalence_suite(fast: bool = False) -> list[CheckOutcome]:
    # Round trip between linear and normalized descriptions of one path.
    seed = SEEDS["round_trip"]
    rng = np.random.default_rng(seed)
    d = 4
    gamma0 = random_density(d, rng)
    p = SMEParams(random_hermitian(d, rng), random_operator(d, rng)[None], 1e-3, "schroedinger")
    incr = sample_wiener_batch(1, round(0.5 / p.dt), p.dt, seed, 1)[0]
    gammas = run_linear_sme(gamma0, p, incr)
    back, _ = reconstruct_path(*normalize_path(gammas, incr, p.ls, p.dt), p.ls, p.dt)
    rel = float(np.max(hs_norm(back - gammas)) / np.max(hs_norm(gammas)))
    out = [_outcome("linear_normalized_round_trip", rel, 1e-9, seed, {"d": d, "T": 0.5})]

    # One-step residual of the normalized path against the nonlinear equation
    # shrinks by <= 0.75 per dt halving (coupled noise, max residual per path
    # averaged over a batch of paths).
    seed = SEEDS["normalized_residual"]
    gamma0, h, l = _scaled_draw(np.random.default_rng(seed), 2)
    n_paths = 8 if fast else 64

    def residual(pd, incr):
        rhos, db = normalize_path(run_linear_sme(gamma0, pd, incr), incr, pd.ls, pd.dt)
        return float(_residual_max(rhos, db, pd).mean())

    out.append(_halving("normalized_residual_halving", seed, {}, "residuals", h, l, n_paths, residual))

    # Ensemble unraveling reproduces the direct nonlinear path as dt -> 0.
    # The inter-scheme distance is strong-order 0.5 (ratio ~ 1/sqrt(2) per
    # halving), so the per-path max distance is averaged over a wide batch.
    seed = SEEDS["ensemble_equivalence"]
    d = 4
    rho0, h, l = _scaled_draw(np.random.default_rng(seed), d, rank=3)
    n_paths = 32 if fast else 256

    def distance(pd, incr):
        stride = round(1e-2 / pd.dt)  # compare on the common coarse grid
        direct = run_nonlinear_sme(rho0, pd, incr, checkpoint_stride=stride)
        ens = run_ensemble(decompose_state(rho0), pd, incr, checkpoint_stride=stride)
        return float(np.max(hs_norm(direct - ens), axis=0).mean())

    config = {"d": d, "rank": 3}
    out.append(_halving("ensemble_equivalence_halving", seed, config, "distances", h, l, n_paths, distance))
    return out


STEPPERS = ("sme_linear", "sme_nonlinear", "lindblad_ode")


def _convergence(stepper: str, refinements: list[float], cfg: MonteCarloConfig) -> CheckOutcome:
    """Least-squares slope of log(strong error vs finest) against log(dt).

    All levels are coupled: coarse increments are sums of the finest ones.
    ``refinements`` must contain at least 3 levels on top of the finest; each
    dt must be an integer multiple of the finest.  The RK4 Lindblad oracle
    passes at order >= 3.5, an Euler SME stepper within [0.4, 1.1].
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

    order = float(np.polyfit(np.log(np.asarray(dts[1:])), np.log(errors), 1)[0])
    if stepper == "lindblad_ode":
        return _outcome(
            "lindblad_ode_order", order, 3.5, cfg.seed, {"stepper": stepper}, {"errors": errors.tolist()}, at_least=True
        )
    return CheckOutcome(
        f"{stepper}_strong_order",
        0.4 <= order <= 1.1,
        order,
        0.4,
        order - 0.4,
        cfg.seed,
        config_digest({"stepper": stepper, "M": cfg.trajectories}),
        {"errors": errors.tolist(), "band": [0.4, 1.1]},
    )


def convergence_suite(fast: bool = False) -> list[CheckOutcome]:
    seed = SEEDS["convergence"]
    m = 50 if fast else 200
    rho0 = hermitianize(np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]))
    p = _qubit_params()
    out = [_convergence("lindblad_ode", [0.0125, 0.025, 0.05, 0.1], MonteCarloConfig(p, rho0, 1.0, 1, seed))]
    for stepper, initial in (("sme_linear", GAMMA0), ("sme_nonlinear", rho0)):
        cfg = MonteCarloConfig(p, initial, 0.5, m, seed)
        out.append(_convergence(stepper, [5e-4, 1e-3, 2e-3, 4e-3], cfg))
    return out


# Suite name -> its outcomes at the given ``fast``, in the order ``all`` runs
# them.  Only the martingale suite has a sabotaged variant; ``run_suite``
# applies it.
SUITES = {
    "martingale": martingale_suite,
    "bounds": bounds_suite,
    "inequalities": inequalities_suite,
    "continuity": continuity_suite,
    "equivalence": equivalence_suite,
    "convergence": convergence_suite,
}


def run_suite(
    name: str, fast: bool = False, sabotage: bool = False
) -> tuple[list[CheckOutcome], bool]:
    """Run one named suite (or ``all``); returns outcomes and the overall verdict.

    ``sabotage`` biases the martingale samples, so the run must fail; it is
    rejected for a suite other than ``martingale`` or ``all``.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {('all', *SUITES)}")
    if sabotage and name not in ("all", "martingale"):
        raise ValueError(f"suite {name!r} has no sabotaged variant")
    results = []
    for suite in SUITES if name == "all" else (name,):
        results.extend(martingale_suite(fast, sabotage) if suite == "martingale" else SUITES[suite](fast))
    return results, all(r.passed for r in results)

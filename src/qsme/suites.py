"""Pinned-seed validation suites behind the ``check`` CLI command.

Every check runs a fixed configuration with a seed committed here, so CI is
deterministic; the statistical tolerances are 3 standard errors throughout.
``fast=True`` shrinks the Monte Carlo budgets for smoke testing and is not
the acceptance gate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .ensemble import decompose_state, run_ensemble
from .linalg import (
    SIGMA_X,
    SIGMA_Z,
    hermitianize,
    hs_norm,
    operator_norm,
    random_density,
    random_hermitian,
    random_operator,
)
from .master import (
    SMEParams,
    nonlinear_sme_step,
    normalize_path,
    reconstruct_path,
    run_linear_sme,
    run_nonlinear_sme,
)
from .noise import coarsen_increments, sample_wiener_batch
from .pure import run_linear
from .validation import (
    MonteCarloConfig,
    convergence_order,
    hamiltonian_continuity_experiment,
    hermitian_trace_inequality_check,
    martingale_test,
    moment_bound_check,
    trace_inequality_check,
)

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


def _qubit_params() -> SMEParams:
    return SMEParams(0.5 * SIGMA_Z, SIGMA_X[None], 1e-3)


GAMMA0 = np.diag([0.7, 0.3]).astype(complex)
CHI0 = np.array([1.0, 0.0], dtype=complex)


def martingale_suite(fast: bool = False, sabotage: bool = False) -> list[CheckOutcome]:
    # the fast budget still resolves the sabotage bias (0.1 t) at > 3 sigma
    m = 5000 if fast else 10_000
    stride = 100
    out = []

    p = _qubit_params()
    seed = SEEDS["trace_martingale"]
    cfg = {"d": 2, "L": "sigma_x", "H": "0.5 sigma_z", "M": m, "T": 1.0, "dt": p.dt}
    incr = sample_wiener_batch(1, 1000, p.dt, seed, m)
    states = run_linear_sme(GAMMA0, p, incr, checkpoint_stride=stride)
    samples = np.einsum("kmii->km", states).real.T
    times = p.dt * stride * np.arange(samples.shape[1])
    if sabotage:
        samples = samples + 0.1 * times
    res = martingale_test(samples, times)
    out.append(
        CheckOutcome(
            "trace_martingale",
            res.passed(),
            res.max_abs_z,
            3.0,
            3.0 - res.max_abs_z,
            seed,
            config_digest(cfg),
            {"zscores": res.zscores.tolist()},
        )
    )

    seed = SEEDS["pure_norm_martingale"]
    cfg = {"d": 2, "L": "sigma_x", "H": "0.5 sigma_z", "M": m, "T": 1.0, "dt": p.dt, "state": "ket"}
    incr = sample_wiener_batch(1, 1000, p.dt, seed, m)
    kets = run_linear(CHI0, p, incr, checkpoint_stride=stride)
    samples = np.sum(np.abs(kets) ** 2, axis=-1).T
    if sabotage:
        samples = samples + 0.1 * times
    res = martingale_test(samples, times)
    out.append(
        CheckOutcome(
            "pure_norm_martingale",
            res.passed(),
            res.max_abs_z,
            3.0,
            3.0 - res.max_abs_z,
            seed,
            config_digest(cfg),
            {"zscores": res.zscores.tolist()},
        )
    )
    return out


def bounds_suite(fast: bool = False) -> list[CheckOutcome]:
    m = 500 if fast else 10_000
    out = []
    specs = [
        ("gamma_squared_growth", GAMMA0),
        ("trace_squared_growth", np.diag([0.75, -0.25]).astype(complex)),
        ("trace_abs_bound", 0.5 * SIGMA_Z),
        ("pure_norm_growth", CHI0),
    ]
    for name, initial in specs:
        seed = SEEDS[name]
        p = _qubit_params()
        cfg = MonteCarloConfig(p, initial, 1.0, m, seed, checkpoint_stride=100)
        res = moment_bound_check(name, cfg)
        worst = float(res.margin.min())
        out.append(
            CheckOutcome(
                name,
                res.passed,
                float(res.observed[-1]),
                float(res.bound[-1]),
                worst,
                seed,
                config_digest({"which": name, "M": m}),
                res.to_json(),
            )
        )

    # L = 0 reduction: in the interaction picture the free flow is exact, so
    # E tr gamma^2 must equal tr gamma0^2 to roundoff, not just within stderr.
    seed = SEEDS["gamma_squared_equality_free"]
    gamma0 = hermitianize(np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]))
    p = SMEParams(0.5 * SIGMA_Z, np.zeros((1, 2, 2), complex), 1e-3, "interaction")
    cfg = MonteCarloConfig(p, gamma0, 1.0, 64 if fast else 256, seed, checkpoint_stride=250)
    res = moment_bound_check("gamma_squared_growth", cfg)
    defect = float(np.max(np.abs(res.observed - res.bound)))
    out.append(
        CheckOutcome(
            "gamma_squared_equality_free",
            defect <= 1e-10,
            defect,
            1e-10,
            1e-10 - defect,
            seed,
            config_digest({"which": "gamma_squared_growth", "L": 0}),
            {"observed": res.observed.tolist(), "bound": res.bound.tolist()},
        )
    )
    return out


def inequalities_suite(fast: bool = False) -> list[CheckOutcome]:
    count = 500 if fast else 10_000
    rng = np.random.default_rng(SEEDS["inequalities"])
    out = []
    for d in (2, 4, 8, 16):
        a = np.stack([random_hermitian(d, rng) for _ in range(count)])
        b = np.stack([random_operator(d, rng) for _ in range(count)])
        res = trace_inequality_check(a, b)
        _, _, ok_h = hermitian_trace_inequality_check(a, hermitianize(b))
        slack1 = float(np.min(res.rhs1 - res.lhs1))
        out.append(
            CheckOutcome(
                f"trace_inequalities_d{d}",
                res.ok and ok_h,
                slack1,
                0.0,
                slack1,
                SEEDS["inequalities"],
                config_digest({"d": d, "count": count}),
                {"count": count, "hermitian_corollary": ok_h},
            )
        )
    return out


def continuity_suite(fast: bool = False) -> list[CheckOutcome]:
    m = 400 if fast else 4000
    seed = SEEDS["continuity"]
    h1 = np.zeros((2, 2), complex)
    h2 = 0.1 * SIGMA_X
    p = SMEParams(h1, SIGMA_Z[None], 1e-3, "schroedinger")
    gamma0 = np.diag([0.6, 0.4]).astype(complex)
    cfg = MonteCarloConfig(p, gamma0, 0.5, m, seed, checkpoint_stride=50)
    rep = hamiltonian_continuity_experiment(h1, h2, cfg)
    worst = float(np.min((rep.trace_bound - rep.trace_dev)[1:] / rep.trace_dev_stderr[1:]))
    out = [
        CheckOutcome(
            "hamiltonian_continuity_linear",
            rep.linear_pass,
            float(rep.trace_dev[-1]),
            float(rep.trace_bound[-1]),
            worst,
            seed,
            config_digest({"dH": 0.1, "M": m, "T": 0.5}),
            {"sq_dev": rep.sq_dev.tolist(), "sq_bound": rep.sq_bound.tolist()},
        ),
        CheckOutcome(
            "hamiltonian_continuity_nonlinear_r2",
            rep.nonlinear_pass,
            rep.r_squared,
            0.95,
            rep.r_squared - 0.95,
            seed,
            config_digest({"magnitudes": list(rep.magnitudes)}),
            {"devs": rep.nonlinear_dev.tolist(), "slope": rep.slope},
        ),
    ]
    # halving the perturbation halves the deviation, within combined stderr
    dev, se = rep.nonlinear_dev, rep.nonlinear_dev_stderr
    gap = abs(dev[1] - 0.5 * dev[0])
    tol = 3.0 * float(np.hypot(se[1], 0.5 * se[0]))
    out.append(
        CheckOutcome(
            "hamiltonian_continuity_scaling",
            gap <= tol,
            gap,
            tol,
            tol - gap,
            seed,
            config_digest({"magnitudes": list(rep.magnitudes)}),
            {},
        )
    )
    return out


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


def equivalence_suite(fast: bool = False) -> list[CheckOutcome]:
    out = []
    horizon = 1.0
    fine_dt = 2.5e-3
    fine_steps = round(horizon / fine_dt)

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
    out.append(
        CheckOutcome(
            "linear_normalized_round_trip",
            rel <= 1e-9,
            rel,
            1e-9,
            1e-9 - rel,
            seed,
            config_digest({"d": d, "T": 0.5}),
            {},
        )
    )

    # One-step residual of the normalized path against the nonlinear equation
    # shrinks by <= 0.75 per dt halving (coupled noise, max residual per path
    # averaged over a batch of paths).
    seed = SEEDS["normalized_residual"]
    rng = np.random.default_rng(seed)
    gamma0, h, l = _scaled_draw(rng, 2)
    n_paths = 8 if fast else 64
    fines = sample_wiener_batch(1, fine_steps, fine_dt, seed, n_paths)
    residuals = []
    for factor in (4, 2, 1):
        dt = fine_dt * factor
        incr = coarsen_increments(fines, factor) if factor > 1 else fines
        pd = SMEParams(h, l[None], dt, "schroedinger")
        rhos, db = normalize_path(run_linear_sme(gamma0, pd, incr), incr, pd.ls, dt)
        residuals.append(float(_residual_max(rhos, db, pd).mean()))
    ratios = [residuals[i + 1] / residuals[i] for i in range(2)]
    out.append(
        CheckOutcome(
            "normalized_residual_halving",
            max(ratios) <= 0.75,
            max(ratios),
            0.75,
            0.75 - max(ratios),
            seed,
            config_digest({"dts": [1e-2, 5e-3, 2.5e-3], "paths": n_paths}),
            {"residuals": residuals},
        )
    )

    # Ensemble unraveling reproduces the direct nonlinear path as dt -> 0.
    # The inter-scheme distance is strong-order 0.5 (ratio ~ 1/sqrt(2) per
    # halving), so the per-path max distance is averaged over a wide batch.
    seed = SEEDS["ensemble_equivalence"]
    rng = np.random.default_rng(seed)
    d = 4
    rho0, h, l = _scaled_draw(rng, d, rank=3)
    n_paths = 32 if fast else 256
    fines = sample_wiener_batch(1, fine_steps, fine_dt, seed, n_paths)
    dists = []
    for factor in (4, 2, 1):
        dt = fine_dt * factor
        incr = coarsen_increments(fines, factor) if factor > 1 else fines
        pd = SMEParams(h, l[None], dt, "schroedinger")
        stride = round(1e-2 / dt)  # compare on the common coarse grid
        direct = run_nonlinear_sme(rho0, pd, incr, checkpoint_stride=stride)
        ens = run_ensemble(decompose_state(rho0), pd, incr, checkpoint_stride=stride)
        dists.append(float(np.max(hs_norm(direct - ens), axis=0).mean()))
    ratios = [dists[i + 1] / dists[i] for i in range(2)]
    out.append(
        CheckOutcome(
            "ensemble_equivalence_halving",
            max(ratios) <= 0.75,
            max(ratios),
            0.75,
            0.75 - max(ratios),
            seed,
            config_digest({"d": d, "rank": 3, "dts": [1e-2, 5e-3, 2.5e-3], "paths": n_paths}),
            {"distances": dists},
        )
    )
    return out


def convergence_suite(fast: bool = False) -> list[CheckOutcome]:
    seed = SEEDS["convergence"]
    m = 50 if fast else 200
    out = []

    rho0 = hermitianize(np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]))
    p = _qubit_params()
    cfg = MonteCarloConfig(p, rho0, 1.0, 1, seed)
    rep = convergence_order("lindblad_ode", [0.0125, 0.025, 0.05, 0.1], cfg)
    out.append(
        CheckOutcome(
            "lindblad_ode_order",
            rep.order >= 3.5,
            rep.order,
            3.5,
            rep.order - 3.5,
            seed,
            config_digest({"stepper": "lindblad_ode"}),
            {"errors": rep.errors.tolist()},
        )
    )

    for stepper, initial in (("sme_linear", GAMMA0), ("sme_nonlinear", rho0)):
        cfg = MonteCarloConfig(p, initial, 0.5, m, seed)
        rep = convergence_order(stepper, [5e-4, 1e-3, 2e-3, 4e-3], cfg)
        ok = 0.4 <= rep.order <= 1.1
        out.append(
            CheckOutcome(
                f"{stepper}_strong_order",
                ok,
                rep.order,
                0.4,
                rep.order - 0.4,
                seed,
                config_digest({"stepper": stepper, "M": m}),
                {"errors": rep.errors.tolist(), "band": [0.4, 1.1]},
            )
        )
    return out


# Suite name -> its outcomes for (fast, sabotage), in the order ``all`` runs
# them; only the martingale suite has a sabotaged variant.
SUITES = {
    "martingale": martingale_suite,
    "bounds": lambda fast, sabotage: bounds_suite(fast),
    "inequalities": lambda fast, sabotage: inequalities_suite(fast),
    "continuity": lambda fast, sabotage: continuity_suite(fast),
    "equivalence": lambda fast, sabotage: equivalence_suite(fast),
    "convergence": lambda fast, sabotage: convergence_suite(fast),
}


def run_suite(
    name: str, fast: bool = False, sabotage: bool = False
) -> tuple[list[CheckOutcome], bool]:
    """Run one named suite (or ``all``); returns outcomes and the overall verdict."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {('all', *SUITES)}")
    results = []
    for suite in SUITES if name == "all" else (name,):
        results.extend(SUITES[suite](fast, sabotage))
    return results, all(r.passed for r in results)

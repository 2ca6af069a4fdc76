"""Acceptance gate: every criterion at its stated tolerance, pinned seeds.

Each test prints one PASS/FAIL line.  Budgets stay at desk scale (d <= 16,
n <= 3 channels, T <= 1, dt >= 2.5e-4, M <= 1e4) and each criterion runs in
well under five minutes.
"""

import time

import numpy as np
import pytest

from qsme.linalg import (
    SIGMA_X,
    SIGMA_Z,
    hermitianize,
    hs_norm,
    operator_norm,
    random_operator,
)
from qsme.master import (
    SMEParams,
    deterministic_lindblad_path,
    run_linear_sme,
    run_nonlinear_sme,
)
from qsme.meanfield import (
    InteractionMap,
    MeanFieldConfig,
    mckean_vlasov_solve,
    reweighted_expectation,
)
from qsme.noise import coarsen_increments, sample_wiener_batch
from qsme.pure import jacobian_norm_estimate
from qsme.suites import (
    SEEDS,
    bounds_suite,
    continuity_suite,
    equivalence_suite,
    inequalities_suite,
    martingale_suite,
)

from oracles import random_ket

GAMMA0 = np.diag([0.7, 0.3]).astype(complex)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {verdict} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def bounds_outcomes():
    return {r.name: r for r in bounds_suite()}


@pytest.fixture(scope="module")
def equivalence_outcomes():
    return {r.name: r for r in equivalence_suite()}


def test_criterion_01_trace_martingale():
    # 1e4 Brownian-driven linear SME paths, d=2, L=sigma_x: max |z| <= 3
    outcomes = {r.name: r for r in martingale_suite()}
    r = outcomes["trace_martingale"]
    _report(1, "trace martingale", r.passed, f"max|z|={r.observed:.2f}")


def test_criterion_02_positivity():
    # 1e3 paths, PSD full-rank gamma0: min eigenvalue above the Euler
    # allowance at every step, and the worst dip shrinks >= 1.5x per halving
    h, l = 0.5 * SIGMA_Z, SIGMA_X
    fine_dt = 5e-4
    fine = sample_wiener_batch(1, round(0.5 / fine_dt), fine_dt, 21, 1000)
    worsts, bounds = [], []
    for factor in (2, 1):
        dt = fine_dt * factor
        incr = coarsen_increments(fine, factor) if factor > 1 else fine
        p = SMEParams(h, l[None], dt)
        mins = run_linear_sme(GAMMA0, p, incr, reduce=lambda frame, k: np.linalg.eigvalsh(frame)[..., 0])
        worsts.append(float(np.maximum(0.0, -mins).max()))
        bounds.append(10 * dt * operator_norm(l) ** 2 * float(np.trace(GAMMA0).real))
    ok = worsts[0] <= bounds[0] and worsts[1] <= bounds[1] and worsts[1] <= worsts[0] / 1.5
    _report(2, "positivity", ok, f"violations={worsts[0]:.2e},{worsts[1]:.2e} bounds={bounds[0]:.0e},{bounds[1]:.0e}")


def test_criterion_03_second_moment_growth(bounds_outcomes):
    grow = bounds_outcomes["gamma_squared_growth"]
    free = bounds_outcomes["gamma_squared_equality_free"]
    ok = grow.passed and free.passed
    _report(3, "second-moment growth", ok,
            f"worst margin={grow.margin:.2f} stderr; L=0 defect={free.observed:.1e}")


def test_criterion_04_pure_norm_growth(bounds_outcomes):
    r = bounds_outcomes["pure_norm_growth"]
    _report(4, "pure-norm growth", r.passed, f"worst margin={r.margin:.2f} stderr")


def test_criterion_05_linear_normalized_correspondence(equivalence_outcomes):
    trip = equivalence_outcomes["linear_normalized_round_trip"]
    residual = equivalence_outcomes["normalized_residual_halving"]
    ok = trip.passed and residual.passed
    _report(5, "linear<->normalized correspondence", ok,
            f"round-trip rel err={trip.observed:.1e}; worst residual ratio={residual.observed:.3f}")


def test_criterion_06_ensemble_equivalence(equivalence_outcomes):
    r = equivalence_outcomes["ensemble_equivalence_halving"]
    _report(6, "ensemble unraveling equivalence", r.passed, f"worst ratio={r.observed:.3f}")


def test_criterion_07_mean_vs_deterministic_lindblad():
    # MC mean of 1e4 nonlinear paths tracks the RK4 oracle at each checkpoint
    p = SMEParams(0.5 * SIGMA_Z, SIGMA_X[None], 1e-3)
    m = 10_000
    incr = sample_wiener_batch(1, 500, 1e-3, 514214, m)
    states = run_nonlinear_sme(GAMMA0, p, incr, checkpoint_stride=50)
    oracle = deterministic_lindblad_path(GAMMA0, p, 0.5, steps=500, checkpoint_stride=50)
    ok, worst = True, 0.0
    for k in range(states.shape[0]):
        diff = states[k] - oracle[k]
        se = np.sqrt(
            (diff.real.std(axis=0, ddof=1) ** 2 + diff.imag.std(axis=0, ddof=1) ** 2).sum() / m
        )
        gap = float(hs_norm(states[k].mean(axis=0) - oracle[k]))
        ok = ok and gap <= 3 * se + 1e-10
        worst = max(worst, gap - 3 * se)

    # closed-form oracle: H=0, L=sigma_z dephasing decays off-diagonals as exp(-2t)
    pz = SMEParams(np.zeros((2, 2)), SIGMA_Z[None], 1e-3)
    rho0 = hermitianize(np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]]))
    states_z = run_nonlinear_sme(rho0, pz, sample_wiener_batch(1, 500, 1e-3, 514215, m),
                                 checkpoint_stride=100)
    for k in range(1, states_z.shape[0]):
        t = 0.1 * k
        offdiag = states_z[k, :, 0, 1]
        se = np.hypot(offdiag.real.std(ddof=1), offdiag.imag.std(ddof=1)) / np.sqrt(m)
        gap = abs(offdiag.mean() - (0.25 + 0.1j) * np.exp(-2 * t))
        ok = ok and gap <= 3 * se
    _report(7, "mean vs deterministic Lindblad", ok, f"worst (gap - 3se)={worst:.2e}")


def test_criterion_08_hamiltonian_continuity():
    outcomes = {r.name: r for r in continuity_suite()}
    lin = outcomes["hamiltonian_continuity_linear"]
    r2 = outcomes["hamiltonian_continuity_nonlinear_r2"]
    ok = lin.passed and r2.passed
    _report(8, "Hamiltonian continuity", ok,
            f"trace-bound margin={lin.margin:.1f} stderr; R^2={r2.observed:.4f}")


def test_criterion_09_lipschitz_lemma():
    rng = np.random.default_rng(SEEDS["round_trip"])
    worst = -np.inf
    for _ in range(100):
        d = int(rng.integers(2, 9))
        m_op = random_operator(d, rng)
        psi = random_ket(d, rng)
        worst = max(worst, jacobian_norm_estimate(m_op, psi) - 5 * operator_norm(m_op))
    _report(9, "mean-map derivative bound", worst <= 1e-6, f"max(J - 5|M|)={worst:.2e}")


def test_criterion_10_appendix_inequalities():
    # the inequalities suite: 1e4 draws at each d in {2, 4, 8, 16}, both inequalities
    t0 = time.time()
    ok = all(r.passed for r in inequalities_suite())
    elapsed = time.time() - t0
    _report(10, "appendix trace inequalities", ok and elapsed <= 60.0, f"runtime={elapsed:.1f}s")


def test_criterion_11_picard_contraction():
    rho0 = np.array([[0.65, 0.15], [0.15, 0.35]], dtype=complex)
    p = SMEParams(0.3 * SIGMA_X, SIGMA_Z[None], 1e-3)
    table = np.array([[1.0, -1.0], [-1.0, 1.0]])  # A(eta) = sigma_z tr(sigma_z eta), C_A = 1
    cfg = MeanFieldConfig(
        p, InteractionMap.from_potential(table), rho0,
        trajectories=500, horizon=0.25, picard_max_iter=20, picard_tol=1e-4, seed=4242,
    )
    rep = mckean_vlasov_solve(cfg)
    d = rep.iteration_distances
    contraction_ok = rep.converged and all(d[i + 1] < d[i] for i in range(len(d) - 1))

    cfg0 = MeanFieldConfig(
        p, InteractionMap.zero(2), rho0,
        trajectories=500, horizon=0.25, picard_max_iter=20, picard_tol=1e-4, seed=4242,
    )
    rep0 = mckean_vlasov_solve(cfg0)
    incr = sample_wiener_batch(1, cfg0.steps, p.dt, cfg0.seed, cfg0.trajectories)
    plain = run_nonlinear_sme(rho0, p, incr).mean(axis=1)
    reduction_ok = np.array_equal(rep0.mean_field_path, plain)
    _report(11, "Picard contraction", contraction_ok and reduction_ok,
            f"distances={[f'{x:.2e}' for x in d]}; zero-interaction bitwise={reduction_ok}")


def test_criterion_12_girsanov_reweighting():
    # reference-measure weighted estimate of tr(sigma_z rho(t)) vs the
    # innovation-measure unweighted estimate, 1e4 paths each
    rho0 = np.array([[0.65, 0.15], [0.15, 0.35]], dtype=complex)
    p = SMEParams(0.7 * SIGMA_X, SIGMA_Z[None], 1e-3)
    m = 10_000
    ref = sample_wiener_batch(1, 500, 1e-3, 2025, m)
    gammas = run_linear_sme(rho0, p, ref, checkpoint_stride=500)[-1]
    weighted = reweighted_expectation(gammas, SIGMA_Z)
    phys = sample_wiener_batch(1, 500, 1e-3, 2026, m)
    rhos = run_nonlinear_sme(rho0, p, phys, checkpoint_stride=500)[-1]
    vals = np.einsum("ij,mji->m", SIGMA_Z, rhos).real
    se = vals.std(ddof=1) / np.sqrt(m)
    combined = float(np.hypot(weighted.stderr, se))
    z = abs(weighted.value - vals.mean()) / combined
    ok = z <= 3.0 and not weighted.degenerate
    _report(12, "Girsanov reweighting", ok,
            f"weighted={weighted.value:.4f} unweighted={vals.mean():.4f} z={z:.2f} ESS={weighted.effective_sample_size:.0f}")

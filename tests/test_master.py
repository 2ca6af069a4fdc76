import numpy as np
import pytest

from qsme.errors import TraceDeviation, TrajectoryAbort
from qsme.linalg import (
    SIGMA_X,
    SIGMA_Z,
    hs_norm,
    operator_norm,
    random_density,
    random_hermitian,
    random_ket,
    random_operator,
)
from qsme.master import (
    SMEParams,
    TrajectoryRecord,
    deterministic_lindblad_path,
    deterministic_lindblad_solve,
    lindblad_generator,
    linear_sme_step,
    nonlinear_sme_step,
    normalize_path,
    reconstruct_path,
    run_linear_sme,
    run_nonlinear_sme,
    simulate_linear_record,
)
from qsme.noise import coarsen_increments, sample_wiener_batch
from qsme.pure import PureFilterParams, run_linear, run_nonlinear

from oracles import direct_nonlinear_sme_step


def moderate_qubit(rng, dt=1e-3):
    h = random_hermitian(2, rng)
    h *= 0.7 / operator_norm(h)
    l = random_operator(2, rng)
    l *= 0.8 / operator_norm(l)
    return SMEParams(h, l[None], dt)


class TestLindbladGenerator:
    def test_identity_channel_vanishes(self):
        gamma = random_hermitian(3, np.random.default_rng(0))
        assert np.allclose(lindblad_generator(gamma, np.eye(3)[None]), 0.0)

    def test_eigenprojector_of_sigma_z(self):
        gamma = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(lindblad_generator(gamma, SIGMA_Z[None]), 0.0)

    def test_sigma_x_on_ground_projector(self):
        gamma = np.diag([1.0, 0.0]).astype(complex)
        out = lindblad_generator(gamma, SIGMA_X[None])
        assert np.allclose(out, np.diag([-1.0, 1.0]))

    def test_traceless_and_hermitian(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            gamma = random_hermitian(4, rng)
            ls = np.stack([random_operator(4, rng) for _ in range(2)])
            out = lindblad_generator(gamma, ls)
            assert abs(np.trace(out)) <= 1e-12
            assert hs_norm(out - out.conj().T) <= 1e-12 * max(1.0, float(hs_norm(out)))


class TestLinearStep:
    def test_hand_computed_example(self):
        p = SMEParams(np.zeros((2, 2)), SIGMA_X[None], 0.01)
        out = linear_sme_step(np.diag([1.0, 0.0]).astype(complex), p, np.array([0.1]))
        assert np.allclose(out, [[0.99, 0.1], [0.1, 0.01]])

    def test_free_case_unchanged(self):
        p = SMEParams(np.zeros((2, 2)), np.zeros((1, 2, 2)), 0.01)
        gamma = random_hermitian(2, np.random.default_rng(2))
        assert np.allclose(linear_sme_step(gamma, p, np.array([0.3])), gamma)

    def test_output_is_exactly_hermitian(self):
        rng = np.random.default_rng(3)
        p = moderate_qubit(rng)
        out = linear_sme_step(random_hermitian(2, rng), p, np.array([0.05]))
        assert np.array_equal(out, out.conj().T)

    def test_rank_one_tracks_pure_state_outer_product(self):
        # coupled step halving; fitted strong rate >= 0.4
        rng = np.random.default_rng(88)
        p0 = moderate_qubit(rng)
        chi0 = random_ket(2, rng)
        gamma0 = np.outer(chi0, chi0.conj())
        fine_dt = 5e-4
        sums = {4: 0.0, 2: 0.0, 1: 0.0}
        n_paths = 16
        for traj in range(n_paths):
            fine = sample_wiener_batch(1, round(0.5 / fine_dt), fine_dt, 89, 1, offset=traj)[0]
            for factor in (4, 2, 1):
                dt = fine_dt * factor
                incr = coarsen_increments(fine, factor) if factor > 1 else fine
                steps = incr.shape[0]
                pm = SMEParams(p0.h, p0.ls, dt)
                pp = PureFilterParams(p0.h, p0.ls, dt)
                gam = run_linear_sme(gamma0, pm, incr, checkpoint_stride=steps)[-1]
                ket = run_linear(chi0, pp, incr, checkpoint_stride=steps)[-1]
                sums[factor] += float(hs_norm(gam - np.outer(ket, ket.conj())))
        gaps = np.array([sums[f] / n_paths for f in (4, 2, 1)])
        rate = np.polyfit(np.log([2e-3, 1e-3, 5e-4]), np.log(gaps), 1)[0]
        assert rate >= 0.4


class TestNonlinearStep:
    def test_eigenprojector_is_fixed_point(self):
        p = SMEParams(np.zeros((2, 2)), SIGMA_Z[None], 1e-3)
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(nonlinear_sme_step(rho, p, np.array([0.4])), rho)

    def test_trace_preserved_per_step(self):
        rng = np.random.default_rng(4)
        p = moderate_qubit(rng)
        rho = random_density(2, rng)
        out = nonlinear_sme_step(rho, p, np.array([0.07]))
        assert abs(np.trace(out).real - 1.0) <= 1e-12

    def test_trace_conservation_over_long_run(self):
        rng = np.random.default_rng(5)
        p = moderate_qubit(rng)
        incr = sample_wiener_batch(1, 1000, 1e-3, seed=6, n_traj=32)
        states = run_nonlinear_sme(random_density(2, rng), p, incr, checkpoint_stride=1000)
        assert np.max(np.abs(np.einsum("kmii->km", states).real - 1.0)) <= 1e-9

    def test_rejects_bad_input_trace(self):
        p = SMEParams(np.zeros((2, 2)), SIGMA_Z[None], 1e-3)
        with pytest.raises(ValueError, match="trace"):
            nonlinear_sme_step(np.diag([0.8, 0.1]).astype(complex), p, np.zeros(1))

    def test_rejects_nan_input(self):
        # |tr - 1| > tol is False for NaN, so the guard must be written the other way
        p = SMEParams(np.zeros((2, 2)), SIGMA_Z[None], 1e-3)
        with pytest.raises(ValueError, match="trace"):
            nonlinear_sme_step(np.full((2, 2), np.nan, dtype=complex), p, np.zeros(1))
        batch = np.stack([np.diag([0.5, 0.5]), np.diag([np.nan, 0.5]), np.diag([0.8, 0.1])]).astype(complex)
        with pytest.raises(TraceDeviation) as exc:
            nonlinear_sme_step(batch, p, np.zeros((3, 1)))
        assert (exc.value.step, exc.value.trajectory) == (None, 1)

    def test_run_locates_diverging_trajectory(self):
        # a strong channel at a coarse step blows some trajectory's state up;
        # the run names the step and the first trajectory whose update is no
        # density (tr rho^2 > 2 by the unguarded formula)
        p = SMEParams(0.3 * SIGMA_X, 5.0 * SIGMA_Z[None], 0.1)
        incr = sample_wiener_batch(1, 20, 0.1, seed=1, n_traj=50)
        with pytest.raises(TrajectoryAbort, match="purity") as exc:
            run_nonlinear_sme(np.diag([0.7, 0.3]), p, incr)
        k, m = exc.value.step, exc.value.trajectory
        assert k is not None and m is not None
        states = run_nonlinear_sme(np.diag([0.7, 0.3]), p, incr[:, :k], checkpoint_stride=1)[-1]
        purity = hs_norm(direct_nonlinear_sme_step(states, p, incr[:, k], k * p.dt)) ** 2
        assert np.flatnonzero(purity > 2.0)[0] == m

    def test_mean_matches_deterministic_lindblad(self):
        rng = np.random.default_rng(7)
        p = moderate_qubit(rng)
        rho0 = random_density(2, rng)
        incr = sample_wiener_batch(1, 250, 1e-3, seed=8, n_traj=4000)
        states = run_nonlinear_sme(rho0, p, incr, checkpoint_stride=50)
        oracle = deterministic_lindblad_path(rho0, p, 0.25, steps=250, checkpoint_stride=50)
        for k in range(states.shape[0]):
            diff = states[k] - oracle[k]
            se = np.sqrt(
                (diff.real.std(axis=0, ddof=1) ** 2 + diff.imag.std(axis=0, ddof=1) ** 2).sum()
                / states.shape[1]
            )
            assert float(hs_norm(states[k].mean(axis=0) - oracle[k])) <= 3 * se + 2e-3

    @pytest.mark.parametrize("picture", ["schroedinger", "interaction"])
    def test_output_exactly_hermitian_for_inexact_input(self, picture):
        # a unit-trace input that is not exactly Hermitian still gives an
        # exactly Hermitian update: one symmetrization ends every step
        rng = np.random.default_rng(9)
        base = moderate_qubit(rng)
        p = SMEParams(base.h, base.ls, base.dt, picture)
        x = 1e-3 * random_operator(2, rng)
        rho = random_density(2, rng) + x - 0.5 * np.trace(x) * np.eye(2)
        assert abs(np.trace(rho) - 1.0) <= 1e-12 and not np.array_equal(rho, rho.conj().T)
        out = nonlinear_sme_step(rho, p, np.array([0.07]), 0.3)
        assert np.array_equal(out, out.conj().T)


class TestNormalizedStepKernel:
    """The normalized step, computed as the linear update at dY = dB minus (m·dB) rho,
    against its own drift and noise formula (``tests/oracles.py``)."""

    @pytest.mark.parametrize("picture", ["schroedinger", "interaction"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_matches_direct_formula(self, d, n, picture):
        rng = np.random.default_rng(100 * d + n)
        ls = np.stack([random_operator(d, rng) for _ in range(n)])
        p = SMEParams(random_hermitian(d, rng), ls, 0.01, picture)
        m, r, t = 5, 3, 0.37
        cases = [
            (random_density(d, rng), rng.normal(0.0, 0.1, n)),
            (np.stack([random_density(d, rng) for _ in range(m)]), rng.normal(0.0, 0.1, (m, n))),
            (
                np.stack([[random_density(d, rng) for _ in range(r)] for _ in range(m)]),
                rng.normal(0.0, 0.1, (m, 1, n)),
            ),
        ]
        for rho, db in cases:
            out = nonlinear_sme_step(rho, p, db, t)
            ref = direct_nonlinear_sme_step(rho, p, db, t)
            assert out.shape == ref.shape == rho.shape
            assert np.max(np.abs(out - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


class TestTraceProcess:
    """The trace process T(t) as ``reconstruct_path`` rebuilds it from a normalized record.

    T_{k+1} = T_k (1 + sum_j m_j dY_j), m_j = tr(L_j rho + rho L_j†) at rho_k.
    """

    @staticmethod
    def normalized(rho, l, db, dt=1e-3):
        rho = np.asarray(rho, complex)
        steps = len(db)
        return TrajectoryRecord(
            dt * np.arange(steps + 1), np.stack([rho] * (steps + 1)), np.asarray(db, float)[:, None],
            np.ones(steps + 1), "normalized", SMEParams(np.zeros((2, 2)), np.asarray(l, complex)[None], dt),
        )

    def test_traceless_compensator_is_constant(self):
        rec = self.normalized(0.5 * np.eye(2), SIGMA_Z, [0.3, -0.2, 0.1])  # m = tr(sigma_z) = 0
        assert np.all(reconstruct_path(rec, t0=2.5).trace == 2.5)

    def test_rejects_nonpositive_value(self):
        rec = self.normalized(0.5 * np.eye(2), SIGMA_Z, [0.0])
        with pytest.raises(ValueError):
            reconstruct_path(rec, t0=-1.0)

    def test_abort_on_sign_loss(self):
        # m = 2 tr(sigma_z rho) = 2, so dY = -0.6 + 2 dt takes T through zero at step 1
        rec = self.normalized(np.diag([1.0, 0.0]), SIGMA_Z, [0.01, -0.6])
        with pytest.raises(TrajectoryAbort) as exc:
            reconstruct_path(rec)
        assert exc.value.step == 1

    def test_trace_martingale(self):
        rng = np.random.default_rng(9)
        p = moderate_qubit(rng)
        gamma0 = random_density(2, rng)
        incr = sample_wiener_batch(1, 500, 1e-3, seed=10, n_traj=10_000)
        states = run_linear_sme(gamma0, p, incr, checkpoint_stride=100)
        traces = np.einsum("kmii->km", states).real
        for k in range(1, traces.shape[0]):
            se = traces[k].std(ddof=1) / np.sqrt(traces.shape[1])
            assert abs(traces[k].mean() - 1.0) <= 3 * se


class TestPathTransforms:
    def _record(self, seed=12, steps=300, dt=1e-3):
        rng = np.random.default_rng(seed)
        p = moderate_qubit(rng, dt)
        gamma0 = random_density(2, rng)
        incr = sample_wiener_batch(1, steps, dt, seed + 1, 1)[0]
        return simulate_linear_record(gamma0, p, incr)

    def test_constant_trace_path_normalizes_trivially(self):
        # L = 0: trace is constant, rho = gamma, B = Y
        p = SMEParams(0.4 * SIGMA_X, np.zeros((1, 2, 2)), 1e-3)
        incr = sample_wiener_batch(1, 50, 1e-3, 13, 1)[0]
        rec = simulate_linear_record(random_density(2, np.random.default_rng(13)), p, incr)
        norm = normalize_path(rec)
        assert np.allclose(norm.states, rec.states, atol=1e-12)
        assert np.array_equal(norm.noise, rec.noise)

    def test_round_trip_reconstruct_normalize(self):
        rec = self._record()
        t0 = float(np.trace(rec.states[0]).real)
        back = reconstruct_path(normalize_path(rec), t0=t0)
        rel = np.max(hs_norm(back.states - rec.states)) / np.max(hs_norm(rec.states))
        assert rel <= 1e-9
        assert np.max(np.abs(back.noise - rec.noise)) <= 1e-9

    def test_round_trip_normalize_reconstruct(self):
        norm = normalize_path(self._record(seed=14))
        again = normalize_path(reconstruct_path(norm, t0=2.0))
        assert np.max(hs_norm(again.states - norm.states)) <= 1e-9
        assert np.max(np.abs(again.noise - norm.noise)) <= 1e-9

    def test_abort_on_nonpositive_trace(self):
        rec = self._record(seed=17, steps=10)
        doctored = TrajectoryRecord(
            rec.times,
            np.concatenate([rec.states[:5], -rec.states[5:]]),
            rec.noise,
            rec.trace,
            "linear",
            rec.params,
        )
        with pytest.raises(TrajectoryAbort) as exc:
            normalize_path(doctored)
        assert exc.value.step == 5


class TestDeterministicSolver:
    def test_free_case(self):
        p = SMEParams(np.zeros((2, 2)), np.zeros((1, 2, 2)), 1e-2)
        rho0 = random_density(2, np.random.default_rng(18))
        assert np.allclose(deterministic_lindblad_solve(rho0, p, 1.0), rho0, atol=1e-12)

    def test_dephasing_closed_form(self):
        # H = 0, L = sigma_z: off-diagonal decays as exp(-2t)
        p = SMEParams(np.zeros((2, 2)), SIGMA_Z[None], 1e-2)
        rho0 = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
        out = deterministic_lindblad_solve(rho0, p, 0.7, steps=200)
        assert np.isclose(out[0, 1], (0.2 + 0.1j) * np.exp(-1.4), atol=1e-8)
        assert np.isclose(out[0, 0], 0.6, atol=1e-10)

    def test_trace_preserved(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            p = moderate_qubit(rng, dt=1e-2)
            out = deterministic_lindblad_solve(random_density(2, rng), p, 1.0, steps=100)
            assert abs(np.trace(out).real - 1.0) <= 1e-10
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-9


class TestPositivity:
    def test_linear_paths_stay_nearly_positive(self):
        # min eigenvalue >= -10 dt |L|^2 tr gamma0 along every path, and the
        # worst violation shrinks when dt halves (coupled noise).  The state
        # must start at full rank: measurement purifies paths toward the
        # boundary of the cone, where Euler dips scale with the squared noise
        # draw instead of dt.
        h = 0.5 * SIGMA_Z
        l = SIGMA_X
        gamma0 = np.diag([0.7, 0.3]).astype(complex)
        fine_dt = 5e-4
        fine = sample_wiener_batch(1, round(0.5 / fine_dt), fine_dt, 21, 200)
        worsts = []
        for factor in (2, 1):
            dt = fine_dt * factor
            incr = coarsen_increments(fine, factor) if factor > 1 else fine
            p = SMEParams(h, l[None], dt)
            _, mins = run_linear_sme(
                gamma0, p, incr, checkpoint_stride=incr.shape[-2], track_min_eig=True
            )
            worst = float(np.maximum(0.0, -mins).max())
            assert worst <= 10 * dt * operator_norm(l) ** 2 * 1.0
            worsts.append(worst)
        assert worsts[1] <= worsts[0] / 1.5


class TestContinuityInTime:
    def test_mean_square_increments_linear_in_lag(self):
        rng = np.random.default_rng(24)
        p = moderate_qubit(rng)
        incr = sample_wiener_batch(1, 500, 1e-3, 25, 2000)
        states = run_linear_sme(random_density(2, rng), p, incr, checkpoint_stride=50)
        for lag in (1, 2, 4):
            worst = 0.0
            for k in range(states.shape[0] - lag):
                diff = states[k + lag] - states[k]
                worst = max(worst, float(np.einsum("mij,mji->m", diff, diff).real.mean()))
            assert worst <= 2.0 * (lag * 0.05)


class TestRankOneNonlinearConsistency:
    def test_nonlinear_sme_tracks_pure_outer_product(self):
        rng = np.random.default_rng(26)
        p0 = moderate_qubit(rng)
        chi0 = random_ket(2, rng)
        rho0 = np.outer(chi0, chi0.conj())
        fine_dt = 5e-4
        sums = {4: 0.0, 2: 0.0, 1: 0.0}
        n_paths = 16
        for traj in range(n_paths):
            fine = sample_wiener_batch(1, round(0.5 / fine_dt), fine_dt, 90, 1, offset=traj)[0]
            for factor in (4, 2, 1):
                dt = fine_dt * factor
                incr = coarsen_increments(fine, factor) if factor > 1 else fine
                steps = incr.shape[0]
                pm = SMEParams(p0.h, p0.ls, dt)
                pp = PureFilterParams(p0.h, p0.ls, dt)
                rho = run_nonlinear_sme(rho0, pm, incr, checkpoint_stride=steps)[-1]
                ket = run_nonlinear(chi0, pp, incr, checkpoint_stride=steps)[-1]
                sums[factor] += float(hs_norm(rho - np.outer(ket, ket.conj())))
        gaps = np.array([sums[f] / n_paths for f in (4, 2, 1)])
        rate = np.polyfit(np.log([2e-3, 1e-3, 5e-4]), np.log(gaps), 1)[0]
        assert rate >= 0.4


class TestRecordSerialization:
    def _record(self):
        rng = np.random.default_rng(27)
        p = moderate_qubit(rng)
        incr = sample_wiener_batch(1, 20, 1e-3, 28, 1)[0]
        return simulate_linear_record(random_density(2, rng), p, incr)

    def test_record_validation(self):
        rec = self._record()
        with pytest.raises(ValueError, match="strictly increasing"):
            TrajectoryRecord(rec.times[::-1], rec.states, rec.noise, rec.trace, "linear", rec.params)
        with pytest.raises(ValueError, match="unit-trace"):
            TrajectoryRecord(rec.times, 2 * rec.states, rec.noise, rec.trace, "normalized", rec.params)

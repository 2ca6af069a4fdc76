import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsme.errors import TraceDeviation, TrajectoryAbort
from qsme.linalg import (
    SIGMA_X,
    SIGMA_Z,
    Propagator,
    dag,
    hs_norm,
    operator_norm,
    random_density,
    random_hermitian,
    random_operator,
)
from qsme.master import (
    SMEParams,
    _sme_update,
    deterministic_lindblad_path,
    lindblad_generator,
    linear_sme_step,
    nonlinear_sme_step,
    normalize_path,
    output_compensators,
    reconstruct_path,
    run_linear_sme,
    run_nonlinear_sme,
)
from qsme.noise import coarsen_increments, sample_wiener_batch
from qsme.pure import PureFilterParams, linear_pure_step, nonlinear_pure_step, run_linear, run_nonlinear

from oracles import direct_linear_sme_step, direct_nonlinear_sme_step, random_ket

ROOT = Path(__file__).resolve().parents[1]


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
        fines = sample_wiener_batch(1, round(0.5 / fine_dt), fine_dt, 89, n_paths)
        for fine in fines:
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


def kernel_cases(d, n, picture):
    """Params and (state, noise) pairs on an unbatched, an (M,) and an (M, r) batch, (M, 1, n) noise last."""
    rng = np.random.default_rng(100 * d + n)
    ls = np.stack([random_operator(d, rng) for _ in range(n)])
    p = SMEParams(random_hermitian(d, rng), ls, 0.01, picture)
    m, r = 5, 3
    cases = [
        (random_density(d, rng), rng.normal(0.0, 0.1, n)),
        (np.stack([random_density(d, rng) for _ in range(m)]), rng.normal(0.0, 0.1, (m, n))),
        (
            np.stack([[random_density(d, rng) for _ in range(r)] for _ in range(m)]),
            rng.normal(0.0, 0.1, (m, 1, n)),
        ),
    ]
    return p, cases


class TestLinearStepKernel:
    """The linear density step, every L_j gamma from one GEMM, against channel-wise
    einsum contractions (``tests/oracles.py``)."""

    @pytest.mark.parametrize("picture", ["schroedinger", "interaction"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
    def test_matches_direct_formula(self, d, n, picture):
        p, cases = kernel_cases(d, n, picture)
        for gamma, dy in cases:
            out = linear_sme_step(gamma, p, dy, 0.37)
            ref = direct_linear_sme_step(gamma, p, dy, 0.37)
            assert out.shape == ref.shape == gamma.shape
            assert np.max(np.abs(out - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("picture", ["schroedinger", "interaction"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
    def test_compensators_from_products(self, d, n, picture):
        # m_j = 2 Re tr(L_j gamma) read off the step's own L_j gamma products
        p, cases = kernel_cases(d, n, picture)
        for gamma, dy in cases:
            m = _sme_update(gamma, p, dy, 0.37)[1]
            ref = output_compensators(gamma, p.channel_ops(0.37))
            assert m.shape == ref.shape == gamma.shape[:-2] + (n,)
            assert np.max(np.abs(m - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


class TestNormalizedStepKernel:
    """The normalized step, computed as the linear update at dY = dB minus (m·dB) rho,
    against its own drift and noise formula (``tests/oracles.py``)."""

    @pytest.mark.parametrize("picture", ["schroedinger", "interaction"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
    def test_matches_direct_formula(self, d, n, picture):
        p, cases = kernel_cases(d, n, picture)
        for rho, db in cases:
            out = nonlinear_sme_step(rho, p, db, 0.37)
            ref = direct_nonlinear_sme_step(rho, p, db, 0.37)
            assert out.shape == ref.shape == rho.shape
            assert np.max(np.abs(out - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


class TestStepWorkspace:
    """The steps write their state-sized arrays into a workspace kept on the params
    object; every stepper output is still a fresh array that later steps leave alone."""

    @pytest.mark.parametrize("picture", ["schroedinger", "interaction"])
    @pytest.mark.parametrize("stepper", [linear_sme_step, nonlinear_sme_step])
    def test_successive_outputs_share_no_memory(self, stepper, picture):
        # batch shapes (), (M,) and (M, r) on one params object, so the
        # workspace is also rebuilt between shapes
        p, cases = kernel_cases(3, 2, picture)
        for state, noise in cases:
            first = stepper(state, p, noise, 0.37)
            kept = first.copy()
            second = stepper(first, p, noise, 0.38)
            assert not np.shares_memory(first, second)
            assert not any(np.shares_memory(first, buf) or np.shares_memory(second, buf) for buf in p._ws)
            assert np.array_equal(first, kept)
            # a reused workspace gives the bits of a fresh one
            fresh = SMEParams(p.h, p.ls, p.dt, p.picture)
            assert np.array_equal(second, stepper(first, fresh, noise, 0.38))

    @pytest.mark.parametrize("picture", ["schroedinger", "interaction"])
    @pytest.mark.parametrize("m", [4, 300])
    @pytest.mark.parametrize("stepper", [linear_sme_step, nonlinear_sme_step])
    def test_output_is_fresh_c_ordered_and_exactly_hermitian(self, stepper, m, picture):
        # einsum reductions of a state (the CLI's observable values) sum in
        # memory order, so the layout of a step's output is part of the bits
        # a run writes: it is C-ordered for every batch size, below and above
        # numpy's 256 KiB temporary-elision size (d = 16, M = 300 is 1.2 MB)
        rng = np.random.default_rng(30)
        d, n = 16, 2
        ls = np.stack([0.5 * random_operator(d, rng) for _ in range(n)])
        p = SMEParams(random_hermitian(d, rng), ls, 1e-4, picture)
        x = np.broadcast_to(random_density(d, rng), (m, d, d)).copy()
        out = stepper(x, p, rng.normal(0.0, 1e-2, (m, n)), 0.37)
        assert out.flags.c_contiguous and out.flags.owndata
        assert not np.shares_memory(out, x)
        assert not any(np.shares_memory(out, buf) for buf in p._ws)
        assert np.array_equal(out, dag(out))

    @pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
    @pytest.mark.parametrize("picture", ["schroedinger", "interaction"])
    @pytest.mark.parametrize("stepper", ["linear_sme_step", "nonlinear_sme_step"])
    def test_steady_steps_fault_in_no_pages(self, stepper, picture):
        # d = 16, n = 2, M = 120: each state-sized array is 480 KiB, and one
        # that is allocated and freed every step has its pages faulted in
        # again (345-571 minor faults a step when every temporary was
        # fresh).  Measured in a fresh interpreter with one BLAS thread, as
        # the benchmark runs: a threaded GEMM's own buffers fault too.
        code = (
            "import resource\n"
            "import numpy as np\n"
            "from qsme import master\n"
            "from qsme.linalg import random_density, random_hermitian, random_operator\n"
            "rng = np.random.default_rng(16)\n"
            "d, n, m = 16, 2, 120\n"
            "ls = np.stack([0.5 * random_operator(d, rng) for _ in range(n)])\n"
            f"p = master.SMEParams(random_hermitian(d, rng), ls, 1e-4, {picture!r})\n"
            f"step = master.{stepper}\n"
            "x = np.broadcast_to(random_density(d, rng), (m, d, d)).copy()\n"
            "noise = rng.normal(0.0, 1e-2, (60, m, n))\n"
            "for k in range(10):\n"
            "    x = step(x, p, noise[k], k * p.dt)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for k in range(10, 60):\n"
            "    x = step(x, p, noise[k], k * p.dt)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
        }
        run = subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True, text=True)
        faults = int(run.stdout)
        assert faults <= 5 * 50, faults


class TestOneFactorPerStep:
    """An interaction-picture step builds exp(-iHt) once: the dressed channels and
    damping of the density step, and the ket step's matrix, come from one factor."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"factor": 0, "dress": 0}
        for name in counts:
            original = getattr(Propagator, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(Propagator, name, counted)
        return counts

    def params(self, cls):
        rng = np.random.default_rng(31)
        d, n = 4, 2
        ls = np.stack([random_operator(d, rng) for _ in range(n)])
        return cls(random_hermitian(d, rng), ls, 1e-3, "interaction"), rng

    @pytest.mark.parametrize("stepper", [linear_sme_step, nonlinear_sme_step])
    def test_density_step(self, calls, stepper):
        p, rng = self.params(SMEParams)
        rho = np.stack([random_density(4, rng) for _ in range(3)])
        stepper(rho, p, rng.normal(0.0, 0.1, (3, 2)), 0.37)
        assert calls == {"factor": 1, "dress": 1}

    @pytest.mark.parametrize("stepper", [linear_pure_step, nonlinear_pure_step])
    def test_ket_step(self, calls, stepper):
        p, rng = self.params(PureFilterParams)
        chi = np.stack([random_ket(4, rng) for _ in range(3)])
        stepper(chi, p, rng.normal(0.0, 0.1, (3, 2)), 0.37)
        assert calls == {"factor": 1, "dress": 1}

    def test_dressed_operators_unchanged(self):
        # the operators each had from its own factor, bit for bit
        p, _ = self.params(SMEParams)
        ls_t, damping = p.step_ops(0.37)
        u = p._prop.factor(0.37)
        assert np.array_equal(ls_t, dag(u)[None] @ p.ls @ u[None])
        assert np.array_equal(ls_t, p.channel_ops(0.37))
        assert np.array_equal(damping, dag(u) @ p._damping @ u)


class TestPicturesAgreeWithoutH:
    """With H = 0 the two pictures take the same step, through different code:
    the interaction picture adds -dt gamma D_t to X with one GEMM, the
    Schroedinger picture forms -(dt/2){D, gamma} from two batched products."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("d", [2, 16])
    @pytest.mark.parametrize("stepper", [linear_sme_step, nonlinear_sme_step])
    def test_steps_agree_to_roundoff(self, stepper, d, n):
        rng = np.random.default_rng(10 * d + n)
        ls = np.stack([random_operator(d, rng) for _ in range(n)])
        m = 7
        rho = np.stack([random_density(d, rng) for _ in range(m)])
        noise = rng.normal(0.0, 0.1, (m, n))
        schroedinger, interaction = (
            stepper(rho, SMEParams(np.zeros((d, d)), ls, 0.01, picture), noise, 0.37)
            for picture in ("schroedinger", "interaction")
        )
        assert np.max(np.abs(interaction - schroedinger)) <= 1e-14 * max(1.0, np.max(np.abs(schroedinger)))


class TestTraceProcess:
    """The trace process T(t) as ``reconstruct_path`` rebuilds it from normalized paths.

    T_{k+1} = T_k (1 + sum_j m_j dY_j), T_0 = 1, m_j = tr(L_j rho + rho L_j†) at rho_k.
    """

    @staticmethod
    def constant_path(rho, steps):
        return np.stack([np.asarray(rho, complex)] * (steps + 1))

    def test_traceless_compensator_is_constant(self):
        rhos = self.constant_path(0.5 * np.eye(2), 3)
        db = np.array([[0.3], [-0.2], [0.1]])
        gammas, dy = reconstruct_path(rhos, db, SIGMA_Z[None], 1e-3)  # m = tr(sigma_z) = 0
        assert np.array_equal(gammas, rhos)
        assert np.array_equal(dy, db)

    def test_abort_on_sign_loss(self):
        # m = 2 tr(sigma_z rho) = 2, so dY = -0.6 + 2 dt takes T through zero at step 1
        rhos = self.constant_path(np.diag([1.0, 0.0]), 2)
        with pytest.raises(TrajectoryAbort) as exc:
            reconstruct_path(rhos, np.array([[0.01], [-0.6]]), SIGMA_Z[None], 1e-3)
        assert exc.value.step == 1
        assert exc.value.trajectory is None

    def test_abort_on_sign_loss_names_the_trajectory(self):
        # paths 3, 4 and 5 take T through zero at steps 2, 1 and 1: the earliest
        # step is named, with the first path that fails there
        rhos = np.broadcast_to(self.constant_path(np.diag([1.0, 0.0]), 3)[:, None], (4, 6, 2, 2))
        db = np.full((6, 3, 1), 0.01)
        db[3, 2] = db[4, 1] = db[5, 1] = -0.6
        with pytest.raises(TrajectoryAbort) as exc:
            reconstruct_path(rhos, db, SIGMA_Z[None], 1e-3)
        assert (exc.value.step, exc.value.trajectory) == (1, 4)

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
    def _paths(self, seed=12, steps=300, dt=1e-3, batch=()):
        """Linear states (K+1, *batch, d, d), their output increments (*batch, K, 1) and the channels."""
        rng = np.random.default_rng(seed)
        p = moderate_qubit(rng, dt)
        gamma0 = random_density(2, rng)
        n_traj = int(np.prod(batch))
        incr = sample_wiener_batch(1, steps, dt, seed + 1, n_traj).reshape(batch + (steps, 1))
        return run_linear_sme(gamma0, p, incr), incr, p.ls, dt

    def test_constant_trace_path_normalizes_trivially(self):
        # L = 0: trace is constant, rho = gamma, B = Y
        p = SMEParams(0.4 * SIGMA_X, np.zeros((1, 2, 2)), 1e-3)
        incr = sample_wiener_batch(1, 50, 1e-3, 13, 1)[0]
        states = run_linear_sme(random_density(2, np.random.default_rng(13)), p, incr)
        rhos, db = normalize_path(states, incr, p.ls, p.dt)
        assert np.allclose(rhos, states, atol=1e-12)
        assert np.array_equal(db, incr)

    def test_round_trip_reconstruct_normalize(self):
        states, incr, ls, dt = self._paths()
        back, dy = reconstruct_path(*normalize_path(states, incr, ls, dt), ls, dt)
        rel = np.max(hs_norm(back - states)) / np.max(hs_norm(states))
        assert rel <= 1e-9
        assert np.max(np.abs(dy - incr)) <= 1e-9

    def test_round_trip_normalize_reconstruct(self):
        states, incr, ls, dt = self._paths(seed=14)
        rhos, db = normalize_path(states, incr, ls, dt)
        again, db2 = normalize_path(*reconstruct_path(rhos, db, ls, dt), ls, dt)
        assert np.max(hs_norm(again - rhos)) <= 1e-9
        assert np.max(np.abs(db2 - db)) <= 1e-9

    def test_batched_normalize_matches_each_path(self):
        states, incr, ls, dt = self._paths(seed=15, steps=100, batch=(2, 3))
        rhos, db = normalize_path(states, incr, ls, dt)
        assert rhos.shape == states.shape and db.shape == incr.shape
        for i in np.ndindex(2, 3):
            rho_i, db_i = normalize_path(states[(slice(None),) + i], incr[i], ls, dt)
            assert np.max(np.abs(rhos[(slice(None),) + i] - rho_i)) <= 1e-15
            assert np.max(np.abs(db[i] - db_i)) <= 1e-15

    def test_abort_on_nonpositive_trace(self):
        states, incr, ls, dt = self._paths(seed=17, steps=10)
        doctored = np.concatenate([states[:5], -states[5:]])
        with pytest.raises(TrajectoryAbort) as exc:
            normalize_path(doctored, incr, ls, dt)
        assert exc.value.step == 5
        assert exc.value.trajectory is None

    def test_abort_on_nonpositive_trace_names_the_trajectory(self):
        # path 3 turns nonpositive at step 5, path 1 only at step 8
        states, incr, ls, dt = self._paths(seed=17, steps=10, batch=(5,))
        doctored = states.copy()
        doctored[5:, 3] *= -1.0
        doctored[8:, 1] *= -1.0
        with pytest.raises(TrajectoryAbort) as exc:
            normalize_path(doctored, incr, ls, dt)
        assert (exc.value.step, exc.value.trajectory) == (5, 3)


class TestDeterministicSolver:
    def test_free_case(self):
        p = SMEParams(np.zeros((2, 2)), np.zeros((1, 2, 2)), 1e-2)
        rho0 = random_density(2, np.random.default_rng(18))
        assert np.allclose(deterministic_lindblad_path(rho0, p, 1.0)[-1], rho0, atol=1e-12)

    def test_dephasing_closed_form(self):
        # H = 0, L = sigma_z: off-diagonal decays as exp(-2t)
        p = SMEParams(np.zeros((2, 2)), SIGMA_Z[None], 1e-2)
        rho0 = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
        out = deterministic_lindblad_path(rho0, p, 0.7, steps=200)[-1]
        assert np.isclose(out[0, 1], (0.2 + 0.1j) * np.exp(-1.4), atol=1e-8)
        assert np.isclose(out[0, 0], 0.6, atol=1e-10)

    def test_trace_preserved(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            p = moderate_qubit(rng, dt=1e-2)
            out = deterministic_lindblad_path(random_density(2, rng), p, 1.0, steps=100)[-1]
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
            mins = run_linear_sme(gamma0, p, incr, reduce=lambda frame, k: np.linalg.eigvalsh(frame)[..., 0])
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
        fines = sample_wiener_batch(1, round(0.5 / fine_dt), fine_dt, 90, n_paths)
        for fine in fines:
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsme.ensemble import WeightedEnsemble, run_ensemble
from qsme.linalg import (
    SIGMA_X,
    SIGMA_Z,
    coupling_norm,
    random_hermitian,
    random_operator,
)
from qsme.noise import coarsen_increments, sample_wiener_batch
from qsme import pure
from qsme.pure import (
    BLOCK_BYTES,
    PICTURES,
    PureFilterParams,
    _nonlinear_pure_update,
    block_bytes,
    expectation,
    jacobian_norm_estimate,
    linear_pure_step,
    mean_map,
    nonlinear_pure_step,
    row_blocks,
    run_linear,
    run_nonlinear,
)

from oracles import direct_innovation_output, direct_nonlinear_pure_step, random_ket, traced_peak


def qubit_params(l=SIGMA_Z, h=None, dt=1e-3, picture="schroedinger"):
    h = np.zeros((2, 2)) if h is None else h
    return PureFilterParams(h, np.asarray(l, complex)[None], dt, picture)


class TestExpectation:
    def test_eigenstate(self):
        assert expectation(SIGMA_Z, np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_identity(self):
        phi = random_ket(5, np.random.default_rng(0), unit=False)
        assert expectation(np.eye(5), phi) == pytest.approx(1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        a = random_operator(4, rng)
        phi = random_ket(4, rng)
        assert expectation(a, 3.7j * phi) == pytest.approx(expectation(a, phi))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            expectation(SIGMA_Z, np.zeros(2))


class TestLinearStep:
    def test_free_schroedinger_euler(self):
        h = random_hermitian(3, np.random.default_rng(2))
        p = PureFilterParams(h, np.zeros((1, 3, 3)), 0.01)
        chi = random_ket(3, np.random.default_rng(3))
        out = linear_pure_step(chi, p, np.array([0.25]))
        assert np.allclose(out, chi - 1j * 0.01 * (h @ chi))

    def test_eigenvector_case(self):
        # H = 0, L = sigma_z, chi = (1,0): chi' = (1 - dt/2 + dY)(1,0)
        p = qubit_params(dt=0.01)
        out = linear_pure_step(np.array([1.0, 0.0], complex), p, np.array([0.1]))
        assert np.allclose(out, np.array([1.0 - 0.005 + 0.1, 0.0]))

    def test_picture_consistency_under_step_halving(self):
        rng = np.random.default_rng(55)
        d = 3
        h = random_hermitian(d, rng)
        l = random_operator(d, rng)
        chi0 = random_ket(d, rng)
        fine_dt = 2.5e-4
        fine = sample_wiener_batch(1, round(0.5 / fine_dt), fine_dt, 66, 1)[0]
        errs = []
        for factor in (4, 2, 1):
            dt = fine_dt * factor
            incr = coarsen_increments(fine, factor) if factor > 1 else fine
            steps = incr.shape[0]
            ps = PureFilterParams(h, l[None], dt, "schroedinger")
            pi = PureFilterParams(h, l[None], dt, "interaction")
            cs = run_linear(chi0, ps, incr, checkpoint_stride=steps)[-1]
            ci = run_linear(chi0, pi, incr, checkpoint_stride=steps)[-1]
            errs.append(float(np.linalg.norm(cs - ci)))
        assert errs[1] <= 0.6 * errs[0]
        assert errs[2] <= 0.6 * errs[1]


def einsum_linear_step(chi, p, dy, t):
    """The linear pure step as separate einsums: chi + dt (-iH - (1/2) sum L†L) chi + sum_j dY_j L_j chi."""
    ls_t = p.channel_ops(t)
    drift = -0.5 * np.einsum("nki,nkj,...j->...i", ls_t.conj(), ls_t, chi)
    if p.picture == "schroedinger":
        drift = drift - 1j * np.einsum("ij,...j->...i", p.h, chi)
    lchi = np.einsum("nij,...j->n...i", ls_t, chi)
    return chi + p.dt * drift + np.einsum("n...i,...n->...i", lchi, dy)


class TestLinearStepKernel:
    @pytest.mark.parametrize("picture", PICTURES)
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_gemm_matches_einsum_formula(self, d, n, picture):
        rng = np.random.default_rng(100 * d + n)
        ls = np.stack([random_operator(d, rng) for _ in range(n)])
        p = PureFilterParams(random_hermitian(d, rng), ls, 0.01, picture)
        m, r, t = 5, 3, 0.37
        cases = [
            (random_ket(d, rng), rng.normal(0.0, 0.1, n)),
            (np.stack([random_ket(d, rng, unit=False) for _ in range(m)]), rng.normal(0.0, 0.1, (m, n))),
            (
                np.stack([[random_ket(d, rng, unit=False) for _ in range(r)] for _ in range(m)]),
                rng.normal(0.0, 0.1, (m, 1, n)),
            ),
        ]
        for chi, dy in cases:
            out = linear_pure_step(chi, p, dy, t)
            ref = einsum_linear_step(chi, p, dy, t)
            assert out.shape == ref.shape == chi.shape
            assert np.max(np.abs(out - ref)) <= 1e-13

    def test_schroedinger_matrix_is_cached(self):
        p = qubit_params(h=SIGMA_X)
        assert p.linear_step_matrix(0.0) is p.linear_step_matrix(0.5)
        pi = qubit_params(h=SIGMA_X, picture="interaction")
        assert not np.allclose(pi.linear_step_matrix(0.0), pi.linear_step_matrix(0.5))


def innovation_driven_run(chi0, p, incr, checkpoint_stride=1):
    """The linear ket filter driven by dY = dB + 2 a dt: the rank-one ensemble's (unnormalized) ket."""
    ens = WeightedEnsemble(np.ones(1), np.asarray(chi0, dtype=complex)[None], 1)
    return run_ensemble(ens, p, incr, checkpoint_stride, reduce=lambda kets, k: kets[..., 0, :])


class TestNormalizedStepKernel:
    """The normalized ket step, computed as the linear step at dB + a dt minus a term
    along phi (before renormalization: ``_nonlinear_pure_update``), and the
    innovation-driven linear filter, run as the rank-one ensemble, against their
    own formulas (``tests/oracles.py``)."""

    @staticmethod
    def params_and_cases(d, n, picture):
        rng = np.random.default_rng(100 * d + n)
        ls = np.stack([random_operator(d, rng) for _ in range(n)])
        p = PureFilterParams(random_hermitian(d, rng), ls, 0.01, picture)
        m, r = 5, 3
        cases = [
            (random_ket(d, rng, unit=False), rng.normal(0.0, 0.1, n)),
            (np.stack([random_ket(d, rng, unit=False) for _ in range(m)]), rng.normal(0.0, 0.1, (m, n))),
            (
                np.stack([[random_ket(d, rng, unit=False) for _ in range(r)] for _ in range(m)]),
                rng.normal(0.0, 0.1, (m, 1, n)),
            ),
        ]
        return p, cases

    @pytest.mark.parametrize("renormalize", [True, False])
    @pytest.mark.parametrize("picture", PICTURES)
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_matches_direct_formula(self, d, n, picture, renormalize):
        p, cases = self.params_and_cases(d, n, picture)
        for phi, db in cases:
            out = (nonlinear_pure_step if renormalize else _nonlinear_pure_update)(phi, p, db, 0.37)
            ref = direct_nonlinear_pure_step(phi, p, db, 0.37, renormalize)
            assert out.shape == ref.shape == phi.shape
            assert np.max(np.abs(out - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("picture", PICTURES)
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_innovation_driven_run_matches_direct_output(self, d, n, picture):
        p, cases = self.params_and_cases(d, n, picture)
        chi0, steps = cases[0][0], 4
        rng = np.random.default_rng(7)
        for batch in [(), (5,), (5, 3)]:
            incr = rng.normal(0.0, 0.1, batch + (steps, n))
            out = innovation_driven_run(chi0, p, incr)
            chi = np.broadcast_to(chi0, batch + chi0.shape)
            for k in range(steps):
                t = k * p.dt
                chi = linear_pure_step(chi, p, direct_innovation_output(chi, p, incr[..., k, :], t), t)
                ref = p.to_schroedinger_frame(chi, t + p.dt)
                assert out[k + 1].shape == ref.shape
                assert np.max(np.abs(out[k + 1] - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


class TestNonlinearStep:
    def test_eigenstate_is_fixed_point(self):
        p = qubit_params()
        phi = np.array([1.0, 0.0], complex)
        out = nonlinear_pure_step(phi, p, np.array([0.4]))
        assert np.allclose(out, phi)

    def test_self_adjoint_reduction(self):
        # for L = L* the generic drift equals -[iH + (L - <L>)^2 / 2] phi
        rng = np.random.default_rng(4)
        h = random_hermitian(3, rng)
        l = random_hermitian(3, rng)
        p = PureFilterParams(h, l[None], 1e-3)
        phi = random_ket(3, rng)
        out = _nonlinear_pure_update(phi, p, np.zeros(1), 0.0)
        a = expectation(l, phi).real
        shifted = l - a * np.eye(3)
        drift = -(1j * h + 0.5 * shifted @ shifted) @ phi
        assert np.allclose(out, phi + p.dt * drift, atol=1e-12)

    def test_norm_defect_regression(self):
        # pre-renormalization defect |norm^2 - 1| stays O(dt); constant frozen
        # from a pinned-seed sweep (measured max 9.7 dt)
        rng = np.random.default_rng(101)
        dt = 1e-3
        worst = 0.0
        for _ in range(1000):
            d = int(rng.integers(2, 5))
            p = PureFilterParams(random_hermitian(d, rng), random_operator(d, rng)[None], dt)
            phi = random_ket(d, rng)
            out = _nonlinear_pure_update(phi, p, rng.normal(0, np.sqrt(dt), 1), 0.0)
            worst = max(worst, abs(float(np.sum(np.abs(out) ** 2)) - 1.0))
        assert worst <= 20 * dt

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(0.1, 10.0), seed=st.integers(0, 10_000))
    def test_homogeneity(self, scale, seed):
        rng = np.random.default_rng(seed)
        p = PureFilterParams(random_hermitian(2, rng), random_operator(2, rng)[None], 1e-3)
        phi = random_ket(2, rng)
        db = rng.normal(0, 0.03, 1)
        a = nonlinear_pure_step(phi, p, db)
        b = nonlinear_pure_step(scale * phi, p, db)
        assert np.allclose(a, b, atol=1e-10)

    def test_eigenstate_fixed_points_with_commuting_h(self):
        # self-adjoint L commuting with H: eigenvectors of L are fixed up to phase
        rng = np.random.default_rng(8)
        w = rng.normal(size=3)
        l = np.diag(w).astype(complex)
        h = np.diag(rng.normal(size=3)).astype(complex)
        p = PureFilterParams(h, l[None], 1e-3)
        phi = np.zeros(3, complex)
        phi[1] = 1.0
        out = nonlinear_pure_step(phi, p, np.array([0.2]))
        overlap = abs(np.vdot(out, phi))
        assert overlap == pytest.approx(1.0, abs=1e-12)


class TestNormProcess:
    def test_square_norm_martingale(self):
        # mean of ||chi(t)||^2 under Brownian output stays at its start
        p = qubit_params(l=SIGMA_X, h=0.5 * SIGMA_Z)
        incr = sample_wiener_batch(1, 500, 1e-3, seed=31, n_traj=10_000)
        kets = run_linear(np.array([1.0, 0.0], complex), p, incr, checkpoint_stride=100)
        norms2 = np.sum(np.abs(kets) ** 2, axis=-1)
        for k in range(1, norms2.shape[0]):
            se = norms2[k].std(ddof=1) / np.sqrt(norms2.shape[1])
            assert abs(norms2[k].mean() - 1.0) <= 3 * se


class TestGrowthBound:
    def test_innovation_driven_norm_growth(self):
        # E||chi(t)||^2 <= exp(4 t |L|^2) under the physical measure
        p = qubit_params(l=SIGMA_X, h=0.5 * SIGMA_Z)
        incr = sample_wiener_batch(1, 500, 1e-3, seed=37, n_traj=5000)
        kets = innovation_driven_run(np.array([1.0, 0.0], complex), p, incr, checkpoint_stride=100)
        norms2 = np.sum(np.abs(kets) ** 2, axis=-1)
        lnorm2 = coupling_norm(p.ls) ** 2
        for k in range(norms2.shape[0]):
            t = 0.1 * k
            se = norms2[k].std(ddof=1) / np.sqrt(norms2.shape[1])
            assert norms2[k].mean() <= np.exp(4 * t * lnorm2) + 3 * se


class TestMeanMap:
    def test_identity_operator(self):
        psi = random_ket(4, np.random.default_rng(5))
        assert np.allclose(mean_map(np.eye(4), psi), psi)
        assert jacobian_norm_estimate(np.eye(4), psi) == pytest.approx(1.0, abs=1e-6)

    def test_eigenvector(self):
        l = np.diag([2.0, -1.0]).astype(complex)
        psi = np.array([1.0, 0.0], complex)
        assert np.allclose(mean_map(l, psi), 2.0 * psi)

    def test_jacobian_bound(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            m = random_operator(d, rng)
            psi = random_ket(d, rng)
            assert jacobian_norm_estimate(m, psi) <= 5 * np.linalg.norm(m, 2) + 1e-6

    def test_lipschitz_on_sphere(self):
        rng = np.random.default_rng(203)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            m = random_operator(d, rng)
            psi1, psi2 = random_ket(d, rng), random_ket(d, rng)
            lhs = np.linalg.norm(mean_map(m, psi1) - mean_map(m, psi2))
            rhs = (5 * np.linalg.norm(m, 2) + 1e-9) * np.linalg.norm(psi1 - psi2)
            assert lhs <= rhs


class TestRunners:
    def test_run_nonlinear_keeps_unit_norm(self):
        rng = np.random.default_rng(6)
        p = PureFilterParams(random_hermitian(2, rng), random_operator(2, rng)[None], 1e-3)
        incr = sample_wiener_batch(1, 200, 1e-3, seed=41, n_traj=8)
        kets = run_nonlinear(random_ket(2, rng), p, incr, checkpoint_stride=50)
        assert np.allclose(np.sum(np.abs(kets) ** 2, axis=-1), 1.0, atol=1e-12)

    def test_checkpoint_stride_must_divide(self):
        p = qubit_params()
        with pytest.raises(ValueError):
            run_linear(np.array([1.0, 0.0]), p, np.zeros((10, 1)), checkpoint_stride=3)


class TestRowBlocks:
    def test_blocks_tile_the_leading_axis(self):
        # 64-byte rows, 3 per leading index: 2730 leading indices per block
        blocks = row_blocks((6000, 3), 64)
        assert [(b.start, b.stop) for b in blocks] == [(0, 2730), (2730, 5460), (5460, 6000)]
        assert block_bytes((6000, 3), 64) == 2730 * 3 * 64 <= BLOCK_BYTES
        assert block_bytes((100, 3), 64) == 100 * 3 * 64  # one block holds every row
        assert row_blocks((), 64) == [...] and block_bytes((), 64) == 64
        assert row_blocks((0, 3), 64) == [] and block_bytes((0, 3), 64) == 0

    def test_no_block_is_a_single_row(self):
        # numpy multiplies a one-row matrix by another kernel: a block holds
        # two indices at least, and a lone last index joins the block before
        assert row_blocks((5,), BLOCK_BYTES) == [slice(0, 2), slice(2, 5)]
        assert block_bytes((5,), BLOCK_BYTES) == 3 * BLOCK_BYTES
        assert row_blocks((1,), BLOCK_BYTES) == [slice(0, 1)]
        size = BLOCK_BYTES // 64
        assert row_blocks((2 * size + 1,), 64) == [slice(0, size), slice(size, 2 * size + 1)]
        assert row_blocks((2 * size + 2,), 64)[-1] == slice(2 * size, 2 * size + 2)


class TestBlockedSteps:
    """The ket steps run over row blocks: the same bits for any blocking, in
    place where they finish, and a working set of their output and a few blocks."""

    @staticmethod
    def cases(d, n, picture):
        rng = np.random.default_rng(10 * d + n)
        ls = np.stack([random_operator(d, rng) for _ in range(n)])
        p = PureFilterParams(random_hermitian(d, rng), ls, 0.01, picture)
        m, r = 37, 3
        kets = rng.normal(size=(m, r, d)) + 1j * rng.normal(size=(m, r, d))
        return p, [
            (kets[:, 0, :], rng.normal(0.0, 0.1, (m, n))),
            (kets, rng.normal(0.0, 0.1, (m, 1, n))),  # an ensemble's kets on shared increments
            (kets.swapaxes(0, 1)[1], rng.normal(0.0, 0.1, (m, n))),  # strided rows
            (kets[0, 0], rng.normal(0.0, 0.1, n)),  # one ket
        ]

    @pytest.mark.parametrize("picture", PICTURES)
    @pytest.mark.parametrize("d, n", [(1, 1), (2, 1), (2, 2), (4, 3)])
    def test_bits_do_not_depend_on_the_blocking(self, monkeypatch, d, n, picture):
        p, cases = self.cases(d, n, picture)
        steps = (linear_pure_step, nonlinear_pure_step, lambda x, p, db, t: _nonlinear_pure_update(x, p, db, t))
        whole = [[step(x, p, dy, 0.37) for x, dy in cases] for step in steps]
        for rows in (2, 4, 5):  # blocks of a few rows; 37 rows leave a remainder of 1, 1 and 2
            monkeypatch.setattr(pure, "BLOCK_BYTES", rows * (1 + n) * d * 16)
            for step, ref in zip(steps, whole):
                for (x, dy), out in zip(cases, ref):
                    assert np.array_equal(step(x, p, dy, 0.37), out)

    @pytest.mark.parametrize("d, n", [(1, 1), (2, 2), (4, 3)])
    def test_renormalizes_in_place_bitwise(self, d, n):
        # the in-place division by each block's norms gives the bits of the
        # update divided by its norms as one array
        p, cases = self.cases(d, n, "interaction")
        for x, db in cases:
            out = _nonlinear_pure_update(x, p, db, 0.37)
            assert np.array_equal(nonlinear_pure_step(x, p, db, 0.37),
                                  out / np.linalg.norm(out, axis=-1, keepdims=True))

    @pytest.mark.parametrize("picture", PICTURES)
    @pytest.mark.parametrize("step", [linear_pure_step, nonlinear_pure_step])
    def test_working_set_is_the_output_and_a_few_blocks(self, step, picture):
        # d = 4, n = 1: 4096 kets a block, and 16 blocks' worth of kets (a
        # 2 MiB state beside 512 KiB blocks).  Besides its output the step
        # holds at most three blocks and a few float64 per trajectory
        # (norms, compensators), far less than one more state.
        d, n = 4, 1
        rng = np.random.default_rng(3)
        p = PureFilterParams(random_hermitian(d, rng), random_operator(d, rng)[None], 1e-3, picture)
        m = 16 * BLOCK_BYTES // ((1 + n) * d * 16) + 5
        chi = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
        dy = rng.normal(0.0, 0.03, (m, n))
        step(chi, p, dy, 0.2)  # the interaction picture's propagator, built on first use
        out, peak = traced_peak(lambda: step(chi, p, dy, 0.2))
        assert out.nbytes == chi.nbytes
        assert peak <= out.nbytes + 3 * BLOCK_BYTES + 4 * m * n * 8, (peak - out.nbytes) / BLOCK_BYTES

import numpy as np
import pytest

from qsme.linalg import (
    SIGMA_X,
    SIGMA_Z,
    Propagator,
    coupling_norm,
    hermitian_spectrum,
    hermitianize,
    hs_norm,
    operator_norm,
    positive_parts,
    random_density,
    random_hermitian,
    random_operator,
    require_density,
)

from oracles import dress, evolution_factor, random_ket


class TestSpectrum:
    def test_sigma_z(self):
        w, v = hermitian_spectrum(SIGMA_Z)
        assert np.allclose(w, [-1.0, 1.0])

    def test_identity(self):
        w, _ = hermitian_spectrum(np.eye(3, dtype=complex))
        assert np.allclose(w, 1.0)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = random_hermitian(8, rng)
            w, v = hermitian_spectrum(a)
            assert hs_norm((v * w) @ v.conj().T - a) <= 1e-10 * hs_norm(a)
            assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            hermitian_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPositiveParts:
    def test_sigma_z_split(self):
        plus, minus = positive_parts(SIGMA_Z)
        assert np.allclose(plus, np.diag([1.0, 0.0]))
        assert np.allclose(minus, np.diag([0.0, 1.0]))

    def test_psd_input_untouched(self):
        rng = np.random.default_rng(3)
        a = random_density(4, rng)
        plus, minus = positive_parts(a)
        assert np.allclose(plus, a, atol=1e-12)
        assert np.allclose(minus, 0.0, atol=1e-12)

    def test_difference_and_orthogonality(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_hermitian(6, rng)
            plus, minus = positive_parts(a)
            assert np.max(np.abs(a - (plus - minus))) <= 1e-10
            assert np.min(np.linalg.eigvalsh(plus)) >= -1e-9
            assert np.min(np.linalg.eigvalsh(minus)) >= -1e-9
            assert hs_norm(plus @ minus) <= 1e-9

    def test_trace_norm_is_sum_of_parts(self):
        # independent oracle: sum of |eigenvalues|
        rng = np.random.default_rng(11)
        a = random_hermitian(7, rng)
        plus, minus = positive_parts(a)
        oracle = float(np.sum(np.abs(np.linalg.eigvalsh(a))))
        assert np.isclose(np.trace(plus + minus).real, oracle, atol=1e-10)
        assert np.isclose(np.linalg.norm(a, "nuc"), oracle, atol=1e-10)


class TestEvolutionFactor:
    def test_zero_time_is_identity(self):
        h = random_hermitian(5, np.random.default_rng(1))
        assert np.allclose(evolution_factor(h, 0.0), np.eye(5))

    def test_sigma_z_half_period(self):
        assert np.allclose(evolution_factor(SIGMA_Z, np.pi), -np.eye(2))

    def test_unitarity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(2, 17))
            u = evolution_factor(random_hermitian(d, rng), float(rng.normal()))
            assert hs_norm(u.conj().T @ u - np.eye(d)) <= 1e-10

    def test_group_law(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(6, rng)
        t, s = 0.37, -1.21
        lhs = evolution_factor(h, t) @ evolution_factor(h, s)
        assert hs_norm(lhs - evolution_factor(h, t + s)) <= 1e-9


class TestDress:
    def test_commuting_case_unchanged(self):
        assert np.allclose(dress(SIGMA_Z, SIGMA_Z, 0.83), SIGMA_Z)

    def test_zero_time(self):
        assert np.allclose(dress(SIGMA_X, SIGMA_Z, 0.0), SIGMA_X)

    def test_against_product_oracle(self):
        # direct matrix-product oracle via evolution_factor
        expected = (
            evolution_factor(SIGMA_Z, -np.pi / 2) @ SIGMA_X @ evolution_factor(SIGMA_Z, np.pi / 2)
        )
        assert np.allclose(dress(SIGMA_X, SIGMA_Z, np.pi / 2), expected)

    def test_norm_preservation(self):
        rng = np.random.default_rng(13)
        l = random_operator(5, rng)
        h = random_hermitian(5, rng)
        before = np.linalg.svd(l, compute_uv=False)
        after = np.linalg.svd(dress(l, h, 0.77), compute_uv=False)
        assert np.allclose(before, after, rtol=1e-9)

    def test_propagator_matches_direct(self):
        rng = np.random.default_rng(17)
        h = random_hermitian(4, rng)
        ls = np.stack([random_operator(4, rng) for _ in range(2)])
        prop = Propagator(h)
        assert np.allclose(prop.dress(ls, 0.4)[1], dress(ls[1], h, 0.4))


class TestNorms:
    def test_sigma_x(self):
        assert np.isclose(operator_norm(SIGMA_X), 1.0)
        assert np.isclose(hs_norm(SIGMA_X), np.sqrt(2.0))

    def test_zero(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0
        assert hs_norm(np.zeros((3, 3))) == 0.0

    def test_rank_one_projector(self):
        # all three norms of a unit-ket projector are 1
        x = random_ket(6, np.random.default_rng(23))
        proj = np.outer(x, x.conj())
        assert np.isclose(operator_norm(proj), 1.0)
        assert np.isclose(hs_norm(proj), 1.0)

    def test_ordering(self):
        # operator <= Hilbert-Schmidt <= trace norm, against the singular values
        rng = np.random.default_rng(29)
        for _ in range(50):
            a = random_operator(int(rng.integers(2, 9)), rng)
            s = np.linalg.svd(a, compute_uv=False)
            op, hs = operator_norm(a), float(hs_norm(a))
            assert np.isclose(op, s.max()) and np.isclose(hs, np.sqrt(np.sum(s**2)))
            assert op <= hs + 1e-12
            assert hs <= np.sum(s) + 1e-12

    def test_coupling_norm_sums_channels(self):
        assert np.isclose(coupling_norm(np.stack([SIGMA_X, 2 * SIGMA_Z])), 3.0)


class TestValidators:
    def test_require_density_accepts_valid(self):
        require_density(np.diag([0.5, 0.5]).astype(complex))

    def test_require_density_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            require_density(np.diag([0.5, 0.4]).astype(complex))

    def test_require_density_rejects_negative(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            require_density(np.diag([1.5, -0.5]).astype(complex))

    def test_hermitianize_is_exact(self):
        rng = np.random.default_rng(31)
        a = random_operator(5, rng)
        h = hermitianize(a)
        assert np.array_equal(h, h.conj().T)


def _hermitianize_cases():
    """Complex and real batches, small and past numpy's 256 KiB temporary-elision size, with
    signed zeros, as arrays and as non-contiguous views."""
    rng = np.random.default_rng(32)
    z = rng.normal(size=(300, 16, 16)) + 1j * rng.normal(size=(300, 16, 16))  # 1.2 MB
    z[:, 2, 3], z[:, 3, 2], z[:, 4, 4] = complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)
    r = rng.normal(size=(5, 4, 4))
    r[:, 0, 1] = r[:, 1, 0] = r[:, 2, 2] = -0.0
    return {
        "complex_large": z,
        "complex_small": z[:4].copy(),
        "complex_single": z[7].copy(),
        "complex_strided_view": z[::2, ::3, ::3],
        "complex_transposed_view": np.swapaxes(z, -1, -2),
        "real": r,
        "real_reversed_view": r[..., ::-1],
    }


@pytest.mark.parametrize("name", list(_hermitianize_cases()))
def test_hermitianize_is_the_half_sum_bit_for_bit(name):
    # the density steppers' outputs, and so every reduction of them, rest on
    # hermitianize being 0.5 * (A + A†) in its values, signed zeros included,
    # and in its memory order
    a = _hermitianize_cases()[name]
    h = hermitianize(a)
    ref = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))  # outside an assert, whose rewrite would hold the temporaries
    assert h.dtype == ref.dtype and h.strides == ref.strides
    assert np.array_equal(h, ref)
    assert np.array_equal(np.signbit(h.real), np.signbit(ref.real))
    assert np.array_equal(np.signbit(h.imag), np.signbit(ref.imag))
    assert np.array_equal(h, np.conj(np.swapaxes(h, -1, -2)))
    assert not np.shares_memory(h, a)

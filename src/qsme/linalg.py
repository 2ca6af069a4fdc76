"""Dense complex linear algebra for operators on a finite-dimensional Hilbert space.

States are plain numpy arrays: kets are complex vectors of shape ``(d,)``
(optionally batched ``(..., d)``), operators are complex matrices of shape
``(d, d)``.  Everything here treats its inputs as immutable and returns fresh
arrays that no later call writes to, so a result can be kept or shared as it
is.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances used across the package, scenario validation included.
HERMITICITY_TOL = 1e-10  # largest ||A - A†||_HS / max(1, ||A||_HS) is_hermitian accepts
DENSITY_POS_TOL = 1e-9  # most negative eigenvalue require_density accepts
DENSITY_TRACE_TOL = 1e-10  # largest |tr rho - 1| require_density accepts

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose, batched over leading axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Return (A + A†)/2.

    Applied after any arithmetic meant to produce a Hermitian result;
    floating-point drift otherwise accumulates across SDE steps.
    """
    return 0.5 * (a + dag(a))


def hs_norm(a: np.ndarray) -> float | np.ndarray:
    """Hilbert-Schmidt (Frobenius) norm sqrt(tr A†A)."""
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(a, 2))


def coupling_norm(ls: np.ndarray) -> float:
    """The channel norm used by every growth estimate: sum of per-channel operator norms."""
    return float(sum(operator_norm(l) for l in ls))


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """||A - A†||_HS <= tol * max(1, ||A||_HS); False for a non-finite entry.

    Where ||A||_HS overflows, A is first scaled by a power of two that brings
    its largest real or imaginary part below 1, and the 1 of the bound with
    it, so the verdict is that of the exact norms.  An ||A - A†||_HS that
    overflows beside a finite ||A||_HS is far beyond the bound either way.
    """
    a, scale = np.asarray(a), 1.0
    with np.errstate(over="ignore"):
        norm = float(hs_norm(a))
        if not math.isfinite(norm):
            if not np.isfinite(a).all():
                return False
            scale = math.ldexp(1.0, -math.frexp(float(np.max(np.abs([a.real, a.imag]))))[1])
            a = a * scale
            norm = float(hs_norm(a))
        return bool(hs_norm(a - dag(a)) <= tol * max(scale, norm))


def require_hermitian(a: np.ndarray, name: str = "operator") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not is_hermitian(a):
        raise ValueError(f"{name} is not Hermitian within tolerance {HERMITICITY_TOL}")
    return a


def require_density(rho: np.ndarray) -> np.ndarray:
    """Validate an initial state rho0: Hermitian, positive within DENSITY_POS_TOL, unit trace within DENSITY_TRACE_TOL."""
    rho = require_hermitian(rho, name="rho0")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise ValueError(f"rho0 trace != 1 (got {tr!r})")
    wmin = float(np.linalg.eigvalsh(rho)[0])
    if wmin < -DENSITY_POS_TOL:
        raise ValueError(f"rho0 has eigenvalue {wmin!r} below -{DENSITY_POS_TOL}")
    return rho


def hermitian_spectrum(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, real) and orthonormal eigenvectors (columns) of a Hermitian matrix.

    The input must be Hermitian within HERMITICITY_TOL.  For degenerate
    eigenvalues any orthonormal basis of the eigenspace may be returned;
    callers must not rely on the particular choice.
    """
    a = require_hermitian(a)
    w, v = np.linalg.eigh(a)
    return w, v


def positive_parts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral split A = A+ - A- with both parts positive semidefinite."""
    w, v = hermitian_spectrum(a)
    plus = hermitianize((v * np.maximum(w, 0.0)) @ dag(v))
    minus = hermitianize((v * np.maximum(-w, 0.0)) @ dag(v))
    return plus, minus


class Propagator:
    """Cached spectral decomposition of a Hamiltonian.

    Interaction-picture stepping needs exp(±iHt) and dressed couplings fresh
    at every step; the eigendecomposition is done once here and each call is
    then O(d^3) matrix products, which is fine at desk scale.
    """

    def __init__(self, h: np.ndarray):
        self.h = require_hermitian(h, name="H")
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(self.h)

    def factor(self, t: float) -> np.ndarray:
        """exp(-iHt)."""
        v = self.eigenvectors
        return (v * np.exp(-1j * self.eigenvalues * t)) @ dag(v)

    def dress(self, ls: np.ndarray, t: float) -> np.ndarray:
        """exp(iHt) L exp(-iHt) for a stack of operators of shape (n, d, d), or one (d, d)."""
        u = self.factor(t)
        return dag(u) @ ls @ u


def random_operator(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2 * d)


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    return hermitianize(random_operator(d, rng, np.sqrt(2)))


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density operator; rank-limited when ``rank`` is given."""
    r = d if rank is None else min(rank, d)
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    rho = g @ dag(g)
    return hermitianize(rho / np.trace(rho).real)

"""Two-mode Gaussian states and channels as first and second moments.

Quadrature convention: x = (a + a^dag)/2, y = (a - a^dag)/(2i), so the vacuum
covariance is diag(1/4, 1/4) per mode and the commutator is [x, y] = i/2.
Moments are ordered (x1, y1, x2, y2).

Twin-beam family states (two-mode squeezed vacuum, possibly displaced and/or
degraded by Gaussian noise) are EPR-correlated: the rotated quadratures
(x1 - x2)/sqrt(2) and (y1 + y2)/sqrt(2) are squeezed below vacuum, while
(x1 + x2)/sqrt(2) and (y1 - y2)/sqrt(2) are anti-squeezed.  Heterodyne
detection of the joint photocurrent measures the commuting pair
(x1 - x2, y1 + y2), whose clean twin-beam complex variance is
(1 - x)/(1 + x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Vacuum variance per quadrature in this convention.
VACUUM_VAR = 0.25


class UnsupportedStateError(ValueError):
    """State lies outside the twin-beam family handled by heterodyne."""


class NonPhysicalStateError(ValueError):
    """Covariance matrix violates the bona fide state condition."""


@dataclass(frozen=True)
class GaussianTwoModeState:
    """Two-mode Gaussian state given by quadrature means and covariances.

    mean: length-4 vector (x1, y1, x2, y2).
    cov:  symmetric positive-definite 4x4 matrix; vacuum is diag(1/4).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(4)
        cov = np.asarray(self.cov, dtype=float).reshape(4, 4)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise NonPhysicalStateError("covariance matrix must be symmetric")
        if np.any(np.linalg.eigvalsh(cov) <= 0):
            raise NonPhysicalStateError("covariance matrix must be positive definite")


def vacuum_state() -> GaussianTwoModeState:
    return GaussianTwoModeState(np.zeros(4), VACUUM_VAR * np.eye(4))


@dataclass(frozen=True)
class TwinBeamParams:
    """Squeezing of a twin-beam: r0, with x = tanh r0 and N = 2 sinh^2 r0."""

    r0: float

    def __post_init__(self):
        r0 = float(self.r0)
        if r0 < 0:
            raise ValueError(f"squeezing parameter must be >= 0, got {r0}")
        object.__setattr__(self, "r0", r0)

    @property
    def x(self) -> float:
        """Schmidt parameter tanh(r0) of the photon-number expansion."""
        return math.tanh(self.r0)

    @property
    def N(self) -> float:
        """Total mean photon number 2 sinh^2(r0) = 2 x^2 / (1 - x^2)."""
        return 2.0 * math.sinh(self.r0) ** 2

    @classmethod
    def from_x(cls, x: float) -> "TwinBeamParams":
        x = float(x)
        if not 0.0 <= x < 1.0:
            raise ValueError(f"Schmidt parameter must be in [0, 1), got {x}")
        return cls(math.atanh(x))

    @classmethod
    def from_mean_photons(cls, N: float) -> "TwinBeamParams":
        N = float(N)
        if N < 0:
            raise ValueError(f"mean photon number must be >= 0, got {N}")
        return cls(math.asinh(math.sqrt(N / 2.0)))


@dataclass(frozen=True)
class NoiseParams:
    """Gaussian noise channel with complex-plane variance nbar.

    nbar is the mean thermal photon number of the random-displacement
    channel; each quadrature variance grows by nbar/2.
    """

    nbar: float

    def __post_init__(self):
        nbar = float(self.nbar)
        if nbar < 0:
            raise ValueError(f"nbar must be >= 0, got {nbar}")
        object.__setattr__(self, "nbar", nbar)


def family_state(diag: float, cross: float) -> GaussianTwoModeState:
    """Zero-mean twin-beam family state in the (x1, y1, x2, y2) basis.

    The covariance has diag on the diagonal and +-cross on the x1x2 / y1y2
    cross terms; the EPR variances are diag +- cross.
    """
    cov = np.array(
        [
            [diag, 0.0, cross, 0.0],
            [0.0, diag, 0.0, -cross],
            [cross, 0.0, diag, 0.0],
            [0.0, -cross, 0.0, diag],
        ]
    )
    return GaussianTwoModeState(np.zeros(4), cov)


@dataclass(frozen=True)
class TwinBeamFamilyState:
    """Zero-mean twin-beam family state given by its EPR variances.

    Sigma_plus_sq is the variance of (x1 + x2)/sqrt(2) and (y1 - y2)/sqrt(2),
    Sigma_minus_sq that of (x1 - x2)/sqrt(2) and (y1 + y2)/sqrt(2); both modes
    after a 50:50 beam splitter have symplectic eigenvalue sqrt(product).
    """

    Sigma_plus_sq: float
    Sigma_minus_sq: float

    @property
    def cov(self) -> np.ndarray:
        """Dense (x1, y1, x2, y2) covariance, built on demand."""
        plus, minus = self.Sigma_plus_sq, self.Sigma_minus_sq
        return family_state((plus + minus) / 2.0, (plus - minus) / 2.0).cov

    def is_bona_fide(self, tol: float = 1e-10) -> bool:
        """Uncertainty condition: the symplectic eigenvalue is at least 1/4."""
        plus, minus = self.Sigma_plus_sq, self.Sigma_minus_sq
        return min(plus, minus) > 0.0 and plus * minus >= VACUUM_VAR**2 - tol


def make_twin_beam(params: TwinBeamParams) -> GaussianTwoModeState:
    """Twin-beam state with EPR variances e^{+-2 r0}/4 on the rotated quadratures.

    Its covariance has cosh(2 r0)/4 on the diagonal and sinh(2 r0)/4 as the
    cross term of family_state.
    """
    two_r0 = 2.0 * params.r0
    return family_state(math.cosh(two_r0) / 4.0, math.sinh(two_r0) / 4.0)


def apply_displacement(
    state: GaussianTwoModeState, alpha: complex, mode: int
) -> GaussianTwoModeState:
    """Displace one mode by alpha: mean shifts by (Re alpha, Im alpha)."""
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    alpha = complex(alpha)
    mean = state.mean.copy()
    off = 2 * (mode - 1)
    mean[off] += alpha.real
    mean[off + 1] += alpha.imag
    return GaussianTwoModeState(mean, state.cov)


def apply_gaussian_noise(
    state: GaussianTwoModeState, noise: NoiseParams, mode: str | int = "both"
) -> GaussianTwoModeState:
    """Gaussian noise channel: adds nbar/2 per quadrature of the chosen mode(s)."""
    if mode == "both":
        idx = [0, 1, 2, 3]
    elif mode == 1:
        idx = [0, 1]
    elif mode == 2:
        idx = [2, 3]
    else:
        raise ValueError(f"mode must be 1, 2 or 'both', got {mode!r}")
    cov = state.cov.copy()
    cov[idx, idx] += noise.nbar / 2.0
    return GaussianTwoModeState(state.mean, cov)


# Coefficient rows of the measured commuting pair (x1 - x2, y1 + y2).
_HET_RE = np.array([1.0, 0.0, -1.0, 0.0])
_HET_IM = np.array([0.0, 1.0, 0.0, 1.0])


def heterodyne_mean_and_variance(
    state: GaussianTwoModeState, tol: float = 1e-9
) -> tuple[complex, float]:
    """Mean and complex variance of the joint heterodyne outcome.

    The outcome is z = (x1 - x2) + i (y1 + y2); for twin-beam family states
    its density is isotropic Gaussian with complex variance
    Delta^2 = Var(Re z) + Var(Im z).  Raises UnsupportedStateError when the
    second moments are anisotropic or correlated (outside the family).
    """
    mu = complex(_HET_RE @ state.mean, _HET_IM @ state.mean)
    var_re = _HET_RE @ state.cov @ _HET_RE
    var_im = _HET_IM @ state.cov @ _HET_IM
    cross = _HET_RE @ state.cov @ _HET_IM
    if abs(var_re - var_im) > tol or abs(cross) > tol:
        raise UnsupportedStateError(
            "heterodyne statistics are anisotropic; state is outside the "
            "twin-beam family"
        )
    return mu, var_re + var_im


def complex_gaussian_pdf(z: complex, mu: complex, variance: float) -> float:
    """Isotropic complex-Gaussian density exp(-|z - mu|^2 / v) / (pi v)."""
    return math.exp(-abs(complex(z) - mu) ** 2 / variance) / (math.pi * variance)


def heterodyne_pdf(state: GaussianTwoModeState, z: complex) -> float:
    """Probability density of heterodyne outcome z on a twin-beam family state."""
    mu, delta_sq = heterodyne_mean_and_variance(state)
    return complex_gaussian_pdf(z, mu, delta_sq)


def sample_heterodyne(
    state: GaussianTwoModeState,
    n_samples: int,
    seed: int | np.random.SeedSequence,
) -> np.ndarray:
    """Draw i.i.d. heterodyne outcomes; deterministic for a given seed."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    mu, delta_sq = heterodyne_mean_and_variance(state)
    rng = np.random.default_rng(seed)
    scale = math.sqrt(delta_sq / 2.0)
    re = rng.normal(mu.real, scale, size=n_samples)
    im = rng.normal(mu.imag, scale, size=n_samples)
    return re + 1j * im


@dataclass(frozen=True)
class SeparabilityResult:
    separable: bool
    witness: float  # smallest symplectic eigenvalue of the transposed covariance


def ppt_separable(state: TwinBeamFamilyState, tol: float = 1e-12) -> SeparabilityResult:
    """PPT criterion (Simon, PRL 84, 2726 (2000)) for a twin-beam family state.

    Partial transposition flips the sign of y2, so the transposed covariance
    has symplectic eigenvalues Sigma_plus_sq and Sigma_minus_sq.  The smaller
    one is returned as a witness so near-threshold states can be ranked; the
    state is separable iff it lies strictly above the vacuum level 1/4 - tol.
    """
    if not state.is_bona_fide():
        raise NonPhysicalStateError("covariance violates the uncertainty relation")
    witness = min(state.Sigma_plus_sq, state.Sigma_minus_sq)
    return SeparabilityResult(separable=witness > VACUUM_VAR - tol, witness=witness)

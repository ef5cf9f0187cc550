"""Twin-beam family states and channels, held as EPR variances.

Quadrature convention: x = (a + a^dag)/2, y = (a - a^dag)/(2i), so the vacuum
covariance is diag(1/4, 1/4) per mode and the commutator is [x, y] = i/2.

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
from dataclasses import dataclass, replace

import numpy as np

# Vacuum variance per quadrature in this convention.
VACUUM_VAR = 0.25


class NonPhysicalStateError(ValueError):
    """Covariance matrix violates the bona fide state condition."""


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

    @property
    def epr_variances(self) -> tuple[float, float]:
        """(Sigma_plus_sq, Sigma_minus_sq) = (e^{2 r0}/4, e^{-2 r0}/4) of the twin-beam."""
        return math.exp(2.0 * self.r0) / 4.0, math.exp(-2.0 * self.r0) / 4.0


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


@dataclass(frozen=True)
class TwinBeamFamilyState:
    """Twin-beam family state given by its EPR variances and heterodyne mean.

    Sigma_plus_sq is the variance of (x1 + x2)/sqrt(2) and (y1 - y2)/sqrt(2),
    Sigma_minus_sq that of (x1 - x2)/sqrt(2) and (y1 + y2)/sqrt(2); both modes
    after a 50:50 beam splitter have symplectic eigenvalue sqrt(product).
    mean is the mean of the joint heterodyne outcome z = (x1 - x2) + i (y1 + y2).
    """

    Sigma_plus_sq: float
    Sigma_minus_sq: float
    mean: complex = 0j

    def is_bona_fide(self, tol: float = 1e-10) -> bool:
        """Uncertainty condition: the symplectic eigenvalue is at least 1/4."""
        plus, minus = self.Sigma_plus_sq, self.Sigma_minus_sq
        return min(plus, minus) > 0.0 and plus * minus >= VACUUM_VAR**2 - tol

    def displaced(self, alpha: complex) -> "TwinBeamFamilyState":
        """Displace mode 1 by alpha: the heterodyne mean shifts by alpha."""
        return replace(self, mean=self.mean + complex(alpha))

    def with_noise(self, noise: NoiseParams, modes: int = 2) -> "TwinBeamFamilyState":
        """Gaussian noise channel on mode 1 (modes=1) or on both modes (modes=2).

        Each noisy mode gains nbar/2 per quadrature, which adds nbar/4 to both
        EPR variances.  Noise on one mode also adds a cross-covariance +-nbar/4
        between the (x1 + x2, x1 - x2) and (y1 - y2, y1 + y2) pairs; it is
        dropped here, and no heterodyne statistic reads it, so for heterodyne
        the result is exact.
        """
        if modes not in (1, 2):
            raise ValueError(f"modes must be 1 or 2, got {modes!r}")
        added = modes * noise.nbar / 4.0
        return replace(self, Sigma_plus_sq=self.Sigma_plus_sq + added,
                       Sigma_minus_sq=self.Sigma_minus_sq + added)


def make_twin_beam(params: TwinBeamParams) -> TwinBeamFamilyState:
    """Twin-beam state with EPR variances e^{+-2 r0}/4 on the rotated quadratures."""
    return TwinBeamFamilyState(*params.epr_variances)


def heterodyne_mean_and_variance(state: TwinBeamFamilyState) -> tuple[complex, float]:
    """Mean and complex variance of the joint heterodyne outcome.

    The outcome z = (x1 - x2) + i (y1 + y2) has isotropic Gaussian density
    with complex variance Delta^2 = Var(Re z) + Var(Im z) = 4 Sigma_minus_sq.
    """
    return state.mean, 4.0 * state.Sigma_minus_sq


def complex_gaussian_pdf(z: complex, mu: complex, variance: float) -> float:
    """Isotropic complex-Gaussian density exp(-|z - mu|^2 / v) / (pi v)."""
    return math.exp(-abs(complex(z) - mu) ** 2 / variance) / (math.pi * variance)


def heterodyne_pdf(state: TwinBeamFamilyState, z: complex) -> float:
    """Probability density of heterodyne outcome z on a twin-beam family state."""
    mu, delta_sq = heterodyne_mean_and_variance(state)
    return complex_gaussian_pdf(z, mu, delta_sq)


def sample_heterodyne(
    state: TwinBeamFamilyState,
    n_samples: int,
    seed: int | np.random.SeedSequence,
) -> np.ndarray:
    """Draw i.i.d. heterodyne outcomes; deterministic for a given seed."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    mu, delta_sq = heterodyne_mean_and_variance(state)
    rng = np.random.default_rng(seed)
    scale = math.sqrt(delta_sq / 2.0)
    # filled part by part: re + 1j * im would multiply 0 by an infinite im
    out = np.empty(n_samples, dtype=complex)
    out.real = rng.normal(mu.real, scale, size=n_samples)
    out.imag = rng.normal(mu.imag, scale, size=n_samples)
    return out


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

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
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

# Vacuum variance per quadrature in this convention.
VACUUM_VAR = 0.25


class NonPhysicalStateError(ValueError):
    """Covariance matrix violates the bona fide state condition."""


def _squeezing(r0: float) -> float:
    """r0 as a float, checked to be >= 0."""
    r0 = float(r0)
    if not r0 >= 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r0}")
    return r0


def _schmidt(x: float) -> float:
    """x as a float, checked to be in [0, 1)."""
    x = float(x)
    if not 0.0 <= x < 1.0:
        raise ValueError(f"Schmidt parameter must be in [0, 1), got {x}")
    return x


def _epr_variances(r0: float) -> tuple[float, float]:
    """(Sigma_plus_sq, Sigma_minus_sq) = (e^{2 r0}/4, e^{-2 r0}/4) of a twin-beam, r0 checked."""
    r0 = _squeezing(r0)
    return math.exp(2.0 * r0) / 4.0, math.exp(-2.0 * r0) / 4.0


class TwinBeamParams(NamedTuple("TwinBeamParams", [("r0", float)])):
    """Squeezing of a twin-beam: r0, with x = tanh r0 and N = 2 sinh^2 r0."""

    __slots__ = ()

    def __new__(cls, r0: float) -> "TwinBeamParams":
        return super().__new__(cls, _squeezing(r0))

    @property
    def N(self) -> float:
        """Total mean photon number 2 sinh^2(r0) = 2 x^2 / (1 - x^2)."""
        s = math.sinh(self.r0)
        return 2.0 * s * s

    @classmethod
    def from_x(cls, x: float) -> "TwinBeamParams":
        return cls(math.atanh(_schmidt(x)))

    @classmethod
    def from_mean_photons(cls, N: float) -> "TwinBeamParams":
        N = float(N)
        if not N >= 0:
            raise ValueError(f"mean photon number must be >= 0, got {N}")
        return cls(math.asinh(math.sqrt(N / 2.0)))


class TwinBeamFamilyState(NamedTuple):
    """Twin-beam family state given by its EPR variances and heterodyne mean.

    Sigma_plus_sq is the variance of (x1 + x2)/sqrt(2) and (y1 - y2)/sqrt(2),
    Sigma_minus_sq that of (x1 - x2)/sqrt(2) and (y1 + y2)/sqrt(2); both modes
    after a 50:50 beam splitter have symplectic eigenvalue sqrt(product).
    mean is the mean of the joint heterodyne outcome z = (x1 - x2) + i (y1 + y2).
    """

    Sigma_plus_sq: float
    Sigma_minus_sq: float
    mean: complex = 0j

    def is_bona_fide(self) -> bool:
        """Uncertainty condition: the symplectic eigenvalue is at least 1/4, up to 1e-10."""
        plus, minus = self.Sigma_plus_sq, self.Sigma_minus_sq
        return min(plus, minus) > 0.0 and plus * minus >= VACUUM_VAR**2 - 1e-10

    def displaced(self, alpha: complex) -> "TwinBeamFamilyState":
        """Displace mode 1 by alpha: the heterodyne mean shifts by alpha."""
        return self._replace(mean=self.mean + complex(alpha))

    def with_noise(self, nbar: float, modes: int = 2) -> "TwinBeamFamilyState":
        """Gaussian noise channel on mode 1 (modes=1) or on both modes (modes=2).

        nbar >= 0 is the channel's mean thermal photon number.  Each noisy
        mode gains nbar/2 per quadrature, which adds nbar/4 to both EPR
        variances.  Noise on one mode also adds a cross-covariance +-nbar/4
        between the (x1 + x2, x1 - x2) and (y1 - y2, y1 + y2) pairs; it is
        dropped here, and no heterodyne statistic reads it, so for heterodyne
        the result is exact.
        """
        nbar = float(nbar)
        if not nbar >= 0:
            raise ValueError(f"nbar must be >= 0, got {nbar}")
        if modes not in (1, 2):
            raise ValueError(f"modes must be 1 or 2, got {modes!r}")
        added = modes * nbar / 4.0
        return self._replace(Sigma_plus_sq=self.Sigma_plus_sq + added,
                             Sigma_minus_sq=self.Sigma_minus_sq + added)


def make_twin_beam(params: TwinBeamParams) -> TwinBeamFamilyState:
    """Twin-beam state with EPR variances e^{+-2 r0}/4 on the rotated quadratures."""
    return TwinBeamFamilyState(*_epr_variances(params.r0))


def heterodyne_mean_and_variance(state: TwinBeamFamilyState) -> tuple[complex, float]:
    """Mean and complex variance of the joint heterodyne outcome.

    The outcome z = (x1 - x2) + i (y1 + y2) has isotropic Gaussian density
    with complex variance Delta^2 = Var(Re z) + Var(Im z) = 4 Sigma_minus_sq.
    """
    return state.mean, 4.0 * state.Sigma_minus_sq


# Samples per block of the Monte Carlo kernels; a block and its scratch stay
# in cache.  Consecutive draws on one Generator continue one stream, so a
# kernel that draws its samples block by block draws the same numbers.
_BLOCK = 1 << 15


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num).tolist()`` for num >= 1, without numpy.

    The same IEEE operations as numpy: point i is i * step + start, or
    i / div * delta + start where the step underflows to 0 (a subnormal
    span), and the last point is stop itself; one point is 0.0 * delta + start.
    """
    delta = stop - start
    div = num - 1
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0:
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def sample_heterodyne(
    state: TwinBeamFamilyState,
    n_samples: int,
    seed: int | np.random.SeedSequence,
) -> np.ndarray:
    """Draw i.i.d. heterodyne outcomes; deterministic for a given seed.

    The stream is all real parts, then all imaginary parts.  Only the
    returned complex array (16 bytes per sample) is held whole; each part is
    drawn into it one block of ``_BLOCK`` samples at a time.
    """
    import numpy as np  # here, so that the package imports without numpy
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    mu, delta_sq = heterodyne_mean_and_variance(state)
    rng = np.random.default_rng(seed)
    scale = math.sqrt(delta_sq / 2.0)
    # filled part by part: re + 1j * im would multiply 0 by an infinite im
    out = np.empty(n_samples, dtype=complex)
    for part, loc in ((out.real, mu.real), (out.imag, mu.imag)):
        for start in range(0, n_samples, _BLOCK):
            block = part[start:start + _BLOCK]
            block[...] = rng.normal(loc, scale, size=len(block))
    return out


def _correctly_rounded_mean(values: np.ndarray) -> float:
    """``math.fsum(values) / len(values)`` for a 1-D array of floats, vectorised.

    The sum is correctly rounded, so the result does not depend on the order
    in which numpy adds, or on the build.  Each block is split by error-free
    extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 189 (2008)):
    ``hi = (v + sigma) - sigma`` with sigma a power of two above the block's
    (size + 1) * max|v|, so every ``hi`` and every partial sum of them is a
    multiple of ulp(sigma)/2 below sigma and ``np.sum(hi)`` is exact in any
    order.  The remainder ``v - hi`` is exact too and is summed in floating
    point, with the error bound gamma_(m-1) * m * ulp(sigma)/2 for any order.
    ``math.fsum`` combines the block sums; if the accumulated bound could
    change the rounding, or a block is out of the extraction's exponent range,
    the mean falls back to ``math.fsum`` over all values.  ``values`` may be a
    strided view; the only scratch is one block.
    """
    import numpy as np
    n = len(values)
    parts = []
    bound = 0.0
    scratch = np.empty(min(n, _BLOCK))
    for start in range(0, n, _BLOCK):
        block = values[start:start + _BLOCK]
        m = len(block)
        peak = max(block.max(), -block.min())
        # sigma = 2**k = 2**bit_length(m) * 2**exponent(peak) > (m + 1) * peak
        k = math.frexp(peak)[1] + m.bit_length()
        # the range keeps sigma finite and ulp(sigma) and the bound normal
        if not (math.isfinite(peak) and -900 <= k <= 1023):
            return math.fsum(values) / n
        sigma = math.ldexp(1.0, k)
        hi = np.add(block, sigma, out=scratch[:m])
        hi -= sigma
        parts.append(float(hi.sum()))
        parts.append(float(np.subtract(block, hi, out=hi).sum()))
        # gamma_(m-1) * m * 2**(k-53) < m**2 * 2**(k-106); the spare factor 2
        # covers the rounding of this running bound
        bound += math.ldexp(m * m, k - 105)
    low = math.fsum(parts + [-bound])
    if low != math.fsum(parts + [bound]):
        return math.fsum(values) / n
    return low / n


class SeparabilityResult(NamedTuple):
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

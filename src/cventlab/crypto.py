"""Twin-beam secret-key communication over a heterodyne channel.

Binary protocol: bits are encoded as displaced twin-beams D(+-a)|x>> and
protected by a Gaussian random-displacement key of variance kappa_key.  Bob
knows the key, undoes it and thresholds the heterodyne outcome; Eve does
not, and her best error probability is bounded by the erf formula obtained
from the positive eigenvalues of the averaged state difference.

Variance conventions follow the closed forms verbatim: the heterodyne
receiver of this module uses sigma_x^2 = (1 - x^2)/2 per quadrature, while
the complex-alphabet densities use Delta_x^2 = (1 - x)/(1 + x); the two are
not reconciled here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cventlab.discrimination import helstrom_error
from cventlab.estimation import heterodyne_variance
from cventlab.gaussian_core import TwinBeamParams, complex_gaussian_pdf


@dataclass(frozen=True)
class ProtocolConfig:
    """Binary-protocol parameters: symbols +-a on a twin-beam of parameter x."""

    x: float
    a: float
    kappa_key: float
    nbar: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.x < 1.0:
            raise ValueError(f"x must be in [0, 1), got {self.x}")
        if self.a < 0:
            raise ValueError(f"a must be >= 0, got {self.a}")
        if self.kappa_key <= 0:
            raise ValueError(f"kappa_key must be > 0, got {self.kappa_key}")
        if self.nbar < 0:
            raise ValueError(f"nbar must be >= 0, got {self.nbar}")


def receiver_variance(x: float) -> float:
    """Per-quadrature heterodyne receiver variance sigma_x^2 = (1 - x^2)/2."""
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x must be in [0, 1), got {x}")
    return 0.5 * (1.0 - x * x)


def bob_ideal_error(x: float, z0: complex, z1: complex) -> float:
    """Optimal-receiver error for displaced twin-beams.

    |<<z1|z0>>|^2 = exp(-|z0 - z1|^2 (1 + N)); for a large exponent the
    error approaches exp(-|z0 - z1|^2 (1 + N)) / 4.
    """
    sep_sq = abs(complex(z0) - complex(z1)) ** 2
    return helstrom_error(math.exp(-sep_sq * (1.0 + TwinBeamParams.from_x(x).N)))


def coherent_error(alpha0: complex, alpha1: complex) -> float:
    """Optimal-receiver error for the unentangled coherent-state encoding."""
    sep_sq = abs(complex(alpha0) - complex(alpha1)) ** 2
    return helstrom_error(math.exp(-sep_sq))


def eve_error_uniform() -> float:
    """Eve's error against a uniformly random key: exactly 1/2 (pure guess).

    The averaged state difference vanishes identically (group averaging of
    the displacement orbit); see uniform_key_eigenvalue_demo for a truncated
    numeric illustration.
    """
    return 0.5


def eve_error_gaussian_key(a: float, kappa_key: float) -> float:
    """Eve's optimal error against a Gaussian key: [1 - erf(a/sqrt(kappa))]/2."""
    if a < 0:
        raise ValueError(f"a must be >= 0, got {a}")
    if kappa_key <= 0:
        raise ValueError(f"kappa_key must be > 0, got {kappa_key}")
    return 0.5 * (1.0 - math.erf(a / math.sqrt(kappa_key)))


def eve_error_gaussian_key_asymptote(a: float, kappa_key: float) -> float:
    """Large-a/sqrt(kappa) tail sqrt(kappa) exp(-a^2/kappa) / (2 a sqrt(pi))."""
    return (
        math.sqrt(kappa_key)
        / (2.0 * a * math.sqrt(math.pi))
        * math.exp(-a * a / kappa_key)
    )


def bob_heterodyne_error(x: float, a: float) -> float:
    """Sign-threshold heterodyne receiver error [1 - erf(a/sqrt(2 sigma_x^2))]/2.

    Rule: Re[z] < 0 infers bit 0, bit 1 otherwise.
    """
    if a < 0:
        raise ValueError(f"a must be >= 0, got {a}")
    return 0.5 * (1.0 - math.erf(a / math.sqrt(2.0 * receiver_variance(x))))


@dataclass(frozen=True)
class SecurityMargin:
    secure: bool
    bob_err: float
    eve_err: float


def security_margin(x: float, kappa_key: float, a: float = 1.0) -> SecurityMargin:
    """Protocol is secure when Bob's feasible receiver beats Eve's optimum.

    That holds iff 2 sigma_x^2 < kappa_key; both error probabilities are
    reported for the given symbol amplitude.
    """
    secure = 2.0 * receiver_variance(x) < kappa_key
    return SecurityMargin(
        secure=secure,
        bob_err=bob_heterodyne_error(x, a),
        eve_err=eve_error_gaussian_key(a, kappa_key),
    )


@dataclass(frozen=True)
class AlphabetPdfs:
    """Gaussian outcome densities of the complex-alphabet channel."""

    z0: complex
    bob_variance: float  # Delta_x^2
    eve_variance: float  # Delta_x^2 + kappa_key

    def bob_pdf(self, z: complex) -> float:
        return complex_gaussian_pdf(z, self.z0, self.bob_variance)

    def eve_pdf(self, z: complex) -> float:
        return complex_gaussian_pdf(z, self.z0, self.eve_variance)


def alphabet_pdfs(z0: complex, x: float, kappa_key: float) -> AlphabetPdfs:
    """Bob sees variance Delta_x^2 around z0; Eve sees Delta_x^2 + kappa_key."""
    if kappa_key < 0:
        raise ValueError(f"kappa_key must be >= 0, got {kappa_key}")
    delta_sq = heterodyne_variance(x)
    return AlphabetPdfs(
        z0=complex(z0), bob_variance=delta_sq, eve_variance=delta_sq + kappa_key
    )


def key_pdf(alpha: complex, kappa_key: float) -> float:
    """Gaussian key density g_kappa(|alpha|^2) = exp(-|alpha|^2/kappa)/(kappa pi)."""
    return complex_gaussian_pdf(alpha, 0.0, kappa_key)


def splus_numeric(a: float, kappa_key: float, rel_tol: float = 1e-10) -> float:
    """Positive-eigenvalue sum by 2-D quadrature of f(beta) over Re beta > 0.

    f(beta) = g_kappa(|beta - a|^2) - g_kappa(|beta + a|^2); the integral over
    the positivity half-plane equals erf(a / sqrt(kappa)).
    """
    from scipy.integrate import dblquad

    s = math.sqrt(kappa_key)
    lim = a + 10.0 * s

    def f(yy, xx):
        return (
            math.exp(-((xx - a) ** 2 + yy ** 2) / kappa_key)
            - math.exp(-((xx + a) ** 2 + yy ** 2) / kappa_key)
        ) / (kappa_key * math.pi)

    val, _ = dblquad(
        f, 0.0, lim, lambda _: -lim, lambda _: lim, epsabs=1e-12, epsrel=rel_tol
    )
    return float(val)


@dataclass(frozen=True)
class ProtocolSimulation:
    bob_empirical_err: float
    eve_empirical_err: float
    n_bits: int


def simulate_binary_protocol(
    config: ProtocolConfig, n_bits: int, seed: int
) -> ProtocolSimulation:
    """End-to-end Monte Carlo of the binary protocol.

    Per bit: symbol +-a, a Gaussian key displacement, heterodyne noise of
    per-quadrature variance sigma_x^2 (+ nbar/2 channel noise if set).  Bob
    subtracts the key before thresholding Re[z]; Eve thresholds directly.
    """
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n_bits)
    symbols = np.where(bits == 1, config.a, -config.a).astype(float)
    key_re = rng.normal(0.0, math.sqrt(config.kappa_key / 2.0), size=n_bits)
    noise_var = receiver_variance(config.x) + config.nbar / 2.0
    noise_re = rng.normal(0.0, math.sqrt(noise_var), size=n_bits)
    outcome_re = symbols + key_re + noise_re

    bob_bits = ((outcome_re - key_re) >= 0.0).astype(int)
    eve_bits = (outcome_re >= 0.0).astype(int)
    return ProtocolSimulation(
        bob_empirical_err=float(np.mean(bob_bits != bits)),
        eve_empirical_err=float(np.mean(eve_bits != bits)),
        n_bits=n_bits,
    )


def uniform_key_eigenvalue_demo(
    x: float,
    a: float,
    radii: tuple[float, ...] = (1.5, 2.5, 3.5),
    grid_step: float = 0.5,
    d_max: int = 24,
) -> list[float]:
    """Max |eigenvalue| of the grid-averaged state difference, per grid radius.

    Averages D(alpha) (sigma_1 - sigma_0) D(alpha)^dag over a uniform square
    grid of key displacements of growing radius in truncated Fock space; the
    values decrease towards 0, illustrating that a uniform key erases all of
    Eve's information.
    """
    from scipy.linalg import expm

    from cventlab import fock_oracle

    dim = d_max + 1
    adag = np.diag(np.sqrt(np.arange(1, dim)), -1)

    def disp(alpha: complex) -> np.ndarray:
        return expm(alpha * adag - np.conj(alpha) * adag.T)

    tb = fock_oracle.twin_beam_fock(x, d_max).amps  # (p, q) amplitudes

    maxima = []
    for radius in radii:
        pts = np.arange(-radius, radius + grid_step / 2.0, grid_step)
        acc = np.zeros((dim * dim, dim * dim), dtype=complex)
        count = 0
        for re in pts:
            for im in pts:
                if re * re + im * im > radius * radius:
                    continue
                alpha = complex(re, im)
                # global phases of D(alpha) D(+-a) cancel in the projectors,
                # so the displaced bit states can be built in one step
                u1 = (disp(alpha + a) @ tb).reshape(-1)
                u0 = (disp(alpha - a) @ tb).reshape(-1)
                acc += np.outer(u1, u1.conj()) - np.outer(u0, u0.conj())
                count += 1
        acc /= count
        acc = (acc + acc.conj().T) / 2.0
        maxima.append(float(np.max(np.abs(np.linalg.eigvalsh(acc)))))
    return maxima

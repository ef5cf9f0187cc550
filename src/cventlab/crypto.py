"""Twin-beam secret-key communication over a heterodyne channel.

Binary protocol: bits are encoded as displaced twin-beams D(+-a)|x>> and
protected by a Gaussian random-displacement key of variance kappa_key.  Bob
knows the key, undoes it and thresholds the heterodyne outcome; Eve does
not, and her best error probability is bounded by the erf formula obtained
from the positive eigenvalues of the averaged state difference.

The heterodyne receiver of this module follows the paper's closed form,
sigma_x^2 = (1 - x^2)/2 per quadrature.  The complex-alphabet densities are
read from the family state instead, at complex variance Delta_x^2 =
(1 - x)/(1 + x): Bob's is heterodyne_pdf of make_twin_beam(...).displaced(z0),
Eve's is that of the same state after with_noise(NoiseParams(kappa_key),
modes=1), which adds kappa_key to Delta_x^2, and the key density is
complex_gaussian_pdf(alpha, 0, kappa_key).  The two variances are the
paper's, kept side by side rather than reconciled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from cventlab import fock_oracle
from cventlab.discrimination import helstrom_error
from cventlab.gaussian_core import TwinBeamParams


@dataclass(frozen=True)
class ProtocolConfig:
    """Binary-protocol parameters: symbols +-a on a twin-beam of parameter x."""

    x: float
    a: float
    kappa_key: float

    def __post_init__(self):
        if not 0.0 <= self.x < 1.0:
            raise ValueError(f"x must be in [0, 1), got {self.x}")
        if self.a < 0:
            raise ValueError(f"a must be >= 0, got {self.a}")
        if self.kappa_key <= 0:
            raise ValueError(f"kappa_key must be > 0, got {self.kappa_key}")


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


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """128-point Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(128)


def splus_numeric(a: float, kappa_key: float) -> float:
    """Positive-eigenvalue sum by 2-D quadrature of f(beta) over Re beta > 0.

    f(beta) = g_kappa(|beta - a|^2) - g_kappa(|beta + a|^2); the integral over
    the positivity half-plane equals erf(a / sqrt(kappa)).  In units of
    sqrt(kappa), with b = a/sqrt(kappa), s = (Re beta - a)/sqrt(kappa) and
    t = Im beta/sqrt(kappa), kappa cancels:

        f dbeta = [e^{-(s^2 + t^2)} - e^{-((s + 2b)^2 + t^2)}] / pi ds dt.

    A fixed tensor Gauss-Legendre rule covers s in [max(-b, -10), 10] and
    t in [-10, 10], which holds all but e^-100 of the mass for every b.  The
    far Gaussian's argument s + 2b is clamped at 40, where e^-1600 is already
    0, so even an infinite b overflows nothing.
    """
    nodes, weights = _gauss_legendre()
    b = a / math.sqrt(kappa_key)
    lo = max(-b, -10.0)
    width = 0.5 * (10.0 - lo)
    s = (lo + width * (nodes + 1.0))[:, None]
    t = 10.0 * nodes
    far = np.minimum(s + 2.0 * b, 40.0)
    f = (np.exp(-(s * s + t * t)) - np.exp(-(far * far + t * t))) / math.pi
    return float((width * weights) @ f @ (10.0 * weights))


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
    per-quadrature variance sigma_x^2.  Bob subtracts the key before
    thresholding Re[z]; Eve thresholds directly.
    """
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n_bits)
    symbols = np.where(bits == 1, config.a, -config.a).astype(float)
    key_re = rng.normal(0.0, math.sqrt(config.kappa_key / 2.0), size=n_bits)
    noise_re = rng.normal(0.0, math.sqrt(receiver_variance(config.x)), size=n_bits)
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
    d_max: int = 24,
) -> list[float]:
    """Max |eigenvalue| of the grid-averaged state difference, per grid radius.

    Averages D(alpha) (sigma_1 - sigma_0) D(alpha)^dag over a uniform square
    grid of key displacements, of step 0.5 and growing radius, in truncated
    Fock space; the values decrease towards 0, illustrating that a uniform
    key erases all of Eve's information.

    D(beta) is the exponential of the truncated generator beta a^dag - beta* a.
    For beta = |beta| e^{i theta} it equals R V exp(-i |beta| Lambda) V^dag R^dag,
    with V Lambda V^dag the eigendecomposition of the Hermitian i(a^dag - a)
    and R = diag(e^{i n theta}).  The averaged difference is W diag(s) W^dag,
    where the columns of W are the 2K displaced states of the K grid points
    and s = +-1/K; with the thin QR W = QR its nonzero spectrum is that of
    R diag(s) R^dag, of order at most 2K.
    """
    step = 0.5
    n = np.arange(d_max + 1)
    root = np.sqrt(n[1:])
    lam, vec = np.linalg.eigh(np.diag(1j * root, -1) - np.diag(1j * root, 1))
    tb = fock_oracle.twin_beam_fock(x, d_max).amps  # (p, q) amplitudes

    maxima = []
    for radius in radii:
        pts = np.arange(-radius, radius + step / 2.0, step)
        re, im = np.meshgrid(pts, pts, indexing="ij")
        alpha = (re + 1j * im)[re * re + im * im <= radius * radius]
        if len(alpha) == 0:
            raise ValueError(f"radius {radius} holds no point of the grid of step "
                             f"{step}")
        # global phases of D(alpha) D(+-a) cancel in the projectors,
        # so the displaced bit states can be built in one step
        beta = np.concatenate([alpha + a, alpha - a])
        rot = np.exp(1j * np.outer(np.angle(beta), n))
        phases = np.exp(-1j * np.outer(np.abs(beta), lam))
        disp = (rot[:, :, None] * vec) @ (
            phases[:, :, None] * (vec.conj().T * rot.conj()[:, None, :])
        )
        states = (disp @ tb).reshape(len(beta), -1)
        r = np.linalg.qr(states.T, mode="r")
        s = np.repeat([1.0 / len(alpha), -1.0 / len(alpha)], len(alpha))
        maxima.append(float(np.max(np.abs(np.linalg.eigvalsh((r * s) @ r.conj().T)))))
    return maxima

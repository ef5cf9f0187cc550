"""Twin-beam secret-key communication over a heterodyne channel.

Binary protocol: bits are encoded as displaced twin-beams D(+-a)|x>> and
protected by a Gaussian random-displacement key of variance kappa_key.  Bob
knows the key, undoes it and thresholds the heterodyne outcome; Eve does
not, and her best error probability is bounded by the erf formula obtained
from the positive eigenvalues of the averaged state difference.

The heterodyne receiver of this module follows the paper's closed form,
sigma_x^2 = (1 - x^2)/2 per quadrature, while the family state's heterodyne
outcome has complex variance Delta_x^2 = (1 - x)/(1 + x).  The two variances
are the paper's, kept side by side rather than reconciled.  Only the
functions that build arrays import numpy; the closed forms and Eve's oracle
are scalar math.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from cventlab.discrimination import helstrom_error
from cventlab.gaussian_core import _BLOCK, TwinBeamParams, _schmidt

if TYPE_CHECKING:
    import numpy as np


class ProtocolConfig(NamedTuple("ProtocolConfig", [("x", float), ("a", float),
                                                   ("kappa_key", float)])):
    """Binary-protocol parameters: symbols +-a on a twin-beam of parameter x."""

    __slots__ = ()

    def __new__(cls, x: float, a: float, kappa_key: float) -> "ProtocolConfig":
        _schmidt(x)
        _check_gaussian_key(a, kappa_key)
        return super().__new__(cls, x, a, kappa_key)


def receiver_variance(x: float) -> float:
    """Per-quadrature heterodyne receiver variance sigma_x^2 = (1 - x^2)/2."""
    x = _schmidt(x)
    return 0.5 * (1.0 - x * x)


def bob_ideal_error(x: float, z0: complex, z1: complex) -> float:
    """Optimal-receiver error for displaced twin-beams.

    |<<z1|z0>>|^2 = exp(-|z0 - z1|^2 (1 + N)); for a large exponent the
    error approaches exp(-|z0 - z1|^2 (1 + N)) / 4.  At x = 0, N = 0 exactly,
    and this is the error of the unentangled coherent-state encoding.
    """
    sep = abs(complex(z0) - complex(z1))  # sep * sep is inf past the float range, not an error
    return helstrom_error(math.exp(-sep * sep * (1.0 + TwinBeamParams.from_x(x).N)))


def eve_error_uniform() -> float:
    """Eve's error against a uniformly random key: exactly 1/2 (pure guess).

    The averaged state difference vanishes identically (group averaging of
    the displacement orbit); see uniform_key_eigenvalue_demo for a truncated
    numeric illustration.  On a finite key disk the +-a bit states cancel
    pairwise wherever the disks shifted by +a and by -a overlap, so only the
    crescent-shaped rim where they do not contributes, and the difference
    falls like the rim's size over the disk's.
    """
    return 0.5


def _check_gaussian_key(a: float, kappa_key: float) -> None:
    if not a >= 0:
        raise ValueError(f"a must be >= 0, got {a}")
    if not kappa_key > 0:
        raise ValueError(f"kappa_key must be > 0, got {kappa_key}")


def eve_error_gaussian_key(a: float, kappa_key: float) -> float:
    """Eve's optimal error against a Gaussian key: [1 - erf(a/sqrt(kappa))]/2 = erfc/2."""
    _check_gaussian_key(a, kappa_key)
    return 0.5 * math.erfc(a / math.sqrt(kappa_key))


def bob_heterodyne_error(x: float, a: float) -> float:
    """Sign-threshold heterodyne receiver error [1 - erf(a/sqrt(2 sigma_x^2))]/2 = erfc/2.

    Rule: Re[z] < 0 infers bit 0, bit 1 otherwise.
    """
    if not a >= 0:
        raise ValueError(f"a must be >= 0, got {a}")
    return 0.5 * math.erfc(a / math.sqrt(2.0 * receiver_variance(x)))


class SecurityMargin(NamedTuple):
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


def splus_numeric(a: float, kappa_key: float) -> float:
    """Positive-eigenvalue sum: the integral of f(beta) over Re beta > 0, by quadrature.

    f(beta) = g_kappa(|beta - a|^2) - g_kappa(|beta + a|^2); the integral over
    the positivity half-plane equals erf(a / sqrt(kappa)).  In units of
    sqrt(kappa), with b = a/sqrt(kappa), s = (Re beta - a)/sqrt(kappa) and
    t = Im beta/sqrt(kappa), kappa cancels:

        f dbeta = [e^{-(s^2 + t^2)} - e^{-((s + 2b)^2 + t^2)}] / pi ds dt.

    Each term integrates over t to sqrt(pi), and the second over s > -b is the
    first over s > b: this is the integral of e^{-s^2}/sqrt(pi) over [-b, b].
    The tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9, 721 (1974)) sums it, no
    erf, at s = b tanh(pi/2 sinh(k/32)), |k| <= 104, b capped at 7 (erfc(7) and
    the rule's error there are below 1e-22; at b = 10 the latter is 8e-16).
    """
    _check_gaussian_key(a, kappa_key)
    b = min(a / math.sqrt(kappa_key), 7.0)
    total = 0.0
    for k in range(104, 0, -1):  # the even integrand folded in k, from the tails in
        v = 0.5 * math.pi * math.sinh(k / 32.0)
        s, c = b * math.tanh(v), math.cosh(v)
        total += math.exp(-s * s) * math.cosh(k / 32.0) / (c * c)
    return b * (0.5 + total) * (math.sqrt(math.pi) / 32.0)


class ProtocolSimulation(NamedTuple):
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

    The stream is all bits, then all keys, then all noise, so the bits
    (1 byte each, as bool) and the keys (8 bytes) are held whole: the working
    memory is 9 bytes per bit.  The noise is drawn one block of
    ``gaussian_core._BLOCK`` bits at a time, and each block's outcome
    (symbol + key) + noise is thresholded and its errors counted there.
    """
    import numpy as np  # here, so that the closed forms and the oracle load no numpy
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n_bits) == 1
    key_re = rng.normal(0.0, math.sqrt(config.kappa_key / 2.0), size=n_bits)
    noise_sd = math.sqrt(receiver_variance(config.x))
    bob_errors = eve_errors = 0
    for start in range(0, n_bits, _BLOCK):
        sent = bits[start:start + _BLOCK]
        key = key_re[start:start + _BLOCK]
        outcome_re = np.where(sent, config.a, -config.a).astype(float, copy=False)
        outcome_re += key
        outcome_re += rng.normal(0.0, noise_sd, size=len(sent))
        eve_errors += np.count_nonzero((outcome_re >= 0.0) != sent)
        outcome_re -= key
        bob_errors += np.count_nonzero((outcome_re >= 0.0) != sent)
    return ProtocolSimulation(
        bob_empirical_err=bob_errors / n_bits,
        eve_empirical_err=eve_errors / n_bits,
        n_bits=n_bits,
    )


def _key_grid(radius: float, step: float) -> np.ndarray:
    """Key displacements of the demo: a square grid centred on the origin, cut to |alpha| <= radius.

    Along each axis the grid is the m + 1 points (k - m/2) step, k = 0..m,
    with m = floor(2 radius / step).  It is therefore closed under
    alpha -> conj(alpha) and alpha -> -alpha at every radius; it holds the
    origin when m is even and is half-shifted off both axes when m is odd.
    When 2 radius / step is an integer these are the points of
    np.arange(-radius, radius + step/2, step).
    """
    import numpy as np
    m = math.floor(2.0 * radius / step)
    pts = (np.arange(m + 1) - m / 2.0) * step
    re, im = np.meshgrid(pts, pts, indexing="ij")
    return (re + 1j * im)[re * re + im * im <= radius * radius]


def uniform_key_eigenvalue_demo(
    x: float,
    a: float,
    radii: tuple[float, ...] = (1.5, 2.5, 3.5),
    d_max: int = 24,
) -> list[float]:
    """Max |eigenvalue| of the grid-averaged state difference, per grid radius.

    Averages D(alpha) (sigma_1 - sigma_0) D(alpha)^dag over the K key
    displacements of _key_grid(radius, 0.5), in truncated Fock space; the
    values decrease towards 0, illustrating that a uniform key erases all of
    Eve's information.  A radius whose grid holds no point besides the origin
    (radius < 0.25, or a half-shifted grid that misses the disk) raises
    ValueError: a key that is always 0 is no key.

    The average is taken in real arithmetic, from four exact facts:

    - Global phases cancel in the projectors, so the states are
      psi_beta = D(beta) C for beta = alpha +- a, with C = diag(c) the
      twin-beam amplitudes: a column scaling of D(beta).
    - D(beta) = R D(r) R^dag for beta = r e^{i theta}, R = diag(e^{i n theta}),
      so psi_beta[p, q] = e^{i (p - q) theta} [D(r) C]_pq.  D(r), the
      exponential of the truncated r (a^dag - a), is real: with
      a + a^dag = W diag(mu) W^T and Y = diag((-1)^floor(n/2)) W,
      D(r) = Y diag(cos r mu) Y^T - diag((-1)^n) Y diag(sin r mu) Y^T.
      One D(r) is built per distinct |beta|.
    - psi_conj(beta) = conj(psi_beta).  The grid is closed under conjugation,
      so with psi = u + i v a conjugate pair adds 2 (u u^T + v v^T) and a
      point on the real axis adds u u^T.
    - psi_{-beta} = Omega psi_beta, Omega = (-1)^(p + q) the two-mode parity,
      and the grid is closed under negation, so {alpha - a} = -{alpha + a}.
      The sum is then over S = {alpha + a} of P(beta) - P(-beta), and its
      terms at beta and -beta cancel exactly when both lie in S.  Only the
      rim {beta in S : -beta not in S} is kept, compared as floats: the
      crescent where the disks shifted by +a and -a do not overlap.  Where 2a
      is no lattice vector the rim is all of S; at a = 0 it is empty, and the
      difference is exactly 0.  The rim is closed under conjugation too.
    - The difference is off-diagonal in parity, [[0, B], [B^T, 0]] with
      B = (2/K) E diag(w) O^T: the columns are u and v over the Im beta >= 0
      half of the rim (weight w = 1 on the axis, 2 off it), and E, O are their
      even and odd rows.  K stays the count of the whole grid.

    The eigenvalues of that matrix are +- the singular values of B.  With the
    thin QRs E = Q_e R_e and O = Q_o R_o the largest is
    (2/K) sqrt(max eigvalsh(G G^T)), G = R_e diag(w) R_o^T, of order at most
    the rim's size: the cost follows the rim, not the disk, and the maxima
    fall like the rim's size over K.
    """
    import numpy as np
    from cventlab import fock_oracle
    step = 0.5
    dim = d_max + 1
    n = np.arange(dim)
    root = np.sqrt(n[1:])
    mu, vec = np.linalg.eigh(np.diag(root, 1) + np.diag(root, -1))
    y = ((-1.0) ** (n // 2))[:, None] * vec
    flip = ((-1.0) ** n)[:, None] * y
    c = fock_oracle.twin_beam_fock(x, d_max).diag.real
    # flat Fock indices p dim + q, even p + q first; lag p - q indexes the phase table
    p, q = np.divmod(np.arange(dim * dim), dim)
    order = np.argsort((p + q) % 2, kind="stable")
    n_even = (dim * dim + 1) // 2
    lag = (p - q)[order] + d_max

    maxima = []
    for radius in radii:
        alpha = _key_grid(radius, step)
        if np.count_nonzero(alpha) == 0:
            raise ValueError(f"radius {radius} holds no point of the grid of step "
                             f"{step} besides the origin")
        beta = alpha + a
        beta = beta[(beta.imag >= 0) & ~np.isin(-beta, beta)]
        if len(beta) == 0:
            maxima.append(0.0)
            continue
        mod, which = np.unique(np.abs(beta), return_inverse=True)
        ang = mod[:, None] * mu
        dc = ((y * np.cos(ang)[:, None, :] - flip * np.sin(ang)[:, None, :]) @ y.T) * c
        dc = dc.reshape(len(mod), dim * dim)[:, order][which]
        turn = np.angle(beta)[:, None] * np.arange(-d_max, d_max + 1)
        pair = beta.imag > 0
        cols = np.concatenate([np.cos(turn)[:, lag] * dc,
                               np.sin(turn[pair])[:, lag] * dc[pair]])
        weight = np.concatenate([np.where(pair, 2.0, 1.0), np.full(np.sum(pair), 2.0)])
        r_even = np.linalg.qr(cols[:, :n_even].T, mode="r")
        r_odd = np.linalg.qr(cols[:, n_even:].T, mode="r")
        g = (r_even * weight) @ r_odd.T
        top = np.max(np.linalg.eigvalsh(g @ g.T))
        maxima.append(2.0 / len(alpha) * math.sqrt(top))
    return maxima

"""Twin-beam decoherence in a pair of active optical fibers.

Each beam couples to its own thermal reservoir (damping rate Gamma,
background photons M).  The dynamics keeps the state Gaussian; in rescaled
time tau = (Gamma/gamma) t with drift gamma = 1/(2M+1) the EPR variances
evolve as

    Sigma_pm^2(tau) = exp(-gamma tau) sigma_pm^2 + (1 - exp(-gamma tau))/(4 gamma),

relaxing to the reservoir's thermal level (2M+1)/4.  Entanglement dies at
the closed-form threshold where the squeezed variance crosses 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cventlab import gaussian_core


def _drift(M: float) -> float:
    """Drift coefficient gamma = 1/(2M+1) of the rescaled dynamics."""
    return 1.0 / (2.0 * M + 1.0)


@dataclass(frozen=True)
class FiberParams:
    """Fiber channel parameters: damping rate Gamma and thermal photons M."""

    gamma_damp: float
    M: float

    def __post_init__(self):
        if self.gamma_damp <= 0:
            raise ValueError(f"damping rate must be > 0, got {self.gamma_damp}")
        if self.M < 0:
            raise ValueError(f"M must be >= 0, got {self.M}")

    @property
    def gamma_drift(self) -> float:
        """Drift coefficient gamma of the rescaled dynamics."""
        return _drift(self.M)

    def tau_from_t(self, t: float) -> float:
        return self.gamma_damp / self.gamma_drift * t

    def t_from_tau(self, tau: float) -> float:
        return self.gamma_drift / self.gamma_damp * tau


@dataclass(frozen=True)
class EvolvedVariances:
    Sigma_plus_sq: float
    Sigma_minus_sq: float


def evolve_variances(r0: float, M: float, tau: float) -> EvolvedVariances:
    """EPR variances of the twin-beam after rescaled time tau in the fibers."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if r0 < 0:
        raise ValueError(f"r0 must be >= 0, got {r0}")
    gamma = _drift(M)
    decay = math.exp(-gamma * tau)
    d_sq = (1.0 - decay) / (4.0 * gamma)
    return EvolvedVariances(
        Sigma_plus_sq=decay * math.exp(2.0 * r0) / 4.0 + d_sq,
        Sigma_minus_sq=decay * math.exp(-2.0 * r0) / 4.0 + d_sq,
    )


def evolved_state(r0: float, M: float, tau: float) -> gaussian_core.GaussianTwoModeState:
    """Evolved twin-beam as a Gaussian two-mode state in the (x1,y1,x2,y2) basis."""
    v = evolve_variances(r0, M, tau)
    return gaussian_core.family_state(
        (v.Sigma_plus_sq + v.Sigma_minus_sq) / 2.0,
        (v.Sigma_plus_sq - v.Sigma_minus_sq) / 2.0,
    )


def separability_time_rescaled(M: float, r0: float) -> float:
    """Rescaled threshold tau_s = (1/gamma) log(1 + gamma (1 - e^{-2 r0})/(1 - gamma)).

    Beyond tau_s the squeezed variance satisfies Sigma_-^2 >= 1/4 and the
    state is separable.  Diverges (math.inf) for M = 0: a zero-temperature
    fiber never disentangles the twin-beam.
    """
    if r0 <= 0:
        raise ValueError(f"r0 must be > 0, got {r0}")
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    if M == 0.0:
        return math.inf
    gamma = _drift(M)
    return (1.0 / gamma) * math.log1p(
        gamma * (1.0 - math.exp(-2.0 * r0)) / (1.0 - gamma)
    )


def separability_time(Gamma: float, M: float, N: float) -> float:
    """Unrescaled threshold t_s = (1/Gamma) log(1 - (N - sqrt(N(N+2)))/(2M)).

    Equivalent to the rescaled form through N - sqrt(N(N+2)) = e^{-2 r0} - 1;
    tends to (1/Gamma) log(1 + 1/(2M)) for large N.  Diverges for M = 0.
    """
    if Gamma <= 0:
        raise ValueError(f"Gamma must be > 0, got {Gamma}")
    if N <= 0:
        raise ValueError(f"N must be > 0, got {N}")
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    if M == 0.0:
        return math.inf
    return (1.0 / Gamma) * math.log1p(-(N - math.sqrt(N * (N + 2.0))) / (2.0 * M))


@dataclass(frozen=True)
class ScanResult:
    found: bool
    tau_first_separable: float | None


def scan_separability(
    r0: float, M: float, tau_max: float, steps: int, tol: float = 1e-12
) -> ScanResult:
    """Numeric separability threshold via PPT on a grid plus bisection.

    Independent of the closed forms: evolves the covariance and applies the
    general two-mode PPT test at each grid point, then bisects the first
    entangled-to-separable transition.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    taus = np.linspace(0.0, tau_max, steps)

    def separable(tau: float) -> bool:
        return gaussian_core.ppt_separable(evolved_state(r0, M, tau), tol=0.0).separable

    prev = separable(taus[0])
    if prev:
        return ScanResult(found=True, tau_first_separable=0.0)
    for lo, hi in zip(taus[:-1], taus[1:]):
        if separable(hi):
            while hi - lo > tol:
                mid = (lo + hi) / 2.0
                if separable(mid):
                    hi = mid
                else:
                    lo = mid
            return ScanResult(found=True, tau_first_separable=(lo + hi) / 2.0)
    return ScanResult(found=False, tau_first_separable=None)


@dataclass(frozen=True)
class OUSimulation:
    Sigma_plus_sq: float
    Sigma_minus_sq: float
    n_samples: int


def simulate_ou_variances(
    r0: float, M: float, tau: float, n_samples: int, seed: int
) -> OUSimulation:
    """Stochastic cross-check of the variance evolution.

    The Fokker-Planck dynamics is an Ornstein-Uhlenbeck process acting
    independently on each rotated EPR quadrature (drift gamma/2, diffusion
    1/8), so an exact one-step OU update of samples drawn from the initial
    twin-beam Wigner function reproduces Sigma_pm^2(tau).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    gamma = _drift(M)
    rng = np.random.default_rng(seed)
    decay_amp = math.exp(-gamma * tau / 2.0)
    kick_var = (1.0 - math.exp(-gamma * tau)) / (4.0 * gamma)
    out = []
    for sign in (+1.0, -1.0):
        sigma0_sq = math.exp(2.0 * sign * r0) / 4.0
        q0 = rng.normal(0.0, math.sqrt(sigma0_sq), size=n_samples)
        q = decay_amp * q0 + rng.normal(0.0, math.sqrt(kick_var), size=n_samples)
        out.append(float(np.mean(q * q)))
    return OUSimulation(Sigma_plus_sq=out[0], Sigma_minus_sq=out[1], n_samples=n_samples)

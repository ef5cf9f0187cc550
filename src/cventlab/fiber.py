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
from typing import NamedTuple

from cventlab import gaussian_core


def _drift(M: float) -> float:
    """Drift coefficient gamma = 1/(2M+1) of the rescaled dynamics, as 0.5/(M + 0.5)."""
    return 0.5 / (M + 0.5)


def _thermal_variance(gamma: float, tau: float) -> float:
    """Variance (1 - e^{-gamma tau})/(4 gamma) the reservoir adds by time tau."""
    return -math.expm1(-gamma * tau) / (4.0 * gamma)


def _log1p_over_2m(a: float, M: float) -> float:
    """log(1 + a/(2M)) for a > 0, math.inf at M = 0."""
    if M == 0.0:
        return math.inf
    ratio = a / 2.0 / M  # not a / (2M), which overflows to inf near the float maximum
    # at subnormal M the ratio overflows although its log, about 744, does not
    return math.log1p(ratio) if math.isfinite(ratio) else math.log(a) - math.log(2.0 * M)


def _finite_time(name: str, t: float, log_term: float) -> float:
    """The time ``name`` = log_term / Gamma, refused where it overflows but log_term does not."""
    if math.isinf(t) and math.isfinite(log_term):
        raise OverflowError(f"{name} = log(...)/Gamma is past the float range")
    return t


def evolve_variances(r0: float, M: float, tau: float) -> gaussian_core.TwinBeamFamilyState:
    """The twin-beam after rescaled time tau in the fibers, as its EPR variances."""
    if not tau >= 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    plus, minus = gaussian_core._epr_variances(r0)  # checks r0 >= 0
    gamma = _drift(M)
    decay = math.exp(-gamma * tau)
    d_sq = _thermal_variance(gamma, tau)
    return gaussian_core.TwinBeamFamilyState(
        Sigma_plus_sq=decay * plus + d_sq, Sigma_minus_sq=decay * minus + d_sq
    )


def evolved_state(r0: float, M: float, tau: float) -> gaussian_core.TwinBeamFamilyState:
    """The state the PPT scan tests at each point; the same as evolve_variances."""
    return evolve_variances(r0, M, tau)


def separability_time_rescaled(M: float, r0: float) -> float:
    """Rescaled threshold tau_s = (1/gamma) log(1 + gamma (1 - e^{-2 r0})/(1 - gamma)).

    Beyond tau_s the squeezed variance satisfies Sigma_-^2 >= 1/4 and the
    state is separable.  Diverges (math.inf) for M = 0: a zero-temperature
    fiber never disentangles the twin-beam.  Evaluated as
    2 (M + 1/2) log1p((1 - e^{-2 r0})/(2M)), since gamma/(1 - gamma) = 1/(2M),
    which keeps full precision as M -> 0 and does not overflow in 2M + 1.
    """
    if not r0 > 0:
        raise ValueError(f"r0 must be > 0, got {r0}")
    if not M >= 0:
        raise ValueError(f"M must be >= 0, got {M}")
    return 2.0 * ((M + 0.5) * _log1p_over_2m(-math.expm1(-2.0 * r0), M))


def separability_time(Gamma: float, M: float, N: float) -> float:
    """Unrescaled threshold t_s = (1/Gamma) log(1 - (N - sqrt(N(N+2)))/(2M)).

    Equivalent to the rescaled form through N - sqrt(N(N+2)) = e^{-2 r0} - 1;
    tends to separability_time_large_n for large N.  Diverges for M = 0;
    raises OverflowError where a finite log over Gamma overflows.
    """
    if not Gamma > 0:
        raise ValueError(f"Gamma must be > 0, got {Gamma}")
    if not N > 0:
        raise ValueError(f"N must be > 0, got {N}")
    if not M >= 0:
        raise ValueError(f"M must be >= 0, got {M}")
    # N - sqrt(N(N+2)) without its cancellation and without overflow in N(N+2)
    gap = -2.0 * N / (N + math.sqrt(N) * math.sqrt(N + 2.0))
    log_term = _log1p_over_2m(-gap, M)
    # (1/Gamma) log, not log/Gamma, which differs by an ulp on about a quarter
    # of inputs; log/Gamma only where 1/Gamma overflows, below Gamma = 2^-1024
    inverse = 1.0 / Gamma
    t = inverse * log_term if math.isfinite(inverse) else log_term / Gamma
    return _finite_time("t_s", t, log_term)


def separability_time_large_n(Gamma: float, M: float) -> float:
    """Large-N limit t_s -> (1/Gamma) log(1 + 1/(2M)); diverges for M = 0.

    Raises OverflowError where a finite log over Gamma overflows.
    """
    if not Gamma > 0:
        raise ValueError(f"Gamma must be > 0, got {Gamma}")
    if not M >= 0:
        raise ValueError(f"M must be >= 0, got {M}")
    log_term = _log1p_over_2m(1.0, M)
    return _finite_time("t_s_large_N", log_term / Gamma, log_term)


def scan_separability(r0: float, M: float, tau_max: float, steps: int) -> float | None:
    """Numeric separability threshold via PPT on a grid plus bisection.

    Independent of the closed forms: evolves the EPR variances forward and
    applies the PPT test at each point of np.linspace(0, tau_max, steps),
    which gaussian_core._linspace gives without numpy, as for every --range
    grid; then bisects the first entangled-to-separable transition down to a
    bracket of 1e-12.  Returns that tau, or None when no transition lies in
    [0, tau_max].
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    taus = gaussian_core._linspace(0.0, tau_max, steps)

    def separable(tau: float) -> bool:
        return gaussian_core.ppt_separable(evolved_state(r0, M, tau), tol=0.0).separable

    # tau = 0 is not tested: there the witness e^{-2 r0}/4 never exceeds 1/4
    for lo, hi in zip(taus[:-1], taus[1:]):
        if separable(hi):
            while hi - lo > 1e-12:
                mid = (lo + hi) / 2.0
                if separable(mid):
                    hi = mid
                else:
                    lo = mid
            return (lo + hi) / 2.0
    return None


class OUSimulation(NamedTuple):
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
    twin-beam Wigner function reproduces Sigma_pm^2(tau).  The mean of q^2 is
    correctly rounded, so a seed gives the same result on every numpy build.

    Per quadrature the stream is all initial samples q0, then all kicks, so
    q0 is held whole (8 bytes per sample) and updated in place: scaled by
    the decay, the kicks added one block of ``gaussian_core._BLOCK`` at a
    time, then squared.  It is freed before the next quadrature is drawn.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    import numpy as np  # here, so that the closed forms and the scan load no numpy
    gamma = _drift(M)
    rng = np.random.default_rng(seed)
    decay_amp = math.exp(-gamma * tau / 2.0)
    kick_sd = math.sqrt(_thermal_variance(gamma, tau))
    out = []
    for sigma0_sq in gaussian_core._epr_variances(r0):
        q = rng.normal(0.0, math.sqrt(sigma0_sq), size=n_samples)
        q *= decay_amp
        for start in range(0, n_samples, gaussian_core._BLOCK):
            block = q[start:start + gaussian_core._BLOCK]
            block += rng.normal(0.0, kick_sd, size=len(block))
        q *= q
        out.append(gaussian_core._correctly_rounded_mean(q))
        del q, block
    return OUSimulation(Sigma_plus_sq=out[0], Sigma_minus_sq=out[1], n_samples=n_samples)

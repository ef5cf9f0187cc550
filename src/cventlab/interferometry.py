"""Neyman-Pearson detection of an interferometric phase perturbation.

Two detection schemes for the beam-mixing perturbation exp(i phi J) acting
on a twin-beam probe:

* ideal scheme: the optimal pure-state NP receiver, with detection
  probability Q_phi fixed by the probe overlap |kappa|^2 and the minimum
  detectable phase following from the acceptance-ratio condition
  Q_phi / Q_0 = gamma_star;
* Mach-Zehnder scheme: difference-photocurrent readout, where the twin-beam
  gives identically zero false alarms and the detection probability is the
  leakage out of the zero-difference eigenspace.
"""

from __future__ import annotations

import math
import sys


def np_detection_probability(q0: float, kappa_sq: float) -> float:
    """NP detection probability at false-alarm q0 for pure states with overlap kappa_sq.

    Q_phi = [sqrt(q0 kappa_sq) + sqrt((1-q0)(1-kappa_sq))]^2 when
    0 <= q0 <= kappa_sq, and 1 otherwise.
    """
    if not 0.0 <= q0 <= 1.0:
        raise ValueError(f"q0 must be in [0, 1], got {q0}")
    if not 0.0 <= kappa_sq <= 1.0:
        raise ValueError(f"kappa_sq must be in [0, 1], got {kappa_sq}")
    if q0 > kappa_sq:
        return 1.0
    s = math.sqrt(q0 * kappa_sq) + math.sqrt((1.0 - q0) * (1.0 - kappa_sq))
    return s * s  # not s ** 2: libm's pow can miss the correctly rounded square


def twin_beam_overlap_sq(N: float, phi: float) -> float:
    """Survival probability |<<x|U_phi|x>>|^2 = [1 + N(N+2) sin^2 phi]^(-1)."""
    if not N >= 0:
        raise ValueError(f"N must be >= 0, got {N}")
    s = math.sin(phi)
    return 1.0 / (1.0 + N * (N + 2.0) * (s * s))


def acceptance_threshold(q0: float, gamma_star: float) -> float:
    """g(Q0, gamma*): overlap deficit 1 - |kappa|^2 at which Q_phi/Q_0 = gamma*.

    The paper's Lambda(Q0, gamma*) is this same quantity under another name.
    With a = sqrt(gamma* (1-q0)) and b = sqrt(1 - gamma* q0) it is
    q0 (a - b)^2 = q0 (gamma* - 1)^2 / (a + b)^2, since a^2 - b^2 = gamma* - 1;
    the second form does not cancel as gamma* -> 1.
    """
    if not gamma_star >= 1.0:
        raise ValueError(f"gamma_star must be >= 1, got {gamma_star}")
    if not 0.0 <= q0 <= 1.0:
        raise ValueError(f"q0 must be in [0, 1], got {q0}")
    if gamma_star * q0 > 1.0:
        raise ValueError(
            f"gamma_star * q0 = {gamma_star * q0} > 1: no acceptance solution"
        )
    a, b = math.sqrt(gamma_star * (1.0 - q0)), math.sqrt(1.0 - gamma_star * q0)
    # a + b = 0 only at q0 = 1, where gamma* = 1 and there is no deficit
    t = (gamma_star - 1.0) / (a + b) if a + b else 0.0
    return q0 * t * t


def min_detectable_phase_ideal(q0: float, gamma_star: float, N: float) -> float | None:
    """phi_min = arcsin(sqrt(L/(1-L)) / sqrt(N(N+2))) with L = g(q0, gamma*).

    Asymptotically phi_min ~ sqrt(L/(1-L)) / N.  When the arcsin argument
    exceeds 1 no phase reaches the required acceptance ratio and None is
    returned.
    """
    if not N > 0:
        raise ValueError(f"N must be > 0, got {N}")
    lam = acceptance_threshold(q0, gamma_star)
    if not 0.0 < lam < 1.0:
        raise ValueError(f"g(q0, gamma_star) = {lam} outside (0, 1)")
    arg = math.sqrt(lam / (1.0 - lam)) / math.sqrt(N * (N + 2.0))
    return math.asin(arg) if arg <= 1.0 else None


class TruncationError(RuntimeError):
    """Fock-space tail above tolerance for the requested computation."""


def mz_zero_count_probability(x: float, phi: float, d_max: int | None = None) -> float:
    """P(d = 0 | U_phi): zero difference-photocurrent probability of the evolved twin-beam.

    Raises TruncationError when d_max is below default_d_max(x, 1e-10), the
    smallest truncation whose twin-beam tail x^{2(d_max+1)} is below 1e-10.
    Its message suggests that d_max, and says when it is above D_MAX_LIMIT.
    """
    from cventlab import fock_oracle  # here, so that the closed forms load no numpy
    tail_tol = 1e-10
    suggested = fock_oracle.default_d_max(x, tail_tol, cap=10**6)
    if d_max is None:
        d_max = min(suggested, fock_oracle.D_MAX_CAP)  # default_d_max(x, tail_tol)
    state = fock_oracle.twin_beam_fock(x, d_max)
    if d_max < suggested:
        past = (f", above the largest d_max {fock_oracle.D_MAX_LIMIT}"
                if suggested > fock_oracle.D_MAX_LIMIT else "")
        raise TruncationError(
            f"truncation tail {x ** (2 * (d_max + 1)):.3e} above {tail_tol:.1e}; "
            f"suggested d_max >= {suggested}{past}"
        )
    evolved = fock_oracle.apply_jx_evolution(state, phi)
    return fock_oracle.zero_difference_probability(evolved)


def mz_min_phase(target_q_phi: float, N: float) -> float:
    """Closed-form MZ minimum phase sqrt(2 Q_phi) / N.

    This is the printed scaling law; the exact small-phi leakage is
    Q_phi = N(N+2) phi^2 + O(phi^4), so against the numeric inversion the
    formula carries a systematic sqrt(2(N+2)/N) factor (about sqrt(2) for
    large N).  Use mz_min_phase_numeric for the oracle value.
    """
    if not 0.0 < target_q_phi < 1.0:
        raise ValueError(f"target_q_phi must be in (0, 1), got {target_q_phi}")
    if not N > 0:
        raise ValueError(f"N must be > 0, got {N}")
    return math.sqrt(2.0 * target_q_phi) / N


def mz_min_phase_numeric(target_q_phi: float, x: float) -> float:
    """Invert P(d=0 | phi) = 1 - Q_phi by bisection on [0, pi/4].

    The bracket stops at pi/4: phi = pi/2 swaps the two beams, which leaves
    every |p, p> component invariant up to a phase, so the leakage returns
    to zero there and the first crossing lies in the rising half.  The
    steps and the stopping rule |step| < 1e-10 + 4 eps |phi| are those of
    scipy.optimize.bisect with xtol = 1e-10.
    """
    if not 0.0 < target_q_phi < 1.0:
        raise ValueError(f"target_q_phi must be in (0, 1), got {target_q_phi}")

    def leak(phi):
        return (1.0 - mz_zero_count_probability(x, phi)) - target_q_phi

    lo, step = 0.0, math.pi / 4.0
    if leak(step) < 0:
        raise ValueError(
            f"Q_phi = {target_q_phi} not reachable for x = {x} on [0, pi/4]"
        )
    if leak(lo) > 0:
        raise ValueError(f"Q_phi = {target_q_phi} below the leakage at phi = 0")
    while True:
        step *= 0.5
        mid = lo + step
        f_mid = leak(mid)
        if f_mid <= 0:
            lo = mid
        if f_mid == 0 or step < 1e-10 + 4.0 * sys.float_info.epsilon * mid:
            return mid

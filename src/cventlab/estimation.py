"""Displacement-amplitude estimation: vacuum probe vs twin-beam probe.

The entangled probe reads the displacement through joint heterodyne with
conditional variance sigma2^2 = (1-x)/(1+x) + 2*nbar_T (noise acts on both
beams), the vacuum probe with sigma1^2 = 1 + nbar_T.  Entanglement stops
paying off at nbar_T = 1 - Delta_x^2, which approaches one thermal photon
as x -> 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cventlab import gaussian_core


def heterodyne_variance(x: float) -> float:
    """Clean twin-beam heterodyne complex variance Delta_x^2 = (1-x)/(1+x)."""
    if not 0.0 <= x < 1.0:
        raise ValueError(f"Schmidt parameter must be in [0, 1), got {x}")
    return (1.0 - x) / (1.0 + x)


@dataclass(frozen=True)
class EstimationSetting:
    """Probe parameter x, total channel noise nbar_T, true amplitude alpha."""

    x: float
    nbar_T: float = 0.0
    alpha: complex = 0.0

    def __post_init__(self):
        if not 0.0 <= self.x < 1.0:
            raise ValueError(f"x must be in [0, 1), got {self.x}")
        if not self.nbar_T >= 0:
            raise ValueError(f"nbar_T must be >= 0, got {self.nbar_T}")


@dataclass(frozen=True)
class ConditionalVariances:
    entangled: float  # sigma2^2
    unentangled: float  # sigma1^2


def conditional_variance(setting: EstimationSetting) -> ConditionalVariances:
    """sigma2^2 = Delta_x^2 + 2 nbar_T (twin-beam), sigma1^2 = 1 + nbar_T (vacuum)."""
    return ConditionalVariances(
        entangled=heterodyne_variance(setting.x) + 2.0 * setting.nbar_T,
        unentangled=1.0 + setting.nbar_T,
    )


def entanglement_convenient(setting: EstimationSetting) -> bool:
    """True when the twin-beam probe beats the vacuum probe (sigma2^2 < sigma1^2)."""
    v = conditional_variance(setting)
    return v.entangled < v.unentangled


def convenience_threshold(x: float) -> float:
    """Noise level nbar_T at which sigma2^2 = sigma1^2, i.e. 1 - Delta_x^2."""
    return 1.0 - heterodyne_variance(x)


def _probe_state(setting: EstimationSetting, entangled: bool):
    """Displaced, noise-degraded probe as a twin-beam family state.

    The vacuum probe is the r0 = 0 member of the family.  The twin-beam probe
    picks up noise on both beams; the vacuum probe is a single-mode channel,
    so noise enters once (mode 1 only).
    """
    if entangled:
        params = gaussian_core.TwinBeamParams.from_x(setting.x)
        state = gaussian_core.make_twin_beam(params)
    else:
        vac = gaussian_core.VACUUM_VAR
        state = gaussian_core.TwinBeamFamilyState(vac, vac)
    state = state.displaced(setting.alpha)
    if setting.nbar_T > 0:
        state = state.with_noise(gaussian_core.NoiseParams(setting.nbar_T),
                                 modes=2 if entangled else 1)
    return state


_BLOCK = 1 << 15  # samples per block; a block and its scratch stay in cache


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
    the mean falls back to ``math.fsum`` over all values.
    """
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


@dataclass(frozen=True)
class EstimationSimulation:
    rms_entangled: float
    rms_unentangled: float
    n_trials: int


def simulate_estimation(
    setting: EstimationSetting, n_trials: int, seed: int
) -> EstimationSimulation:
    """Monte Carlo RMS estimation error for both probes.

    The estimator is the raw heterodyne outcome, unbiased for these Gaussian
    channels, so the RMS error converges to the conditional sigma.  Each
    squared error (Re d)^2 + (Im d)^2, d = z - alpha, is formed from
    elementwise IEEE operations only, not numpy's complex ``abs`` kernel, and
    the mean is correctly rounded (``_correctly_rounded_mean``), so for a given
    seed the result is the same on every numpy build.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    rms = {}
    for label, entangled in (("ent", True), ("sep", False)):
        state = _probe_state(setting, entangled)
        # disjoint substreams per probe, deterministic in the caller's seed
        sub = np.random.SeedSequence(seed).spawn(2)[0 if entangled else 1]
        samples = gaussian_core.sample_heterodyne(state, n_trials, sub)
        samples -= setting.alpha
        d = samples.view(np.float64)  # Re d, Im d interleaved; squared in place
        d *= d
        rms[label] = math.sqrt(_correctly_rounded_mean(d[0::2] + d[1::2]))
    return EstimationSimulation(
        rms_entangled=rms["ent"], rms_unentangled=rms["sep"], n_trials=n_trials
    )

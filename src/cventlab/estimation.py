"""Displacement-amplitude estimation: vacuum probe vs twin-beam probe.

The entangled probe reads the displacement through joint heterodyne with
conditional variance sigma2^2 = (1-x)/(1+x) + 2*nbar_T (noise acts on both
beams), the vacuum probe with sigma1^2 = 1 + nbar_T.  Entanglement stops
paying off at nbar_T = 1 - Delta_x^2, which approaches one thermal photon
as x -> 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from cventlab import gaussian_core


def heterodyne_variance(x: float) -> float:
    """Clean twin-beam heterodyne complex variance Delta_x^2 = (1-x)/(1+x)."""
    x = gaussian_core._schmidt(x)
    return (1.0 - x) / (1.0 + x)


class EstimationSetting(NamedTuple("EstimationSetting", [("x", float), ("nbar_T", float),
                                                         ("alpha", complex)])):
    """Probe parameter x, total channel noise nbar_T, true amplitude alpha."""

    __slots__ = ()

    def __new__(cls, x: float, nbar_T: float = 0.0,
                alpha: complex = 0.0) -> "EstimationSetting":
        gaussian_core._schmidt(x)
        if not nbar_T >= 0:
            raise ValueError(f"nbar_T must be >= 0, got {nbar_T}")
        return super().__new__(cls, x, nbar_T, alpha)


class ConditionalVariances(NamedTuple):
    entangled: float  # sigma2^2
    unentangled: float  # sigma1^2


def conditional_variance(setting: EstimationSetting) -> ConditionalVariances:
    """sigma2^2 = Delta_x^2 + 2 nbar_T (twin-beam), sigma1^2 = 1 + nbar_T (vacuum).

    Raises OverflowError where sigma2^2 is past the float range.
    """
    entangled = heterodyne_variance(setting.x) + 2.0 * setting.nbar_T
    if not math.isfinite(entangled):
        raise OverflowError("sigma2^2 = Delta_x^2 + 2 nbar_T is past the float range")
    return ConditionalVariances(entangled=entangled, unentangled=1.0 + setting.nbar_T)


def convenience_threshold(x: float) -> float:
    """Noise level nbar_T at which sigma2^2 = sigma1^2, i.e. 1 - Delta_x^2."""
    return 1.0 - heterodyne_variance(x)


def _probe_state(setting: EstimationSetting, entangled: bool):
    """Displaced, noise-degraded probe as a twin-beam family state.

    The vacuum probe is the r0 = 0 member of the family.  The twin-beam probe
    picks up noise on both beams; the vacuum probe is a single-mode channel,
    so noise enters once (mode 1 only).
    """
    params = gaussian_core.TwinBeamParams.from_x(setting.x if entangled else 0.0)
    state = gaussian_core.make_twin_beam(params).displaced(setting.alpha)
    if setting.nbar_T > 0:
        state = state.with_noise(setting.nbar_T, modes=2 if entangled else 1)
    return state


class EstimationSimulation(NamedTuple):
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
    the mean is correctly rounded (``gaussian_core._correctly_rounded_mean``),
    so for a given seed the result is the same on every numpy build.

    Working memory is 16 bytes per trial: the one whole array is a probe's
    complex outcomes, which ``sample_heterodyne`` returns (it draws them block
    by block).  d is formed and squared in place, (Re d)^2 + (Im d)^2 is
    summed into the real parts, and the mean reads their strided view one
    block at a time.  The first probe's array is freed before the second
    probe is drawn.
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
        sq = d[0::2]
        sq += d[1::2]
        rms[label] = math.sqrt(gaussian_core._correctly_rounded_mean(sq))
        del samples, d, sq
    return EstimationSimulation(
        rms_entangled=rms["ent"], rms_unentangled=rms["sep"], n_trials=n_trials
    )

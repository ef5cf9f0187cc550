"""The blockwise Monte Carlo kernels: same draws as whole arrays, bounded memory.

Each kernel draws the later part of its random stream one block at a time.
The references below draw and combine whole arrays, as one call per stream
part; consecutive draws on one Generator continue one stream, so every
result must match its reference bit for bit.  The working-memory budgets
hold the arrays the stream order forces a kernel to keep, plus 1 MB.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from cventlab import crypto, fiber, gaussian_core
from cventlab import estimation as est

B = gaussian_core._BLOCK
SIZES = [1, B - 1, B, B + 1, 3 * B + 7]
SEEDS = [0, 7, 20020521]


def _heterodyne_reference(state, n, seed):
    mu, delta_sq = gaussian_core.heterodyne_mean_and_variance(state)
    rng = np.random.default_rng(seed)
    scale = math.sqrt(delta_sq / 2.0)
    out = np.empty(n, dtype=complex)
    out.real = rng.normal(mu.real, scale, size=n)
    out.imag = rng.normal(mu.imag, scale, size=n)
    return out


def _estimation_reference(setting, n, seed):
    rms = []
    for entangled in (True, False):
        sub = np.random.SeedSequence(seed).spawn(2)[0 if entangled else 1]
        samples = _heterodyne_reference(est._probe_state(setting, entangled), n, sub)
        samples -= setting.alpha
        d = samples.view(np.float64)
        d *= d
        rms.append(math.sqrt(math.fsum(d[0::2] + d[1::2]) / n))
    return rms


def _protocol_reference(config, n, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n)
    symbols = np.where(bits == 1, config.a, -config.a).astype(float)
    key_re = rng.normal(0.0, math.sqrt(config.kappa_key / 2.0), size=n)
    noise_re = rng.normal(0.0, math.sqrt(crypto.receiver_variance(config.x)), size=n)
    outcome_re = symbols + key_re + noise_re
    bob_bits = ((outcome_re - key_re) >= 0.0).astype(int)
    eve_bits = (outcome_re >= 0.0).astype(int)
    return [float(np.mean(bob_bits != bits)), float(np.mean(eve_bits != bits))]


def _ou_reference(r0, M, tau, n, seed):
    gamma = fiber._drift(M)
    rng = np.random.default_rng(seed)
    decay_amp = math.exp(-gamma * tau / 2.0)
    kick_var = fiber._thermal_variance(gamma, tau)
    out = []
    for sigma0_sq in gaussian_core._epr_variances(r0):
        q0 = rng.normal(0.0, math.sqrt(sigma0_sq), size=n)
        q = decay_amp * q0 + rng.normal(0.0, math.sqrt(kick_var), size=n)
        out.append(math.fsum(q * q) / n)
    return out


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
class TestSameDrawsAsWholeArrays:

    def test_sample_heterodyne(self, seed, n):
        state = gaussian_core.make_twin_beam(
            gaussian_core.TwinBeamParams.from_x(0.7)).displaced(0.3 - 1.1j)
        got = gaussian_core.sample_heterodyne(state, n, seed)
        assert got.tobytes().hex() == _heterodyne_reference(state, n, seed).tobytes().hex()

    @pytest.mark.parametrize("alpha", [0.8 - 0.3j, 1.0])
    def test_simulate_estimation(self, seed, n, alpha):
        setting = est.EstimationSetting(x=0.6, nbar_T=0.4, alpha=alpha)
        sim = est.simulate_estimation(setting, n, seed)
        assert _hex([sim.rms_entangled, sim.rms_unentangled]) == _hex(
            _estimation_reference(setting, n, seed))

    # a = 0.0 draws -0.0 for the 0 bits; an integer a goes through an int array
    @pytest.mark.parametrize("a", [0.0, 1, 0.7])
    def test_simulate_binary_protocol(self, seed, n, a):
        config = crypto.ProtocolConfig(x=0.8, a=a, kappa_key=1.3)
        sim = crypto.simulate_binary_protocol(config, n, seed)
        assert _hex([sim.bob_empirical_err, sim.eve_empirical_err]) == _hex(
            _protocol_reference(config, n, seed))

    # at tau = 0 the kicks have scale 0 but are still drawn
    @pytest.mark.parametrize("tau", [0.0, 0.9])
    def test_simulate_ou_variances(self, seed, n, tau):
        sim = fiber.simulate_ou_variances(0.7, 0.3, tau, n, seed)
        assert _hex([sim.Sigma_plus_sq, sim.Sigma_minus_sq]) == _hex(
            _ou_reference(0.7, 0.3, tau, n, seed))


N_MEMORY = 200_000
_TWIN_BEAM = gaussian_core.make_twin_beam(gaussian_core.TwinBeamParams.from_x(0.7))
KERNELS = {
    "sample_heterodyne": (
        16, lambda n: gaussian_core.sample_heterodyne(_TWIN_BEAM, n, 3)),
    "simulate_estimation": (16, lambda n: est.simulate_estimation(
        est.EstimationSetting(x=0.6, nbar_T=0.4, alpha=0.8 - 0.3j), n, 3)),
    "simulate_binary_protocol": (9, lambda n: crypto.simulate_binary_protocol(
        crypto.ProtocolConfig(x=0.8, a=1.0, kappa_key=2.0), n, 3)),
    "simulate_ou_variances": (
        8, lambda n: fiber.simulate_ou_variances(0.7, 0.3, 0.9, n, 3)),
}


@pytest.mark.parametrize("name", list(KERNELS))
def test_working_memory(name):
    """Traced peak within the kept arrays' bytes per sample plus 1 MB.

    Whole temporaries, or a block view that keeps the previous quadrature's
    or probe's array alive, would double the peak.
    """
    bytes_per_sample, call = KERNELS[name]
    call(1000)  # first-call allocations are not working memory
    tracemalloc.start()
    try:
        call(N_MEMORY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bytes_per_sample * N_MEMORY + 1_000_000

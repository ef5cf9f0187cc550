"""Tests for displacement estimation with entangled vs vacuum probes."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cventlab import estimation as est
from cventlab import gaussian_core


class TestHeterodyneVariance:
    def test_vacuum_limit(self):
        assert est.heterodyne_variance(0.0) == 1.0

    def test_one_third(self):
        assert est.heterodyne_variance(1 / 3) == pytest.approx(0.5, rel=1e-12)

    def test_vanishes_as_x_to_one(self):
        assert est.heterodyne_variance(0.999999) < 1e-5

    def test_monotone_decreasing(self):
        xs = np.linspace(0.0, 0.999, 200)
        vals = [est.heterodyne_variance(x) for x in xs]
        assert np.all(np.diff(vals) < 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            est.heterodyne_variance(1.0)
        with pytest.raises(ValueError):
            est.heterodyne_variance(-0.1)


class TestConditionalVariances:
    def test_noiseless(self):
        v = est.conditional_variance(est.EstimationSetting(x=0.5))
        assert v.entangled == pytest.approx(1 / 3, rel=1e-12)
        assert v.unentangled == 1.0

    def test_noise_bookkeeping(self):
        # the entangled probe pays the noise twice, the vacuum probe once
        v = est.conditional_variance(est.EstimationSetting(x=0.5, nbar_T=0.3))
        assert v.entangled == pytest.approx(1 / 3 + 0.6, rel=1e-12)
        assert v.unentangled == pytest.approx(1.3, rel=1e-12)

    def test_past_the_float_range_raises(self):
        # 2 nbar_T overflows although nbar_T is finite; the largest finite one passes
        with pytest.raises(OverflowError, match="past the float range"):
            est.conditional_variance(est.EstimationSetting(x=0.5, nbar_T=1e308))
        v = est.conditional_variance(est.EstimationSetting(x=0.5, nbar_T=8e307))
        assert v.entangled == 1.6e308


class TestConvenienceThreshold:
    def test_closed_form(self):
        for x in (0.1, 0.5, 0.9):
            thr = est.convenience_threshold(x)
            assert thr == pytest.approx(1.0 - (1 - x) / (1 + x), rel=1e-12)

    def test_approaches_one(self):
        assert est.convenience_threshold(0.9999) == pytest.approx(1.0, abs=1e-3)

    def test_x_zero_never_convenient(self):
        assert est.convenience_threshold(0.0) == 0.0
        v = est.conditional_variance(est.EstimationSetting(x=0.0))
        assert not v.entangled < v.unentangled

    def test_switch_at_threshold(self):
        x = 0.8
        thr = est.convenience_threshold(x)
        below = est.conditional_variance(est.EstimationSetting(x, thr - 1e-6))
        above = est.conditional_variance(est.EstimationSetting(x, thr + 1e-6))
        assert below.entangled < below.unentangled
        assert not above.entangled < above.unentangled


class TestSimulation:
    def test_rms_matches_conditional_sigma(self):
        setting = est.EstimationSetting(x=0.7, nbar_T=0.2, alpha=1.5)
        v = est.conditional_variance(setting)
        sim = est.simulate_estimation(setting, 200_000, seed=17)
        n = sim.n_trials
        for rms, var in (
            (sim.rms_entangled, v.entangled),
            (sim.rms_unentangled, v.unentangled),
        ):
            # RMS^2 averages n iid |z - alpha|^2 terms of variance var^2
            se = var / math.sqrt(n)
            assert abs(rms ** 2 - var) < 3 * se

    def test_determinism(self):
        setting = est.EstimationSetting(x=0.5, alpha=1.0)
        a = est.simulate_estimation(setting, 1000, seed=3)
        b = est.simulate_estimation(setting, 1000, seed=3)
        assert a == b

    def test_streams_disjoint(self):
        # the two probes must not share random numbers
        setting = est.EstimationSetting(x=0.0, nbar_T=0.0, alpha=0.0)
        sim = est.simulate_estimation(setting, 5000, seed=9)
        assert sim.rms_entangled != sim.rms_unentangled

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            est.simulate_estimation(est.EstimationSetting(x=0.1), 0, seed=1)

    def test_rms_is_the_correctly_rounded_mean_of_squared_errors(self):
        setting = est.EstimationSetting(x=0.6, nbar_T=0.4, alpha=0.8 - 0.3j)
        sim = est.simulate_estimation(setting, 3000, seed=5)
        for entangled, rms in ((True, sim.rms_entangled), (False, sim.rms_unentangled)):
            sub = np.random.SeedSequence(5).spawn(2)[0 if entangled else 1]
            z = est.gaussian_core.sample_heterodyne(
                est._probe_state(setting, entangled), 3000, sub
            )
            d = [(w.real - 0.8, w.imag + 0.3) for w in z.tolist()]
            assert rms == math.sqrt(math.fsum(re * re + im * im for re, im in d) / 3000)

    def test_no_linalg_call(self, monkeypatch):
        # both probes are family states; nothing is diagonalized
        calls = []
        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name,
                                    lambda *a, _name=name, **k: calls.append(_name))
        setting = est.EstimationSetting(x=0.9, nbar_T=0.3, alpha=0.5)
        est.simulate_estimation(setting, 1000, seed=4)
        assert calls == []


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=st.floats(0.0, 1.0 - 1e-12), nbar=st.floats(0.0, 10.0))
def test_probe_variance_matches_mpmath(x, nbar):
    setting = est.EstimationSetting(x=x, nbar_T=nbar, alpha=0.7)
    with mpmath.workdps(50):
        mx, mn = mpmath.mpf(x), mpmath.mpf(nbar)
        exact = {True: (1 - mx) / (1 + mx) + 2 * mn, False: 1 + mn}
    for entangled in (True, False):
        state = est._probe_state(setting, entangled)
        mu, var = gaussian_core.heterodyne_mean_and_variance(state)
        assert mu == 0.7
        assert var == pytest.approx(float(exact[entangled]), rel=1e-14, abs=0)


def _values(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    if kind == "zeros":
        return np.zeros(n)
    if kind == "squared-errors":
        return rng.chisquare(2, n) / 2
    if kind == "huge-range":
        return np.ldexp(rng.random(n), rng.integers(-1000, 1000, n))
    if kind == "tiny":  # below the extraction's exponent range
        return np.ldexp(rng.random(n), -1000)
    # mixed signs that cancel to far below the largest value
    half = np.ldexp(rng.normal(size=n // 2), rng.integers(-40, 40, n // 2))
    v = np.concatenate([half, -half, [2.0 ** -60] * (n % 2)])
    v[0] += 2.0 ** -30
    return rng.permutation(v)


class TestCorrectlyRoundedMean:
    """The Monte Carlo mean is math.fsum(values) / n in every summation order."""

    @pytest.mark.parametrize("n", [1, gaussian_core._BLOCK, gaussian_core._BLOCK + 1, 10**6])
    @pytest.mark.parametrize(
        "kind", ["zeros", "squared-errors", "huge-range", "tiny", "cancelling"]
    )
    def test_equals_fsum_and_ignores_order(self, kind, n):
        v = _values(kind, n)
        mean = gaussian_core._correctly_rounded_mean(v)
        assert mean.hex() == (math.fsum(v) / n).hex()
        shuffled = np.random.default_rng(7).permutation(v)
        assert gaussian_core._correctly_rounded_mean(shuffled).hex() == mean.hex()

    @pytest.mark.parametrize(
        "values, total",
        [
            ([1.0, 2.0**-53], 1.0),  # a tie, rounded to even
            ([1.0, 2.0**-53, 2.0**-106], 1.0 + 2.0**-52),  # just above the tie
            ([2.0**-53, 1.0, -2.0**-106], 1.0),  # just below it
        ],
    )
    def test_exact_ties(self, values, total):
        n = len(values)
        assert math.fsum(values) == total
        for order in (values, values[::-1]):
            got = gaussian_core._correctly_rounded_mean(np.array(order))
            assert got.hex() == (total / n).hex()

    def test_fallback_taken_only_near_a_tie(self, monkeypatch):
        exact = []
        fsum = math.fsum

        def spy(values):
            exact.append(isinstance(values, np.ndarray))
            return fsum(values)

        monkeypatch.setattr(gaussian_core.math, "fsum", spy)
        gaussian_core._correctly_rounded_mean(_values("squared-errors", 10**6))
        assert exact and not any(exact)
        assert gaussian_core._correctly_rounded_mean(np.array([1.0, 2.0**-53])) == 0.5
        assert exact[-1]

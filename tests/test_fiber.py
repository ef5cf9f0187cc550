"""Tests for twin-beam decoherence in noisy fibers."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cventlab import fiber, gaussian_core


def mp_sigma_minus_sq(r0, m, tau):
    """Squeezed EPR variance of the evolved twin-beam at 50 digits."""
    with mpmath.workdps(50):
        gamma = 1 / (2 * mpmath.mpf(m) + 1)
        decay = mpmath.exp(-gamma * tau)
        return decay * mpmath.exp(-2 * mpmath.mpf(r0)) / 4 + (1 - decay) / (4 * gamma)


def assert_grid_is_numpy_linspace(start, stop, num):
    """The grid of the scan and of --range is np.linspace bit for bit, signed zeros and nan too."""
    with np.errstate(all="ignore"):  # an infinite span makes numpy's first point nan
        expected = np.linspace(start, stop, num).tolist()
    got = gaussian_core._linspace(start, stop, num)
    assert [t.hex() for t in got] == [t.hex() for t in expected]


class TestEvolveVariances:
    def test_initial_condition(self):
        v = fiber.evolve_variances(1.0, 0.5, 0.0)
        assert v.Sigma_plus_sq == pytest.approx(math.e ** 2 / 4, rel=1e-12)
        assert v.Sigma_minus_sq == pytest.approx(math.e ** -2 / 4, rel=1e-12)

    def test_thermal_fixed_point(self):
        m = 0.8
        v = fiber.evolve_variances(1.0, m, 1e4)
        assert v.Sigma_plus_sq == pytest.approx((2 * m + 1) / 4, rel=1e-6)
        assert v.Sigma_minus_sq == pytest.approx((2 * m + 1) / 4, rel=1e-6)

    def test_squeezed_variance_monotone_up(self):
        taus = np.linspace(0.0, 5.0, 100)
        vals = [fiber.evolve_variances(1.0, 0.5, t).Sigma_minus_sq for t in taus]
        assert np.all(np.diff(vals) > 0)

    def test_evolved_state_bona_fide(self):
        for tau in (0.0, 0.3, 2.0):
            assert fiber.evolved_state(1.2, 0.7, tau).is_bona_fide()


class TestSeparabilityTime:
    def test_documented_example(self):
        # Gamma = 1, M = 0.5, N = 2 gives t_s close to 0.6035
        t_s = fiber.separability_time(1.0, 0.5, 2.0)
        assert t_s == pytest.approx(0.603456102602, rel=1e-10)

    def test_rescaled_and_plain_agree(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            m = rng.uniform(0.05, 5.0)
            r0 = rng.uniform(0.05, 3.0)
            n = 2 * math.sinh(r0) ** 2
            gamma_damp = rng.uniform(0.2, 4.0)
            t_s = fiber.separability_time(gamma_damp, m, n)
            tau_s = fiber.separability_time_rescaled(m, r0)
            # t = tau / ((2M + 1) Gamma)
            assert tau_s / ((2 * m + 1) * gamma_damp) == pytest.approx(t_s, rel=1e-12)

    def test_zero_temperature_never_separable(self):
        assert fiber.separability_time_rescaled(0.0, 1.0) == math.inf
        assert fiber.separability_time(1.0, 0.0, 2.0) == math.inf

    def test_threshold_is_quarter_crossing(self):
        m, r0 = 0.7, 1.1
        tau_s = fiber.separability_time_rescaled(m, r0)
        v = fiber.evolve_variances(r0, m, tau_s)
        assert v.Sigma_minus_sq == pytest.approx(0.25, rel=1e-12)

    def test_large_n_limit_monotone(self):
        m, gamma_damp = 0.5, 1.0
        limit = fiber.separability_time_large_n(gamma_damp, m)
        vals = [fiber.separability_time(gamma_damp, m, n) for n in (1e2, 1e4, 1e6)]
        assert vals[0] < vals[1] < vals[2] < limit
        assert vals[2] == pytest.approx(limit, rel=1e-3)

    @pytest.mark.parametrize("n", [2.0, 1e4, 1e6, 1e9, 1e12, 1e300])
    def test_matches_mpmath_at_large_n(self, n):
        m, gamma_damp = 0.5, 1.0
        # N - sqrt(N(N+2)) cancels log10(N) digits; 50 are left over
        with mpmath.workdps(50 + int(math.log10(n))):
            big_n = mpmath.mpf(n)
            exact = mpmath.log1p(-(big_n - mpmath.sqrt(big_n * (big_n + 2))) / (2 * m))
            exact = float(exact / gamma_damp)
        got = fiber.separability_time(gamma_damp, m, n)
        assert got == pytest.approx(exact, rel=1e-15, abs=0)

    @pytest.mark.parametrize("m", [5e-324, 1e-310, 1e-300, 1e-17, 1e-12, 1e-6, 0.5, 10.0])
    @pytest.mark.parametrize("r0", [1e-8, math.asinh(1.0), 5.0])
    def test_rescaled_matches_mpmath_as_m_to_zero(self, m, r0):
        # 1 - gamma in the defining form cancels log10(1/M) digits
        with mpmath.workdps(50 + max(0, -int(math.log10(m)))):
            gamma = 1 / (2 * mpmath.mpf(m) + 1)
            exact = mpmath.log1p(
                gamma * -mpmath.expm1(-2 * mpmath.mpf(r0)) / (1 - gamma)) / gamma
        got = fiber.separability_time_rescaled(m, r0)
        assert got == pytest.approx(float(exact), rel=2**-52, abs=0)

    @pytest.mark.parametrize("m", [5e-324, 1e-310, 0.5])
    def test_plain_and_large_n_match_mpmath(self, m):
        # at subnormal M, a/(2M) overflows although its log stays near 744
        gamma_damp, n = 1.0, 2.0
        with mpmath.workdps(50):
            big_m, big_n = mpmath.mpf(m), mpmath.mpf(n)
            exact = mpmath.log1p(-(big_n - mpmath.sqrt(big_n * (big_n + 2))) / (2 * big_m))
            limit = mpmath.log1p(1 / (2 * big_m))
        assert fiber.separability_time(gamma_damp, m, n) == pytest.approx(
            float(exact), rel=1e-15, abs=0)
        assert fiber.separability_time_large_n(gamma_damp, m) == pytest.approx(
            float(limit), rel=1e-15, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fiber.separability_time_large_n(0.0, 0.5)
        with pytest.raises(ValueError):
            fiber.separability_time_large_n(1.0, -0.1)
        with pytest.raises(ValueError):
            fiber.separability_time(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            fiber.separability_time_rescaled(-0.1, 1.0)


class TestScan:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            m = rng.uniform(0.1, 4.0)
            r0 = rng.uniform(0.1, 2.5)
            tau_s = fiber.separability_time_rescaled(m, r0)
            tau_scan = fiber.scan_separability(r0, m, tau_max=2 * tau_s + 1, steps=128)
            assert tau_scan is not None
            assert tau_scan == pytest.approx(tau_s, abs=1e-8)

    def test_matches_an_inline_scan(self):
        # evolve_variances and ppt_separable at each grid point, then the bisection
        def inline_scan(r0, m, tau_max, steps):
            def separable(tau):
                state = fiber.evolve_variances(r0, m, tau)
                return gaussian_core.ppt_separable(state, tol=0.0).separable

            taus = gaussian_core._linspace(0.0, tau_max, steps)
            for lo, hi in zip(taus[:-1], taus[1:]):
                if separable(hi):
                    while hi - lo > 1e-12:
                        mid = (lo + hi) / 2.0
                        lo, hi = (lo, mid) if separable(mid) else (mid, hi)
                    return (lo + hi) / 2.0
            return None

        rng = np.random.default_rng(404)
        found = 0
        for _ in range(400):
            r0 = float(rng.uniform(0.01, 3.0))
            m = float(10.0 ** rng.uniform(-3.0, 1.0))
            tau_max = float(rng.uniform(0.1, 6.0))
            steps = int(rng.integers(2, 300))
            got = fiber.scan_separability(r0, m, tau_max, steps)
            assert got == inline_scan(r0, m, tau_max, steps)
            found += got is not None
        assert 100 < found < 300  # both outcomes are exercised

    def test_no_transition_at_zero_temperature(self):
        assert fiber.scan_separability(1.0, 0.0, tau_max=1000.0, steps=501) is None

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            fiber.scan_separability(1.0, 0.5, 1.0, steps=1)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tau_max=st.floats(0.0, 1e308), steps=st.integers(2, 1024))
    def test_grid_is_numpy_linspace(self, tau_max, steps):
        assert_grid_is_numpy_linspace(0.0, tau_max, steps)

    # at 5e-324 and 4 steps the step underflows to 0: i * step would give
    # [0, 0, 0, 5e-324], numpy's (i / div) * tau_max gives [0, 0, 5e-324, 5e-324]
    @pytest.mark.parametrize("steps", [2, 3, 4, 7, 256, 1023, 1024])
    @pytest.mark.parametrize("tau_max", [0.0, 5e-324, 3.5e-323, 1.0, 3.4138244104, 1e308])
    def test_grid_edges_are_numpy_linspace(self, tau_max, steps):
        assert_grid_is_numpy_linspace(0.0, tau_max, steps)

    def test_scan_uses_the_one_linspace(self, monkeypatch):
        calls = []
        linspace = gaussian_core._linspace
        monkeypatch.setattr(gaussian_core, "_linspace",
                            lambda *args: calls.append(args) or linspace(*args))
        assert fiber.scan_separability(1.0, 0.5, tau_max=5.0, steps=64) is not None
        assert calls == [(0.0, 5.0, 64)]

    def test_no_linalg_call(self, monkeypatch):
        # the scan works on the EPR variances alone
        calls = []
        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name,
                                    lambda *a, _name=name, **k: calls.append(_name))
        assert fiber.scan_separability(1.0, 0.5, tau_max=5.0, steps=64) is not None
        assert calls == []


class TestLinspace:
    """gaussian_core._linspace, the grid of every --range sweep and of the scan."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(start=st.floats(-1e308, 1e308), stop=st.floats(-1e308, 1e308),
           num=st.integers(1, 1024))
    def test_is_numpy_linspace(self, start, stop, num):
        assert_grid_is_numpy_linspace(start, stop, num)

    # -1e308:1e308 spans inf, so its first point is 0 * inf + start = nan, as
    # in numpy; the subnormal spans have a step that underflows to 0
    @pytest.mark.parametrize("num", [1, 2, 3, 4, 7, 256, 1023])
    @pytest.mark.parametrize("start, stop", [
        (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (1.5, 1.5), (0.2, 0.8),
        (-3.0, 2.5), (7.0, -1.0), (-1e308, 1e308), (1e308, -1e308),
        (5e-324, 1e-323), (-5e-324, 5e-324), (1e-320, 0.0), (3.5e-323, -3.5e-323),
    ])
    def test_edges_are_numpy_linspace(self, start, stop, num):
        assert_grid_is_numpy_linspace(start, stop, num)


class TestOUSimulation:
    def test_variances_within_3_sigma(self):
        r0, m, tau, n = 1.0, 0.5, 0.8, 200_000
        sim = fiber.simulate_ou_variances(r0, m, tau, n, seed=47)
        v = fiber.evolve_variances(r0, m, tau)
        for got, expected in (
            (sim.Sigma_plus_sq, v.Sigma_plus_sq),
            (sim.Sigma_minus_sq, v.Sigma_minus_sq),
        ):
            se = expected * math.sqrt(2.0 / n)
            assert abs(got - expected) < 3 * se

    def test_determinism(self):
        a = fiber.simulate_ou_variances(1.0, 0.5, 0.3, 1000, seed=2)
        b = fiber.simulate_ou_variances(1.0, 0.5, 0.3, 1000, seed=2)
        assert a == b

    def test_mean_correctly_rounded(self):
        # the same stream as the simulation, reduced by math.fsum
        r0, m, tau, n, seed = 0.8, 0.5, 1.0, 30_000, 5
        sim = fiber.simulate_ou_variances(r0, m, tau, n, seed)
        gamma = 1.0 / (2.0 * m + 1.0)
        kick_sd = math.sqrt((1.0 - math.exp(-gamma * tau)) / (4.0 * gamma))
        rng = np.random.default_rng(seed)
        expected = []
        for sign in (+1.0, -1.0):
            q0 = rng.normal(0.0, math.sqrt(math.exp(2.0 * sign * r0) / 4.0), size=n)
            q = math.exp(-gamma * tau / 2.0) * q0 + rng.normal(0.0, kick_sd, size=n)
            expected.append(math.fsum(q * q) / n)
        got = [sim.Sigma_plus_sq, sim.Sigma_minus_sq]
        assert [v.hex() for v in got] == [v.hex() for v in expected]

    def test_kick_variance_at_short_time(self):
        # at r0 = 20 the squeezed variance is the kick alone; 1 - e^{-tau}
        # would put an 8e-8 relative error on it at tau = 1e-10
        r0, m, tau, n, seed = 20.0, 0.0, 1e-10, 1000, 9
        sim = fiber.simulate_ou_variances(r0, m, tau, n, seed)
        with mpmath.workdps(50):
            kick_sd = float(mpmath.sqrt(-mpmath.expm1(-mpmath.mpf(tau)) / 4))
        rng = np.random.default_rng(seed)
        for sigma0_sq, got in ((math.exp(2 * r0) / 4, sim.Sigma_plus_sq),
                               (math.exp(-2 * r0) / 4, sim.Sigma_minus_sq)):
            q0 = rng.normal(0.0, math.sqrt(sigma0_sq), size=n)
            q = math.exp(-tau / 2) * q0 + rng.normal(0.0, kick_sd, size=n)
            assert got == pytest.approx(math.fsum(q * q) / n, rel=1e-14, abs=0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(r0=st.floats(0.0, 20.0), m=st.floats(0.0, 5.0), tau=st.floats(0.0, 50.0))
@example(r0=20.0, m=0.0, tau=1e-10)  # 1 - e^{-tau} alone would lose 7 digits
def test_witness_is_squeezed_variance(r0, m, tau):
    exact = mp_sigma_minus_sq(r0, m, tau)
    res = gaussian_core.ppt_separable(fiber.evolved_state(r0, m, tau), tol=0.0)
    assert res.witness == pytest.approx(float(exact), rel=1e-14, abs=0)
    if abs(exact - 0.25) > 1e-12:
        assert res.separable == (exact > 0.25)


class TestPPTConsistency:
    def test_ppt_agrees_with_variance_threshold(self):
        # the PPT verdict on the evolved state flips exactly at tau_s
        rng = np.random.default_rng(53)
        for _ in range(50):
            m = rng.uniform(0.1, 3.0)
            r0 = rng.uniform(0.1, 2.0)
            tau_s = fiber.separability_time_rescaled(m, r0)
            before = fiber.evolved_state(r0, m, tau_s * 0.99)
            after = fiber.evolved_state(r0, m, tau_s * 1.01)
            assert not gaussian_core.ppt_separable(before).separable
            assert gaussian_core.ppt_separable(after).separable

"""Tests for phase-perturbation detection (ideal NP and Mach-Zehnder schemes)."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cventlab import fock_oracle
from cventlab import interferometry as itf


class TestNPDetectionProbability:
    def test_orthogonal_states(self):
        # distinguishable hypotheses: detect with certainty at any q0
        assert itf.np_detection_probability(0.0, 0.0) == 1.0

    def test_identical_states(self):
        # overlap one: Q_phi = q0 at every false-alarm level
        for q0 in (0.0, 0.3, 0.9):
            assert itf.np_detection_probability(q0, 1.0) == pytest.approx(
                q0, abs=1e-12
            )

    def test_saturation_above_kappa(self):
        assert itf.np_detection_probability(0.8, 0.5) == 1.0

    def test_monotone_in_q0(self):
        q0s = np.linspace(0.0, 0.5, 50)
        vals = [itf.np_detection_probability(q, 0.5) for q in q0s]
        assert np.all(np.diff(vals) > 0)

    # arguments where float ** 2, through glibc's pow, is one ulp off
    @pytest.mark.parametrize("q0, kappa_sq",
                             [(0.001, 0.582), (0.406, 0.772), (0.461, 0.856), (0.257, 0.61)])
    def test_correctly_rounded_square(self, q0, kappa_sq):
        s = math.sqrt(q0 * kappa_sq) + math.sqrt((1.0 - q0) * (1.0 - kappa_sq))
        expected = float(Fraction(s) ** 2)
        assert itf.np_detection_probability(q0, kappa_sq).hex() == expected.hex()

    def test_domain(self):
        with pytest.raises(ValueError):
            itf.np_detection_probability(-0.1, 0.5)
        with pytest.raises(ValueError):
            itf.np_detection_probability(0.5, 1.1)


class TestTwinBeamOverlap:
    def test_phi_zero(self):
        assert itf.twin_beam_overlap_sq(3.0, 0.0) == 1.0

    def test_vacuum_probe_blind(self):
        assert itf.twin_beam_overlap_sq(0.0, 1.0) == 1.0

    def test_reference_value(self):
        # N = 1, phi = pi/2: 1/(1 + 3) = 1/4
        assert itf.twin_beam_overlap_sq(1.0, math.pi / 2) == pytest.approx(
            0.25, rel=1e-12
        )

    def test_against_fock_oracle(self):
        from cventlab import fock_oracle as fo

        for x in (0.3, 0.6):
            for phi in (0.2, 0.9):
                N = 2 * x * x / (1 - x * x)
                s = fo.twin_beam_fock(x, fo.default_d_max(x, 1e-14, cap=300))
                ev = fo.apply_jx_evolution(s, phi)
                assert itf.twin_beam_overlap_sq(N, phi) == pytest.approx(
                    abs(fo.overlap(s.amps.diagonal(), ev)) ** 2, abs=1e-10
                )


class TestAcceptanceThreshold:
    def test_ratio_identity(self):
        # the defining property: Q_phi(q0, 1 - g) / q0 = gamma*
        for q0, gs in [(0.01, 10.0), (0.05, 5.0), (0.001, 100.0)]:
            g = itf.acceptance_threshold(q0, gs)
            kappa_sq = 1.0 - g
            assert itf.np_detection_probability(q0, kappa_sq) / q0 == pytest.approx(
                gs, rel=1e-9
            )

    # (q0, gamma*) up to 10 within gamma* q0 <= 1
    REFERENCE_POINTS = [(q0, gs) for q0 in (0.01, 0.3)
                        for gs in (1 + 1e-8, 1 + 1e-6, 1 + 1e-4, 1.1, 10.0) if gs * q0 <= 1]

    @pytest.mark.parametrize("q0, gamma_star", REFERENCE_POINTS)
    def test_against_50_digit_reference(self, q0, gamma_star):
        # q0 (1 + gamma* (1 - 2 q0) - 2 sqrt(gamma* (1-q0) (1 - gamma* q0))) at 50
        # digits; in floats that form loses every digit at gamma* = 1 + 1e-8
        got = itf.acceptance_threshold(q0, gamma_star)
        with mpmath.workdps(50):
            q, g = mpmath.mpf(q0), mpmath.mpf(gamma_star)
            ref = q * (1 + g * (1 - 2 * q) - 2 * mpmath.sqrt(g * (1 - q) * (1 - g * q)))
            assert abs(got - ref) <= 4e-16 * ref

    def test_gamma_one_trivial(self):
        assert itf.acceptance_threshold(0.3, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert itf.acceptance_threshold(1.0, 1.0) == 0.0  # a = b = 0 there

    def test_invalid(self):
        with pytest.raises(ValueError):
            itf.acceptance_threshold(0.3, 0.5)
        with pytest.raises(ValueError):
            itf.acceptance_threshold(0.5, 10.0)  # gamma* q0 > 1
        with pytest.raises(ValueError, match=r"gamma_star \* q0 = 2.0 > 1"):
            itf.acceptance_threshold(1.0, 2.0)  # q0 = 1 too, where a = 0


class TestMinDetectablePhaseIdeal:
    def test_example_value(self):
        phi_min = itf.min_detectable_phase_ideal(0.01, 10.0, 5.0)
        lam = itf.acceptance_threshold(0.01, 10.0)
        expected = math.asin(math.sqrt(lam / (1 - lam)) / math.sqrt(35.0))
        assert phi_min is not None
        assert phi_min == pytest.approx(expected, rel=1e-12)

    def test_undetectable_at_tiny_n(self):
        assert itf.min_detectable_phase_ideal(0.001, 500.0, 0.05) is None

    def test_scaling_slope_minus_one(self):
        ns = np.logspace(1, 3, 10)
        phis = [itf.min_detectable_phase_ideal(0.01, 10.0, n) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(phis), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_acceptance_probability(self):
        # prior 1/2 with gamma* = 10 gives confidence 10/11
        assert itf.acceptance_probability(0.5, 10.0) == pytest.approx(10 / 11, rel=1e-12)
        assert itf.acceptance_probability(1.0, 10.0) == 1.0
        with pytest.raises(ValueError):
            itf.acceptance_probability(0.0, 10.0)


class TestMZZeroCount:
    def test_phi_zero_no_false_alarm(self):
        # the twin-beam is an exact zero-difference eigenstate
        p0 = itf.mz_zero_count_probability(0.5, 0.0)
        assert p0 == pytest.approx(1.0, abs=1e-9)

    def test_small_phase_quadratic_law(self):
        x = 0.5
        N = 2 * x * x / (1 - x * x)
        for phi, rel in ((1e-2, 1e-3), (1e-3, 1e-4)):
            q_phi = 1.0 - itf.mz_zero_count_probability(x, phi)
            assert q_phi / phi ** 2 == pytest.approx(N * (N + 2), rel=rel)

    def test_truncation_error(self):
        with pytest.raises(itf.TruncationError):
            itf.mz_zero_count_probability(0.9, 0.1, d_max=5)

    def test_default_truncation_passes_its_own_check(self):
        # at x = 10^(-5/(d+1)) the tail x^{2(d+1)} is 1e-10 up to rounding; the
        # complement 1 - |amps|^2 read just above it at some of these x, and
        # rejected the d_max it went on to suggest
        for d in range(200):
            x = 10 ** (-5 / (d + 1))
            assert 0.0 < itf.mz_zero_count_probability(x, 0.3) <= 1.0
            suggested = fock_oracle.default_d_max(x, 1e-10, cap=10**6)
            assert suggested in (d, d + 1)
            if suggested > 0:  # rejected exactly below the d_max it suggests
                with pytest.raises(itf.TruncationError, match=rf"d_max >= {suggested}$"):
                    itf.mz_zero_count_probability(x, 0.3, d_max=suggested - 1)

    def test_truncation_message_prints_the_closed_form_tail(self):
        # 0.5^6 = 0.015625 exactly, which rounds to even at 4 digits
        with pytest.raises(itf.TruncationError, match=r"^truncation tail 1\.562e-02 above "
                                                      r"1\.0e-10; suggested d_max >= 16$"):
            itf.mz_zero_count_probability(0.5, 0.3, d_max=2)

    def test_frozen_oracle_value(self):
        # x = 0.5, phi = 0.05: regression pin of the truncated-Fock value
        got = itf.mz_zero_count_probability(0.5, 0.05)
        assert got == pytest.approx(0.995613963689, abs=1e-10)
        # leading quadratic behaviour, fourth-order corrections aside
        assert got == pytest.approx(1.0 - (16 / 9) * math.sin(0.05) ** 2, abs=1e-4)


class TestMZMinPhase:
    def test_closed_form(self):
        assert itf.mz_min_phase(0.02, 10.0) == pytest.approx(
            math.sqrt(0.04) / 10.0, rel=1e-12
        )

    def test_scaling_slope_minus_one(self):
        ns = np.logspace(1, 3, 10)
        phis = [itf.mz_min_phase(0.02, n) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(phis), 1)[0]
        assert slope == pytest.approx(-1.0, abs=1e-12)

    def test_numeric_inversion_roundtrip(self):
        x = 0.5
        q_target = 0.05
        phi = itf.mz_min_phase_numeric(q_target, x)
        q_back = 1.0 - itf.mz_zero_count_probability(x, phi)
        assert q_back == pytest.approx(q_target, abs=1e-8)

    def test_systematic_factor_vs_numeric(self):
        # the printed formula overshoots the exact inversion by
        # sqrt(2(N+2)/N) in the small-phase regime
        x = 0.5
        N = 2 * x * x / (1 - x * x)
        q_target = 1e-4
        phi_formula = itf.mz_min_phase(q_target, N)
        phi_numeric = itf.mz_min_phase_numeric(q_target, x)
        assert phi_formula / phi_numeric == pytest.approx(
            math.sqrt(2 * (N + 2) / N), rel=1e-3
        )

    def test_unreachable_target(self):
        with pytest.raises(ValueError):
            itf.mz_min_phase_numeric(0.9999, 0.1)
        # below the truncation tail (5.8e-11 at x = 0.5) the bracket has no sign change
        with pytest.raises(ValueError, match="below the leakage"):
            itf.mz_min_phase_numeric(1e-12, 0.5)

    @pytest.mark.parametrize("x, expected", [
        (0.3, "0x1.3f4c37e3a54ffp-3"), (0.6, "0x1.babdbb0e89e2dp-5"),
        (0.9, "0x1.5dd90cdfddf00p-7"),
    ])
    def test_numeric_inversion_bytes_are_pinned(self, x, expected):
        # pinned bytes, those of the concatenated per-sector survival sums
        assert itf.mz_min_phase_numeric(0.01, x).hex() == expected

    @pytest.mark.parametrize("q_target, x", [
        (1e-4, 0.3), (0.01, 0.6), (0.05, 0.5), (0.3, 0.7), (0.5, 0.8),
    ])
    def test_bisection_matches_scipy(self, q_target, x):
        from scipy.optimize import bisect

        def leak(phi):
            return 1.0 - itf.mz_zero_count_probability(x, phi) - q_target

        expected = bisect(leak, 0.0, math.pi / 4.0, xtol=1e-10)
        assert abs(itf.mz_min_phase_numeric(q_target, x) - expected) <= 1e-10

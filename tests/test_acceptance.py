"""End-to-end acceptance checks, one per headline claim of the toolkit.

Each test prints a single PASS/FAIL line (run pytest with -s or check the
captured output).  The known-defective clause of the interferometry check is
kept verbatim and marked xfail(strict): the zero-count quadratic coefficient
is N(N+2), not N^2/2, so the published coefficient can never match within 1%.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import erf

from cventlab import crypto, discrimination as disc, estimation as est
from cventlab import fiber, fock_oracle, interferometry as itf
from test_discrimination import n_copy_spectrum


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {name}"


class TestCriterion1NoiseThreshold:
    def test_noise_threshold(self):
        start = time.monotonic()
        x = 0.999
        ok = True

        # crossover noise where the two conditional variances coincide
        def gap(nbar):
            v = est.conditional_variance(est.EstimationSetting(x, nbar))
            return v.entangled - v.unentangled

        crossover = brentq(gap, 0.0, 2.0, xtol=1e-14)
        expected = est.convenience_threshold(x)
        ok &= abs(crossover - expected) < 1e-12
        ok &= abs(expected - 0.999) < 1e-3  # approaches 1 as x -> 1

        # Monte Carlo ordering on both sides of the threshold
        for nbar, ent_should_win in ((expected - 0.3, True), (expected + 0.3, False)):
            setting = est.EstimationSetting(x, nbar, alpha=1.0)
            sim = est.simulate_estimation(setting, 100_000, seed=101)
            v = est.conditional_variance(setting)
            se = 3.0 * max(v.entangled, v.unentangled) / math.sqrt(sim.n_trials)
            if ent_should_win:
                ok &= sim.rms_entangled ** 2 < sim.rms_unentangled ** 2 + se
            else:
                ok &= sim.rms_entangled ** 2 > sim.rms_unentangled ** 2 - se
            # and each estimate sits on its own analytic value
            ok &= abs(sim.rms_entangled ** 2 - v.entangled) < se
            ok &= abs(sim.rms_unentangled ** 2 - v.unentangled) < se

        elapsed = time.monotonic() - start
        ok &= elapsed < 5.0
        report("1 noise threshold", ok)


class TestCriterion2Discrimination:
    def test_discrimination(self):
        start = time.monotonic()
        ok = True
        rng = np.random.default_rng(202)

        # hull vs the minimum-norm-point oracle on 100 random spectra
        for i in range(100):
            k = int(rng.integers(2, 7))
            s = disc.EigenphaseSpectrum(tuple(rng.uniform(0, 2 * math.pi, k)))
            polygon = disc.build_polygon(s)
            r_bf = disc.brute_force_min_overlap(s, n_samples=100_000)
            p_hull = disc.min_error_probability(polygon)
            p_bf = 0.5 * (1.0 - math.sqrt(1.0 - min(r_bf, 1.0) ** 2))
            ok &= abs(p_hull - p_bf) < 1e-6

        # spread-formula reference point
        ok &= abs(disc.spread_formula_error(math.pi / 2) - 0.0670) < 5e-5

        # exact discrimination at or beyond a spread of pi
        for phases in [(0.0, math.pi), (0.0, 1.0, 4.5), (0.2, 2.0, 3.9, 5.5)]:
            polygon = disc.build_polygon(disc.EigenphaseSpectrum(phases))
            if polygon.delta >= math.pi:
                ok &= disc.min_error_probability(polygon) == 0.0

        # N-copy exactness on 50 random spectra
        for _ in range(50):
            delta = float(rng.uniform(0.4, math.pi - 0.01))
            s = disc.EigenphaseSpectrum((0.0, delta))
            n = disc.copies_for_exact(disc.build_polygon(s))
            ok &= n == math.ceil(math.pi / delta - 1e-12)
            ok &= disc.build_polygon(n_copy_spectrum(s, n)).r == 0.0

        elapsed = time.monotonic() - start
        ok &= elapsed < 30.0
        report("2 discrimination", ok)


class TestCriterion3Interferometry:
    def test_overlap_and_scaling(self):
        start = time.monotonic()
        ok = True

        # closed form vs Fock oracle on a 3x3 grid, tail below 1e-10
        for x in (0.2, 0.5, 0.8):
            d_max = fock_oracle.default_d_max(x, 1e-10)
            assert d_max <= 150
            probe = fock_oracle.twin_beam_fock(x, d_max)
            ok &= x ** (2 * (d_max + 1)) < 1e-10  # the twin-beam's closed-form tail
            n_mean = 2 * x * x / (1 - x * x)
            for phi in (0.1, 0.5, 1.0):
                evolved = fock_oracle.apply_jx_evolution(probe, phi)
                oracle = abs(fock_oracle.overlap(probe.amps.diagonal(), evolved)) ** 2
                ok &= abs(oracle - itf.twin_beam_overlap_sq(n_mean, phi)) < 1e-8

        # log-log slope of the minimum detectable phase, both schemes
        ns = np.logspace(1, 3, 12)
        ideal = [itf.min_detectable_phase_ideal(0.01, 10.0, n) for n in ns]
        mz = [itf.mz_min_phase(0.02, n) for n in ns]
        for phis in (ideal, mz):
            slope = np.polyfit(np.log(ns), np.log(phis), 1)[0]
            ok &= abs(slope + 1.0) < 0.05

        elapsed = time.monotonic() - start
        ok &= elapsed < 60.0
        report("3 interferometry (overlap + scaling)", ok)

    @pytest.mark.xfail(
        strict=True,
        reason="the zero-count quadratic coefficient is N(N+2), not N^2/2; "
        "the published N^2/2 value cannot match within 1%",
    )
    def test_zero_count_coefficient_published_value(self):
        x = 0.5
        n_mean = 2 * x * x / (1 - x * x)
        phis = np.array([1e-2, 5e-3])
        coeffs = np.array(
            [(1.0 - itf.mz_zero_count_probability(x, p)) / p ** 2 for p in phis]
        )
        # Richardson extrapolation: leakage = c2 phi^2 + c4 phi^4, so
        # (4 c(phi/2) - c(phi)) / 3 removes the phi^2 correction to c2
        c_extrap = (4.0 * coeffs[1] - coeffs[0]) / 3.0
        published = 0.5 * n_mean ** 2
        rel = abs(c_extrap - published) / published
        report("3 interferometry (N^2/2 coefficient)", rel < 0.01)

    def test_zero_count_coefficient_exact_value(self):
        # companion check: the same extrapolation lands on N(N+2)
        x = 0.5
        n_mean = 2 * x * x / (1 - x * x)
        phis = np.array([1e-2, 5e-3])
        coeffs = np.array(
            [(1.0 - itf.mz_zero_count_probability(x, p)) / p ** 2 for p in phis]
        )
        c_extrap = (4.0 * coeffs[1] - coeffs[0]) / 3.0
        exact = n_mean * (n_mean + 2.0)
        report("3 interferometry (N(N+2) coefficient)", abs(c_extrap - exact) / exact < 0.01)


class TestCriterion4Cryptography:
    def test_cryptography(self):
        start = time.monotonic()
        ok = True
        rng = np.random.default_rng(404)

        # positive-eigenvalue sum: quadrature vs erf on 10 random pairs
        for _ in range(10):
            a = float(rng.uniform(0.1, 2.0))
            kappa = float(rng.uniform(0.2, 3.0))
            ok &= abs(
                crypto.splus_numeric(a, kappa) - float(erf(a / math.sqrt(kappa)))
            ) < 1e-8

        # end-to-end simulation vs closed forms (10^6 bits)
        # Bob's clause at moderate x; Eve's receiver attains her bound
        # only in the x -> 1 limit, so her clause is checked at x = 0.999
        n_bits = 1_000_000
        cfg = crypto.ProtocolConfig(x=0.8, a=0.5, kappa_key=1.0)
        sim = crypto.simulate_binary_protocol(cfg, n_bits, seed=405)
        p_bob = crypto.bob_heterodyne_error(0.8, 0.5)
        ok &= abs(sim.bob_empirical_err - p_bob) < 3 * math.sqrt(
            p_bob * (1 - p_bob) / n_bits
        )
        cfg = crypto.ProtocolConfig(x=0.999, a=0.5, kappa_key=1.0)
        sim = crypto.simulate_binary_protocol(cfg, n_bits, seed=406)
        p_eve = crypto.eve_error_gaussian_key(0.5, 1.0)
        ok &= abs(sim.eve_empirical_err - p_eve) < 3 * math.sqrt(
            p_eve * (1 - p_eve) / n_bits
        )

        # strict entanglement advantage over the coherent encoding
        for x in np.linspace(0.05, 0.95, 20):
            ok &= crypto.bob_ideal_error(x, -0.5, 0.5) < crypto.bob_ideal_error(0.0, -0.5, 0.5)

        # security condition vs simulated outcomes on a 10x10 grid;
        # cells whose analytic Bob-Eve gap is within sampling noise are
        # statistically undecidable and skipped
        n_cell = 20_000
        decided = 0
        for i, x in enumerate(np.linspace(0.05, 0.95, 10)):
            for j, kappa in enumerate(np.linspace(0.2, 2.0, 10)):
                margin = crypto.security_margin(x, kappa, a=0.5)
                gap = margin.eve_err - margin.bob_err
                noise = 4.0 * math.sqrt(0.25 / n_cell)
                if abs(gap) < noise:
                    continue
                cfg = crypto.ProtocolConfig(x=x, a=0.5, kappa_key=kappa)
                sim = crypto.simulate_binary_protocol(
                    cfg, n_cell, seed=10_000 + 10 * i + j
                )
                bob_beats_eve = sim.bob_empirical_err < margin.eve_err
                ok &= bob_beats_eve == margin.secure
                decided += 1
        ok &= decided >= 60  # the comparison must actually bite

        elapsed = time.monotonic() - start
        ok &= elapsed < 60.0
        report("4 cryptography", ok)


class TestCriterion5Fiber:
    def test_fiber(self):
        start = time.monotonic()
        ok = True
        rng = np.random.default_rng(505)

        # closed form vs PPT bisection on 100 random parameter draws
        for _ in range(100):
            m = float(rng.uniform(0.05, 5.0))
            r0 = float(rng.uniform(0.05, 3.0))
            tau_s = fiber.separability_time_rescaled(m, r0)
            tau_scan = fiber.scan_separability(r0, m, tau_max=2 * tau_s + 1, steps=256)
            ok &= tau_scan is not None and abs(tau_scan - tau_s) < 1e-8

        # zero temperature: no transition up to tau = 10^3
        ok &= fiber.scan_separability(1.0, 0.0, tau_max=1000.0, steps=501) is None

        # large-N limit approached monotonically from below
        m = 0.5
        limit = math.log1p(1.0 / (2.0 * m))
        ts = [fiber.separability_time(1.0, m, n) for n in (1e2, 1e4, 1e6)]
        ok &= ts[0] < ts[1] < ts[2] < limit

        # the two printed threshold forms agree to 1e-12 relative
        for _ in range(100):
            m = float(rng.uniform(0.05, 5.0))
            r0 = float(rng.uniform(0.05, 3.0))
            n = 2 * math.sinh(r0) ** 2
            t_direct = fiber.separability_time(1.0, m, n)
            # t = tau / ((2M + 1) Gamma), here with Gamma = 1
            t_rescaled = fiber.separability_time_rescaled(m, r0) / (2 * m + 1)
            ok &= abs(t_direct - t_rescaled) <= 1e-12 * t_direct
        # ... and at large N, where N - sqrt(N(N+2)) cancels
        for n in (1e4, 1e6, 1e9, 1e12, 1e300):
            m = float(rng.uniform(0.05, 5.0))
            r0 = math.asinh(math.sqrt(n / 2.0))
            t_direct = fiber.separability_time(1.0, m, n)
            t_rescaled = fiber.separability_time_rescaled(m, r0) / (2 * m + 1)
            ok &= abs(t_direct - t_rescaled) <= 1e-12 * t_direct

        elapsed = time.monotonic() - start
        ok &= elapsed < 10.0
        report("5 fiber", ok)


class TestCriterion6Determinism:
    def test_cli_byte_reproducible(self):
        from cli_runner import run_cli

        ok = True
        for args in (
            ["estimate", "--x", "0.5", "--trials", "20000", "--seed", "606"],
            ["crypto", "simulate", "--x", "0.8", "--bits", "20000", "--seed", "606"],
            ["discriminate", "--phases", "0,1.0,2.2", "--seed", "606"],
            ["fiber", "--m", "0.5", "--n", "2", "--seed", "606",
             "--format", "json"],
        ):
            runs = [run_cli(args).stdout_bytes for _ in range(2)]
            ok &= runs[0] == runs[1] and len(runs[0]) > 0
        report("6 determinism", ok)

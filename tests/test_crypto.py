"""Tests for the twin-beam secret-key protocol."""

import math

import numpy as np
import pytest
from scipy.special import erf

from cventlab import crypto


class TestReceiverVariance:
    def test_vacuum(self):
        assert crypto.receiver_variance(0.0) == 0.5

    def test_shrinks_with_x(self):
        assert crypto.receiver_variance(0.99) == pytest.approx(
            0.5 * (1 - 0.99 ** 2), rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            crypto.receiver_variance(1.0)


class TestIdealErrors:
    def test_bob_beats_coherent_strictly(self):
        for x in np.linspace(0.05, 0.95, 20):
            bob = crypto.bob_ideal_error(x, -0.5, 0.5)
            coh = crypto.coherent_error(-0.5, 0.5)
            assert bob < coh

    def test_equal_at_x_zero(self):
        assert crypto.bob_ideal_error(0.0, -0.5, 0.5) == pytest.approx(
            crypto.coherent_error(-0.5, 0.5), rel=1e-12
        )

    def test_helstrom_reference(self):
        # orthogonal limit: error -> 0; identical symbols: error 1/2
        assert crypto.coherent_error(-10.0, 10.0) == pytest.approx(0.0, abs=1e-12)
        assert crypto.coherent_error(1.0, 1.0) == 0.5

    def test_exponent_includes_mean_photons(self):
        x, a = 0.6, 0.7
        n = 2 * x * x / (1 - x * x)
        overlap_sq = math.exp(-((2 * a) ** 2) * (1 + n))
        expected = 0.5 * (1 - math.sqrt(1 - overlap_sq))
        assert crypto.bob_ideal_error(x, -a, a) == pytest.approx(expected, rel=1e-12)


class TestEveBounds:
    def test_uniform_key_pure_guess(self):
        assert crypto.eve_error_uniform() == 0.5

    def test_uniform_key_eigenvalue_decay(self):
        # truncated illustration: averaged state difference shrinks with the
        # grid radius of the uniform key
        maxima = crypto.uniform_key_eigenvalue_demo(0.3, 0.5, radii=(1.0, 2.0, 3.0))
        assert maxima[0] > maxima[1] > maxima[2]
        assert maxima[2] < 0.2

    # math.erf and scipy.special.erf agree to 2 ulp, at most 2**-52 below
    # erf = 1, which (1 - erf)/2 halves.  A relative bound alone cannot hold:
    # 1 - erf cancels as erf -> 1.
    ERF_TOL = {"rel": 1e-15, "abs": 2.0**-53}

    def test_gaussian_key_erf_form(self):
        for a in np.linspace(0.0, 3.0, 31):
            for kappa in np.linspace(0.05, 4.0, 40):
                expected = 0.5 * (1.0 - float(erf(a / math.sqrt(kappa))))
                assert crypto.eve_error_gaussian_key(a, kappa) == pytest.approx(
                    expected, **self.ERF_TOL
                )

    def test_bob_heterodyne_erf_form(self):
        for a in np.linspace(0.0, 3.0, 31):
            for x in np.linspace(0.0, 0.99, 34):
                sigma_sq = crypto.receiver_variance(x)
                expected = 0.5 * (1.0 - float(erf(a / math.sqrt(2.0 * sigma_sq))))
                assert crypto.bob_heterodyne_error(x, a) == pytest.approx(
                    expected, **self.ERF_TOL
                )

    def test_asymptote(self):
        a, kappa = 4.0, 1.0
        exact = crypto.eve_error_gaussian_key(a, kappa)
        asym = crypto.eve_error_gaussian_key_asymptote(a, kappa)
        assert asym == pytest.approx(exact, rel=0.05)

    def test_splus_numeric_matches_erf(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.uniform(0.1, 2.0)
            kappa = rng.uniform(0.2, 3.0)
            assert crypto.splus_numeric(a, kappa) == pytest.approx(
                float(erf(a / math.sqrt(kappa))), abs=1e-8
            )


class TestSecurity:
    def test_condition(self):
        # secure iff 2 sigma_x^2 < kappa
        assert crypto.security_margin(0.9, 1.0).secure
        assert not crypto.security_margin(0.1, 0.5).secure

    def test_boundary(self):
        x = 0.5
        kappa = 2 * crypto.receiver_variance(x)
        assert not crypto.security_margin(x, kappa).secure
        assert crypto.security_margin(x, kappa + 1e-9).secure

    def test_reported_errors_consistent(self):
        m = crypto.security_margin(0.9, 1.0, a=0.5)
        assert m.bob_err == pytest.approx(crypto.bob_heterodyne_error(0.9, 0.5))
        assert m.eve_err == pytest.approx(crypto.eve_error_gaussian_key(0.5, 1.0))


class TestAlphabetPdfs:
    def test_variances(self):
        p = crypto.alphabet_pdfs(1 + 1j, 0.5, 0.7)
        assert p.bob_variance == pytest.approx(1 / 3, rel=1e-12)
        assert p.eve_variance == pytest.approx(1 / 3 + 0.7, rel=1e-12)

    def test_pdfs_match_direct_formula(self):
        z0, x, kappa = 0.4 - 0.9j, 0.6, 0.7
        p = crypto.alphabet_pdfs(z0, x, kappa)
        delta_sq = (1 - x) / (1 + x)
        for z in (0.0, z0, 1.5 + 0.2j, -2j):
            for got, v in ((p.bob_pdf(z), delta_sq), (p.eve_pdf(z), delta_sq + kappa)):
                expected = math.exp(-abs(z - z0) ** 2 / v) / (math.pi * v)
                assert got == pytest.approx(expected, rel=1e-14)

    def test_pdf_peaks_at_symbol(self):
        p = crypto.alphabet_pdfs(1.0, 0.5, 0.7)
        assert p.bob_pdf(1.0) > p.bob_pdf(1.5)
        assert p.bob_pdf(1.0) == pytest.approx(1 / (math.pi * p.bob_variance))

    def test_key_pdf_normalization(self):
        kappa = 0.8
        grid = np.linspace(-6, 6, 400)
        vals = np.array(
            [[crypto.key_pdf(complex(re, im), kappa) for im in grid] for re in grid]
        )
        step = grid[1] - grid[0]
        assert vals.sum() * step * step == pytest.approx(1.0, abs=1e-6)


class TestSimulation:
    def test_bob_matches_analytic(self):
        cfg = crypto.ProtocolConfig(x=0.8, a=0.5, kappa_key=1.0)
        sim = crypto.simulate_binary_protocol(cfg, 400_000, seed=23)
        p = crypto.bob_heterodyne_error(0.8, 0.5)
        se = math.sqrt(p * (1 - p) / sim.n_bits)
        assert abs(sim.bob_empirical_err - p) < 3 * se

    def test_eve_approaches_bound_at_large_x(self):
        cfg = crypto.ProtocolConfig(x=0.999, a=0.5, kappa_key=1.0)
        sim = crypto.simulate_binary_protocol(cfg, 400_000, seed=29)
        p = crypto.eve_error_gaussian_key(0.5, 1.0)
        se = math.sqrt(p * (1 - p) / sim.n_bits)
        assert abs(sim.eve_empirical_err - p) < 3 * se

    def test_eve_above_bound_generally(self):
        # Eve's threshold receiver cannot beat her optimal bound
        cfg = crypto.ProtocolConfig(x=0.5, a=0.5, kappa_key=1.0)
        sim = crypto.simulate_binary_protocol(cfg, 200_000, seed=31)
        assert sim.eve_empirical_err > crypto.eve_error_gaussian_key(0.5, 1.0) - 0.005

    def test_determinism(self):
        cfg = crypto.ProtocolConfig(x=0.5, a=0.5, kappa_key=1.0)
        a = crypto.simulate_binary_protocol(cfg, 1000, seed=7)
        b = crypto.simulate_binary_protocol(cfg, 1000, seed=7)
        assert a == b

    def test_config_validation(self):
        with pytest.raises(ValueError):
            crypto.ProtocolConfig(x=1.0, a=0.5, kappa_key=1.0)
        with pytest.raises(ValueError):
            crypto.ProtocolConfig(x=0.5, a=0.5, kappa_key=0.0)

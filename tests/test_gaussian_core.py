"""Tests for the Gaussian two-mode state and channel layer."""

import math

import numpy as np
import pytest

from cventlab import fiber
from cventlab import gaussian_core as gc


def rotated_epr_variances(state):
    """Variances of the normalized combinations (x1 +- x2)/sqrt(2), (y1 -+ y2)/sqrt(2)."""
    combos = {
        "x_plus": np.array([1, 0, 1, 0]) / math.sqrt(2),
        "y_minus": np.array([0, 1, 0, -1]) / math.sqrt(2),
        "x_minus": np.array([1, 0, -1, 0]) / math.sqrt(2),
        "y_plus": np.array([0, 1, 0, 1]) / math.sqrt(2),
    }
    return {k: float(v @ state.cov @ v) for k, v in combos.items()}


class TestTwinBeamParams:
    def test_r0_zero(self):
        p = gc.TwinBeamParams(0.0)
        assert p.x == 0.0 and p.N == 0.0

    def test_consistency(self):
        for r0 in (0.1, 0.7, 1.3, 2.5):
            p = gc.TwinBeamParams(r0)
            assert p.x == pytest.approx(math.tanh(r0), rel=1e-12)
            assert p.N == pytest.approx(2 * p.x**2 / (1 - p.x**2), rel=1e-12)
        for x in np.linspace(0.0, 0.999, 2000):
            expected = 2 * x * x / (1 - x * x)
            assert gc.TwinBeamParams.from_x(x).N == pytest.approx(expected, rel=1e-12)

    def test_from_x_n1(self):
        # x = 1/sqrt(3) carries one mean photon
        p = gc.TwinBeamParams.from_x(1 / math.sqrt(3))
        assert p.N == pytest.approx(1.0, rel=1e-12)

    def test_from_mean_photons_roundtrip(self):
        p = gc.TwinBeamParams.from_mean_photons(2.0)
        assert p.N == pytest.approx(2.0, rel=1e-12)

    def test_negative_r0_rejected(self):
        with pytest.raises(ValueError):
            gc.TwinBeamParams(-0.1)
        with pytest.raises(ValueError):
            gc.TwinBeamParams.from_x(1.0)


class TestMakeTwinBeam:
    def test_no_squeezing_is_vacuum(self):
        s = gc.make_twin_beam(gc.TwinBeamParams(0.0))
        assert np.allclose(s.cov, 0.25 * np.eye(4))
        assert np.all(s.mean == 0.0)

    def test_epr_variances_r0_one(self):
        s = gc.make_twin_beam(gc.TwinBeamParams(1.0))
        v = rotated_epr_variances(s)
        assert v["x_plus"] == pytest.approx(math.e**2 / 4, rel=1e-12)
        assert v["y_minus"] == pytest.approx(math.e**2 / 4, rel=1e-12)
        assert v["x_minus"] == pytest.approx(math.e**-2 / 4, rel=1e-12)
        assert v["y_plus"] == pytest.approx(math.e**-2 / 4, rel=1e-12)

    def test_bona_fide(self):
        for r0 in (0.0, 0.5, 1.5):
            assert gc.make_twin_beam(gc.TwinBeamParams(r0)).is_bona_fide()

    def test_same_covariance_as_unevolved_fiber_state(self):
        # the fiber builds its states from the EPR variances e^{+-2 r0}/4 at
        # tau = 0; both routes must give the twin-beam up to roundoff
        for r0 in np.linspace(0.0, 3.0, 61):
            cov = gc.make_twin_beam(gc.TwinBeamParams(r0)).cov
            for m in (0.0, 0.5, 3.0):
                fiber_cov = fiber.evolved_state(r0, m, 0.0).cov
                ulp = np.spacing(np.abs(cov).max())
                assert np.abs(cov - fiber_cov).max() <= 4 * ulp


class TestDisplacement:
    def test_identity(self):
        s = gc.make_twin_beam(gc.TwinBeamParams(0.7))
        d = gc.apply_displacement(s, 0.0, 1)
        assert np.array_equal(d.mean, s.mean)
        assert np.array_equal(d.cov, s.cov)

    def test_coherent_state(self):
        d = gc.apply_displacement(gc.vacuum_state(), 1.0, 1)
        assert np.allclose(d.mean, [1, 0, 0, 0])
        assert np.allclose(d.cov, 0.25 * np.eye(4))

    def test_mode2_imaginary(self):
        s = gc.make_twin_beam(gc.TwinBeamParams(1.0))
        d = gc.apply_displacement(s, 2j, 2)
        assert np.allclose(d.mean, [0, 0, 0, 2])
        assert np.array_equal(d.cov, s.cov)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            gc.apply_displacement(gc.vacuum_state(), 1.0, 3)

    def test_heterodyne_mean_against_fock_oracle(self):
        # quadrature means of a displaced twin-beam computed by direct
        # operator averages in truncated Fock space
        from scipy.linalg import expm

        from cventlab import fock_oracle as fo

        x, alpha = 0.5, 0.4 + 0.3j
        d_max = 40
        dim = d_max + 1
        a_op = np.diag(np.sqrt(np.arange(1, dim)), 1)
        disp = expm(alpha * a_op.conj().T - np.conj(alpha) * a_op)
        amps = disp @ fo.twin_beam_fock(x, d_max).amps  # displace mode 1
        x_op = (a_op + a_op.conj().T) / 2
        y_op = (a_op - a_op.conj().T) / 2j
        rho1 = amps @ amps.conj().T  # reduced state of mode 1
        mean_x1 = float(np.trace(x_op @ rho1).real)
        mean_y1 = float(np.trace(y_op @ rho1).real)

        state = gc.apply_displacement(
            gc.make_twin_beam(gc.TwinBeamParams.from_x(x)), alpha, 1
        )
        assert mean_x1 == pytest.approx(state.mean[0], abs=1e-10)
        assert mean_y1 == pytest.approx(state.mean[1], abs=1e-10)


class TestGaussianNoise:
    def test_identity_channel(self):
        s = gc.make_twin_beam(gc.TwinBeamParams(0.3))
        out = gc.apply_gaussian_noise(s, gc.NoiseParams(0.0))
        assert np.array_equal(out.cov, s.cov)

    def test_composition_law_exact(self):
        s = gc.make_twin_beam(gc.TwinBeamParams(0.8))
        for mode in (1, 2, "both"):
            once = gc.apply_gaussian_noise(s, gc.NoiseParams(1.0), mode)
            twice = gc.apply_gaussian_noise(
                gc.apply_gaussian_noise(s, gc.NoiseParams(0.3), mode),
                gc.NoiseParams(0.7),
                mode,
            )
            assert np.array_equal(once.cov, twice.cov)

    def test_vacuum_plus_one_photon(self):
        out = gc.apply_gaussian_noise(gc.vacuum_state(), gc.NoiseParams(1.0), 1)
        assert np.allclose(out.cov[:2, :2], 0.75 * np.eye(2))
        assert np.allclose(out.cov[2:, 2:], 0.25 * np.eye(2))

    def test_monte_carlo_displacement_definition(self):
        # the channel is a random displacement with complex Gaussian weight:
        # sampling it directly must reproduce the covariance bump
        rng = np.random.default_rng(11)
        n = 200_000
        nbar = 1.0
        gamma_re = rng.normal(0.0, math.sqrt(nbar / 2), n)
        vac = rng.normal(0.0, 0.5, n)  # vacuum x-quadrature, variance 1/4
        sample_var = np.var(gamma_re + vac)
        se = math.sqrt(2.0 / n) * 0.75  # std error of a variance estimate
        assert abs(sample_var - 0.75) < 3 * se

    def test_mean_unchanged(self):
        s = gc.apply_displacement(gc.vacuum_state(), 1 + 1j, 1)
        out = gc.apply_gaussian_noise(s, gc.NoiseParams(2.0))
        assert np.array_equal(out.mean, s.mean)


class TestHeterodyne:
    def test_vacuum_pdf(self):
        s = gc.vacuum_state()
        for z in (0.0, 0.5 + 0.5j, 1j):
            expected = math.exp(-abs(z) ** 2) / math.pi
            assert gc.heterodyne_pdf(s, z) == pytest.approx(expected, rel=1e-12)

    def test_variance_one_third(self):
        s = gc.make_twin_beam(gc.TwinBeamParams.from_x(1 / 3))
        _, var = gc.heterodyne_mean_and_variance(s)
        assert var == pytest.approx(0.5, rel=1e-12)

    def test_noise_degraded_variance(self):
        s = gc.make_twin_beam(gc.TwinBeamParams.from_x(0.9))
        s = gc.apply_gaussian_noise(s, gc.NoiseParams(0.5), "both")
        _, var = gc.heterodyne_mean_and_variance(s)
        assert var == pytest.approx(0.1 / 1.9 + 1.0, rel=1e-12)

    def test_variance_decreasing_in_x(self):
        xs = np.linspace(0.0, 0.99, 100)
        vars_ = [
            gc.heterodyne_mean_and_variance(
                gc.make_twin_beam(gc.TwinBeamParams.from_x(x))
            )[1]
            for x in xs
        ]
        assert vars_[0] == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.diff(vars_) < 0)

    def test_pdf_normalization(self):
        # quadrature over a box of 6 complex standard deviations
        s = gc.apply_displacement(
            gc.make_twin_beam(gc.TwinBeamParams.from_x(0.6)), 0.3 - 0.2j, 1
        )
        mu, var = gc.heterodyne_mean_and_variance(s)
        half = 6.0 * math.sqrt(var)
        nodes, weights = np.polynomial.legendre.leggauss(120)
        re = mu.real + half * nodes
        im = mu.imag + half * nodes
        zz = re[:, None] + 1j * im[None, :]
        pdf = np.exp(-np.abs(zz - mu) ** 2 / var) / (math.pi * var)
        total = half * half * np.einsum("i,j,ij->", weights, weights, pdf)
        assert abs(total - 1.0) < 1e-9

    def test_unsupported_state(self):
        cov = 0.25 * np.eye(4)
        cov[0, 0] = 0.5  # single-mode squeezing breaks isotropy
        state = gc.GaussianTwoModeState(np.zeros(4), cov)
        with pytest.raises(gc.UnsupportedStateError):
            gc.heterodyne_pdf(state, 0.0)


class TestSampling:
    def test_vacuum_displaced_statistics(self):
        s = gc.apply_displacement(gc.vacuum_state(), 3.0, 1)
        z = gc.sample_heterodyne(s, 100_000, seed=5)
        n = len(z)
        assert abs(np.mean(z.real) - 3.0) < 3 * math.sqrt(0.5 / n)
        var = np.mean(np.abs(z - 3.0) ** 2)
        assert abs(var - 1.0) < 3 / math.sqrt(n)

    def test_squeezed_variance(self):
        s = gc.make_twin_beam(gc.TwinBeamParams.from_x(0.9))
        z = gc.sample_heterodyne(s, 100_000, seed=6)
        var = np.mean(np.abs(z) ** 2)
        expected = 0.1 / 1.9
        assert abs(var - expected) < 3 * expected / math.sqrt(len(z))

    def test_determinism(self):
        s = gc.make_twin_beam(gc.TwinBeamParams(0.5))
        a = gc.sample_heterodyne(s, 1000, seed=42)
        b = gc.sample_heterodyne(s, 1000, seed=42)
        assert np.array_equal(a, b)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            gc.sample_heterodyne(gc.vacuum_state(), 0, seed=1)


class TestPPT:
    def test_vacuum_separable(self):
        res = gc.ppt_separable(gc.vacuum_state())
        assert res.separable
        assert res.witness == pytest.approx(0.25, rel=1e-12)

    def test_twin_beam_entangled(self):
        res = gc.ppt_separable(gc.make_twin_beam(gc.TwinBeamParams(1.0)))
        assert not res.separable
        assert res.witness == pytest.approx(math.e**-2 / 4, rel=1e-9)

    def test_equivalence_with_two_variance_condition(self):
        # general symplectic PPT vs the twin-beam-family variance condition
        rng = np.random.default_rng(7)
        for _ in range(1000):
            r0 = rng.uniform(0.0, 2.0)
            nbar = rng.uniform(0.0, 1.5)
            s = gc.make_twin_beam(gc.TwinBeamParams(r0))
            if nbar > 0:
                s = gc.apply_gaussian_noise(s, gc.NoiseParams(nbar), "both")
            v = rotated_epr_variances(s)
            by_variances = v["x_minus"] >= 0.25 - 1e-12 and v["x_plus"] >= 0.25 - 1e-12
            assert gc.ppt_separable(s).separable == by_variances

    def test_threshold_crossing(self):
        # states just either side of the fiber separability threshold
        r0, m = 1.0, 0.5
        tau_s = fiber.separability_time_rescaled(m, r0)
        below = fiber.evolved_state(r0, m, tau_s * (1 - 1e-6))
        above = fiber.evolved_state(r0, m, tau_s * (1 + 1e-6))
        assert not gc.ppt_separable(below).separable
        assert gc.ppt_separable(above).separable

    def test_non_physical_rejected(self):
        cov = 0.01 * np.eye(4)  # below the uncertainty bound
        state = gc.GaussianTwoModeState(np.zeros(4), cov)
        with pytest.raises(gc.NonPhysicalStateError):
            gc.ppt_separable(state)

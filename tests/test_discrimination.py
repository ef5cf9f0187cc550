"""Tests for minimum-error unitary discrimination via eigenphase geometry."""

import math

import numpy as np
import pytest

from cventlab import discrimination as disc


def spectrum(*phases):
    return disc.EigenphaseSpectrum(tuple(phases))


class TestEigenphaseSpectrum:
    def test_reduction_and_dedup(self):
        s = spectrum(0.0, 2 * math.pi, 1.0, 1.0 + 2 * math.pi)
        assert s.phases == (0.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spectrum()


class TestCoveringArc:
    def test_single_phase(self):
        assert disc.covering_arc((1.2,)) == 0.0

    def test_two_phases(self):
        assert disc.covering_arc((0.0, 1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_wraparound(self):
        # phases at 0.1 and 2pi - 0.1 cover an arc of 0.2 through zero
        assert disc.covering_arc((0.1, 2 * math.pi - 0.1)) == pytest.approx(
            0.2, abs=1e-12
        )

    def test_antipodal(self):
        assert disc.covering_arc((0.0, math.pi)) == pytest.approx(
            math.pi, rel=1e-12
        )


class TestBuildPolygon:
    def test_single_phase_r_one(self):
        p = disc.build_polygon(spectrum(0.4))
        assert p.r == 1.0
        assert disc.min_error_probability(p) == 0.5

    def test_two_phase_chord(self):
        # chord midpoint distance cos(delta/2)
        delta = 1.0
        p = disc.build_polygon(spectrum(0.0, delta))
        assert p.r == pytest.approx(math.cos(delta / 2), rel=1e-12)

    def test_right_angle_pair(self):
        p = disc.build_polygon(spectrum(0.0, math.pi / 2))
        assert p.r == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert disc.min_error_probability(p) == pytest.approx(
            0.5 * (1 - math.sqrt(0.5)), rel=1e-12
        )

    def test_origin_inside(self):
        p = disc.build_polygon(spectrum(0.0, 2 * math.pi / 3, 4 * math.pi / 3))
        assert p.r == 0.0
        assert disc.min_error_probability(p) == 0.0

    def test_is_helstrom_of_r_squared(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            k = rng.integers(1, 6)
            p = disc.build_polygon(spectrum(*rng.uniform(0, 2 * math.pi, k)))
            assert disc.min_error_probability(p) == disc.helstrom_error(p.r ** 2)

    def test_spread_at_least_pi_exact(self):
        for phases in [(0.0, math.pi), (0.0, 1.0, math.pi + 0.2), (0.1, 3.5, 5.0)]:
            p = disc.build_polygon(spectrum(*phases))
            if p.delta >= math.pi:
                assert p.r == 0.0


class TestSpreadFormula:
    def test_reference_value(self):
        # cos^4 form at delta = pi/2
        got = disc.spread_formula_error(math.pi / 2)
        assert got == pytest.approx(0.5 * (1 - math.sqrt(0.75)), rel=1e-12)
        assert got == pytest.approx(0.0670, abs=5e-5)

    def test_zero_beyond_pi(self):
        assert disc.spread_formula_error(math.pi) == 0.0
        assert disc.spread_formula_error(4.0) == 0.0

    def test_differs_from_hull_for_two_point_spectra(self):
        # the two routes deliberately disagree below pi
        p = disc.build_polygon(spectrum(0.0, math.pi / 2))
        assert disc.spread_formula_error(p.delta) != pytest.approx(
            disc.min_error_probability(p), abs=1e-3
        )


class TestOptimalWeights:
    def check_weights(self, spec_obj):
        p = disc.build_polygon(spec_obj)
        w = disc.optimal_probe_weights(p)
        assert np.all(w >= -1e-12)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
        z = np.sum(w * np.exp(1j * np.asarray(p.phases)))
        assert abs(z) == pytest.approx(p.r, abs=1e-9)

    def test_various_spectra(self):
        cases = [
            (0.3,),
            (0.0, 1.0),
            (0.0, math.pi),  # antipodal chord through the origin
            (0.0, 2 * math.pi / 3, 4 * math.pi / 3),
            (0.0, 0.5, 1.0, 4.0),
            (0.2, 0.9, 2.0, 3.4, 5.1),
        ]
        for phases in cases:
            self.check_weights(spectrum(*phases))

    def test_random_spectra(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            k = rng.integers(1, 7)
            self.check_weights(spectrum(*rng.uniform(0, 2 * math.pi, k)))


class TestBruteForce:
    def test_matches_hull(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            k = rng.integers(2, 6)
            s = spectrum(*rng.uniform(0, 2 * math.pi, k))
            p = disc.build_polygon(s)
            r_bf = disc.brute_force_min_overlap(s, n_samples=20_000, seed=1)
            assert r_bf == pytest.approx(p.r, abs=1e-6)
            assert r_bf >= p.r - 1e-9  # hull value is the true minimum


def random_unitary(rng, d):
    """Haar-random unitary: QR of a complex Gaussian matrix, phases fixed."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestAncillaExtension:
    def test_no_single_copy_gain(self):
        # an ancilla turns U2^dag U1 into (U2^dag U1) (x) I_k; its eigenphases,
        # read off an independent eigensolver, give the same polygon
        rng = np.random.default_rng(5)
        for d, k in [(2, 2), (3, 2), (3, 4), (5, 3)]:
            v = random_unitary(rng, d).conj().T @ random_unitary(rng, d)
            phases = np.angle(np.linalg.eigvals(v))
            phases_ext = np.angle(np.linalg.eigvals(np.kron(v, np.eye(k))))
            plain = disc.build_polygon(disc.EigenphaseSpectrum(tuple(phases)))
            ext = disc.build_polygon(disc.EigenphaseSpectrum(tuple(phases_ext)))
            assert ext.r == pytest.approx(plain.r, rel=0, abs=1e-12)
            assert ext.delta == pytest.approx(plain.delta, rel=0, abs=1e-12)


class TestMultiCopy:
    def test_copies_for_exact_values(self):
        assert disc.copies_for_exact(spectrum(0.0, math.pi)) == 1
        assert disc.copies_for_exact(spectrum(0.0, math.pi / 2)) == 2
        assert disc.copies_for_exact(spectrum(0.0, 1.0)) == 4
        assert disc.copies_for_exact(spectrum(0.7)) is None

    def test_n_copy_spectrum_explicit(self):
        s = spectrum(0.0, math.pi / 2)
        doubled = disc.n_copy_spectrum(s, 2)
        assert doubled.phases == pytest.approx((0.0, math.pi / 2, math.pi))

    def test_exact_at_predicted_copies(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            delta = rng.uniform(0.5, math.pi - 0.05)
            s = spectrum(0.0, delta)
            n = disc.copies_for_exact(s)
            assert disc.build_polygon(disc.n_copy_spectrum(s, n)).r == 0.0
            if n > 1:
                assert disc.build_polygon(disc.n_copy_spectrum(s, n - 1)).r > 0.0

    def test_bad_copies(self):
        with pytest.raises(ValueError):
            disc.n_copy_spectrum(spectrum(0.0), 0)

"""Tests for the twin-beam family state and channel layer."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from cventlab import fiber
from cventlab import gaussian_core as gc


# Dense reference: a two-mode Gaussian state as its quadrature means and 4x4
# covariance in the (x1, y1, x2, y2) order, with the displacement and noise
# channels and the heterodyne projection written on the full moments.
@dataclass(frozen=True)
class DenseState:
    mean: np.ndarray
    cov: np.ndarray


def dense_vacuum():
    return DenseState(np.zeros(4), 0.25 * np.eye(4))


def dense_family(diag, cross):
    """Zero-mean family state: diag on the diagonal, +-cross on x1x2 / y1y2."""
    cov = np.array(
        [
            [diag, 0.0, cross, 0.0],
            [0.0, diag, 0.0, -cross],
            [cross, 0.0, diag, 0.0],
            [0.0, -cross, 0.0, diag],
        ]
    )
    return DenseState(np.zeros(4), cov)


def dense_twin_beam(r0):
    return dense_family(math.cosh(2 * r0) / 4, math.sinh(2 * r0) / 4)


def dense_cov(state):
    """Covariance of a family state from its EPR variances."""
    plus, minus = state.Sigma_plus_sq, state.Sigma_minus_sq
    return dense_family((plus + minus) / 2, (plus - minus) / 2).cov


def dense_displacement(state, alpha, mode):
    mean = state.mean.copy()
    off = 2 * (mode - 1)
    mean[off] += complex(alpha).real
    mean[off + 1] += complex(alpha).imag
    return DenseState(mean, state.cov)


def dense_noise(state, nbar, mode):
    """Adds nbar/2 to each quadrature variance of mode 1, 2 or 'both'."""
    idx = {1: [0, 1], 2: [2, 3], "both": [0, 1, 2, 3]}[mode]
    cov = state.cov.copy()
    cov[idx, idx] += nbar / 2
    return DenseState(state.mean, cov)


# coefficient rows of the measured commuting pair (x1 - x2, y1 + y2)
HET_RE = np.array([1.0, 0.0, -1.0, 0.0])
HET_IM = np.array([0.0, 1.0, 0.0, 1.0])


def dense_heterodyne(state, tol=1e-9):
    """Mean and complex variance of z = (x1 - x2) + i (y1 + y2), checked isotropic."""
    var_re = HET_RE @ state.cov @ HET_RE
    var_im = HET_IM @ state.cov @ HET_IM
    assert abs(var_re - var_im) <= tol and abs(HET_RE @ state.cov @ HET_IM) <= tol
    return complex(HET_RE @ state.mean, HET_IM @ state.mean), var_re + var_im


def rotated_epr_variances(cov):
    """Variances of the normalized combinations (x1 +- x2)/sqrt(2), (y1 -+ y2)/sqrt(2)."""
    combos = {
        "x_plus": np.array([1, 0, 1, 0]) / math.sqrt(2),
        "y_minus": np.array([0, 1, 0, -1]) / math.sqrt(2),
        "x_minus": np.array([1, 0, -1, 0]) / math.sqrt(2),
        "y_plus": np.array([0, 1, 0, 1]) / math.sqrt(2),
    }
    return {k: float(v @ cov @ v) for k, v in combos.items()}


# Dense reference for the family-state PPT: the symplectic spectrum of a
# general two-mode covariance from LAPACK eigensolves.
OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


def dense_is_bona_fide(cov, tol=1e-10):
    """Uncertainty condition cov + (i/4) Omega >= 0."""
    return bool(np.linalg.eigvalsh(cov + 0.25j * OMEGA).min() >= -tol)


def symplectic_eigenvalues(cov):
    """Symplectic eigenvalues (nu1, nu2) of a two-mode covariance, ascending.

    The eigenvalues of i*Omega*cov come in +-nu pairs; each pair of moduli is
    averaged to suppress roundoff.
    """
    mods = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ cov)))
    return np.array([(mods[0] + mods[1]) / 2.0, (mods[2] + mods[3]) / 2.0])


def dense_ppt_witness(cov):
    """Smallest symplectic eigenvalue of the covariance with y2 -> -y2."""
    t = np.diag([1.0, 1.0, 1.0, -1.0])
    return float(symplectic_eigenvalues(t @ cov @ t).min())


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

    def test_negative_r0_message(self):
        # the r0 as a float, as in the message of every r0 check
        with pytest.raises(ValueError, match=r"^squeezing parameter must be >= 0, got -1\.0$"):
            gc.TwinBeamParams(-1)
        with pytest.raises(ValueError, match=r"^squeezing parameter must be >= 0, got -1\.0$"):
            fiber.evolve_variances(-1, 0.5, 1.0)

    def test_epr_variances_come_from_the_one_helper(self):
        for r0 in (0, 0.3, 2):
            assert gc.TwinBeamParams(r0).epr_variances == gc._epr_variances(r0)
            assert gc.TwinBeamParams(r0).r0 == float(r0)


class TestValueTypes:
    """The parameter, state and result types are immutable named tuples."""

    @pytest.mark.parametrize("value, field", [
        (gc.TwinBeamParams(0.5), "r0"),
        (gc.NoiseParams(1.0), "nbar"),
        (gc.TwinBeamFamilyState(0.5, 0.2), "Sigma_minus_sq"),
        (gc.TwinBeamFamilyState(0.5, 0.2), "mean"),
        (gc.SeparabilityResult(True, 0.3), "witness"),
        (fiber.OUSimulation(0.5, 0.2, 10), "n_samples"),
    ])
    def test_fields_cannot_be_set(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 0.0)
        with pytest.raises(AttributeError):
            value.other = 0.0  # no instance dict either

    def test_noise_check(self):
        with pytest.raises(ValueError, match=r"^nbar must be >= 0, got -2\.0$"):
            gc.NoiseParams(-2)
        assert gc.NoiseParams(1).nbar == 1.0 and type(gc.NoiseParams(1).nbar) is float

    def test_channels_return_family_states(self):
        s = gc.TwinBeamFamilyState(0.5, 0.25)
        for out in (s.displaced(0.5 + 0.25j), s.with_noise(gc.NoiseParams(1.0), modes=1)):
            assert type(out) is gc.TwinBeamFamilyState
        assert s.displaced(0.5 + 0.25j) == gc.TwinBeamFamilyState(0.5, 0.25, 0.5 + 0.25j)
        assert s.with_noise(gc.NoiseParams(1.0), modes=1) == gc.TwinBeamFamilyState(0.75, 0.5)
        assert repr(gc.TwinBeamParams(0.5)) == "TwinBeamParams(r0=0.5)"


VACUUM = gc.TwinBeamFamilyState(0.25, 0.25)


class TestMakeTwinBeam:
    def test_no_squeezing_is_vacuum(self):
        s = gc.make_twin_beam(gc.TwinBeamParams(0.0))
        assert s == VACUUM
        assert s.mean == 0.0

    def test_epr_variances_r0_one(self):
        s = gc.make_twin_beam(gc.TwinBeamParams(1.0))
        assert s.Sigma_plus_sq == pytest.approx(math.e**2 / 4, rel=1e-15)
        assert s.Sigma_minus_sq == pytest.approx(math.e**-2 / 4, rel=1e-15)
        v = rotated_epr_variances(dense_twin_beam(1.0).cov)
        assert v["x_plus"] == pytest.approx(math.e**2 / 4, rel=1e-12)
        assert v["y_minus"] == pytest.approx(math.e**2 / 4, rel=1e-12)
        assert v["x_minus"] == pytest.approx(math.e**-2 / 4, rel=1e-12)
        assert v["y_plus"] == pytest.approx(math.e**-2 / 4, rel=1e-12)

    def test_bona_fide(self):
        for r0 in (0.0, 0.5, 1.5):
            s = gc.make_twin_beam(gc.TwinBeamParams(r0))
            assert s.is_bona_fide()
            assert dense_is_bona_fide(dense_cov(s))

    def test_same_covariance_as_unevolved_fiber_state(self):
        # the fiber evolves from the same EPR variances; the dense cosh/sinh
        # twin-beam agrees with them up to roundoff
        for r0 in np.linspace(0.0, 3.0, 61):
            s = gc.make_twin_beam(gc.TwinBeamParams(r0))
            for m in (0.0, 0.5, 3.0):
                assert fiber.evolved_state(r0, m, 0.0) == s
            cov = dense_twin_beam(r0).cov
            ulp = np.spacing(np.abs(cov).max())
            assert np.abs(cov - dense_cov(s)).max() <= 4 * ulp


class TestFamilyState:
    def test_cov_is_family_state(self):
        s = gc.TwinBeamFamilyState(1.5, 0.1)
        assert np.array_equal(dense_cov(s), dense_family(0.8, 0.7).cov)
        v = rotated_epr_variances(dense_cov(s))
        assert v["x_plus"] == pytest.approx(1.5, rel=1e-14, abs=0)
        assert v["y_minus"] == pytest.approx(1.5, rel=1e-14, abs=0)
        assert v["x_minus"] == pytest.approx(0.1, rel=1e-14, abs=0)
        assert v["y_plus"] == pytest.approx(0.1, rel=1e-14, abs=0)

    def test_bona_fide_matches_dense_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            plus = rng.uniform(0.01, 3.0)
            minus = rng.uniform(0.01, 3.0)
            s = gc.TwinBeamFamilyState(plus, minus)
            if abs(plus * minus - 1 / 16) > 1e-9:
                assert s.is_bona_fide() == dense_is_bona_fide(dense_cov(s))

    def test_negative_variances_not_bona_fide(self):
        # the product alone is positive here
        assert not gc.TwinBeamFamilyState(-1.0, -1.0).is_bona_fide()


class TestDisplacement:
    def test_identity(self):
        s = gc.make_twin_beam(gc.TwinBeamParams(0.7))
        assert s.displaced(0.0) == s

    def test_coherent_state(self):
        d = VACUUM.displaced(1.0)
        assert d.mean == 1.0
        assert (d.Sigma_plus_sq, d.Sigma_minus_sq) == (0.25, 0.25)
        dense = dense_displacement(dense_vacuum(), 1.0, 1)
        assert np.array_equal(dense.mean, [1, 0, 0, 0])
        assert dense_heterodyne(dense) == (d.mean, 1.0)

    def test_mode2_imaginary(self):
        # displacing mode 2 by beta moves z = (x1 - x2) + i (y1 + y2) as
        # displacing mode 1 by -conj(beta) does
        s = gc.make_twin_beam(gc.TwinBeamParams(1.0))
        dense = dense_displacement(dense_twin_beam(1.0), 2j, 2)
        assert np.allclose(dense.mean, [0, 0, 0, 2])
        mu, var = dense_heterodyne(dense)
        assert mu == s.displaced(-(2j).conjugate()).mean == 2j
        assert var == pytest.approx(4 * s.Sigma_minus_sq, rel=1e-9)

    def test_heterodyne_mean_against_fock_oracle(self):
        # mean of z = (x1 - x2) + i (y1 + y2) on a displaced twin-beam, from
        # direct operator averages in truncated Fock space
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
        rho2 = amps.T @ amps.conj()  # reduced state of mode 2
        mean_z = complex(
            np.trace(x_op @ rho1).real - np.trace(x_op @ rho2).real,
            np.trace(y_op @ rho1).real + np.trace(y_op @ rho2).real,
        )

        state = gc.make_twin_beam(gc.TwinBeamParams.from_x(x)).displaced(alpha)
        assert mean_z == pytest.approx(state.mean, abs=1e-10)


class TestGaussianNoise:
    def test_identity_channel(self):
        s = gc.make_twin_beam(gc.TwinBeamParams(0.3))
        assert s.with_noise(gc.NoiseParams(0.0)) == s

    def test_composition_law_exact(self):
        s = gc.make_twin_beam(gc.TwinBeamParams(0.8))
        for modes in (1, 2):
            once = s.with_noise(gc.NoiseParams(1.0), modes)
            twice = s.with_noise(gc.NoiseParams(0.3), modes).with_noise(
                gc.NoiseParams(0.7), modes)
            for a, b in ((once.Sigma_plus_sq, twice.Sigma_plus_sq),
                         (once.Sigma_minus_sq, twice.Sigma_minus_sq)):
                assert a == pytest.approx(b, rel=1e-15, abs=0)

    def test_vacuum_plus_one_photon(self):
        out = VACUUM.with_noise(gc.NoiseParams(1.0), modes=1)
        assert (out.Sigma_plus_sq, out.Sigma_minus_sq) == (0.5, 0.5)
        dense = dense_noise(dense_vacuum(), 1.0, 1).cov
        assert np.allclose(dense[:2, :2], 0.75 * np.eye(2))
        assert np.allclose(dense[2:, 2:], 0.25 * np.eye(2))

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
        s = VACUUM.displaced(1 + 1j)
        assert s.with_noise(gc.NoiseParams(2.0)).mean == s.mean == 1 + 1j

    def test_invalid_modes(self):
        for modes in (0, 3, "both"):
            with pytest.raises(ValueError):
                VACUUM.with_noise(gc.NoiseParams(1.0), modes)

    def test_heterodyne_matches_dense_reference(self):
        # noise on one mode also adds a +-nbar/4 cross-covariance between the
        # EPR pairs, which the family state drops; heterodyne never reads it
        rng = np.random.default_rng(23)
        for _ in range(300):
            r0 = rng.uniform(0.0, 3.0)
            nbar = rng.uniform(0.0, 10.0)
            alpha = complex(*rng.normal(size=2))
            for modes, dense_mode in ((1, 1), (2, "both")):
                s = gc.make_twin_beam(gc.TwinBeamParams(r0)).displaced(alpha)
                s = s.with_noise(gc.NoiseParams(nbar), modes)
                dense = dense_displacement(dense_twin_beam(r0), alpha, 1)
                dense = dense_noise(dense, nbar, dense_mode)
                mu, var = gc.heterodyne_mean_and_variance(s)
                dense_mu, dense_var = dense_heterodyne(dense)
                assert mu == pytest.approx(dense_mu, rel=1e-12, abs=1e-15)
                assert var == pytest.approx(dense_var, rel=1e-9, abs=0)
                v = rotated_epr_variances(dense.cov)
                assert s.Sigma_plus_sq == pytest.approx(v["x_plus"], rel=1e-9, abs=0)
                assert s.Sigma_minus_sq == pytest.approx(v["x_minus"], rel=1e-9, abs=0)
                plus = np.array([1, 0, 1, 0]) / math.sqrt(2)
                minus = np.array([1, 0, -1, 0]) / math.sqrt(2)
                dropped = plus @ dense.cov @ minus
                assert dropped == pytest.approx(nbar / 4 if modes == 1 else 0.0,
                                                rel=1e-9, abs=1e-12)


class TestHeterodyne:
    def test_vacuum_pdf(self):
        for z in (0.0, 0.5 + 0.5j, 1j):
            expected = math.exp(-abs(z) ** 2) / math.pi
            assert gc.heterodyne_pdf(VACUUM, z) == pytest.approx(expected, rel=1e-12)

    # outcomes whose |z - mu| ** 2, through glibc's pow, is one ulp off and
    # moves the density by an ulp or more
    @pytest.mark.parametrize("z, variance", [(-0.43 - 1.82j, 1.15), (1.21 + 1.06j, 0.84),
                                             (-1.5 - 0.38j, 1.81), (-0.7 + 1.38j, 0.41)])
    def test_pdf_squares_correctly_rounded(self, z, variance):
        state = gc.TwinBeamFamilyState(Sigma_plus_sq=1.0, Sigma_minus_sq=variance / 4)
        square = float(Fraction(abs(z)) ** 2)
        expected = math.exp(-square / variance) / (math.pi * variance)
        assert gc.heterodyne_pdf(state, z).hex() == expected.hex()

    def test_variance_one_third(self):
        s = gc.make_twin_beam(gc.TwinBeamParams.from_x(1 / 3))
        _, var = gc.heterodyne_mean_and_variance(s)
        assert var == pytest.approx(0.5, rel=1e-12)

    def test_noise_degraded_variance(self):
        s = gc.make_twin_beam(gc.TwinBeamParams.from_x(0.9))
        s = s.with_noise(gc.NoiseParams(0.5), modes=2)
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
        s = gc.make_twin_beam(gc.TwinBeamParams.from_x(0.6)).displaced(0.3 - 0.2j)
        mu, var = gc.heterodyne_mean_and_variance(s)
        half = 6.0 * math.sqrt(var)
        nodes, weights = np.polynomial.legendre.leggauss(120)
        re = mu.real + half * nodes
        im = mu.imag + half * nodes
        zz = re[:, None] + 1j * im[None, :]
        pdf = np.exp(-np.abs(zz - mu) ** 2 / var) / (math.pi * var)
        total = half * half * np.einsum("i,j,ij->", weights, weights, pdf)
        assert abs(total - 1.0) < 1e-9


class TestSampling:
    def test_vacuum_displaced_statistics(self):
        s = VACUUM.displaced(3.0)
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
            gc.sample_heterodyne(VACUUM, 0, seed=1)


class TestPPT:
    def test_vacuum_separable(self):
        res = gc.ppt_separable(gc.TwinBeamFamilyState(0.25, 0.25))
        assert res.separable
        assert res.witness == 0.25

    def test_vacuum_level_is_not_above_it(self):
        # separable means strictly above 1/4 - tol; at tol = 0 the vacuum
        # level itself does not count, the next float up does
        up = math.nextafter(0.25, 1.0)
        assert not gc.ppt_separable(gc.TwinBeamFamilyState(0.25, 0.25), tol=0.0).separable
        assert not gc.ppt_separable(gc.TwinBeamFamilyState(up, 0.25), tol=0.0).separable
        assert gc.ppt_separable(gc.TwinBeamFamilyState(up, up), tol=0.0).separable

    def test_twin_beam_entangled(self):
        res = gc.ppt_separable(gc.TwinBeamFamilyState(math.e**2 / 4, math.e**-2 / 4))
        assert not res.separable
        assert res.witness == pytest.approx(math.e**-2 / 4, rel=1e-15, abs=0)
        dense = dense_twin_beam(1.0).cov
        assert res.witness == pytest.approx(dense_ppt_witness(dense), rel=1e-9, abs=0)

    def test_equivalence_with_two_variance_condition(self):
        # family-state PPT vs the variance condition and vs the dense
        # symplectic spectrum, on noisy twin-beams
        rng = np.random.default_rng(7)
        for _ in range(1000):
            r0 = rng.uniform(0.0, 2.0)
            nbar = rng.uniform(0.0, 1.5)
            s = dense_twin_beam(r0)
            if nbar > 0:
                s = dense_noise(s, nbar, "both")
            v = rotated_epr_variances(s.cov)
            by_variances = v["x_minus"] > 0.25 - 1e-12 and v["x_plus"] > 0.25 - 1e-12
            res = gc.ppt_separable(gc.TwinBeamFamilyState(v["x_plus"], v["x_minus"]))
            assert res.separable == by_variances
            assert res.witness == pytest.approx(dense_ppt_witness(s.cov), rel=1e-9, abs=0)

    def test_threshold_crossing(self):
        # states just either side of the fiber separability threshold
        r0, m = 1.0, 0.5
        tau_s = fiber.separability_time_rescaled(m, r0)
        below = fiber.evolved_state(r0, m, tau_s * (1 - 1e-6))
        above = fiber.evolved_state(r0, m, tau_s * (1 + 1e-6))
        assert not gc.ppt_separable(below).separable
        assert gc.ppt_separable(above).separable

    def test_non_physical_rejected(self):
        for state in (gc.TwinBeamFamilyState(0.1, 0.1),  # below the uncertainty bound
                      gc.TwinBeamFamilyState(-1.0, -1.0)):
            with pytest.raises(gc.NonPhysicalStateError):
                gc.ppt_separable(state)

"""Tests for the twin-beam secret-key protocol."""

import math
import re

import mpmath
import numpy as np
import pytest
from scipy.special import erf

from cventlab import crypto, fock_oracle, gaussian_core


def dense_uniform_key_demo(x, a, radii=(1.5, 2.5, 3.5), grid_step=0.5, d_max=24):
    """Reference for crypto.uniform_key_eigenvalue_demo: each D(alpha) by expm,
    the averaged difference accumulated densely and diagonalized in full."""
    from scipy.linalg import expm

    dim = d_max + 1
    adag = np.diag(np.sqrt(np.arange(1, dim)), -1)

    def disp(alpha):
        return expm(alpha * adag - np.conj(alpha) * adag.T)

    tb = fock_oracle.twin_beam_fock(x, d_max).amps
    maxima = []
    for radius in radii:
        pts = np.arange(-radius, radius + grid_step / 2.0, grid_step)
        alphas = [complex(re, im) for re in pts for im in pts
                  if re * re + im * im <= radius * radius]
        # every grid point's two displaced states as columns, with no shortcut
        u1 = np.stack([(disp(alpha + a) @ tb).reshape(-1) for alpha in alphas], axis=1)
        u0 = np.stack([(disp(alpha - a) @ tb).reshape(-1) for alpha in alphas], axis=1)
        acc = (u1 @ u1.conj().T - u0 @ u0.conj().T) / len(alphas)
        acc = (acc + acc.conj().T) / 2.0
        maxima.append(float(np.max(np.abs(np.linalg.eigvalsh(acc)))))
    return maxima


def spy_factorizations(monkeypatch):
    """Record (name, dtype, shape) of each np.linalg.qr and eigvalsh call."""
    calls = []
    for name in ("qr", "eigvalsh"):
        def spy(arr, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append((_name, arr.dtype, arr.shape))
            return _original(arr, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


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
            coh = crypto.bob_ideal_error(0.0, -0.5, 0.5)
            assert bob < coh

    def test_equal_at_x_zero(self):
        # the coherent-state encoding: |<alpha1|alpha0>|^2 = exp(-|alpha0 - alpha1|^2)
        assert crypto.bob_ideal_error(0.0, -0.5, 0.5) == pytest.approx(
            (1 - math.sqrt(1 - math.exp(-1.0))) / 2, rel=1e-12
        )

    def test_helstrom_reference(self):
        # orthogonal limit: error -> 0; identical symbols: error 1/2
        assert crypto.bob_ideal_error(0.0, -10.0, 10.0) == pytest.approx(0.0, abs=1e-12)
        assert crypto.bob_ideal_error(0.0, 1.0, 1.0) == 0.5

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

    @pytest.mark.parametrize("kwargs", [
        {},
        {"radii": (1.0, 2.0, 3.0)},
        {"d_max": 4},
        {"d_max": 12},
    ])
    def test_uniform_key_demo_matches_dense_reference(self, kwargs):
        got = crypto.uniform_key_eigenvalue_demo(0.3, 0.5, **kwargs)
        expected = dense_uniform_key_demo(0.3, 0.5, **kwargs)
        assert got == pytest.approx(expected, rel=0, abs=1e-13)

    def test_uniform_key_demo_radius_below_grid_step(self):
        with pytest.raises(ValueError, match="radius 0.1 holds no point of the grid"):
            crypto.uniform_key_eigenvalue_demo(0.3, 0.5, radii=(0.1,), d_max=4)

    @pytest.mark.parametrize("x, a, kwargs", [
        (0.6, 1.3, {}),
        (0.3, 0.0, {}),
        # origin and axis points, so columns with Im beta = 0
        (0.3, 0.5, {"radii": (0.5,)}),
        # half-shifted grids: no point on either axis
        (0.3, 0.5, {"radii": (0.75, 1.25)}),
        # 2a on the lattice of either grid, so +-beta pairs cancel and only
        # the rim is factored (a = 0.5 on the default grid is the test above)
        (0.3, 0.25, {}),
        (0.3, 0.75, {}),
        (0.3, 0.25, {"radii": (0.75, 1.25)}),
        (0.3, 0.75, {"radii": (0.75, 1.25)}),
    ])
    def test_uniform_key_demo_matches_dense_reference_off_default(self, x, a, kwargs):
        got = crypto.uniform_key_eigenvalue_demo(x, a, **kwargs)
        expected = dense_uniform_key_demo(x, a, **kwargs)
        assert got == pytest.approx(expected, rel=0, abs=1e-13)

    def test_uniform_key_demo_vanishes_without_symbols(self, monkeypatch):
        # a = 0: both bits are the same state, and every key point cancels
        # against its negative, so the rim is empty and the difference is
        # exactly 0, with no factorization
        calls = spy_factorizations(monkeypatch)
        assert crypto.uniform_key_eigenvalue_demo(0.3, 0.0) == [0.0, 0.0, 0.0]
        assert calls == []

    @pytest.mark.parametrize("radius", [0.4, 0.9, 1.2, 1.7, 2.6])
    def test_key_grid_is_symmetric_at_any_radius(self, radius):
        # radii that are not multiples of step/2
        grid = crypto._key_grid(radius, 0.5)
        points = set(grid.tolist())
        assert len(points) == len(grid) > 1
        assert {p.conjugate() for p in points} == points
        assert {-p for p in points} == points
        assert np.all(np.abs(grid) <= radius)

    @pytest.mark.parametrize("radius", [0.5, 0.75, 1.0, 1.25, 1.5, 2.5, 3.0, 3.5])
    def test_key_grid_keeps_the_arange_points(self, radius):
        # where 2 radius / step is an integer the grid is the earlier
        # np.arange(-radius, radius + step/2, step) one, bit for bit
        pts = np.arange(-radius, radius + 0.25, 0.5)
        re, im = np.meshgrid(pts, pts, indexing="ij")
        earlier = (re + 1j * im)[re * re + im * im <= radius * radius]
        assert np.array_equal(crypto._key_grid(radius, 0.5), earlier)

    @pytest.mark.parametrize("radius, count", [
        (0.2, 1),   # the origin alone: a key that is always 0
        (0.3, 0),   # half-shifted grid, (+-0.25, +-0.25) outside the disk
        (0.4, 4),   # the four points (+-0.25, +-0.25)
        (0.5, 5),   # the origin and (+-0.5, 0), (0, +-0.5)
    ])
    def test_radius_below_grid_step(self, radius, count):
        assert len(crypto._key_grid(radius, 0.5)) == count
        if count <= 1:
            with pytest.raises(ValueError, match="holds no point of the grid of step "
                                                 "0.5 besides the origin"):
                crypto.uniform_key_eigenvalue_demo(0.3, 0.5, radii=(radius,), d_max=4)
        else:
            assert crypto.uniform_key_eigenvalue_demo(0.3, 0.5, radii=(radius,),
                                                      d_max=4)[0] > 0

    def test_uniform_key_demo_factors_real_arrays(self, monkeypatch):
        # two real QRs of the rim's columns and one real eigvalsh per radius,
        # where a complex QR of the 2K displaced states would cost about 16
        # times more
        calls = spy_factorizations(monkeypatch)
        radii = (1.5, 2.5, 3.5)
        for a, columns in (
            # 2a = 1 is a lattice vector: the +-beta pairs inside both shifted
            # disks cancel, and only the rim of 12/20/28 of the 29/81/149 stays
            (0.5, (12, 20, 28)),
            # no pair cancels: every point of the grid is factored
            (1.3, tuple(len(crypto._key_grid(r, 0.5)) for r in radii)),
        ):
            calls.clear()
            crypto.uniform_key_eigenvalue_demo(0.3, a, radii=radii)
            assert [name for name, _, _ in calls] == ["qr", "qr", "eigvalsh"] * len(radii)
            assert all(dtype == np.float64 for _, dtype, _ in calls)
            assert [shape[1] for name, _, shape in calls if name == "qr"] == [
                n for n in columns for _ in "eo"]

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

    @pytest.mark.parametrize("b", [4.0, 6.0, 10.0, 25.0])
    def test_deep_tail_against_mpmath(self, b):
        # erfc keeps the relative digits that 1 - erf loses beyond b ~ 6
        with mpmath.workdps(50):
            expected = float(mpmath.erfc(b) / 2)
        assert expected > 0
        assert crypto.eve_error_gaussian_key(b, 1.0) == pytest.approx(expected, rel=1e-14, abs=0)
        # 2 sigma_x^2 = 1 at x = 0
        assert crypto.bob_heterodyne_error(0.0, b) == pytest.approx(expected, rel=1e-14, abs=0)

    @staticmethod
    def mp_erf(a, kappa):
        with mpmath.workdps(40):
            return mpmath.erf(mpmath.mpf(a) / mpmath.sqrt(mpmath.mpf(kappa)))

    def test_splus_numeric_matches_erf(self):
        # b = a / sqrt(kappa) runs from 0 through the cap at 7 to inf; the
        # S+ sum never exceeds 1, so Eve's oracle is never negative
        for a in (0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 3.0, 10.0, 45.0, 1e200):
            for kappa in (0.05, 0.2, 1.0, 3.0, 10.0, 1e-300):
                s_plus = crypto.splus_numeric(a, kappa)
                assert abs(s_plus - self.mp_erf(a, kappa)) <= 1e-15, (a, kappa)
                assert s_plus <= 1.0

    @pytest.mark.parametrize("a, kappa", [
        (0.5, 1e308), (0.5, 1e-320), (1e200, 1.0), (1e200, 1e-320), (1e-200, 1e308),
    ])
    def test_splus_numeric_at_extremes(self, a, kappa):
        # in units of sqrt(kappa) no step overflows, and warnings are errors here
        assert abs(crypto.splus_numeric(a, kappa) - self.mp_erf(a, kappa)) <= 1e-15

    @pytest.mark.parametrize("call, message", [
        (lambda: crypto.splus_numeric(-1.0, 1.0), "a must be >= 0, got -1.0"),
        (lambda: crypto.splus_numeric(0.5, 0.0), "kappa_key must be > 0, got 0.0"),
        (lambda: crypto.splus_numeric(0.5, -1.0), "kappa_key must be > 0, got -1.0"),
    ])
    def test_eve_oracles_refuse_out_of_range(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


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


def bob_state(z0, x):
    """Bob's outcome state: the twin-beam displaced by the symbol z0."""
    beam = gaussian_core.make_twin_beam(gaussian_core.TwinBeamParams.from_x(x))
    return beam.displaced(z0)


def eve_state(z0, x, kappa):
    """Eve's outcome state: Bob's, with the key's noise of variance kappa on mode 1."""
    return bob_state(z0, x).with_noise(kappa, modes=1)


class TestAlphabetPdfs:
    """The complex-alphabet densities, read from the twin-beam family state."""

    def test_variances(self):
        _, bob_var = gaussian_core.heterodyne_mean_and_variance(bob_state(1 + 1j, 0.5))
        _, eve_var = gaussian_core.heterodyne_mean_and_variance(eve_state(1 + 1j, 0.5, 0.7))
        assert bob_var == pytest.approx(1 / 3, rel=1e-12)
        assert eve_var == pytest.approx(1 / 3 + 0.7, rel=1e-12)


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

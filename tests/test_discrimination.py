"""Tests for minimum-error unitary discrimination via eigenphase geometry."""

import cmath
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cventlab import discrimination as disc


def spectrum(*phases):
    return disc.EigenphaseSpectrum(tuple(phases))


def n_copy_spectrum(base, n_copies):
    """Explicit eigenphases of (U2^dag U1)^{(x) N}: all N-fold sums mod 2pi."""
    if n_copies < 1:
        raise ValueError(f"n_copies must be >= 1, got {n_copies}")
    sums = {0.0}
    for _ in range(n_copies):
        sums = {(s + p) % (2.0 * math.pi) for s in sums for p in base.phases}
    return disc.EigenphaseSpectrum(tuple(sums))


def probe_weights(polygon):
    """Wolfe's optimal probe over all eigenvectors of the polygon, 0 off the corral."""
    corral, weights, _ = disc._min_norm_point(polygon.phases)
    return np.bincount(corral, weights, minlength=len(polygon.phases))


class TestEigenphaseSpectrum:
    def test_reduction_and_dedup(self):
        s = spectrum(0.0, 2 * math.pi, 1.0, 1.0 + 2 * math.pi)
        assert s.phases == (0.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spectrum()

    @pytest.mark.parametrize("phases", [
        (math.nan,), (math.inf,), (-math.inf,), (1.0, math.nan), (0.0, 2.0, -math.inf),
    ])
    def test_non_finite_rejected(self, phases):
        # a nan covering arc would fail `delta < pi` and claim r = 0
        with pytest.raises(ValueError, match="finite"):
            spectrum(*phases)


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

    @pytest.mark.parametrize("arc", [1e-300, 5e-324])
    def test_arc_below_an_ulp_of_two_pi(self, arc):
        # 2pi minus the wraparound gap would round such an arc to 0
        assert disc.covering_arc((0.0, arc)) == arc


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


class TestHelstromError:
    @pytest.mark.parametrize("o", [1e-300, 1e-24, 1e-12, 1e-6, 0.3, 0.9, 1.0])
    def test_against_mpmath(self, o):
        # 1 - sqrt(1 - o) cancels as o -> 0, where the bound is o/4
        with mpmath.workdps(350):
            expected = (1 - mpmath.sqrt(1 - mpmath.mpf(o))) / 2
        assert disc.helstrom_error(o) == pytest.approx(float(expected), rel=4e-16, abs=0)

    def test_near_antipodal_pair(self):
        # r ~ 1.3e-6, so r^2 ~ 1.8e-12 and r^4 ~ 3.1e-24 are far below an ulp of 1
        p = disc.build_polygon(spectrum(0.0, 3.14159))
        assert disc.min_error_probability(p) == pytest.approx(p.r ** 2 / 4, rel=1e-12, abs=0)
        assert disc.spread_formula_error(p.delta) == pytest.approx(p.r ** 4 / 4, rel=1e-12, abs=0)


class TestSpreadFormula:
    def test_reference_value(self):
        # cos^4 form at delta = pi/2
        got = disc.spread_formula_error(math.pi / 2)
        assert got == pytest.approx(0.5 * (1 - math.sqrt(0.75)), rel=1e-12)
        assert got == pytest.approx(0.0670, abs=5e-5)

    def test_r_to_the_fourth_is_correctly_rounded(self):
        # r^4 by integer true division, not by libm's pow: the bound of the
        # correctly rounded r^4, which glibc's r ** 4 misses for 1 r in 1,200
        rng = np.random.default_rng(4)
        for delta in rng.uniform(0.0, math.pi, 20_000).tolist():
            r4 = float(Fraction(math.cos(delta / 2.0)) ** 4)
            assert disc.spread_formula_error(delta) == disc.helstrom_error(r4)

    def test_zero_beyond_pi(self):
        assert disc.spread_formula_error(math.pi) == 0.0
        assert disc.spread_formula_error(4.0) == 0.0

    def test_differs_from_hull_for_two_point_spectra(self):
        # the two routes deliberately disagree below pi
        p = disc.build_polygon(spectrum(0.0, math.pi / 2))
        assert disc.spread_formula_error(p.delta) != pytest.approx(
            disc.min_error_probability(p), abs=1e-3
        )


def check_weights(spec_obj):
    p = disc.build_polygon(spec_obj)
    w = probe_weights(p)
    assert np.all(w >= -1e-12)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
    z = np.sum(w * np.exp(1j * np.asarray(p.phases)))
    assert abs(z) == pytest.approx(p.r, abs=1e-9)
    if p.r > 0.0:
        assert np.count_nonzero(w) <= 2


class TestOptimalWeights:
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
            check_weights(spectrum(*phases))

    def test_random_spectra(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            k = rng.integers(1, 7)
            check_weights(spectrum(*rng.uniform(0, 2 * math.pi, k)))


def clustered_spectra(rng, count):
    """Near-duplicate phases, 1e-16 to 1e-3 apart, and N-copy spectra."""
    for i in range(count):
        if i % 5 == 0:
            base = spectrum(*rng.uniform(0, 2 * math.pi, rng.integers(1, 4)))
            yield n_copy_spectrum(base, int(rng.integers(1, 5)))
            continue
        phases = []
        for centre in rng.uniform(0, 2 * math.pi, rng.integers(1, 5)):
            spacing = 10.0 ** rng.uniform(-16, -3)
            phases += list(centre + spacing * np.cumsum(rng.uniform(0.5, 1.5, rng.integers(1, 5))))
        yield spectrum(*phases)


class TestBruteForce:
    def test_matches_hull(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            k = rng.integers(1, 12)
            s = spectrum(*rng.uniform(0, 2 * math.pi, k))
            p = disc.build_polygon(s)
            r_bf = disc.brute_force_min_overlap(s)
            assert r_bf == pytest.approx(p.r, abs=1e-12)

    def test_clustered_spectra(self):
        # near-duplicate phases make a textbook Wolfe cycle on roundoff
        for s in clustered_spectra(np.random.default_rng(29), 500):
            start = time.monotonic()
            r_bf = disc.brute_force_min_overlap(s)
            assert time.monotonic() - start < 1.0
            assert r_bf == pytest.approx(disc.build_polygon(s).r, abs=1e-8)
            check_weights(s)


def np_covering_arc(phases):
    """The covering arc by numpy's sort, diff and argmax: the reference of the list version."""
    if len(phases) == 1:
        return 0.0
    p = np.sort(np.asarray(phases))
    gaps = np.diff(np.concatenate([p, [p[0] + 2.0 * math.pi]]))
    largest = int(gaps.argmax())
    if largest == len(gaps) - 1:
        return float(p[-1] - p[0])
    return float(2.0 * math.pi - gaps[largest])


def np_min_norm(phases):
    """Wolfe's loop on numpy arrays (np.exp points, argmin): weights and |w @ points|."""
    phases = np.asarray(phases)
    points = np.exp(1j * phases)
    corral, weights = [0], [1.0]
    x = points[0]
    x_sq = x.real * x.real + x.imag * x.imag
    while len(corral) < 3:
        dots = points.real * x.real + points.imag * x.imag
        j = int(np.argmin(dots))
        if j in corral or dots[j] >= x_sq:
            break
        members, lam = corral + [j], [0.5, 0.5]
        if len(corral) == 2:
            a, b = corral
            arcs = (phases[j] - phases[b], phases[a] - phases[j], phases[b] - phases[a])
            sines = [math.sin(t) for t in arcs]
            total = math.fsum(sines)
            outside = [k for k in range(3) if sines[k] * total <= 0.0]
            if not outside:
                lam = [t / total for t in sines]
            elif 2 in outside:
                break
            else:
                drop = max(outside, key=lambda k: abs(sines[k]))
                members = [corral[1 - drop], j]
        y = sum(w * points[i] for w, i in zip(lam, members))
        y_sq = y.real * y.real + y.imag * y.imag
        if y_sq >= x_sq:
            break
        corral, weights, x, x_sq = members, lam, y, y_sq
    w = np.zeros(len(phases))
    w[corral] = weights
    return w, float(abs(w @ points))


def random_spectra(rng, count):
    """1 to 50 phases; every third spectrum in up to 3 clusters of spread 1e-12 to 1."""
    for i in range(count):
        k = int(rng.integers(1, 51))
        if i % 3:
            yield spectrum(*rng.uniform(0, 2 * math.pi, k))
            continue
        centres = rng.uniform(0, 2 * math.pi, rng.integers(1, 4))
        spread = 10.0 ** rng.uniform(-12, 0)
        yield spectrum(*(centres[:, None] + spread * rng.uniform(size=(len(centres), k))).ravel())


class TestPurePythonGeometry:
    """The list geometry gives numpy's bits: arcs and weights always, r wherever r > 1e-8."""

    @pytest.mark.parametrize("family", ["random", "clustered"])
    def test_matches_the_numpy_reference(self, family):
        rng = np.random.default_rng(43)
        spectra = (random_spectra(rng, 1500) if family == "random"
                   else clustered_spectra(rng, 500))
        for s in spectra:
            p = disc.build_polygon(s)
            assert p.delta == np_covering_arc(s.phases), s.phases
            ref_w, ref_r = np_min_norm(s.phases)
            assert probe_weights(p).tobytes() == ref_w.tobytes(), s.phases
            r = disc.brute_force_min_overlap(s)
            corral, weights, _ = disc._min_norm_point(s.phases)
            assert r == abs(sum(w * cmath.exp(1j * s.phases[i]) for w, i in zip(weights, corral)))
            if r > 1e-8 or ref_r > 1e-8:
                assert r == ref_r, s.phases


def mp_polygon_distance(phases):
    """Origin distance of conv{e^{i gamma_j}} at 50 digits, without the covering arc.

    The nearest point of a convex polygon not holding the origin lies on an
    edge, and every chord lies in the polygon, so it is the nearest point z
    over all chords [p_i, p_j] (i = j gives the vertex).  z is the polygon's
    nearest point iff <z, p_k> >= |z|^2 for every k; if that fails, the
    origin is inside and the distance is 0.
    """
    with mpmath.workdps(50):
        pts = [(mpmath.cos(g), mpmath.sin(g)) for g in map(mpmath.mpf, phases)]
        best = None
        for i, (ax, ay) in enumerate(pts):
            for bx, by in pts[i:]:
                dx, dy = bx - ax, by - ay
                denom = dx * dx + dy * dy
                t = 0 if denom == 0 else min(1, max(0, -(ax * dx + ay * dy) / denom))
                z = (ax + t * dx, ay + t * dy)
                z_sq = z[0] ** 2 + z[1] ** 2
                if best is None or z_sq < best[0]:
                    best = (z_sq, z)
        z_sq, (zx, zy) = best
        if all(zx * px + zy * py >= z_sq - mpmath.mpf(10) ** -40 for px, py in pts):
            return mpmath.sqrt(z_sq)
        return mpmath.mpf(0)


def near_pi_spectra(rng, count):
    """Covering arcs within 1e-9 of pi, on both sides, with inner phases."""
    for _ in range(count):
        start = rng.uniform(0, 2 * math.pi)
        arc = math.pi + rng.uniform(-1e-9, 1e-9)
        inner = rng.uniform(0, arc, rng.integers(0, 4))
        yield spectrum(start, start + arc, *(start + inner))


SPECTRUM_FAMILIES = {
    "random": lambda rng: (spectrum(*rng.uniform(0, 2 * math.pi, rng.integers(1, 9)))
                           for _ in range(300)),
    "near_pi": lambda rng: near_pi_spectra(rng, 300),
    "clustered": lambda rng: clustered_spectra(rng, 200),
}


class TestClosedFormAgainstMpmath:
    @pytest.mark.parametrize("family", SPECTRUM_FAMILIES)
    def test_r_within_2e_15(self, family):
        for s in SPECTRUM_FAMILIES[family](np.random.default_rng(37)):
            r = disc.build_polygon(s).r
            assert abs(r - float(mp_polygon_distance(s.phases))) <= 2e-15, s.phases


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
        def copies(*phases):
            return disc.copies_for_exact(disc.build_polygon(spectrum(*phases)))

        assert copies(0.0, math.pi) == 1
        assert copies(0.0, math.pi / 2) == 2
        assert copies(0.0, 1.0) == 4
        assert copies(0.7) is None

    def test_copies_for_tiny_arcs(self):
        # a finite pi/delta gives its exact count; an infinite one overflows
        polygon = disc.build_polygon(spectrum(0.0, 1e-300))
        assert disc.copies_for_exact(polygon) == math.ceil(math.pi / 1e-300)
        with pytest.raises(OverflowError):
            disc.copies_for_exact(disc.build_polygon(spectrum(0.0, 5e-324)))

    def test_n_copy_spectrum_explicit(self):
        s = spectrum(0.0, math.pi / 2)
        doubled = n_copy_spectrum(s, 2)
        assert doubled.phases == pytest.approx((0.0, math.pi / 2, math.pi))

    def test_exact_at_predicted_copies(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            delta = rng.uniform(0.5, math.pi - 0.05)
            s = spectrum(0.0, delta)
            n = disc.copies_for_exact(disc.build_polygon(s))
            assert disc.build_polygon(n_copy_spectrum(s, n)).r == 0.0
            if n > 1:
                assert disc.build_polygon(n_copy_spectrum(s, n - 1)).r > 0.0

    def test_bad_copies(self):
        with pytest.raises(ValueError):
            n_copy_spectrum(spectrum(0.0), 0)

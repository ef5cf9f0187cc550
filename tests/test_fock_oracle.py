"""Tests for the truncated Fock-space oracle engine."""

import math

import numpy as np
import pytest
from click.testing import CliRunner

from cventlab import cli
from cventlab import fock_oracle as fo
from cventlab import interferometry as itf


class TestTwinBeamFock:
    def test_x_zero_is_vacuum(self):
        s = fo.twin_beam_fock(0.0, 5)
        expected = np.zeros((6, 6))
        expected[0, 0] = 1.0
        assert np.allclose(s.amps, expected)
        assert s.tail == pytest.approx(0.0, abs=1e-15)

    def test_tail_geometric(self):
        s = fo.twin_beam_fock(0.5, 10)
        assert s.tail == pytest.approx(0.5 ** 22, rel=1e-9)

    def test_thermal_marginal(self):
        # tracing out one beam leaves a thermal distribution (1-x^2) x^{2n}
        x = 0.6
        s = fo.twin_beam_fock(x, 30)
        marginal = np.sum(np.abs(s.amps) ** 2, axis=1)
        n = np.arange(31)
        assert np.allclose(marginal, (1 - x * x) * x ** (2 * n), atol=1e-15)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            fo.twin_beam_fock(1.0, 5)
        with pytest.raises(ValueError):
            fo.twin_beam_fock(0.5, -1)


class TestDefaultDmax:
    def test_tail_below_tolerance(self):
        for x in (0.2, 0.5, 0.9):
            d = fo.default_d_max(x, 1e-10)
            assert x ** (2 * (d + 1)) <= 1e-10
            # and d is minimal
            assert d == 0 or x ** (2 * d) > 1e-10

    def test_cap(self):
        assert fo.default_d_max(0.9999, 1e-10, cap=200) == 200

    def test_x_zero(self):
        assert fo.default_d_max(0.0) == 0


class TestJxEvolution:
    def test_phi_zero_identity(self):
        s = fo.twin_beam_fock(0.7, 20)
        out = fo.apply_jx_evolution(s, 0.0)
        assert np.allclose(out.amps, s.amps, atol=1e-14)

    def test_single_photon_block(self):
        # on span{|1,0>, |0,1>} the generator is the Pauli-x matrix, so
        # exp(i phi J)|1,0> = cos(phi)|1,0> + i sin(phi)|0,1>
        amps = np.zeros((3, 3), dtype=complex)
        amps[1, 0] = 1.0
        s = fo.FockTwoModeState(amps, 2)
        phi = 0.37
        out = fo.apply_jx_evolution(s, phi)
        assert out.amps[1, 0] == pytest.approx(math.cos(phi), abs=1e-14)
        assert out.amps[0, 1] == pytest.approx(1j * math.sin(phi), abs=1e-14)

    def test_half_swap_at_pi_over_two(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[1, 0] = 1.0
        out = fo.apply_jx_evolution(fo.FockTwoModeState(amps, 1), math.pi / 2)
        assert abs(out.amps[0, 1] - 1j) < 1e-14
        assert abs(out.amps[1, 0]) < 1e-14

    def test_norm_conserved_random_state(self):
        rng = np.random.default_rng(3)
        d = 12
        amps = rng.normal(size=(d + 1, d + 1)) + 1j * rng.normal(size=(d + 1, d + 1))
        # keep only total photon number <= d so no weight can leak past d_max
        p, q = np.meshgrid(np.arange(d + 1), np.arange(d + 1), indexing="ij")
        amps[p + q > d] = 0.0
        amps /= np.linalg.norm(amps)
        s = fo.FockTwoModeState(amps, d)
        out = fo.apply_jx_evolution(s, 1.234)
        assert out.norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_block_structure_preserved(self):
        # total photon number is conserved: no amplitude moves between blocks
        amps = np.zeros((5, 5), dtype=complex)
        amps[2, 1] = 1.0  # total n = 3
        out = fo.apply_jx_evolution(fo.FockTwoModeState(amps, 4), 0.8)
        p, q = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
        assert np.all(np.abs(out.amps[p + q != 3]) < 1e-15)

    def test_unitarity_composition(self):
        # support confined to total n <= d_max, so the roundtrip is exact
        rng = np.random.default_rng(8)
        d = 14
        amps = rng.normal(size=(d + 1, d + 1)) + 1j * rng.normal(size=(d + 1, d + 1))
        p, q = np.meshgrid(np.arange(d + 1), np.arange(d + 1), indexing="ij")
        amps[p + q > d] = 0.0
        amps /= np.linalg.norm(amps)
        s = fo.FockTwoModeState(amps, d)
        back = fo.apply_jx_evolution(fo.apply_jx_evolution(s, 0.9), -0.9)
        assert np.allclose(back.amps, s.amps, atol=1e-12)


def dense_block_evolution(state, phi):
    """Reference: eigh of the whole (n+1) x (n+1) J of each total-n block."""
    d = state.d_max
    out = np.zeros_like(state.amps)
    for n in range(2 * d + 1):
        lo, hi = max(0, n - d), min(n, d)
        v = np.zeros(n + 1, dtype=complex)
        for k in range(lo, hi + 1):
            v[k] = state.amps[k, n - k]
        if not np.any(v):
            continue
        j = np.zeros((n + 1, n + 1))
        for k in range(n):
            j[k, k + 1] = j[k + 1, k] = math.sqrt((k + 1) * (n - k))
        w, u = np.linalg.eigh(j)
        v = u @ (np.exp(1j * phi * w) * (u.conj().T @ v))
        for k in range(lo, hi + 1):
            out[k, n - k] = v[k]
    return out


def assert_matches_dense(state, phi):
    got = fo.apply_jx_evolution(state, phi).amps
    ref = dense_block_evolution(state, phi)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


class TestSwapSectorKernel:
    """The swap-split evolution against the dense full-block reference."""

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 8, 13])
    def test_random_states_straddling_truncation(self, d):
        # every entry of the (d+1)^2 square is filled, so blocks with n > d
        # are cut by the truncation on both sides
        rng = np.random.default_rng(100 + d)
        amps = rng.normal(size=(d + 1, d + 1)) + 1j * rng.normal(size=(d + 1, d + 1))
        state = fo.FockTwoModeState(amps / np.linalg.norm(amps), d)
        for phi in (0.3, -1.1, 2.7):
            assert_matches_dense(state, phi)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("p, q", [(1, 0), (3, 0), (4, 1), (2, 0), (5, 1), (3, 1)])
    def test_pure_swap_sectors(self, p, q, sign):
        # (|p,q> +- |q,p>)/sqrt(2) lies in one sector of the block n = p + q,
        # for odd n (1, 3, 5) and even n (2, 4, 6)
        amps = np.zeros((6, 6), dtype=complex)
        amps[p, q] = 1 / math.sqrt(2)
        amps[q, p] = sign / math.sqrt(2)
        state = fo.FockTwoModeState(amps, 5)
        out = fo.apply_jx_evolution(state, 0.45)
        assert_matches_dense(state, 0.45)
        assert np.allclose(out.amps.T, sign * out.amps, atol=1e-15)  # sector kept

    @pytest.mark.parametrize("n", [4, 5, 10, 11])
    def test_single_block_odd_and_even_n(self, n):
        rng = np.random.default_rng(n)
        amps = np.zeros((n + 1, n + 1), dtype=complex)
        k = np.arange(n + 1)
        amps[k, n - k] = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        assert_matches_dense(fo.FockTwoModeState(amps, n), 0.8)

    def test_twin_beam(self):
        x = 0.9
        assert_matches_dense(fo.twin_beam_fock(x, fo.default_d_max(x)), 0.3)


class TestOverlap:
    def test_self_overlap(self):
        s = fo.twin_beam_fock(0.5, 25)
        assert fo.overlap(s, s).real == pytest.approx(s.norm_sq, rel=1e-12)

    def test_conjugate_symmetry(self):
        a = fo.twin_beam_fock(0.5, 20)
        b = fo.apply_jx_evolution(a, 0.4)
        assert fo.overlap(a, b) == pytest.approx(np.conj(fo.overlap(b, a)), abs=1e-14)

    def test_closed_form_survival(self):
        # |<<x| e^{i phi J} |x>>|^2 = 1 / (1 + N(N+2) sin^2 phi)
        x, phi = 0.6, 0.3
        N = 2 * x * x / (1 - x * x)
        s = fo.twin_beam_fock(x, fo.default_d_max(x, 1e-14, cap=300))
        evolved = fo.apply_jx_evolution(s, phi)
        got = abs(fo.overlap(s, evolved)) ** 2
        expected = 1.0 / (1.0 + N * (N + 2.0) * math.sin(phi) ** 2)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_dmax_mismatch(self):
        with pytest.raises(ValueError):
            fo.overlap(fo.twin_beam_fock(0.3, 5), fo.twin_beam_fock(0.3, 6))


class TestZeroDifferenceProbability:
    def test_unevolved_twin_beam(self):
        s = fo.twin_beam_fock(0.5, 40)
        assert fo.zero_difference_probability(s) == pytest.approx(
            s.norm_sq, rel=1e-12
        )

    def test_vacuum(self):
        assert fo.zero_difference_probability(fo.twin_beam_fock(0.0, 3)) == 1.0

    def test_small_phase_leading_coefficient(self):
        # P(d=0) = 1 - N(N+2) phi^2 + O(phi^4)
        x = 0.5
        N = 2 * x * x / (1 - x * x)
        s = fo.twin_beam_fock(x, fo.default_d_max(x, 1e-14, cap=300))
        # phi small enough for the quadratic term to dominate, but large
        # enough that 1 - p0 is not destroyed by floating cancellation
        for phi, rel in ((1e-2, 1e-3), (1e-3, 1e-4)):
            p0 = fo.zero_difference_probability(fo.apply_jx_evolution(s, phi))
            coeff = (1.0 - p0) / phi ** 2
            assert coeff == pytest.approx(N * (N + 2.0), rel=rel)


@pytest.fixture
def memo(monkeypatch):
    """A fresh, empty eigensystem memo for the test."""
    fresh = {}
    monkeypatch.setattr(fo, "_EIGENSYSTEMS", fresh)
    return fresh


@pytest.fixture
def eigh_sizes(monkeypatch):
    """The size of every matrix passed to np.linalg.eigh during the test."""
    sizes = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return sizes


class TestEigensystemMemo:
    def test_memoized_evolution_is_bit_identical(self, memo, eigh_sizes):
        # a random state fills both sectors of every block
        rng = np.random.default_rng(21)
        d = 13
        amps = rng.normal(size=(d + 1, d + 1)) + 1j * rng.normal(size=(d + 1, d + 1))
        state = fo.FockTwoModeState(amps / np.linalg.norm(amps), d)
        fresh = fo.apply_jx_evolution(state, 0.7).amps
        assert len(eigh_sizes) == len(memo) > 2 * d + 1  # odd sectors too
        eigh_sizes.clear()
        memoized = fo.apply_jx_evolution(state, 0.7).amps
        assert eigh_sizes == []
        assert np.array_equal(memoized, fresh)

    def test_interfere_row_diagonalizes_each_sector_once(self, memo, eigh_sizes):
        # the row evolves the twin-beam twice: for P(d=0) and for the overlap
        out = CliRunner().invoke(cli.main, ["interfere", "--x", "0.9", "--phi", "0.3"],
                                 catch_exceptions=False)
        assert out.exit_code == 0
        # a twin-beam fills only the even sector of each block n = 2p, of size p + 1
        assert sorted(eigh_sizes) == list(range(1, fo.default_d_max(0.9) + 2))

    def test_repeat_solve_calls_eigh_zero_times(self, memo, eigh_sizes):
        first = itf.mz_min_phase_numeric(0.01, 0.6)
        assert sorted(eigh_sizes) == list(range(1, fo.default_d_max(0.6) + 2))
        eigh_sizes.clear()
        assert itf.mz_min_phase_numeric(0.01, 0.6) == first
        assert eigh_sizes == []

    def test_blocks_beyond_twice_the_cap_are_not_kept(self, memo, eigh_sizes):
        cap = fo.D_MAX_CAP
        assert fo.default_d_max(0.9999) == cap
        # |cap, cap> and |cap+5, cap+5>: the even sectors of blocks 2 cap and 2 cap + 10
        amps = np.zeros((cap + 11, cap + 11), dtype=complex)
        amps[cap, cap] = amps[cap + 5, cap + 5] = 1 / math.sqrt(2)
        state = fo.FockTwoModeState(amps, cap + 10)
        fo.apply_jx_evolution(state, 0.4)
        fo.apply_jx_evolution(state, 0.4)
        assert list(memo) == [(2 * cap, True)]
        assert eigh_sizes == [cap + 1, cap + 6, cap + 6]

    @pytest.mark.parametrize("n", [7, 2 * fo.D_MAX_CAP + 1])
    def test_eigensystem_is_read_only(self, memo, n):
        w, u = fo._sector_eigensystem(n, False)
        with pytest.raises(ValueError):
            w[0] = 0.0
        with pytest.raises(ValueError):
            u[0, 0] = 0.0

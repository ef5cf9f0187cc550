"""Tests for the truncated Fock-space oracle engine."""

import functools
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

    @pytest.mark.parametrize("x", [1.0, 1.5, -0.1, math.nan])
    def test_outside_the_unit_interval(self, x):
        # the twin-beam's own domain error, not a division by log(1) = 0 or a log of x < 0
        for call in (lambda: fo.default_d_max(x), lambda: itf.mz_zero_count_probability(x, 0.3),
                     lambda: itf.mz_min_phase_numeric(0.01, x)):
            with pytest.raises(ValueError, match=r"Schmidt parameter must be in \[0, 1\)"):
                call()


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

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 8, 13, 40])
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

    def test_odd_sectors_only(self):
        # an antisymmetric A has no swap-even component in any block
        rng = np.random.default_rng(9)
        a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        state = fo.FockTwoModeState((a - a.T) / np.linalg.norm(a - a.T), 9)
        out = fo.apply_jx_evolution(state, 0.6)
        assert_matches_dense(state, 0.6)
        assert np.allclose(out.amps.T, -out.amps, atol=1e-15)

    def test_one_block_beyond_the_truncation(self):
        # block n = 13 of d = 8 keeps only k = 5..8 of its 14 entries
        rng = np.random.default_rng(13)
        amps = np.zeros((9, 9), dtype=complex)
        k = np.arange(5, 9)
        amps[k, 13 - k] = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = fo.FockTwoModeState(amps, 8)
        for phi in (0.4, 2.2):
            assert_matches_dense(state, phi)

    def test_d_zero(self):
        # the vacuum block n = 0 has J = 0
        state = fo.FockTwoModeState(np.array([[0.6 - 0.8j]]), 0)
        assert_matches_dense(state, 0.9)
        assert np.array_equal(fo.apply_jx_evolution(state, 0.9).amps, state.amps)


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
def stacks(monkeypatch):
    """The groups kept during the test, (even, n0) -> (u, w), in a fresh cache."""
    kept = {}

    def recording(even, n0):
        kept[even, n0] = fo._eig_stack(even, n0)
        return kept[even, n0]

    monkeypatch.setattr(fo, "_kept_stack", functools.cache(recording))
    return kept


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


def random_state(d, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(d + 1, d + 1)) + 1j * rng.normal(size=(d + 1, d + 1))
    return fo.FockTwoModeState(amps / np.linalg.norm(amps), d)


def twin_beam_stack_sizes(x):
    """Every sector size an x twin-beam at its default d_max diagonalizes, once each.

    A twin-beam fills the even sector, of size p + 1, of each block n = 2p,
    p <= d_max, and its groups are diagonalized whole, GROUP blocks each.
    """
    groups = fo.default_d_max(x) // fo.GROUP + 1
    return list(range(1, groups * fo.GROUP + 1))


def kept_sizes(stacks):
    """The sector sizes of the kept groups, as they were passed to eigh."""
    return sorted(fo._sector_size(n0 + 2 * j, even)
                  for even, n0 in stacks for j in range(fo.GROUP))


class TestEigensystemMemo:
    def test_memoized_evolution_is_bit_identical(self, stacks, eigh_sizes):
        # a random state fills both sectors of every block n <= 2d = 26: the
        # groups from 0 and 16 of even n and from 1 and 17 of odd n, whole
        d = 13
        state = random_state(d, 21)
        fresh = fo.apply_jx_evolution(state, 0.7).amps
        assert sorted(stacks) == [(False, 0), (False, 1), (False, 16), (False, 17),
                                  (True, 0), (True, 1), (True, 16), (True, 17)]
        assert len(eigh_sizes) == sum(len(w) for _, w in stacks.values()) == 8 * fo.GROUP
        eigh_sizes.clear()
        memoized = fo.apply_jx_evolution(state, 0.7).amps
        assert eigh_sizes == []
        assert np.array_equal(memoized, fresh)

    def test_extended_stacks_are_bit_identical(self, stacks, eigh_sizes):
        # groups kept at d = 20 and shared at d = 30 evolve as fresh ones do
        fo.apply_jx_evolution(random_state(20, 1), 0.4)
        assert len(eigh_sizes) == 2 * 2 * 3 * fo.GROUP  # blocks n <= 40: 3 groups of each
        state = random_state(30, 2)
        extended = fo.apply_jx_evolution(state, 0.4).amps
        assert len(eigh_sizes) == 2 * 2 * 4 * fo.GROUP  # only the groups from 48 and 49 added
        assert sorted(eigh_sizes) == kept_sizes(stacks)  # no sector twice
        fo._kept_stack.cache_clear()
        assert np.array_equal(fo.apply_jx_evolution(state, 0.4).amps, extended)

    def test_interfere_row_diagonalizes_each_sector_once(self, stacks, eigh_sizes):
        # the row evolves the twin-beam twice: for P(d=0) and for the overlap
        out = CliRunner().invoke(cli.main, ["interfere", "--x", "0.9", "--phi", "0.3"],
                                 catch_exceptions=False)
        assert out.exit_code == 0
        # d_max = 109: 14 whole groups of the even blocks 0 ... 222
        assert sorted(eigh_sizes) == twin_beam_stack_sizes(0.9) == list(range(1, 113))

    def test_range_sweep_diagonalizes_each_sector_once(self, stacks, eigh_sizes):
        # five truncations, d = 16 ... 109, share the groups of the smaller ones
        out = CliRunner().invoke(cli.main, ["interfere", "--x", "0.5", "--phi", "0.3",
                                            "--range", "x=0.5:0.9:5"],
                                 catch_exceptions=False)
        assert out.exit_code == 0
        assert len(out.output.splitlines()) == 6
        assert sorted(eigh_sizes) == twin_beam_stack_sizes(0.9)

    def test_repeat_solve_calls_eigh_zero_times(self, stacks, eigh_sizes):
        first = itf.mz_min_phase_numeric(0.01, 0.6)
        assert sorted(eigh_sizes) == twin_beam_stack_sizes(0.6)
        eigh_sizes.clear()
        assert itf.mz_min_phase_numeric(0.01, 0.6) == first
        assert eigh_sizes == []

    def test_kept_groups_live_in_one_process_cache(self, eigh_sizes):
        # the module's own cache, which the other tests swap for a fresh one
        fo._kept_stack.cache_clear()
        state = fo.twin_beam_fock(0.6, fo.default_d_max(0.6))
        first = fo.apply_jx_evolution(state, 0.2).amps
        assert np.array_equal(fo.apply_jx_evolution(state, 0.2).amps, first)
        assert sorted(eigh_sizes) == twin_beam_stack_sizes(0.6)
        assert fo._kept_stack.cache_info().currsize == 3  # the groups from 0, 16 and 32

    def test_group_from_twice_the_cap_is_kept_whole(self, stacks, eigh_sizes):
        cap = fo.D_MAX_CAP
        assert fo.default_d_max(0.9999) == cap
        # |cap, cap> and |cap+5, cap+5>: the even sectors of blocks 2 cap and 2 cap + 10,
        # the first and sixth members of the last kept group, which is kept whole
        amps = np.zeros((cap + 11, cap + 11), dtype=complex)
        amps[cap, cap] = amps[cap + 5, cap + 5] = 1 / math.sqrt(2)
        state = fo.FockTwoModeState(amps, cap + 10)
        first = fo.apply_jx_evolution(state, 0.4).amps
        assert np.array_equal(fo.apply_jx_evolution(state, 0.4).amps, first)
        assert [(k, w.shape) for k, (_, w) in stacks.items()] == [
            ((True, 2 * cap), (fo.GROUP, cap + fo.GROUP))]
        assert eigh_sizes == list(range(cap + 1, cap + fo.GROUP + 1))
        # a truncation at the cap shares the kept group
        fo.apply_jx_evolution(fo.FockTwoModeState(amps[:cap + 1, :cap + 1], cap), 0.4)
        assert eigh_sizes == list(range(cap + 1, cap + fo.GROUP + 1))

    def test_blocks_past_the_cap_are_diagonalized_where_occupied(
        self, stacks, eigh_sizes, monkeypatch
    ):
        # at a cap of 8 the groups from 0 and 16 are kept whole, and the
        # groups from 17 and 32 are not kept
        monkeypatch.setattr(fo, "D_MAX_CAP", 8)
        d = 24
        rng = np.random.default_rng(5)
        amps = np.zeros((d + 1, d + 1), dtype=complex)
        for n in (14, 16, 19, 22, 36):
            k = np.arange(max(0, n - d), min(n, d) + 1)
            amps[k, n - k] = rng.normal(size=k.size) + 1j * rng.normal(size=k.size)
        state = fo.FockTwoModeState(amps / np.linalg.norm(amps), d)
        first = fo.apply_jx_evolution(state, 0.3).amps
        assert {k: w.shape for k, (_, w) in stacks.items()} == {
            (True, 0): (8, 8), (False, 0): (8, 7), (True, 16): (8, 16), (False, 16): (8, 15)}
        # the even and odd sectors of blocks 19 and 36, and no other
        assert sorted(eigh_sizes) == sorted(kept_sizes(stacks) + [10, 10, 18, 19])
        eigh_sizes.clear()
        again = fo.apply_jx_evolution(state, 0.3).amps
        assert sorted(eigh_sizes) == [10, 10, 18, 19]
        assert fo._kept_stack.cache_info().currsize == 4
        assert np.array_equal(again, first)
        ref = dense_block_evolution(state, 0.3)
        assert np.linalg.norm(first - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [7, 2 * fo.D_MAX_CAP + 1, 2 * fo.D_MAX_CAP + 6])
    def test_eigensystem_is_read_only(self, stacks, n):
        # a kept group, one past the cap, and the last kept one: the odd
        # sector of block n alone, at the smallest truncation that holds it
        d = n // 2 + 1
        amps = np.zeros((d + 1, d + 1), dtype=complex)
        amps[d, n - d], amps[n - d, d] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        fo.apply_jx_evolution(fo.FockTwoModeState(amps, d), 0.3)
        n0 = fo._first_block(n)
        kept = n0 <= 2 * fo.D_MAX_CAP
        assert list(stacks) == ([(False, n0)] if kept else [])
        live = np.arange(fo.GROUP) == (n - n0) // 2
        for a in (*stacks.get((False, n0), ()), *fo._eig_stack(False, n0, live)):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0.0

    def test_stacks_stay_near_the_per_sector_eigensystems(self, stacks):
        # zero padding adds 9.5 % to the 3.85 MB of the twin-beam's whole groups at x = 0.9
        fo.apply_jx_evolution(fo.twin_beam_fock(0.9, fo.default_d_max(0.9)), 0.3)
        sectors = sum(8 * (s * s + s) for s in twin_beam_stack_sizes(0.9))
        held = sum(u.nbytes + w.nbytes for u, w in stacks.values())
        assert sectors < held < 1.10 * sectors


class TestGroupBoundaries:
    """The stacked groups against the dense reference where groups begin, end and break."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", [16, 18, 17, 31])
    def test_one_occupied_sector_in_an_empty_group(self, n, sign):
        # (|k, n-k> +- |n-k, k>)/sqrt(2) fills one sector of block n: the first
        # or a middle member of an even-n group, the first or the last of an odd-n one
        d = 20
        k = n // 2 - 3
        amps = np.zeros((d + 1, d + 1), dtype=complex)
        amps[k, n - k], amps[n - k, k] = 1 / math.sqrt(2), sign / math.sqrt(2)
        state = fo.FockTwoModeState(amps, d)
        out = fo.apply_jx_evolution(state, 0.45)
        assert_matches_dense(state, 0.45)
        assert np.allclose(out.amps.T, sign * out.amps, atol=1e-15)  # sector kept

    def test_groups_with_holes(self):
        # blocks 0, 6 and 14 of the group from 0, 19 of the group from 17 and
        # 36 of the group from 32, with random entries in both parities
        d = 24
        rng = np.random.default_rng(4)
        amps = np.zeros((d + 1, d + 1), dtype=complex)
        for n in (0, 6, 14, 19, 36):
            k = np.arange(max(0, n - d), min(n, d) + 1)
            amps[k, n - k] = rng.normal(size=k.size) + 1j * rng.normal(size=k.size)
        state = fo.FockTwoModeState(amps / np.linalg.norm(amps), d)
        for phi in (0.3, -1.7):
            assert_matches_dense(state, phi)

    @pytest.mark.parametrize("d", [8, 9, 14, 15, 16])
    def test_last_group_partial(self, d):
        # blocks n <= 2d: the last even-n group holds 1, 2, 7, 8 and 1 members;
        # the truncation cuts block 2d to one even row and no odd one
        state = random_state(d, 300 + d)
        for phi in (0.8, 2.4):
            assert_matches_dense(state, phi)


def layout_arrays(layout):
    """Every array of a layout, its group indices included."""
    return [*layout[:-1], *(at for parity in layout.index for _, at in parity.values())]


class TestSectorLayout:
    def test_zero_state_calls_eigh_zero_times(self, stacks, eigh_sizes):
        state = fo.FockTwoModeState(np.zeros((12, 12)), 11)
        out = fo.apply_jx_evolution(state, 0.5)
        assert np.array_equal(out.amps, np.zeros((12, 12)))
        assert eigh_sizes == []

    def test_layout_is_cached_and_read_only(self):
        layout = fo._layout(6)
        assert fo._layout(6) is layout
        for a in layout_arrays(layout):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0

    def test_group_index_is_cached_and_read_only(self):
        # both parities' group indices, in the one cached layout of the truncation
        index = fo._layout(6).index
        assert fo._layout(6).index is index
        assert [sorted(parity) for parity in index] == [[0, 1], [0, 1]]
        for parity in index:
            for _, at in parity.values():
                with pytest.raises(ValueError):
                    at[0, 0] = 0

    def test_stream_truncations_take_under_2_mb(self):
        layouts = [fo._layout(d) for d in (16, 22, 51, 109)]
        assert sum(a.nbytes for layout in layouts for a in layout_arrays(layout)) < 2e6


class TestSectorGenerator:
    @pytest.mark.parametrize("even", [True, False])
    @pytest.mark.parametrize("n", range(9))
    def test_shape_is_the_sector_size(self, n, even):
        # the odd sector of block 0 is empty
        size = (n + 1) // 2 + (even and n % 2 == 0)
        assert fo._sector_generator(n, even).shape == (size, size)

    def test_empty_sector_has_no_eigenvalue(self):
        # the odd sector of block 0
        u, w = fo._eig_stack(False, 0, np.array([True]))
        assert w.shape == (1, 0)
        assert u.shape == (1, 0, 0)

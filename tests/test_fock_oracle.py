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


def subspace_state(d, seed, n_max=None):
    """A random state of the evolution's subspace on the blocks n <= n_max (default 2d).

    Symmetrized, with every odd-n entry set to zero, and normalized.
    """
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(d + 1, d + 1)) + 1j * rng.normal(size=(d + 1, d + 1))
    amps = amps + amps.T
    n = np.add.outer(np.arange(d + 1), np.arange(d + 1))
    amps[(n % 2 == 1) | (n > (2 * d if n_max is None else n_max))] = 0.0
    return fo.FockTwoModeState(amps / np.linalg.norm(amps), d)


def swap_pair(d, k, m, sign=1):
    """|k, m> + sign |m, k>, truncated at d: |k, m> alone for sign 0."""
    amps = np.zeros((d + 1, d + 1), dtype=complex)
    amps[k, m] += 1.0
    amps[m, k] += sign
    return fo.FockTwoModeState(amps, d)


class TestJxEvolution:
    def test_phi_zero_identity(self):
        s = fo.twin_beam_fock(0.7, 20)
        out = fo.apply_jx_evolution(s, 0.0)
        assert np.allclose(out.amps, s.amps, atol=1e-14)

    def test_single_photon_block(self):
        # |1,0> has odd total photon number and is not swap-symmetric: refused
        with pytest.raises(ValueError, match="swap-symmetric states of even total"):
            fo.apply_jx_evolution(swap_pair(2, 1, 0, sign=0), 0.37)

    def test_half_swap_at_pi_over_two(self):
        # exp(i pi/2 J) maps |k, m> to i^(k+m) |m, k>: on the symmetric block
        # n = 2p, with every entry inside the truncation, that is (-1)^p
        d = 10
        state = subspace_state(d, 17, n_max=d)
        out = fo.apply_jx_evolution(state, math.pi / 2)
        n = np.add.outer(np.arange(d + 1), np.arange(d + 1))
        assert np.allclose(out.amps, (-1.0) ** (n // 2) * state.amps, atol=1e-14)

    def test_norm_conserved_random_state(self):
        # only total photon number <= d, so no weight can leak past d_max
        s = subspace_state(12, 3, n_max=12)
        out = fo.apply_jx_evolution(s, 1.234)
        assert out.norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_block_structure_preserved(self):
        # total photon number is conserved: no amplitude moves between blocks
        state = swap_pair(4, 3, 1)  # total n = 4
        out = fo.apply_jx_evolution(state, 0.8)
        p, q = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
        assert np.all(np.abs(out.amps[p + q != 4]) < 1e-15)
        assert not np.allclose(out.amps, state.amps)  # within the block it does move

    def test_unitarity_composition(self):
        # support confined to total n <= d_max, so the roundtrip is exact
        s = subspace_state(14, 8, n_max=14)
        back = fo.apply_jx_evolution(fo.apply_jx_evolution(s, 0.9), -0.9)
        assert np.allclose(back.amps, s.amps, atol=1e-12)


class TestSubspace:
    """The evolution's domain: swap-symmetric states of even total photon number."""

    def test_round_trip_at_d_40(self):
        # an evolved state lies in the subspace again, so it can be evolved back
        s = subspace_state(40, 40, n_max=40)
        back = fo.apply_jx_evolution(fo.apply_jx_evolution(s, 0.7), -0.7)
        assert np.linalg.norm(back.amps - s.amps) <= 1e-13

    def test_last_bit_of_asymmetry_is_refused(self):
        amps = fo.twin_beam_fock(0.5, 6).amps.copy()
        amps[0, 2], amps[2, 0] = np.nextafter(0.25, 1.0), 0.25
        with pytest.raises(ValueError, match="swap-symmetric states of even total"):
            fo.apply_jx_evolution(fo.FockTwoModeState(amps, 6), 0.3)

    def test_subnormal_odd_n_pair_is_refused(self):
        amps = fo.twin_beam_fock(0.5, 6).amps.copy()
        amps[1, 2] = amps[2, 1] = 5e-324
        with pytest.raises(ValueError, match="swap-symmetric states of even total"):
            fo.apply_jx_evolution(fo.FockTwoModeState(amps, 6), 0.3)


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


def assert_evolved_or_refused(state, phi):
    """A subspace state matches the dense reference and stays symmetric; any other is refused."""
    n = np.add.outer(np.arange(state.d_max + 1), np.arange(state.d_max + 1))
    if np.array_equal(state.amps, state.amps.T) and not state.amps[n % 2 == 1].any():
        assert_matches_dense(state, phi)
        out = fo.apply_jx_evolution(state, phi).amps
        assert np.array_equal(out, out.T)
    else:
        with pytest.raises(ValueError, match="swap-symmetric states of even total"):
            fo.apply_jx_evolution(state, phi)


class TestSwapSectorKernel:
    """The symmetric-sector evolution against the dense full-block reference."""

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 8, 13, 40])
    def test_random_states_straddling_truncation(self, d):
        # every even-n entry of the (d+1)^2 square is filled, so blocks with
        # n > d are cut by the truncation on both sides
        state = subspace_state(d, 100 + d)
        for phi in (0.3, -1.1, 2.7):
            assert_matches_dense(state, phi)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("p, q", [(1, 0), (3, 0), (4, 1), (2, 0), (5, 1), (3, 1)])
    def test_pure_swap_sectors(self, p, q, sign):
        # |p,q> +- |q,p> lies in one sector of the block n = p + q: the
        # symmetric sector of an even n (2, 4, 6) is evolved and kept, and an
        # odd n (1, 3, 5) or the antisymmetric sector is refused
        assert_evolved_or_refused(swap_pair(5, p, q, sign), 0.45)

    @pytest.mark.parametrize("n", [4, 5, 10, 11])
    def test_single_block_odd_and_even_n(self, n):
        # a random symmetric state on block n: evolved for even n, refused for odd n
        rng = np.random.default_rng(n)
        amps = np.zeros((n + 1, n + 1), dtype=complex)
        k = np.arange(n + 1)
        v = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        amps[k, n - k] = v + v[::-1]
        assert_evolved_or_refused(fo.FockTwoModeState(amps, n), 0.8)

    def test_twin_beam(self):
        x = 0.9
        assert_matches_dense(fo.twin_beam_fock(x, fo.default_d_max(x)), 0.3)

    def test_odd_sectors_only(self):
        # an antisymmetric A has no swap-symmetric component in any block
        rng = np.random.default_rng(9)
        a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        state = fo.FockTwoModeState((a - a.T) / np.linalg.norm(a - a.T), 9)
        with pytest.raises(ValueError, match="swap-symmetric states of even total"):
            fo.apply_jx_evolution(state, 0.6)

    def test_one_block_beyond_the_truncation(self):
        # block n = 14 of d = 8 keeps only k = 6..8 of its 15 entries
        rng = np.random.default_rng(13)
        amps = np.zeros((9, 9), dtype=complex)
        k = np.arange(6, 9)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        amps[k, 14 - k] = v + v[::-1]
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
    """The groups kept during the test, p0 -> (u, w), in a fresh cache."""
    kept = {}

    def recording(p0):
        kept[p0] = fo._eig_stack(p0)
        return kept[p0]

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


def twin_beam_stack_sizes(x):
    """Every sector size an x twin-beam at its default d_max diagonalizes, once each.

    A twin-beam fills the sector, of size p + 1, of each block n = 2p,
    p <= d_max, and its groups are diagonalized whole, GROUP blocks each.
    """
    groups = fo.default_d_max(x) // fo.GROUP + 1
    return list(range(1, groups * fo.GROUP + 1))


def kept_sizes(stacks):
    """The sector sizes of the kept groups, as they were passed to eigh."""
    return sorted(p0 + j + 1 for p0 in stacks for j in range(fo.GROUP))


def block_state(d, blocks, seed):
    """A random subspace state on the given blocks n = 2p only, normalized."""
    rng = np.random.default_rng(seed)
    amps = np.zeros((d + 1, d + 1), dtype=complex)
    for n in blocks:
        k = np.arange(max(0, n - d), min(n, d) + 1)
        v = rng.normal(size=k.size) + 1j * rng.normal(size=k.size)
        amps[k, n - k] = v + v[::-1]
    return fo.FockTwoModeState(amps / np.linalg.norm(amps), d)


class TestEigensystemMemo:
    def test_memoized_evolution_is_bit_identical(self, stacks, eigh_sizes):
        # a random subspace state fills the sector of every block n = 2p,
        # p <= d = 13: the groups from 0 and 8, whole
        state = subspace_state(13, 21)
        fresh = fo.apply_jx_evolution(state, 0.7).amps
        assert sorted(stacks) == [0, 8]
        assert len(eigh_sizes) == sum(len(w) for _, w in stacks.values()) == 2 * fo.GROUP
        eigh_sizes.clear()
        memoized = fo.apply_jx_evolution(state, 0.7).amps
        assert eigh_sizes == []
        assert np.array_equal(memoized, fresh)

    def test_extended_stacks_are_bit_identical(self, stacks, eigh_sizes):
        # groups kept at d = 20 and shared at d = 30 evolve as fresh ones do
        fo.apply_jx_evolution(subspace_state(20, 1), 0.4)
        assert len(eigh_sizes) == 3 * fo.GROUP  # p <= 20: the groups from 0, 8 and 16
        state = subspace_state(30, 2)
        extended = fo.apply_jx_evolution(state, 0.4).amps
        assert len(eigh_sizes) == 4 * fo.GROUP  # only the group from 24 added
        assert sorted(eigh_sizes) == kept_sizes(stacks)  # no sector twice
        fo._kept_stack.cache_clear()
        assert np.array_equal(fo.apply_jx_evolution(state, 0.4).amps, extended)

    def test_interfere_row_diagonalizes_each_sector_once(self, stacks, eigh_sizes):
        # the row evolves the twin-beam twice: for P(d=0) and for the overlap
        out = CliRunner().invoke(cli.main, ["interfere", "--x", "0.9", "--phi", "0.3"],
                                 catch_exceptions=False)
        assert out.exit_code == 0
        # d_max = 109: 14 whole groups of the blocks p = 0 ... 111
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
        assert fo._kept_stack.cache_info().currsize == 3  # the groups from 0, 8 and 16

    def test_group_from_twice_the_cap_is_kept_whole(self, stacks, eigh_sizes):
        cap = fo.D_MAX_CAP
        assert fo.default_d_max(0.9999) == cap
        # |cap, cap> and |cap+5, cap+5>: the blocks 2 cap and 2 cap + 10, the
        # first and sixth members of the last kept group, which is kept whole
        amps = np.zeros((cap + 11, cap + 11), dtype=complex)
        amps[cap, cap] = amps[cap + 5, cap + 5] = 1 / math.sqrt(2)
        state = fo.FockTwoModeState(amps, cap + 10)
        first = fo.apply_jx_evolution(state, 0.4).amps
        assert np.array_equal(fo.apply_jx_evolution(state, 0.4).amps, first)
        assert [(k, w.shape) for k, (_, w) in stacks.items()] == [
            (cap, (fo.GROUP, cap + fo.GROUP))]
        assert eigh_sizes == list(range(cap + 1, cap + fo.GROUP + 1))
        # a truncation at the cap shares the kept group
        fo.apply_jx_evolution(fo.FockTwoModeState(amps[:cap + 1, :cap + 1], cap), 0.4)
        assert eigh_sizes == list(range(cap + 1, cap + fo.GROUP + 1))

    def test_blocks_past_the_cap_are_diagonalized_where_occupied(
        self, stacks, eigh_sizes, monkeypatch
    ):
        # at a cap of 8 the groups from 0 and 8 are kept whole, and the groups
        # from 16 and 24 are not kept; block 48 of d = 24 keeps only |24, 24>
        monkeypatch.setattr(fo, "D_MAX_CAP", 8)
        state = block_state(24, (14, 16, 22, 36, 48), 5)
        first = fo.apply_jx_evolution(state, 0.3).amps
        assert {k: w.shape for k, (_, w) in stacks.items()} == {0: (8, 8), 8: (8, 16)}
        # the sectors of blocks 36 and 48 (p = 18 and 24), and no other
        assert sorted(eigh_sizes) == sorted(kept_sizes(stacks) + [19, 25])
        eigh_sizes.clear()
        again = fo.apply_jx_evolution(state, 0.3).amps
        assert sorted(eigh_sizes) == [19, 25]
        assert fo._kept_stack.cache_info().currsize == 2
        assert np.array_equal(again, first)
        ref = dense_block_evolution(state, 0.3)
        assert np.linalg.norm(first - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("p", [7, fo.D_MAX_CAP + 6, 2 * fo.D_MAX_CAP + 1,
                                   2 * fo.D_MAX_CAP + 6])
    def test_eigensystem_is_read_only(self, stacks, p):
        # a kept group, the last kept one, and two members of a group past
        # the cap: the sector of block 2p alone, at the smallest truncation
        # that holds its pair |p-1, p+1> + |p+1, p-1>
        fo.apply_jx_evolution(swap_pair(p + 1, p - 1, p + 1), 0.3)
        p0 = p - p % fo.GROUP
        kept = p0 <= fo.D_MAX_CAP
        assert list(stacks) == ([p0] if kept else [])
        live = np.arange(fo.GROUP) == p - p0
        for a in (*stacks.get(p0, ()), *fo._eig_stack(p0, live)):
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
    @pytest.mark.parametrize("n", [16, 18, 17, 31, 30])
    def test_one_occupied_sector_in_an_empty_group(self, n, sign):
        # |k, n-k> +- |n-k, k> in block n, the only one of its group occupied:
        # blocks 16, 18 and 30 are the first, a middle and the last member
        # (p = 8, 9, 15) of the group from 8; an odd n or the minus sign is refused
        k = n // 2 - 3
        assert_evolved_or_refused(swap_pair(20, k, n - k, sign), 0.45)

    def test_groups_with_holes(self):
        # blocks 0, 6 and 14 of the group from 0, 20 of the group from 8 and
        # 36 of the group from 16
        state = block_state(24, (0, 6, 14, 20, 36), 4)
        for phi in (0.3, -1.7):
            assert_matches_dense(state, phi)

    @pytest.mark.parametrize("d", [8, 9, 14, 15, 16])
    def test_last_group_partial(self, d):
        # blocks p <= d: the last group holds 1, 2, 7, 8 and 1 members; the
        # truncation cuts block 2d to its diagonal row |d, d>
        state = subspace_state(d, 300 + d)
        for phi in (0.8, 2.4):
            assert_matches_dense(state, phi)


def layout_arrays(layout):
    """Every array of a layout, all its groups' records."""
    return [a for group in layout for a in group[2:]]


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
        # d = 20: the groups from 0, 8 and 16, the last one cut to the rows
        # k >= 12; together they gather every even-n entry of the upper
        # triangle once, and their mirrors in the lower one
        d = 20
        layout = fo._layout(d)
        assert fo._layout(d) is layout
        assert [(g.p0, g.lo, g.upper.shape) for g in layout] == [
            (0, 0, (8, 8)), (8, 0, (8, 16)), (16, 12, (5, 9))]
        k, m = np.triu_indices(d + 1)
        even = (k + m) % 2 == 0
        for name, flat in (("upper", k * (d + 1) + m), ("lower", m * (d + 1) + k)):
            held = np.concatenate([getattr(g, name).ravel() for g in layout])
            held = held[held < (d + 1) ** 2]
            assert sorted(held.tolist()) == sorted(flat[even].tolist())
        for a in layout_arrays(layout):
            with pytest.raises(ValueError):
                a[0, 0] = 0

    def test_stream_truncations_take_under_2_mb(self):
        layouts = [fo._layout(d) for d in (16, 22, 51, 109)]
        assert sum(a.nbytes for layout in layouts for a in layout_arrays(layout)) < 2e6

    def test_layout_bytes_at_109_and_at_the_cap(self):
        # one record per group: 122 kB at d = 109 and 371 kB at d = 200
        size = {d: sum(a.nbytes for a in layout_arrays(fo._layout(d))) for d in (109, 200)}
        assert size[109] < 125e3 and size[200] < 375e3


class TestSectorGenerator:
    @pytest.mark.parametrize("even", [True, False])
    @pytest.mark.parametrize("n", range(9))
    def test_shape_is_the_sector_size(self, n, even):
        # the symmetric sector of an even block n = 2p is the subspace's, and
        # J on it is (p+1) x (p+1); a state in any other sector is refused
        # (the antisymmetric sector of block 0 is empty: its state is zero)
        if even and n % 2 == 0:
            assert fo._sector_generator(n // 2).shape == (n // 2 + 1, n // 2 + 1)
        assert_evolved_or_refused(swap_pair(n, 0, n, 1 if even else -1), 0.5)

    def test_empty_sector_has_no_eigenvalue(self):
        # a member a past-cap stack does not mark live stays zero
        u, w = fo._eig_stack(0, np.array([False, True]))
        assert not u[0].any() and not w[0].any()
        assert w.shape == (2, 2) and np.allclose(w[1], [-2.0, 2.0])

"""Tests for the truncated Fock-space oracle engine."""

import functools
import math

import numpy as np
import pytest
from cli_runner import run_cli
from hypothesis import example, given, settings, strategies as st

from cventlab import fock_oracle as fo
from cventlab import interferometry as itf


def norm_sq(state):
    return float(np.sum(np.abs(state.diag) ** 2))


class TestTwinBeamFock:
    def test_x_zero_is_vacuum(self):
        s = fo.twin_beam_fock(0.0, 5)
        assert np.array_equal(s.diag, [1, 0, 0, 0, 0, 0])
        assert norm_sq(s) == 1.0

    def test_tail_geometric(self):
        # the truncation keeps all but the closed-form tail x^{2(d+1)}
        s = fo.twin_beam_fock(0.5, 10)
        assert 1.0 - norm_sq(s) == pytest.approx(0.5 ** 22, rel=1e-9)

    def test_thermal_marginal(self):
        # tracing out one beam leaves a thermal distribution (1-x^2) x^{2n}
        x = 0.6
        s = fo.twin_beam_fock(x, 30)
        marginal = np.sum(np.abs(s.amps) ** 2, axis=1)
        n = np.arange(31)
        assert np.allclose(marginal, (1 - x * x) * x ** (2 * n), atol=1e-15)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(x=st.floats(0.0, 1.0, exclude_max=True), d=st.integers(0, 400))
    @example(x=0.0, d=400)
    @example(x=1e-300, d=400)  # x^2 underflows: |0, 0> alone
    @example(x=0.1, d=400)  # x^p underflows at p = 324
    @example(x=np.nextafter(1.0, 0.0), d=400)
    def test_occupies_a_prefix(self, x, d):
        # what the sector table rests on: the nonzero diagonal entries of a
        # twin-beam are |p, p> for p = 0 ... k, for some k, with no holes
        state = fo.twin_beam_fock(x, d)
        occupied = np.flatnonzero(state.diag).tolist()
        assert occupied == list(range(len(occupied))) and occupied
        assert np.count_nonzero(state.amps) == len(occupied)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            fo.twin_beam_fock(1.0, 5)
        with pytest.raises(ValueError):
            fo.twin_beam_fock(0.5, -1)

    def test_d_max_past_the_limit_is_refused(self, table, eigh_sizes):
        # refused before any amplitude or sector is computed: the limit's own
        # sectors take about a minute, and the cost grows about as d_max^4
        for d in (fo.D_MAX_LIMIT + 1, 100_000):
            with pytest.raises(ValueError, match=rf"d_max must be in \[0, 1000\], got {d}$"):
                fo.twin_beam_fock(0.9, d)
        assert fo.twin_beam_fock(1e-300, fo.D_MAX_LIMIT).d_max == fo.D_MAX_LIMIT
        assert eigh_sizes == [] and table.starts.size == 0


class TestState:
    """A state is the read-only vector of its amplitudes a_p, checked once, when it is made."""

    @pytest.mark.parametrize("amps", [0.5, [], [[1.0]], np.eye(3), np.zeros((2, 2, 2))])
    def test_refuses_all_but_a_nonempty_vector(self, amps):
        with pytest.raises(ValueError, match=REFUSED):
            fo.FockTwoModeState(amps)

    def test_diag_is_a_read_only_copy(self):
        given = np.array([0.6, 0.8j, 0.0])
        state = fo.FockTwoModeState(given)
        with pytest.raises(ValueError):
            state.diag[0] = 0
        given[0] = 1.0  # the caller's array stays its own, and writable
        assert state.diag.tolist() == [0.6, 0.8j, 0.0] and state.diag.dtype == complex

    def test_d_max_and_amps_are_derived(self):
        state = fo.twin_beam_fock(0.5, 7)
        assert state.d_max == state.diag.size - 1 == 7
        assert np.array_equal(state.amps, np.diag(state.diag))
        assert fo.FockTwoModeState([1.0]).d_max == 0


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


# a matrix of amplitudes, even a diagonal one, is not a state: only the vector a_p is
REFUSED = r"amplitudes a_p must be nonempty and 1-D"


def diagonal_state(d, seed, ps=None):
    """A random diagonal state sum_p a_p |p, p> on the given p (default all p <= d), normalized."""
    rng = np.random.default_rng(seed)
    ps = np.arange(d + 1) if ps is None else np.asarray(ps)
    a = np.zeros(d + 1, dtype=complex)
    a[ps] = rng.normal(size=ps.size) + 1j * rng.normal(size=ps.size)
    return fo.FockTwoModeState(a / np.linalg.norm(a))


def subspace_amps(d, seed):
    """The matrix of a random state of the twin-beam's invariant subspace (swap-symmetric, even n)."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(d + 1, d + 1)) + 1j * rng.normal(size=(d + 1, d + 1))
    amps = amps + amps.T
    amps[np.add.outer(np.arange(d + 1), np.arange(d + 1)) % 2 == 1] = 0.0
    return amps / np.linalg.norm(amps)


def swap_pair(d, k, m, sign=1):
    """The matrix of |k, m> + sign |m, k>, truncated at d: |k, m> alone for sign 0."""
    amps = np.zeros((d + 1, d + 1), dtype=complex)
    amps[k, m] += 1.0
    amps[m, k] += sign
    return amps


def dense_block_evolution(state, phi):
    """Reference: eigh of the whole (n+1) x (n+1) J of each total-n block, the full state."""
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
    """The evolved diagonal is the diagonal of the dense reference."""
    got = fo.apply_jx_evolution(state, phi)
    ref = dense_block_evolution(state, phi).diagonal()
    assert got.shape == (state.d_max + 1,)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(state.diag)


def assert_evolved_or_refused(amps, phi):
    """A diagonal matrix's diagonal evolves as the dense reference; no matrix is a state."""
    if np.array_equal(amps, np.diag(np.diag(amps))):
        assert_matches_dense(fo.FockTwoModeState(np.diag(amps)), phi)
    with pytest.raises(ValueError, match=REFUSED):
        fo.FockTwoModeState(amps)


def survival(d, phi):
    """D_p, p = 0 ... d: the evolved diagonal of sum_p |p, p>."""
    return fo.apply_jx_evolution(fo.FockTwoModeState(np.ones(d + 1)), phi)


class TestJxEvolution:
    def test_phi_zero_identity(self):
        s = fo.twin_beam_fock(0.7, 20)
        out = fo.apply_jx_evolution(s, 0.0)
        assert np.allclose(out, s.diag, atol=1e-14)

    def test_single_photon_block(self):
        # |1,0> is off the diagonal: no state holds it
        with pytest.raises(ValueError, match=REFUSED):
            fo.FockTwoModeState(swap_pair(2, 1, 0, sign=0))

    def test_half_swap_at_pi_over_two(self):
        # exp(i pi/2 J) maps |k, m> to i^(k+m) |m, k>, so |p, p> to (-1)^p |p, p>
        d = 10
        a = diagonal_state(d, 17, range(d // 2 + 1)).diag
        out = fo.apply_jx_evolution(fo.FockTwoModeState(a), math.pi / 2)
        assert np.allclose(out, (-1.0) ** np.arange(d + 1) * a, atol=1e-14)

    def test_norm_conserved_random_state(self):
        # |exp(i phi w)| = 1, so the evolved state's norm is sum_p |a_p|^2 sum_i v_i,
        # from the kept (w, v) of the occupied sectors alone
        for d in (12, 13, 40):
            a = diagonal_state(d, 3, range(d // 2 + 1)).diag
            evolved = sum(abs(a[p]) ** 2 * fo._sector(p)[1].sum() for p in range(d + 1))
            assert evolved == pytest.approx(1.0, abs=1e-12)

    def test_block_structure_preserved(self):
        # total photon number is conserved: |2,2> alone keeps a diagonal on p = 2 only
        state = diagonal_state(4, 7, [2])  # |2,2>, total n = 4
        out = fo.apply_jx_evolution(state, 0.8)
        assert np.flatnonzero(out).tolist() == [2]
        assert abs(out[2]) < 0.9 * abs(state.diag[2])  # within the block it does move

    def test_unitarity_composition(self):
        # <U(-a) s | U(b) t> = <s | U(a + b) t>: U(a)^dag = U(-a) and U(a) U(b)
        # = U(a + b).  The left side is the dense reference's full states, the
        # right the kernel's diagonal; support on p <= d/2, so no weight is cut
        d, a, b = 14, 0.9, -0.35
        s, t = diagonal_state(d, 8, range(8)), diagonal_state(d, 9, range(8))
        lhs = np.sum(np.conj(dense_block_evolution(s, -a)) * dense_block_evolution(t, b))
        rhs = fo.overlap(s.diag, fo.apply_jx_evolution(t, a + b))
        assert lhs == pytest.approx(rhs, abs=1e-13)
        assert abs(rhs) > 0.01

    def test_survival_amplitude_identities(self):
        # sum_i v_i = 1, |D_p| <= 1, D_p(-phi) = conj D_p(phi), D_p(pi/2) = (-1)^p,
        # for every sector up to past the cap
        d = fo.D_MAX_CAP + 3
        for p in (0, 1, 2, 7, 50, fo.D_MAX_CAP, d):
            assert fo._sector(p)[1].sum() == pytest.approx(1.0, abs=1e-13)
        for phi in (1e-6, 0.3, 1.1, 2.9):
            plus, minus = survival(d, phi), survival(d, -phi)
            assert np.abs(plus).max() <= 1.0 + 1e-13
            assert np.abs(minus - np.conj(plus)).max() <= 1e-13
        p = np.arange(d + 1)
        assert np.abs(survival(d, math.pi / 2) - (-1.0) ** p).max() <= 1e-13


class TestSubspace:
    """The evolution's domain, finite diagonal states sum_p a_p |p, p>, is the type's.

    A state is made from its vector a_p alone, so no state off the diagonal
    exists to evolve: the matrix of one is refused when the state is made.
    """

    def test_last_bit_of_asymmetry_is_refused(self):
        amps = fo.twin_beam_fock(0.5, 6).amps
        amps[0, 2], amps[2, 0] = np.nextafter(0.25, 1.0), 0.25
        with pytest.raises(ValueError, match=REFUSED):
            fo.FockTwoModeState(amps)

    def test_subnormal_odd_n_pair_is_refused(self):
        amps = fo.twin_beam_fock(0.5, 6).amps
        amps[1, 2] = amps[2, 1] = 5e-324
        with pytest.raises(ValueError, match=REFUSED):
            fo.FockTwoModeState(amps)

    def test_pair_of_the_twin_beams_block_is_refused(self):
        # |2,0> + |0,2> lies in the subspace exp(i phi J) keeps, but off the diagonal
        with pytest.raises(ValueError, match=REFUSED):
            fo.FockTwoModeState(swap_pair(2, 2, 0))

    @pytest.mark.parametrize("d", [2, 13, 40])
    def test_random_subspace_state_is_refused(self, d):
        with pytest.raises(ValueError, match=REFUSED):
            fo.FockTwoModeState(subspace_amps(d, d))

    def test_evolved_state_is_refused(self):
        # the whole evolved twin-beam, which the dense reference gives, is off the diagonal
        evolved = dense_block_evolution(fo.twin_beam_fock(0.5, 8), 0.3)
        with pytest.raises(ValueError, match=REFUSED):
            fo.FockTwoModeState(evolved)

    @pytest.mark.parametrize("value", [math.nan, complex(0.5, math.nan), math.inf])
    def test_non_finite_amplitude_is_refused(self, value):
        # when the state is made, so no evolution ever meets one
        a = np.array(fo.twin_beam_fock(0.5, 6).diag)
        a[1] = value
        with pytest.raises(ValueError, match="finite amplitudes only"):
            fo.FockTwoModeState(a)


class TestSwapSectorKernel:
    """The symmetric-sector evolution against the dense full-block reference."""

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 8, 13, 40])
    def test_random_states_straddling_truncation(self, d):
        # every |p, p>, p <= d, is filled, so the blocks n = 2p > d are cut
        # by the truncation on both sides
        state = diagonal_state(d, 100 + d)
        for phi in (0.3, -1.1, 2.7):
            assert_matches_dense(state, phi)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("p, q", [(1, 0), (3, 0), (4, 1), (2, 0), (5, 1), (3, 1)])
    def test_pure_swap_sectors(self, p, q, sign):
        # |p,q> +- |q,p>, p != q, lies in one sector of the block n = p + q,
        # symmetric or not, even n or odd, and always off the diagonal: no state
        assert_evolved_or_refused(swap_pair(5, p, q, sign), 0.45)

    @pytest.mark.parametrize("n", [4, 5, 10, 11])
    def test_single_block_odd_and_even_n(self, n):
        # block n alone: its diagonal entry |n/2, n/2> is evolved for even n;
        # an odd n has none, and a symmetric state on it is no state
        rng = np.random.default_rng(n)
        amps = np.zeros((n + 1, n + 1), dtype=complex)
        k = np.arange(n + 1) if n % 2 else np.array([n // 2])
        v = rng.normal(size=k.size) + 1j * rng.normal(size=k.size)
        amps[k, n - k] = v + v[::-1]
        assert_evolved_or_refused(amps, 0.8)

    def test_twin_beam(self):
        x = 0.9
        assert_matches_dense(fo.twin_beam_fock(x, fo.default_d_max(x)), 0.3)

    def test_odd_sectors_only(self):
        # an antisymmetric A has a zero diagonal and nothing but off-diagonal entries
        rng = np.random.default_rng(9)
        a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        with pytest.raises(ValueError, match=REFUSED):
            fo.FockTwoModeState((a - a.T) / np.linalg.norm(a - a.T))

    def test_one_block_beyond_the_truncation(self):
        # |7, 7> alone: block n = 14 of d = 8 keeps only k = 6..8 of its 15
        # entries, but its survival amplitude runs over the whole sector
        state = diagonal_state(8, 13, [7])
        for phi in (0.4, 2.2):
            assert_matches_dense(state, phi)
            assert np.flatnonzero(fo.apply_jx_evolution(state, phi)).tolist() == [7]

    def test_x_zero_at_an_explicit_d_max(self, table, eigh_sizes):
        # the vacuum at d = 20: sector 0 alone is occupied and diagonalized
        state = fo.twin_beam_fock(0.0, 20)
        out = fo.apply_jx_evolution(state, 0.9)
        assert np.array_equal(out, state.diag)
        assert eigh_sizes == [1]

    def test_d_zero(self):
        # the vacuum block n = 0 has J = 0
        state = fo.FockTwoModeState([0.6 - 0.8j])
        assert_matches_dense(state, 0.9)
        assert np.array_equal(fo.apply_jx_evolution(state, 0.9), [0.6 - 0.8j])


class TestOverlap:
    def test_self_overlap(self):
        s = fo.twin_beam_fock(0.5, 25)
        a = s.diag
        assert fo.overlap(a, a).real == pytest.approx(norm_sq(s), rel=1e-12)

    def test_conjugate_symmetry(self):
        s = fo.twin_beam_fock(0.5, 20)
        a, b = s.diag, fo.apply_jx_evolution(s, 0.4)
        assert fo.overlap(a, b) == pytest.approx(np.conj(fo.overlap(b, a)), abs=1e-14)

    def test_closed_form_survival(self):
        # |<<x| e^{i phi J} |x>>|^2 = 1 / (1 + N(N+2) sin^2 phi)
        x, phi = 0.6, 0.3
        N = 2 * x * x / (1 - x * x)
        s = fo.twin_beam_fock(x, fo.default_d_max(x, 1e-14, cap=300))
        evolved = fo.apply_jx_evolution(s, phi)
        got = abs(fo.overlap(s.diag, evolved)) ** 2
        expected = 1.0 / (1.0 + N * (N + 2.0) * math.sin(phi) ** 2)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_dmax_mismatch(self):
        with pytest.raises(ValueError, match="d_max mismatch: 5 != 6"):
            fo.overlap(fo.twin_beam_fock(0.3, 5).diag, fo.twin_beam_fock(0.3, 6).diag)


class TestZeroDifferenceProbability:
    def test_unevolved_twin_beam(self):
        s = fo.twin_beam_fock(0.5, 40)
        assert fo.zero_difference_probability(s.diag) == pytest.approx(
            norm_sq(s), rel=1e-12
        )

    def test_vacuum(self):
        assert fo.zero_difference_probability(fo.twin_beam_fock(0.0, 3).diag) == 1.0

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
def table(monkeypatch):
    """A fresh sector table for the test, in place of the process's own."""
    fresh = fo._SectorTable()
    monkeypatch.setattr(fo, "_TABLE", fresh)
    return fresh


def table_arrays(table):
    return table.starts, table.w, table.v


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


def twin_beam_sector_sizes(x):
    """Every sector size, p + 1, that an x twin-beam at its default d_max fills: once each."""
    return list(range(1, fo.default_d_max(x) + 2))


class TestEigensystemMemo:
    def test_memoized_evolution_is_bit_identical(self, table, eigh_sizes):
        # a random diagonal state occupies every sector p <= d = 13
        state = diagonal_state(13, 21)
        fresh = fo.apply_jx_evolution(state, 0.7)
        assert table.starts.size == 14
        assert eigh_sizes == list(range(1, 15))
        eigh_sizes.clear()
        memoized = fo.apply_jx_evolution(state, 0.7)
        assert eigh_sizes == []
        assert np.array_equal(memoized, fresh)

    def test_shared_sectors_are_bit_identical(self, table, eigh_sizes, monkeypatch):
        # sectors kept at d = 20 and shared at d = 30 evolve as fresh ones do
        fo.apply_jx_evolution(diagonal_state(20, 1), 0.4)
        assert len(eigh_sizes) == 21
        state = diagonal_state(30, 2)
        shared = fo.apply_jx_evolution(state, 0.4)
        assert eigh_sizes == list(range(1, 32))  # only the sectors 21 ... 30 added
        monkeypatch.setattr(fo, "_TABLE", fo._SectorTable())
        assert np.array_equal(fo.apply_jx_evolution(state, 0.4), shared)

    def test_interfere_row_diagonalizes_each_sector_once(self, table, eigh_sizes):
        # the row evolves the twin-beam twice: for P(d=0) and for the overlap
        out = run_cli(["interfere", "--x", "0.9", "--phi", "0.3"])
        assert out.exit_code == 0
        # d_max = 109: the sectors p = 0 ... 109
        assert sorted(eigh_sizes) == twin_beam_sector_sizes(0.9) == list(range(1, 111))

    def test_range_sweep_diagonalizes_each_sector_once(self, table, eigh_sizes):
        # five truncations, d = 16 ... 109, share the sectors of the smaller ones
        out = run_cli(["interfere", "--x", "0.5", "--phi", "0.3", "--range", "x=0.5:0.9:5"])
        assert out.exit_code == 0
        assert len(out.output.splitlines()) == 6
        assert sorted(eigh_sizes) == twin_beam_sector_sizes(0.9)

    def test_repeat_solve_calls_eigh_zero_times(self, table, eigh_sizes):
        first = itf.mz_min_phase_numeric(0.01, 0.6)
        assert sorted(eigh_sizes) == twin_beam_sector_sizes(0.6)
        eigh_sizes.clear()
        assert itf.mz_min_phase_numeric(0.01, 0.6) == first
        assert eigh_sizes == []

    def test_kept_sectors_live_in_one_process_cache(self, eigh_sizes):
        # the module's own table, which the other tests swap for a fresh one:
        # one object, which diagonalizes only the sectors past its end
        table = fo._TABLE
        before = table.starts.size
        state = fo.twin_beam_fock(0.6, fo.default_d_max(0.6))
        first = fo.apply_jx_evolution(state, 0.2)
        assert np.array_equal(fo.apply_jx_evolution(state, 0.2), first)
        assert fo._TABLE is table
        assert eigh_sizes == [p + 1 for p in range(before, state.d_max + 1)]
        assert table.starts.size == max(before, state.d_max + 1)

    def test_blocks_past_the_cap_are_diagonalized_where_occupied(self, table, eigh_sizes):
        # the sectors p = 3, 7, 200, 201 and 206 are occupied, two of them past
        # the cap of default_d_max: the table holds 0 ... 206, each diagonalized once
        cap = fo.D_MAX_CAP
        ps = (3, 7, cap, cap + 1, cap + 6)
        state = diagonal_state(cap + 6, 5, ps)
        first = fo.apply_jx_evolution(state, 0.3)
        assert table.starts.size == cap + 7
        assert eigh_sizes == list(range(1, cap + 8))
        eigh_sizes.clear()
        again = fo.apply_jx_evolution(state, 0.3)
        assert eigh_sizes == []
        assert np.array_equal(again, first)
        # each entry is a_p D_p, with D_p from a fresh eigensystem
        a = state.diag
        for p in ps:
            w, v = fo._sector(p)
            assert again[p] == pytest.approx(a[p] * np.sum(v * np.exp(0.3j * w)), abs=1e-13)

    @pytest.mark.parametrize("p", [7, fo.D_MAX_CAP + 6])
    def test_eigensystem_is_read_only(self, table, eigh_sizes, p):
        # |p, p> alone, at d = p, below and past the cap: the sectors 0 ... p
        # are held, each diagonalized once over two evolutions
        state = diagonal_state(p, p, [p])
        fo.apply_jx_evolution(state, 0.3)
        w = table.w
        fo.apply_jx_evolution(state, -0.3)
        assert table.w is w  # not reallocated
        assert eigh_sizes == list(range(1, table.starts.size + 1)) == list(range(1, p + 2))
        for a in (*table_arrays(table), *table.prefix(p)):
            with pytest.raises(ValueError):
                a[0] = 0


class TestGroupBoundaries:
    """Sparse and lone occupied sectors against the dense reference."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", [16, 18, 17, 31, 30])
    def test_one_occupied_sector_in_an_empty_group(self, n, sign):
        # +-|p, p>, n = 2p, the only sector occupied among its neighbours
        # (p = 8, 9, 15); an odd n has no diagonal entry, and its pair
        # |k, n-k> +- |n-k, k> is no state
        if n % 2 == 0:
            amps = sign * swap_pair(20, n // 2, n // 2, 0)
        else:
            amps = swap_pair(20, n // 2 - 3, n // 2 + 4, sign)
        assert_evolved_or_refused(amps, 0.45)

    def test_groups_with_holes(self):
        # the sectors 0, 3, 7, 10 and 18, with empty ones between them, the
        # last one past the truncation's diagonal half
        state = diagonal_state(24, 4, (0, 3, 7, 10, 18))
        for phi in (0.3, -1.7):
            assert_matches_dense(state, phi)

    @pytest.mark.parametrize("d", [8, 9, 14, 15, 16])
    def test_last_group_partial(self, d):
        # every sector p <= d; the truncation cuts block 2d to its diagonal row |d, d>
        state = diagonal_state(d, 300 + d)
        for phi in (0.8, 2.4):
            assert_matches_dense(state, phi)


def kept_bytes(table):
    return table.w.nbytes + table.v.nbytes


class TestSectorLayout:
    """The prefix table: sector p's (w, v) at offset p (p + 1) / 2, 16 bytes an entry, read-only."""

    def test_zero_state_calls_eigh_zero_times(self, table, eigh_sizes):
        state = fo.FockTwoModeState(np.zeros(12))
        out = fo.apply_jx_evolution(state, 0.5)
        assert np.array_equal(out, np.zeros(12))
        assert eigh_sizes == []
        assert table.starts.size == table.w.size == 0

    def test_layout_is_cached_and_read_only(self, table):
        # |6, 6> alone: the sectors 0 ... 6 back to back, sector 6 at offset 21
        state = diagonal_state(6, 6, [6])
        fo.apply_jx_evolution(state, 0.3)
        w, v = table.w, table.v
        fo.apply_jx_evolution(state, 0.3)
        assert table.w is w and table.v is v  # not reallocated
        assert w.size == v.size == 28 and table.starts.tolist() == [0, 1, 3, 6, 10, 15, 21]
        for p, start in enumerate(table.starts.tolist()):
            assert np.array_equal(w[start: start + p + 1], fo._sector(p)[0])
            assert np.array_equal(v[start: start + p + 1], fo._sector(p)[1])
        for a in table_arrays(table):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_sparse_state_takes_at_most_half_its_bytes(self, table):
        # the sectors 0, 3, 7, 10 and 18 at d = 24: the prefix up to 18,
        # 8 (top + 1)(top + 2) bytes, against the 16 (d + 1)^2 of its dense matrix
        state = diagonal_state(24, 4, (0, 3, 7, 10, 18))
        fo.apply_jx_evolution(state, 0.3)
        assert kept_bytes(table) == 8 * 19 * 20 <= state.amps.nbytes / 2
        # the lone |206, 206>: 8 (d + 1)(d + 2) bytes, about half the matrix's
        state = diagonal_state(206, 206, [206])
        fo.apply_jx_evolution(state, 0.3)
        assert kept_bytes(table) == 8 * 207 * 208 <= state.amps.nbytes / 2 + 8 * 207

    def test_stream_truncations_take_under_2_mb(self, table):
        # the benchmark's interfere truncations share the sectors of the largest, d = 109
        for d in (16, 22, 51, 109):
            fo.apply_jx_evolution(fo.twin_beam_fock(0.5, d), 0.3)
        assert kept_bytes(table) == 16 * 110 * 111 // 2 < 2e6

    def test_layout_bytes_at_109_and_at_the_cap(self, table):
        # 98 kB at d = 109 and 0.33 MB at d = 200, every sector there is to keep
        size = {}
        for d in (109, fo.D_MAX_CAP):
            fo.apply_jx_evolution(fo.twin_beam_fock(0.9999, d), 0.3)
            size[d] = kept_bytes(table)
        assert size == {109: 97_680, fo.D_MAX_CAP: 324_816}
        assert size[fo.D_MAX_CAP] < 1e6


class TestSectorGenerator:
    @pytest.mark.parametrize("even", [True, False])
    @pytest.mark.parametrize("n", range(9))
    def test_shape_is_the_sector_size(self, n, even):
        # J on the symmetric sector of an even block n = 2p is (p+1) x (p+1);
        # |0, n> +- |n, 0> is off the diagonal, no state, for every n > 0
        # (at n = 0 it is 2 |0, 0>, or zero for the minus sign: both diagonal)
        if even and n % 2 == 0:
            assert fo._sector_generator(n // 2).shape == (n // 2 + 1, n // 2 + 1)
        assert_evolved_or_refused(swap_pair(n, 0, n, 1 if even else -1), 0.5)

    def test_spectrum_is_every_other_even_integer(self):
        # 2 J_x of spin p on the swap-symmetric sector: -2p, -2p + 4, ..., 2p.
        # The kept w rounds eigh's eigenvalues to these; it moves them by roundoff only
        for p in (0, 1, 2, 5, 40, fo.D_MAX_CAP):
            expected = np.arange(-2 * p, 2 * p + 1, 4)
            w = np.linalg.eigvalsh(fo._sector_generator(p))
            assert np.abs(w - expected).max() <= 1e-12 * max(p, 1)
            assert np.array_equal(fo._sector(p)[0], expected)


_reference_sector = functools.cache(fo._sector)


def per_sector_evolution(state, phi):
    """Reference: the survival sums over each occupied sector's own (w, v), concatenated.

    The same phase table, products and per-sector reduceat as the kernel,
    without the prefix table.
    """
    diag = state.diag
    out = np.zeros_like(diag)
    occupied = np.flatnonzero(diag)
    if occupied.size == 0:
        return out
    w, v = (np.concatenate(parts)
            for parts in zip(*(_reference_sector(p) for p in occupied.tolist())))
    top = 2 * int(occupied[-1])
    phases = np.exp(1j * phi * np.arange(-top, top + 1.0))
    sizes = occupied + 1
    out[occupied] = diag[occupied] * np.add.reduceat(v * phases[w + top],
                                                     np.cumsum(sizes) - sizes)
    return out


def bit_identity_states():
    """Twin-beams at their default d_max, the holes state and the lone |206, 206>."""
    states = [fo.twin_beam_fock(x, fo.default_d_max(x)) for x in (0.0, 0.1, 0.5, 0.9, 0.94)]
    states.append(diagonal_state(24, 4, (0, 3, 7, 10, 18)))
    states.append(diagonal_state(fo.D_MAX_CAP + 6, 206, [fo.D_MAX_CAP + 6]))
    return states


PHASES = [0.0, 1e-9, 0.3, -1.3, 1e3, -7.7e5]


@pytest.fixture(scope="class")
def evolved_in_both_orders():
    """(states, {phi: evolved diagonals}) for each growth order, one fresh table per order.

    Each state is evolved at every phase right after the table grows to it, by
    one sector at a time going up, and at once to the top going down.
    """
    states = bit_identity_states()
    evolved = {phi: [] for phi in PHASES}
    with pytest.MonkeyPatch.context() as patch:
        for order in (range(len(states)), range(len(states))[::-1]):
            patch.setattr(fo, "_TABLE", fo._SectorTable())
            for i in order:
                for phi in PHASES:
                    evolved[phi].append((states[i], fo.apply_jx_evolution(states[i], phi)))
    return evolved


class TestPrefixTable:
    """The prefix table gives the bytes of a per-sector evaluation, in any growth order."""

    @pytest.mark.parametrize("phi", PHASES)
    def test_bit_identical_to_per_sector_sums(self, evolved_in_both_orders, phi):
        for state, got in evolved_in_both_orders[phi]:
            assert got.tobytes() == per_sector_evolution(state, phi).tobytes()

    def test_occupied_sectors_diagonalized_once_in_any_order(self, table, eigh_sizes):
        # the highest state first: every sector up to its top at once, then none
        states = bit_identity_states()
        for phi in PHASES:
            for state in states[::-1]:
                fo.apply_jx_evolution(state, phi)
        top = max(int(np.flatnonzero(state.diag)[-1]) for state in states)
        assert table.starts.size == top + 1
        assert eigh_sizes == list(range(1, top + 2))

    @pytest.mark.parametrize("layout", ["transposed", "fortran", "strided", "reversed"])
    def test_any_memory_layout_evolves_and_refuses_alike(self, layout):
        # a 1-D view at any stride or sign of it, such as the diagonal of a
        # matrix in either order, makes the state of the same bytes
        def laid_out(a):
            if layout == "transposed":
                return np.diag(a).T.diagonal()
            if layout == "fortran":
                return np.asfortranarray(np.diag(a)).diagonal()
            if layout == "strided":
                wide = np.zeros(2 * a.size, dtype=complex)
                wide[::2] = a
                return wide[::2]
            return a[::-1].copy()[::-1]

        evolved = [diagonal_state(24, 4, (0, 3, 7, 10, 18)), fo.twin_beam_fock(0.5, 16),
                   diagonal_state(13, 21)]
        for state in evolved:
            given = laid_out(state.diag)
            assert not given.flags.c_contiguous
            moved = fo.FockTwoModeState(given)
            assert moved.diag.tobytes() == state.diag.tobytes()
            for phi in (0.3, -1.3):
                assert (fo.apply_jx_evolution(moved, phi).tobytes()
                        == fo.apply_jx_evolution(state, phi).tobytes())
        bad = np.ones(7, dtype=complex)
        bad[3] = complex(0.0, math.nan)
        for given in (bad, laid_out(bad)):
            with pytest.raises(ValueError, match="finite amplitudes only"):
                fo.FockTwoModeState(given)

"""Truncated two-mode Fock-space engine, used as an independent oracle.

States are stored as a (d_max+1) x (d_max+1) complex amplitude matrix with
entry (p, q) = <p, q|psi>.  The beam-mixing evolution exp(i phi J) with
J = a^dag b + a b^dag conserves the total photon number n and commutes with
the swap of the two modes (it is 2 J_x in the Schwinger picture), so it
keeps the twin-beam's subspace: swap-symmetric states with even n.  It
evolves only states in that subspace, where the block n = 2p is one sector,
the p + 1 symmetric combinations of the |k, 2p-k>, and J on it is a small
symmetric tridiagonal matrix.

Sectors are evolved in groups of GROUP = 8 consecutive p from p0.  A group
is a zero-padded stack of its sectors' eigenvectors and eigenvalues, which
depend on the block alone, not on phi, the state or the truncation.  One
evolution gathers each group's coordinates straight from the amplitudes,
sqrt(2) A[k, 2p-k] for a pair and A[p, p] on the diagonal; skips a group
whose coordinates are all zero; applies u exp(i phi w) u^T to an occupied
one as two stacked BLAS products on real views of its coordinates; and
writes the result to both triangles.  Where the coordinates sit depends on
d_max alone: one small record per group, whose cut and padding rows point
to a dummy slot, cached read-only for the last 8 truncations (122 kB at
d_max = 109, 371 kB at 200).

One rule, decided by p0 alone, says which groups are kept.  A group from
p0 <= D_MAX_CAP (the cap of default_d_max) is diagonalized whole the first
time it is occupied, and kept read-only for the process, shared by every
truncation.  A group from further out, which only an explicit d_max above
the cap reaches, is diagonalized on every evolution, and only for its
occupied members.  So the kept groups reach 7 blocks past the cap, to
p = D_MAX_CAP + 7.  A twin-beam at d_max = 109 (x = 0.9) keeps 4.2 MB, and
one at the cap 25.6 MB, every group there is to keep; padding adds 5-10 %
to the sectors themselves.

The J normalization (no factor 1/2 in front of a^dag b + a b^dag) is the one
under which the twin-beam survival probability equals
[1 + N(N+2) sin^2 phi]^(-1); it is verified to machine precision by the
overlap tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_SQRT2 = math.sqrt(2.0)

D_MAX_CAP = 200  # the cap of default_d_max; groups from p0 <= D_MAX_CAP are kept

GROUP = 8  # consecutive blocks n = 2p per stacked group


@dataclass(frozen=True)
class FockTwoModeState:
    """Two-mode state truncated at d_max photons per mode."""

    amps: np.ndarray
    d_max: int

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (self.d_max + 1, self.d_max + 1):
            raise ValueError(
                f"amps must be {(self.d_max + 1, self.d_max + 1)}, got {amps.shape}"
            )
        object.__setattr__(self, "amps", amps)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    @property
    def tail(self) -> float:
        """Probability mass lost to truncation, 1 - |amps|^2."""
        return 1.0 - self.norm_sq


def _check_schmidt(x: float) -> None:
    if not 0.0 <= x < 1.0:
        raise ValueError(f"Schmidt parameter must be in [0, 1), got {x}")


def default_d_max(x: float, tail_tol: float = 1e-10, cap: int = D_MAX_CAP) -> int:
    """Smallest truncation with twin-beam tail x^{2(d_max+1)} below tail_tol."""
    _check_schmidt(x)
    if x == 0.0:
        return 0
    d = math.ceil(math.log(tail_tol) / (2.0 * math.log(x))) - 1
    return min(max(d, 0), cap)


def twin_beam_fock(x: float, d_max: int) -> FockTwoModeState:
    """Twin-beam |x>> = sqrt(1-x^2) sum_p x^p |p, p>, truncated at d_max."""
    _check_schmidt(x)
    if d_max < 0:
        raise ValueError(f"d_max must be >= 0, got {d_max}")
    amps = np.zeros((d_max + 1, d_max + 1), dtype=complex)
    p = np.arange(d_max + 1)
    amps[p, p] = math.sqrt(1.0 - x * x) * x ** p
    return FockTwoModeState(amps, d_max)


def _sector_generator(p: int) -> np.ndarray:
    """J on the swap-symmetric basis of the block n = 2p.

    The basis is (|k, 2p-k> + |2p-k, k>)/sqrt(2) for k < p, then |p, p>.
    J keeps the off-diagonals sqrt((k+1)(2p-k)) of the |k, 2p-k> basis,
    except the last one, which couples |p, p> and is sqrt(2) times larger.
    """
    k = np.arange(p)
    off = np.sqrt((k + 1.0) * (2 * p - k))
    off[-1:] *= _SQRT2
    j = np.zeros((p + 1, p + 1))
    j[k, k + 1] = j[k + 1, k] = off
    return j


def _eig_stack(p0: int, live: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The eigensystems (u, w) of the sectors of the group from block 2 p0, stacked.

    Member j is block 2(p0 + j): its eigenvectors fill the top-left corner of
    u[j] and its eigenvalues the front of w[j]; the rest is zero padding.
    Without live, all GROUP members are diagonalized; with it, the stack has
    len(live) members and only those live marks are diagonalized: the others
    stay zero, which evolves their zero coordinates exactly.
    """
    m = GROUP if live is None else len(live)
    u, w = np.zeros((m, p0 + m, p0 + m)), np.zeros((m, p0 + m))
    for j in range(m):
        if live is None or live[j]:
            wj, uj = np.linalg.eigh(_sector_generator(p0 + j))
            u[j, :len(wj), :len(wj)], w[j, :len(wj)] = uj, wj
    u.flags.writeable = w.flags.writeable = False
    return u, w


_kept_stack = functools.cache(_eig_stack)  # p0 -> the whole group, for the process


class _Group(NamedTuple):
    """Where the sectors of the group from p0 sit in a truncation's flattened amplitudes.

    Member j, the block n = 2p with p = p0 + j, uses its eigenvector rows
    lo:lo + upper.shape[1]; row k = lo + i is A[k, 2p-k] at the flat index
    upper[j, i] = k (d+1) + 2p-k and its mirror A[2p-k, k] at lower[j, i].
    Rows the truncation cut (k < 2p - d) and padding rows (k > p) point to
    the dummy slot (d+1)^2 past the last entry, which reads 0 and is dropped
    on write-back.
    """

    p0: int
    lo: int
    upper: np.ndarray
    lower: np.ndarray
    gather: np.ndarray  # sqrt(2) for a pair, 1 on the diagonal
    scatter: np.ndarray  # 1/sqrt(2) for a pair, 1 on the diagonal


@functools.lru_cache(maxsize=8)
def _layout(d: int) -> tuple[_Group, ...]:
    """The groups of truncation d, by p0, with read-only arrays (122 kB at d = 109)."""
    groups = []
    for p0 in range(0, d + 1, GROUP):
        p = np.arange(p0, min(p0 + GROUP, d + 1))[:, None]
        cut = np.maximum(2 * p - d, 0)
        k = np.arange(cut[0, 0], p[-1, 0] + 1)
        held, pair = (k >= cut) & (k <= p), k < p
        group = _Group(
            p0=p0, lo=int(cut[0, 0]),
            upper=np.where(held, k * (d + 1) + 2 * p - k, (d + 1) ** 2),
            lower=np.where(held, (2 * p - k) * (d + 1) + k, (d + 1) ** 2),
            gather=np.where(pair, _SQRT2, 1.0), scatter=np.where(pair, 1.0 / _SQRT2, 1.0),
        )
        for a in group[2:]:
            a.flags.writeable = False
        groups.append(group)
    return tuple(groups)


def apply_jx_evolution(state: FockTwoModeState, phi: float) -> FockTwoModeState:
    """Apply exp(i phi (a^dag b + a b^dag)) block-diagonally in total photon number.

    The state must be swap-symmetric with even total photon number, as every
    twin-beam is; J keeps that subspace, so the result can be evolved again.
    Each block is evolved exactly in its full symmetric sector; components
    pushed beyond the per-mode truncation d_max are dropped on write-back
    (their weight is bounded by the truncation tail for twin-beam inputs).

    Each occupied group runs u^T c, the phases and u t as one stacked product
    each, on real (..., 2) views of the complex coordinates c, so the real u
    is never cast to complex.  The cut rows of a sector are neither read nor
    written.  A group from p0 <= D_MAX_CAP is kept whole; one past it is
    diagonalized on every call, for its occupied members only.
    """
    amps, d = state.amps, state.d_max
    # given the symmetry, amps[1::2, ::2] holds every entry of odd total n
    if not np.array_equal(amps, amps.T) or amps[1::2, ::2].any():
        raise ValueError("the Fock oracle evolves swap-symmetric states of even "
                         "total photon number only")
    a = np.append(amps.ravel(), 0.0)  # the last slot is the dummy
    out = np.zeros_like(a)
    with np.errstate(over="raise", invalid="raise"):  # a phi w past the float range raises
        for g in _layout(d):
            # weights multiply: dividing by a weight array would run complex division
            c = a[g.upper] * g.gather
            if not c.any():
                continue
            m, rows = c.shape
            u, w = _kept_stack(g.p0) if g.p0 <= D_MAX_CAP else _eig_stack(g.p0, c.any(axis=1))
            size = g.lo + rows
            u = u[:m, g.lo:size, :size]
            t = np.matmul(u.transpose(0, 2, 1), c.view(float).reshape(m, rows, 2))
            t = t.view(complex)[..., 0] * np.exp(1j * phi * w[:m, :size])
            c = np.matmul(u, t.view(float).reshape(m, size, 2)).view(complex)[..., 0]
            out[g.lower] = out[g.upper] = c * g.scatter
    return FockTwoModeState(out[:-1].reshape(d + 1, d + 1), d)


def overlap(a: FockTwoModeState, b: FockTwoModeState) -> complex:
    """Inner product <a|b> = sum conj(a) * b.

    numpy's pairwise sum fixes the order of the reduction, so unlike BLAS
    zdotc (np.vdot) the result does not depend on the BLAS thread count.
    """
    if a.d_max != b.d_max:
        raise ValueError(f"d_max mismatch: {a.d_max} != {b.d_max}")
    return complex(np.sum(np.conj(a.amps) * b.amps))


def zero_difference_probability(state: FockTwoModeState) -> float:
    """Probability of zero difference photocurrent, sum_n |<n,n|psi>|^2."""
    return float(np.sum(np.abs(np.diag(state.amps)) ** 2))

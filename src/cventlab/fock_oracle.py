"""Truncated two-mode Fock-space engine, used as an independent oracle.

States are stored as a (d_max+1) x (d_max+1) complex amplitude matrix with
entry (p, q) = <p, q|psi>.  The beam-mixing evolution exp(i phi J) with
J = a^dag b + a b^dag conserves the total photon number, so it is applied
block by block on the fixed-total-n subspaces, where J is a small symmetric
tridiagonal matrix.  J also commutes with the swap of the two modes (it is
2 J_x in the Schwinger picture), so each block splits exactly into a
swap-even and a swap-odd sector of about half its size, and each sector is
diagonalized on its own.  A twin-beam lies in the even sectors only.

Both parities share one ordering of the entries A[k, m], k <= m, by block
n = k + m and then by k, so a sector is one slice from its block's first
entry; the odd coordinate is 0 on the diagonal, and an odd sector stops just
before it.  The layout, with both parities' group indices, depends on d_max
alone and is cached read-only for the last 8 truncations (365 kB at
d_max = 109, 1.2 MB at 200).

Sectors are evolved in groups of GROUP = 8 blocks n0, n0 + 2, ... of one
parity of n, so a twin-beam, which fills only even blocks, never touches the
odd-n groups.  A group is a zero-padded stack of its sectors' eigenvectors
and eigenvalues, which depend on the block alone, not on phi, the state or
the truncation.  One evolution gathers both coordinate vectors; finds the
occupied groups from their nonzero coordinates (an all-zero parity costs
nothing); applies u exp(i phi w) u^T to each occupied group as two stacked
BLAS products on real views of its coordinates, read and written through
the truncation's group index, whose cut and padding rows point to a dummy
slot; and scatters the result back.

One rule, decided by n0 alone, says which groups are kept.  A group from
n0 <= 2 D_MAX_CAP (the cap of default_d_max) is diagonalized whole the
first time it is occupied, and kept read-only for the process, shared by
every truncation.  A group from further out, which only an explicit d_max
above the cap reaches, is diagonalized on every evolution, and only for its
occupied members.  So the kept groups reach up to 7 blocks past 2 d_max.
A twin-beam at d_max = 109 (x = 0.9) keeps 4.2 MB, one at the cap 25.6 MB,
and a state filling every sector of every kept group 96 MB; padding adds
5-10 % to the sectors themselves.

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

D_MAX_CAP = 200  # the cap of default_d_max; groups from n0 <= 2 D_MAX_CAP are kept

GROUP = 8  # blocks of one parity of n per stacked group


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


def _sector_size(n, even: bool):
    """Size of the swap-even or swap-odd sector of block n (n may be an array)."""
    return n // 2 + 1 if even else (n + 1) // 2


def _first_block(n):
    """First block n0 of block n's group, the GROUP blocks n0, n0 + 2, ... of one parity of n."""
    return n - 2 * (n // 2 % GROUP)


def _sector_generator(n: int, even: bool) -> np.ndarray:
    """J on the swap-even or swap-odd basis of the total-n block.

    The basis is (|k, n-k> +- |n-k, k>)/sqrt(2) for k < n/2, with |n/2, n/2>
    appended to the even sector when n is even.  J keeps the off-diagonals
    m_k = sqrt((k+1)(n-k)) of the |k, n-k> basis, except at the middle:
    the last even coupling of an even n is sqrt(2) m_{n/2-1}, and the last
    diagonal entry of an odd n is +-m_{(n-1)/2} = +-(n+1)/2.
    """
    size = _sector_size(n, even)
    k = np.arange(size - 1)
    off = np.sqrt((k + 1.0) * (n - k))
    if even and n % 2 == 0 and n > 0:
        off[-1] *= _SQRT2
    j = np.zeros((size, size))
    j[k, k + 1] = j[k + 1, k] = off
    if n % 2 == 1:
        j[-1, -1] = (n + 1) / 2 if even else -(n + 1) / 2
    return j


def _eig_stack(even: bool, n0: int,
               live: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The eigensystems (u, w) of the sectors of the group from block n0, stacked.

    Member j is block n0 + 2j: its eigenvectors fill the top-left corner of
    u[j] and its eigenvalues the front of w[j]; the rest is zero padding.
    Without live, all GROUP members are diagonalized; with it, the stack has
    len(live) members and only those live marks are diagonalized: the others
    stay zero, which evolves their zero coordinates exactly.
    """
    m = GROUP if live is None else len(live)
    size = _sector_size(n0 + 2 * m - 2, even)
    u, w = np.zeros((m, size, size)), np.zeros((m, size))
    for j in range(m):
        if live is None or live[j]:
            wj, uj = np.linalg.eigh(_sector_generator(n0 + 2 * j, even))
            u[j, :len(wj), :len(wj)], w[j, :len(wj)] = uj, wj
    u.flags.writeable = w.flags.writeable = False
    return u, w


_kept_stack = functools.cache(_eig_stack)  # (even, n0) -> the whole group, for the process


class _Layout(NamedTuple):
    """Where each sector coordinate of a (d+1) x (d+1) state lives, ordered by block n, then k.

    Entry i, A[k, m] with k <= m, has the even coordinate
    (A[k, m] + A[m, k]) gather[i], which is A[p, p] itself on the diagonal,
    and the odd one (A[k, m] - A[m, k])/sqrt(2); both write back as
    (even +- odd) scatter[i].  Indices into A are flat, k (d+1) + m.

    index[even] maps each group's first block n0 to (lo, at): member j of
    the group uses its eigenvector rows lo:lo + at.shape[1], and row lo + i
    sits at coordinate at[j, i].  Rows the truncation cut (the first
    max(0, n-d) of block n) and padding rows point to the dummy slot one
    past the last coordinate, which reads 0 and is dropped on write-back.
    """

    upper: np.ndarray  # A[k, m]
    lower: np.ndarray  # A[m, k], the same entry on the diagonal
    gather: np.ndarray  # 1/sqrt(2) for a pair, 1/2 on the diagonal
    scatter: np.ndarray  # 1/sqrt(2) for a pair, 1 on the diagonal
    group: np.ndarray  # first block of the group of each entry's block
    index: tuple[dict[int, tuple[int, np.ndarray]], ...]  # odd, even


@functools.lru_cache(maxsize=8)
def _layout(d: int) -> _Layout:
    """The sector layout of truncation d, as read-only arrays (365 kB at d = 109)."""
    k, m = np.triu_indices(d + 1)
    order = np.lexsort((k, k + m))
    k, m = k[order], m[order]
    n = k + m
    pair = k < m
    start = np.searchsorted(n, np.arange(2 * d + 2))  # block n's entries are start[n]:start[n+1]
    index = ({}, {})
    for n0 in np.unique(_first_block(n)).tolist():
        blocks = np.arange(n0, min(n0 + 2 * GROUP, 2 * d + 1), 2)[:, None]
        cut = np.maximum(blocks - d, 0)
        for even in (False, True):
            size = _sector_size(blocks, even)
            row = np.arange(cut[0, 0], size[-1, 0])
            at = np.where((row >= cut) & (row < size), start[blocks] + row - cut, start[-1])
            at.flags.writeable = False
            index[even][n0] = int(cut[0, 0]), at
    layout = _Layout(
        upper=k * (d + 1) + m, lower=m * (d + 1) + k,
        gather=np.where(pair, 1.0 / _SQRT2, 0.5), scatter=np.where(pair, 1.0 / _SQRT2, 1.0),
        group=_first_block(n), index=index,
    )
    for a in layout[:-1]:
        a.flags.writeable = False
    return layout


def _evolve_sectors(c: np.ndarray, lay: _Layout, even: bool, phi: float) -> np.ndarray:
    """exp(i phi J) on the flat coordinates c of every occupied sector of one parity.

    Each occupied group runs u^T c, the phases and u t as one stacked product
    each, on real (..., 2) views of the complex coordinates, so the real u
    is never cast to complex.  A sector's coordinates are the rows
    max(0, n-d): of its eigenvectors; the cut rows are neither read nor
    written.  A group from n0 <= 2 D_MAX_CAP is kept whole; one past it is
    diagonalized on every call, for its occupied members only.
    """
    out = np.zeros(len(c) + 1, dtype=complex)  # the last slot is the dummy
    occupied = np.flatnonzero(c)
    if occupied.size == 0:
        return out[:-1]
    c = np.append(c, 0.0)
    with np.errstate(over="raise", invalid="raise"):  # a phi w past the float range raises
        for n0 in np.unique(lay.group[occupied]).tolist():
            lo, at = lay.index[even][n0]
            m, rows = at.shape
            ct = c[at]
            if n0 <= 2 * D_MAX_CAP:
                u, w = _kept_stack(even, n0)
            else:
                u, w = _eig_stack(even, n0, ct.any(axis=1))
            size = lo + rows
            u = u[:m, lo:size, :size]
            t = np.matmul(u.transpose(0, 2, 1), ct.view(float).reshape(m, rows, 2))
            t = t.view(complex)[..., 0] * np.exp(1j * phi * w[:m, :size])
            out[at] = np.matmul(u, t.view(float).reshape(m, size, 2)).view(complex)[..., 0]
    return out[:-1]


def apply_jx_evolution(state: FockTwoModeState, phi: float) -> FockTwoModeState:
    """Apply exp(i phi (a^dag b + a b^dag)) block-diagonally in total photon number.

    Each total-n block is evolved exactly in its full (n+1)-dimensional
    subspace, split into its swap-even and swap-odd sectors; components
    pushed beyond the per-mode truncation d_max are dropped on write-back
    (their weight is bounded by the truncation tail for twin-beam inputs).
    """
    d = state.d_max
    lay = _layout(d)
    a = state.amps.ravel()
    upper, lower = a[lay.upper], a[lay.lower]
    # weights multiply: dividing by a weight array would run complex division
    even = _evolve_sectors((upper + lower) * lay.gather, lay, True, phi)
    odd = _evolve_sectors((upper - lower) / _SQRT2, lay, False, phi)
    out = np.zeros_like(a)
    out[lay.lower] = (even - odd) * lay.scatter
    out[lay.upper] = (even + odd) * lay.scatter
    return FockTwoModeState(out.reshape(d + 1, d + 1), d)


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

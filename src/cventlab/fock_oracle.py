"""Truncated two-mode Fock-space engine, used as an independent oracle.

States are stored as a (d_max+1) x (d_max+1) complex amplitude matrix with
entry (p, q) = <p, q|psi>.  The beam-mixing evolution exp(i phi J) with
J = a^dag b + a b^dag conserves the total photon number n and commutes with
the swap of the two modes (it is 2 J_x in the Schwinger picture).  It
evolves only diagonal states sum_p a_p |p, p>, every twin-beam among them:
the block n = 2p holds one entry of such a state, |p, p>, and exp(i phi J)
keeps it in the p + 1 symmetric combinations of the |k, 2p-k>, the block's
swap-symmetric sector, on which J is a small symmetric tridiagonal matrix.

Sectors are evolved in groups of GROUP = 8 consecutive p from p0.  A group
is a zero-padded stack of its sectors' eigenvectors and eigenvalues, which
depend on the block alone, not on phi, the state or the truncation.  a_p is
the coordinate of the sector's last basis vector |p, p>, so u^T c is a row
pick, a_p times row p of the eigenvectors.  One evolution skips a group
whose a_p are all zero; for an occupied one, it picks the rows, applies the
phases exp(i phi w) and one stacked BLAS product u t on real views; and it
writes the result to both triangles.  Where the result goes depends on
d_max alone: one small record per group, whose cut and padding rows point
to a dummy slot, cached read-only for the last 8 truncations (92 kB at
d_max = 109, 278 kB at 200).

One rule, decided by p0 alone, says which groups are kept.  A group from
p0 <= D_MAX_CAP (the cap of default_d_max) is diagonalized whole the first
time it is occupied, and kept read-only for the process, shared by every
truncation.  A group from further out, which only an explicit d_max above
the cap reaches, is diagonalized whole on every evolution.  So the kept
groups reach 7 blocks past the cap, to p = D_MAX_CAP + 7.  A twin-beam at
d_max = 109 (x = 0.9) keeps 4.2 MB, and one at the cap 25.6 MB, every
group there is to keep; padding adds 5-10 % to the sectors themselves.

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


def _eig_stack(p0: int, m: int = GROUP) -> tuple[np.ndarray, np.ndarray]:
    """The eigensystems (u, w) of the m sectors of the group from block 2 p0, stacked.

    Member j is block 2(p0 + j): its eigenvectors fill the top-left corner of
    u[j] and its eigenvalues the front of w[j]; the rest is zero padding.
    """
    u, w = np.zeros((m, p0 + m, p0 + m)), np.zeros((m, p0 + m))
    for j in range(m):
        wj, uj = np.linalg.eigh(_sector_generator(p0 + j))
        u[j, :len(wj), :len(wj)], w[j, :len(wj)] = uj, wj
    u.flags.writeable = w.flags.writeable = False
    return u, w


_kept_stack = functools.cache(_eig_stack)  # p0 -> the whole group, for the process


class _Group(NamedTuple):
    """Where the evolved sectors of the group from p0 go in a truncation's flat amplitudes.

    Member j, the block n = 2p with p = p0 + j, writes its eigenvector rows
    lo:lo + upper.shape[1]; row k = lo + i is A[k, 2p-k] at the flat index
    upper[j, i] = k (d+1) + 2p-k and its mirror A[2p-k, k] at lower[j, i].
    Rows the truncation cut (k < 2p - d) and padding rows (k > p) point to
    the dummy slot (d+1)^2 past the last entry, which is dropped.
    """

    p0: int
    lo: int
    upper: np.ndarray
    lower: np.ndarray
    scatter: np.ndarray  # 1/sqrt(2) for a pair, 1 on the diagonal


@functools.lru_cache(maxsize=8)
def _layout(d: int) -> tuple[_Group, ...]:
    """The groups of truncation d, by p0, with read-only arrays (92 kB at d = 109)."""
    groups = []
    for p0 in range(0, d + 1, GROUP):
        p = np.arange(p0, min(p0 + GROUP, d + 1))[:, None]
        cut = np.maximum(2 * p - d, 0)
        k = np.arange(cut[0, 0], p[-1, 0] + 1)
        held = (k >= cut) & (k <= p)
        group = _Group(
            p0=p0, lo=int(cut[0, 0]),
            upper=np.where(held, k * (d + 1) + 2 * p - k, (d + 1) ** 2),
            lower=np.where(held, (2 * p - k) * (d + 1) + k, (d + 1) ** 2),
            scatter=np.where(k < p, 1.0 / _SQRT2, 1.0),
        )
        for a in group[2:]:
            a.flags.writeable = False
        groups.append(group)
    return tuple(groups)


def apply_jx_evolution(state: FockTwoModeState, phi: float) -> FockTwoModeState:
    """Apply exp(i phi (a^dag b + a b^dag)) block-diagonally in total photon number.

    The state must be diagonal, sum_p a_p |p, p>, as every twin-beam is, with
    finite amplitudes; any other raises ValueError.  The result is not
    diagonal, so it cannot be evolved again.  Each block is evolved exactly
    in its full symmetric sector; components pushed beyond the per-mode
    truncation d_max are dropped on write-back (their weight is bounded by
    the truncation tail for twin-beam inputs).

    a_p sits on the last basis vector |p, p> of its sector, so u^T c is a_p
    times row p of the sector's eigenvectors, one row pick per group.  The
    phases and u t run as one stacked product on a real (..., 2) view, so
    the real u is never cast to complex there.  The cut rows of a sector are
    not written.  A group from p0 <= D_MAX_CAP is kept whole; one past it is
    diagonalized whole on every call.
    """
    amps, d = state.amps, state.d_max
    if not np.isfinite(amps).all():
        raise ValueError("the Fock oracle evolves states with finite amplitudes only")
    diag = amps.diagonal()
    if np.count_nonzero(amps) != np.count_nonzero(diag):
        raise ValueError("the Fock oracle evolves diagonal states sum_p a_p |p, p> only")
    out = np.zeros((d + 1) ** 2 + 1, dtype=complex)  # the last slot is the dummy
    with np.errstate(over="raise", invalid="raise"):  # a phi w past the float range raises
        for g in _layout(d):
            m, rows = g.upper.shape
            c = diag[g.p0:g.p0 + m]
            if not c.any():
                continue
            u, w = _kept_stack(g.p0) if g.p0 <= D_MAX_CAP else _eig_stack(g.p0, m)
            size = g.lo + rows
            j = np.arange(m)
            t = c[:, None] * u[j, g.p0 + j, :size] * np.exp(1j * phi * w[:m, :size])
            u = u[:m, g.lo:size, :size]
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

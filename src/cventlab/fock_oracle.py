"""Truncated two-mode Fock-space engine, used as an independent oracle.

A state is sum_p a_p |p, p>, p = 0 ... d_max, held as its vector of
amplitudes a_p; every twin-beam is one.  The beam-mixing evolution
exp(i phi J) with J = a^dag b + a b^dag conserves the total photon number n
and commutes with the swap of the two modes (it is 2 J_x in the Schwinger
picture).  The block n = 2p holds one entry of such a state, |p, p>, and
exp(i phi J) keeps it in the p + 1 symmetric combinations of the |k, 2p-k>,
the block's swap-symmetric sector, on which J is a small symmetric
tridiagonal matrix.

Every reader of an evolved state (the zero-difference probability, the
overlap with a twin-beam probe) reads only its diagonal, so that is what the
evolution returns: <p, p|exp(i phi J)|psi> = a_p D_p, with the survival
amplitude D_p = sum_i v_i exp(i phi w_i) of the sector p.  Here w holds the
sector's eigenvalues and v the squared last row of its eigenvectors, the
weights of |p, p> on them.  The rows the truncation cuts never enter D_p, so
it is the same at every d_max.

(w, v) depend on p alone, not on phi, the state or the truncation.  They
are kept for the process in one prefix table: sector p's p + 1 entries sit
at offset p (p + 1) / 2 of two flat read-only arrays, w as intp and v as
float64, so sectors 0 ... top take 8 (top + 1)(top + 2) bytes: 97,680 B at
d_max = 109, 0.33 MB up to D_MAX_CAP (the cap of default_d_max) and 8 MB up
to D_MAX_LIMIT.  An evolution of a higher top appends the sectors up to it,
each diagonalized once; a twin-beam occupies all of them.  An evolution
runs over the prefix up to its top sector; as w holds integers, it takes its
phases from one table of exp(i phi k), and the sums over i are numpy's
fixed-order reduceat over the per-sector segments, not a BLAS product, so
LAPACK's eigh is the only library call in the oracle.

The J normalization (no factor 1/2 in front of a^dag b + a b^dag) is the one
under which the twin-beam survival probability equals
[1 + N(N+2) sin^2 phi]^(-1); it is verified to machine precision by the
overlap tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from cventlab.gaussian_core import _schmidt

_SQRT2 = math.sqrt(2.0)

D_MAX_CAP = 200  # the cap of default_d_max
D_MAX_LIMIT = 1000  # the largest d_max of twin_beam_fock: its sectors take 8 MB and ~1 min


class FockTwoModeState(NamedTuple("FockTwoModeState", [("diag", np.ndarray)])):
    """sum_p a_p |p, p>, p <= d_max, as a read-only copy of its finite amplitudes a_p."""

    __slots__ = ()

    def __new__(cls, diag) -> "FockTwoModeState":
        diag = np.array(diag, dtype=complex)
        if diag.ndim != 1 or diag.size == 0:
            raise ValueError(f"amplitudes a_p must be nonempty and 1-D, got shape {diag.shape}")
        if not np.isfinite(diag).all():
            raise ValueError("the Fock oracle holds states with finite amplitudes only")
        diag.flags.writeable = False
        return super().__new__(cls, diag)

    @property
    def amps(self) -> np.ndarray:
        """The (d_max+1) x (d_max+1) matrix of the <p, q|psi>, built on each call."""
        return np.diag(self.diag)


def default_d_max(x: float, tail_tol: float = 1e-10, cap: int = D_MAX_CAP) -> int:
    """Smallest truncation with twin-beam tail x^{2(d_max+1)} below tail_tol."""
    x = _schmidt(x)
    if x == 0.0:
        return 0
    d = math.ceil(math.log(tail_tol) / (2.0 * math.log(x))) - 1
    return min(max(d, 0), cap)


def twin_beam_fock(x: float, d_max: int) -> FockTwoModeState:
    """Twin-beam |x>> = sqrt(1-x^2) sum_p x^p |p, p>, truncated at d_max <= D_MAX_LIMIT."""
    x = _schmidt(x)
    if not 0 <= d_max <= D_MAX_LIMIT:
        raise ValueError(f"d_max must be in [0, {D_MAX_LIMIT}], got {d_max}")
    return FockTwoModeState(math.sqrt(1.0 - x * x) * x ** np.arange(d_max + 1))


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


def _sector(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) of sector p: J's eigenvalues there and the weights of |p, p> on its eigenvectors."""
    w, u = np.linalg.eigh(_sector_generator(p))
    # The block n = 2p is the spin-p multiplet of the Schwinger picture, and
    # J = 2 J_x has the even integers -2p ... 2p as its spectrum there.  Rounding
    # w to them drops the eigensolver's roundoff, which phi w would magnify at
    # large phi.  This is angular-momentum algebra, not the closed form the
    # oracle is checked against.
    w = 2 * np.rint(0.5 * w).astype(np.intp)
    v = u[-1] ** 2  # |p, p> is the sector's last basis vector
    return w, v


class _SectorTable:
    """(w, v) of the sectors 0 ... top diagonalized so far, sector p at offset p (p + 1) / 2.

    One object for the process; growing it appends sectors and rebinds its
    arrays, never the module's name.  ``starts`` holds the offsets; all three
    arrays are read-only.
    """

    def __init__(self):
        self.starts = np.zeros(0, dtype=np.intp)
        self.w = np.zeros(0, dtype=np.intp)
        self.v = np.zeros(0)

    def prefix(self, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w, v, starts) of the sectors 0 ... top, diagonalizing those not yet held."""
        if top >= self.starts.size:
            w, v = zip(*(_sector(p) for p in range(self.starts.size, top + 1)))
            p = np.arange(top + 1)
            grown = p * (p + 1) // 2, np.concatenate((self.w, *w)), np.concatenate((self.v, *v))
            for a in grown:
                a.flags.writeable = False
            self.starts, self.w, self.v = grown
        end = (top + 1) * (top + 2) // 2
        return self.w[:end], self.v[:end], self.starts[: top + 1]


_TABLE = _SectorTable()


def apply_jx_evolution(state: FockTwoModeState, phi: float) -> np.ndarray:
    """The diagonal <p, p|exp(i phi (a^dag b + a b^dag))|psi>, p = 0 ... d_max.

    Entry p is a_p D_p, with D_p the survival amplitude of |p, p> in its
    whole symmetric sector, so no truncation enters it.  A phi whose product
    with an eigenvalue overflows raises FloatingPointError.
    """
    diag = state.diag
    out = np.zeros_like(diag)
    occupied = np.flatnonzero(diag)
    if occupied.size == 0:
        return out
    w, v, starts = _TABLE.prefix(int(occupied[-1]))
    top = 2 * int(occupied[-1])  # the largest |w| there
    with np.errstate(over="raise", invalid="raise"):  # a phi w past the float range raises
        phases = np.exp(1j * phi * np.arange(-top, top + 1.0))  # exp(i phi k), |k| <= top
    survival = np.add.reduceat(v * phases[w + top], starts)  # D_p
    out[occupied] = diag[occupied] * survival[occupied]
    return out


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product sum conj(a) * b of two diagonals, such as a probe's and an evolved one.

    numpy's pairwise sum fixes the order of the reduction, so unlike BLAS
    zdotc (np.vdot) the result does not depend on the BLAS thread count.
    """
    if a.shape != b.shape:
        raise ValueError(f"d_max mismatch: {a.size - 1} != {b.size - 1}")
    return complex(np.sum(np.conj(a) * b))


def zero_difference_probability(diag: np.ndarray) -> float:
    """Probability of zero difference photocurrent, sum_n |<n,n|psi>|^2, from the diagonal."""
    return float(np.add.reduce(np.abs(diag) ** 2))

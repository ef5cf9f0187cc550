"""Truncated two-mode Fock-space engine, used as an independent oracle.

States are stored as a (d_max+1) x (d_max+1) complex amplitude matrix with
entry (p, q) = <p, q|psi>.  The beam-mixing evolution exp(i phi J) with
J = a^dag b + a b^dag conserves the total photon number n and commutes with
the swap of the two modes (it is 2 J_x in the Schwinger picture).  It
evolves only diagonal states sum_p a_p |p, p>, every twin-beam among them:
the block n = 2p holds one entry of such a state, |p, p>, and exp(i phi J)
keeps it in the p + 1 symmetric combinations of the |k, 2p-k>, the block's
swap-symmetric sector, on which J is a small symmetric tridiagonal matrix.

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
d_max = 109, 0.33 MB up to D_MAX_CAP (the cap of default_d_max), and up to
any d at most 8 (d + 1)(d + 2), about half the 16 (d + 1)^2 bytes of the
state that occupies them.  A sector is diagonalized the first time it is
occupied, and an unoccupied one never: its slot holds v = 0.  The table is
reallocated once per evolution that needs a new sector or a higher top.
An evolution runs over the prefix up to its top sector; as w holds
integers, it takes its phases from one table of exp(i phi k), and the sums
over i are numpy's fixed-order reduceat over the per-sector segments, not a
BLAS product, so LAPACK's eigh is the only library call in the oracle.

The J normalization (no factor 1/2 in front of a^dag b + a b^dag) is the one
under which the twin-beam survival probability equals
[1 + N(N+2) sin^2 phi]^(-1); it is verified to machine precision by the
overlap tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)

D_MAX_CAP = 200  # the cap of default_d_max


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
    amps.reshape(-1)[:: d_max + 2] = math.sqrt(1.0 - x * x) * x ** np.arange(d_max + 1)
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
    """(w, v) of every sector occupied so far, sector p at offset p (p + 1) / 2.

    One object for the process; growing it rebinds its arrays, never the
    module's name.  ``kept`` marks the sectors diagonalized, ``starts`` holds
    the offsets; all four arrays are read-only.
    """

    def __init__(self):
        self.kept = np.zeros(0, dtype=bool)
        self.starts = np.zeros(0, dtype=np.intp)
        self.w = np.zeros(0, dtype=np.intp)
        self.v = np.zeros(0)

    def prefix(self, occupied: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w, v, starts) of the sectors 0 ... occupied[-1], every occupied one filled."""
        top = int(occupied[-1])
        if top >= self.kept.size or not self.kept[occupied].all():
            self._fill(occupied)
        end = (top + 1) * (top + 2) // 2
        return self.w[:end], self.v[:end], self.starts[: top + 1]

    def _fill(self, occupied: np.ndarray) -> None:
        size = max(self.kept.size, int(occupied[-1]) + 1)
        p = np.arange(size)
        starts = p * (p + 1) // 2
        kept = np.zeros(size, dtype=bool)
        w = np.zeros(size * (size + 1) // 2, dtype=np.intp)
        v = np.zeros(w.size)
        kept[: self.kept.size], w[: self.w.size], v[: self.v.size] = self.kept, self.w, self.v
        for q in occupied[~kept[occupied]].tolist():
            w[starts[q]: starts[q] + q + 1], v[starts[q]: starts[q] + q + 1] = _sector(q)
        kept[occupied] = True
        for a in (kept, starts, w, v):
            a.flags.writeable = False
        self.kept, self.starts, self.w, self.v = kept, starts, w, v


_TABLE = _SectorTable()


def apply_jx_evolution(state: FockTwoModeState, phi: float) -> np.ndarray:
    """The diagonal <p, p|exp(i phi (a^dag b + a b^dag))|psi>, p = 0 ... d_max.

    The state must be diagonal, sum_p a_p |p, p>, as every twin-beam is, with
    finite amplitudes; any other raises ValueError.  Entry p is a_p D_p, with
    D_p the survival amplitude of |p, p> in its whole symmetric sector, so
    no truncation enters it.  A phi whose product with an eigenvalue
    overflows raises FloatingPointError.
    """
    amps = state.amps
    # every real and imaginary part as one float array: a view at any order
    # and sign of the strides, a copy where the amplitudes are not contiguous
    parts = amps.ravel(order="K").view(np.float64)
    if not np.isfinite(parts).all():
        raise ValueError("the Fock oracle evolves states with finite amplitudes only")
    diag = amps.diagonal()
    if np.count_nonzero(parts) != np.count_nonzero(diag.real) + np.count_nonzero(diag.imag):
        raise ValueError("the Fock oracle evolves diagonal states sum_p a_p |p, p> only")
    out = np.zeros_like(diag)
    occupied = np.flatnonzero(diag)
    if occupied.size == 0:
        return out
    w, v, starts = _TABLE.prefix(occupied)
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

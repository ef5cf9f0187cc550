"""Truncated two-mode Fock-space engine, used as an independent oracle.

States are stored as a (d_max+1) x (d_max+1) complex amplitude matrix with
entry (p, q) = <p, q|psi>.  The beam-mixing evolution exp(i phi J) with
J = a^dag b + a b^dag conserves the total photon number, so it is applied
block by block on the fixed-total-n subspaces, where J is a small symmetric
tridiagonal matrix.  J also commutes with the swap of the two modes (it is
2 J_x in the Schwinger picture), so each block splits exactly into a
swap-even and a swap-odd sector of about half its size, and each sector is
diagonalized on its own; a sector with no amplitude is skipped.  A twin-beam
lies in the even sectors only, so it costs one half-size eigensolve per
block.

A sector's eigensystem depends on the block n alone, not on phi or the
state, so it is memoized for the life of the process as read-only arrays.
Only blocks up to n = 2 D_MAX_CAP (the cap of default_d_max) are kept: a
twin-beam at the cap fills the even sectors of the even blocks, 22 MB, and
a state filling every sector of every such block fills 87 MB.  At d_max =
109 (a twin-beam with x = 0.9) the memo holds 3.6 MB.  Larger blocks, which
only an explicit d_max above the cap reaches, are diagonalized on every
evolution.

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

D_MAX_CAP = 200  # the cap of default_d_max; blocks n <= 2 D_MAX_CAP are memoized

_EIGENSYSTEMS: dict[tuple[int, bool], tuple[np.ndarray, np.ndarray]] = {}  # (n, even) -> (w, u)


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


def default_d_max(x: float, tail_tol: float = 1e-10, cap: int = D_MAX_CAP) -> int:
    """Smallest truncation with twin-beam tail x^{2(d_max+1)} below tail_tol."""
    if x == 0.0:
        return 0
    d = math.ceil(math.log(tail_tol) / (2.0 * math.log(x))) - 1
    return min(max(d, 0), cap)


def twin_beam_fock(x: float, d_max: int) -> FockTwoModeState:
    """Twin-beam |x>> = sqrt(1-x^2) sum_p x^p |p, p>, truncated at d_max."""
    if not 0.0 <= x < 1.0:
        raise ValueError(f"Schmidt parameter must be in [0, 1), got {x}")
    if d_max < 0:
        raise ValueError(f"d_max must be >= 0, got {d_max}")
    amps = np.zeros((d_max + 1, d_max + 1), dtype=complex)
    p = np.arange(d_max + 1)
    amps[p, p] = math.sqrt(1.0 - x * x) * x ** p
    return FockTwoModeState(amps, d_max)


def _sector_generator(n: int, even: bool) -> np.ndarray:
    """J on the swap-even or swap-odd basis of the total-n block.

    The basis is (|k, n-k> +- |n-k, k>)/sqrt(2) for k < n/2, with |n/2, n/2>
    appended to the even sector when n is even.  J keeps the off-diagonals
    m_k = sqrt((k+1)(n-k)) of the |k, n-k> basis, except at the middle:
    the last even coupling of an even n is sqrt(2) m_{n/2-1}, and the last
    diagonal entry of an odd n is +-m_{(n-1)/2} = +-(n+1)/2.
    """
    size = (n + 1) // 2 + (even and n % 2 == 0)
    k = np.arange(size - 1)
    off = np.sqrt((k + 1.0) * (n - k))
    if even and n % 2 == 0 and n > 0:
        off[-1] *= _SQRT2
    j = np.diag(off, 1) + np.diag(off, -1)
    if n % 2 == 1:
        j[-1, -1] = (n + 1) / 2 if even else -(n + 1) / 2
    return j


def _sector_eigensystem(n: int, even: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigh of the sector generator, memoized for blocks n <= 2 D_MAX_CAP."""
    key = (n, even)
    if key in _EIGENSYSTEMS:
        return _EIGENSYSTEMS[key]
    w, u = np.linalg.eigh(_sector_generator(n, even))
    w.flags.writeable = False
    u.flags.writeable = False
    if n <= 2 * D_MAX_CAP:
        _EIGENSYSTEMS[key] = (w, u)
    return w, u


def _evolve_sector(c: np.ndarray, n: int, even: bool, phi: float) -> np.ndarray:
    """exp(i phi J) on the sector amplitudes c; a zero projection stays zero."""
    if not np.any(c):
        return c
    w, u = _sector_eigensystem(n, even)
    return u @ (np.exp(1j * phi * w) * (u.T @ c))


def apply_jx_evolution(state: FockTwoModeState, phi: float) -> FockTwoModeState:
    """Apply exp(i phi (a^dag b + a b^dag)) block-diagonally in total photon number.

    Each total-n block is evolved exactly in its full (n+1)-dimensional
    subspace, split into its swap-even and swap-odd sectors; components
    pushed beyond the per-mode truncation d_max are dropped on write-back
    (their weight is bounded by the truncation tail for twin-beam inputs).
    """
    d = state.d_max
    out = np.zeros_like(state.amps)
    for n in range(2 * d + 1):
        k = np.arange(max(0, n - d), min(n, d) + 1)
        v = np.zeros(n + 1, dtype=complex)
        v[k] = state.amps[k, n - k]
        if not np.any(v):
            continue
        half = (n + 1) // 2
        low, high = v[:half], v[::-1][:half]  # |k, n-k> and |n-k, k>, k < n/2
        even = np.concatenate([(low + high) / _SQRT2, v[half:n + 1 - half]])
        odd = (low - high) / _SQRT2
        even = _evolve_sector(even, n, True, phi)
        odd = _evolve_sector(odd, n, False, phi)
        v[:half] = (even[:half] + odd) / _SQRT2
        v[n + 1 - half:] = ((even[:half] - odd) / _SQRT2)[::-1]
        v[half:n + 1 - half] = even[half:]
        out[k, n - k] = v[k]
    return FockTwoModeState(out, d)


def overlap(a: FockTwoModeState, b: FockTwoModeState) -> complex:
    """Inner product <a|b> = sum conj(a) * b."""
    if a.d_max != b.d_max:
        raise ValueError(f"d_max mismatch: {a.d_max} != {b.d_max}")
    return complex(np.vdot(a.amps, b.amps))


def zero_difference_probability(state: FockTwoModeState) -> float:
    """Probability of zero difference photocurrent, sum_n |<n,n|psi>|^2."""
    return float(np.sum(np.abs(np.diag(state.amps)) ** 2))

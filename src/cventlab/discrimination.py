"""Minimum-error discrimination of two unitaries via eigenvalue geometry.

The reachable overlaps z = sum_j w_j e^{i gamma_j} (w on the probability
simplex) fill the convex polygon spanned by the eigenphases of U2^dag U1 on
the unit circle.  The best probe minimizes |z|, i.e. picks the polygon point
nearest the origin.  For points on a circle that point follows from the
minimal covering arc Delta of the phases alone: the polygon contains the
origin (exact discrimination) iff Delta >= pi, and otherwise the nearest
point is the midpoint of the chord closing the arc, at r = cos(Delta/2).

Wolfe's minimum-norm-point algorithm, the oracle brute_force_min_overlap,
finds the same point and the probe weights from the eigenvalues without the
covering arc.  Scalar math throughout; the module imports no numpy.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple


class EigenphaseSpectrum(NamedTuple("EigenphaseSpectrum",
                                   [("phases", tuple[float, ...])])):
    """Distinct eigenphases of U2^dag U1, reduced to [0, 2pi)."""

    __slots__ = ()

    def __new__(cls, phases: tuple[float, ...]) -> "EigenphaseSpectrum":
        if len(phases) == 0:
            raise ValueError("spectrum must be nonempty")
        if not all(math.isfinite(p) for p in phases):
            raise ValueError(f"phases must be finite, got {phases}")
        return super().__new__(
            cls, tuple(sorted({float(p) % (2.0 * math.pi) for p in phases})))


class PolygonK(NamedTuple):
    """Convex polygon of unit-circle eigenvalues with its origin distance."""

    phases: tuple[float, ...]  # sorted, deduplicated
    r: float  # min distance from the polygon to the origin
    delta: float  # minimal covering arc of the phases


def covering_arc(phases: tuple[float, ...]) -> float:
    """Length of the minimal arc containing all phases: 2pi minus largest gap.

    When the largest gap is the one that wraps around 2pi, the arc is
    p[-1] - p[0] itself, which keeps an arc far below an ulp of 2pi.
    """
    if len(phases) == 1:
        return 0.0
    p = sorted(phases)
    gaps = [b - a for a, b in zip(p, p[1:] + [p[0] + 2.0 * math.pi])]
    largest = max(range(len(gaps)), key=gaps.__getitem__)  # the first maximum
    if largest == len(gaps) - 1:
        return p[-1] - p[0]
    return 2.0 * math.pi - gaps[largest]


def _origin_distance(delta: float) -> float:
    """Origin distance r of a polygon of unit-circle points with covering arc delta.

    If the arc reaches pi the polygon holds the origin and r = 0; otherwise
    the nearest polygon point is the midpoint of the chord that closes the
    arc, so r = cos(delta/2).  A 1-point spectrum has delta = 0 and r = 1.
    """
    return math.cos(delta / 2.0) if delta < math.pi else 0.0


def build_polygon(spectrum: EigenphaseSpectrum) -> PolygonK:
    """Origin distance and covering arc of the eigenvalue polygon."""
    delta = covering_arc(spectrum.phases)
    return PolygonK(phases=spectrum.phases, r=_origin_distance(delta), delta=delta)


def helstrom_error(overlap_sq: float) -> float:
    """Helstrom bound (1 - sqrt(1 - |<psi0|psi1>|^2)) / 2 for equiprobable states.

    Evaluated as o / (2 (1 + sqrt(1 - o))), which keeps every digit as o -> 0.
    """
    return overlap_sq / (2.0 * (1.0 + math.sqrt(1.0 - overlap_sq)))


def min_error_probability(polygon: PolygonK) -> float:
    """Helstrom bound at the optimal probe: P_E = (1 - sqrt(1 - r^2)) / 2."""
    return helstrom_error(polygon.r * polygon.r)


def spread_formula_error(delta: float) -> float:
    """Error probability as a function of the eigenphase spread.

    Evaluates the paper's (1 - sqrt(1 - cos^4(delta/2))) / 2 for delta < pi
    and 0 for delta >= pi, i.e. the Helstrom bound of r^4.  The polygon gives
    r = cos(delta/2) for every spectrum, so the exact error is that of r^2
    (min_error_probability); both routes are kept and reported side by side.
    """
    # r^4 correctly rounded: integer true division rounds once, with no libm pow
    n, d = _origin_distance(delta).as_integer_ratio()
    return helstrom_error(n**4 / d**4)


def _min_norm_point(phases: tuple[float, ...]) -> tuple[list[int], list[float], complex]:
    """Corral, simplex weights and point of conv{e^{i gamma_j}} nearest the origin.

    Wolfe's minimum-norm-point algorithm (Math. Programming 11, 128 (1976)),
    with its minor cycle in closed form on the unit circle: a chord's affine
    minimizer is its midpoint, a triangle's is the origin (its circumcentre),
    weighted by the sines of the opposite arcs.  A triangle with a weight
    <= 0 does not hold the origin and drops the vertex of most negative
    weight; if that is the new point, the cycle makes no progress.  A major
    cycle that does not make |x|^2 strictly smaller is roundoff, and ends the
    search.  The point is the weighted sum over the corral alone; the weights
    are an optimal probe, for r > 0 on the chord that closes the covering arc.
    """
    points = [cmath.exp(1j * p) for p in phases]
    corral, weights = [0], [1.0]
    x = points[0]
    x_sq = x.real * x.real + x.imag * x.imag
    while len(corral) < 3:
        dots = [pt.real * x.real + pt.imag * x.imag for pt in points]
        j = min(range(len(dots)), key=dots.__getitem__)  # the first minimum
        if j in corral or dots[j] >= x_sq:
            break
        members, lam = corral + [j], [0.5, 0.5]
        if len(corral) == 2:
            a, b = corral
            arcs = (phases[j] - phases[b], phases[a] - phases[j], phases[b] - phases[a])
            sines = [math.sin(t) for t in arcs]
            total = math.fsum(sines)
            outside = [k for k in range(3) if sines[k] * total <= 0.0]
            if not outside:
                lam = [t / total for t in sines]
            elif 2 in outside:
                break
            else:
                drop = max(outside, key=lambda k: abs(sines[k]))
                members = [corral[1 - drop], j]
        y = sum(w * points[i] for w, i in zip(lam, members))
        y_sq = y.real * y.real + y.imag * y.imag
        if y_sq >= x_sq:
            break
        corral, weights, x, x_sq = members, lam, y, y_sq
    return corral, weights, x


def brute_force_min_overlap(spectrum: EigenphaseSpectrum, n_samples: int = 100_000) -> float:
    """Minimum of |sum w_j e^{i gamma_j}| over the simplex, by Wolfe's algorithm.

    The oracle is exact and does not sample: n_samples is kept for existing
    callers, checked (>= 1) and otherwise unused.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    return abs(_min_norm_point(spectrum.phases)[2])


def copies_for_exact(polygon: PolygonK) -> int | None:
    """Smallest N with N * delta >= pi (origin enters the N-copy polygon).

    Returns None when delta = 0 (proportional unitaries: no number of copies
    ever helps), and raises OverflowError when pi/delta overflows.  The
    N-copy spread cap at 2pi does not matter for exactness, which only needs
    the covering arc to reach pi.
    """
    if polygon.delta == 0.0:
        return None
    return max(1, math.ceil(math.pi / polygon.delta - 1e-12))

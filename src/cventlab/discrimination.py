"""Minimum-error discrimination of two unitaries via eigenvalue geometry.

The reachable overlaps z = sum_j w_j e^{i gamma_j} (w on the probability
simplex) fill the convex polygon spanned by the eigenphases of U2^dag U1 on
the unit circle.  The best probe minimizes |z|, i.e. picks the polygon point
nearest the origin; exact discrimination is possible iff the polygon
contains the origin, which for points on a circle happens exactly when the
minimal covering arc of the phases reaches pi.

The oracle brute_force_min_overlap finds the same point exactly, without the
hull or the covering arc, by Wolfe's minimum-norm-point algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EigenphaseSpectrum:
    """Distinct eigenphases of U2^dag U1, reduced to [0, 2pi)."""

    phases: tuple[float, ...]

    def __post_init__(self):
        if len(self.phases) == 0:
            raise ValueError("spectrum must be nonempty")
        reduced = tuple(sorted({float(p) % (2.0 * math.pi) for p in self.phases}))
        object.__setattr__(self, "phases", reduced)


@dataclass(frozen=True)
class PolygonK:
    """Convex polygon of unit-circle eigenvalues with its origin distance."""

    phases: tuple[float, ...]  # sorted, deduplicated
    hull: tuple[complex, ...]  # vertices in angular order
    r: float  # min distance from the hull to the origin
    delta: float  # minimal covering arc of the phases


def covering_arc(phases: tuple[float, ...]) -> float:
    """Length of the minimal arc containing all phases: 2pi minus largest gap."""
    if len(phases) == 1:
        return 0.0
    p = np.sort(np.asarray(phases))
    gaps = np.diff(np.concatenate([p, [p[0] + 2.0 * math.pi]]))
    return float(2.0 * math.pi - gaps.max())


def _segment_point(a: complex, b: complex) -> tuple[float, float]:
    """Point a + t (b - a) of segment [a, b] nearest the origin, as (distance, t)."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(a), 0.0
    t = min(1.0, max(0.0, -(a.real * ab.real + a.imag * ab.imag) / denom))
    return abs(a + t * ab), t


def _nearest_edge_point(hull: tuple[complex, ...]) -> tuple[float, float, int, int]:
    """Hull-edge point nearest the origin, as (distance, t, i, j).

    The point is hull[i] + t (hull[j] - hull[i]).  The edges join angular
    neighbours; a 2-point hull has the single chord (0, 1).  Ties go to the
    first edge.
    """
    n = len(hull)
    edges = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    return min(((*_segment_point(hull[i], hull[j]), i, j) for i, j in edges),
               key=lambda point: point[0])


def build_polygon(spectrum: EigenphaseSpectrum) -> PolygonK:
    """Convex hull of the eigenvalues with min origin distance and covering arc.

    Points on a circle are automatically in convex position, so the hull is
    the angular ordering of the distinct phases.  r = 0 iff the covering arc
    is at least pi (origin inside or on the hull); otherwise r is the exact
    minimum over the hull edges (a single chord for a 2-point spectrum, the
    point itself for a 1-point spectrum).
    """
    phases = spectrum.phases
    hull = tuple(complex(math.cos(p), math.sin(p)) for p in phases)
    delta = covering_arc(phases)
    if len(hull) == 1:
        r = 1.0
    elif delta >= math.pi:
        r = 0.0
    else:
        r = _nearest_edge_point(hull)[0]
    return PolygonK(phases=phases, hull=hull, r=r, delta=delta)


def helstrom_error(overlap_sq: float) -> float:
    """Helstrom bound (1 - sqrt(1 - |<psi0|psi1>|^2)) / 2 for equiprobable states."""
    return 0.5 * (1.0 - math.sqrt(1.0 - overlap_sq))


def min_error_probability(polygon: PolygonK) -> float:
    """Helstrom bound at the optimal probe: P_E = (1 - sqrt(1 - r^2)) / 2."""
    r = min(polygon.r, 1.0)
    return helstrom_error(r * r)


def spread_formula_error(delta: float) -> float:
    """Error probability as a function of the eigenphase spread.

    Evaluates (1 - sqrt(1 - cos^4(delta/2))) / 2 for delta < pi and 0 for
    delta >= pi.  Note this closed form is not consistent with the hull
    geometry (which gives r = cos(delta/2), hence cos^2 rather than cos^4,
    for two-point spectra); both routes are kept and reported side by side.
    """
    if delta >= math.pi:
        return 0.0
    return helstrom_error(math.cos(delta / 2.0) ** 4)


def optimal_probe_weights(polygon: PolygonK) -> np.ndarray:
    """Probability weights over eigenvectors reaching the optimal overlap.

    For r > 0 the nearest hull point lies on an edge, so at most two weights
    are nonzero.  For r = 0 any convex combination summing to the origin is
    optimal; Wolfe's minimum-norm-point algorithm finds one.
    """
    hull = polygon.hull
    n = len(hull)
    if n == 1:
        return np.array([1.0])
    if polygon.r > 0.0:
        _, t, i, j = _nearest_edge_point(hull)
        w = np.zeros(n)
        w[i] = 1.0 - t
        w[j] = t
        return w
    return _min_norm_weights(np.asarray(polygon.phases))


def _min_norm_weights(phases: np.ndarray) -> np.ndarray:
    """Simplex weights of the point of conv{e^{i gamma_j}} nearest the origin.

    Wolfe's minimum-norm-point algorithm (Math. Programming 11, 128 (1976)),
    with its minor cycle in closed form on the unit circle: a chord's affine
    minimizer is its midpoint, a triangle's is the origin (its circumcentre),
    weighted by the sines of the opposite arcs.  A triangle with a weight
    <= 0 does not hold the origin and drops the vertex of most negative
    weight; if that is the new point, the cycle makes no progress.  A major
    cycle that does not make |x|^2 strictly smaller is roundoff, and ends the
    search.
    """
    points = np.exp(1j * phases)
    corral, weights = [0], [1.0]
    x = points[0]
    x_sq = x.real * x.real + x.imag * x.imag
    while len(corral) < 3:
        dots = points.real * x.real + points.imag * x.imag
        j = int(np.argmin(dots))
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
    w = np.zeros(len(phases))
    w[corral] = weights
    return w


def brute_force_min_overlap(spectrum: EigenphaseSpectrum, n_samples: int = 100_000) -> float:
    """Minimum of |sum w_j e^{i gamma_j}| over the simplex, by Wolfe's algorithm.

    The oracle is exact and does not sample: n_samples is kept for existing
    callers, checked (>= 1) and otherwise unused.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    phases = np.asarray(spectrum.phases)
    return float(abs(_min_norm_weights(phases) @ np.exp(1j * phases)))


def copies_for_exact(spectrum: EigenphaseSpectrum) -> int | None:
    """Smallest N with N * delta >= pi (origin enters the N-copy hull).

    Returns None when delta = 0 (proportional unitaries: no number of copies
    ever helps).  The N-copy spread cap at 2pi does not matter for exactness,
    which only needs the covering arc to reach pi.
    """
    delta = covering_arc(spectrum.phases)
    if delta == 0.0:
        return None
    return max(1, math.ceil(math.pi / delta - 1e-12))


def n_copy_spectrum(spectrum: EigenphaseSpectrum, n_copies: int) -> EigenphaseSpectrum:
    """Explicit eigenphases of (U2^dag U1)^{(x) N}: all N-fold sums mod 2pi."""
    if n_copies < 1:
        raise ValueError(f"n_copies must be >= 1, got {n_copies}")
    sums = {0.0}
    for _ in range(n_copies):
        sums = {(s + p) % (2.0 * math.pi) for s in sums for p in spectrum.phases}
    return EigenphaseSpectrum(tuple(sums))

"""Crossing angles of complete geodesics joining the ideal vertices of a
regular ideal d-gon: the shape a vertex polygon approaches as the boundary
lengths of the surface grow.

The pentagon chord angles lie in Z[sqrt(5)] and are computed exactly, in
integers (`_pentagon_cos`); `crossing_cos` at d = 5 is the float of that
exact value, and other degrees are double precision.  The paper's
trigonometry of surfaces with long boundaries (trirectangles, right-angled
hexagons, limiting rib lengths), which no command reaches, lives beside
the tests of acceptance criterion 7, in `tests/paper_geometry.py`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import Surd

__all__ = [
    "IdealPolygonChord",
    "chords_cross",
    "crossing_cos",
    "crossing_cos_error",
    "crossing_cos_exact",
]

# Orientation constant for the projective-model chord angle formula: with
# chords oriented so their endpoints interleave as (a, c, b, d) anticlockwise,
# cos of the anticlockwise angle from chord (a,b) to chord (c,d) equals
# SIGMA * Q(u_ab, u_cd) / (|u_ab| |u_cd|).  Pinned against the direct disk
# model computation (see tests).
SIGMA = 1


# -- chords of the regular ideal d-gon ----------------------------------------


class IdealPolygonChord:
    """Complete geodesic joining two ideal vertices of a regular ideal d-gon
    (vertices at the d-th roots of unity in the disk model)."""

    def __init__(self, d: int, ends):
        i, j = ends
        if d < 3:
            raise ValueError("polygon degree must be at least 3")
        if d > 10 ** 300:  # so that 2 pi k for k < d is a finite double
            raise ValueError("polygon degree must be at most 10^300")
        if not (0 <= i < d and 0 <= j < d) or i == j:
            raise ValueError(f"chord endpoints must be distinct vertices of the {d}-gon")
        self.d, self.ends = d, (i, j)


class NoCrossingError(ValueError):
    pass


def _between(x, lo, hi, n) -> bool:
    """Whether vertex x is one of lo, lo + 1, ..., hi - 1 (mod n)."""
    return (x - lo) % n < (hi - lo) % n


def chords_cross(c1: IdealPolygonChord, c2: IdealPolygonChord) -> bool:
    """Whether the chords cross in the open disk: endpoints interleave."""
    if c1.d != c2.d:
        raise ValueError("chords live in different polygons")
    a, b = c1.ends
    c, d = c2.ends
    if len({a, b, c, d}) < 4:
        return False
    return _between(c, a, b, c1.d) != _between(d, a, b, c1.d)


def _interleaved(c1: IdealPolygonChord, c2: IdealPolygonChord):
    """Orient the chords so the endpoints read (a, c, b, d) anticlockwise."""
    if not chords_cross(c1, c2):
        raise NoCrossingError(f"chords {c1.ends} and {c2.ends} do not cross")
    a, b = c1.ends
    c, d = c2.ends
    if not _between(c, a, b, c1.d):
        c, d = d, c
    return a, b, c, d


# 4 cos(2 pi k / 5) = c + s sqrt(5) as (c, s), k = 0..4
_PENTAGON_4COS = ((4, 0), (-1, 1), (-1, -1), (-1, -1), (-1, 1))


def _root_cos(d: int):
    """k -> cos(2 pi k / d) for any integer k, a float computed on demand,
    so the cost does not grow with d."""
    return lambda k: math.cos(2.0 * math.pi * (k % d) / d)


def _crossing_cos_from(a, b, c, e, C):
    """cos of the anticlockwise angle from chord (a,b) to chord (c,e),
    endpoints interleaved as (a, c, b, e), with C(k) = cos(2 pi k / d);
    works over floats or surds.

    Geodesics joining ideal points are planes in the projective model; the
    angle comes from the Minkowski product of their normals, with
    sin(x) sin(y) expanded into cosines so everything stays in the field.
    """
    # Q(u_ab, u_ce) with u the Minkowski normal of the chord's plane
    sinprod = (C((b - a) - (e - c)) - C((b - a) + (e - c))) * Fraction(1, 2)
    q = -sinprod + C(a - c) - C(a - e) - C(b - c) + C(b - e)
    norm = (1 - C(b - a)) * (1 - C(e - c))
    return SIGMA * q / norm


def _pentagon_cos(a, b, c, e):
    """`_crossing_cos_from` for d = 5 in integers: (x, y) for x + y sqrt(5).
    With T = 4 C, p = b - a and q = e - c it is 2 N / D, N = 2 T(a-c) -
    2 T(a-e) - 2 T(b-c) + 2 T(b-e) - T(p-q) + T(p+q), D = (4 - T(p)) (4 - T(q)):
    N times the conjugate of D, over the norm of D, a division that must be exact."""
    T = _PENTAGON_4COS
    p, q = b - a, e - c
    terms = ((2, a - c), (-2, a - e), (-2, b - c), (2, b - e), (-1, p - q), (1, p + q))
    nx, ny = (sum(m * T[k % 5][i] for m, k in terms) for i in (0, 1))
    (px, py), (qx, qy) = T[p % 5], T[q % 5]
    dx, dy = (4 - px) * (4 - qx) + 5 * py * qy, -((4 - px) * qy + py * (4 - qx))
    norm = dx * dx - 5 * dy * dy
    (x, rx), (y, ry) = (divmod(2 * SIGMA * v, norm) for v in (nx * dx - 5 * ny * dy,
                                                             ny * dx - nx * dy))
    if rx or ry:
        raise ArithmeticError(f"pentagon cosine at {(a, b, c, e)} is not in Z[sqrt(5)]")
    return x, y


def crossing_cos(c1: IdealPolygonChord, c2: IdealPolygonChord) -> float:
    """cos of the anticlockwise crossing angle (in (0, pi)) from c1 to c2.

    Antisymmetric under swapping the chords; double precision, and at d = 5
    the float of the exact `_pentagon_cos`.
    """
    a, b, c, e = _interleaved(c1, c2)
    if c1.d == 5:
        return float(Surd(*_pentagon_cos(a, b, c, e)))
    return _crossing_cos_from(a, b, c, e, _root_cos(c1.d))


def crossing_cos_error(c1: IdealPolygonChord, c2: IdealPolygonChord) -> float:
    """Estimated rounding error of `crossing_cos`: 16 eps / ((1 - C(b-a))
    (1 - C(e-c))), infinite if that product rounds to 0.  For short chords
    both factors and the numerator's six cosines cancel; against 60-digit
    cosines the error stayed below 8 eps over the product up to d = 10^5."""
    C = _root_cos(c1.d)  # 1 - C(k) is even in k: the chords' orientation is moot
    norm = float((1 - C(c1.ends[1] - c1.ends[0])) * (1 - C(c2.ends[1] - c2.ends[0])))
    return 16 * math.ulp(1.0) / norm if norm else math.inf


def crossing_cos_exact(c1: IdealPolygonChord, c2: IdealPolygonChord) -> Surd:
    """Exact crossing cosine in Z[sqrt(5)], in integers; only d = 5 is supported."""
    if c1.d != 5 or c2.d != 5:
        raise ValueError("exact chord angles are implemented for d = 5 only")
    return Surd(*_pentagon_cos(*_interleaved(c1, c2)))

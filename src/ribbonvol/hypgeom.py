"""Hyperbolic trigonometry for surfaces with long boundaries.

Quantitative pieces: the trirectangle relation cos(theta) = sinh(a) sinh(d/2)
bounding the common perpendicular of an edge hexagon, the right-angled
hexagon cosine rule, the limiting rib length acosh(1/sin(pi/d)) at a
degree-d vertex, and crossing angles of complete geodesics joining the
ideal vertices of a regular ideal d-gon (the shape a vertex polygon
approaches as the boundary lengths grow).

Everything is double precision except the pentagon chord angles, which are
also returned exactly in Q(sqrt(5)).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import Surd

__all__ = [
    "trirectangle_intercostal",
    "intercostal_bound",
    "hexagon_angle",
    "hexagon_side",
    "rib_length_limit",
    "vertex_angle_limit",
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


def trirectangle_intercostal(a: float, theta: float) -> float:
    """Length of the fourth side of a trirectangle with angle theta opposite
    a side of length a: delta = 2 asinh(cos theta / sinh a)."""
    if a <= 0:
        raise ValueError("side length must be positive")
    if not 0 < theta <= math.pi / 2:
        raise ValueError("angle must lie in (0, pi/2]")
    return 2.0 * math.asinh(math.cos(theta) / math.sinh(a))


def intercostal_bound(ell: float, N: float) -> float:
    """Upper bound 2 asinh(1/sinh(N ell / 2)) for the intercostal of an edge
    of length N*ell; decreasing in N and vanishing in the limit."""
    if ell <= 0 or N <= 0:
        raise ValueError("need positive edge length")
    return 2.0 * math.asinh(1.0 / math.sinh(N * ell / 2.0))


def hexagon_angle(a: float, b: float, c: float) -> float:
    """Angle opposite c in a hyperbolic triangle with sides a, b, c:
    cosh c = cosh a cosh b - sinh a sinh b cos theta."""
    if a <= 0 or b <= 0:
        raise ValueError("sides must be positive")
    x = (math.cosh(a) * math.cosh(b) - math.cosh(c)) / (math.sinh(a) * math.sinh(b))
    if 1.0 < abs(x) <= 1.0 + 1e-9:
        x = math.copysign(1.0, x)  # degenerate triangles round just outside
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"no hyperbolic triangle with sides ({a}, {b}, {c})")
    return math.acos(x)


def hexagon_side(a: float, b: float, theta: float) -> float:
    """Inverse of `hexagon_angle`: the side c from two sides and the angle."""
    if a <= 0 or b <= 0:
        raise ValueError("sides must be positive")
    return math.acosh(math.cosh(a) * math.cosh(b)
                      - math.sinh(a) * math.sinh(b) * math.cos(theta))


def rib_length_limit(d: int) -> float:
    """Limiting rib length acosh(1/sin(pi/d)) at a degree-d vertex."""
    if d < 3:
        raise ValueError("vertex degree must be at least 3")
    return math.acosh(1.0 / math.sin(math.pi / d))


def vertex_angle_limit(d: int) -> float:
    """Limiting angle between adjacent edges at a degree-d vertex: 2 pi / d."""
    if d < 3:
        raise ValueError("vertex degree must be at least 3")
    return 2.0 * math.pi / d


# -- chords of the regular ideal d-gon ----------------------------------------


class IdealPolygonChord:
    """Complete geodesic joining two ideal vertices of a regular ideal d-gon
    (vertices at the d-th roots of unity in the disk model)."""

    def __init__(self, d: int, ends):
        i, j = ends
        if d < 3:
            raise ValueError("polygon degree must be at least 3")
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


# cos(2 pi k / 5) in Q(sqrt(5)), k = 0..4
_PENTAGON_COS = (
    Surd(1),
    (Surd(0, 1) - 1) / 4,
    (Surd(0, 1) + 1) / -4,
    (Surd(0, 1) + 1) / -4,
    (Surd(0, 1) - 1) / 4,
)


def _root_cos(d: int):
    """k -> cos(2 pi k / d) for any integer k: exact for d = 5, else a float
    computed on demand, so the cost does not grow with d."""
    if d == 5:
        return lambda k: _PENTAGON_COS[k % 5]
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


def crossing_cos(c1: IdealPolygonChord, c2: IdealPolygonChord) -> float:
    """cos of the anticlockwise crossing angle (in (0, pi)) from c1 to c2.

    Antisymmetric under swapping the chords; double precision.
    """
    a, b, c, e = _interleaved(c1, c2)
    val = _crossing_cos_from(a, b, c, e, _root_cos(c1.d))
    return float(val)


def crossing_cos_error(c1: IdealPolygonChord, c2: IdealPolygonChord) -> float:
    """Estimated rounding error of `crossing_cos`: 16 eps / ((1 - C(b-a))
    (1 - C(e-c))), infinite if that product rounds to 0.  For short chords
    both factors and the numerator's six cosines cancel; against 60-digit
    cosines the error stayed below 8 eps over the product up to d = 10^5."""
    C = _root_cos(c1.d)  # 1 - C(k) is even in k: the chords' orientation is moot
    norm = float((1 - C(c1.ends[1] - c1.ends[0])) * (1 - C(c2.ends[1] - c2.ends[0])))
    return 16 * math.ulp(1.0) / norm if norm else math.inf


def crossing_cos_exact(c1: IdealPolygonChord, c2: IdealPolygonChord) -> Surd:
    """Exact crossing cosine in Q(sqrt(5)); only the pentagon is supported."""
    if c1.d != 5 or c2.d != 5:
        raise ValueError("exact chord angles are implemented for d = 5 only")
    a, b, c, e = _interleaved(c1, c2)
    return _crossing_cos_from(a, b, c, e, _root_cos(5))

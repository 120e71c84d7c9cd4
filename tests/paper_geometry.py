"""The paper's hyperbolic estimates and multicurve length limits, which no
command reaches: they live beside the tests of acceptance criteria 5-7.

The trirectangle relation cos(theta) = sinh(a) sinh(d/2) bounding the
common perpendicular of an edge hexagon, the right-angled hexagon cosine
rule, the limiting rib length acosh(1/sin(pi/d)) and vertex angle 2 pi / d
at a degree-d vertex, all in double precision; and the limiting length
of a multicurve on a ribbon graph, the sum of the traversed edge lengths,
with its split into a perimeter part and an edge residual, whose
differential is that residual.
The chord angles of the regular ideal polygon, which `witten12` does use,
stay in `ribbonvol.hypgeom`.
"""

import itertools
import math
from fractions import Fraction

from ribbonvol.exact import Poly
from ribbonvol.multicurve import Multicurve
from ribbonvol.ribbon import RibbonGraph


# -- hyperbolic trigonometry (criterion 7) --------------------------------------


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


# -- multicurve length limits (criterion 5) -------------------------------------


def limit_length(graph: RibbonGraph, mc: Multicurve) -> Poly:
    """Limiting normalised length: the sum of the traversed edge lengths."""
    E = graph.num_edges
    evars = tuple(f"e{i}" for i in range(1, E + 1))
    terms = {}
    for i, c in enumerate(mc.edge_counts(graph)):
        if c:
            exp = tuple(1 if j == i else 0 for j in range(E))
            terms[exp] = Fraction(c)
    return Poly(evars, terms)


def limit_length_reduced(graph: RibbonGraph, mc: Multicurve):
    """Split the limiting length into (perimeter part, edge part).

    Returns (lam, mu) with length = sum lam_i x_i + sum mu_e e_e, where the
    perimeter coefficients are chosen so the edge residual is supported on
    as few edges as possible (matching the x_i + x_j - 2 e_k shape of the
    standard system).  The split solves a small exact least-structure
    problem: lam is the rounded-down face incidence of the curve.
    """
    E = graph.num_edges
    A = graph.face_edge_matrix()
    counts = mc.edge_counts(graph)
    n = graph.num_faces
    bound = max(counts, default=0) + 1
    best = None
    for lam_try in itertools.product(range(bound), repeat=n):
        mu = [counts[e] - sum(lam_try[i] * A[i][e] for i in range(n)) for e in range(E)]
        if all(m <= 0 for m in mu):
            support = sum(1 for m in mu if m)
            key = (support, sum(-m for m in mu), lam_try)
            if best is None or key < best[0]:
                best = (key, list(lam_try), mu)
    if best is None:
        return [Fraction(0)] * n, counts
    return [Fraction(v) for v in best[1]], best[2]


def limit_differential(graph: RibbonGraph, mc: Multicurve):
    """d of the limiting length in de-coordinates, reduced on the cell.

    On {A e = x} the perimeter combinations are constant, so the reduced
    differential is the edge-residual part of `limit_length_reduced`.
    """
    _, mu = limit_length_reduced(graph, mc)
    return [Fraction(m) for m in mu]

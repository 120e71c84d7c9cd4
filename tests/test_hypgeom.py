import itertools
import math
import tracemalloc
from decimal import Decimal, localcontext

import pytest

import oracle_cells
from ribbonvol import hypgeom
from ribbonvol.exact import Surd
from ribbonvol.hypgeom import (
    IdealPolygonChord,
    NoCrossingError,
    chords_cross,
    crossing_cos,
    crossing_cos_error,
    crossing_cos_exact,
)
from paper_geometry import (
    hexagon_angle,
    hexagon_side,
    intercostal_bound,
    rib_length_limit,
    trirectangle_intercostal,
    vertex_angle_limit,
)


def test_trirectangle_right_angle_degenerates():
    assert trirectangle_intercostal(1.3, math.pi / 2) == pytest.approx(0.0, abs=1e-15)


def test_trirectangle_monotone_in_side():
    vals = [trirectangle_intercostal(a, 0.7) for a in (0.5, 1.0, 2.0, 4.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        trirectangle_intercostal(-1.0, 0.7)


def test_intercostal_bound_decreasing_and_vanishing():
    ell = 1.0
    Ns = [1, 2, 4, 8, 16, 32, 64]
    vals = [intercostal_bound(ell, N) for N in Ns]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert vals[-1] < 1e-13
    # quantitative form: below 1e-6 once N*ell >= 35
    assert intercostal_bound(0.5, 70) < 1e-6
    assert intercostal_bound(35.0, 1) < 1e-6


def test_hexagon_angle_degenerate_and_monotone():
    # c -> 0 with a = b: the angle closes up
    assert hexagon_angle(1.0, 1.0, 1e-9) == pytest.approx(0.0, abs=1e-4)
    angles = [hexagon_angle(1.0, 1.5, c) for c in (0.5, 1.0, 1.8, 2.4)]
    assert all(x < y for x, y in zip(angles, angles[1:]))
    with pytest.raises(ValueError):
        hexagon_angle(1.0, 1.0, 50.0)


def test_equilateral_angle_below_euclidean():
    assert hexagon_angle(1.0, 1.0, 1.0) < math.pi / 3


@pytest.mark.parametrize("a,b,c", [(0.7, 1.1, 1.5), (2.0, 0.4, 2.2), (1.0, 1.0, 0.5)])
def test_cosine_rule_round_trip(a, b, c):
    theta = hexagon_angle(a, b, c)
    assert hexagon_side(a, b, theta) == pytest.approx(c, rel=1e-12)


def test_rib_length_values():
    assert rib_length_limit(3) == pytest.approx(math.acosh(2 / math.sqrt(3)), rel=1e-12)
    assert rib_length_limit(4) == pytest.approx(math.acosh(math.sqrt(2)), rel=1e-12)
    vals = [rib_length_limit(d) for d in range(3, 40)]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        rib_length_limit(2)


def test_vertex_angle_limit_is_polygon_symmetry_angle():
    for d in range(3, 9):
        assert vertex_angle_limit(d) == pytest.approx(2 * math.pi / d)


def test_chord_validation():
    with pytest.raises(ValueError):
        IdealPolygonChord(5, (0, 0))
    with pytest.raises(ValueError):
        IdealPolygonChord(2, (0, 1))
    with pytest.raises(ValueError):
        IdealPolygonChord(5, (0, 7))


def test_a_polygon_degree_is_at_most_10_to_the_300():
    """2 pi k stays a finite double for every vertex k of an accepted
    polygon; past 10^300 the constructor refuses before any float."""
    d = 10**300
    diameters = IdealPolygonChord(d, (0, d // 2)), IdealPolygonChord(d, (d // 4, 3 * d // 4))
    assert crossing_cos(*diameters) == pytest.approx(0.0, abs=1e-12)
    far = IdealPolygonChord(d, (1, d - 1)), IdealPolygonChord(d, (0, d // 2))
    assert chords_cross(*far)
    assert crossing_cos_error(*far) == math.inf  # its cosine is lost to rounding
    with pytest.raises(ValueError, match="at most 10"):
        IdealPolygonChord(d + 1, (0, 1))


def test_crossing_detection():
    assert chords_cross(IdealPolygonChord(5, (0, 2)), IdealPolygonChord(5, (1, 3)))
    assert not chords_cross(IdealPolygonChord(5, (0, 1)), IdealPolygonChord(5, (2, 4)))
    # sharing an endpoint never crosses in the open disk
    assert not chords_cross(IdealPolygonChord(5, (0, 2)), IdealPolygonChord(5, (2, 4)))
    with pytest.raises(NoCrossingError):
        crossing_cos(IdealPolygonChord(5, (0, 1)), IdealPolygonChord(5, (2, 4)))


def test_pentagon_crossing_exact():
    val = crossing_cos_exact(IdealPolygonChord(5, (0, 2)), IdealPolygonChord(5, (1, 3)))
    assert val == Surd(-2, 1)
    assert float(val) == pytest.approx(math.sqrt(5) - 2, abs=1e-12)
    other = crossing_cos_exact(IdealPolygonChord(5, (0, 2)), IdealPolygonChord(5, (1, 4)))
    assert other in (Surd(-2, 1), Surd(2, -1))


def _crossing_pentagon_pairs():
    """The 40 ordered pairs of oriented pentagon chords that cross."""
    chords = [IdealPolygonChord(5, ends) for ends in itertools.permutations(range(5), 2)]
    return [(c1, c2) for c1 in chords for c2 in chords if chords_cross(c1, c2)]


def _pentagon_mismatches():
    """How many crossing pairs `_pentagon_cos` gets wrong (or cannot divide)
    against `_crossing_cos_from` over the oracle's `Surd` table
    `_PENTAGON_COS`."""
    bad = 0
    for c1, c2 in _crossing_pentagon_pairs():
        ends = hypgeom._interleaved(c1, c2)
        try:
            got = Surd(*hypgeom._pentagon_cos(*ends))
        except ArithmeticError:
            bad += 1
            continue
        bad += got != oracle_cells.pentagon_cos(*ends)
    return bad


def test_integer_pentagon_cosine_equals_the_surd_route():
    pairs = _crossing_pentagon_pairs()
    assert len(pairs) == 40
    assert _pentagon_mismatches() == 0
    for c1, c2 in pairs:
        x, y = hypgeom._pentagon_cos(*hypgeom._interleaved(c1, c2))
        assert (x, y) in ((-2, 1), (2, -1))  # +-(sqrt(5) - 2)
        assert hypgeom._pentagon_cos(*hypgeom._interleaved(c2, c1)) == (-x, -y)
        assert crossing_cos_exact(c1, c2) == Surd(x, y)


def test_integer_pentagon_table_holds_four_cosines():
    for k, (c, s) in enumerate(hypgeom._PENTAGON_4COS):
        assert Surd(c, s) == 4 * oracle_cells._PENTAGON_COS[k]
        assert c + s * math.sqrt(5) == pytest.approx(4 * math.cos(2 * math.pi * k / 5))


def test_pentagon_crossing_cos_is_the_float_of_the_surd_route():
    """At d = 5 the float cosine is the float of the exact one, and equals
    the float of the oracle's `Surd` route on all 40 crossing pairs: +-0.236...,
    bit for bit (`math.cos` in the float route differs in the last digits)."""
    pairs = _crossing_pentagon_pairs()
    assert len(pairs) == 40
    for c1, c2 in pairs:
        expected = float(oracle_cells.pentagon_cos(*hypgeom._interleaved(c1, c2)))
        assert crossing_cos(c1, c2) == expected == float(crossing_cos_exact(c1, c2))
        assert abs(expected) == 0.2360679774997898
        assert crossing_cos_error(c1, c2) < 1e-14


@pytest.mark.parametrize("k", range(5))
def test_a_sign_flip_in_the_integer_table_is_caught(monkeypatch, k):
    """Canary: with one entry of the integer table negated, the comparison
    against the `Surd` route fails."""
    table = list(hypgeom._PENTAGON_4COS)
    table[k] = (-table[k][0], -table[k][1])
    monkeypatch.setattr(hypgeom, "_PENTAGON_4COS", tuple(table))
    assert _pentagon_mismatches() > 0


def test_an_inexact_pentagon_division_raises(monkeypatch):
    """A table whose quotient leaves Z[sqrt(5)] is refused, not rounded."""
    table = ((4, 0), (1, -1)) + hypgeom._PENTAGON_4COS[2:]
    monkeypatch.setattr(hypgeom, "_PENTAGON_4COS", table)
    with pytest.raises(ArithmeticError, match=r"at \(0, 2, 1, 3\) is not in Z\[sqrt\(5\)\]"):
        hypgeom._pentagon_cos(0, 2, 1, 3)


def test_square_diameters_perpendicular():
    val = crossing_cos(IdealPolygonChord(4, (0, 2)), IdealPolygonChord(4, (1, 3)))
    assert val == pytest.approx(0.0, abs=1e-12)


def test_rotation_invariance_and_antisymmetry():
    for off in range(5):
        a = IdealPolygonChord(5, ((0 + off) % 5, (2 + off) % 5))
        b = IdealPolygonChord(5, ((1 + off) % 5, (3 + off) % 5))
        assert crossing_cos_exact(a, b) in (Surd(-2, 1), Surd(2, -1))
        assert crossing_cos_exact(a, b) == -crossing_cos_exact(b, a)


def _disk_model_cos(d, ch1, ch2):
    """Independent numeric oracle: circles orthogonal to the unit circle,
    intersection point, anticlockwise angle between tangent lines."""
    def pt(k):
        return complex(math.cos(2 * math.pi * k / d), math.sin(2 * math.pi * k / d))

    def geodesic(i, j):
        u, v = pt(i), pt(j)
        dot = u.real * v.real + u.imag * v.imag
        if abs(1 + dot) < 1e-13:
            w = v - u
            return ("line", w / abs(w))
        c = (u + v) / (1 + dot)
        return ("circle", c, math.sqrt(abs(c) ** 2 - 1.0))

    g1, g2 = geodesic(*ch1), geodesic(*ch2)

    def meet(g1, g2):
        if g1[0] == "line" and g2[0] == "line":
            return 0j
        if g1[0] == "line" or g2[0] == "line":
            line, circ = (g1, g2) if g1[0] == "line" else (g2, g1)
            w, c, r = line[1], circ[1], circ[2]
            b = -2 * (w.real * c.real + w.imag * c.imag)
            cc = abs(c) ** 2 - r * r
            disc = math.sqrt(b * b - 4 * cc)
            for t in ((-b + disc) / 2, (-b - disc) / 2):
                if abs(t * w) < 1:
                    return t * w
        c1, r1 = g1[1], g1[2]
        c2 = g2[1]
        dvec = c2 - c1
        perp = complex(-dvec.imag, dvec.real) / abs(dvec)
        b = -2 * (perp.real * c1.real + perp.imag * c1.imag)
        cc = abs(c1) ** 2 - r1 * r1
        disc = math.sqrt(b * b - 4 * cc)
        for t in ((-b + disc) / 2, (-b - disc) / 2):
            if abs(t * perp) < 1:
                return t * perp
        raise AssertionError("no interior intersection")

    p = meet(g1, g2)

    def tangent(g):
        if g[0] == "line":
            return g[1]
        radial = p - g[1]
        return complex(-radial.imag, radial.real)

    t1, t2 = tangent(g1), tangent(g2)
    phi = (math.atan2(t2.imag, t2.real) - math.atan2(t1.imag, t1.real)) % math.pi
    return math.cos(phi)


def test_against_disk_model_oracle():
    for d in (4, 5, 6, 8):
        for ch1 in itertools.combinations(range(d), 2):
            for ch2 in itertools.combinations(range(d), 2):
                c1, c2 = IdealPolygonChord(d, ch1), IdealPolygonChord(d, ch2)
                if not chords_cross(c1, c2):
                    continue
                assert crossing_cos(c1, c2) == pytest.approx(
                    _disk_model_cos(d, ch1, ch2), abs=1e-11)


def _table_crossing_cos(c1, c2):
    """The former route, kept as an oracle: a d-entry cosine table, read
    modulo d."""
    d = c1.d
    if d == 5:
        table = {k: oracle_cells._PENTAGON_COS[k] for k in range(5)}
    else:
        table = {k: math.cos(2.0 * math.pi * k / d) for k in range(d)}
    a, b, c, e = hypgeom._interleaved(c1, c2)
    return float(hypgeom._crossing_cos_from(a, b, c, e, lambda k: table[k % d]))


def test_on_demand_cosines_equal_the_table_route():
    for d in range(3, 13):
        for ch1 in itertools.combinations(range(d), 2):
            for ch2 in itertools.combinations(range(d), 2):
                c1, c2 = IdealPolygonChord(d, ch1), IdealPolygonChord(d, ch2)
                if chords_cross(c1, c2):
                    assert crossing_cos(c1, c2) == _table_crossing_cos(c1, c2)


def test_crossing_cos_memory_does_not_grow_with_degree():
    d = 10**6
    c1 = IdealPolygonChord(d, (0, d // 2))
    c2 = IdealPolygonChord(d, (d // 4, 3 * d // 4))
    tracemalloc.start()
    try:
        val = crossing_cos(c1, c2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert val == pytest.approx(0.0, abs=1e-9)  # perpendicular diameters
    assert peak < 1_000_000


def _decimal_crossing_cos(c1, c2):
    """The formula of `_crossing_cos_from` in 60-digit decimals, cosines by
    Taylor series: the oracle for the float route's rounding error."""
    with localcontext() as ctx:
        ctx.prec = 60
        pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")

        def cos(k):
            x, term, total, j = 2 * pi * (k % c1.d) / c1.d, Decimal(1), Decimal(1), 0
            while abs(term) > Decimal(10) ** -58:
                j += 2
                term = -term * x * x / (j * (j - 1))
                total += term
            return total

        a, b, c, e = hypgeom._interleaved(c1, c2)
        sinprod = (cos((b - a) - (e - c)) - cos((b - a) + (e - c))) / 2
        q = -sinprod + cos(a - c) - cos(a - e) - cos(b - c) + cos(b - e)
        return float(hypgeom.SIGMA * q / ((1 - cos(b - a)) * (1 - cos(e - c))))


@pytest.mark.parametrize("d", [7, 100, 1000, 3000, 10**4, 3 * 10**4, 10**5])
def test_crossing_cos_error_bounds_the_rounding_error(d):
    """The estimate is above the float route's distance from the 60-digit
    value for short chords, where both factors of the denominator cancel,
    and for long ones."""
    for ch1, ch2 in [((0, 2), (1, 3)), ((0, 3), (1, 4)), ((0, 3), (2, 5)),
                     ((0, d // 2), (1, d // 2 + 1)), ((0, d // 3 + 1), (1, 2 * d // 3 + 2))]:
        c1, c2 = IdealPolygonChord(d, ch1), IdealPolygonChord(d, ch2)
        assert abs(crossing_cos(c1, c2) - _decimal_crossing_cos(c1, c2)) <= crossing_cos_error(c1, c2)

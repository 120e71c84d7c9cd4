from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_poly import oracle_poly_str, oracle_sorted_terms
from ribbonvol.exact import Poly, poly_integrate


def L(i):
    return Poly.variable(f"L{i}", (f"L{i}",))


def test_construction_drops_zeros():
    p = Poly(("x",), {(1,): Fraction(0), (2,): Fraction(3)})
    assert p.terms == {(2,): Fraction(3)}


def test_arithmetic_and_vars_merge():
    p = L(1) * L(2) + L(1)
    q = L(2) - 1
    r = p * q
    assert r.evaluate({"L1": Fraction(2), "L2": Fraction(5)}) == (2 * 5 + 2) * (5 - 1)
    assert (p - p).is_zero()
    s = L(1) + L(2)
    assert s * s == L(1) * L(1) + 2 * L(1) * L(2) + L(2) * L(2)


def test_substitute_polynomial_bound():
    p = Poly.variable("x") * Poly.variable("x")
    out = p.substitute("x", L(1) - L(2))
    assert out == L(1) * L(1) - 2 * L(1) * L(2) + L(2) * L(2)


def test_integrate_simple():
    # definite integral of x over [0, L]
    p = Poly.variable("x")
    out = poly_integrate(p, "x", Poly.const(0), L(1))
    assert out == L(1) * L(1) * Fraction(1, 2)


def test_integrate_constant_in_missing_variable():
    one = Poly.const(1, ())
    lo = L(1) - L(2)
    hi = L(1) + L(2)
    assert poly_integrate(one, "x", lo, hi) == 2 * L(2)


def test_integrate_reversed_bounds_is_signed():
    p = Poly.variable("x")
    a, b = Poly.const(0), Poly.const(3)
    assert poly_integrate(p, "x", b, a) == -poly_integrate(p, "x", a, b)


@pytest.mark.parametrize("seed", range(5))
def test_integration_against_quadrature(seed):
    """Compare the exact definite integral of (L0-x)*x on [0, L0-L1] with
    adaptive numeric quadrature at random rational parameter values."""
    import random

    from scipy.integrate import quad

    rng = random.Random(seed)
    L0 = Fraction(rng.randint(5, 20), rng.randint(1, 3))
    L1 = Fraction(rng.randint(1, 10), rng.randint(1, 4))
    x = Poly.variable("x")
    p = (Poly.const(L0) - x) * x
    exact = poly_integrate(p, "x", Poly.const(0), Poly.const(L0 - L1))
    val = exact.terms.get((0,) * len(exact.vars), Fraction(0))
    ref, err = quad(lambda t: (float(L0) - t) * t, 0.0, float(L0 - L1))
    assert abs(float(val) - ref) <= max(1e-9, 10 * err)


def test_homogeneity_and_degrees():
    p = L(1) * L(1) * L(2) + L(2) * L(2) * L(2)
    assert {sum(e) for e in p.terms} == {3}
    assert p.total_degree() == 3
    assert {sum(e) for e in (p + L(1)).terms} == {1, 3}


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                          st.integers(-9, 9)), max_size=6),
       st.integers(1, 7), st.integers(1, 7))
def test_evaluation_is_ring_homomorphism(terms, a, b):
    p = Poly(("x", "y"), {(e1, e2): Fraction(c) for e1, e2, c in terms})
    q = Poly(("x", "y"), {(1, 0): Fraction(2), (0, 1): Fraction(-1)})
    point = {"x": Fraction(a), "y": Fraction(b)}
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


# A polynomial in zero to four variables with up to 12 terms of degree at
# most 5 each, so degrees repeat and the order within a degree matters;
# coefficients 1 and -1, other integers and fractions of either sign.
COEFFICIENTS = st.sampled_from([1, -1]) | st.integers(-30, 30) | st.fractions(
    min_value=-5, max_value=5, max_denominator=12)


@st.composite
def polys(draw):
    vars = ("x", "y", "z", "w")[:draw(st.integers(0, 4))]
    exps = st.tuples(*[st.integers(0, 5)] * len(vars))
    return Poly(vars, draw(st.dictionaries(exps, COEFFICIENTS, max_size=12)))


@settings(max_examples=300, deadline=None)
@given(polys())
def test_display_equals_the_old_per_term_routes(p):
    """The two C-level sorts give the order of the old per-term key, and
    `str`, which reads one list of (exp, str(c)) pairs, gives the old text,
    on constants, the zero polynomial, polynomials in no variable and
    non-homogeneous ones with negative coefficients."""
    assert p._sorted_terms() == oracle_sorted_terms(p)
    assert p._term_texts() == [(e, str(c)) for e, c in oracle_sorted_terms(p)]
    assert str(p) == oracle_poly_str(p)


def test_display_of_signs_units_and_constants():
    x, y = Poly.variable("x", ("x", "y")), Poly.variable("y", ("x", "y"))
    assert str(Poly.zero(("x",))) == "0"
    assert str(Poly.const(Fraction(-3, 4))) == "-3/4"
    assert str(-x * x * y + y - 1) == "-x^2*y + y - 1"
    assert str(Fraction(-1, 2) * x - y * y * y) == "-y^3 - 1/2*x"


def test_a_fraction_coefficient_is_kept_and_any_other_made_one():
    """A coefficient of type `Fraction` is stored as given; an int, or an
    instance of a `Fraction` subclass, becomes a plain `Fraction`."""
    class Half(Fraction):
        pass

    c = Fraction(3, 7)
    p = Poly(("x", "y"), {(1, 0): c, (0, 1): 2, (0, 0): Half(1, 2)})
    assert p.terms[(1, 0)] is c
    assert [type(v) for v in p.terms.values()] == [Fraction] * 3
    assert p.terms == {(1, 0): c, (0, 1): Fraction(2), (0, 0): Fraction(1, 2)}

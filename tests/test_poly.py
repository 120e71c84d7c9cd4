from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

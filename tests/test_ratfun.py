from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_ratfun import pairwise_add, pairwise_sum
from oracle_volumes import laplace
from ribbonvol.exact import (
    Poly,
    RationalFunction,
    orthant_exponential_integral,
)

SV = ("s1", "s2", "s3")


def test_laplace_monomials():
    # x^2 -> 2/s^3, the Gamma integral
    p = Poly(("x1",), {(2,): Fraction(1)})
    rf = laplace(p)
    assert str(rf) == "2/s1^3"
    one = Poly(("x1",), {(0,): Fraction(1)})
    assert str(laplace(one)) == "1/s1"


def test_laplace_double_factorial_chain():
    # (2a)!/(2^a a!) = (2a-1)!! up to a = 6
    from math import factorial

    from ribbonvol.exact import double_factorial

    for a in range(7):
        assert factorial(2 * a) == 2**a * factorial(a) * double_factorial(2 * a - 1)


def test_laplace_linear_and_multiplicative_across_disjoint_vars():
    p = Poly(("x1",), {(3,): Fraction(2)})
    q = Poly(("x2",), {(1,): Fraction(1)})
    pq = p.with_vars(("x1", "x2")) * q.with_vars(("x1", "x2"))
    point = {"s1": Fraction(3, 2), "s2": Fraction(7, 3)}
    assert laplace(pq).evaluate(point) == \
        laplace(p).evaluate(point) * laplace(q).evaluate(point)
    p2 = Poly(("x1",), {(3,): Fraction(1), (0,): Fraction(4)})
    assert laplace(p2).evaluate(point) == \
        (laplace(Poly(("x1",), {(3,): Fraction(1)})).evaluate(point)
         + 4 * laplace(Poly(("x1",), {(0,): Fraction(1)})).evaluate(point))


def test_orthant_integral_single_face():
    # one face on both sides of every edge: each edge contributes 1/(2s)
    A = [[2, 2, 2]]
    rf = orthant_exponential_integral(A, ("s1",))
    assert str(rf) == "1/(8 s1^3)"


def test_orthant_integral_mixed():
    A = [[1, 1, 0, 0], [1, 1, 2, 2]]
    rf = orthant_exponential_integral(A, ("s1", "s2"))
    assert str(rf) == "1/(4 (s1+s2)^2 s2^2)"


def test_orthant_integral_fubini_oracle():
    """The factored form must match the iterated 1-d integrals
    prod_e 1/<s, A col e> at random rational points."""
    import random

    rng = random.Random(11)
    A = [[1, 0, 1], [1, 2, 0], [0, 0, 1]]
    rf = orthant_exponential_integral(A, SV)
    for _ in range(10):
        pt = {v: Fraction(rng.randint(1, 30), rng.randint(1, 7)) for v in SV}
        direct = Fraction(1)
        for e in range(3):
            direct /= sum(pt[SV[i]] * A[i][e] for i in range(3))
        assert rf.evaluate(pt) == direct


def test_orthant_rejects_bad_columns():
    with pytest.raises(ValueError):
        orthant_exponential_integral([[1, 2], [0, 1]], ("s1", "s2"))


def test_add_reduces_to_known_total():
    a = RationalFunction.from_factors(("s1", "s2"), Fraction(1, 2), [(0,), (1,), (1,), (1,)])
    b = RationalFunction.from_factors(("s1", "s2"), Fraction(1, 2), [(0,), (0,), (0,), (1,)])
    total = a + b
    num = total.num.with_vars(("s1", "s2"))
    assert num.terms == {(2, 0): Fraction(1), (0, 2): Fraction(1)}
    assert total.den == {(0,): 3, (1,): 3}
    assert total.scalar == Fraction(1, 2)


def test_cancellation_of_shared_factor():
    sv = ("s1", "s2")
    one_over = RationalFunction.from_factors(sv, 1, [(0, 1), (0,)])
    # (s1+s2)/(s1+s2)/s1 collapses
    num = Poly(sv, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    rf = RationalFunction(sv, 1, num, {(0, 1): 1, (0,): 1}).reduced()
    assert rf == RationalFunction.from_factors(sv, 1, [(0,)])
    assert rf != one_over


def test_equality_by_subtraction():
    sv = ("s1", "s2")
    a = RationalFunction.from_factors(sv, Fraction(1, 4), [(0,), (0, 1)])
    b = RationalFunction.from_factors(sv, Fraction(1, 4), [(0,), (0, 1)])
    c = RationalFunction.from_factors(sv, Fraction(1, 3), [(0,), (0, 1)])
    assert a == b
    assert a != c


@settings(max_examples=40)
@given(st.lists(st.sampled_from([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]),
                min_size=1, max_size=4),
       st.lists(st.sampled_from([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]),
                min_size=1, max_size=4),
       st.integers(1, 60), st.integers(1, 60), st.integers(1, 60))
def test_sum_evaluates_pointwise(f1, f2, a, b, c):
    sv = SV
    x = RationalFunction.from_factors(sv, Fraction(1, 2), f1)
    y = RationalFunction.from_factors(sv, Fraction(-2, 3), f2)
    pt = {"s1": Fraction(a, 7), "s2": Fraction(b, 5), "s3": Fraction(c, 11)}
    assert (x + y).evaluate(pt) == x.evaluate(pt) + y.evaluate(pt)
    assert (x * y).evaluate(pt) == x.evaluate(pt) * y.evaluate(pt)


FACTORS = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]


@st.composite
def rational_functions(draw, dens):
    """A term over SV with a denominator drawn from `dens`, a scalar that may
    be zero and a numerator of up to three monomials."""
    monomials = st.tuples(*[st.integers(0, 2)] * len(SV))
    num = Poly(SV, draw(st.dictionaries(monomials, st.integers(-3, 3), max_size=3)))
    scalar = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
    den = {}
    for f in draw(dens):
        den[f] = den.get(f, 0) + 1
    return RationalFunction(SV, scalar, num, den)


@st.composite
def term_lists(draw):
    """Lists of terms whose denominators come from a small pool, so some are
    shared; about a third of the lists are extended by their negations and
    cancel to zero."""
    pool = draw(st.lists(st.lists(st.sampled_from(FACTORS), max_size=4),
                         min_size=1, max_size=3))
    terms = draw(st.lists(rational_functions(st.sampled_from(pool)),
                          min_size=1, max_size=5))
    if draw(st.integers(0, 2)) == 0:
        terms += [-t for t in draw(st.permutations(terms))]
    return terms


@settings(max_examples=150, deadline=None)
@given(term_lists())
def test_sum_equals_the_pairwise_fold(terms):
    total = RationalFunction.sum(terms)
    oracle = pairwise_sum(terms)
    assert str(total) == str(oracle)
    assert total.canonical_key() == oracle.canonical_key()
    assert str(terms[0] + terms[-1]) == str(pairwise_add(terms[0], terms[-1]).reduced())


@settings(max_examples=150, deadline=None)
@given(term_lists())
def test_equality_agrees_with_the_reduced_difference(terms):
    """`==` reads zero-ness off the difference, which `RationalFunction.sum`
    has already reduced; reducing it once more gives the same verdict.  On a
    list extended by its negations the first term equals minus the rest."""
    first = terms[0]
    rest = -RationalFunction.sum(terms[1:] or [RationalFunction.zero(SV)])
    for x, y in ((first, terms[-1]), (first, first.reduced()), (first, rest)):
        assert (x == y) == (x - y).reduced().is_zero()
    assert first == first.reduced()


def test_sum_of_a_cancelling_list_is_zero():
    a = RationalFunction(SV, 3, Poly(SV, {(1, 0, 0): 1, (0, 1, 0): 1}), {(0, 1): 2, (2,): 1})
    b = RationalFunction.from_factors(SV, Fraction(1, 2), [(0,), (1, 2)])
    total = RationalFunction.sum([a, b, -a, RationalFunction.zero(SV), -b])
    assert total.is_zero() and str(total) == "0"
    assert total.canonical_key() == RationalFunction.zero(SV).canonical_key()


@settings(max_examples=60, deadline=None)
@given(rational_functions(st.lists(st.sampled_from(FACTORS), max_size=4)))
def test_sum_of_one_term_is_the_term_reduced(term):
    total, reduced = RationalFunction.sum([term]), term.reduced()
    assert (total.scalar, total.den, total.num.terms) == (
        reduced.scalar, reduced.den, reduced.num.terms)
    assert str(total) == str(reduced)


def test_sum_of_no_terms_raises():
    with pytest.raises(ValueError):
        RationalFunction.sum([])

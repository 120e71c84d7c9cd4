from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ribbonvol.exact import Surd, sqrt5


def rational(max_num=50):
    return st.builds(Fraction,
                     st.integers(-max_num, max_num),
                     st.integers(1, max_num))


def surds():
    return st.builds(Surd, rational(), rational())


def test_basic_values():
    r5 = sqrt5()
    assert (r5 - 2) * (r5 + 2) == 1
    assert r5 * r5 == 5
    assert float(r5 - 2) == pytest.approx(5**0.5 - 2)


def test_embedding_of_rationals():
    x = Surd(Fraction(3, 4))
    assert x.is_rational
    assert x.as_fraction() == Fraction(3, 4)
    assert x + Fraction(1, 4) == 1
    with pytest.raises(ValueError):
        sqrt5().as_fraction()


def test_division_and_inverse():
    x = Surd(3) + sqrt5()
    assert (1 / x) * x == 1
    assert x / x == 1
    with pytest.raises(ZeroDivisionError):
        Surd(0).inverse()


def test_from_json_rejects_other_roots():
    assert Surd.from_json({"a": "-2", "b": "1", "D": 5}) == sqrt5() - 2
    with pytest.raises(ValueError):
        Surd.from_json({"a": "0", "b": "1", "D": 2})


@settings(max_examples=100)
@given(surds(), surds(), surds())
def test_field_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=100)
@given(surds())
def test_inverse_roundtrip(a):
    if a != 0:
        assert a * a.inverse() == 1
    assert Surd.from_json(a.to_json()) == a


def _stored_as_fractions(x):
    return isinstance(x, Surd) and type(x.a) is type(x.b) is Fraction


@settings(max_examples=100)
@given(surds(), surds(), st.integers(-20, 20))
def test_ring_results_store_fractions(a, b, k):
    results = [a + b, a - b, a * b, -a, a + k, k + a, a - k, k - a, a * k, k * a]
    if b != 0:
        results += [a / b, b.inverse(), k / b]
    if k:
        results.append(a / k)
    assert all(_stored_as_fractions(x) for x in results)


@settings(max_examples=100)
@given(surds(), st.integers(-20, 20))
@example(Surd(Fraction(1, 3), Fraction(-2, 5)), 0)
@example(Surd(Fraction(1, 3), Fraction(-2, 5)), -3)
def test_int_scaling_equals_surd_product(s, k):
    assert s * k == s * Surd(k) == k * s
    assert _stored_as_fractions(s * k) and _stored_as_fractions(k * s)


@settings(max_examples=50)
@given(surds())
def test_bool_scalar_is_coerced(s):
    assert s * True == s and True * s == s
    assert s * False == 0
    assert _stored_as_fractions(s * True)

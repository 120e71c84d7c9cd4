import itertools
from fractions import Fraction
from math import comb, factorial, prod

import pytest

import oracle_volumes
from oracle_volumes import NotABaseCase, base_case, wp_volume_asymptotic
from psi_order import in_lexicographic_order
from ribbonvol.exact import Poly, double_factorial
import ribbonvol.volumes as volumes
from ribbonvol.volumes import (
    UnstableInput,
    _bracket,
    _dvv,
    _key,
    _laplace_coefficients,
    kontsevich_volume,
    lhs_laplace,
    psi_numbers,
)


def _psi_weight(d):
    """The weight that makes `_bracket` the psi number <tau_ds>."""
    return double_factorial(2 * d + 1)


# every stable (g, n) with 3g-3+n <= 6
TYPES_UP_TO_6 = [(g, n) for g in range(3) for n in range(1, 10)
                 if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= 6]


def L(i):
    return Poly.variable(f"L{i}", (f"L{i}",))


def test_base_cases():
    assert base_case(0, 3) == L(1) * L(2) * L(3)
    assert base_case(1, 1) == L(1) * L(1) * L(1) * Fraction(1, 48)
    with pytest.raises(NotABaseCase):
        base_case(0, 4)


def test_unstable_rejected():
    for g, n in [(0, 1), (0, 2), (1, 0)]:
        with pytest.raises(UnstableInput):
            kontsevich_volume(g, n)


def test_four_boundary_sphere():
    # the psi numbers of (0,4) are all 1, so every coefficient is 1/2^1;
    # cross-checked against the graph sum in test_kformula via the Laplace
    # identity
    W = kontsevich_volume(0, 4)
    Ls = [L(i) for i in range(1, 5)]
    prod = Ls[0] * Ls[1] * Ls[2] * Ls[3]
    expected = prod * sum((x * x for x in Ls), Poly.zero(())) * Fraction(1, 2)
    assert W == expected


def test_two_boundary_torus():
    W = kontsevich_volume(1, 2)
    squares = L(1) * L(1) + L(2) * L(2)
    expected = L(1) * L(2) * squares * squares * Fraction(1, 192)
    assert W == expected


@pytest.mark.parametrize("g,n", [(0, 3), (1, 1), (0, 4), (1, 2), (0, 5), (1, 3), (2, 1),
                                 (0, 6), (1, 4), (2, 3), (3, 1), (1, 5)])
def test_volume_polynomial_invariants(g, n):
    W = kontsevich_volume(g, n)
    d = 6 * g - 6 + 3 * n
    assert {sum(e) for e in W.terms} == {d}
    # odd exponent in every variable, positive coefficients
    for exp, c in W.terms.items():
        assert all(e % 2 == 1 for e in exp)
        assert c > 0
    # symmetric under every transposition of labels
    for i, j in itertools.combinations(range(n), 2):
        names = list(W.vars)
        names[i], names[j] = names[j], names[i]
        assert Poly(tuple(names), W.terms) == W


@pytest.mark.parametrize("g,n", [(g, n) for g, n in TYPES_UP_TO_6 if 3 * g - 3 + n <= 4]
                         + [(2, 3), (3, 1), (1, 5)])
def test_volumes_and_psi_numbers_equal_the_boundary_splitting_oracle(g, n):
    W = kontsevich_volume(g, n)
    assert W.vars == tuple(f"L{i}" for i in range(1, n + 1))
    assert W.terms == oracle_volumes.kontsevich_volume(g, n).terms
    assert psi_numbers(g, n) == oracle_volumes.psi_numbers(g, n)


# the types whose (g, n-1) is stable too
TYPES_WITH_STABLE_FORGET = [(g, n) for g, n in TYPES_UP_TO_6 if (g, n - 1) in TYPES_UP_TO_6]


@pytest.mark.parametrize("g,n", TYPES_WITH_STABLE_FORGET)
def test_string_equation(g, n):
    """<tau_0 tau_S>_g = sum_j <tau_S with d_j lowered by one>_g."""
    small = psi_numbers(g, n - 1)
    for alpha, val in psi_numbers(g, n).items():
        if alpha[-1] != 0:
            continue
        S = alpha[:-1]
        expected = sum(small[S[:j] + (S[j] - 1,) + S[j + 1:]]
                       for j in range(n - 1) if S[j] > 0)
        assert val == expected


@pytest.mark.parametrize("g,n", TYPES_WITH_STABLE_FORGET)
def test_dilaton_equation(g, n):
    """<tau_1 tau_S>_g = (2g-2+|S|) <tau_S>_g."""
    small = psi_numbers(g, n - 1)
    for alpha, val in psi_numbers(g, n).items():
        if alpha[-1] == 1:
            assert val == (2 * g - 3 + n) * small[alpha[:-1]]


def _sorted_tuples(total, parts, top):
    """The tuples of `parts` integers >= 0 summing to `total`, each sorted in
    decreasing order with entries at most `top`: the keys `_bracket` reads."""
    if parts == 0:
        return [()] if total == 0 else []
    return [(first,) + rest for first in range(min(top, total), -1, -1)
            for rest in _sorted_tuples(total - first, parts - 1, first)]


# every stable (g, n) with 3g-3+n <= 12
TYPES_UP_TO_12 = [(g, n) for g in range(5) for n in range(1, 16)
                  if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= 12]


def _keys_of(g, n):
    return _sorted_tuples(3 * g - 3 + n, n, 3 * g - 3 + n)


@pytest.mark.parametrize("g,n", TYPES_UP_TO_12)
def test_integer_dvv_equals_the_fraction_dvv(g, n):
    """`_dvv` runs the smallest-index recursion on the integers
    24^g g! prod (2d_i+1)!! <tau>, the oracle the same recursion in
    `Fraction`s: the two agree on every key."""
    keys = _keys_of(g, n)
    assert keys
    for ds in keys:
        assert type(_dvv(ds)) is int
        assert _bracket(ds, _psi_weight) == oracle_volumes.smallest_index_tau(ds), ds


# the types the largest-index oracle reaches in about 3 s together: all
# 41 with d <= 12 but (0,14) and (0,15).  Its subset splits run over all
# 2^(n-1) subsets at each peeled index above 1, with the dimension test
# before the lookups: those two would add 2.7 and 9.2 s.
TYPES_FOR_THE_LARGEST_INDEX = [(g, n) for g, n in TYPES_UP_TO_12 if n <= 13]


@pytest.mark.parametrize("g,n", TYPES_FOR_THE_LARGEST_INDEX)
def test_smallest_index_dvv_equals_the_largest_index_oracle(g, n):
    """`_dvv` peels the smallest index, the oracle the largest: the two walk
    the DVV relation through different brackets to the same numbers."""
    keys = _keys_of(g, n)
    assert keys
    for ds in keys:
        assert _bracket(ds, _psi_weight) == oracle_volumes.tau(ds), ds


def test_a_wrong_seed_fails_the_oracle_or_the_halving():
    """Canary for the integer seeds: with M(1) = 4 in place of 3, that is
    <tau_1>_1 = 1/6, either a half-sum comes out odd or some bracket with
    d <= 12 differs from the `Fraction` oracle's."""
    keys = [ds for g, n in TYPES_UP_TO_12 for ds in _keys_of(g, n)]
    volumes._SEEDS[(1,)] = 4
    _dvv.cache_clear()
    try:
        caught = any(_bracket(ds, _psi_weight) != oracle_volumes.smallest_index_tau(ds)
                     for ds in keys)
    except ArithmeticError:
        caught = True
    finally:
        volumes._SEEDS[(1,)] = 3
        _dvv.cache_clear()
    assert caught


# every stable (g, n) with 3g-3+n <= 8, in order of d, then of n
TYPES_UP_TO_8 = sorted(((g, n) for g, n in TYPES_UP_TO_12 if 3 * g - 3 + n <= 8),
                       key=lambda t: (3 * t[0] - 3 + t[1], t[1]))


@pytest.mark.parametrize("g,n", TYPES_UP_TO_8)
def test_kdv_equals_the_integer_dvv(g, n):
    """`kdv_tau` reaches each bracket by the string and dilaton equations
    and the KdV hierarchy, a route that shares no recursion with DVV: the
    two agree on every key."""
    keys = _keys_of(g, n)
    assert keys
    for ds in keys:
        assert oracle_volumes.kdv_tau(ds) == _bracket(ds, _psi_weight), ds


def test_a_third_for_the_kdv_quarter_fails_first_at_tau_4():
    """Canary for the KdV oracle: with 1/3 in place of the hierarchy's 1/4,
    the first key that differs from DVV, in order of d, is <tau_4>_2, where
    it gives 1/864 against 1/1152.  Genus 0 and 1 never reach the term."""
    wrong = oracle_volumes._kdv(Fraction(1, 3))
    first = next(ds for g, n in TYPES_UP_TO_8 for ds in _keys_of(g, n)
                 if wrong(ds) != _bracket(ds, _psi_weight))
    assert first == (4,)
    assert (wrong(first), oracle_volumes.kdv_tau(first)) == (Fraction(1, 864), Fraction(1, 1152))


@pytest.mark.parametrize("n", range(3, 11))
def test_kdv_in_genus_zero_is_the_multinomial(n):
    """<tau_ds>_0 = (n-3)! / prod d_i! on every key of (0, n)."""
    for ds in _keys_of(0, n):
        assert oracle_volumes.kdv_tau(ds) == Fraction(
            factorial(n - 3), prod(map(factorial, ds))), ds


@pytest.mark.parametrize("g", range(1, 30))
def test_kdv_one_point_numbers(g):
    """<tau_{3g-2}>_g = 1/(24^g g!), up to the genus of the (29,1) table
    that scale/test_at_scale.py checks."""
    assert oracle_volumes.kdv_tau((3 * g - 2,)) == Fraction(1, 24 ** g * factorial(g))


def test_smallest_index_dvv_keeps_the_cache_small():
    """Canary for the peeled index: with the string and dilaton steps taken
    on the smallest index, and a subset split skipped when its first half
    has no genus, <tau_28>_10 reaches 304 brackets of `_dvv` (469 without
    the skip); peeling the largest reaches 4731."""
    _dvv.cache_clear()
    psi_numbers(10, 1)
    assert _dvv.cache_info().currsize == 304


@pytest.mark.parametrize("g,n", TYPES_UP_TO_12)
def test_each_key_is_divided_as_the_earlier_routes_divided_it(g, n):
    """`_bracket` divides each sorted key's M once, by the weight its
    reader names: (2d+1)!! gives `_tau`'s psi number, (2d+1)! the
    coefficient `kontsevich_volume` divided out per key, and 2d+1 the psi
    number times prod (2d-1)!! that `lhs_laplace` and `_psi_groups`
    formed."""
    keys = _keys_of(g, n)
    assert keys
    for ds in keys:
        assert _bracket(ds, _psi_weight) == oracle_volumes.dvv_tau(ds), ds
        assert (_bracket(ds, lambda d: factorial(2 * d + 1))
                == oracle_volumes.volume_coefficient(ds)), ds
        assert _bracket(ds, lambda d: 2 * d + 1) == oracle_volumes.laplace_coefficient(ds), ds


# the types up to d = 12 with at most 50 000 compositions, which each
# reader below lists in full
TYPES_LISTED_IN_FULL = [(g, n) for g, n in TYPES_UP_TO_12
                        if comb(3 * g - 3 + n + n - 1, n - 1) <= 50_000]


@pytest.mark.parametrize("g,n", TYPES_LISTED_IN_FULL)
def test_psi_volume_and_laplace_read_each_key_from_its_bracket(g, n):
    """`psi_numbers`, `kontsevich_volume` and `_laplace_coefficients` give
    each composition a the earlier routes' value at its sorted key."""
    d = 3 * g - 3 + n
    psi = psi_numbers(g, n)
    W = kontsevich_volume(g, n).terms
    laplace = dict(_laplace_coefficients(g, n))
    assert len(psi) == len(W) == len(laplace) == comb(d + n - 1, n - 1)
    for alpha, value in psi.items():
        key = _key(alpha)
        assert value == oracle_volumes.dvv_tau(key), alpha
        assert W[tuple(2 * a + 1 for a in alpha)] == oracle_volumes.volume_coefficient(key)
        assert laplace[alpha] == oracle_volumes.laplace_coefficient(key), alpha


# the 41 stable types with d <= 12 but (0,14) and (0,15), whose 2.5 and 9.7
# million compositions scale/test_at_scale.py lists with the same helper
@pytest.mark.parametrize("g,n", TYPES_FOR_THE_LARGEST_INDEX)
def test_compositions_come_in_lexicographic_order(g, n):
    assert in_lexicographic_order(g, n)


@pytest.mark.parametrize("g", range(1, 21))
def test_one_point_numbers(g):
    """<tau_{3g-2}>_g = 1/(24^g g!)."""
    assert psi_numbers(g, 1) == {(3 * g - 2,): Fraction(1, 24 ** g * factorial(g))}


def test_psi_numbers_small():
    assert psi_numbers(0, 3) == {(0, 0, 0): Fraction(1)}
    assert psi_numbers(1, 1) == {(1,): Fraction(1, 24)}
    table = psi_numbers(0, 4)
    for alpha, val in table.items():
        assert val == 1
    assert len(table) == 4


def test_psi_numbers_symmetric_and_nonnegative():
    for g, n in [(1, 2), (0, 5), (1, 3)]:
        table = psi_numbers(g, n)
        for alpha, val in table.items():
            assert val >= 0
            for perm in itertools.permutations(range(n)):
                beta = tuple(alpha[p] for p in perm)
                assert table[beta] == val


def test_genus_zero_closed_form_oracle():
    """In genus zero the numbers obey the multinomial formula
    (n-3)! / prod(a_k!), an independent closed form."""
    for n in range(3, 11):
        table = psi_numbers(0, n)
        for alpha, val in table.items():
            denom = 1
            for a in alpha:
                denom *= factorial(a)
            assert val == Fraction(factorial(n - 3), denom)


def test_lhs_laplace_values():
    assert str(lhs_laplace(1, 1)) == "1/(24 s1^3)"
    assert str(lhs_laplace(0, 3)) == "1/(s1 s2 s3)"


def test_lhs_laplace_degree():
    # every term has total s-degree -(6g-6+3n) = -(2|alpha| + n)
    for g, n in [(0, 4), (1, 2), (0, 5)]:
        rf = lhs_laplace(g, n).reduced()
        den = sum(m for m in rf.den.values())
        for exp in rf.num.terms:
            assert den - sum(exp) == 6 * g - 6 + 3 * n


def test_asymptotic_polynomial():
    assert wp_volume_asymptotic(0, 3) == Poly.const(1, ("x1", "x2", "x3"))
    x1 = Poly.variable("x1", ("x1",))
    assert wp_volume_asymptotic(1, 1) == x1 * x1 * Fraction(1, 48)
    W = wp_volume_asymptotic(0, 4)
    xs = [Poly.variable(f"x{i}", (f"x{i}",)) for i in range(1, 5)]
    assert W == sum((x * x for x in xs), Poly.zero(())) * Fraction(1, 2)


@pytest.mark.parametrize("g,n", [(0, 3), (1, 1), (0, 4), (1, 2), (0, 5)])
def test_laplace_consistency(g, n):
    """lhs_laplace IS the transform of the asymptotic polynomial: the
    factor 2^(3g-3+n) from the coefficient normalisation cancels against
    (2a)!/(2^a a!) = (2a-1)!! termwise.  Checked exactly at random points."""
    from random import Random

    rng = Random(5)
    V = wp_volume_asymptotic(g, n)
    rf = oracle_volumes.laplace(V.with_vars(tuple(f"x{i}" for i in range(1, n + 1))))
    lhs = lhs_laplace(g, n)
    for _ in range(6):
        pt = {f"s{i}": Fraction(rng.randint(1, 50), rng.randint(1, 9))
              for i in range(1, n + 1)}
        assert lhs.evaluate(pt) == rf.evaluate(pt)

import itertools
from fractions import Fraction
from math import factorial

import pytest

import oracle_volumes
from oracle_volumes import NotABaseCase, base_case, wp_volume_asymptotic
from ribbonvol.exact import Poly
from ribbonvol.volumes import (
    UnstableInput,
    kontsevich_volume,
    lhs_laplace,
    psi_numbers,
)

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


@pytest.mark.parametrize("g", range(1, 7))
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
    for n in (3, 4, 5, 6):
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

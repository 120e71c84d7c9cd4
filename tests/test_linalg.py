import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonvol.exact import (
    SingularMatrixError,
    Surd,
    bareiss,
    bareiss_kernel,
    identity,
    kernel_basis,
    mat_det,
    mat_inverse,
    mat_mul,
    mat_rank,
    pfaffian,
    right_inverse,
    rref,
)


def rand_matrix(rng, n, m=None, lo=-9, hi=9):
    m = n if m is None else m
    return [[Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(m)]
            for _ in range(n)]


def test_identity_inverse_and_rank():
    I3 = identity(3)
    assert mat_inverse(I3) == I3
    assert mat_rank(I3) == 3
    assert mat_det(I3) == 1


@pytest.mark.parametrize("seed", range(8))
def test_inverse_roundtrip_random(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    M = rand_matrix(rng, n)
    try:
        Minv = mat_inverse(M)
    except SingularMatrixError:
        assert mat_det(M) == 0
        return
    assert mat_mul(Minv, M) == identity(n)
    assert mat_mul(M, Minv) == identity(n)


def test_inverse_over_surds():
    s5 = Surd(0, 1)
    M = [[Surd(0), s5 - 1], [1 - s5, Surd(1)]]
    Minv = mat_inverse(M)
    P = mat_mul(Minv, M)
    assert P[0][0] == 1 and P[1][1] == 1 and P[0][1] == 0 and P[1][0] == 0


def test_singular_raises():
    with pytest.raises(SingularMatrixError):
        mat_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_kernel_basis_props():
    A = [[Fraction(1), Fraction(1), Fraction(0), Fraction(0)],
         [Fraction(1), Fraction(1), Fraction(2), Fraction(2)]]
    V = kernel_basis(A)
    assert len(V) == 2
    for v in V:
        assert all(sum(A[i][j] * v[j] for j in range(4)) == 0 for i in range(2))


def test_right_inverse():
    A = [[Fraction(2), Fraction(2), Fraction(2)]]
    W = right_inverse(A)
    assert sum(A[0][k] * W[k][0] for k in range(3)) == 1
    with pytest.raises(SingularMatrixError):
        right_inverse([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])


def test_pfaffian_base_cases():
    a = Fraction(7, 3)
    M = [[Fraction(0), a], [-a, Fraction(0)]]
    assert pfaffian(M) == a
    with pytest.raises(ValueError):
        pfaffian([[Fraction(0)]])
    with pytest.raises(ValueError):
        pfaffian([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("seed", range(3))
def test_pfaffian_squares_to_determinant(n, seed):
    rng = random.Random(1000 * n + seed)
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            M[i][j], M[j][i] = x, -x
    assert pfaffian(M) ** 2 == mat_det(M)


@st.composite
def int_matrices(draw):
    """Small integer matrices; about half are products X Y through an inner
    dimension k below both sides, hence of rank at most k."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entries = st.integers(-4, 4)

    def matrix(rows, cols):
        return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    if draw(st.booleans()):
        return matrix(n, m)
    k = draw(st.integers(0, min(n, m) - 1))
    X, Y = matrix(n, k), matrix(k, m)
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] if k else [0] * m
            for row in X]


@settings(max_examples=300)
@given(int_matrices())
def test_bareiss_equals_the_fraction_route(A):
    """One fraction-free pass gives the pivots, rank and scaled RREF of
    `rref`, the determinant of `mat_det`, and `kernel_basis` up to d."""
    AQ = [[Fraction(x) for x in row] for row in A]
    R, pivots = rref(AQ)
    RI, pivots_i, det = bareiss(A)
    assert pivots_i == pivots
    assert len(pivots) == mat_rank(AQ)
    assert RI == [[det * x for x in row] for row in R]
    assert all(type(x) is int for row in RI for x in row)
    if len(A) == len(A[0]):
        assert mat_det(AQ) == (det if len(pivots) == len(A) else 0)
    if len(pivots) == len(A):
        assert det == mat_det([[row[c] for c in pivots] for row in AQ])
    W, d = bareiss_kernel(RI, pivots, det)
    V = kernel_basis(AQ)
    assert [[Fraction(x, d) for x in w] for w in W] == V
    assert d == lcm(1, *(x.denominator for v in V for x in v))
    assert all(type(x) is int for w in W for x in w)


def test_bareiss_determinant_sign_and_fractional_kernel():
    assert bareiss([[0, 1], [1, 0]])[2] == -1
    assert bareiss([[0, 2, 1], [3, 0, 0], [0, 0, 0]])[2] == -6
    # kernel_basis([[2, 1, 1]]) is (-1/2, 1, 0), (-1/2, 0, 1): d = 2
    elim = bareiss([[2, 1, 1]])
    assert elim == ([[2, 1, 1]], [0], 2)
    assert bareiss_kernel(*elim) == ([[-1, 2, 0], [-1, 0, 2]], 2)
    assert bareiss_kernel(*bareiss([[0, 0], [0, 0]])) == ([[1, 0], [0, 1]], 1)


def forward_elimination_det(A):
    """The determinant by forward elimination alone, with the pivot choice
    and row swaps of `rref` (oracle for `mat_det`)."""
    n = len(A)
    M = [list(row) for row in A]
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if M[i][c]), None)
        if pr is None:
            return det * 0
        if pr != c:
            M[c], M[pr] = M[pr], M[c]
            det = -det
        det = det * M[c][c]
        inv = M[c][c]
        M[c] = [x / inv for x in M[c]]
        for i in range(c + 1, n):
            if M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return det


@pytest.mark.parametrize("seed", range(6))
def test_mat_det_equals_forward_elimination_and_bareiss(seed):
    """Random Fraction matrices, a third of them singular: the pivot product
    of the Gauss-Jordan elimination equals the forward elimination's, and
    Bareiss's determinant once the denominators are cleared."""
    rng = random.Random(seed)
    for n in range(1, 7):
        A = rand_matrix(rng, n)
        if n > 1 and rng.randrange(3) == 0:
            k, j = rng.sample(range(n), 2)
            A[k] = [x * rng.randint(-2, 2) for x in A[j]]
        det = mat_det(A)
        assert det == forward_elimination_det(A)
        D = lcm(*(x.denominator for row in A for x in row))
        AI = [[int(x * D) for x in row] for row in A]
        _, pivots, bdet = bareiss(AI)
        assert det * D**n == (bdet if len(pivots) == n else 0)


def test_mat_det_over_surds_equals_forward_elimination():
    """The crossing matrices X of the eight packaged (1,2) charts (the lead
    chart's is the reference X_REF of `test_wittencycle`), whose nonzero
    determinant `build_charts.py` asks for, and a singular Surd matrix."""
    from ribbonvol.wittencycle import example5_charts

    charts, _ = example5_charts()
    for chart, _ in charts:
        X = chart.intersection_matrix()
        assert mat_det(X) == forward_elimination_det(X) != 0
    r = Surd(-1, 1)
    S = [[r, Surd(2)], [r * r, Surd(2) * r]]
    assert mat_det(S) == forward_elimination_det(S) == 0


def test_mat_det_rejects_non_square_matrices():
    # the elimination would find a pivot in a column beyond the first n
    with pytest.raises(ValueError):
        mat_det([[Fraction(0), Fraction(2), Fraction(3)]])


def test_rref_of_an_integer_matrix_stays_exact():
    """An int pivot scales its row by a Fraction reciprocal, never a float."""
    R, pivots = rref([[3, 1, 2], [6, 4, 1]])
    assert pivots == [0, 1]
    assert R == [[1, 0, Fraction(7, 6)], [0, 1, Fraction(-3, 2)]]
    assert all(isinstance(x, Fraction) for row in R for x in row)

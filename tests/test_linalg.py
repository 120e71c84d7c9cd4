import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
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
    solve_sqrt5,
)
import oracle_linalg
from oracle_cells import surd_solve


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
    assert pfaffian(M) ** 2 == oracle_linalg.mat_det(M)


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
    """One fraction-free pass gives the pivots, rank and scaled RREF of the
    oracle's `rref`, the determinant of its `mat_det`, and its
    `kernel_basis` up to d."""
    AQ = [[Fraction(x) for x in row] for row in A]
    R, pivots = oracle_linalg.rref(AQ)
    RI, pivots_i, det = bareiss(A)
    assert pivots_i == pivots
    assert len(pivots) == oracle_linalg.mat_rank(AQ)
    assert RI == [[det * x for x in row] for row in R]
    assert all(type(x) is int for row in RI for x in row)
    if len(A) == len(A[0]):
        assert oracle_linalg.mat_det(AQ) == (det if len(pivots) == len(A) else 0)
    if len(pivots) == len(A):
        assert det == oracle_linalg.mat_det([[row[c] for c in pivots] for row in AQ])
    W, d = bareiss_kernel(RI, pivots, det)
    V = oracle_linalg.kernel_basis(AQ)
    assert [[Fraction(x, d) for x in w] for w in W] == V
    assert d == lcm(1, *(x.denominator for v in V for x in v))
    assert all(type(x) is int for w in W for x in w)


@st.composite
def rational_matrices(draw):
    """`int_matrices` with row i over r_i and column j over c_j, so a rank
    stays what it was: entry x / (r_i c_j), an int when r_i c_j = 1, else
    a Fraction; and now and then the empty matrix."""
    if draw(st.integers(0, 15)) == 0:
        return []
    A = draw(int_matrices())
    dens = st.integers(1, 4)
    rows = [draw(dens) for _ in A]
    cols = [draw(dens) for _ in A[0]]
    return [[x if r * c == 1 else Fraction(x, r * c) for x, c in zip(row, cols)]
            for row, r in zip(A, rows)]


@settings(max_examples=300)
@given(rational_matrices())
def test_rank_det_and_kernel_equal_the_gauss_jordan_oracle(A):
    """`mat_rank`, `mat_det` and `kernel_basis`, each read off `bareiss`,
    against the field elimination of `oracle_linalg`."""
    assert mat_rank(A) == oracle_linalg.mat_rank(A)
    assert kernel_basis(A) == oracle_linalg.kernel_basis(A)
    if all(len(row) == len(A) for row in A):
        det = mat_det(A)
        assert type(det) is Fraction and det == oracle_linalg.mat_det(A)


@settings(max_examples=300)
@given(rational_matrices())
def test_inverses_equal_the_gauss_jordan_oracle(A):
    """`right_inverse`, and `mat_inverse` on square matrices, against the
    oracle's: the same matrix, or SingularMatrixError from both."""
    routes = [(right_inverse, oracle_linalg.right_inverse)]
    if all(len(row) == len(A) for row in A):
        routes.append((mat_inverse, oracle_linalg.mat_inverse))
    full_rank = oracle_linalg.mat_rank(A) == len(A)
    for route, oracle in routes:
        if full_rank:
            assert route(A) == oracle(A)
        else:
            with pytest.raises(SingularMatrixError):
                route(A)
            with pytest.raises(SingularMatrixError):
                oracle(A)


@pytest.mark.parametrize("route", [mat_rank, mat_det, kernel_basis, right_inverse])
def test_rational_routes_refuse_a_surd_matrix(route):
    with pytest.raises(TypeError, match="rational matrix"):
        route([[Surd(1, 1), Surd(2)], [Surd(0), Surd(3, -1)]])


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
    and row swaps of the oracle's `rref` (oracle for `mat_det`)."""
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
    """Random Fraction matrices, a third of them singular: `mat_det` and the
    pivot product of the oracle's Gauss-Jordan elimination equal the forward
    elimination's, and Bareiss's determinant once the denominators are
    cleared."""
    rng = random.Random(seed)
    for n in range(1, 7):
        A = rand_matrix(rng, n)
        if n > 1 and rng.randrange(3) == 0:
            k, j = rng.sample(range(n), 2)
            A[k] = [x * rng.randint(-2, 2) for x in A[j]]
        det = mat_det(A)
        assert det == forward_elimination_det(A) == oracle_linalg.mat_det(A)
        D = lcm(*(x.denominator for row in A for x in row))
        AI = [[int(x * D) for x in row] for row in A]
        _, pivots, bdet = bareiss(AI)
        assert det * D**n == (bdet if len(pivots) == n else 0)


def test_mat_det_over_surds_equals_forward_elimination():
    """The oracle's field determinant on the crossing matrices X of the
    eight packaged (1,2) charts (the lead chart's is the reference X_REF of
    `test_wittencycle`), each invertible (`build_charts.py` asks
    `solve_sqrt5` for that), and on a singular Surd matrix."""
    from ribbonvol.wittencycle import example5_charts

    charts, _ = example5_charts()
    for chart, _ in charts:
        X = chart.intersection_matrix()
        assert oracle_linalg.mat_det(X) == forward_elimination_det(X) != 0
    r = Surd(-1, 1)
    S = [[r, Surd(2)], [r * r, Surd(2) * r]]
    assert oracle_linalg.mat_det(S) == forward_elimination_det(S) == 0


def test_mat_det_rejects_non_square_matrices():
    # the elimination would find a pivot in a column beyond the first n
    with pytest.raises(ValueError):
        mat_det([[Fraction(0), Fraction(2), Fraction(3)]])


def test_mat_inverse_rejects_non_square_matrices():
    # [[1, 0]] has a pivot on its first column: its "inverse" would be [[1]]
    for A in ([[1, 0]], [[Fraction(0), Fraction(2), Fraction(3)]], [[Surd(1), Surd(0, 1)]]):
        with pytest.raises(ValueError, match="non-square"):
            mat_inverse(A)


def test_rref_of_an_integer_matrix_stays_exact():
    """An int pivot scales its row by a Fraction reciprocal, never a float."""
    R, pivots = oracle_linalg.rref([[3, 1, 2], [6, 4, 1]])
    assert pivots == [0, 1]
    assert R == [[1, 0, Fraction(7, 6)], [0, 1, Fraction(-3, 2)]]
    assert all(isinstance(x, Fraction) for row in R for x in row)


def sqrt5_matrix(Za, Zb, det):
    return [[Surd(Fraction(a, det), Fraction(b, det)) for a, b in zip(ra, rb)]
            for ra, rb in zip(Za, Zb)]


QUARTER_SURDS = st.builds(lambda a, b: Surd(Fraction(a, 4), Fraction(b, 4)),
                          st.integers(-12, 12), st.integers(-12, 12))


@st.composite
def sqrt5_systems(draw):
    """(X, Y): X m x m with entries in (1/4) Z[sqrt 5], Y m x k integer."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    row = st.lists(QUARTER_SURDS, min_size=m, max_size=m)
    X = draw(st.lists(row, min_size=m, max_size=m))
    Y = draw(st.lists(st.lists(st.integers(-9, 9), min_size=k, max_size=k),
                      min_size=m, max_size=m))
    return X, Y


@settings(max_examples=80, deadline=None)
@given(sqrt5_systems())
def test_solve_sqrt5_equals_the_surd_field_route(system):
    """The integer solve of the regular representation against the `Surd`
    RREF of [X | Y], and against the oracle's `mat_inverse` for Y = I."""
    X, Y = system
    assume(oracle_linalg.mat_det(X) != 0)
    Za, Zb, det = solve_sqrt5(X, Y)
    assert all(type(x) is int for Z in (Za, Zb) for row in Z for x in row)
    assert sqrt5_matrix(Za, Zb, det) == surd_solve(X, Y)
    assert sqrt5_matrix(*solve_sqrt5(X, identity(len(X)))) == oracle_linalg.mat_inverse(X)


@settings(max_examples=80, deadline=None)
@given(sqrt5_systems())
def test_surd_mat_inverse_equals_the_gauss_jordan_oracle(system):
    """`mat_inverse` over Q(sqrt 5), one `solve_sqrt5` of [X | I], against
    the oracle's `Surd` Gauss-Jordan inverse, singular X included."""
    X, _ = system
    if oracle_linalg.mat_det(X) == 0:
        with pytest.raises(SingularMatrixError):
            mat_inverse(X)
        return
    Xinv = mat_inverse(X)
    assert all(type(x) is Surd for row in Xinv for x in row)
    assert Xinv == oracle_linalg.mat_inverse(X)


def test_solve_sqrt5_of_the_empty_system():
    # a point cell's chart has no curves: X is 0 x 0
    assert solve_sqrt5([], []) == ([], [], 1)


def test_solve_sqrt5_refuses_a_singular_matrix():
    """Singular matrices over Z[sqrt 5]: zero, and two 2 x 2 ones whose
    rational and irrational parts are each invertible."""
    r = Surd(1, 1)  # (1 + sqrt 5)^2 = 2 (3 + sqrt 5)
    for X in ([[r, Surd(2)], [Surd(3, 1), r]], [[Surd(0)]],
              [[Surd(-1, 1), Surd(2)], [Surd(6, -2), Surd(-2, 2)]]):
        assert oracle_linalg.mat_det(X) == 0
        with pytest.raises(SingularMatrixError):
            solve_sqrt5(X, [[1]] * len(X))
        with pytest.raises(SingularMatrixError):
            surd_solve(X, [[1]] * len(X))
        with pytest.raises(SingularMatrixError):
            mat_inverse(X)

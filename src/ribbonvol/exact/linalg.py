"""Exact dense linear algebra over Z, Q and Q(sqrt(5)).

Matrices are lists of row lists.  There is one elimination, `bareiss`, the
fraction-free Gauss-Jordan elimination of an integer matrix; rational
matrices reach it with each row cleared of denominators (`_cleared`), and
systems over Q(sqrt(5)) through `solve_sqrt5`.  Rank, determinant, inverse
and kernel are read off it: `mat_rank`, `mat_det`, `kernel_basis` and
`right_inverse` take rational matrices (int or `Fraction` entries) and
raise TypeError on a `Surd` entry; `mat_inverse` also inverts a matrix of
`Surd`s, by `solve_sqrt5`.  The sizes in this package never exceed a few
dozen.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .surd import Surd

__all__ = [
    "SingularMatrixError",
    "identity",
    "mat_mul",
    "mat_vec",
    "transpose",
    "mat_rank",
    "mat_det",
    "mat_inverse",
    "bareiss",
    "bareiss_kernel",
    "solve_sqrt5",
    "kernel_basis",
    "right_inverse",
    "pfaffian",
]


class SingularMatrixError(ValueError):
    pass


def identity(n):
    one, zero = Fraction(1), Fraction(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = 0
            for t in range(k):
                acc = A[i][t] * B[t][j] + acc
            row.append(acc)
        out.append(row)
    return out


def mat_vec(A, v):
    out = []
    for row in A:
        acc = 0
        for a, x in zip(row, v):
            acc = a * x + acc
        out.append(acc)
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def bareiss(A):
    """Fraction-free Gauss-Jordan elimination of an integer matrix A.

    Returns (R, pivots, det): R = det times the reduced row echelon form of
    A, in integers, its pivot columns (the lexicographically first basis of
    A's column space), and det = det A[P, pivots], P the pivot rows in
    their original order (1 if A has rank 0).  Each step scales every row
    by the new pivot and divides exactly by the previous one (Bareiss,
    Math. Comp. 22, 1968), so every entry stays a minor of A.
    """
    M = [list(row) for row in A]
    n = len(M)
    m = len(M[0]) if n else 0
    rows = list(range(n))
    pivots = []
    prev = 1
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        rows[r], rows[pr] = rows[pr], rows[r]
        p, top = M[r][c], M[r]
        for i in range(n):
            f = M[i][c]  # a row with f == 0 is only rescaled by p / prev
            if i != r and (f or p != prev):
                M[i] = [(p * a - f * b) // prev for a, b in zip(M[i], top)]
        prev = p
        pivots.append(c)
        r += 1
        if r == n:
            break
    # prev is the determinant with the pivot rows in elimination order
    used = rows[:r]
    swaps = sum(a > b for k, a in enumerate(used) for b in used[k + 1:])
    if swaps % 2:
        prev = -prev
        M = [[-x for x in row] for row in M]
    return M, pivots, prev


def _cleared(A):
    """(M, scales): each row of the rational matrix A times the lcm of its
    denominators, in ints, and those lcms (1 for a row of ints).  TypeError
    on an entry with no denominator, such as a `Surd`."""
    M, scales = [], []
    try:
        for row in A:
            scale = lcm(*(x.denominator for x in row))
            M.append([x.numerator * (scale // x.denominator) for x in row])
            scales.append(scale)
    except AttributeError as exc:
        raise TypeError(f"expected a rational matrix: {exc}") from None
    return M, scales


def solve_sqrt5(X, Y):
    """(Za, Zb, det), integers with X^{-1} Y = (Za + Zb sqrt(5)) / det, for
    X over Q(sqrt(5)) (m x m, `Surd`) and rational Y (m x k).

    x = a + b sqrt(5) acts on (u, v) ~ u + v sqrt(5) as [[a, 5b], [b, a]], so
    one `bareiss` of [Xa 5Xb | Y; Xb Xa | 0], each row `_cleared`, gives
    det [I | Za; Zb].  A row of ints, as the int-part crossing matrix and
    integer Y of the chart layer give, scales by 1.  SingularMatrixError if
    X is singular.
    """
    m = len(X)
    rows = ([[x.a for x in xr] + [5 * x.b for x in xr] + list(yr) for xr, yr in zip(X, Y)]
            + [[x.b for x in xr] + [x.a for x in xr] + [0] * len(yr) for xr, yr in zip(X, Y)])
    R, pivots, det = bareiss(_cleared(rows)[0])
    if pivots != list(range(2 * m)):
        raise SingularMatrixError("matrix is singular")
    return [row[2 * m:] for row in R[:m]], [row[2 * m:] for row in R[m:]], det


def _surd_matrix(A, B, den):
    """The matrix (A + B sqrt(5)) / den from integer matrices A and B, each
    entry one `Surd` of the two reduced Fractions, stored as they are."""
    return [[Surd._make(Fraction(a, den), Fraction(b, den)) for a, b in zip(ra, rb)]
            for ra, rb in zip(A, B)]


def bareiss_kernel(R, pivots, det):
    """(W, d) from a `bareiss` result with R nonempty: W = d * kernel_basis(A)
    in integers, d > 0 the lcm of the denominators of kernel_basis(A)."""
    free = [c for c in range(len(R[0])) if c not in pivots]
    # kernel_basis has -R[r][fc] / det at pivot column pivots[r]
    g = gcd(det, *(R[r][fc] for r in range(len(pivots)) for fc in free))
    d, unit = abs(det) // g, (g if det > 0 else -g)
    W = []
    for fc in free:
        w = [0] * len(R[0])
        w[fc] = d
        for r, pc in enumerate(pivots):
            w[pc] = -R[r][fc] // unit
        W.append(w)
    return W, d


def mat_rank(A) -> int:
    """Rank of the rational matrix A: the number of `bareiss` pivots."""
    return len(bareiss(_cleared(A)[0])[1])


def mat_det(A) -> Fraction:
    """Determinant of the square rational matrix A: the `bareiss`
    determinant of its cleared rows over the product of their lcms, 0 when
    A is singular."""
    if any(len(row) != len(A) for row in A):
        raise ValueError("determinant of a non-square matrix")
    M, scales = _cleared(A)
    _, pivots, det = bareiss(M)
    return Fraction(det, prod(scales)) if len(pivots) == len(A) else Fraction(0)


def kernel_basis(A):
    """Basis of the right kernel of the rational matrix A, one vector per
    free column, in column order: `bareiss_kernel`'s W over its scale d."""
    if not A:
        return []
    W, d = bareiss_kernel(*bareiss(_cleared(A)[0]))
    return [[Fraction(x, d) for x in w] for w in W]


def _pivot_inverse(A):
    """(pivots, B) for a rational n x m matrix A of full row rank: B is
    A_P^{-1}, A_P the n x n block of A on its pivot columns P.  One `bareiss`
    of [A | I], each row cleared, which leaves its reduced row echelon form
    unchanged; the right block of that form is A_P^{-1}, and the elimination
    gives it times det.  SingularMatrixError if rank A < n."""
    M, scales = _cleared(A)
    m = len(A[0]) if A else 0
    R, pivots, det = bareiss([row + [s if j == i else 0 for j in range(len(M))]
                              for i, (row, s) in enumerate(zip(M, scales))])
    if pivots and pivots[-1] >= m:
        raise SingularMatrixError("matrix does not have full row rank")
    return pivots, [[Fraction(x, det) for x in row[m:]] for row in R]


def mat_inverse(A):
    """Inverse of the square matrix A: over Q from `_pivot_inverse`, and
    for a matrix of `Surd`s one `solve_sqrt5` of [A | I].
    SingularMatrixError if A is singular."""
    if any(len(row) != len(A) for row in A):
        raise ValueError("inverse of a non-square matrix")
    if any(isinstance(x, Surd) for row in A for x in row):
        return _surd_matrix(*solve_sqrt5(A, identity(len(A))))
    return _pivot_inverse(A)[1]


def right_inverse(A):
    """W with A @ W = I for a rational matrix A of full row rank: A_P^{-1}
    on the pivot rows P, zero elsewhere."""
    pivots, B = _pivot_inverse(A)
    W = [[Fraction(0)] * len(A) for _ in range(len(A[0]) if A else 0)]
    for r, c in enumerate(pivots):
        W[c] = B[r]
    return W


def _check_pfaffian_input(A) -> None:
    """Raise ValueError unless the square matrix `A` has even dimension and
    is skew-symmetric, as a Pfaffian's input must be."""
    n = len(A)
    if n % 2:
        raise ValueError("a Pfaffian needs even dimension")
    if any(A[i][j] != -A[j][i] for i in range(n) for j in range(i, n)):
        raise ValueError("matrix is not skew-symmetric")


def pfaffian(A):
    """Pfaffian of an even-dimensional skew-symmetric matrix.

    Expansion along the first row with memoisation on index subsets; exact
    over Z (integer entries give an int) or any field, fine for the sizes
    used here (<= 12).
    """
    _check_pfaffian_input(A)
    cache = {}

    def pf(idx):
        if not idx:
            return 1
        if idx in cache:
            return cache[idx]
        i = idx[0]
        rest = idx[1:]
        total = 0
        for t, j in enumerate(rest):
            term = A[i][j] * pf(rest[:t] + rest[t + 1:])
            total = total + (term if t % 2 == 0 else -term)
        cache[idx] = total
        return total

    return pf(tuple(range(len(A))))

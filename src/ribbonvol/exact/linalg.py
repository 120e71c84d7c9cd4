"""Exact dense linear algebra over Q or Q(sqrt(5)), and over Z.

Matrices are lists of row lists whose entries support exact field
arithmetic (`Fraction` or `Surd`).  One Gauss-Jordan elimination serves
rank, determinant, inverse and kernel; the sizes in this package never
exceed a few dozen.
`bareiss` is the fraction-free elimination for integer matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = [
    "SingularMatrixError",
    "identity",
    "mat_mul",
    "mat_vec",
    "transpose",
    "mat_rank",
    "mat_det",
    "mat_inverse",
    "rref",
    "bareiss",
    "bareiss_kernel",
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


def _gauss_jordan(A):
    """The one Gauss-Jordan elimination over a field: (R, pivot_cols, det)
    with (R, pivot_cols) as `rref` returns them and det the signed product
    of the pivots, the determinant of A when A is square and nonsingular."""
    M = [list(row) for row in A]
    n = len(M)
    m = len(M[0]) if n else 0
    pivots = []
    det = Fraction(1)
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if M[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            M[r], M[pr] = M[pr], M[r]
            det = -det
        inv = M[r][c]
        det = det * inv
        rec = Fraction(1) / inv  # one reciprocal per pivot; Surd via __rtruediv__
        M[r] = [x * rec for x in M[r]]
        for i in range(n):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return M, pivots, det


def rref(A):
    """Reduced row echelon form of a copy of A; returns (R, pivot_cols).
    The pivots are the lexicographically first basis of A's column space."""
    R, pivots, _ = _gauss_jordan(A)
    return R, pivots


def mat_rank(A) -> int:
    if not A:
        return 0
    return len(rref(A)[1])


def mat_det(A):
    """Determinant of the square matrix A, the pivot product of its
    elimination (0 when A is singular)."""
    if any(len(row) != len(A) for row in A):
        raise ValueError("determinant of a non-square matrix")
    _, pivots, det = _gauss_jordan(A)
    return det if len(pivots) == len(A) else det * 0


def mat_inverse(A):
    n = len(A)
    M = [list(row) + list(irow) for row, irow in zip(A, identity(n))]
    R, pivots = rref(M)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in R]


def bareiss(A):
    """Fraction-free Gauss-Jordan elimination of an integer matrix A.

    Returns (R, pivots, det): R = det * rref(A)[0] in integers, the pivot
    columns of `rref`, and det = det A[P, pivots], P the pivot rows in
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


def kernel_basis(A):
    """Basis of the right kernel, one vector per free column, in column order."""
    if not A:
        return []
    R, pivots = rref(A)
    m = len(R[0])
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def right_inverse(A):
    """Any W with A @ W = I; requires full row rank."""
    n = len(A)
    m = len(A[0]) if n else 0
    R, pivots = rref(A)
    if len(pivots) != n:
        raise SingularMatrixError("matrix does not have full row rank")
    # solve A w_j = e_j using only pivot columns
    M = [[A[i][c] for c in pivots] for i in range(n)]
    Minv = mat_inverse(M)
    W = [[Fraction(0)] * n for _ in range(m)]
    for r, c in enumerate(pivots):
        for j in range(n):
            W[c][j] = Minv[r][j]
    return W


def pfaffian(A):
    """Pfaffian of an even-dimensional skew-symmetric matrix.

    Expansion along the first row with memoisation on index subsets; exact
    over Z (integer entries give an int) or any field, fine for the sizes
    used here (<= 12).
    """
    n = len(A)
    if n % 2:
        raise ValueError("pfaffian needs even dimension")
    for i in range(n):
        for j in range(n):
            if A[i][j] != -A[j][i]:
                raise ValueError("matrix is not skew-symmetric")
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

    return pf(tuple(range(n)))

"""Exact dense linear algebra over Q or Q(sqrt(5)).

Matrices are lists of row lists whose entries support exact field
arithmetic (`Fraction` or `Surd`).  Everything here is plain Gaussian
elimination; the sizes in this package never exceed a few dozen.
"""

from __future__ import annotations

from fractions import Fraction

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


def rref(A):
    """Reduced row echelon form of a copy of A; returns (R, pivot_cols).
    The pivots are the lexicographically first basis of A's column space."""
    M = [list(row) for row in A]
    n = len(M)
    m = len(M[0]) if n else 0
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = M[r][c]
        M[r] = [x / inv for x in M[r]]
        for i in range(n):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return M, pivots


def mat_rank(A) -> int:
    if not A:
        return 0
    return len(rref(A)[1])


def mat_det(A):
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


def mat_inverse(A):
    n = len(A)
    M = [list(row) + list(irow) for row, irow in zip(A, identity(n))]
    R, pivots = rref(M)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in R]


def kernel_basis(A):
    """Basis of the right kernel, one vector per free column, in column order."""
    if not A:
        return []
    return _rref_kernel(*rref(A))


def _rref_kernel(R, pivots):
    """`kernel_basis` read off an `rref` result (R, pivots) with R nonempty."""
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
    over any field, fine for the sizes used here (<= 12).
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
            return Fraction(1)
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

"""Independent oracle for `ribbonvol.exact.linalg`: one Gauss-Jordan
elimination over a field.

`_gauss_jordan` eliminates over whatever field the entries live in,
`Fraction` or `Surd`, with one reciprocal per pivot, and serves the
reduced row echelon form (`rref`), rank, determinant (its signed pivot
product), inverse, kernel and right inverse below.  The package reads
all of these off its one fraction-free elimination, `bareiss`, over Z
(and over Q(sqrt(5)) through `solve_sqrt5`); nothing here uses either.
"""

from fractions import Fraction

from ribbonvol.exact import SingularMatrixError, identity


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

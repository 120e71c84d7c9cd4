"""Independent oracle for the cell layer: every step in `Fraction` arithmetic.

The basis V of ker A is read off the `Fraction` RREF of A, the volume factor
is 1/|det A_P| by `mat_det` on the pivot columns P, the quarter-K form is
V (K/4) V^T by `mat_mul`, and the B-hat comparison inverts the block with
`mat_inverse`.  Nothing here uses `bareiss` or the integer scale d of
`ribbonvol.kformula`; the same checks, in the same order, give the report
that `verify_form_identities` must reproduce.
"""

from fractions import Fraction

from ribbonvol.exact import (
    SingularMatrixError,
    mat_det,
    mat_inverse,
    mat_mul,
    mat_rank,
    pfaffian,
    rref,
    transpose,
)
from ribbonvol.kformula import EPSILON, kontsevich_form


def _fractions(M):
    return [[Fraction(x) for x in row] for row in M]


def kernel_normalization(A):
    """(V, 1/|det A_P|): the RREF kernel basis and the volume factor."""
    A = _fractions(A)
    R, pivots = rref(A)
    if len(pivots) != len(A):
        raise SingularMatrixError("matrix does not have full row rank")
    m = len(A[0])
    V = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        V.append(v)
    return V, 1 / abs(mat_det([[row[c] for c in pivots] for row in A]))


def gram(M, V):
    """V M V^T: the form M on the rows of V."""
    return mat_mul(mat_mul(V, M), transpose(V))


def quarter_form(K, V):
    return gram([[Fraction(x, 4) for x in row] for row in K], V)


def cell_form(graph):
    """(K, V, volfactor, G), G the quarter-K form on V."""
    K = kontsevich_form(graph)
    V, volfactor = kernel_normalization(graph.face_edge_matrix())
    return K, V, volfactor, quarter_form(K, V)


def density(G, volfactor):
    return abs(Fraction(pfaffian(G))) / volfactor


def principal_block_identity(B, G, V):
    """G == eps * V_S^T Bhat^{-1} V_S, S the pivots of the Fraction RREF of B."""
    B = _fractions(B)
    S = rref(B)[1]
    if len(S) != len(V):
        return False
    Binv = mat_inverse([[B[i][j] for j in S] for i in S])
    return G == gram([[EPSILON * x for x in row] for row in Binv],
                     [[v[k] for k in S] for v in V])


def verify_form_identities(graph):
    """The report of `ribbonvol.kformula.verify_form_identities`."""
    K, V, _, G = cell_form(graph)
    E = graph.num_edges
    B = graph.oriented_adjacency()
    dim = 6 * graph.genus - 6 + 2 * graph.num_faces
    BK = mat_mul(B, K)
    BKB = mat_mul(BK, B)
    checks = {
        "BKB_eq_eps4B": all(BKB[i][j] == EPSILON * 4 * B[i][j]
                            for i in range(E) for j in range(E)),
        "BK_minus_eps4I_kills_kerA": all(
            sum(BK[i][k] * v[k] for k in range(E)) == EPSILON * 4 * v[i]
            for v in V for i in range(E)),
        "quarterK_nondegenerate_on_kerA": mat_rank(G) == dim,
        "distinguished_side_independent_on_kerA": G == quarter_form(
            kontsevich_form(graph, [len(c) // 2 for c in graph.faces]), V),
        "matches_Bhat_inverse_form": principal_block_identity(B, G, V),
    }
    return {"graph": graph.to_json(), "epsilon": EPSILON, "checks": checks,
            "ok": all(checks.values())}

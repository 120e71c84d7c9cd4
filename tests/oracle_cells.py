"""Independent oracle for the cell layer: every step in `Fraction` arithmetic.

The basis V of ker A is read off the `Fraction` RREF of A, the volume factor
is 1/|det A_P| by `mat_det` on the pivot columns P, the quarter-K form is
V (K/4) V^T by `mat_mul`, and the B-hat comparison inverts the block with
`mat_inverse`, all three the Gauss-Jordan routes of `oracle_linalg`.
Nothing here uses `bareiss` or the integer scale d of `ribbonvol.kformula`;
the same checks, in the same order, give the report that
`verify_form_identities` must reproduce.  Linear systems over Q(sqrt(5))
are solved by the `Surd` RREF (`surd_solve`), the field route that
`ribbonvol.exact.solve_sqrt5` replaces in the chart layer.  The limiting
crossing matrix is summed in `Surd` arithmetic, every pentagon cosine from
the `Surd` table of cos(2 pi k / 5), `_PENTAGON_COS`, through
`_crossing_cos_from` (`pentagon_cos`, `curve_pair_cos`,
`intersection_matrix`), the field route that the integer sums of
`ribbonvol.multicurve` and `ribbonvol.hypgeom._pentagon_cos` replace.  Its
shared edge paths come from `oracle_maximal_runs`, which tests every
position of one walk against every position of the other, where
`ribbonvol.multicurve._maximal_runs` looks the matches up in one index of
the second walk by dart.
"""

from fractions import Fraction

from oracle_linalg import mat_det, mat_inverse, mat_rank, rref
from ribbonvol.exact import (
    SingularMatrixError,
    Surd,
    mat_mul,
    pfaffian,
    transpose,
)
from ribbonvol.hypgeom import (
    IdealPolygonChord,
    _crossing_cos_from,
    _interleaved,
    chords_cross,
)
from ribbonvol.kformula import EPSILON, kontsevich_form
from ribbonvol.multicurve import (
    UnresolvableCrossing,
    _passages,
    _run_contribution,
)

# cos(2 pi k / 5) in Q(sqrt(5)), k = 0..4
_PENTAGON_COS = (
    Surd(1),
    (Surd(0, 1) - 1) / 4,
    (Surd(0, 1) + 1) / -4,
    (Surd(0, 1) + 1) / -4,
    (Surd(0, 1) - 1) / 4,
)


def pentagon_cos(a, b, c, e):
    """`_crossing_cos_from` at d = 5 over the `Surd` table `_PENTAGON_COS`."""
    return _crossing_cos_from(a, b, c, e, lambda k: _PENTAGON_COS[k % 5])


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


def surd_solve(X, Y):
    """X^{-1} Y over Q(sqrt(5)) by one `rref` of [X | Y] in `Surd`
    arithmetic; SingularMatrixError if X is singular."""
    m = len(X)
    R, pivots = rref([list(xr) + [Surd(y) for y in yr] for xr, yr in zip(X, Y)])
    if pivots[:m] != list(range(m)):
        raise SingularMatrixError("matrix is singular")
    return [row[m:] for row in R]


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
    K, V, volfactor, G = cell_form(graph)
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
            "density": density(G, volfactor), "ok": all(checks.values())}


def oracle_maximal_runs(graph, gamma, delta, opposite: bool):
    """(runs, closed) of `_maximal_runs`, the matches found by an M x L
    double loop over the positions of gamma and delta."""
    s1 = graph.s1
    M, L = len(gamma), len(delta)
    matches = set()
    for t in range(M):
        for u in range(L):
            if (gamma[t] == s1[delta[u]]) if opposite else (gamma[t] == delta[u]):
                matches.add((t, u))
    if not matches:
        return [], False
    step = -1 if opposite else 1
    starts = [(t, u) for (t, u) in sorted(matches)
              if ((t - 1) % M, (u - step) % L) not in matches]
    if not starts:
        return [], True  # every match extends backwards: closed alignment
    runs = []
    for (t, u) in starts:
        run = [(t, u)]
        cur = ((t + 1) % M, (u + step) % L)
        while cur in matches and cur != (t, u):
            run.append(cur)
            cur = ((cur[0] + 1) % M, (cur[1] + step) % L)
        runs.append(run)
    return runs, False


def curve_pair_cos(graph, P, Q):
    """Sum of cos of the limiting anticlockwise angles from P to Q, each
    contribution added as a `Surd`: +-1 per shared maximal edge path, and
    `_crossing_cos_from` over the `Surd` cosine table per pentagon crossing."""
    total = Surd(0)
    for gamma in P.components:
        for delta in Q.components:
            for opposite in (False, True):
                runs, closed = oracle_maximal_runs(graph, gamma, delta, opposite)
                if closed:
                    continue
                for run in runs:
                    total = total + _run_contribution(graph, gamma, delta, run, opposite)
    pass_P = [p for walk in P.components for p in _passages(graph, walk)]
    pass_Q = [q for walk in Q.components for q in _passages(graph, walk)]
    for (v1, in1, out1) in pass_P:
        for (v2, in2, out2) in pass_Q:
            if v1 != v2 or {in1, out1} & {in2, out2}:
                continue
            deg = len(graph.vertices[v1])
            if deg < 4:
                raise UnresolvableCrossing(
                    f"disjoint passages through trivalent vertex {v1}")
            pos = {d: i for i, d in enumerate(graph.vertices[v1])}
            ch1 = IdealPolygonChord(deg, (pos[in1], pos[out1]))
            ch2 = IdealPolygonChord(deg, (pos[in2], pos[out2]))
            if not chords_cross(ch1, ch2):
                continue
            if deg != 5:
                raise UnresolvableCrossing(
                    f"no exact angle for a degree-{deg} crossing at vertex {v1}")
            total = total + pentagon_cos(*_interleaved(ch1, ch2))
    return total


def intersection_matrix(graph, curves):
    """The skew matrix X of `curve_pair_cos`, entry by entry in `Surd`."""
    m = len(curves)
    X = [[Surd(0) for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            X[i][j] = curve_pair_cos(graph, curves[i], curves[j])
            X[j][i] = -X[i][j]
    return X

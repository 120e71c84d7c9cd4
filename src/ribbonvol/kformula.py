"""The graph side of the combinatorial formula and the piecewise linear form.

For a trivalent ribbon graph the matrix K encodes, face by face, the total
ordering of the edge sides around the face once a distinguished side is
chosen; the piecewise linear 2-form on the cell is (1/4) sum K_ij de_i^de_j.
This module builds K, checks its interplay with the oriented adjacency
matrix B, computes the constant density of the top power of the form on a
cell, and assembles/verifies both sides of the combinatorial formula.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, namedtuple
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul, ne, sub

from .exact import (
    SingularMatrixError,
    bareiss,
    bareiss_kernel,
    mat_mul,
    mat_vec,
    orthant_exponential_integral,
)
from .exact.linalg import _check_pfaffian_input
from .ribbon import (
    RibbonGraph,
    UnsupportedGraph,
    _automorphisms,
    _class_count,
    _cycle_index,
    _distinct_orders,
    _each_map,
    _face_orders,
    enumerate_trivalent,
)
from .volumes import _laplace_coefficients, is_stable

__all__ = [
    "kontsevich_form",
    "rhs_terms",
    "rhs_evaluate",
    "verify_kcf",
    "verify_form_identities",
    "cell_density",
    "restrict_form",
    "kernel_normalization",
]

# B K B = EPSILON * 4 * B across all trivalent graphs, with the single
# global sign fixed by the B and K conventions used in this package.
# (The factor is 4, not 8: the limiting Weil-Petersson form equals twice
# the quarter-K form; see notes in verify_form_identities.)
EPSILON = 1


def kontsevich_form(graph: RibbonGraph, distinguished=None):
    """The skew matrix K from a choice of one distinguished side per face.

    `distinguished[i]` is an offset into the i-th face cycle (default 0);
    the cyclic order of the sides becomes a total order starting there.
    For edges i != j, every pair of sides (one of edge i at position p, one
    of edge j at position q) contributes +1 if p < q and -1 otherwise.
    """
    if not graph.is_trivalent:
        raise UnsupportedGraph("K is defined on trivalent cells")
    faces = graph.faces
    if distinguished is None:
        distinguished = [0] * len(faces)
    E = graph.num_edges
    K = [[0] * E for _ in range(E)]
    for fi, cyc in enumerate(faces):
        off = distinguished[fi]
        if not 0 <= off < len(cyc):
            raise ValueError(f"distinguished side {off} invalid for face of size {len(cyc)}")
        ordered = [graph.edge_of[cyc[(off + t) % len(cyc)]] for t in range(len(cyc))]
        for p in range(len(ordered)):
            for q in range(p + 1, len(ordered)):
                i, j = ordered[p], ordered[q]
                if i != j:
                    K[i][j] += 1
                    K[j][i] -= 1
    return K


def kernel_normalization(A):
    """Integer basis W = d * V of ker A, d, and |det [V | W']| for integer A.

    V is the basis `kernel_basis` gives, and d > 0 the lcm of its
    denominators.  W' is any right inverse of A.  The factor converts the
    basis volume of V into the quotient (fibre) Lebesgue measure lambda on
    {A e = x}: de_1...de_E = lambda tensor dx exactly when [V | W'] has unit
    determinant.  It equals 1/|det A_P|, P the pivot columns of A's RREF:
    take W' = A_P^{-1} on the pivot rows and 0 elsewhere, order the rows
    free first, and [V | W'] is [I 0; X A_P^{-1}].  One `bareiss` pass
    gives P, det A_P and W.  Raises SingularMatrixError if rank A < len(A).
    """
    R, pivots, det = bareiss(A)
    if len(pivots) != len(A):
        raise SingularMatrixError("matrix does not have full row rank")
    W, d = bareiss_kernel(R, pivots, det)
    return W, d, Fraction(1, abs(det))


def restrict_form(M, V):
    """Gram matrix G[i][j] = v_i^T M v_j of the form M on the basis V."""
    images = [mat_vec(M, v) for v in V]
    return [[sum(a * b for a, b in zip(u, Mv)) for Mv in images] for u in V]


def _abs_pf(G) -> int:
    """|Pf G| of an even-dimensional skew-symmetric integer matrix G.

    Read off `bareiss(G)`: 0 if G is singular, else isqrt(det G), since
    det G = Pf(G)^2.  Raises ValueError on odd dimension or a G that is not
    skew-symmetric, and ArithmeticError if det G is not a perfect square.
    """
    _check_pfaffian_input(G)
    _, pivots, det = bareiss(G)
    if len(pivots) < len(G):
        return 0
    pf = isqrt(max(det, 0))
    if pf * pf != det:
        raise ArithmeticError(f"det of a skew-symmetric matrix is not a square: {det}")
    return pf


class _CellForm(namedtuple("_CellForm", "K V d volfactor G")):
    """K, an integer basis V of ker A, its scale d, the volume factor, and
    G = V^T K V in integers.

    V is d times the basis `kernel_basis` gives, so the quarter-K form on
    that basis is G / (4 d^2), and its |Pf| is |Pf G| / (4 d^2)^(k/2) on
    k = len(G) rows, with |Pf G| read off `bareiss(G)`.
    """

    __slots__ = ()

    def density(self) -> Fraction:
        scale = (4 * self.d * self.d) ** (len(self.G) // 2)
        return Fraction(_abs_pf(self.G), scale) / self.volfactor


def _cell_form(graph: RibbonGraph) -> _CellForm:
    """The K form restricted to ker A, shared by the identities and the
    density so that one cell builds K, ker A and G only once."""
    K = kontsevich_form(graph)
    V, d, volfactor = kernel_normalization(graph.face_edge_matrix())
    return _CellForm(K, V, d, volfactor, restrict_form(K, V))


def cell_density(graph: RibbonGraph) -> Fraction:
    """Constant density of the top power of the quarter-K form on the cell.

    Computed as |Pf((1/4) V^T K V)|, read off the `bareiss` determinant of
    the integer G = V^T K V, divided by the factor converting the kernel
    basis V into the quotient Lebesgue measure of {A e = x}.
    Equals 2^(1-g) on every trivalent graph.
    """
    if not graph.is_trivalent:
        raise UnsupportedGraph("cell density is defined on trivalent cells")
    return _cell_form(graph).density()


def verify_form_identities(graph: RibbonGraph, form: _CellForm | None = None) -> dict:
    """Exact checks tying K to the oriented adjacency B on one graph, and
    the cell's "density", `form.density()` (`form` default: built here).

    With eps = EPSILON, a single global sign:

    (i)   B K B = eps * 4 * B;
    (ii)  (B K - eps * 4 I) v = 0 for every v in ker A;
    (iii) the quarter-K form on ker A is nondegenerate, independent of the
          distinguished sides, and equals eps times the [Bhat^{-1}]-form
          for any principal invertible block Bhat of B.

    (i) and (ii) are equivalent because the columns of B span ker A; the
    factor is 4, not 8: with the literal side-ordering rule for K the cell
    density comes out 2^(1-g), forced by the combinatorial formula, which
    pins the quarter-K form at half the limiting Weil-Petersson form.

    Every check runs in integers on the integer basis V of the form; each
    is unchanged by scaling the basis, so it says the same of ker A.  V has
    6g - 6 + 2n rows on every cell, so (iii) reads |Pf G| != 0 off the density.
    """
    if not graph.is_trivalent:
        raise UnsupportedGraph("form identities are about trivalent cells")
    if form is None:
        form = _cell_form(graph)
    K, V, G = form.K, form.V, form.G
    density = form.density()
    E = graph.num_edges
    B = graph.oriented_adjacency()
    dim = 6 * graph.genus - 6 + 2 * graph.num_faces
    BK = mat_mul(B, K)
    BKB = mat_mul(BK, B)
    checks = {
        "BKB_eq_eps4B": all(BKB[i][j] == EPSILON * 4 * B[i][j]
                            for i in range(E) for j in range(E)),
        "BK_minus_eps4I_kills_kerA": all(
            w == EPSILON * 4 * x for v in V for w, x in zip(mat_vec(BK, v), v)),
        "quarterK_nondegenerate_on_kerA": len(G) == dim and density != 0,
        # distinguished-side independence of the restriction
        "distinguished_side_independent_on_kerA": G == restrict_form(
            kontsevich_form(graph, [len(c) // 2 for c in graph.faces]), V),
        "matches_Bhat_inverse_form": _principal_block_identity(B, G, V),
    }
    return {"graph": graph.to_json(), "epsilon": EPSILON, "checks": checks,
            "density": density, "ok": all(checks.values())}


def _principal_block_identity(B, G, V):
    """G == eps * 4 * V_S^T Bhat^{-1} V_S for G = V^T K V on a basis V of
    ker A, Bhat = B[S, S], S the pivot columns of B's RREF.

    Both sides scale by c^2 when V does by c, and G / 4 is the quarter-K
    form.  The comparison runs in integers: `bareiss` of [Bhat | I] gives
    D [I | Bhat^{-1}], so D * G must equal eps * 4 * V_S^T (D Bhat^{-1}) V_S.
    S indexes a column basis, so B = B[:, S] C with C[:, S] = I, and skew
    symmetry gives B = C^T Bhat C: Bhat is invertible.  The invertible
    principal blocks of size rank B are exactly the column bases, and the
    greedy one, S, is the lexicographically first.  False if rank B !=
    len(V), which no trivalent graph gives: both are 6g - 6 + 2n.
    """
    S = bareiss(B)[1]
    k = len(S)
    if k != len(V):
        return False
    R, _, D = bareiss([[B[i][j] for j in S] + [int(t == r) for t in range(k)]
                       for r, i in enumerate(S)])
    adj = [[EPSILON * 4 * x for x in row[k:]] for row in R]
    return [[D * x for x in row] for row in G] == restrict_form(
        adj, [[v[i] for i in S] for v in V])


# -- the combinatorial formula ------------------------------------------------


def rhs_terms(g: int, n: int):
    """Per-graph closed forms: (graph, aut, RationalFunction term).

    The per-graph reference for the graph side: one `RibbonGraph` and one
    `orthant_exponential_integral` per labelled class.  `verify_kcf` sums
    per unlabelled map instead (`_map_groups`); this route stays because
    `perfbench/spans.py` traces it.
    """
    if not is_stable(g, n):
        raise ValueError(f"({g},{n}) is unstable")
    svars = tuple(f"s{i}" for i in range(1, n + 1))
    pref = Fraction(2) ** (2 * g - 2 + n)
    out = []
    for graph, aut in enumerate_trivalent(g, n):
        term = orthant_exponential_integral(graph.face_edge_matrix(), svars)
        out.append((graph, aut, term * (pref / aut)))
    return out


def _factor_order(n: int):
    """The denominator factors in their fixed order: s_1..s_n as (i,), then
    s_i + s_j for i < j as (i, j), 0-based."""
    return [(i,) for i in range(n)] + list(itertools.combinations(range(n), 2))


def _labelled_exponents(s1, faces):
    """The exponent vector of each of the n! face labellings of a map with
    edge involution s1 and the n face cycles `faces` (`face_cycles`), in
    the order of `itertools.permutations(range(n))`.

    A labelling `labels` gives the i-th face cycle (ordered by minimal dart,
    as `RibbonGraph.face_labels` lists them) the 0-based label `labels[i]`.
    The vector is the denominator of that labelled graph's term over
    `_factor_order(n)`: an edge whose sides lie on faces labelled a != b
    gives s_a + s_b, and an edge with both sides on face a gives 2 s_a,
    whose 1/2 the caller takes from the first n entries.
    """
    n = len(faces)
    face_of = _cycle_index(faces, len(s1))
    sides = Counter((face_of[d], face_of[s1[d]]) for d in range(len(s1)) if d < s1[d])
    factors = _factor_order(n)
    index = [[0] * n for _ in range(n)]
    for k, f in enumerate(factors):
        a, b = f if len(f) == 2 else f * 2
        index[a][b] = index[b][a] = k
    for labels in itertools.permutations(range(n)):
        exps = [0] * len(factors)
        for (a, b), m in sides.items():
            exps[index[labels[a]][labels[b]]] += m
        yield tuple(exps)


def _map_groups(g: int, n: int):
    """The graph side merged by denominator factors, the terms of
    `rhs_terms` with equal exponent vectors summed, over one denominator,
    and the number of labelled classes, both computed once per unlabelled
    trivalent map (`_each_map`).

    By orbit-stabiliser, sum_{L of U} f(L) / |Aut L| = (1 / |Aut U|)
    sum_{sigma in S_n} f(sigma U) over the labelled classes L of a map U:
    the labellings in the orbit of L number |Aut U| / |Aut L|.  |Aut U| is
    the number of the map's eligible roots with root 0's key
    (`_automorphisms`), and each labelling contributes 2^(2g-2+n) / (|Aut U|
    2^m), m the map's edges with one face on both sides.  The face orders of
    those roots form a coset of the image H of Aut U in S_n, which acts
    freely on the n! labellings, so the map has n! / |H| labelled classes
    (`_class_count`).  No canonical pair is computed.

    The labellings of the maps with one weight |Aut U| 2^m are counted
    together, per exponent vector, and each vector's coefficient is summed
    as an int over den, the lcm of the weights, then divided by the gcd of
    den and every coefficient.  Returns ({exponent vector: int}, den,
    class count): a vector's coefficient is its int over den.
    """
    pref = 2 ** (2 * g - 2 + n)
    weighed = {}
    classes = 0

    def visit(s0, s1, faces, full):
        nonlocal classes
        autos = _automorphisms(full)
        classes += _class_count(_distinct_orders(_face_orders(faces, autos)), n)
        vectors = list(_labelled_exponents(s1, faces))
        weight = len(autos) << sum(vectors[0][:n])
        weighed.setdefault(weight, Counter()).update(vectors)

    _each_map([3] * (4 * g - 4 + 2 * n), n, visit)
    den = lcm(*weighed)
    groups = {}
    for weight, counts in weighed.items():
        scale = pref * (den // weight)
        for exps, count in counts.items():
            groups[exps] = groups.get(exps, 0) + scale * count
    common = gcd(den, *groups.values())
    for exps in groups:
        groups[exps] //= common
    return groups, den // common, classes


def _psi_groups(g: int, n: int):
    """The psi side sum_a <psi^a> prod (2a_k-1)!! / s_k^(2a_k+1), the
    Laplace transform of W_{g,n}, as groups over `_factor_order(n)`: one per
    nonzero `_laplace_coefficients` term, with exponents 2a_k+1 on s_k and 0
    on each s_i + s_j."""
    zeros = (0,) * (n * (n - 1) // 2)
    return [(tuple(2 * a + 1 for a in alpha) + zeros, val)
            for alpha, val in _laplace_coefficients(g, n) if val]


def _integer_side(groups):
    """Groups with `Fraction` coefficients (`_psi_groups`) as an integer
    side `({exponent vector: int}, den)`: den the lcm of the denominators,
    and each coefficient c the int c * den."""
    den = lcm(*(c.denominator for _, c in groups))
    return {exps: c.numerator * (den // c.denominator) for exps, c in groups}, den


def _trie(keys, columns):
    """(levels, at): the trie of the exponent vectors `keys` read at the
    column indices `columns`, in that order, and the node of each key at
    its last level (0, the empty key, for no column).  Level f lists the
    distinct partial keys, a key's entries at columns[0..f], as two lists:
    `parent`, the node of the partial key without its last entry at level
    f - 1 (0 at level 0), and `exps`, its entry at columns[f]."""
    at = [0] * len(keys)
    levels = []
    for col in columns:
        nodes = {}
        for i, key in enumerate(keys):
            at[i] = nodes.setdefault((at[i], key[col]), len(nodes))
        levels.append(([a for a, _ in nodes], [e for _, e in nodes]))
    return levels, at


def _integer_form(*sides):
    """(cden, highest, sides) for integer sides `(groups, den)`
    (`_integer_side`, `_map_groups`), groups a dict from exponent vectors
    over `_factor_order(n)` to ints, each worth its int over den; built once
    for all points.

    cden is the lcm of the sides' dens and highest[f] the largest exponent
    of factor f over every side.  The F factors are cut at c = ceil(F/2).
    Each side's vectors are sorted and it becomes one `(prefix, suffix, suf,
    coeffs, last)`: `prefix` the `_trie` levels of the vectors' columns
    0..c-1, `suffix` those of columns F-1 down to c, and for the i-th group
    `suf[i]` its node at the suffix trie's last level, `coeffs[i]` its int
    scaled to cden and `last[i]` whether it is the last group under its
    prefix node.  Sorted, the groups under one prefix node are consecutive,
    so the prefix trie's last level lists its nodes in the order of their
    last groups.
    """
    cden = lcm(*(den for _, den in sides))
    highest = [max(col) for col in zip(*(exps for groups, _ in sides for exps in groups))]
    F = len(highest)
    c = -(-F // 2)
    out = []
    for groups, den in sides:
        scale = cden // den
        keys = sorted(groups)
        prefix, pre = _trie(keys, range(c))
        suffix, suf = _trie(keys, range(F - 1, c - 1, -1))
        last = [*map(ne, pre[:-1], pre[1:]), True]
        out.append((prefix, suffix, suf, [groups[k] * scale for k in keys], last))
    return cden, highest, out


def _level_products(levels, powers):
    """The product of each node of a `_trie` at its last level: level by
    level, each node's parent's product times the factor's power, one
    C-level `map` per level with no bytecode per node; [1] for no level."""
    vals = [1]
    for (parent, exps), power in zip(levels, powers):
        vals = list(map(mul, map(vals.__getitem__, parent), map(power.__getitem__, exps)))
    return vals


def _side_totals(form, coords):
    """([integer total of each side], den) of `_integer_form` at the point
    `coords` (s_1..s_n): side k is worth totals[k] / den, den > 0 shared.

    Each factor value a/b is computed once as an integer pair: (p_i, q_i)
    for s_i = p_i/q_i and (p_i q_j + p_j q_i, q_i q_j) for s_i + s_j.  The
    denominator is cden times a^M for each factor's highest exponent M, and
    a group g with exponents e is worth its coefficient c_g times the
    product of a^(M - e) b^e over the factors.  That product is P * S, P
    over the factors before the cut and S over those after it, so a side
    is the sum over prefix nodes p of P[p] times the sum of c_g * S[s_g]
    over the groups g under p.  Both tries build every node's product once
    (`_level_products`); one `map` forms c_g * S[s_g] per group, their
    running sum is kept at each prefix node's last group, and the
    differences of consecutive kept sums, one per prefix node, are
    multiplied by P: C-level `map`s, with no bytecode per group or node.
    """
    cden, highest, sides = form
    p = [x.numerator for x in coords]
    q = [x.denominator for x in coords]
    values = list(zip(p, q))
    for i, j in itertools.combinations(range(len(coords)), 2):
        values.append((p[i] * q[j] + p[j] * q[i], q[i] * q[j]))
    # powers[f][m] = a^(M - m) * b^m: (a/b)^-m times the factor's a^M
    powers = [[a ** (M - m) * b ** m for m in range(M + 1)]
              for (a, b), M in zip(values, highest)]
    totals = []
    for prefix, suffix, suf, coeffs, last in sides:
        P = _level_products(prefix, powers)
        S = _level_products(suffix, powers[len(prefix):][::-1])
        running = itertools.accumulate(map(mul, coeffs, map(S.__getitem__, suf)))
        ends = list(itertools.compress(running, last))
        totals.append(sum(map(mul, P, map(sub, ends, itertools.chain((0,), ends)))))
    return totals, cden * prod(a ** M for (a, _), M in zip(values, highest))


def rhs_evaluate(g: int, n: int, point: dict, terms=None) -> Fraction:
    """The graph side at `point` (dict s_i -> Fraction), exactly: the sum of
    each (graph, aut, term) triple's `RationalFunction.evaluate` (default:
    `rhs_terms(g, n)`).

    The per-graph reference for the graph side, with no grouping and no
    shared factor values, kept because `perfbench/spans.py` traces it;
    `verify_kcf` evaluates the per-map groups instead.
    """
    if terms is None:
        terms = rhs_terms(g, n)
    return sum((term.evaluate(point) for _, _, term in terms), Fraction(0))


def verify_kcf(g: int, n: int, trials: int = 30, seed: int = 0) -> dict:
    """Compare both sides of the combinatorial formula at random points.

    Both sides are evaluated exactly at rational points whose coordinates
    are p/q with p, q uniform on 1..1000.  Agreement is a probabilistic
    check, not a proof: in n >= 2 variables no number of agreeing points
    proves an identity of rational functions.  Every group of both sides
    has total exponent 6g - 6 + 3n, so with D the product of each factor
    s_i and s_i + s_j to its highest exponent over both sides (`highest`
    of `_integer_form`), P = D * (lhs - rhs) is a polynomial, homogeneous
    of degree sum(highest) - (6g - 6 + 3n): 18 at (0,4), 27 at (1,3) and
    60 at (1,4).  D is positive at every point, so a point passes falsely
    exactly when a nonzero P vanishes there, by Schwartz-Zippel with
    probability at most deg P / 1000, since no coordinate value has
    probability above 1/1000; independent points multiply these bounds.
    degree_bound = 6g - 6 + 4n (10, 12 and 16 at those types) only sets
    the least number of points sampled, 2 * degree_bound + 1.  Failures
    report the first offending point.

    The graph side is grouped once per unlabelled map (`_map_groups`, by
    orbit-stabiliser, in ints over one denominator: no `RibbonGraph`,
    per-graph rational function or canonical pair is built) and the psi
    side once from `_laplace_coefficients` (`_psi_groups`, `_integer_side`).
    Both go over one shared denominator once (`_integer_form`, which also
    records each side as one trie of its distinct exponent prefixes and one
    of its distinct suffixes, cut at the middle factor), and at each point
    `_side_totals` computes the factor values s_i, s_i + s_j and their
    powers once, multiplies each shared prefix and each shared suffix
    once, and sums each side, one coefficient-times-suffix product per
    group and one prefix product per prefix, to an integer over the one
    denominator den > 0 both share: the sides are equal exactly when their
    integer totals are, and then one reduced fraction is printed for both.
    "graphs" counts the labelled classes, the automorphism orbits on the
    labellings of each map.
    """
    if not is_stable(g, n):
        raise ValueError(f"({g},{n}) is unstable")
    degree_bound = (6 * g - 6 + 3 * n) + n
    trials = max(trials, 2 * degree_bound + 1)
    rng = random.Random(seed)
    svars = tuple(f"s{i}" for i in range(1, n + 1))
    groups, gden, classes = _map_groups(g, n)
    form = _integer_form(_integer_side(_psi_groups(g, n)), (groups, gden))
    points = []
    for _ in range(trials):
        coords = [Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in svars]
        (lt, rt), den = _side_totals(form, coords)
        lhs = str(Fraction(lt, den))
        points.append({
            "point": {v: str(x) for v, x in zip(svars, coords)},
            "lhs": lhs,
            "rhs": lhs if lt == rt else str(Fraction(rt, den)),
            "equal": lt == rt,
        })
    first_bad = next((p for p in points if not p["equal"]), None)
    return {
        "g": g,
        "n": n,
        "graphs": classes,
        "trials": trials,
        "seed": seed,
        "equal": first_bad is None,
        "first_mismatch": first_bad,
        "points": points,
    }

import itertools
import random
from fractions import Fraction
from math import factorial, floor, gcd, lcm, prod
from operator import mul

import pytest

from ribbonvol.exact import (
    Poly,
    RationalFunction,
    SingularMatrixError,
    bareiss,
    orthant_exponential_integral,
)
from ribbonvol.kformula import (
    EPSILON,
    _cell_form,
    _factor_order,
    _integer_form,
    _integer_side,
    _labelled_exponents,
    _level_products,
    _map_groups,
    _principal_block_identity,
    _psi_groups,
    _side_totals,
    cell_density,
    kernel_normalization,
    kontsevich_form,
    rhs_evaluate,
    rhs_terms,
    verify_form_identities,
    verify_kcf,
)
from ribbonvol.ribbon import (
    RibbonGraph,
    UnsupportedGraph,
    _automorphisms,
    _distinct_orders,
    _each_map,
    _face_orders,
    _rooted,
    _unlabelled_maps,
    enumerate_graphs,
    enumerate_trivalent,
    face_cycles,
)
from ribbonvol.volumes import _laplace_coefficients, lhs_laplace

import oracle_cells
import oracle_ribbon
import oracle_ratfun
from oracle_linalg import kernel_basis, mat_det, right_inverse, rref

SMALL_TYPES = [(0, 3), (1, 1), (0, 4), (1, 2)]


def rhs_laplace(g, n):
    """The graph sum combined into one reduced rational function, the exact
    oracle for the graph side: the per-graph terms of `rhs_terms` added once
    over their common denominator by `RationalFunction.sum`.

    (1,3) and (2,2) take about a second; (0,5) is out of reach (unfinished
    after 300 s).
    """
    return RationalFunction.sum(term for _, _, term in rhs_terms(g, n))


def test_kontsevich_form_is_skew_with_bounded_entries():
    for g, n in SMALL_TYPES:
        for graph, _ in enumerate_trivalent(g, n):
            K = kontsevich_form(graph)
            E = graph.num_edges
            for i in range(E):
                assert K[i][i] == 0
                for j in range(E):
                    assert K[i][j] == -K[j][i]
                    assert abs(K[i][j]) <= 2 * n


def test_kontsevich_form_single_face_entries():
    graph = enumerate_trivalent(1, 1)[0][0]
    K = kontsevich_form(graph)
    assert all(abs(x) in (0, 2) for row in K for x in row)


def test_kontsevich_form_rejects_bad_side():
    graph = enumerate_trivalent(1, 1)[0][0]
    with pytest.raises(ValueError):
        kontsevich_form(graph, [17])


def test_kontsevich_form_needs_trivalent():
    graph = enumerate_graphs(1, 2, [5, 3])[0][0]
    with pytest.raises(UnsupportedGraph):
        kontsevich_form(graph)


@pytest.mark.parametrize("g,n", SMALL_TYPES)
def test_form_identities_hold_with_one_global_sign(g, n):
    for graph, _ in enumerate_trivalent(g, n):
        rep = verify_form_identities(graph)
        assert rep["ok"], rep["checks"]
        assert rep["epsilon"] == EPSILON


@pytest.mark.parametrize("g,n", SMALL_TYPES)
def test_cell_density_is_two_to_one_minus_g(g, n):
    for graph, _ in enumerate_trivalent(g, n):
        assert cell_density(graph) == Fraction(2) ** (1 - g)


@pytest.mark.parametrize("g,n", SMALL_TYPES)
def test_shared_cell_form_gives_the_same_report_and_density(g, n):
    for graph, _ in enumerate_trivalent(g, n):
        form = _cell_form(graph)
        report = verify_form_identities(graph, form)
        assert report == verify_form_identities(graph)
        assert form.density() == cell_density(graph) == report["density"]


def test_density_is_distinguished_side_and_basis_independent():
    # |Pf| with the normalisation is intrinsic: recompute on a permuted graph
    for graph, _ in enumerate_trivalent(1, 1):
        rho = cell_density(graph)
        relabeled = RibbonGraph(*graph.canonical_form())
        assert cell_density(relabeled) == rho


def test_rhs_closed_forms():
    assert str(rhs_laplace(1, 1)) == "1/(24 s1^3)"
    assert str(rhs_laplace(0, 3)) == "1/(s1 s2 s3)"


def test_rhs_prefactor():
    # 2^(2g-2+n) = 2 for the one-holed torus
    terms = rhs_terms(1, 1)
    assert len(terms) == 1
    graph, aut, term = terms[0]
    assert aut == 6
    pt = {"s1": Fraction(1)}
    assert term.evaluate(pt) == Fraction(2, 6) / 8


def test_rhs_resummation_determinism():
    a = [t.canonical_key() for _, _, t in rhs_terms(0, 4)]
    b = [t.canonical_key() for _, _, t in rhs_terms(0, 4)]
    assert a == b


@pytest.mark.parametrize("g,n", SMALL_TYPES)
def test_combinatorial_formula(g, n):
    report = verify_kcf(g, n, trials=4, seed=123)
    assert report["equal"], report["first_mismatch"]
    assert report["trials"] > 2 * (6 * g - 6 + 3 * n + n)
    assert report["seed"] == 123


def test_combinatorial_formula_reports_are_reproducible():
    a = verify_kcf(1, 1, trials=5, seed=42)
    b = verify_kcf(1, 1, trials=5, seed=42)
    assert a == b


def test_mismatch_produces_failure_report(monkeypatch):
    """A corrupted side makes verify_kcf name the offending point and the
    CLI exit with the verification-failure code."""
    import ribbonvol.kformula as kf
    from ribbonvol.cli import main

    true_side = list(_laplace_coefficients(1, 1))
    monkeypatch.setattr(kf, "_laplace_coefficients",
                        lambda g, n: [(a, v * Fraction(3, 2)) for a, v in true_side])
    report = kf.verify_kcf(1, 1, trials=3, seed=0)
    assert not report["equal"]
    bad = report["first_mismatch"]
    assert bad is not None and not bad["equal"]
    assert set(bad["point"]) == {"s1"}
    assert main(["verify-kcf", "--g", "1", "--n", "1", "--trials", "3", "--seed", "0"]) == 1


def test_perturbed_automorphism_detected():
    """Soundness canary: corrupt one |Aut| and the identity must fail."""
    import random

    g, n = 1, 1
    lhs = lhs_laplace(g, n)
    terms = rhs_terms(g, n)
    graph, aut, term = terms[0]
    bad = [(graph, aut, term * Fraction(aut, aut + 1))]  # pretend |Aut| = 7
    rng = random.Random(9)
    mismatch = False
    for _ in range(10):
        pt = {"s1": Fraction(rng.randint(1, 100), rng.randint(1, 10))}
        if lhs.evaluate(pt) != rhs_evaluate(g, n, pt, bad):
            mismatch = True
            break
    assert mismatch


def per_term_sum(point, terms):
    """Oracle for the graph side: each term's RationalFunction.evaluate, summed
    in Fractions, with no grouping and no shared factor values."""
    return sum((t.evaluate(point) for _, _, t in terms), Fraction(0))


def factor_groups(terms, n):
    """Merge (graph, aut, term) triples with equal denominators: the
    grouping oracle of `_map_groups`, one term per labelled class.

    A term's denominator is a multiset of the factors s_i and s_i + s_j,
    recorded as its exponent vector over the fixed factor order s_1..s_n,
    then s_i + s_j for i < j.  Returns a list of (exponent vector, summed
    Fraction coefficient).  Every term of `rhs_terms` has the constant
    numerator 1; any other numerator raises ValueError.
    """
    index = {f: k for k, f in enumerate(_factor_order(n))}
    one = {(0,) * n: 1}
    groups = {}
    for _, _, term in terms:
        if term.num.terms != one:
            raise ValueError(f"graph term {term} has numerator {term.num}, not 1")
        exps = [0] * len(index)
        for f, m in term.den.items():
            exps[index[f]] = m
        exps = tuple(exps)
        groups[exps] = groups.get(exps, 0) + term.scalar
    return list(groups.items())


def evaluate_groups(groups, coords) -> Fraction:
    """Oracle for `_side_totals`: the exact value of one side's grouped terms
    (`_map_groups`, `_psi_groups`) at the point `coords` (s_1..s_n), over
    that side's own denominator.

    Each factor value a/b is computed once as an integer pair: (p_i, q_i)
    for s_i = p_i/q_i and (p_i q_j + p_j q_i, q_i q_j) for s_i + s_j.  The
    groups are summed in ints over one common denominator, the lcm of the
    coefficients' denominators times a^M for each factor's largest exponent
    M; the one Fraction built at the end is normalised.
    """
    p = [x.numerator for x in coords]
    q = [x.denominator for x in coords]
    values = list(zip(p, q))
    for i, j in itertools.combinations(range(len(coords)), 2):
        values.append((p[i] * q[j] + p[j] * q[i], q[i] * q[j]))
    highest = [max(col) for col in zip(*(exps for exps, _ in groups))]
    # powers[f][m] = a^(M - m) * b^m: (a/b)^-m times the factor's a^M
    powers = [[a ** (M - m) * b ** m for m in range(M + 1)]
              for (a, b), M in zip(values, highest)]
    cden = lcm(*(c.denominator for _, c in groups))
    total = sum(c.numerator * (cden // c.denominator)
                * prod(map(list.__getitem__, powers, exps))
                for exps, c in groups)
    return Fraction(total, cden * prod(a ** M for (a, _), M in zip(values, highest)))


def grouped_sum(groups, point):
    """The per-side oracle `evaluate_groups` at `point` (s_i -> Fraction)."""
    return evaluate_groups(groups, [point[f"s{i}"] for i in range(1, len(point) + 1)])


def sample_points(n, count, seed):
    """Seeded points p/q, 1 <= p, q <= 1000, after the extremes 1/1000 and
    1000/1 in every coordinate and alternating between them."""
    ends = (Fraction(1, 1000), Fraction(1000))
    coords = [[ends[0]] * n, [ends[1]] * n, [ends[i % 2] for i in range(n)]]
    rng = random.Random(seed)
    coords += [[Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(n)]
               for _ in range(count)]
    return [{f"s{i + 1}": c for i, c in enumerate(cs)} for cs in coords]


# (g, n) -> (graphs, distinct denominator-factor multisets)
GROUP_COUNTS = {(0, 3): (4, 4), (1, 1): (1, 1), (0, 4): (64, 59), (1, 2): (9, 9),
                (2, 1): (9, 1), (1, 3): (236, 152), (0, 5): (2240, 1535)}


@pytest.mark.parametrize("g,n", list(GROUP_COUNTS))
def test_grouped_graph_side_equals_per_term_sum(g, n):
    terms = rhs_terms(g, n)
    groups = factor_groups(terms, n)
    assert (len(terms), len(groups)) == GROUP_COUNTS[g, n]
    for point in sample_points(n, 2 if n == 5 else 6, seed=17 * n + g):
        assert grouped_sum(groups, point) == per_term_sum(point, terms)


@pytest.mark.parametrize("g,n", [(0, 3), (1, 1), (1, 2), (2, 1), (0, 4), (1, 3)])
def test_grouped_graph_side_equals_closed_form(g, n):
    closed = rhs_laplace(g, n)
    for point in sample_points(n, 4, seed=5 * n + g):
        assert rhs_evaluate(g, n, point) == closed.evaluate(point)


def pairwise_sum(terms, n):
    """The graph terms added one at a time, each sum reduced (oracle)."""
    total = RationalFunction.zero(tuple(f"s{i}" for i in range(1, n + 1)))
    for _, _, term in terms:
        total = oracle_ratfun.pairwise_add(total, term)
    return total.reduced()


@pytest.mark.parametrize("g,n", [(0, 3), (1, 1), (1, 2), (2, 1), (0, 4)])
def test_closed_form_equals_pairwise_sum(g, n):
    closed = rhs_laplace(g, n)
    oracle = pairwise_sum(rhs_terms(g, n), n)
    assert str(closed) == str(oracle)
    assert closed.canonical_key() == oracle.canonical_key()


@pytest.mark.parametrize("g,n", [(0, 4), (1, 2), (2, 1), (1, 3), (2, 2)])
def test_combinatorial_formula_holds_as_an_identity(g, n):
    """The two sides are equal as reduced rational functions: an exact proof
    of the formula for these types, not a check at sample points."""
    assert rhs_laplace(g, n) == lhs_laplace(g, n)


def test_corrupted_aut_in_a_merged_group_is_detected():
    """Soundness canary: merging graphs with one factor multiset must not hide
    a wrong |Aut| on one of them."""
    g, n = 0, 4
    terms = rhs_terms(g, n)
    keys = [tuple(sorted(t.den.items())) for _, _, t in terms]
    k = next(i for i, key in enumerate(keys) if keys.count(key) > 1)
    graph, aut, term = terms[k]
    bad = list(terms)
    bad[k] = (graph, aut + 1, term * Fraction(aut, aut + 1))
    good_groups, bad_groups = factor_groups(terms, n), factor_groups(bad, n)
    assert len(bad_groups) == len(good_groups)
    lhs = lhs_laplace(g, n)
    points = sample_points(n, 6, seed=3)
    assert all(lhs.evaluate(pt) == grouped_sum(good_groups, pt) for pt in points)
    assert any(lhs.evaluate(pt) != grouped_sum(bad_groups, pt) for pt in points)


# every stable type with at most 12 trivalent edges but (0, 6)
MAP_ROUTE_TYPES = [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1), (1, 3), (0, 5), (2, 2), (1, 4)]


@pytest.mark.parametrize("g,n", MAP_ROUTE_TYPES)
def test_map_route_equals_the_per_graph_groups(g, n):
    """Oracle gate: summing each unlabelled map over all n! labellings and
    dividing by |Aut U| gives the same merged groups, and counts the same
    classes, as one term per labelled class divided by its |Aut L|.  The
    ints are over one denominator, with no factor common to all of them."""
    terms = rhs_terms(g, n)
    groups, den, classes = _map_groups(g, n)
    assert {exps: Fraction(k, den) for exps, k in groups.items()} == dict(factor_groups(terms, n))
    assert gcd(den, *groups.values()) == 1
    assert classes == len(terms)


def trivalent_maps(g, n):
    return _unlabelled_maps([3] * (4 * g - 4 + 2 * n), n)


def automorphism_mismatches(degrees, n, automorphisms=_automorphisms):
    """(maps, the pairings of the maps on which `automorphisms(full)`
    disagrees with `_rooted`): in number, against the roots that reach the
    canonical pair, or in the number of distinct face orders."""
    maps, bad = 0, []

    def visit(s0, s1, faces, full):
        nonlocal maps
        maps += 1
        orders = _rooted(s0, s1, faces, full)[1]
        autos = automorphisms(full)
        if (len(autos) != len(orders) or len(_distinct_orders(_face_orders(faces, autos)))
                != len(_distinct_orders(orders))):
            bad.append(s1)

    _each_map(sorted(degrees, reverse=True), n, visit)
    return maps, bad


@pytest.mark.parametrize("n,degrees", [(n, [3] * (4 * g - 4 + 2 * n)) for g, n in MAP_ROUTE_TYPES]
                         + [(5, [4, 4, 4]), (1, [4, 3, 3, 3, 3])])
def test_automorphisms_are_the_roots_with_root_0s_key(n, degrees):
    """Oracle gate for the |Aut U| `_map_groups` takes: map by map, the
    eligible roots with root 0's key are as many as the roots `_rooted`
    finds reaching the canonical pair over all 2E roots, and their face
    orders hold as many distinct orders."""
    maps, bad = automorphism_mismatches(degrees, n)
    assert maps and not bad


def test_one_more_root_breaks_the_automorphism_gate():
    """Canary: counting one eligible root whose key differs from root 0's
    fails the gate on every map that has such a root: 20 of the 46 maps of
    (1,3).  On (0,4) every eligible root has root 0's key."""
    def with_one_more_root(full):
        others = [new for key, new in full.values() if key != full[0][0]]
        return _automorphisms(full) + others[:1]

    maps, bad = automorphism_mismatches([3] * 6, 3, with_one_more_root)
    assert maps == len(trivalent_maps(1, 3)) == 46 and len(bad) == 20
    assert automorphism_mismatches([3] * 4, 4, with_one_more_root)[1] == []


@pytest.mark.parametrize("g,n,degrees", [(g, n, None) for g, n in MAP_ROUTE_TYPES]
                         + [(0, 5, [4, 4, 4])])
def test_orbit_count_equals_the_labelled_classes(g, n, degrees):
    """The class count `_map_groups` takes per map, n! / |H| with |H| the
    number of distinct face orders, equals the number of automorphism
    orbits on the n! labellings that `enumerate_graphs` lists."""
    maps = trivalent_maps(g, n) if degrees is None else _unlabelled_maps(degrees, n)
    assert maps
    for _, orders in maps:
        assert (factorial(n) // len(set(map(tuple, orders)))
                == len(oracle_ribbon.orbit_labelled_classes(orders, n)))


@pytest.mark.parametrize("g,n", [(0, 4), (1, 2), (1, 3)])
def test_each_labelling_gives_the_denominator_of_its_labelled_graph(g, n):
    """The k-th vector is that of the k-th of `itertools.permutations`,
    labels[i] labelling the i-th face cycle as `RibbonGraph.face_labels`
    does: the exponent vector is that of the graph's own orthant term, and
    the term's scalar is 1/2 per edge with one face on both sides."""
    svars = tuple(f"s{i}" for i in range(1, n + 1))
    labellings = list(itertools.permutations(range(n)))
    for (s0, s1), _ in trivalent_maps(g, n):
        vectors = list(_labelled_exponents(s1, face_cycles(s0, s1)))
        assert len(vectors) == len(labellings)
        for labels, exps in zip(labellings, vectors):
            graph = RibbonGraph(s0, s1, [x + 1 for x in labels])
            term = orthant_exponential_integral(graph.face_edge_matrix(), svars)
            assert factor_groups([(graph, 1, term)], n) == [(exps, term.scalar)]
            assert term.scalar == Fraction(1, 2 ** sum(exps[:n]))


def test_a_wrong_map_automorphism_count_is_detected(monkeypatch):
    """Soundness canary: one map of (0,4) with |Aut U| off by one makes the
    two sides differ."""
    import ribbonvol.kformula as kf

    assert kf.verify_kcf(0, 4, trials=3, seed=5)["equal"]
    each_map = kf._each_map

    def with_one_more_automorphism(degrees, n, visit):
        visited = []

        def visit_first_twice(s0, s1, faces, full):
            # on the first map, root -1 repeats root 0
            visit(s0, s1, faces, full if visited else {**full, -1: full[0]})
            visited.append(s1)

        each_map(degrees, n, visit_first_twice)

    monkeypatch.setattr(kf, "_each_map", with_one_more_automorphism)
    report = kf.verify_kcf(0, 4, trials=3, seed=5)
    assert not report["equal"]
    assert report["first_mismatch"] is not None


def test_verify_kcf_builds_no_graph_and_no_orthant_term(monkeypatch):
    import ribbonvol.exact.ratfun as ratfun
    import ribbonvol.kformula as kf

    calls = {"graphs": 0, "orthant": 0}
    init = RibbonGraph.__init__

    def counted_init(self, *args):
        calls["graphs"] += 1
        init(self, *args)

    def counted_orthant(*args, **kwargs):
        calls["orthant"] += 1
        return orthant_exponential_integral(*args, **kwargs)

    monkeypatch.setattr(RibbonGraph, "__init__", counted_init)
    monkeypatch.setattr(kf, "orthant_exponential_integral", counted_orthant)
    monkeypatch.setattr(ratfun, "orthant_exponential_integral", counted_orthant)
    report = kf.verify_kcf(1, 3, trials=3, seed=1)
    assert report["equal"] and report["graphs"] == 236
    assert calls == {"graphs": 0, "orthant": 0}
    kf.rhs_terms(1, 1)  # the counters see the per-graph route
    assert calls["graphs"] > 0 and calls["orthant"] > 0


@pytest.mark.parametrize("g,n", [(0, 4), (1, 2), (1, 3)])
def test_cell_form_and_checks_are_label_invariant(g, n):
    """Label-invariance gate: every labelled class of a map has the cell
    form, the identity checks and the density of the map's first class.
    The labels only permute the rows of A, which leaves its RREF, ker A,
    d and |det A_P| unchanged."""
    classes = enumerate_trivalent(g, n)
    maps = 0
    for _, group in itertools.groupby(classes, key=lambda c: (c[0].s0, c[0].s1)):
        graphs = [graph for graph, _ in group]
        maps += 1
        form = _cell_form(graphs[0])
        checks = verify_form_identities(graphs[0])["checks"]
        for graph in graphs:
            other = _cell_form(graph)
            assert other == form
            assert verify_form_identities(graph)["checks"] == checks
            assert other.density() == form.density()
    assert maps == len(trivalent_maps(g, n))


def test_grouping_refuses_a_numerator_other_than_one():
    svars = ("s1", "s2")
    den = {(0,): 1, (0, 1): 2}
    for num in (Poly.variable("s1", svars), Poly.const(2, svars)):
        term = RationalFunction(svars, Fraction(1, 3), num, den)
        with pytest.raises(ValueError, match="numerator"):
            factor_groups([(None, 1, term)], 2)


def test_rhs_evaluate_never_reaches_the_grouped_evaluator(monkeypatch):
    """`rhs_evaluate`, the per-graph reference, is a plain per-term sum: it
    stays correct with `_integer_form` and `_side_totals` patched to raise."""
    import ribbonvol.kformula as kf

    def refuse(*args):
        raise AssertionError("rhs_evaluate called the grouped evaluator")

    monkeypatch.setattr(kf, "_integer_form", refuse)
    monkeypatch.setattr(kf, "_side_totals", refuse)
    terms = rhs_terms(0, 4)
    for point in sample_points(4, 2, seed=8):
        assert kf.rhs_evaluate(0, 4, point, terms) == per_term_sum(point, terms)
    point = {"s1": Fraction(3, 7)}
    assert kf.rhs_evaluate(1, 1, point) == lhs_laplace(1, 1).evaluate(point)


def _lhs_groups(lhs, n):
    """The bridge oracle from `lhs_laplace` to the groups of `_psi_groups`:
    the psi side, scalar * sum c s^e / prod s_k^(m_k), as groups over
    `_factor_order(n)`: c s^e has exponents m_k - e_k on s_k and 0 on each
    s_i + s_j, and coefficient scalar * c.  ValueError if one is negative."""
    den = [lhs.den.get(f, 0) for f in _factor_order(n)]
    groups = []
    for e, c in lhs.num.with_vars(lhs.svars).terms.items():
        exps = tuple(m - x for m, x in zip(den, e + (0,) * (len(den) - n)))
        if min(exps) < 0:
            raise ValueError(f"monomial {e} is not divided by the denominator")
        groups.append((exps, lhs.scalar * c))
    return groups


# every stable type with 3g - 3 + n <= 6
LHS_TYPES = [(0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9),
             (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 1), (2, 2), (2, 3)]


@pytest.mark.parametrize("g,n", LHS_TYPES)
def test_psi_side_groups_equal_the_closed_form(g, n):
    """The psi side as `verify_kcf` builds it from `_laplace_coefficients`,
    against the reduced `lhs_laplace` unpacked by the oracle `_lhs_groups`
    (equal as dicts) and against `RationalFunction.evaluate` of
    `lhs_laplace`, at the extremes 1/1000 and 1000 and at seeded points."""
    lhs = lhs_laplace(g, n)
    groups = _psi_groups(g, n)
    assert len(groups) == len(lhs.num.terms)
    assert all(len(exps) == len(_factor_order(n)) and not any(exps[n:])
               for exps, _ in groups)
    assert dict(groups) == dict(_lhs_groups(lhs, n))
    for point in sample_points(n, 4, seed=11 * n + g):
        assert grouped_sum(groups, point) == lhs.evaluate(point)


def test_psi_side_grouping_refuses_a_monomial_above_the_denominator():
    svars = ("s1", "s2")
    num = Poly(svars, {(2, 0): 1, (0, 1): 3})
    with pytest.raises(ValueError, match="denominator"):
        _lhs_groups(RationalFunction(svars, 1, num, {(0,): 1, (1,): 4}), 2)


def test_verify_kcf_never_evaluates_a_rational_function(monkeypatch):
    """Both sides go through `_integer_form` and `_side_totals`, and the psi
    side comes straight from `_laplace_coefficients`: `verify_kcf` is
    unchanged with `RationalFunction.evaluate` and `RationalFunction.reduced`
    patched to raise."""
    expected = verify_kcf(1, 2, trials=3, seed=4)

    def refuse(self, *args):
        raise AssertionError("verify_kcf evaluated or reduced a RationalFunction")

    monkeypatch.setattr(RationalFunction, "evaluate", refuse)
    monkeypatch.setattr(RationalFunction, "reduced", refuse)
    assert verify_kcf(1, 2, trials=3, seed=4) == expected and expected["equal"]


@pytest.mark.parametrize("g,n", sorted(set(MAP_ROUTE_TYPES) | set(LHS_TYPES)))
def test_integer_totals_equal_the_per_side_oracle(g, n):
    """Oracle gate for the shared integer form: at the extremes and at
    seeded points, each side's integer total over the shared denominator
    equals `evaluate_groups` of that side alone.  The graph side joins the
    psi side on every type `_map_groups` reaches in the suite."""
    sides = [_psi_groups(g, n)]
    integer_sides = [_integer_side(sides[0])]
    if (g, n) in MAP_ROUTE_TYPES:
        groups, den, _ = _map_groups(g, n)
        sides.append([(exps, Fraction(k, den)) for exps, k in groups.items()])
        integer_sides.append((groups, den))
    form = _integer_form(*integer_sides)
    for point in sample_points(n, 2 if n >= 5 else 4, seed=13 * n + g):
        coords = [point[f"s{i}"] for i in range(1, n + 1)]
        totals, den = _side_totals(form, coords)
        assert den > 0 and len(totals) == len(sides)
        for total, side in zip(totals, sides):
            assert Fraction(total, den) == evaluate_groups(side, coords)
        assert totals[0] == totals[-1]  # the formula, where both sides are built


# (g, n) -> the degree of D * side, D the product of each denominator
# factor to its highest exponent: sum(highest) - (6g - 6 + 3n).
KCF_DEGREES = {(0, 4): 18, (1, 3): 27, (2, 2): 18, (1, 4): 60}


@pytest.mark.parametrize("g,n", list(KCF_DEGREES))
def test_each_side_times_the_shared_denominator_is_homogeneous(g, n):
    """The Schwartz-Zippel degree of `verify_kcf`: every group of both
    sides has total exponent 6g - 6 + 3n, so each side times D = prod_f
    x_f^highest[f] (x_f the factors s_i and s_i + s_j) is a polynomial,
    homogeneous of degree sum(highest) - (6g - 6 + 3n); scaling every
    coordinate by 2 multiplies it by 2^degree, at each seeded point."""
    groups, den, _ = _map_groups(g, n)
    sides = [_integer_side(_psi_groups(g, n)), (groups, den)]
    form = _integer_form(*sides)
    highest = form[1]
    degree = sum(highest) - (6 * g - 6 + 3 * n)
    assert degree == KCF_DEGREES[g, n]
    assert {sum(exps) for side, _ in sides for exps in side} == {6 * g - 6 + 3 * n}

    def times_D(coords):
        totals, d = _side_totals(form, coords)
        factors = coords + [a + b for a, b in itertools.combinations(coords, 2)]
        D = prod(x ** M for x, M in zip(factors, highest))
        return [Fraction(total, d) * D for total in totals]

    for point in sample_points(n, 3, seed=19 * n + g):
        coords = [point[f"s{i}"] for i in range(1, n + 1)]
        value = times_D(coords)
        assert value[0] == value[1] != 0
        assert times_D([2 * x for x in coords]) == [2 ** degree * v for v in value]


def factor_powers(coords, highest):
    """The integer factor values (a, b), a/b = s_i or s_i + s_j, at `coords`
    and each factor's powers a^(M - m) b^m for m = 0..M, M = highest[f]."""
    p = [x.numerator for x in coords]
    q = [x.denominator for x in coords]
    values = list(zip(p, q))
    for i, j in itertools.combinations(range(len(coords)), 2):
        values.append((p[i] * q[j] + p[j] * q[i], q[i] * q[j]))
    powers = [[a ** (M - m) * b ** m for m in range(M + 1)]
              for (a, b), M in zip(values, highest)]
    return values, powers


def flat_side_totals(sides, coords):
    """Oracle for `_side_totals`: the flat route it replaced, on the integer
    sides `({exponent vector: int}, den)` that `_integer_form` takes.  Each
    group's product of F factor powers is formed on its own, F
    multiplications per group per point, with no prefix shared."""
    cden = lcm(*(den for _, den in sides))
    highest = [max(col) for col in zip(*(exps for groups, _ in sides for exps in groups))]
    values, powers = factor_powers(coords, highest)
    totals = [sum(k * (cden // den) * prod(map(list.__getitem__, powers, exps))
                  for exps, k in groups.items())
              for groups, den in sides]
    return totals, cden * prod(a ** M for (a, _), M in zip(values, highest))


def side_products(side):
    """The multiplications per point of one side of `_integer_form`, as
    (prefix nodes, suffix nodes, groups, last-level prefix nodes): one per
    node of each trie, one coefficient times suffix product per group, and
    one prefix product times the sum under it per node of the prefix trie's
    last level."""
    prefix, suffix, suf, _, _ = side
    return (sum(len(parent) for parent, _ in prefix),
            sum(len(parent) for parent, _ in suffix), len(suf), len(prefix[-1][0]))


def prefix_nodes(last):
    """The prefix node of each group, read off the `last` flags of a side of
    `_integer_form`: the number of prefix nodes closed before it."""
    return list(itertools.accumulate([0] + last[:-1]))


# (g, n) -> the graph side's multiplications per point: flat, one per group
# and factor, and through the two tries, the sum of `side_products`: one per
# distinct exponent prefix of factors 0..c-1 and one per distinct suffix of
# factors F-1 down to c, c = ceil(F/2), one per group and one per distinct
# full prefix.  F = 1 at (1,1) and (2,1), 3 at (1,2).
GRAPH_SIDE_PRODUCTS = {(1, 1): (1, 3), (2, 1): (1, 3), (1, 2): (27, 37),
                       (0, 4): (590, 269), (1, 3): (912, 401),
                       (0, 5): (23025, 4497), (1, 4): (47900, 8302)}


@pytest.mark.parametrize("g,n", list(GRAPH_SIDE_PRODUCTS))
def test_level_totals_equal_the_flat_products(g, n):
    """Oracle gate for the prefix-times-suffix evaluator: at the extremes
    and at seeded points both sides' integer totals and the shared
    denominator are those of the flat route, and the graph side, one prefix
    trie and one suffix trie cut at c = ceil(F/2), takes the pinned number
    of multiplications per point."""
    groups, den, _ = _map_groups(g, n)
    sides = [_integer_side(_psi_groups(g, n)), (groups, den)]
    form = _integer_form(*sides)
    F = len(_factor_order(n))
    prefix, suffix, suf, coeffs, last = side = form[2][1]
    assert (len(prefix), len(suffix)) == (-(-F // 2), F // 2)
    assert len(suf) == len(coeffs) == len(last) == len(groups)
    assert sum(last) == len(prefix[-1][0]) and last[-1]
    assert len(set(zip(prefix_nodes(last), suf))) == len(groups)
    assert (len(groups) * F, sum(side_products(side))) == GRAPH_SIDE_PRODUCTS[g, n]
    for point in sample_points(n, 4, seed=7 * n + g):
        coords = [point[f"s{i}"] for i in range(1, n + 1)]
        assert _side_totals(form, coords) == flat_side_totals(sides, coords)


def trie_keys(levels, columns, vectors):
    """The partial keys of every level of a `_trie`, rebuilt from its
    `parent` and `exps` lists, after checking that each level holds exactly
    the distinct partial keys of `vectors` at `columns`, each once."""
    keys = [()]
    for f, (parent, exps) in enumerate(levels):
        keys = [keys[a] + (e,) for a, e in zip(parent, exps)]
        assert len(set(keys)) == len(keys)
        assert set(keys) == {tuple(v[col] for col in columns[:f + 1]) for v in vectors}
    return keys


@pytest.mark.parametrize("g,n,spread", [(1, 1, 1), (2, 1, 1), (0, 4, 1), (0, 5, 1),
                                        (1, 4, 1), (1, 3, 5)])
def test_one_trie_pair_per_side_holds_each_partial_key_once(g, n, spread):
    """Layout gate for `_integer_form`, on both sides: every level of the
    prefix trie (columns 0..c-1) and of the suffix trie (columns F-1 down
    to c) holds exactly the side's distinct partial prefixes or suffixes,
    each once; each group's prefix node (read off the `last` flags) and
    suffix node rebuild its vector, in sorted order, with its int scaled to
    cden.  At seeded points the sum under each prefix node, computed group
    by group, equals the flat route's sum over the groups with that prefix,
    and the prefix products times those sums give `flat_side_totals`.  F =
    1 at (1,1) and (2,1), so the suffix trie has no level; every prefix
    node of the psi side at (0,4) holds one group.  Where the formula holds
    both sides reduce to one den, so at (1,3) the graph side is put over
    `spread` times its den, and the psi side's ints are scaled to cden."""
    groups, den, _ = _map_groups(g, n)
    sides = [_integer_side(_psi_groups(g, n)), (groups, den * spread)]
    form = cden, highest, laid = _integer_form(*sides)
    F = len(highest)
    c = -(-F // 2)
    columns = (range(c), range(F - 1, c - 1, -1))
    assert (g, n) != (0, 4) or all(laid[0][4])
    scaled = [(side, cden // den) for side, den in sides]
    for (side, scale), (prefix, suffix, suf, coeffs, last) in zip(scaled, laid):
        vectors = sorted(side)
        heads = trie_keys(prefix, columns[0], vectors)
        tails = trie_keys(suffix, columns[1], vectors)
        pre = prefix_nodes(last)
        assert [heads[a] + tails[b][::-1] for a, b in zip(pre, suf)] == vectors
        assert coeffs == [side[v] * scale for v in vectors]
        assert len(heads) == pre[-1] + 1
    for point in sample_points(n, 3, seed=17 * n + g):
        coords = [point[f"s{i}"] for i in range(1, n + 1)]
        _, powers = factor_powers(coords, highest)
        totals, _ = flat_side_totals(sides, coords)
        for (side, scale), (prefix, suffix, suf, coeffs, last), total in zip(
                scaled, laid, totals):
            P = _level_products(prefix, powers)
            S = _level_products(suffix, powers[c:][::-1])
            sums = [0] * len(P)
            for a, b, k in zip(prefix_nodes(last), suf, coeffs):
                sums[a] += k * S[b]
            flat = {}
            for v in sorted(side):
                tail = prod(map(list.__getitem__, powers[c:], v[c:]))
                flat[v[:c]] = flat.get(v[:c], 0) + side[v] * scale * tail
            assert sums == list(flat.values())
            assert sum(map(mul, P, sums)) == total
        assert _side_totals(form, coords)[0] == totals


def test_the_smallest_coefficient_step_is_detected(monkeypatch):
    """Soundness canary: one graph-side integer coefficient over the shared
    denominator cden shifted by 1, the smallest step the shared integer form
    represents, makes `verify_kcf` report a mismatch at every point, the
    first one included.

    Seed 1647 and the group worth least at the first point make the step
    there smaller than a double's precision (relative 9e-18) and than 1, so
    a comparison of rounded or truncated sides would pass that point and
    report a later one as the first mismatch."""
    import ribbonvol.kformula as kf

    g, n, seed = 0, 4, 1647
    groups, den, classes = _map_groups(g, n)
    psi = _integer_side(_psi_groups(g, n))
    cden = _integer_form(psi, (groups, den))[0]
    first = verify_kcf(g, n, trials=3, seed=seed)["points"][0]
    coords = [Fraction(x) for x in first["point"].values()]
    factors = coords + [a + b for a, b in itertools.combinations(coords, 2)]

    def worth(exps):
        return prod(f ** -e for f, e in zip(factors, exps))

    exps = min(groups, key=worth)
    shifted = {e: k * (cden // den) for e, k in groups.items()}
    shifted[exps] += 1
    assert _integer_form(psi, (shifted, cden))[0] == cden
    monkeypatch.setattr(kf, "_map_groups", lambda g, n: (shifted, cden, classes))
    report = kf.verify_kcf(g, n, trials=3, seed=seed)
    assert not report["equal"]
    assert report["first_mismatch"] == report["points"][0]
    assert not any(p["equal"] for p in report["points"])
    lhs, rhs = Fraction(report["points"][0]["lhs"]), Fraction(report["points"][0]["rhs"])
    assert rhs - lhs == worth(exps) / cden
    assert float(lhs) == float(rhs) and floor(lhs) == floor(rhs)


def test_dropping_one_psi_group_is_detected(monkeypatch):
    """Soundness canary: the psi side without one of its groups must make
    `verify_kcf` report a mismatch."""
    import ribbonvol.kformula as kf

    assert len(_psi_groups(0, 4)) > 1
    monkeypatch.setattr(kf, "_psi_groups", lambda g, n: _psi_groups(g, n)[1:])
    report = kf.verify_kcf(0, 4, trials=3, seed=2)
    assert not report["equal"] and report["first_mismatch"] is not None


def volume_factor_oracle(A):
    """Oracle for `kernel_normalization`: |det [V | W]| built in full, with
    W = right_inverse(A) and V = kernel_basis(A), all three by the
    Gauss-Jordan routes of `oracle_linalg`."""
    A = [[Fraction(x) for x in row] for row in A]
    V = kernel_basis(A)
    W = right_inverse(A)
    return V, abs(mat_det([[v[i] for v in V] + W[i] for i in range(len(A[0]))]))


def lex_first_invertible_block(B, size):
    """Oracle for the block of `_principal_block_identity`: the first S in
    combinations order whose principal block of B is invertible."""
    for S in itertools.combinations(range(len(B)), size):
        if mat_det([[Fraction(B[i][j]) for j in S] for i in S]) != 0:
            return list(S)
    return None


@pytest.mark.parametrize("g,n,degrees,classes", [
    (0, 3, None, 4), (1, 1, None, 1), (0, 4, None, 64), (1, 2, None, 9),
    (2, 1, None, 9), (1, 3, None, 236), (0, 5, None, 2240),
    (1, 2, [5, 3], 8), (1, 3, [4, 3, 3, 3, 3], 918)])
def test_volume_factor_equals_the_right_inverse_route(g, n, degrees, classes):
    found = enumerate_trivalent(g, n) if degrees is None else enumerate_graphs(g, n, degrees)
    assert len(found) == classes
    graphs = [graph for graph, _ in found]
    if (g, n) == (0, 5):
        graphs = random.Random(5).sample(graphs, 150)
    for graph in graphs:
        A = graph.face_edge_matrix()
        W, d, volfactor = kernel_normalization(A)
        V = [[Fraction(x, d) for x in w] for w in W]
        assert (V, volfactor) == volume_factor_oracle(A)


def test_volume_factor_refuses_rank_deficient_face_matrices():
    graphs = [graph for graph, _ in enumerate_graphs(0, 4, [4, 4])]
    assert len(graphs) == 27
    for graph in graphs:
        A = graph.face_edge_matrix()
        with pytest.raises(SingularMatrixError):
            volume_factor_oracle(A)
        with pytest.raises(SingularMatrixError):
            oracle_cells.kernel_normalization(A)
        with pytest.raises(SingularMatrixError):
            kernel_normalization(A)


@pytest.mark.parametrize("g,n", [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1), (1, 3)])
def test_rref_pivots_of_B_are_the_lex_first_invertible_block(g, n):
    dim = 6 * g - 6 + 2 * n
    for graph, _ in enumerate_trivalent(g, n):
        B = graph.oriented_adjacency()
        S = rref([[Fraction(x) for x in row] for row in B])[1]
        assert S == lex_first_invertible_block(B, dim)
        assert bareiss(B)[1] == S


@pytest.mark.parametrize("g,n", [(0, 4), (1, 2)])
def test_principal_block_identity_rejects_a_wrong_form(g, n):
    """Canary: the Bhat^{-1} comparison fails on a scaled or negated G and
    on a basis one vector short of the rank of B."""
    for graph, _ in enumerate_trivalent(g, n):
        form = _cell_form(graph)
        B = graph.oriented_adjacency()
        G, V = form.G, form.V
        assert _principal_block_identity(B, G, V)
        assert not _principal_block_identity(B, [[2 * x for x in row] for row in G], V)
        assert not _principal_block_identity(B, [[-x for x in row] for row in G], V)
        assert not _principal_block_identity(B, [row[:-1] for row in G[:-1]], V[:-1])

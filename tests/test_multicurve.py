import importlib.util
import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle_cells
from paper_geometry import limit_differential, limit_length
from ribbonvol import multicurve
from ribbonvol.exact import Poly, Surd
from ribbonvol.multicurve import (
    InvalidMulticurve,
    Multicurve,
    UnresolvableCrossing,
    curve_pair_cos,
    edge_multicurve,
    intersection_matrix,
)
from ribbonvol.ribbon import enumerate_graphs, enumerate_trivalent
from ribbonvol.wittencycle import example5_charts

ROOT = Path(__file__).resolve().parent.parent
SMALL_TYPES = [(0, 3), (1, 1), (0, 4), (1, 2)]


def e_poly(E, coeffs):
    vars = tuple(f"e{i}" for i in range(1, E + 1))
    return Poly(vars, {tuple(1 if j == i else 0 for j in range(E)): Fraction(c)
                       for i, c in enumerate(coeffs) if c})


def test_walk_validation():
    graph = enumerate_trivalent(1, 1)[0][0]  # no loops here
    with pytest.raises(InvalidMulticurve):
        Multicurve(((0,),)).validate(graph)  # single dart of a non-loop edge
    with pytest.raises(InvalidMulticurve):
        Multicurve(((),)).validate(graph)
    with pytest.raises(InvalidMulticurve):
        Multicurve(((99, 3),)).validate(graph)


def test_u_turn_rejected():
    graph = enumerate_trivalent(0, 3)[0][0]
    d = 0
    with pytest.raises(InvalidMulticurve):
        Multicurve(((d, graph.s1[d]),)).validate(graph)


def test_edge_multicurve_cases():
    cases = {1: 0, 2: 0, 3: 0}
    for g, n in SMALL_TYPES:
        for graph, _ in enumerate_trivalent(g, n):
            for k in range(graph.num_edges):
                a, b = graph.edges[k]
                mc = edge_multicurve(graph, k)
                if graph.vertex_of[a] == graph.vertex_of[b]:
                    assert mc.is_empty  # loops carry the empty multicurve
                    cases[3] += 1
                elif graph.face_of[a] != graph.face_of[b]:
                    assert len(mc.components) == 1  # two distinct faces
                    cases[1] += 1
                else:
                    assert len(mc.components) == 2  # same face on both sides
                    cases[2] += 1
    assert all(cases[c] > 0 for c in cases)


def test_edge_multicurve_limit_lengths():
    """Limiting lengths of the standard system hold as exact linear forms:
    A_i + A_j - 2 delta_k between distinct faces i, j, A_i - 2 delta_k for a
    doubled face (substituting the perimeter rows for x)."""
    for g, n in SMALL_TYPES:
        for graph, _ in enumerate_trivalent(g, n):
            A = graph.face_edge_matrix()
            E = graph.num_edges
            for k in range(E):
                a, b = graph.edges[k]
                mc = edge_multicurve(graph, k)
                ell = limit_length(graph, mc)
                if mc.is_empty:
                    assert ell.is_zero()
                    continue
                rows = {graph.face_labels[graph.face_of[a]] - 1,
                        graph.face_labels[graph.face_of[b]] - 1}
                counts = [sum(A[i][e] for i in rows) - 2 * (e == k)
                          for e in range(E)]
                assert e_poly(E, counts) == ell
                assert all(c >= 0 for c in counts)


def test_limit_differential_of_standard_system():
    """d(limit length) = -2 de_k on the cell, i.e. modulo the perimeter
    relations A de = 0; tested by pairing with a kernel basis."""
    from oracle_linalg import kernel_basis

    for g, n in SMALL_TYPES:
        for graph, _ in enumerate_trivalent(g, n):
            E = graph.num_edges
            A = [[Fraction(x) for x in row] for row in graph.face_edge_matrix()]
            V = kernel_basis(A)
            for k in range(E):
                mc = edge_multicurve(graph, k)
                if mc.is_empty:
                    continue
                d = limit_differential(graph, mc)
                for v in V:
                    assert sum(di * vi for di, vi in zip(d, v)) == -2 * v[k]


def test_perimeter_curve_has_zero_differential():
    # the boundary walk of a face is constant on the cell
    graph = enumerate_trivalent(0, 3)[0][0]
    face = list(reversed(graph.faces[0]))
    mc = Multicurve((tuple(face),)).validate(graph)
    assert limit_differential(graph, mc) == [0] * graph.num_edges


@pytest.mark.parametrize("g,n", SMALL_TYPES)
def test_limit_intersection_matrix_is_minus_2B(g, n):
    """The crossing engine reproduces X = -2B on the standard system of
    every trivalent graph, loops and multiedges included."""
    for graph, _ in enumerate_trivalent(g, n):
        E = graph.num_edges
        curves = [edge_multicurve(graph, k) for k in range(E)]
        X = intersection_matrix(graph, curves)
        B = graph.oriented_adjacency()
        for i in range(E):
            for j in range(E):
                assert X[i][j] == -2 * B[i][j], (graph.to_json(), i, j)


def test_loops_and_multiedges_present_in_range():
    # the claim above is vacuous unless the range really contains them
    seen_loop = seen_multi = False
    for g, n in SMALL_TYPES:
        for graph, _ in enumerate_trivalent(g, n):
            for a, b in graph.edges:
                if graph.vertex_of[a] == graph.vertex_of[b]:
                    seen_loop = True
            pairs = {(min(graph.vertex_of[a], graph.vertex_of[b]),
                      max(graph.vertex_of[a], graph.vertex_of[b]))
                     for a, b in graph.edges}
            if len(pairs) < graph.num_edges:
                seen_multi = True
    assert seen_loop and seen_multi


def test_disjoint_curves_have_zero_entry():
    for graph, _ in enumerate_trivalent(0, 4):
        curves = [edge_multicurve(graph, k) for k in range(graph.num_edges)]
        B = graph.oriented_adjacency()
        for i in range(len(curves)):
            for j in range(len(curves)):
                if i != j and B[i][j] == 0:
                    assert curve_pair_cos(graph, curves[i], curves[j]) == 0


def test_signed_edge_roundtrip():
    graph = enumerate_graphs(1, 2, [5, 3])[0][0]
    for k in range(graph.num_edges):
        mc = edge_multicurve(graph, k)
        if mc.is_empty:
            continue
        signed = mc.to_signed_edges(graph)
        back = Multicurve.from_signed_edges(graph, signed)
        assert back == mc
        assert Multicurve([list(c) for c in mc.components]) == mc
        last = mc.components[-1]
        assert Multicurve(mc.components[:-1] + (last + last,)) != mc


def _random_closed_walk(graph, rng, max_len=9):
    """A non-backtracking closed walk found by random search."""
    s1 = graph.s1
    for _ in range(400):
        start = rng.randrange(graph.num_darts)
        walk = [start]
        for _ in range(rng.randint(1, max_len - 1)):
            head = graph.vertex_of[walk[-1]]
            nxt = [d for d in range(graph.num_darts)
                   if graph.vertex_of[s1[d]] == head and d != s1[walk[-1]]]
            walk.append(rng.choice(nxt))
        if graph.vertex_of[s1[walk[0]]] == graph.vertex_of[walk[-1]] \
                and walk[0] != s1[walk[-1]]:
            return Multicurve((tuple(walk),)).validate(graph)
    raise AssertionError("no closed walk found")


@pytest.mark.parametrize("seed", range(6))
def test_pairing_is_antisymmetric_on_random_walks(seed):
    import random

    rng = random.Random(seed)
    pool = [g for gn in SMALL_TYPES for g, _ in enumerate_trivalent(*gn)]
    graph = pool[rng.randrange(len(pool))]
    P = _random_closed_walk(graph, rng)
    Q = _random_closed_walk(graph, rng)
    pq = curve_pair_cos(graph, P, Q)
    qp = curve_pair_cos(graph, Q, P)
    assert pq == -qp
    # trivalent crossings contribute only +-1
    assert pq.is_rational and pq.as_fraction().denominator == 1


@pytest.mark.parametrize("seed", range(4))
def test_pairing_ignores_walk_presentation(seed):
    """Rotating a component or reordering components changes nothing."""
    import random

    rng = random.Random(100 + seed)
    graph = enumerate_trivalent(1, 2)[seed % 9][0]
    P = _random_closed_walk(graph, rng)
    Q = _random_closed_walk(graph, rng)
    walk = P.components[0]
    r = rng.randrange(len(walk))
    rotated = Multicurve((walk[r:] + walk[:r],)).validate(graph)
    assert curve_pair_cos(graph, P, Q) == curve_pair_cos(graph, rotated, Q)
    reversed_walk = tuple(graph.s1[d] for d in reversed(walk))
    flipped = Multicurve((reversed_walk,)).validate(graph)
    assert curve_pair_cos(graph, P, Q) == curve_pair_cos(graph, flipped, Q)


def _interleaved_degree7_loops():
    """(graph, P, Q): two loops at a degree-7 vertex of a (1,3) [7, 3]
    graph whose chords cross there."""
    def interleave(a, b, c, d, n):
        inside = lambda x, lo, hi: (x - lo) % n < (hi - lo) % n
        return inside(c, a, b) != inside(d, a, b)

    for graph, _ in enumerate_graphs(1, 3, [7, 3]):
        v7 = next(v for v, c in enumerate(graph.vertices) if len(c) == 7)
        cyc = graph.vertices[v7]
        pos = {d: i for i, d in enumerate(cyc)}
        loops = [(a, b) for a, b in graph.edges
                 if graph.vertex_of[a] == graph.vertex_of[b] == v7]
        for (a1, b1), (a2, b2) in itertools.combinations(loops, 2):
            if interleave(pos[a1], pos[b1], pos[a2], pos[b2], 7):
                P = Multicurve(((a1,),)).validate(graph)
                Q = Multicurve(((a2,),)).validate(graph)
                return graph, P, Q
    raise AssertionError("no interleaved loops at a degree-7 vertex")


def test_transversal_crossing_needs_exact_angle_or_override():
    """Two interleaved loops at a degree-7 vertex have no exact crossing
    angle, so their crossing cosine raises."""
    graph, P, Q = _interleaved_degree7_loops()
    with pytest.raises(UnresolvableCrossing):
        curve_pair_cos(graph, P, Q)


def _unresolvable_cases():
    """(graph, P, Q, message) for each way a crossing cannot be resolved.

    A U-turn (d, s1[d]) is refused by `validate`, so the two cases built on
    one are reachable only by unvalidated walks: at its first dart it
    separates from a curve through d toward d itself, and it passes through
    the tail vertex of d by d alone, end-disjoint from a passage through the
    other two darts of a trivalent vertex.
    """
    graph = enumerate_trivalent(1, 1)[0][0]  # two trivalent vertices, no loops
    s1 = graph.s1
    d = 0
    walks = [Multicurve((w,)) for w in itertools.permutations(range(graph.num_darts), 2)
             if _is_closed_walk(graph, w)]
    through_d = next(c for c in walks if d in c.components[0])
    avoiding_d = next(c for c in walks
                      if graph.edge_of[d] not in {graph.edge_of[x] for x in c.components[0]})
    u_turn = Multicurve(((d, s1[d]),))
    v = graph.vertex_of[d]
    g7, P7, Q7 = _interleaved_degree7_loops()
    v7 = g7.vertex_of[P7.components[0][0]]
    return [
        (graph, u_turn, avoiding_d, f"disjoint passages through trivalent vertex {v}"),
        (g7, P7, Q7, f"no exact angle for a degree-7 crossing at vertex {v7}"),
        (graph, u_turn, through_d, f"degenerate separation at vertex {v}"),
    ]


def _is_closed_walk(graph, walk):
    try:
        Multicurve((walk,)).validate(graph)
    except InvalidMulticurve:
        return False
    return True


def test_unresolvable_crossings_keep_their_messages():
    """Each refusal of the integer sums carries the message of the `Surd`
    route, and both refuse the same inputs."""
    for graph, P, Q, message in _unresolvable_cases():
        for pair_cos in (curve_pair_cos, oracle_cells.curve_pair_cos):
            with pytest.raises(UnresolvableCrossing) as info:
                pair_cos(graph, P, Q)
            assert str(info.value) == message


def test_integer_crossing_sums_equal_the_surd_route_on_the_packaged_charts():
    """The eight (5,3) charts of `witten12`, whose crossings include
    pentagon chords: the integer sums against the `Surd` sums, entry by
    entry, every entry a `Surd`."""
    charts, _ = example5_charts()
    irrational = 0
    for chart, _ in charts:
        X = intersection_matrix(chart.graph, chart.curves)
        assert X == oracle_cells.intersection_matrix(chart.graph, chart.curves)
        assert all(type(x) is Surd for row in X for x in row)
        irrational += sum(not x.is_rational for row in X for x in row)
    assert irrational > 0


@pytest.mark.parametrize("g,n", [(0, 4), (1, 2), (2, 1)])
def test_integer_crossing_sums_equal_the_surd_route_on_standard_systems(g, n):
    for graph, _ in enumerate_trivalent(g, n):
        curves = [edge_multicurve(graph, k) for k in range(graph.num_edges)]
        assert intersection_matrix(graph, curves) == \
            oracle_cells.intersection_matrix(graph, curves)


def test_intersection_matrix_builds_no_fraction(monkeypatch):
    """Every crossing entry is summed in ints and kept as the int parts of
    its `Surd`, the zero diagonal and the negated entries included: on the
    eight packaged (5,3) charts, whose entries include sqrt(5) parts, and on
    the standard systems of the trivalent (0,4) graphs, `Fraction.__new__`
    is never called and every entry has int parts."""
    charts, _ = example5_charts()
    systems = [(chart.graph, chart.curves) for chart, _ in charts]
    systems += [(graph, [edge_multicurve(graph, k) for k in range(graph.num_edges)])
                for graph, _ in enumerate_trivalent(0, 4)]
    made = 0
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    matrices = [intersection_matrix(graph, curves) for graph, curves in systems]
    monkeypatch.undo()
    assert made == 0
    assert all(type(x) is Surd and type(x.a) is type(x.b) is int
               for X in matrices for row in X for x in row)
    assert any(x.b for X in matrices for row in X for x in row)


def _checked_runs(calls):
    """`_maximal_runs` that asserts its result equals the double-loop oracle's
    on every call and counts the calls in `calls`."""
    runs = multicurve._maximal_runs

    def checked(graph, gamma, delta, opposite):
        got = runs(graph, gamma, delta, opposite)
        assert got == oracle_cells.oracle_maximal_runs(graph, gamma, delta, opposite), (
            graph.to_json(), gamma, delta, opposite)
        calls.append(1)
        return got
    return checked


def test_maximal_runs_equal_the_double_loop_on_the_witten12_charts():
    """Every ordered pair of curves of the eight packaged charts, a curve
    with itself included, every pair of their components, both ways round."""
    charts, _ = example5_charts()
    pairs = 0
    for chart, _ in charts:
        for P, Q in itertools.product(chart.curves, repeat=2):
            for gamma, delta in itertools.product(P.components, Q.components):
                for opposite in (False, True):
                    assert (multicurve._maximal_runs(chart.graph, gamma, delta, opposite)
                            == oracle_cells.oracle_maximal_runs(chart.graph, gamma, delta,
                                                                opposite))
                    pairs += 1
    assert pairs == 496  # component pairs of the packaged charts, both ways round


def _load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_maximal_runs_equal_the_double_loop_in_the_chart_searches(monkeypatch, capsys):
    """Every call of the chart search of `scripts/build_charts.py`, on the
    seven cells besides the lead chart's, and of the slot search of
    `scripts/find_lead_chart.py`: the curve pools' self-crossing counts and
    every candidate chart's crossing matrix."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    build, lead = _load_script("build_charts"), _load_script("find_lead_chart")
    calls = []
    checked = _checked_runs(calls)
    monkeypatch.setattr(multicurve, "_maximal_runs", checked)
    monkeypatch.setattr(build, "_maximal_runs", checked)
    lead_key = build.CellChart.from_json(build.LEAD_CHART).graph.canonical_form()
    others = [graph for graph, _ in enumerate_graphs(1, 2, [5, 3])
              if graph.canonical_form() != lead_key]
    assert len(others) == 7
    for graph in others:
        build.find_chart(graph)
    assert len(lead.main()) == 15
    capsys.readouterr()
    assert len(calls) > 60_000

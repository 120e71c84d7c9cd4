import functools
import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

import oracle_ribbon as oracle
from oracle_linalg import mat_rank
from enumerate_cases import ORACLE_CASES
from ribbon_counts import (
    cell_degree_sequences,
    euler_sum,
    euler_terms,
    harer_zagier,
    rec_calls,
    rooted_unicellular_cubic_maps,
)
import ribbonvol.ribbon as ribbon
from ribbonvol.exact import transpose
from ribbonvol.ribbon import (
    InvalidRibbonGraph,
    RibbonGraph,
    UnsupportedGraph,
    _automorphisms,
    _bfs_relabel,
    _block_rotation,
    _class_mask,
    _class_pairs,
    _distinct_orders,
    _each_map,
    _face_orders,
    _inverse,
    _labellings,
    _opens_with_two,
    _rooted,
    _search_pairings,
    _unlabelled_maps,
    enumerate_graphs,
    enumerate_maps,
    enumerate_trivalent,
    face_cycles,
)
from ribbonvol.wittencycle import example5_charts

# one-face torus graph: two trivalent vertices joined by three edges
G11 = RibbonGraph((1, 2, 0, 4, 5, 3), (3, 4, 5, 0, 1, 2), (1,))


def test_degree_two_vertex_rejected():
    # a 2-cycle in s0 is a degree-2 vertex
    with pytest.raises(InvalidRibbonGraph):
        RibbonGraph((1, 0, 3, 2), (2, 3, 0, 1), (1, 2))


def test_s1_must_be_fixed_point_free_involution():
    with pytest.raises(InvalidRibbonGraph):
        RibbonGraph((1, 2, 0, 4, 5, 3), (0, 1, 2, 3, 4, 5), (1,))


def test_disconnected_rejected():
    s0 = (1, 2, 0, 4, 5, 3, 7, 8, 6, 10, 11, 9)
    s1 = (3, 4, 5, 0, 1, 2, 9, 10, 11, 6, 7, 8)
    with pytest.raises(InvalidRibbonGraph):
        RibbonGraph(s0, s1, (1, 2))


def test_face_labels_must_be_bijection():
    with pytest.raises(InvalidRibbonGraph):
        RibbonGraph((1, 2, 0, 4, 5, 3), (3, 4, 5, 0, 1, 2), (2,))


def _random_involution(rng, N, fixed=0):
    """A random involution of range(N) with `fixed` fixed points (N - fixed
    even)."""
    darts = list(range(N))
    rng.shuffle(darts)
    s1 = list(range(N))
    for a, b in zip(darts[fixed::2], darts[fixed + 1::2]):
        s1[a], s1[b] = b, a
    return s1


def _validation_cases(rng, trials=400):
    """Random (s0, s1, face_labels) triples: valid graphs with their darts
    renamed, and each kind of invalid input, one corruption of a valid
    graph or of a random permutation pair at a time."""
    bases = [graph for degrees, g, n in [([3] * 4, 0, 4), ([5, 3], 1, 2), ([4, 4, 3, 3], 1, 3)]
             for graph, _ in enumerate_graphs(g, n, degrees)]
    for trial in range(trials):
        graph = relabelled(rng.choice(bases), rng)
        s0, s1, labels = list(graph.s0), list(graph.s1), list(graph.face_labels)
        N = len(s0)
        kind = trial % 9
        if kind == 1:  # not permutations: a repeated dart, or lengths that differ
            target = rng.choice([s0, s1])
            if rng.random() < 0.5:
                target[rng.randrange(N)] = target[rng.randrange(N)]
            else:
                target.pop()
        elif kind == 2:  # odd or empty
            N = rng.choice([0, 1, 3, 5, 7])
            s0 = list(range(1, N)) + [0] if N else []
            s1 = _random_involution(rng, N, fixed=N % 2)
        elif kind == 3:  # fixed points
            s1 = _random_involution(rng, N, fixed=rng.choice([2, 4]))
        elif kind == 4:  # not an involution: a 3-cycle of s1 on three darts
            a, b, c = rng.sample(range(N), 3)
            s1 = list(range(N))
            s1[a], s1[b], s1[c] = b, c, a
        elif kind == 5:  # a vertex of degree 1 or 2: s0 a random permutation
            s0 = list(range(N))
            rng.shuffle(s0)
        elif kind == 6:  # disconnected: two graphs side by side
            other = relabelled(rng.choice(bases), rng)
            M = other.num_darts
            s0 += [N + d for d in other.s0]
            s1 += [N + d for d in other.s1]
            labels += [len(labels) + k for k in other.face_labels]
            if rng.random() < 0.5:  # dart names interleaved
                pi = list(range(N + M))
                rng.shuffle(pi)
                s0, s1, labels = oracle.conjugate((s0, s1, labels), pi)
        elif kind == 7:  # bad labels
            labels = rng.choice([labels[:-1], labels + [len(labels) + 1],
                                 [0] + labels[1:], [labels[0]] * len(labels)])
        elif kind == 8:  # a random permutation and involution, so that
            # several checks fail at once and their order decides
            s0 = list(range(N))
            rng.shuffle(s0)
            s1 = _random_involution(rng, N, fixed=rng.choice([0, 0, 2]))
            labels = labels[:rng.choice([-1, None])]
        yield s0, s1, labels


def test_validation_equals_the_loop_checks_of_the_oracle():
    """`RibbonGraph` raises what the oracle's dart-by-dart checks raise,
    class and message, or keeps the cycles the oracle builds; every kind
    of fault occurs, and valid graphs too."""
    rng = random.Random(42)
    messages = set()
    valid = 0
    for s0, s1, labels in _validation_cases(rng):
        try:
            expected = oracle.validated_cycles(s0, s1, labels)
        except InvalidRibbonGraph as exc:
            with pytest.raises(InvalidRibbonGraph) as raised:
                RibbonGraph(s0, s1, labels)
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
            messages.add(str(exc).split(" ")[0])
        else:
            graph = RibbonGraph(s0, s1, labels)
            assert (graph.vertices, graph.faces) == expected
            valid += 1
    assert messages == {"s0", "need", "s1", "vertex", "graph", "face"}
    assert valid > 0


def test_faces_partition_darts():
    faces = G11.faces
    assert len(faces) == 1
    assert sorted(d for f in faces for d in f) == list(range(6))
    assert sum(len(f) for f in faces) == 2 * G11.num_edges


@pytest.mark.parametrize("g,n", [(0, 4), (1, 2), (1, 3)])
def test_faces_match_oracle_and_are_ordered_by_minimal_dart(g, n):
    for graph, _ in enumerate_trivalent(g, n):
        faces = graph.faces
        assert list(faces) == oracle.faces_of(graph.s0, graph.s1)
        assert len(faces) == n
        assert sorted(d for f in faces for d in f) == list(range(graph.num_darts))
        # each cycle starts at its minimal dart and the cycles ascend by it
        assert all(f[0] == min(f) for f in faces)
        assert [f[0] for f in faces] == sorted(f[0] for f in faces)


@pytest.mark.parametrize("g,n,degrees", [
    (0, 4, [3] * 4), (1, 2, [5, 3]), (1, 2, [3] * 4), (1, 3, [3] * 6),
])
def test_labelled_canonical_form_extends_unlabelled_pair(g, n, degrees):
    for graph, _ in enumerate_graphs(g, n, degrees):
        pair = (graph.s0, graph.s1)
        assert graph.canonical_form()[:2] == pair == oracle.canonical_pair(*pair)


def test_genus_bookkeeping():
    # V=2, E=3, F=1 -> genus 1; V=2, E=3, F=3 -> genus 0
    assert G11.genus == 1
    theta = enumerate_graphs(0, 3, [3, 3])[0][0]
    assert theta.genus == 0 and theta.num_faces == 3
    # every connected pairing on the block s0 is a graph whose Euler defect
    # 2 - V + E - F is even and >= 0, so the genus needs no check of its own
    for degrees in [[3, 3], [4, 4], [5, 3], [3, 3, 3, 3], [6, 6]]:
        s0 = oracle.block_s0(degrees)
        V, E = len(degrees), len(s0) // 2
        built = 0
        for inv in oracle.fixed_point_free_involutions(list(range(2 * E))):
            s1 = tuple(inv[d] for d in range(2 * E))
            if not oracle.connected(s0, s1):
                continue
            F = len(oracle.faces_of(s0, s1))
            graph = RibbonGraph(s0, s1, range(1, F + 1))
            defect = 2 - V + E - F
            assert defect % 2 == 0 and defect >= 0
            assert graph.genus == defect // 2
            built += 1
        assert built


def test_face_edge_matrix_properties():
    A = G11.face_edge_matrix()
    assert A == [[2, 2, 2]]
    for graph, _ in enumerate_trivalent(0, 4):
        A = graph.face_edge_matrix()
        E = graph.num_edges
        for e in range(E):
            assert sum(A[i][e] for i in range(len(A))) == 2
        # total perimeter is twice the total edge length
        assert sum(sum(row) for row in A) == 2 * E


def test_face_edge_matrix_full_rank():
    for g, n in [(0, 3), (1, 1), (0, 4), (1, 2)]:
        for graph, _ in enumerate_trivalent(g, n):
            assert mat_rank([[Fraction(x) for x in row]
                             for row in graph.face_edge_matrix()]) == n


def test_oriented_adjacency_skew_and_rank():
    for g, n in [(0, 3), (1, 1), (0, 4), (1, 2)]:
        for graph, _ in enumerate_trivalent(g, n):
            B = graph.oriented_adjacency()
            E = graph.num_edges
            assert all(B[i][j] == -B[j][i] for i in range(E) for j in range(E))
            BQ = [[Fraction(x) for x in row] for row in B]
            assert mat_rank(BQ) == 6 * g - 6 + 2 * n


def test_kernel_of_B_is_image_of_A_transpose():
    for g, n in [(0, 3), (1, 1), (1, 2)]:
        for graph, _ in enumerate_trivalent(g, n):
            A = [[Fraction(x) for x in row] for row in graph.face_edge_matrix()]
            B = [[Fraction(x) for x in row] for row in graph.oriented_adjacency()]
            E = graph.num_edges
            # B annihilates every row of A
            for row in A:
                assert all(sum(B[i][j] * row[j] for j in range(E)) == 0
                           for i in range(E))
            # and the kernel has no more than that: rank B = E - n
            assert mat_rank(B) == E - n


def test_oriented_adjacency_needs_trivalent():
    graph = enumerate_graphs(1, 2, [5, 3])[0][0]
    with pytest.raises(UnsupportedGraph):
        graph.oriented_adjacency()


# the types of the `enumerate` benchmark workload
WORKLOAD_TYPES = [
    (2, 1, [3] * 6), (2, 1, [4, 3, 3, 3, 3]), (1, 3, [3] * 6),
    (0, 5, [4, 4, 4]), (0, 5, [5, 5]), (1, 2, [5, 3]),
]


def test_automorphisms_identity_counted():
    """The enumerator's |Aut| is the count of the fused oracle's search;
    `test_canonical_form_of_relabelled_classes_matches_fused_oracle` checks
    it on every class of the workload types."""
    assert oracle.canonical_form(G11)[1] == 6
    for graph, aut in enumerate_trivalent(0, 3):
        assert aut >= 1
        assert oracle.canonical_form(graph)[1] == aut


@pytest.mark.parametrize("g,n,degrees", [
    (0, 4, [3] * 4), (1, 2, [5, 3]), (1, 3, [4, 4, 4]), (0, 5, [5, 5]),
])
def test_orbit_enumeration_matches_per_labelling_oracle(g, n, degrees):
    """Automorphism orbits give the same classes, |Aut| and order as one
    canonical form per labelling."""
    assert enumerate_graphs(g, n, degrees) == oracle.labelled_classes(g, n, degrees)


def relabelled(graph, rng):
    """`graph` with its darts renamed by a random permutation."""
    pi = list(range(graph.num_darts))
    rng.shuffle(pi)
    return RibbonGraph(*oracle.conjugate((graph.s0, graph.s1, graph.face_labels), pi))


def assert_canonical_under_relabelling(graph, aut, rng, times=2):
    """`canonical_form()` and the enumerator's |Aut| equal the fused
    oracle's form and count on `graph` and on random relabellings of it,
    which are not canonical as labelled."""
    form = graph.canonical_form()
    assert oracle.canonical_form(graph) == (form, aut)
    for _ in range(times):
        moved = relabelled(graph, rng)
        assert oracle.canonical_form(moved) == (form, aut)
        assert moved.canonical_form() == form


@pytest.mark.parametrize("g,n,degrees", WORKLOAD_TYPES)
def test_canonical_form_of_relabelled_classes_matches_fused_oracle(g, n, degrees):
    rng = random.Random(f"{g},{n},{degrees}")
    for graph, aut in enumerate_graphs(g, n, degrees):
        assert_canonical_under_relabelling(graph, aut, rng)


def test_canonical_form_of_relabelled_chart_graphs_matches_fused_oracle():
    rng = random.Random(12)
    charts, _ = example5_charts()
    assert len(charts) == 8
    for chart, aut in charts:
        assert_canonical_under_relabelling(chart.graph, aut, rng)


@pytest.mark.parametrize("degrees", [[3] * 6, [4, 3, 3, 3, 3]])
def test_bounded_canonical_pair_is_least_encoding(degrees):
    # every pairing the unpruned search yields, whatever its face count
    s0, pairings = oracle.search_pairings(degrees)
    faces = set()
    for s1 in pairings:
        faces.add(len(face_cycles(s0, s1)))
        first = {0: _bfs_relabel(s0, s1, 0)}
        assert oracle.canonical_pair(s0, s1) == _rooted(s0, s1, face_cycles(s0, s1), first)[0]
    assert len(faces) > 1


def top_darts(s0):
    """The darts of the vertices of the largest degree, the top darts."""
    vertices = oracle.perm_cycles(s0)
    top = max(map(len, vertices))
    return {d for cyc in vertices if len(cyc) == top for d in cyc}


def shortest_faces(s0, s1, top_only):
    """The faces of (s0, s1) of the least length among those that hold a top
    dart (`top_only`) or among all faces."""
    faces = face_cycles(s0, s1)
    top = top_darts(s0)
    among = [f for f in faces if not top_only or top & set(f)]
    least = min(map(len, among))
    return [f for f in among if len(f) == least]


def rooted_at_a_shortest_face(s0, s1, top_only=True):
    return any(0 in f for f in shortest_faces(s0, s1, top_only))


@pytest.mark.parametrize("degrees", [
    [3] * 6, [4, 3, 3, 3, 3], [4, 4, 4], [5, 5], [3] * 8, [5, 3], [3] * 4,
    [4, 4, 4, 4], [6, 6],
])
def test_pruned_search_yields_the_oracle_n_face_pairings_in_order(degrees):
    """The search emits, in the oracle's DFS order, exactly the oracle's
    n-face pairings whose root face is a shortest face among the faces that
    hold a top dart."""
    s0, pairings = oracle.search_pairings(degrees)
    assert _block_rotation(degrees) == s0
    counted = [(len(face_cycles(s0, s1)), s1) for s1 in pairings]
    top = max(f for f, _ in counted)
    kept = 0
    for n in range(-1, top + 2):
        pruned = []
        _search_pairings(degrees, n, pruned.append)
        expected = [s1 for f, s1 in counted
                    if f == n and rooted_at_a_shortest_face(s0, s1)]
        assert pruned == expected, n
        kept += len(pruned)
    assert 0 < kept < len(counted)


@pytest.mark.parametrize("n,degrees,calls", [
    (n, degrees, calls) for (_, n, degrees), calls in zip(
        WORKLOAD_TYPES, (405, 404, 395, 57, 40, 40))] + [
    (4, [3] * 4, 36), (6, [3] * 8, 2838)])
def test_search_descends_only_where_n_faces_can_still_close(n, degrees, calls):
    """The face count is bounded at the candidate, before the call: with
    `left` slots unpaired, at least one and at most `left` more faces close.
    Checking it in the callee instead took 707, 704, 942, 316, 212 and 45
    calls on the workload types, 76 on (0,4) and 18 299 on (0,6).

    On one degree run with n > 1 every face is a top face, and the root
    path is also bounded by the open faces' share of the darts off closed
    faces.  Without that bound the calls were 405, 404, 671, 89, 52 and 40,
    48 on (0,4) and 5113 on (0,6); the one-face types and the mixed-run
    (1,2) 5,3 keep theirs."""
    assert rec_calls(degrees, n)[0] == calls


@pytest.mark.parametrize("n,degrees,even", [
    (4, [3] * 4, 1), (4, [4] * 4, 7), (6, [6, 6], 1)])
def test_share_bound_keeps_pairings_whose_faces_share_one_length(n, degrees, even):
    """Canary for the share bound's `<=`: on these pairings every face has
    N / n darts, so once the root face closes, its length times the faces
    left to close equals the darts off closed faces.  The search emits all
    of the oracle's n-face pairings of equal face lengths; a strict `<`
    would drop each of them."""
    s0 = _block_rotation(degrees)

    def equal(s1):
        return len({len(f) for f in face_cycles(s0, s1)}) == 1

    found = []
    _search_pairings(degrees, n, found.append)
    kept = [s1 for s1 in found if equal(s1)]
    assert len(kept) == even
    assert kept == [s1 for s1 in oracle_n_face_pairings(n, tuple(degrees))[1]
                    if equal(s1)]


@pytest.mark.parametrize("n,degrees", [(n, degrees) for _, n, degrees in WORKLOAD_TYPES]
                         + [(2, [3] * 8), (4, [3] * 8), (6, [3] * 8),
                            (2, [4, 3, 3]), (4, [4, 3, 3]), (3, [4, 4, 3, 3]),
                            (1, [5, 4, 3]), (3, [5, 4, 3]), (5, [5, 4, 3])])
def test_deduped_maps_equal_the_oracle_canonical_pairs(n, degrees):
    maps = _unlabelled_maps(sorted(degrees, reverse=True), n)
    assert maps
    assert sorted(pair for pair, _ in maps) == oracle.canonical_pairs(n, degrees)


# (g, n, degrees, maps, labelled classes) of the layouts with three degree
# runs, or two runs with two vertices in the first, where the used vertices
# stop being a prefix of the layout: vertex 0 may open a vertex of the
# last run while one of the middle run is unused.  The counts are a brute
# force's, over all involutions with a connectivity filter and a canonical
# BFS key from every root, shared with no search.
MIXED_RUN_COUNTS = [
    (2, 1, [5, 4, 3], 24, 24), (2, 1, [4, 4, 3, 3], 33, 33),
    (1, 3, [5, 4, 3], 108, 648), (1, 3, [4, 4, 3, 3], 154, 864),
    (0, 5, [5, 4, 3], 36, 4320), (0, 5, [4, 4, 3, 3], 63, 6480),
]


@pytest.mark.parametrize("g,n,degrees,maps,classes", MIXED_RUN_COUNTS)
def test_mixed_run_layouts_reach_every_map(g, n, degrees, maps, classes):
    """Canary for the connectivity cut: a search that ended a branch once
    the smallest unpaired slot lay on an unused vertex found 23, 28, 104,
    132, 32 and 48 of these maps, missing those where the vertex of the
    middle run is not adjacent to vertex 0."""
    assert len(_unlabelled_maps(degrees, n)) == maps
    assert len(enumerate_graphs(g, n, degrees)) == classes


@pytest.mark.parametrize("n,degrees,off,total", [
    (2, [4, 3, 3], 3, 8), (4, [4, 3, 3], 2, 7), (3, [4, 4, 3, 3], 41, 154),
    (2, [5, 3], 1, 4),
])
def test_a_prune_over_all_faces_misses_maps(n, degrees, off, total):
    """Canary for the top-dart rule: `off` of these maps have no top dart on
    any shortest face, so a search rooted at a top dart on a shortest face
    of all never reaches them; the search keeps the shortest top faces."""
    maps = oracle.canonical_pairs(n, degrees)
    missed = [pair for pair in maps if not any(
        top_darts(pair[0]) & set(f) for f in shortest_faces(*pair, top_only=False))]
    assert (len(missed), len(maps)) == (off, total)
    s0, pairings = oracle.search_pairings(sorted(degrees, reverse=True))
    n_face = [s1 for s1 in pairings if len(face_cycles(s0, s1)) == n]
    over_all = {oracle.canonical_pair(s0, s1) for s1 in n_face
                if rooted_at_a_shortest_face(s0, s1, top_only=False)}
    assert sorted(set(maps) - over_all) == missed
    over_top = {oracle.canonical_pair(s0, s1) for s1 in n_face
                if rooted_at_a_shortest_face(s0, s1)}
    assert sorted(over_top) == maps


# (n, degrees, the oracle's n-face pairings): the `enumerate` workload
# types, then the trivalent (0,4), (2,2) and (0,5); trivalent (1,3) is the
# workload's 3^6
PAIRING_COUNTS = [(n, degrees, count) for (_, n, degrees), count in zip(
    WORKLOAD_TYPES, (105, 105, 664, 54, 36, 20))] + [
    (4, [3] * 4, 32), (2, [3] * 8, 8112), (5, [3] * 6, 336)]
# the pairings the search emits, for the types of PAIRING_COUNTS in order
EMITTED = dict(zip(((n, tuple(degrees)) for n, degrees, _ in PAIRING_COUNTS),
                   (105, 105, 76, 10, 10, 9, 6, 1516, 39)))


@functools.lru_cache(maxsize=None)
def oracle_n_face_pairings(n, degrees):
    """The block rotation and the oracle's unpruned pairings with n faces;
    `degrees` a tuple sorted descending."""
    s0, pairings = oracle.search_pairings(list(degrees))
    return s0, [s1 for s1 in pairings if len(face_cycles(s0, s1)) == n]


@pytest.mark.parametrize("n,degrees,count", PAIRING_COUNTS)
def test_search_yields_each_map_once_per_top_degree_root_orbit(n, degrees, count):
    """The oracle's unpruned search roots every pairing at a top dart, so a
    map U is found once per orbit of Aut U on its m top darts: sum_U m /
    |Aut U| n-face pairings, |Aut U| = len(orders).  The search emits U once
    per orbit on its m'_U top darts on shortest top faces: sum_U m'_U /
    |Aut U|."""
    emitted = EMITTED[n, tuple(degrees)]
    degrees = sorted(degrees, reverse=True)
    m = degrees[0] * degrees.count(degrees[0])
    found = []
    _search_pairings(degrees, n, found.append)
    maps = _unlabelled_maps(degrees, n)
    orbits = sum(Fraction(m, len(orders)) for _, orders in maps)
    assert len(oracle_n_face_pairings(n, tuple(degrees))[1]) == orbits == count
    rooted = sum(Fraction(len(top_darts(s0) & set().union(*shortest_faces(s0, s1, True))),
                          len(orders))
                 for (s0, s1), orders in maps)
    assert len(found) == rooted == emitted


@pytest.mark.parametrize("g", [1, 2])
def test_one_face_trivalent_search_emits_the_rooted_unicellular_cubic_maps(g):
    """On a one-face trivalent type every dart is a top dart on the one
    face, so the search emits each map once per orbit of Aut U on its 2E
    darts: the number of rooted maps, a closed form that shares no cut with
    the search (1 and 105)."""
    found = []
    _search_pairings([3] * (4 * g - 2), 1, found.append)
    assert len(found) == rooted_unicellular_cubic_maps(g)


def test_each_map_is_relabelled_from_every_root_once(monkeypatch):
    """One BFS relabelling per emitted pairing, from root 0, and at most
    N - 1 more per new map, whose root-0 relabelling is reused.  The roots
    whose keys go in `seen`, the top darts on shortest top faces, are
    relabelled in full; every other root is bounded by the least key so
    far, or skipped with no BFS once that key has s0'[1] = 2 and the root's
    would have 3.  Each root is relabelled at most once, and every root is
    relabelled or skipped.  On (1,3) 3^6 that is 169 full and 317 bounded
    relabellings (689 bounded before roots were skipped), where rooting
    every pairing at any top dart took 1446 full ones (`before`)."""
    full = bounded = skipped = 0
    relabel, rooted = ribbon._bfs_relabel, ribbon._rooted
    roots = []  # the roots of the bounded relabellings of one `_rooted` call

    def counted(s0, s1, root, bound=None):
        nonlocal full, bounded
        if bound is None:
            full += 1
        else:
            bounded += 1
            roots.append(root)
        return relabel(s0, s1, root, bound)

    def counted_rooted(s0, s1, faces, relabels):
        nonlocal skipped
        roots.clear()
        out = rooted(s0, s1, faces, relabels)
        assert len(set(roots)) == len(roots) and not set(roots) & set(relabels)
        lost = set(range(len(s0))) - set(roots) - set(relabels)
        best = bytes(out[0][0] + out[0][1])
        assert all(relabel(s0, s1, r)[0][1] == 3 > best[1] for r in lost)
        skipped += len(lost)
        return out

    for g, n, degrees, expected, before in [
            (1, 3, [3] * 6, (76, 46, 18, 169, 317, 372), 1446),
            (2, 1, [4, 3, 3, 3, 3], (105, 29, 16, 192, 276, 72), 540)]:
        full = bounded = skipped = 0
        monkeypatch.setattr(ribbon, "_bfs_relabel", counted)
        monkeypatch.setattr(ribbon, "_rooted", counted_rooted)
        out = enumerate_graphs(g, n, degrees)
        monkeypatch.undo()
        pairings = []
        _search_pairings(degrees, n, pairings.append)
        found = len(pairings)
        N = len(_block_rotation(degrees))
        maps = len({(graph.s0, graph.s1) for graph, _ in out})
        assert (found, maps, N, full, bounded, skipped) == expected
        assert full + bounded + skipped == found + (N - 1) * maps
        assert full < before


# (n, degrees, the roots `_rooted` skips from root 0 over all of the
# oracle's n-face pairings): the types of PAIRING_COUNTS, then of
# MIXED_RUN_COUNTS.  No pairing of trivalent (2,1) has a loop, an edge from
# r to s0(r) or s0^2(r), so no key has s0'[1] = 2 and no root is skipped.
SKIP_COUNTS = [(n, degrees, skips) for (n, degrees), skips in zip(
    [(n, degrees) for n, degrees, _ in PAIRING_COUNTS]
    + [(n, degrees) for _, n, degrees, _, _ in MIXED_RUN_COUNTS],
    (0, 270, 2108, 350, 194, 89, 115, 14895, 2017, 618, 817, 3253, 6194, 1197, 3022))]


@pytest.mark.parametrize("n,degrees,skips", SKIP_COUNTS)
def test_skipped_roots_lose_at_the_second_entry(monkeypatch, n, degrees, skips):
    """On every oracle n-face pairing, from every root: `_opens_with_two`
    says whether the key has s0'[1] = 2, and `_rooted` from root 0 finds
    the least key and the roots that reach it of a full pass over all
    roots, skipping only roots whose full key is above it."""
    degrees = tuple(sorted(degrees, reverse=True))
    s0, pairings = oracle_n_face_pairings(n, degrees)
    N = len(s0)
    relabel = ribbon._bfs_relabel
    bounded = []

    def recorded(s0, s1, root, bound=None):
        bounded.append(root)
        return relabel(s0, s1, root, bound)

    skipped_total = 0
    for s1 in pairings:
        keys = [relabel(s0, s1, r) for r in range(N)]
        assert _opens_with_two(s0, s1) == [key[1] == 2 for key, _ in keys]
        faces = face_cycles(s0, s1)
        bounded.clear()
        monkeypatch.setattr(ribbon, "_bfs_relabel", recorded)
        pair, orders = _rooted(s0, s1, faces, {0: keys[0]})
        monkeypatch.undo()
        best = min(key for key, _ in keys)
        assert pair == (tuple(best[:N]), tuple(best[N:]))
        assert orders == _face_orders(faces, [new for key, new in keys if key == best])
        skipped = set(range(1, N)) - set(bounded)
        assert all(keys[r][0] > best for r in skipped)
        skipped_total += len(skipped)
    assert skipped_total == skips


@pytest.mark.parametrize("n,degrees,count", PAIRING_COUNTS)
def test_bytes_keys_equal_the_oracle_pairs_from_every_root(n, degrees, count):
    """The key from every root of every one of the oracle's n-face
    pairings is the oracle's relabelled pair `(s0', s1')` as bytes, with
    the same dart map."""
    s0, pairings = oracle_n_face_pairings(n, tuple(sorted(degrees, reverse=True)))
    assert len(pairings) == count
    for s1 in pairings:
        for root in range(len(s0)):
            key, new = _bfs_relabel(s0, s1, root)
            (s0p, s1p), oracle_new = oracle.bfs_relabel(s0, s1, root)
            assert key == bytes(s0p + s1p)
            assert new == oracle_new


def test_encoding_keys_are_bytes():
    """On the one-face torus from dart 0: s0' = 1 3 4 0 5 2 and
    s1' = 2 4 0 5 1 3, one byte per dart number."""
    key, new = _bfs_relabel(G11.s0, G11.s1, 0)
    assert type(key) is bytes
    assert key == bytes([1, 3, 4, 0, 5, 2, 2, 4, 0, 5, 1, 3])
    assert new == [0, 1, 3, 2, 4, 5]
    assert key == bytes(sum(oracle.bfs_relabel(G11.s0, G11.s1, 0)[0], ()))


def _big_trivalent_graph(V, rng):
    """A connected trivalent map on V vertices (V even), 3V darts: a cycle
    through the vertices in order and a random matching on their third
    darts, with the faces labelled at random."""
    s0 = _block_rotation([3] * V)
    s1 = [0] * (3 * V)
    for v in range(V):
        w = (v + 1) % V
        s1[3 * v], s1[3 * w + 1] = 3 * w + 1, 3 * v
    thirds = [3 * v + 2 for v in range(V)]
    rng.shuffle(thirds)
    for a, b in zip(thirds[::2], thirds[1::2]):
        s1[a], s1[b] = b, a
    F = len(face_cycles(s0, s1))
    labels = list(range(1, F + 1))
    rng.shuffle(labels)
    return RibbonGraph(s0, s1, labels)


@pytest.mark.parametrize("V", [84, 86, 88])
def test_canonical_form_past_256_darts_equals_the_oracle(V):
    """Keys are bytes up to 256 darts and tuples beyond (252, 258 and 264
    darts here); the canonical form equals the oracle's either way."""
    rng = random.Random(V)
    graph = _big_trivalent_graph(V, rng)
    key = _bfs_relabel(graph.s0, graph.s1, 0)[0]
    assert type(key) is (bytes if 3 * V <= 256 else tuple)
    form = graph.canonical_form()
    assert form == oracle.canonical_form(graph)[0]
    assert relabelled(graph, rng).canonical_form() == form


def test_enumeration_matches_brute_force_oracle():
    for g, n in [(0, 3), (1, 1)]:
        fast = enumerate_graphs(g, n, [3, 3])
        brute = oracle.orbit_classes(g, n, [3, 3])
        assert len(fast) == len(brute)
        assert sorted(a for _, a in fast) == sorted(a for _, a in brute)


@pytest.mark.parametrize("g,n,degrees", [
    (0, 3, [3, 3]), (1, 1, [3, 3]), (0, 4, [3] * 4), (1, 2, [3] * 4),
    (0, 5, [5, 5]), (1, 3, [4, 4, 4]), (0, 5, [4, 4, 4]),
    (2, 1, [5, 4, 3]), (2, 1, [4, 4, 3, 3]), (1, 3, [5, 4, 3]), (0, 5, [5, 4, 3]),
])
def test_orbit_counting_mass_identity(g, n, degrees):
    """Sum over classes of (2E)!/|Aut| equals the number of labelled
    permutation triples, counted independently by the oracle.  The mixed
    runs of (1,3) and (0,5) 4,4,3,3 take about 2 and 5 s in the oracle and
    run in scale/test_at_scale.py."""
    total = oracle.total_labelled_structures(g, n, degrees)
    N = sum(degrees)
    fast = enumerate_graphs(g, n, degrees)
    assert sum(factorial(N) // aut for _, aut in fast) == total


# (g, n, chi(M_{g,n})): the types whose every cell Tier-1 lists
EULER_TYPES = [
    (0, 3, 1), (0, 4, -1), (1, 1, Fraction(-1, 12)), (1, 2, Fraction(1, 12)),
    (0, 5, 2), (2, 1, Fraction(1, 120)), (1, 3, Fraction(-1, 6)),
]


@pytest.mark.parametrize("g,n,chi", EULER_TYPES)
def test_every_cell_sums_to_the_euler_characteristic(g, n, chi):
    """The cells of M_{g,n} x R_+^n are the face-labelled ribbon graphs with
    every degree >= 3, so chi(M_{g,n}) = sum over them of (-1)^V / |Aut|
    (Harer-Zagier, Penner, Kontsevich): a check of every class and every
    |Aut| `enumerate_maps` lists, over every degree sequence at once, that
    shares no cut with the search."""
    assert harer_zagier(g, n) == chi
    assert euler_sum(euler_terms(g, n)) == chi


@pytest.mark.parametrize("tamper", ["halve one aut", "drop one class"])
def test_a_tampered_class_breaks_the_euler_characteristic(tamper):
    """Canary: halving the |Aut| of one map's classes, or dropping one of
    its classes, moves the (1,3) sum off -1/6."""
    (V, aut, classes), *rest = euler_terms(1, 3)
    first = (V, Fraction(aut, 2), classes) if tamper == "halve one aut" else (V, aut, classes - 1)
    assert euler_sum(rest + [(V, aut, classes)]) == Fraction(-1, 6)
    assert euler_sum(rest + [first]) != Fraction(-1, 6)


def eligible_roots_and_automorphisms(degrees, n):
    """(e, |Aut U|) of each map `_each_map` visits: e the number of its
    eligible roots, the top darts on shortest top faces, relabelled in full
    there, and |Aut U| the number of those with root 0's key."""
    found = []
    _each_map(degrees, n, lambda s0, s1, faces, full: found.append(
        (len(full), len(_automorphisms(full)))))
    return found


@pytest.mark.parametrize("g,n", [(g, n) for g, n, _ in EULER_TYPES])
def test_the_search_emits_each_map_once_per_eligible_root_orbit(g, n):
    """On every degree sequence of every cell of (g, n), the search emits
    each map once per orbit of Aut U on its e eligible roots, so it emits
    sum_U e / |Aut U| pairings; Aut U acts freely on the eligible roots, so
    each e is a multiple of |Aut U|.  A check of the dedupe and of every
    |Aut U| against the search, with no oracle."""
    for degrees in map(list, cell_degree_sequences(g, n)):
        found = eligible_roots_and_automorphisms(degrees, n)
        assert all(e % aut == 0 for e, aut in found), degrees
        assert rec_calls(degrees, n)[1] == sum(e // aut for e, aut in found), degrees


def test_a_map_counted_twice_breaks_the_emitted_identity():
    """Canary: a dedupe that visited one map twice would count its
    e / |Aut U| twice, which moves the sum off the 76 pairings the search
    emits on (1,3) 3^6."""
    found = eligible_roots_and_automorphisms([3] * 6, 3)
    assert rec_calls([3] * 6, 3)[1] == sum(e // aut for e, aut in found) == 76
    assert sum(e // aut for e, aut in found + found[:1]) != 76


def test_enumeration_is_deterministic_and_idempotent():
    a = enumerate_graphs(1, 2, [5, 3])
    b = enumerate_graphs(1, 2, [5, 3])
    assert [(g.to_json(), aut) for g, aut in a] == [(g.to_json(), aut) for g, aut in b]


def test_enumerated_graphs_have_requested_invariants():
    for g, n, degrees in [(0, 4, [3] * 4), (1, 2, [5, 3]), (1, 2, [3] * 4)]:
        for graph, _ in enumerate_graphs(g, n, degrees):
            assert graph.genus == g
            assert graph.num_faces == n
            assert graph.degree_sequence == tuple(sorted(degrees, reverse=True))


def test_example_cycle_cells():
    out = enumerate_graphs(1, 2, [5, 3])
    assert len(out) == 8
    assert all(aut == 1 for _, aut in out)


def test_inconsistent_input_gives_empty_list():
    assert enumerate_graphs(0, 1, [3]) == []
    assert enumerate_graphs(2, 1, [3, 3]) == []
    assert enumerate_graphs(0, 3, [3]) == []
    assert enumerate_graphs(1, 2, [7, 3]) == []  # half-integer genus


def test_degree_order_does_not_matter():
    a = enumerate_graphs(1, 2, [3, 5])
    b = enumerate_graphs(1, 2, [5, 3])
    assert [(g.to_json(), aut) for g, aut in a] == [(g.to_json(), aut) for g, aut in b]


def test_json_roundtrip_and_version_check():
    j = G11.to_json()
    assert j["v"] == 1
    assert RibbonGraph.from_json(j).canonical_form() == G11.canonical_form()
    j["v"] = 2
    with pytest.raises(InvalidRibbonGraph):
        RibbonGraph.from_json(j)



# the types of `test_enumerate_matches_the_row_dict_oracle` and three
# trivalent ones, up to the 713 classes of (2,2)
SHARED_CLASS_TYPES = [(g, n, [int(d) for d in degrees.split(",")])
                      for g, n, degrees in ORACLE_CASES] + [
    (0, 4, [3] * 4), (1, 3, [3] * 6), (2, 2, [3] * 8)]


@pytest.mark.parametrize("g,n,degrees", ORACLE_CASES)
def test_enumerated_classes_are_their_canonical_forms(g, n, degrees):
    """Each class comes as its own canonical form, (1,2) 5,3 among them,
    whose cells `example5_charts` keys by their fields."""
    for graph, _ in enumerate_graphs(g, n, [int(d) for d in degrees.split(",")]):
        assert graph.canonical_form() == (graph.s0, graph.s1, graph.face_labels)


@pytest.mark.parametrize("g,n,degrees", SHARED_CLASS_TYPES)
def test_relabelled_classes_equal_freshly_built_graphs(g, n, degrees):
    """Every class but a map's first is that graph relabelled; it must be
    indistinguishable from a `RibbonGraph` built and validated afresh."""
    for graph, aut in enumerate_graphs(g, n, degrees):
        fresh = RibbonGraph(graph.s0, graph.s1, graph.face_labels)
        assert type(graph) is RibbonGraph
        assert graph == fresh and hash(graph) == hash(fresh)
        assert graph.vertices == fresh.vertices
        assert graph.faces == fresh.faces
        assert graph.edges == fresh.edges
        assert (graph.genus, graph.num_faces) == (fresh.genus, fresh.num_faces) == (g, n)
        assert graph.face_edge_matrix() == fresh.face_edge_matrix()
        assert graph.canonical_form() == fresh.canonical_form()
        assert oracle.canonical_form(fresh) == (graph.canonical_form(), aut)


def test_graphs_are_values_keyed_by_all_three_fields():
    """Equality needs the same face labels too, lists are stored as tuples,
    and the fields the hash and the caches derive from cannot be set."""
    graph = enumerate_graphs(0, 4, [3] * 4)[0][0]
    swapped = (graph.face_labels[1], graph.face_labels[0]) + graph.face_labels[2:]
    assert graph != RibbonGraph(graph.s0, graph.s1, swapped)
    assert graph == RibbonGraph(list(graph.s0), list(graph.s1), list(graph.face_labels))
    assert graph != (graph.s0, graph.s1, graph.face_labels)
    with pytest.raises(AttributeError):
        graph.s0 = graph.s1


def test_each_map_is_validated_once(monkeypatch):
    """(0,5) 4,4,4 has 540 classes; each of its maps runs `__init__`
    once, where one validation per class would run it 540 times."""
    calls = 0
    init = RibbonGraph.__init__

    def counted(self, *args):
        nonlocal calls
        calls += 1
        init(self, *args)

    monkeypatch.setattr(RibbonGraph, "__init__", counted)
    out = enumerate_graphs(0, 5, [4, 4, 4])
    monkeypatch.undo()
    maps = _unlabelled_maps([4, 4, 4], 5)
    assert len(out) == 540
    assert calls == len(maps) == len({(graph.s0, graph.s1) for graph, _ in out})


@pytest.mark.parametrize("g,n,degrees", SHARED_CLASS_TYPES)
def test_maps_list_their_classes_only_when_reached(monkeypatch, g, n, degrees):
    """`enumerate_maps` counts the classes before listing any; a map's
    classes are listed when the iterator reaches it, the first of them the
    labels 1..n of the map's graph, and they add up to the count."""
    listed = []
    class_mask = ribbon._class_mask

    def recorded(pairs, columns):
        listed.append(pairs)
        return class_mask(pairs, columns)

    monkeypatch.setattr(ribbon, "_class_mask", recorded)
    count, maps = enumerate_maps(g, n, degrees)
    assert listed == []
    total = 0
    for i, (graph, aut, mask) in enumerate(maps):
        assert len(listed) == i + 1
        classes = list(_labellings(n, mask))
        assert classes[0] == graph.face_labels == tuple(range(1, n + 1))
        assert classes == sorted(classes)
        total += len(classes)
    assert total == count == len(enumerate_graphs(g, n, degrees))


def test_relabelled_checks_the_labels():
    graph = enumerate_graphs(0, 4, [3] * 4)[0][0]
    for labels in [(1, 1, 2, 3), (1, 2, 3), (1, 2, 3, 4, 5), (0, 1, 2, 3)]:
        with pytest.raises(InvalidRibbonGraph):
            graph._relabelled(labels)


def test_relabelled_recomputes_the_labelled_canonical_form():
    """A relabelled copy of a graph whose canonical form was already read
    gets the form and |Aut| of its own labels, as a fresh graph does."""
    graph = enumerate_graphs(0, 4, [3] * 4)[0][0]
    graph.canonical_form()
    forms = set()
    for labels in itertools.permutations(range(1, 5)):
        copy = graph._relabelled(labels)
        fresh = RibbonGraph(graph.s0, graph.s1, labels)
        assert copy.s0 is graph.s0 and copy.s1 is graph.s1
        assert copy.face_labels == labels
        assert copy.canonical_form() == fresh.canonical_form()
        assert oracle.canonical_form(copy) == oracle.canonical_form(fresh)
        forms.add(fresh.canonical_form())
    assert len(forms) == 12


def test_more_than_256_half_edges_refused_before_the_search(monkeypatch):
    """The search's keys hold one dart number per byte; the limit is
    checked before any pairing is searched, and 256 darts pass it."""
    def no_search(degrees, n, emit):
        raise AssertionError("pairing search started")

    monkeypatch.setattr(ribbon, "_search_pairings", no_search)
    with pytest.raises(ValueError, match="256 half-edges, got 258"):
        enumerate_graphs(0, 130, [258])
    with pytest.raises(ValueError, match="256 half-edges, got 258"):
        enumerate_trivalent(0, 45)
    searched = []

    def empty_search(degrees, n, emit):
        searched.append(sum(degrees))

    monkeypatch.setattr(ribbon, "_search_pairings", empty_search)
    assert enumerate_graphs(0, 129, [256]) == []
    assert searched == [256]


# the types of `test_enumerate_matches_the_row_dict_oracle` (with the
# trivalent (1,3) and the empty (0,1) 3), trivalent (0,4), (2,2) and (0,5),
# and (0,6) 4,4,4,4, whose maps have 720 labellings each: 698 maps
COSET_TYPES = [(n, [int(d) for d in degrees.split(",")])
               for _, n, degrees in ORACLE_CASES] + [
    (4, [3] * 4), (2, [3] * 8), (5, [3] * 6), (6, [4] * 4)]

# the coset types and the six layouts of MIXED_RUN_COUNTS
MASK_TYPES = COSET_TYPES + [(n, degrees) for _, n, degrees, _, _ in MIXED_RUN_COUNTS]


def _compose(a, b):
    """a o b: k -> a[b[k]]."""
    return tuple(a[k] for k in b)


def _is_coset(orders):
    """True when the distinct orders are closed under a o b^{-1} o c, which
    holds exactly for a coset of a subgroup of S_n, and each distinct order
    is given by equally many automorphisms."""
    coset = _distinct_orders(orders)
    law = all(_compose(_compose(a, _inverse(b)), c) in coset
              for a in coset for b in coset for c in coset)
    counts = {o: 0 for o in coset}
    for o in orders:
        counts[tuple(o)] += 1
    return law and len(set(counts.values())) == 1


@pytest.fixture(scope="module")
def coset_maps():
    return {(n, tuple(degrees)): _unlabelled_maps(sorted(degrees, reverse=True), n)
            for n, degrees in MASK_TYPES}


def _genus(n, degrees):
    return (2 - len(degrees) + sum(degrees) // 2 - n) // 2


def _columns(n):
    return list(zip(*itertools.permutations(range(1, n + 1))))


def _mask_classes(orders, n, pairs):
    """{labels: |Aut L|} of the labellings that the mask of `pairs` keeps."""
    mask = _class_mask(pairs, _columns(n))
    return dict.fromkeys(_labellings(n, mask), len(orders) // len(_distinct_orders(orders)))


@pytest.mark.parametrize("n,degrees", MASK_TYPES)
def test_labelled_classes_equal_the_orbit_oracle(coset_maps, n, degrees):
    """The classes `enumerate_maps` lists for each map, the labellings its
    mask keeps with the map's |Aut L|, are the least images of all n!
    labellings over every order, and those over the coset of distinct
    orders alone, dict for dict and in order."""
    maps = sorted(coset_maps[n, tuple(degrees)])
    listed = list(enumerate_maps(_genus(n, degrees), n, degrees)[1])
    assert len(listed) == len(maps)
    for (pair, orders), (graph, aut, mask) in zip(maps, listed):
        assert (graph.s0, graph.s1) == pair
        classes = dict.fromkeys(_labellings(n, mask), aut)
        assert list(classes.items()) == sorted(oracle.orbit_labelled_classes(orders, n).items())
        assert classes == oracle.coset_labelled_classes(orders, n)


@pytest.mark.parametrize("n,degrees", COSET_TYPES)
def test_distinct_face_orders_form_a_coset(coset_maps, n, degrees):
    """The property `_class_pairs` relies on, checked on the data."""
    maps = coset_maps[n, tuple(degrees)]
    assert all(_is_coset(orders) for _, orders in maps)


@pytest.mark.parametrize("n,degrees", MASK_TYPES)
def test_the_coset_over_any_order_is_a_group_and_the_mask_its_orbits(coset_maps, n, degrees):
    """For every order sigma of H, sigma^-1 H holds the identity and is
    closed under composition; the mask keeps n! / |H| labellings, one per
    orbit, with at most |H| - 1 pairs."""
    for _, orders in coset_maps[n, tuple(degrees)]:
        coset = _distinct_orders(orders)
        for sigma in coset:
            back = _inverse(sigma)
            group = {_compose(back, o) for o in coset}
            assert tuple(range(n)) in group
            assert all(_compose(a, b) in group for a in group for b in group)
        pairs = _class_pairs(coset)
        assert len(pairs) <= len(coset) - 1
        mask = _class_mask(pairs, _columns(n))
        assert (factorial(n) if mask is None else sum(mask)) * len(coset) == factorial(n)


def test_a_dropped_pair_lists_extra_classes(coset_maps):
    """Canary for the mask: without its first pair, every map with |H| > 1
    keeps more labellings than it has classes, so the classes differ from
    the orbit oracle's.  Not every pair is needed: where G holds all of S_3
    on three faces, the pairs (0,1) and (1,2) imply (0,2)."""
    checked = 0
    for (n, _), maps in coset_maps.items():
        for _, orders in maps:
            pairs = _class_pairs(_distinct_orders(orders))
            if pairs:
                checked += 1
                classes = _mask_classes(orders, n, pairs[1:])
                assert len(classes) > factorial(n) // len(_distinct_orders(orders))
                assert classes != oracle.orbit_labelled_classes(orders, n)
    assert checked == 135


def test_the_coset_types_cover_698_maps(coset_maps):
    assert sum(len(coset_maps[n, tuple(degrees)]) for n, degrees in COSET_TYPES) == 698


def test_a_dropped_face_order_breaks_the_coset_check(coset_maps):
    """Canary: without one of its distinct orders, a map's orders are no
    longer a coset.  It needs |H| >= 3: one order left of two is a coset of
    the trivial group."""
    orders = max((orders for maps in coset_maps.values() for _, orders in maps),
                 key=lambda orders: len(_distinct_orders(orders)))
    assert len(_distinct_orders(orders)) >= 3 and _is_coset(orders)
    dropped = tuple(orders[0])
    assert not _is_coset([o for o in orders if tuple(o) != dropped])

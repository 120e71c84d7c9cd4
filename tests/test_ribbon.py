import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

import oracle_ribbon as oracle
from test_cli import ORACLE_CASES
import ribbonvol.ribbon as ribbon
from ribbonvol.exact import mat_rank, transpose
from ribbonvol.ribbon import (
    InvalidRibbonGraph,
    RibbonGraph,
    UnsupportedGraph,
    _bfs_relabel,
    _block_rotation,
    _distinct_orders,
    _encoding_key,
    _inverse,
    _labelled_classes,
    _search_pairings,
    _unlabelled_maps,
    enumerate_graphs,
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
        least = min(_bfs_relabel(s0, s1, r)[0] for r in range(len(s0)))
        assert oracle.canonical_pair(s0, s1) == least
    assert len(faces) > 1


@pytest.mark.parametrize("degrees", [
    [3] * 6, [4, 3, 3, 3, 3], [4, 4, 4], [5, 5], [3] * 8,
])
def test_pruned_search_yields_the_oracle_n_face_pairings_in_order(degrees):
    s0, pairings = oracle.search_pairings(degrees)
    assert _block_rotation(degrees) == s0
    counted = [(len(face_cycles(s0, s1)), s1) for s1 in pairings]
    top = max(f for f, _ in counted)
    for n in range(-1, top + 2):
        pruned = []
        _search_pairings(degrees, n, pruned.append)
        assert pruned == [s1 for f, s1 in counted if f == n], n


@pytest.mark.parametrize("n,degrees", [(n, degrees) for _, n, degrees in WORKLOAD_TYPES]
                         + [(2, [3] * 8), (4, [3] * 8), (6, [3] * 8)])
def test_deduped_maps_equal_the_oracle_canonical_pairs(n, degrees):
    maps = _unlabelled_maps(sorted(degrees, reverse=True), n)
    assert maps
    assert sorted(pair for pair, _ in maps) == oracle.canonical_pairs(n, degrees)


# (n, degrees, n-face pairings): the `enumerate` workload types, then the
# trivalent (0,4), (2,2) and (0,5); trivalent (1,3) is the workload's 3^6
PAIRING_COUNTS = [(n, degrees, count) for (_, n, degrees), count in zip(
    WORKLOAD_TYPES, (105, 105, 664, 54, 36, 20))] + [
    (4, [3] * 4, 32), (2, [3] * 8, 8112), (5, [3] * 6, 336)]


@pytest.mark.parametrize("n,degrees,count", PAIRING_COUNTS)
def test_search_yields_each_map_once_per_top_degree_root_orbit(n, degrees, count):
    """The search roots every pairing at a dart of a vertex of the largest
    degree, so a map U is yielded once per orbit of Aut U on the m darts of
    those vertices: sum_U m / |Aut U| pairings, |Aut U| = len(orders)."""
    degrees = sorted(degrees, reverse=True)
    m = degrees[0] * degrees.count(degrees[0])
    found = []
    _search_pairings(degrees, n, found.append)
    orbits = sum(Fraction(m, len(orders)) for _, orders in _unlabelled_maps(degrees, n))
    assert len(found) == orbits == count


def test_each_map_is_relabelled_from_every_root_once(monkeypatch):
    """One BFS relabelling per n-face pairing and 2E per new map; the bound
    n-face pairings + 4E x maps allows 2320 on (1,3) 3^6, and canonicalising
    every pairing afresh would take about 12 800."""
    calls = 0
    relabel = ribbon._bfs_relabel

    def counted(*args):
        nonlocal calls
        calls += 1
        return relabel(*args)

    monkeypatch.setattr(ribbon, "_bfs_relabel", counted)
    out = enumerate_graphs(1, 3, [3] * 6)
    monkeypatch.undo()
    pairings = []
    _search_pairings([3] * 6, 3, pairings.append)
    found = len(pairings)
    s0 = _block_rotation([3] * 6)
    maps = len({(graph.s0, graph.s1) for graph, _ in out})
    assert (found, maps, len(s0)) == (664, 46, 18)
    assert calls == found + len(s0) * maps
    assert calls <= found + 2 * len(s0) * maps == 2320


def test_encoding_keys_are_bytes():
    assert _encoding_key(((1, 2, 0), (2, 0, 1))) == bytes([1, 2, 0, 2, 0, 1])


def test_enumeration_matches_brute_force_oracle():
    for g, n in [(0, 3), (1, 1)]:
        fast = enumerate_graphs(g, n, [3, 3])
        brute = oracle.orbit_classes(g, n, [3, 3])
        assert len(fast) == len(brute)
        assert sorted(a for _, a in fast) == sorted(a for _, a in brute)


@pytest.mark.parametrize("g,n,degrees", [
    (0, 3, [3, 3]), (1, 1, [3, 3]), (0, 4, [3] * 4), (1, 2, [3] * 4),
    (0, 5, [5, 5]), (1, 3, [4, 4, 4]), (0, 5, [4, 4, 4]),
])
def test_orbit_counting_mass_identity(g, n, degrees):
    """Sum over classes of (2E)!/|Aut| equals the number of labelled
    permutation triples, counted independently by the oracle."""
    total = oracle.total_labelled_structures(g, n, degrees)
    N = sum(degrees)
    fast = enumerate_graphs(g, n, degrees)
    assert sum(factorial(N) // aut for _, aut in fast) == total


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
    """Encodings hold one dart number per byte; the limit is checked before
    any pairing is searched, and 256 darts pass it."""
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
            for n, degrees in COSET_TYPES}


@pytest.mark.parametrize("n,degrees", COSET_TYPES)
def test_labelled_classes_equal_the_orbit_oracle(coset_maps, n, degrees):
    """The classes read off the coset of distinct face orders are the least
    images of all n! labellings over every order, dict for dict."""
    for _, orders in coset_maps[n, tuple(degrees)]:
        assert _labelled_classes(orders, n) == oracle.orbit_labelled_classes(orders, n)


@pytest.mark.parametrize("n,degrees", COSET_TYPES)
def test_distinct_face_orders_form_a_coset(coset_maps, n, degrees):
    """The property `_labelled_classes` relies on, checked on the data."""
    maps = coset_maps[n, tuple(degrees)]
    assert all(_is_coset(orders) for _, orders in maps)


def test_the_coset_types_cover_698_maps(coset_maps):
    assert sum(map(len, coset_maps.values())) == 698


def test_a_dropped_face_order_breaks_the_coset_check(coset_maps):
    """Canary: without one of its distinct orders, a map's orders are no
    longer a coset.  It needs |H| >= 3: one order left of two is a coset of
    the trivial group."""
    orders = max((orders for maps in coset_maps.values() for _, orders in maps),
                 key=lambda orders: len(_distinct_orders(orders)))
    assert len(_distinct_orders(orders)) >= 3 and _is_coset(orders)
    dropped = tuple(orders[0])
    assert not _is_coset([o for o in orders if tuple(o) != dropped])

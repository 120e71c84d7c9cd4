#!/usr/bin/env python3
"""Construct multicurve charts for all eight degree-(5,3) cells of type (1,2)
and freeze them into the package data.

The lead cell carries the documented curve system.  Its graph has a
degree-5 vertex carrying a loop (edge 4) and three parallel edges (1, 2, 3)
to a degree-3 vertex; face 1 is the bigon between edges 1 and 2.  The
curves, as signed edge sequences with edges 1-3 oriented toward the
degree-5 vertex:

    C1 = [ 2, 4, -2, 3, -4, -3]
    C2 = [ 1, 4, -1, 3, -4, -3]
    C3 = [ 1, 4, -2] u [4]
    C4 = [ 1, 4, -2, 3, -4, -1, 2, -3]

`lead_charts` tries every assignment of the eight darts to the edge ends
and keeps those on which the curves reproduce the reference crossing
matrix `X_REF` exactly; the first is the lead chart.  For the remaining
cells a deterministic search assembles systems from edge multicurves and
short embedded closed walks until the crossing matrix is invertible.  The
script validates the full set by recomputing every cell's Laplace term and
checking the expected multiset before writing charts/witten12.json.
"""

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ribbonvol.exact import RationalFunction, SingularMatrixError, Surd, solve_sqrt5
from ribbonvol.multicurve import (
    InvalidMulticurve,
    Multicurve,
    UnresolvableCrossing,
    _maximal_runs,
    _passages,
    _run_contribution,
    edge_multicurve,
    intersection_matrix,
)
from ribbonvol.hypgeom import IdealPolygonChord, chords_cross
from ribbonvol.ribbon import InvalidRibbonGraph, RibbonGraph, enumerate_graphs, face_cycles
from ribbonvol.wittencycle import CellChart, cell_volume_laplace

# the pool prefix whose combinations `find_chart` tries; `combinations`
# order over a longer pool reaches other charts first
POOL_CAP = 40

S5 = Surd(0, 1)
X_REF = [
    [Surd(0), S5 - 1, Surd(-2), Surd(-2)],
    [1 - S5, Surd(0), Surd(2), S5 - 1],
    [Surd(2), Surd(-2), Surd(0), 1 - S5],
    [Surd(2), 1 - S5, S5 - 1, Surd(0)],
]

# dart ids of the lead cell: 0..4 at the degree-5 vertex, 5..7 at the degree-3 vertex
S0 = (1, 2, 3, 4, 0, 6, 7, 5)

WALKS = {
    "C1": [[2, 4, -2, 3, -4, -3]],
    "C2": [[1, 4, -1, 3, -4, -3]],
    "C3": [[1, 4, -2], [4]],
    "C4": [[1, 4, -2, 3, -4, -1, 2, -3]],
}


def lead_charts():
    """Every realisation of the lead cell on which C1-C4 give `X_REF`, as
    charts, in the order of the slot search."""
    hits = []
    # assign the five v5 slots to (e1, e2, e3, e4+, e4-) and the three v3
    # slots to the far ends of e1, e2, e3
    for v5_perm in itertools.permutations(range(5)):
        to5 = {"e1": v5_perm[0], "e2": v5_perm[1], "e3": v5_perm[2],
               "e4a": v5_perm[3], "e4b": v5_perm[4]}
        for v3_perm in itertools.permutations((5, 6, 7)):
            at3 = {"e1": v3_perm[0], "e2": v3_perm[1], "e3": v3_perm[2]}
            s1 = [0] * 8
            for e in ("e1", "e2", "e3"):
                s1[to5[e]] = at3[e]
                s1[at3[e]] = to5[e]
            s1[to5["e4a"]] = to5["e4b"]
            s1[to5["e4b"]] = to5["e4a"]
            try:
                probe = RibbonGraph(S0, tuple(s1), _labels(S0, tuple(s1), to5, at3))
            except (InvalidRibbonGraph, ValueError):
                continue
            if probe.num_faces != 2 or probe.genus != 1:
                continue
            # darts for the signed walks: +k traverses edge k toward v5
            dart_pos = {1: to5["e1"], 2: to5["e2"], 3: to5["e3"], 4: to5["e4a"]}
            dart_neg = {1: at3["e1"], 2: at3["e2"], 3: at3["e3"], 4: to5["e4b"]}
            try:
                curves = [
                    Multicurve(tuple(
                        tuple(dart_pos[s] if s > 0 else dart_neg[-s] for s in comp)
                        for comp in WALKS[name])).validate(probe)
                    for name in ("C1", "C2", "C3", "C4")
                ]
            except InvalidMulticurve:
                continue
            X = intersection_matrix(probe, curves)
            if all(X[i][j] == X_REF[i][j] for i in range(4) for j in range(4)):
                hits.append(CellChart(probe, tuple(curves)))
    return hits


def _labels(s0, s1, to5, at3):
    """Label the bigon between edges 1 and 2 as face 1."""
    faces = face_cycles(s0, s1)
    if len(faces) != 2:
        raise ValueError("wrong face count")
    sizes = sorted(len(f) for f in faces)
    if sizes != [2, 6]:
        raise ValueError("wrong face sizes")
    bigon_darts = {to5["e1"], at3["e1"], to5["e2"], at3["e2"]}
    labels = []
    for f in faces:
        if len(f) == 2:
            if not set(f) <= bigon_darts:
                raise ValueError("bigon is not bounded by edges 1 and 2")
            labels.append(1)
        else:
            labels.append(2)
    return tuple(labels)


def self_crossings(graph, mc):
    """Count forced self/mutual crossings inside one multicurve."""
    comps = mc.components
    total = 0
    for i in range(len(comps)):
        for j in range(i, len(comps)):
            gamma, delta = comps[i], comps[j]
            for opposite in (False, True):
                runs, closed = _maximal_runs(graph, gamma, delta, opposite)
                if closed:
                    continue
                for run in runs:
                    if i == j and not opposite:
                        t0, u0 = run[0]
                        if t0 == u0:
                            continue  # trivial alignment of a walk with itself
                    try:
                        total += abs(_run_contribution(graph, gamma, delta, run, opposite))
                    except UnresolvableCrossing:
                        total += 1
    passages = [p for walk in comps for p in _passages(graph, walk)]
    for (v1, in1, out1), (v2, in2, out2) in itertools.combinations(passages, 2):
        if v1 != v2 or {in1, out1} & {in2, out2}:
            continue
        deg = len(graph.vertices[v1])
        pos = {d: k for k, d in enumerate(graph.vertices[v1])}
        if chords_cross(IdealPolygonChord(deg, (pos[in1], pos[out1])),
                        IdealPolygonChord(deg, (pos[in2], pos[out2]))):
            total += 1
    return total


def closed_walks(graph, max_len=8):
    """Embedded closed walks up to rotation and reversal, shortest first."""
    s1 = graph.s1
    N = graph.num_darts
    seen = set()
    out = []

    def key(walk):
        cands = []
        for w in (tuple(walk), tuple(s1[d] for d in reversed(walk))):
            cands.extend(w[i:] + w[:i] for i in range(len(w)))
        return min(cands)

    def extend(walk):
        head = graph.vertex_of[walk[-1]]
        if len(walk) >= 1 and graph.vertex_of[s1[walk[0]]] == head and walk[0] != s1[walk[-1]]:
            k = key(walk)
            if k not in seen:
                seen.add(k)
                mc = Multicurve((tuple(walk),))
                try:
                    mc.validate(graph)
                except InvalidMulticurve:
                    pass
                else:
                    if self_crossings(graph, mc) == 0:
                        out.append(tuple(walk))
        if len(walk) == max_len:
            return
        for nxt in range(N):
            if graph.vertex_of[s1[nxt]] == head and nxt != s1[walk[-1]]:
                if len(walk) >= 2 or nxt >= walk[0]:
                    extend(walk + [nxt])

    for d0 in range(N):
        extend([d0])
    out.sort(key=lambda w: (len(w), w))
    return out


def curve_pool(graph):
    pool = []
    for k in range(graph.num_edges):
        mc = edge_multicurve(graph, k)
        if not mc.is_empty and self_crossings(graph, mc) == 0:
            pool.append(mc)
    singles = [Multicurve((w,)) for w in closed_walks(graph)]
    # unions of two disjoint embedded walks (the C3 pattern)
    for wa, wb in itertools.combinations(closed_walks(graph, max_len=5), 2):
        mc = Multicurve((wa, wb))
        if self_crossings(graph, mc) == 0:
            singles.append(mc)
    known = {mc.components for mc in pool}
    for mc in singles:
        if mc.components not in known:
            known.add(mc.components)
            pool.append(mc)
    return pool


def find_chart(graph):
    dim = 6 * graph.genus - 6 + 2 * graph.num_faces
    pool = curve_pool(graph)[:POOL_CAP]
    for combo in itertools.combinations(range(len(pool)), dim):
        curves = tuple(pool[i] for i in combo)
        try:
            # no right-hand side: only whether X is invertible is asked
            solve_sqrt5(intersection_matrix(graph, curves), [[]] * dim)
        except (UnresolvableCrossing, SingularMatrixError):
            continue
        return CellChart(graph, curves)
    raise RuntimeError(f"no invertible chart found for {graph.describe()}")


def build_payload():
    """The charts of the eight cells, checked, as `charts/witten12.json`
    holds them: the first of `lead_charts` at `lead_index`, the others
    found by `find_chart`."""
    cells = enumerate_graphs(1, 2, [5, 3])
    assert len(cells) == 8 and all(a == 1 for _, a in cells)
    hits = lead_charts()
    if not hits:
        raise RuntimeError("no realisation of the lead cell gives X_REF")
    lead = hits[0]
    lead_key = lead.graph.canonical_form()

    charts = []
    for graph, aut in cells:
        if graph.canonical_form() == lead_key:
            charts.append((lead, aut))
        else:
            charts.append((find_chart(graph), aut))

    svars = ("s1", "s2")
    expected = []
    for scalar, factors in [
        (Fraction(1, 2), [(0, 1), (0, 1), (1,), (1,)]),
        (Fraction(1, 4), [(0, 1), (1,), (1,), (1,)]),
        (Fraction(1, 4), [(0, 1), (1,), (1,), (1,)]),
        (Fraction(1, 1), [(0, 1), (0, 1), (0, 1), (1,)]),
        (Fraction(1, 2), [(0, 1), (0, 1), (0,), (0,)]),
        (Fraction(1, 4), [(0, 1), (0,), (0,), (0,)]),
        (Fraction(1, 4), [(0, 1), (0,), (0,), (0,)]),
        (Fraction(1, 1), [(0, 1), (0, 1), (0, 1), (0,)]),
    ]:
        expected.append(RationalFunction.from_factors(svars, scalar, factors).canonical_key())

    terms = [cell_volume_laplace(chart) * Fraction(1, aut) for chart, aut in charts]
    got = [term.canonical_key() for term in terms]
    total = RationalFunction.sum(terms)
    assert sorted(got) == sorted(expected), "per-cell terms do not match the expected multiset"
    target = (RationalFunction.from_factors(svars, Fraction(1, 2), [(0,), (1,), (1,), (1,)])
              + RationalFunction.from_factors(svars, Fraction(1, 2), [(0,), (0,), (0,), (1,)]))
    assert (total - target).reduced().is_zero(), f"total is {total}"

    lead_index = next(i for i, (c, _) in enumerate(charts)
                      if c.graph.canonical_form() == lead_key)
    return {"v": 1, "lead_index": lead_index,
            "charts": [chart.to_json() for chart, _ in charts]}


def main():
    payload = build_payload()
    dest = ROOT / "src" / "ribbonvol" / "charts" / "witten12.json"
    dest.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {dest} with {len(payload['charts'])} charts (lead {payload['lead_index']})")


if __name__ == "__main__":
    main()

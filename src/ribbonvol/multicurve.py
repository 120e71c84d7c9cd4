"""Multicurves on ribbon graphs and their limiting intersection numbers.

A multicurve is a union of closed walks of oriented edges (darts); the dart
at position t points toward the vertex the walk reaches after traversing
its t-th edge.  Geodesic representatives of two such curves, on a surface
whose boundary lengths grow, cross in two ways:

* along a maximal shared edge path, the strands separate at both ends and
  cross exactly once (with cos of the anticlockwise crossing angle tending
  to +1 or -1 according to the sides of separation), or not at all;

* transversally inside a vertex polygon of degree >= 4, where the limiting
  angle is that of two chords of a regular ideal polygon.

`intersection_matrix` assembles the limiting skew matrix X for a system of
multicurves.  Its entries lie in Z[sqrt(5)]; `curve_pair_cos` sums each in
integers and builds one `Surd` with int parts, so X holds no `Fraction`.
The limiting lengths and their differentials, which no command reaches,
live beside the tests of acceptance criterion 5, in `tests/paper_geometry.py`.
"""

from __future__ import annotations

from .exact import Surd
from .hypgeom import IdealPolygonChord, _interleaved, _pentagon_cos, chords_cross
from .ribbon import RibbonGraph

__all__ = [
    "Multicurve",
    "InvalidMulticurve",
    "edge_multicurve",
    "curve_pair_cos",
    "intersection_matrix",
]


class InvalidMulticurve(ValueError):
    pass


class UnresolvableCrossing(ValueError):
    pass


class Multicurve:
    """Weighted union of closed dart walks (weights realised by repetition)."""

    def __init__(self, components):
        self.components = tuple(tuple(c) for c in components)

    def __eq__(self, other):
        return isinstance(other, Multicurve) and self.components == other.components

    def validate(self, graph: RibbonGraph) -> "Multicurve":
        for walk in self.components:
            if not walk:
                raise InvalidMulticurve("empty component; drop it instead")
            for t, w in enumerate(walk):
                if not 0 <= w < graph.num_darts:
                    raise InvalidMulticurve(f"dart {w} out of range")
                nxt = walk[(t + 1) % len(walk)]
                if graph.vertex_of[w] != graph.vertex_of[graph.s1[nxt]]:
                    raise InvalidMulticurve(
                        f"walk breaks at position {t}: dart {w} ends at vertex "
                        f"{graph.vertex_of[w]} but dart {nxt} starts elsewhere")
                if nxt == graph.s1[w]:
                    raise InvalidMulticurve(
                        f"U-turn at position {t}: edge retraced through the same end")
        return self

    @property
    def is_empty(self) -> bool:
        return not self.components

    def edge_counts(self, graph: RibbonGraph) -> list:
        """How many times the multicurve traverses each edge (by edge index)."""
        counts = [0] * graph.num_edges
        for walk in self.components:
            for w in walk:
                counts[graph.edge_of[w]] += 1
        return counts

    def to_signed_edges(self, graph: RibbonGraph):
        out = []
        for walk in self.components:
            comp = []
            for w in walk:
                e = graph.edge_of[w]
                lo, hi = graph.edges[e]
                comp.append((e + 1) if w == hi else -(e + 1))
            out.append(comp)
        return out

    @classmethod
    def from_signed_edges(cls, graph: RibbonGraph, components) -> "Multicurve":
        """Signed 1-based edge indices: +e traverses edge e-1 toward the
        higher of its two darts, -e toward the lower."""
        walks = []
        for comp in components:
            walk = []
            for s in comp:
                e = abs(s) - 1
                if not 0 <= e < graph.num_edges or s == 0:
                    raise InvalidMulticurve(f"edge index {s} out of range")
                lo, hi = graph.edges[e]
                walk.append(hi if s > 0 else lo)
            walks.append(tuple(walk))
        return cls(tuple(walks)).validate(graph)


def edge_multicurve(graph: RibbonGraph, k: int) -> Multicurve:
    """The standard multicurve attached to edge k.

    If the edge is a loop, the empty multicurve.  Otherwise remove its two
    sides from the boundary walks of the adjacent face(s): two distinct
    faces give a single curve, a face adjacent on both sides gives the
    union of the two arcs.
    """
    if not 0 <= k < graph.num_edges:
        raise InvalidMulticurve(f"edge {k} out of range")
    a, b = graph.edges[k]
    if graph.vertex_of[a] == graph.vertex_of[b]:
        return Multicurve(())
    fa, fb = graph.face_of[a], graph.face_of[b]
    if fa != fb:
        arc_a = _face_walk_minus(graph, fa, (a,))[0]
        arc_b = _face_walk_minus(graph, fb, (b,))[0]
        return Multicurve((tuple(arc_a + arc_b),)).validate(graph)
    arcs = _face_walk_minus(graph, fa, (a, b))
    return Multicurve(tuple(tuple(x) for x in arcs)).validate(graph)


def _face_walk_minus(graph: RibbonGraph, face_index: int, removed):
    """The face boundary walk with the given side darts excised.

    The boundary walk is the reversed face cycle (the cycle lists darts in
    the order the next side is reached, which chains tail-to-head only
    after reversal).  Removing one dart leaves an open walk whose endpoints
    are the two ends of the removed edge side; removing two leaves two arcs,
    each already closed.
    """
    cyc = list(graph.faces[face_index])
    walk = list(reversed(cyc))
    pos = sorted(walk.index(d) for d in removed)
    if len(pos) == 1:
        p = pos[0]
        return [walk[p + 1:] + walk[:p]]
    p, q = pos
    return [walk[p + 1:q], walk[q + 1:] + walk[:p]]


# -- crossing engine -----------------------------------------------------------


def _passages(graph: RibbonGraph, walk):
    """(vertex, in_end, out_end) for each visit of the walk to a vertex."""
    out = []
    L = len(walk)
    for t, w in enumerate(walk):
        nxt = walk[(t + 1) % L]
        out.append((graph.vertex_of[w], w, graph.s1[nxt]))
    return out


def _position_after(graph: RibbonGraph, w: int, h: int) -> int:
    """Number of anticlockwise steps from dart w to dart h around their vertex."""
    d = graph.s0[w]
    k = 1
    while d != h:
        if d == w:
            raise UnresolvableCrossing("darts not at a common vertex")
        d = graph.s0[d]
        k += 1
    return k


def _maximal_runs(graph, gamma, delta, opposite: bool):
    """Maximal aligned stretches of gamma with delta (or its reverse).

    Returns (runs, closed); closed alignments are parallel copies of the
    same curve and contribute no crossings.  The matches (t, u), where
    gamma[t] is delta[u] (or its reverse s1[delta[u]]), are read off one
    index of delta's positions by dart, in O(M + L + matches).
    """
    s1 = graph.s1
    M, L = len(gamma), len(delta)
    at = {}
    for u, dart in enumerate(delta):
        at.setdefault(s1[dart] if opposite else dart, []).append(u)
    matches = {(t, u) for t, dart in enumerate(gamma) for u in at.get(dart, ())}
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


def _run_contribution(graph, gamma, delta, run, opposite: bool):
    """+1, -1 or 0 for one maximal shared path (cos of the limiting angle)."""
    s1 = graph.s1
    M, L = len(gamma), len(delta)
    t0, u0 = run[0]
    t1, u1 = run[-1]

    # forward end: both strands arrive along gamma[t1] at its head vertex
    w_f = gamma[t1]
    a_f = s1[gamma[(t1 + 1) % M]]
    b_f = delta[(u1 - 1) % L] if opposite else s1[delta[(u1 + 1) % L]]
    # backward end: the path enters through the reverse of gamma[t0]
    w_b = s1[gamma[t0]]
    a_b = gamma[(t0 - 1) % M]
    b_b = s1[delta[(u0 + 1) % L]] if opposite else delta[(u0 - 1) % L]

    for w, a, b in ((w_f, a_f, b_f), (w_b, a_b, b_b)):
        if a == w or b == w or a == b:
            raise UnresolvableCrossing(
                f"degenerate separation at vertex {graph.vertex_of[w]}")
    pf_a = _position_after(graph, w_f, a_f)
    pf_b = _position_after(graph, w_f, b_f)
    pb_a = _position_after(graph, w_b, a_b)
    pb_b = _position_after(graph, w_b, b_b)
    if pf_a < pf_b and pb_a < pb_b:
        return 1
    if pf_a > pf_b and pb_a > pb_b:
        return -1
    return 0


def _curve_passages(graph: RibbonGraph, mc: Multicurve):
    """The passages of every component of `mc`, in order (`_passages`)."""
    return [p for walk in mc.components for p in _passages(graph, walk)]


def curve_pair_cos(graph: RibbonGraph, P: Multicurve, Q: Multicurve, *,
                   passages=None) -> Surd:
    """Sum of cos of the limiting anticlockwise angles from P to Q.

    Shared maximal edge paths contribute 0 or +-1; chord crossings at
    degree-5 vertices contribute the exact ideal pentagon cosines
    +-(sqrt(5) - 2).  The sum x + y sqrt(5) is taken in two ints and
    returned as one `Surd` whose parts are those ints.  A chord crossing at
    a vertex of any other degree raises `UnresolvableCrossing`.  A caller that pairs each curve
    with many others passes `passages`, the two curves' `_curve_passages`,
    so that they are built once per curve rather than once per pair.
    """
    pass_P, pass_Q = passages or (_curve_passages(graph, P), _curve_passages(graph, Q))
    x = y = 0

    # shared-path crossings
    for gamma in P.components:
        for delta in Q.components:
            for opposite in (False, True):
                runs, closed = _maximal_runs(graph, gamma, delta, opposite)
                if closed:
                    continue
                for run in runs:
                    x += _run_contribution(graph, gamma, delta, run, opposite)

    # transversal vertex crossings between end-disjoint passages
    for (v1, in1, out1) in pass_P:
        for (v2, in2, out2) in pass_Q:
            if v1 != v2:
                continue
            if {in1, out1} & {in2, out2}:
                continue  # shared edge end: belongs to a shared path
            deg = len(graph.vertices[v1])
            if deg < 4:
                raise UnresolvableCrossing(
                    f"disjoint passages through trivalent vertex {v1}")
            cyc = graph.vertices[v1]
            pos = {d: i for i, d in enumerate(cyc)}
            ch1 = IdealPolygonChord(deg, (pos[in1], pos[out1]))
            ch2 = IdealPolygonChord(deg, (pos[in2], pos[out2]))
            if not chords_cross(ch1, ch2):
                continue
            if deg != 5:
                raise UnresolvableCrossing(
                    f"no exact angle for a degree-{deg} crossing at vertex {v1}")
            cx, cy = _pentagon_cos(*_interleaved(ch1, ch2))
            x, y = x + cx, y + cy

    return Surd(x, y)


def intersection_matrix(graph: RibbonGraph, curves):
    """The skew matrix X of limiting crossing cosines for a curve system;
    `curve_pair_cos` sums each entry in Z[sqrt(5)] integers, given one
    passage list per curve.  Every entry, the zero diagonal and the
    negated lower triangle included, is a `Surd` with int parts: no
    `Fraction` is built."""
    m = len(curves)
    passages = [_curve_passages(graph, c) for c in curves]
    X = [[Surd(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            val = curve_pair_cos(graph, curves[i], curves[j],
                                 passages=(passages[i], passages[j]))
            X[i][j] = val
            X[j][i] = -val
    return X

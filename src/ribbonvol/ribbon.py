"""Ribbon graphs as permutation pairs on half-edges.

A ribbon graph is a pair of permutations on the set {0, ..., 2E-1} of
half-edges (darts): `s0` rotates the darts at each vertex anticlockwise and
`s1` swaps the two darts of each edge.  Faces are the cycles of
`s2 = s0^{-1} s1` and carry labels 1..n.  Vertices must have degree >= 3,
`s1` must be fixed-point free, and the graph must be connected.

The enumerator produces exactly one representative per label-preserving
isomorphism class together with the automorphism group order.  Every
canonical form is the least breadth-first encoding over all root darts,
for a single graph and for the enumerator alike (`_rooted`).  The
enumerator's pairing search closes faces as it pairs darts and cuts every
branch that cannot end with n faces.  A BFS encoding is a complete
invariant of a rooted connected map, so a pairing is a map found before
exactly when its encoding from root 0 is one of the encodings, from every
root, of the maps found so far; a new map is relabelled from each of its
roots once, and the least of those encodings is its canonical pair.  Its
labelled classes are the orbits of its automorphism group on the face
labellings, read off the coset of its distinct face orders; one
`RibbonGraph` is validated per map and relabelled per class.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import itemgetter

__all__ = [
    "RibbonGraph",
    "InvalidRibbonGraph",
    "UnsupportedGraph",
    "enumerate_graphs",
    "enumerate_trivalent",
    "B_SIGN",
]

# Global orientation constant for the oriented edge-adjacency matrix B:
# the local rule at each vertex is  B[edge(h), edge(s0 h)] += B_SIGN.
# The sign is pinned by the requirement that the limiting multicurve
# intersection matrix equals -2B on trivalent graphs (see wittencycle).
B_SIGN = 1


class InvalidRibbonGraph(ValueError):
    pass


class UnsupportedGraph(ValueError):
    pass


def _perm_cycles(p):
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = p[d]
        cycles.append(tuple(cyc))
    return cycles


def _inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return inv


def face_cycles(s0, s1):
    """Cycles of s2 = s0^{-1} s1.

    `_perm_cycles` starts each cycle at the smallest dart not yet seen, so
    every cycle begins at its minimal dart and the cycles come ordered by it.
    """
    inv0 = _inverse(s0)
    return _perm_cycles([inv0[s1[d]] for d in range(len(s0))])


def _bfs_relabel(s0, s1, root):
    """Breadth-first relabelling of (s0, s1) from `root`.

    Returns the relabelled pair `(s0', s1')` and the dart map `new` (old
    dart d becomes new[d]); the pair is a deterministic encoding.  The i-th
    dart visited becomes dart i, and both of its images are numbered by the
    time it is visited, so `s0'[i]` and `s1'[i]` are filled in at that step.
    """
    N = len(s0)
    new = [-1] * N
    new[root] = 0
    order = [root]
    s0p = [0] * N
    s1p = [0] * N
    for i, d in enumerate(order):
        a = s0[d]
        if new[a] < 0:
            new[a] = len(order)
            order.append(a)
        b = s1[d]
        if new[b] < 0:
            new[b] = len(order)
            order.append(b)
        s0p[i] = new[a]
        s1p[i] = new[b]
    return (tuple(s0p), tuple(s1p)), new


def _check_labels(labels, n):
    if sorted(labels) != list(range(1, n + 1)):
        raise InvalidRibbonGraph(
            f"face labels must be a bijection onto 1..{n}, got {labels}")


class RibbonGraph:
    """The map (s0, s1) and `face_labels`, the label of each s2-cycle in order
    of minimal dart; fixed, as the hash and cached structure derive from them."""

    def __init__(self, s0, s1, face_labels):
        s0, s1 = tuple(s0), tuple(s1)
        N = len(s0)
        self.__dict__.update(s0=s0, s1=s1, face_labels=tuple(face_labels))
        if len(s1) != N or sorted(s0) != list(range(N)) or sorted(s1) != list(range(N)):
            raise InvalidRibbonGraph("s0 and s1 must be permutations of the same dart set")
        if N == 0 or N % 2:
            raise InvalidRibbonGraph("need a positive even number of half-edges")
        for d in range(N):
            if s1[d] == d or s1[s1[d]] != d:
                raise InvalidRibbonGraph("s1 must be a fixed-point-free involution")
        for cyc in self.vertices:
            if len(cyc) < 3:
                raise InvalidRibbonGraph(f"vertex of degree {len(cyc)} < 3")
        # connectivity under <s0, s1>
        seen = {0}
        stack = [0]
        while stack:
            d = stack.pop()
            for e in (s0[d], s1[d]):
                if e not in seen:
                    seen.add(e)
                    stack.append(e)
        if len(seen) != N:
            raise InvalidRibbonGraph("graph is not connected")
        _check_labels(self.face_labels, self.num_faces)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a RibbonGraph is immutable")

    def __eq__(self, other):
        return isinstance(other, RibbonGraph) and (
            (self.s0, self.s1, self.face_labels) == (other.s0, other.s1, other.face_labels))

    def __hash__(self):
        return hash((self.s0, self.s1, self.face_labels))

    def _relabelled(self, labels) -> "RibbonGraph":
        """The same map with the face labels `labels`, not validated again.

        The copy shares `s0`, `s1` and the label-free caches `vertices` and
        `faces`; only the labels are checked.
        """
        labels = tuple(labels)
        _check_labels(labels, self.num_faces)
        copy = object.__new__(type(self))
        copy.__dict__.update(s0=self.s0, s1=self.s1, face_labels=labels,
                             vertices=self.vertices, faces=self.faces)
        return copy

    # -- basic structure -----------------------------------------------------

    @property
    def num_darts(self) -> int:
        return len(self.s0)

    @property
    def num_edges(self) -> int:
        return len(self.s0) // 2

    @cached_property
    def vertices(self):
        return tuple(_perm_cycles(list(self.s0)))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def edges(self):
        """Dart pairs, ordered by minimal dart; index = edge index."""
        return tuple(sorted((min(d, self.s1[d]), max(d, self.s1[d]))
                            for d in range(self.num_darts) if d < self.s1[d]))

    @cached_property
    def edge_of(self):
        out = [0] * self.num_darts
        for k, (a, b) in enumerate(self.edges):
            out[a] = out[b] = k
        return tuple(out)

    @cached_property
    def vertex_of(self):
        out = [0] * self.num_darts
        for v, cyc in enumerate(self.vertices):
            for d in cyc:
                out[d] = v
        return tuple(out)

    @cached_property
    def faces(self):
        """Cycles of s2 = s0^{-1} s1, ordered by minimal dart."""
        return tuple(face_cycles(self.s0, self.s1))

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @cached_property
    def face_of(self):
        out = [0] * self.num_darts
        for i, cyc in enumerate(self.faces):
            for d in cyc:
                out[d] = i
        return tuple(out)

    @property
    def genus(self) -> int:
        """(2 - V + E - F) / 2, an integer >= 0 for every connected map."""
        return (2 - self.num_vertices + self.num_edges - self.num_faces) // 2

    @cached_property
    def degree_sequence(self):
        return tuple(sorted((len(c) for c in self.vertices), reverse=True))

    @property
    def is_trivalent(self) -> bool:
        return all(len(c) == 3 for c in self.vertices)

    # -- structural matrices ---------------------------------------------------

    def face_edge_matrix(self):
        """n x E integer matrix; entry (i, e) counts sides of edge e on the
        face labelled i+1.  Columns sum to 2 and A e = x gives perimeters."""
        n, E = self.num_faces, self.num_edges
        A = [[0] * E for _ in range(n)]
        for fi, cyc in enumerate(self.faces):
            row = self.face_labels[fi] - 1
            for d in cyc:
                A[row][self.edge_of[d]] += 1
        return A

    def oriented_adjacency(self):
        """The skew-symmetric oriented edge-adjacency matrix B (trivalent only).

        Local rule at every vertex: for each dart h with h' = s0(h),
        add B_SIGN to B[edge(h), edge(h')] and subtract it from the mirror
        entry.  Contributions from loops and multiple edges accumulate and
        may cancel.
        """
        if not self.is_trivalent:
            raise UnsupportedGraph("oriented adjacency is defined for trivalent graphs")
        E = self.num_edges
        B = [[0] * E for _ in range(E)]
        for h in range(self.num_darts):
            a = self.edge_of[h]
            b = self.edge_of[self.s0[h]]
            B[a][b] += B_SIGN
            B[b][a] -= B_SIGN
        return B

    # -- canonical form ----------------------------------------------------------

    def canonical_form(self):
        """The least labelled encoding `(s0', s1', labels)` over all roots.

        Only roots that reach the unlabelled canonical pair can win, and
        their face orders list the labels of its faces.
        """
        _, pair, orders = _rooted(self.s0, self.s1)
        return pair + (_least_image(self.face_labels, orders)[0],)

    # -- serialisation ------------------------------------------------------------

    def to_json(self):
        return {
            "v": 1,
            "half_edges": self.num_darts,
            "s0": list(self.s0),
            "s1": list(self.s1),
            "face_labels": list(self.face_labels),
        }

    @classmethod
    def from_json(cls, obj) -> "RibbonGraph":
        if obj.get("v") != 1:
            raise InvalidRibbonGraph(f"unsupported graph schema version {obj.get('v')!r}")
        if obj["half_edges"] != len(obj["s0"]):
            raise InvalidRibbonGraph("half_edges field disagrees with s0 length")
        return cls(tuple(obj["s0"]), tuple(obj["s1"]), tuple(obj["face_labels"]))

    def describe(self) -> str:
        return (f"RibbonGraph(V={self.num_vertices}, E={self.num_edges}, "
                f"n={self.num_faces}, g={self.genus}, degrees={self.degree_sequence})")


# -- enumeration ------------------------------------------------------------------


def _block_rotation(degrees):
    """The vertex rotation `s0` of the block layout: vertex v is the block
    of `degrees[v]` consecutive slots, and s0 rotates inside each block."""
    s0 = []
    for deg in degrees:
        base = len(s0)
        s0 += [base + (k + 1) % deg for k in range(deg)]
    return tuple(s0)


def _search_pairings(degrees, n, emit):
    """Call `emit(s1)` for each complete pairing `s1` of the slots of the
    block layout `_block_rotation(degrees)` with exactly `n` faces, one per
    quasi-canonical DFS path, in DFS order.  The caller builds the same
    layout to read each `s1`, since it needs `s0` before the first call.

    The smallest unpaired slot is matched against unpaired slots of already
    used vertices, or against the first slot of the first unused vertex of
    each distinct degree; this reaches every connected isomorphism class,
    some more than once.  The search is one plain recursion that hands each
    pairing to `emit` where it is found, so no frame is resumed per pairing.

    The faces are the cycles of s2 = s0^{-1} s1, and pairing s with t sets
    s2(s) = s0^{-1}(t) and s2(t) = s0^{-1}(s).  The links set so far form
    open paths and closed cycles; `head[d]` is the first dart of the path
    ending at d and `tail[d]` the last dart of the path starting at d (read
    at path ends only).  A link from a path end to a path start closes a
    face when both lie on one path and merges two paths otherwise.  A
    branch is cut once more than n faces are closed, or n are closed while
    slots are still unpaired: those slots will close another face.
    """
    s0 = _block_rotation(degrees)
    starts = []
    vertex_at = []
    for v, deg in enumerate(degrees):
        starts.append(len(vertex_at))
        vertex_at += [v] * deg
    N = len(s0)
    inv0 = _inverse(s0)
    partner = [-1] * N
    used = [False] * len(degrees)
    used[0] = True
    head = list(range(N))
    tail = list(range(N))

    def link(d, e):
        """Set s2(d) = e, merging the path ending at d into the path
        starting at e; True if that closes a face (both were one path)."""
        a, b = head[d], tail[e]
        tail[a], head[b] = b, a
        return b == d

    def unlink(d, e):
        """Undo `link(d, e)`, the last link still set: head[d] and tail[e]
        still name the ends of the path it made."""
        a, b = head[d], tail[e]
        tail[a], head[b] = d, e

    def rec(next_free, closed):
        s = next_free
        while s < N and partner[s] >= 0:
            s += 1
        if s == N:
            if closed == n:
                emit(tuple(partner))
            return
        if closed >= n:
            return  # the unpaired slots close at least one more face
        if not used[vertex_at[s]]:
            return  # used component closed while vertices remain: disconnected
        cands = [t for t in range(s + 1, N)
                 if partner[t] < 0 and used[vertex_at[t]]]
        fresh = []
        seen_deg = set()
        for v in range(len(degrees)):
            if not used[v] and degrees[v] not in seen_deg:
                seen_deg.add(degrees[v])
                fresh.append(starts[v])
        for t in cands + fresh:
            v = vertex_at[t]
            opened = not used[v]
            used[v] = True
            partner[s], partner[t] = t, s
            closes = link(s, inv0[t]) + link(t, inv0[s])
            if closed + closes <= n:
                rec(s + 1, closed + closes)
            unlink(t, inv0[s])
            unlink(s, inv0[t])
            partner[s] = partner[t] = -1
            if opened:
                used[v] = False

    rec(0, 0)
    # rec's closure holds rec itself; clearing it frees the cycle, and the
    # state `emit` keeps, now rather than at the next garbage collection
    del rec


# `_encoding_key` packs one dart number into one byte
_MAX_DARTS = 256


def _encoding_key(pair):
    """A BFS encoding `(s0', s1')` as one bytes key, one byte per dart
    number; more than `_MAX_DARTS` darts raise ValueError."""
    return bytes(pair[0] + pair[1])


def _rooted(s0, s1):
    """The BFS encodings of (s0, s1) from every root, the canonical pair
    (their least) and, for every root that reaches it, the face indices in
    the order of their minimal dart under its dart map.  On the canonical
    pair itself these roots are its automorphisms, each permuting the faces.
    """
    relabels = [_bfs_relabel(s0, s1, root) for root in range(len(s0))]
    pair = min(enc for enc, _ in relabels)
    faces = face_cycles(s0, s1)
    orders = [[i for _, i in sorted((min(new[d] for d in cyc), i)
                                    for i, cyc in enumerate(faces))]
              for enc, new in relabels if enc == pair]
    return [enc for enc, _ in relabels], pair, orders


def _least_image(labels, orders):
    """The least of the face labellings `labels` listed in each of the face
    orders `orders`, and the number of orders that give it.

    The labelled encoding from a root that reaches the canonical pair lists
    the labels in that root's face order, and every other root loses
    already on the pair; so the least image is the canonical labelling and
    its count is the labelled |Aut|.
    """
    images = [tuple(labels[i] for i in order) for order in orders]
    least = min(images)
    return least, images.count(least)


def _distinct_orders(orders):
    """The distinct face orders among `orders` (see `_rooted`).

    They form a coset of the image of Aut U in S_n, and every distinct
    order is given by the same number of automorphisms: len(orders) over
    their count.
    """
    return set(map(tuple, orders))


def _labelled_classes(orders, n):
    """The labelled classes of a map with n faces whose automorphisms have
    the face orders `orders`: {canonical labelling: labelled |Aut|}.

    They are the orbits of the automorphism group on the n! face
    labellings, each named by its least image (`_least_image`).  With H
    the distinct face orders, a coset, the labellings whose least image is
    m are exactly m o^{-1} for o in H: |H| of them, so every class has
    |Aut L| = len(orders) / |H|.  The labellings are walked in order; the
    first one of each orbit names it and marks the rest done.  If |H| = 1
    every labelling is a class of its own.
    """
    coset = _distinct_orders(orders)
    aut = len(orders) // len(coset)
    labellings = itertools.permutations(range(1, n + 1))
    if len(coset) == 1:
        return dict.fromkeys(labellings, aut)
    # n >= 2 here, so each getter returns a tuple: labels listed in order o,
    # and m o^{-1}
    images = [itemgetter(*o) for o in coset]
    preimages = [itemgetter(*_inverse(o)) for o in coset]
    classes = {}
    done = set()
    for labels in labellings:
        if labels in done:
            continue
        least = min(image(labels) for image in images)
        classes[least] = aut
        done.update(preimage(least) for preimage in preimages)
    return classes


def _unlabelled_maps(degrees, n):
    """Each connected map with the degrees (sorted descending) and n faces,
    once: its canonical pair and the face orders of the roots that reach it.

    The pairing search hands each n-face pairing to `dedupe` as it finds
    it.  `seen` holds every rooted BFS encoding of every map found so far.
    An encoding is a complete invariant of a rooted connected map, so a
    pairing whose encoding from root 0 is in `seen` is a map already found.
    A new map adds its 2E encodings; their least is its canonical pair, and
    the dart maps of the roots that reach it give its face orders
    (`_rooted`, in the pairing's face indices, which list the same labelled
    classes).
    """
    s0 = _block_rotation(degrees)
    seen = set()
    maps = []

    def dedupe(s1):
        if _encoding_key(_bfs_relabel(s0, s1, 0)[0]) in seen:
            return
        encodings, pair, orders = _rooted(s0, s1)
        seen.update(map(_encoding_key, encodings))
        maps.append((pair, orders))

    _search_pairings(degrees, n, dedupe)
    return maps


def enumerate_graphs(g: int, n: int, degrees) -> list:
    """All ribbon graphs of type (g, n) with the given vertex degree multiset.

    Returns `[(graph, aut_order), ...]`, one canonical representative per
    label-preserving isomorphism class, deterministically ordered.  An
    inconsistent (g, n, degrees) combination yields the empty list.

    The pairing search emits only the pairings with n faces, and
    `_unlabelled_maps` keeps one per unlabelled map: each pairing is
    relabelled once, from root 0, and each new map from its 2E roots.  Its
    labelled classes are then the orbits of its automorphism group on the
    n! face labellings (`_labelled_classes`), read off the coset of its
    distinct face orders with about 2 n! tuples per map.  One `RibbonGraph`
    is built, and validated, per map, from its first class; every other
    class is that graph relabelled (`RibbonGraph._relabelled`), which
    checks only the labels.

    More than 256 half-edges raise ValueError before the search starts:
    the encodings store one dart number per byte.
    """
    degrees = sorted(degrees, reverse=True)
    if not degrees or any(d < 3 for d in degrees):
        return []
    if sum(degrees) % 2:
        return []
    E = sum(degrees) // 2
    V = len(degrees)
    if V - E + n != 2 - 2 * g or 2 - 2 * g - n >= 0:
        return []

    if 2 * E > _MAX_DARTS:
        raise ValueError(f"enumeration is limited to {_MAX_DARTS} half-edges, "
                         f"got {2 * E}")

    # n faces force genus g here since V and E are already fixed
    out = []
    for pair, orders in sorted(_unlabelled_maps(degrees, n)):
        classes = _labelled_classes(orders, n)
        first, *rest = sorted(classes)
        graph = RibbonGraph(*pair, first)
        out.append((graph, classes[first]))
        out += [(graph._relabelled(labels), classes[labels]) for labels in rest]
    return out


def enumerate_trivalent(g: int, n: int) -> list:
    """Trivalent graphs of type (g, n): the top-dimensional cells."""
    E = 6 * g - 6 + 3 * n
    if E <= 0:
        return []
    return enumerate_graphs(g, n, [3] * (2 * E // 3))

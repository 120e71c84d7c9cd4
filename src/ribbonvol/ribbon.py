"""Ribbon graphs as permutation pairs on half-edges.

A ribbon graph is a pair of permutations on the set {0, ..., 2E-1} of
half-edges (darts): `s0` rotates the darts at each vertex anticlockwise and
`s1` swaps the two darts of each edge.  Faces are the cycles of
`s2 = s0^{-1} s1` and carry labels 1..n.  Vertices must have degree >= 3,
`s1` must be fixed-point free, and the graph must be connected.

The enumerator produces exactly one representative per label-preserving
isomorphism class together with the automorphism group order.  Every
canonical form is the least breadth-first encoding over all root darts,
for a single graph and for the enumerator alike (`_rooted`); an encoding
is kept as one key, `s0' + s1'` in bytes.  The enumerator's pairing search
closes faces as it pairs darts, and before it descends into a pairing it
checks an exact bound on the faces left to close: with k slots still
unpaired, at least one and at most k more faces close, so a branch that
cannot end with n faces is never entered.  It roots every pairing at a top
dart, a dart of a vertex of the largest degree, on a shortest top face, a
shortest face among those that hold a top dart, and cuts a branch once a
closed top face is shorter than the root face so far.  With one degree run
and n > 1 every face is a top face, so the root face is a shortest face and
the faces still to close each hold at least as many darts: a branch is cut
too once the root face so far times their number exceeds the darts not on
closed faces.  Both cuts are exact.  A BFS encoding is
a complete invariant of a rooted connected map, and face length and
top-ness are invariants too, so a pairing is a map found before exactly
when its key from root 0 is the key of a map found so far from one of its
top darts on a shortest top face.  Those roots of a new map are relabelled
in full and handed to a per-map callback (`_each_map`).  For the
enumerator, every other root is relabelled once, its BFS abandoned as soon
as it loses to the least key so far, or skipped with no BFS when the least
key has s0'[1] = 2 and the root's edge does not go to s0(r) or s0^2(r),
which puts 3 there; the least key is the map's canonical pair.  Its
labelled classes are the orbits of its automorphism group on the face
labellings, each named by its least labelling.  The distinct face orders
form a coset sigma G of a group G, and a labelling is least in its orbit
exactly when it beats each of its |G| - 1 images at the first index the
image moves, so the classes are the labellings, in `itertools.permutations`
order, that pass at most |G| - 1 pairwise comparisons: one C-level pass
per pair over one table of the labellings' columns gives a mask
(`_class_pairs`, `_class_mask`).  A caller that needs no canonical pair
reads the automorphisms off the full relabellings alone
(`_automorphisms`).  `enumerate_maps` validates one `RibbonGraph` per map,
its checks comparisons of whole sequences where they can be and its
vertex and face cycles kept, and builds each map's mask only when its
caller reaches the map; `enumerate_graphs` flattens them into one
relabelled graph per class.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import factorial
from operator import and_, eq, itemgetter, lt, or_

__all__ = [
    "RibbonGraph",
    "InvalidRibbonGraph",
    "UnsupportedGraph",
    "enumerate_graphs",
    "enumerate_maps",
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


def _cycle_index(cycles, num_darts):
    """The index in `cycles` of the cycle holding each dart, as a tuple."""
    out = [0] * num_darts
    for i, cyc in enumerate(cycles):
        for d in cyc:
            out[d] = i
    return tuple(out)


def face_cycles(s0, s1):
    """Cycles of s2 = s0^{-1} s1.

    `_perm_cycles` starts each cycle at the smallest dart not yet seen, so
    every cycle begins at its minimal dart and the cycles come ordered by it.
    """
    inv0 = _inverse(s0)
    return _perm_cycles([inv0[s1[d]] for d in range(len(s0))])


# A key stores one dart number per byte up to this many darts, and a tuple of
# ints beyond; the two orders agree, so only the key's type changes.
# `enumerate_maps` refuses more half-edges as out of reach.
_MAX_DARTS = 256


def _bfs_relabel(s0, s1, root, bound=None):
    """Breadth-first relabelling of (s0, s1) from `root`.

    Returns the key `s0' + s1'` of the relabelled pair and the dart map
    `new` (old dart d becomes new[d]); the key is a deterministic encoding,
    as bytes up to `_MAX_DARTS` darts and as a tuple beyond.  Every `s0'`
    has length N, so keys order as the pairs `(s0', s1')` do.  The i-th
    dart visited becomes dart i, and both of its images are numbered by the
    time it is visited, so `s0'[i]` and `s1'[i]` are appended at that step.

    Given a `bound` key, it returns None instead as soon as the `s0'`
    prefix exceeds the bound's, or at the end if `s0'` ties it and `s1'`
    exceeds it: a key equal to the bound is returned.
    """
    N = len(s0)
    new = [-1] * N
    new[root] = 0
    order = [root]
    key = []  # s0', then s1' is appended
    s1p = []
    tight = bound is not None  # `key` is a prefix of the bound's s0'
    for d in order:
        a = s0[d]
        x = new[a]
        if x < 0:
            new[a] = x = len(order)
            order.append(a)
        if tight and x != bound[len(key)]:
            if x > bound[len(key)]:
                return None
            tight = False
        b = s1[d]
        y = new[b]
        if y < 0:
            new[b] = y = len(order)
            order.append(b)
        key.append(x)
        s1p.append(y)
    key += s1p
    key = bytes(key) if N <= _MAX_DARTS else tuple(key)
    if tight and key > bound:
        return None
    return key, new


def _check_labels(labels, n):
    if sorted(labels) != list(range(1, n + 1)):
        raise InvalidRibbonGraph(
            f"face labels must be a bijection onto 1..{n}, got {labels}")


class RibbonGraph:
    """The map (s0, s1) and `face_labels`, the label of each s2-cycle in order
    of minimal dart; fixed, as the hash and cached structure derive from them.

    Validation reads the cached cycles of s0, `vertices`, and of
    s2 = s0^{-1} s1, `faces`, so every graph keeps both.  It checks, in
    this order: permutations of one dart set, a positive even number of
    darts, a fixed-point-free involution s1 (each a comparison of whole
    sequences), degrees >= 3, connectivity and the face labels."""

    def __init__(self, s0, s1, face_labels):
        s0, s1 = tuple(s0), tuple(s1)
        N = len(s0)
        self.__dict__.update(s0=s0, s1=s1, face_labels=tuple(face_labels))
        darts = list(range(N))
        if len(s1) != N or sorted(s0) != darts or sorted(s1) != darts:
            raise InvalidRibbonGraph("s0 and s1 must be permutations of the same dart set")
        if N == 0 or N % 2:
            raise InvalidRibbonGraph("need a positive even number of half-edges")
        # N >= 2 here, so the getter returns a tuple: s1 o s1
        if any(map(eq, s1, darts)) or list(itemgetter(*s1)(s1)) != darts:
            raise InvalidRibbonGraph("s1 must be a fixed-point-free involution")
        for cyc in self.vertices:
            if len(cyc) < 3:
                raise InvalidRibbonGraph(f"vertex of degree {len(cyc)} < 3")
        # connectivity under <s0, s1>: a breadth-first search from dart 0
        seen = [False] * N
        seen[0] = True
        order = [0]
        for d in order:
            for e in (s0[d], s1[d]):
                if not seen[e]:
                    seen[e] = True
                    order.append(e)
        if len(order) != N:
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

        The copy shares `s0`, `s1` and the label-free cycles `vertices` and
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
        """Cycles of s0, ordered by minimal dart."""
        return tuple(_perm_cycles(self.s0))

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
        return _cycle_index(self.edges, self.num_darts)

    @cached_property
    def vertex_of(self):
        return _cycle_index(self.vertices, self.num_darts)

    @cached_property
    def faces(self):
        """Cycles of s2 = s0^{-1} s1, ordered by minimal dart."""
        return tuple(face_cycles(self.s0, self.s1))

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @cached_property
    def face_of(self):
        return _cycle_index(self.faces, self.num_darts)

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
        first = {0: _bfs_relabel(self.s0, self.s1, 0)}
        pair, orders = _rooted(self.s0, self.s1, self.faces, first)
        return pair + (_least_image(self.face_labels, orders),)

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
    block layout `_block_rotation(degrees)` with exactly `n` faces whose
    root face, the face of slot 0, is a shortest top face, one per
    quasi-canonical DFS path, in DFS order.  The degrees are sorted
    descending.  The caller builds the same layout to read each `s1`, since
    it needs `s0` before the first call.

    The first unpaired slot p that lies on an already used vertex is
    matched against the later unpaired slots of used vertices, or against
    the first slot of the first unused vertex of each distinct degree; this
    reaches every connected isomorphism class, some more than once.  The
    used vertices of each run of equal degrees are a prefix of it, so one
    pointer per run names its first unused vertex.  Across runs they are
    not: with degrees 5,4,3, vertex 0 may open vertex 2 while vertex 1 is
    unused, so p need not be the smallest unpaired slot s.  The recursion
    keeps s, scans from it to p, and ends a branch as disconnected only
    when no unpaired slot lies on a used vertex.  Where the used vertices
    are a prefix of the layout, as with one degree run or 4,3^k, p is s.
    The search is one plain recursion that hands each pairing to `emit`
    where it is found, so no frame is resumed per pairing.

    The faces are the cycles of s2 = s0^{-1} s1, and pairing p with t sets
    s2(p) = s0^{-1}(t) and s2(t) = s0^{-1}(p).  The links set so far form
    open paths and closed cycles; `head[d]` is the first dart of the path
    ending at d and `tail[d]` the last dart of the path starting at d (read
    at path ends only).  Setting s2(d) = e links the path ending at d to the
    path starting at e: it closes a face when both are one path (the path
    from e ends at d) and merges them otherwise.  The candidate loop checks
    the face count before the call, as an exact two-sided bound: with
    `total` faces closed and `left` slots unpaired once p and t are paired,
    it descends only if `left == 0` and `total == n`, or if `left > 0` and
    `total < n <= total + left`.  While any path is open at least one more
    face closes, and each of the `left` open links closes at most one, so
    the bound cuts no branch that ends with n faces.

    The top slots are the slots `0..m-1` of the vertices of the largest
    degree, slot 0 among them.  Next to `head` and `tail`, `size[a]` and
    `tops[a]` hold the length and the number of top slots of the path
    starting at a; a merge adds the second path's to the first's, and the
    undo subtracts them again.  The recursion carries the least length of a
    closed top face and the start of the path through slot 0, and a branch
    is also cut once that path is longer than a closed top face: paths only
    grow, so its root face could no longer be a shortest top face.  With
    n = 1 the one face is the root face, so nothing is tracked.

    With n > 1 and one degree run (`m == N`), the recursion also carries
    the number of darts on closed faces, `cd`, to which each link that
    closes a face adds that path's `size`.  It descends only if
    `size[r] * (n - total) <= N - cd`, with r the path through slot 0 (at
    the leaf, with `left == 0`, both sides are 0).  Every dart is a top
    dart, so every face is a top face and the root face must end as a
    shortest face.  Its final length is at least `size[r]`, since paths
    only grow (a closed root face has exactly that length), and the
    `n - total` faces still to close, the root face among them while it is
    open, are made of the `N - cd` darts off closed faces, each at least as
    long as the root face.  So the bound cuts no branch that ends in an
    emitted pairing, and the emitted pairings and their order are those of
    the search without it.
    """
    s0 = _block_rotation(degrees)
    starts = []
    vertex_at = []
    run_of = []
    run_end = []  # one past the last vertex of each run of equal degrees
    for v, deg in enumerate(degrees):
        starts.append(len(vertex_at))
        vertex_at += [v] * deg
        if v and deg == degrees[v - 1]:
            run_end[-1] += 1
        else:
            run_end.append(v + 1)
        run_of.append(len(run_end) - 1)
    # each run's first unused vertex; vertex 0 holds the root and is used
    next_unused = [1] + run_end[:-1]
    N = len(s0)
    inv0 = _inverse(s0)
    partner = [-1] * N
    used = [False] * len(degrees)
    used[0] = True
    head = list(range(N))
    tail = list(range(N))
    size = [1] * N
    m = run_end[0] * degrees[0]
    tops = [1] * m + [0] * (N - m)
    track = n > 1  # untracked, every size stays 1 and the cut never fires
    share = track and m == N  # every face is a top face

    def rec(s, left, closed, shortest, root, darts):
        # left: the number of unpaired slots; shortest: the least length of
        # a closed top face (N + 1 if none); root: the start of the path
        # through slot 0; darts: the number of darts on closed faces
        if not left:
            emit(tuple(partner))
            return
        while partner[s] >= 0:
            s += 1
        # p: the first unpaired slot from s on that lies on a used vertex;
        # after: the slot the callee scans from, s itself while it is unpaired
        p, after = s, s + 1
        if not used[vertex_at[s]]:
            p = next((q for q in range(s + 1, N)
                      if partner[q] < 0 and used[vertex_at[q]]), N)
            if p == N:
                return  # used component closed while vertices remain: disconnected
            after = s
        cands = [t for t in range(p + 1, N)
                 if partner[t] < 0 and used[vertex_at[t]]]
        cands += [starts[v] for v, end in zip(next_unused, run_end) if v < end]
        es = inv0[p]
        left -= 2  # the slots left unpaired once p is paired
        for t in cands:
            v = vertex_at[t]
            opened = not used[v]
            if opened:
                used[v] = True
                next_unused[run_of[v]] += 1
            partner[p], partner[t] = t, p
            # s2(p) = et and s2(t) = es, each linking two path ends
            total, low, r, cd = closed, shortest, root, darts
            et = inv0[t]
            a, b = head[p], tail[et]
            tail[a], head[b] = b, a
            if b == p:
                total += 1
                cd += size[a]
                if tops[a] and size[a] < low:
                    low = size[a]
            elif track:
                size[a] += size[et]
                tops[a] += tops[et]
                if r == et:
                    r = a
            c, d = head[t], tail[es]
            tail[c], head[d] = d, c
            if d == t:
                total += 1
                cd += size[c]
                if tops[c] and size[c] < low:
                    low = size[c]
            elif track:
                size[c] += size[es]
                tops[c] += tops[es]
                if r == es:
                    r = c
            # n faces must still be reachable (see the docstring); paths
            # only grow, so a root path longer than a closed top face
            # cannot close as a shortest top face, nor one longer than the
            # open faces' share of the darts off closed faces
            if ((total < n <= total + left) if left else total == n) \
                    and size[r] <= low \
                    and (not share or size[r] * (n - total) <= N - cd):
                rec(after, left, total, low, r, cd)
            # undo the links in reverse order; each path keeps its ends
            if track and d != t:
                size[c] -= size[es]
                tops[c] -= tops[es]
            tail[c], head[d] = t, es
            if track and b != p:
                size[a] -= size[et]
                tops[a] -= tops[et]
            tail[a], head[b] = p, et
            partner[p] = partner[t] = -1
            if opened:
                used[v] = False
                next_unused[run_of[v]] -= 1

    rec(0, N, 0, N + 1, 0, 0)
    # rec's closure holds rec itself; clearing it frees the cycle, and the
    # state `emit` keeps, now rather than at the next garbage collection
    del rec


def _face_orders(faces, maps):
    """For each dart map `new` of `maps` (old dart d becomes new[d]), the
    indices of `faces` in the order of their least new dart; the least
    darts are distinct, one face holding each."""
    orders = []
    for new in maps:
        least = [min(map(new.__getitem__, cyc)) for cyc in faces]
        orders.append(sorted(range(len(faces)), key=least.__getitem__))
    return orders


def _opens_with_two(s0, s1):
    """For each root r, whether its BFS key has s0'[1] = 2, with every
    degree >= 3: exactly when s1(r) is s0(r) or s0^2(r).

    The BFS numbers s0(r) 1, then s1(r) 2 unless it is s0(r), and visits
    s0(r) second: s0'[1] is the number of s0^2(r), 2 if that is s1(r) or if
    s1(r) took no new number, and 3 otherwise.
    """
    return list(map(or_, map(eq, s1, s0), map(eq, s1, itemgetter(*s0)(s0))))


def _rooted(s0, s1, faces, relabels):
    """The canonical pair of (s0, s1), its least BFS key over all roots
    decoded, and the face orders (`_face_orders`) of every root that
    reaches it, in root order.  On the canonical pair itself these roots
    are its automorphisms, each permuting the faces.  Every degree is at
    least 3.

    `relabels` maps some roots to their full relabellings `(key, new)`:
    root 0 for `RibbonGraph.canonical_form`, the eligible roots of a new map
    (see `_each_map`) for `_unlabelled_maps`.  Every other root's BFS is
    bounded by the least key so far and stops once its `s0'` prefix
    exceeds it.  Once the least key has s0'[1] = 2, a root whose key has
    s0'[1] = 3 (`_opens_with_two`) would stop at that entry, so it is
    skipped with no BFS.  A root whose key is at most the bound is never
    stopped or skipped, so the least key and the roots that reach it are
    those of a full pass over all roots.
    """
    N = len(s0)
    best = min(key for key, _ in relabels.values())
    two = _opens_with_two(s0, s1)
    reached = []
    for root in range(N):
        res = relabels.get(root)
        if res is None:
            if best[1] == 2 and not two[root]:
                continue
            res = _bfs_relabel(s0, s1, root, best)
        if res is not None and res[0] <= best:
            if res[0] < best:
                best, reached = res[0], []
            reached.append(res[1])
    return (tuple(best[:N]), tuple(best[N:])), _face_orders(faces, reached)


def _least_image(labels, orders):
    """The least of the face labellings `labels` listed in each of the face
    orders `orders`.

    The labelled encoding from a root that reaches the canonical pair lists
    the labels in that root's face order, and every other root loses
    already on the pair; so the least image is the canonical labelling.
    """
    return min(tuple(labels[i] for i in order) for order in orders)


def _distinct_orders(orders):
    """The distinct face orders among `orders` (see `_rooted`).

    They form a coset of the image of Aut U in S_n, and every distinct
    order is given by the same number of automorphisms: len(orders) over
    their count.
    """
    return set(map(tuple, orders))


def _class_count(coset, n):
    """The number of labelled classes of a map with n faces whose
    automorphisms have the distinct face orders `coset` (see `_class_pairs`)."""
    return factorial(n) // len(coset)


def _class_pairs(coset):
    """The index pairs (i, j) whose comparisons pick out the labelled
    classes of a map whose distinct face orders are `coset` (see
    `_distinct_orders`), sorted; none when the coset has one order.

    Listed in the face order p, a labelling mu reads mu.p, the labels
    mu[p[k]].  The coset H is sigma.G for any sigma in it, with
    G = {sigma^-1.p : p in H} a group, so the images of mu are the orbit of
    nu = mu.sigma under G acting on the right, and each labelled class is
    named by the least labelling m of one such orbit (`_least_image`).  G
    acts freely, so m is least exactly when m < m.g for every g != id in G;
    with i the first index that g moves, m.g first differs from m at i, and
    the test is m[i] < m[g[i]].  Each g gives one pair (i, g[i]), so there
    are at most |G| - 1.
    """
    back = _inverse(min(coset))
    pairs = set()
    for p in coset:
        g = [back[k] for k in p]  # sigma^-1.p
        i = next((i for i, x in enumerate(g) if x != i), None)
        if i is not None:
            pairs.add((i, g[i]))
    return sorted(pairs)


def _class_mask(pairs, columns):
    """Which face labellings name a labelled class, given the `pairs` of
    `_class_pairs` and the `columns` of the n! labellings in
    `itertools.permutations` order (`columns[i]` lists the label of face
    index i in each): a list of bools, one per labelling, in that order, or
    None when the pairs are none and every labelling names its own class.
    One C-level `map(lt, ...)` per pair, combined by `and_`."""
    if not pairs:
        return None
    (i, j), *rest = pairs
    mask = map(lt, columns[i], columns[j])
    for i, j in rest:
        mask = map(and_, mask, map(lt, columns[i], columns[j]))
    return list(mask)


def _labellings(n, mask):
    """The face labellings of 1..n that `mask` (`_class_mask`) keeps, in
    `itertools.permutations` order: every one when it is None."""
    labellings = itertools.permutations(range(1, n + 1))
    return labellings if mask is None else itertools.compress(labellings, mask)


def _each_map(degrees, n, visit):
    """Call `visit(s0, s1, faces, full)` once for each connected map with
    the degrees (sorted descending) and n faces, and keep none of its
    arguments after the call: `s0` the block layout's rotation, `s1` the
    first pairing found of the map, `faces` its face cycles (`face_cycles`,
    read through one inverse of `s0` built per search) and `full` the full
    relabellings `{root: (key, new)}` of its eligible roots, the top darts
    (darts of a vertex of the largest degree, the m slots `0..m-1` of the
    block layout) on shortest top faces, root 0 among them.

    The pairing search hands each n-face pairing to `dedupe` as it finds
    it, rooted at slot 0, an eligible root.  A BFS key is a complete
    invariant of a rooted connected map, and face length and top-ness are
    kept by every isomorphism, so a pairing is a map found before exactly
    when its key from root 0 is the key of that map from one of its
    eligible roots.  `seen` holds those keys for every map found so far;
    the new map's are its keys in `full`.
    """
    s0 = _block_rotation(degrees)
    inv0 = _inverse(s0)
    m = degrees[0] * degrees.count(degrees[0])
    seen = set()

    def dedupe(s1):
        first = _bfs_relabel(s0, s1, 0)
        if first[0] in seen:
            return
        faces = _perm_cycles(itemgetter(*s1)(inv0))  # s2 = s0^{-1} s1
        # faces[0] is the root face, a shortest top face
        full = {d: _bfs_relabel(s0, s1, d) if d else first
                for cyc in faces if len(cyc) == len(faces[0]) for d in cyc if d < m}
        seen.update(key for key, _ in full.values())
        visit(s0, s1, faces, full)

    _search_pairings(degrees, n, dedupe)


def _automorphisms(full):
    """The dart maps of the roots in `full` (see `_each_map`) whose key is
    root 0's: one per automorphism of the map.

    Two roots have equal keys exactly when an automorphism takes one to the
    other, automorphisms keep a root eligible, and they act freely on the
    darts, so the roots with root 0's key are its |Aut U| images.  Their
    distinct face orders (`_face_orders`) form a coset of the image of
    Aut U in S_n, as those of the roots `_rooted` finds do.
    """
    key = full[0][0]
    return [new for k, new in full.values() if k == key]


def _unlabelled_maps(degrees, n):
    """Each connected map with the degrees (sorted descending) and n faces,
    once (`_each_map`): its canonical pair and the face orders of the roots
    that reach it.

    Each new map's eligible roots are relabelled in full there; its other
    roots are bounded by the least key so far or skipped, the least key is
    its canonical pair, and the dart maps of the roots that reach it give
    its face orders (`_rooted`, in the pairing's face indices, which list the
    same labelled classes).
    """
    maps = []
    _each_map(degrees, n, lambda *found: maps.append(_rooted(*found)))
    return maps


def enumerate_maps(g: int, n: int, degrees):
    """The ribbon graphs of type (g, n) with the given vertex degree
    multiset, map by map: `(count, maps)`.  `count` is the number of
    labelled classes, n! / |H| summed over the maps (`_class_count`).
    `maps` iterates over the unlabelled maps in canonical order, each as
    `(graph, aut, mask)`: its `RibbonGraph` with the face labels 1..n, its
    least class; |Aut L|, len(orders) / |H|, shared by all of its classes;
    and the `_class_mask` of its classes among the n! labellings in
    `itertools.permutations` order, sorted, None when every labelling is a
    class (`_labellings` lists them).  Every graph is built and validated
    before this returns; a map's mask, read off the coset H of its distinct
    face orders by at most |H| - 1 comparisons per labelling
    (`_class_pairs`), is built only when the iterator reaches the map, from
    one table of the labellings' columns built for the first map with
    |H| > 1.  An inconsistent (g, n, degrees) combination yields `(0, [])`.

    The pairing search emits only the pairings with n faces rooted at a
    top dart on a shortest top face, and `_unlabelled_maps` keeps one per
    unlabelled map: each pairing is relabelled once, from root 0, and each
    new map from its other 2E - 1 roots, in full from its top darts on
    shortest top faces, whose keys it keeps, and bounded by the least key
    so far from the rest, but for the roots `_rooted` skips.

    More than 256 half-edges raise ValueError before the search starts.
    That is a reach guard, not a limit of the keys, which are tuples past
    256 darts: a search over 256 darts already runs for minutes.
    """
    degrees = sorted(degrees, reverse=True)
    if not degrees or any(d < 3 for d in degrees):
        return 0, []
    if sum(degrees) % 2:
        return 0, []
    E = sum(degrees) // 2
    V = len(degrees)
    if V - E + n != 2 - 2 * g:
        return 0, []

    if 2 * E > _MAX_DARTS:
        raise ValueError(f"enumeration is limited to {_MAX_DARTS} half-edges, "
                         f"got {2 * E}")

    # n faces force genus g here since V and E are already fixed.  1..n,
    # the least labelling, is the least image in its orbit, so it is every
    # map's least class; each map's coset is built once
    graphs = [(RibbonGraph(*pair, range(1, n + 1)), len(orders), _distinct_orders(orders))
              for pair, orders in sorted(_unlabelled_maps(degrees, n))]
    count = sum(_class_count(coset, n) for _, _, coset in graphs)

    def listed():
        columns = None
        for graph, autos, coset in graphs:
            pairs = _class_pairs(coset)
            if pairs and columns is None:
                columns = list(zip(*itertools.permutations(range(1, n + 1))))
            yield graph, autos // len(coset), _class_mask(pairs, columns)

    return count, listed()


def enumerate_graphs(g: int, n: int, degrees) -> list:
    """All ribbon graphs of type (g, n) with the given vertex degree multiset:
    `[(graph, aut_order), ...]`, one canonical representative per
    label-preserving isomorphism class, the classes of `enumerate_maps` in
    order, each its map's graph relabelled (`RibbonGraph._relabelled`)."""
    return [(graph._relabelled(labels), aut)
            for graph, aut, mask in enumerate_maps(g, n, degrees)[1]
            for labels in _labellings(n, mask)]


def enumerate_trivalent(g: int, n: int) -> list:
    """Trivalent graphs of type (g, n), with 4g - 4 + 2n vertices: the
    top-dimensional cells.  An unstable type has no vertex and no graph."""
    return enumerate_graphs(g, n, [3] * (4 * g - 4 + 2 * n))

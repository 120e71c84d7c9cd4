"""Independent brute-force oracle for small ribbon graph enumerations.

Fixes the dart set and the vertex rotation s0 (one cycle per vertex over
consecutive slot blocks), iterates over every fixed-point-free involution
s1 and every face labelling, and partitions the survivors into orbits of
the full relabelling group by explicit conjugation.  Nothing here is shared
with the package's enumeration path beyond elementary permutation algebra
(`face_cycles`) and `RibbonGraph` as a container.

`orbit_labelled_classes` keeps the enumeration's earliest labelling step,
the least image of every one of the n! labellings under every face order,
and `coset_labelled_classes` its next, the least image over the coset of
distinct face orders alone, as the oracles for the package's classes, read
off that coset by one comparison per pair of `_class_pairs`.

`validated_cycles` keeps the checks `RibbonGraph.__init__` made one dart
at a time, in loops, as the oracle for its comparisons of whole sequences:
the same checks in the same order with the same messages, and the same
vertex and face cycles.

`bfs_relabel` keeps the package's earlier encoder, the relabelled pair
`(s0', s1')` as two tuples, as the oracle for its bytes key.
`bounded_relabel` and `canonical_pair` keep the bounded canonical form (each
root's BFS stops as soon as it compares larger than the best pair so far)
as the oracle for the package's least encoding over all roots.
`search_pairings` and `canonical_pairs` keep the enumeration's earlier
route as the oracle for the search pruned by face count and face length
and the once-per-map dedupe: every pairing of the quasi-canonical DFS,
whatever its face count and wherever its root face, and one bounded
canonical pair per n-face pairing.
"""

import itertools
from math import factorial
from operator import itemgetter

from ribbonvol.ribbon import InvalidRibbonGraph, RibbonGraph, face_cycles


def perm_cycles(p):
    seen = [False] * len(p)
    out = []
    for s in range(len(p)):
        if seen[s]:
            continue
        c = []
        d = s
        while not seen[d]:
            seen[d] = True
            c.append(d)
            d = p[d]
        out.append(tuple(c))
    return out


def faces_of(s0, s1):
    inv0 = [0] * len(s0)
    for i, j in enumerate(s0):
        inv0[j] = i
    return perm_cycles([inv0[s1[d]] for d in range(len(s0))])


def connected(s0, s1):
    seen = {0}
    stack = [0]
    while stack:
        d = stack.pop()
        for e in (s0[d], s1[d]):
            if e not in seen:
                seen.add(e)
                stack.append(e)
    return len(seen) == len(s0)


def validated_cycles(s0, s1, face_labels):
    """The vertex and face cycles of (s0, s1), as tuples, once the checks of
    a ribbon graph pass; else `InvalidRibbonGraph` from the first that fails,
    in this order: permutations of one dart set, a positive even number of
    darts, a fixed-point-free involution s1, degrees >= 3, connectivity,
    and face labels that are a bijection onto 1..n."""
    s0, s1, labels = tuple(s0), tuple(s1), tuple(face_labels)
    N = len(s0)
    if len(s1) != N or sorted(s0) != list(range(N)) or sorted(s1) != list(range(N)):
        raise InvalidRibbonGraph("s0 and s1 must be permutations of the same dart set")
    if N == 0 or N % 2:
        raise InvalidRibbonGraph("need a positive even number of half-edges")
    for d in range(N):
        if s1[d] == d or s1[s1[d]] != d:
            raise InvalidRibbonGraph("s1 must be a fixed-point-free involution")
    vertices = tuple(perm_cycles(s0))
    for cyc in vertices:
        if len(cyc) < 3:
            raise InvalidRibbonGraph(f"vertex of degree {len(cyc)} < 3")
    if not connected(s0, s1):
        raise InvalidRibbonGraph("graph is not connected")
    faces = tuple(faces_of(s0, s1))
    if sorted(labels) != list(range(1, len(faces) + 1)):
        raise InvalidRibbonGraph(
            f"face labels must be a bijection onto 1..{len(faces)}, got {labels}")
    return vertices, faces


def fixed_point_free_involutions(points):
    if not points:
        yield {}
        return
    first = points[0]
    for k in range(1, len(points)):
        rest = points[1:k] + points[k + 1:]
        for sub in fixed_point_free_involutions(rest):
            pair = dict(sub)
            pair[first] = points[k]
            pair[points[k]] = first
            yield pair


def block_s0(degrees):
    starts = []
    base = 0
    for d in degrees:
        starts.append(base)
        base += d
    s0 = [0] * base
    for v, d in enumerate(degrees):
        for k in range(d):
            s0[starts[v] + k] = starts[v] + (k + 1) % d
    return tuple(s0)


def labelled_structures(g, n, degrees):
    """All (s0, s1, labels) with the blocked s0, as explicit tuples."""
    degrees = sorted(degrees, reverse=True)
    s0 = block_s0(degrees)
    N = len(s0)
    found = []
    for inv in fixed_point_free_involutions(list(range(N))):
        s1 = tuple(inv[d] for d in range(N))
        if not connected(s0, s1):
            continue
        faces = sorted(faces_of(s0, s1), key=min)
        if len(faces) != n:
            continue
        V, E = len(degrees), N // 2
        if V - E + n != 2 - 2 * g:
            continue
        for labels in itertools.permutations(range(1, n + 1)):
            found.append((s0, s1, labels))
    return found


def conjugate(struct, pi):
    """Relabel darts of (s0, s1, labels) by the permutation pi."""
    s0, s1, labels = struct
    N = len(s0)
    t0 = [0] * N
    t1 = [0] * N
    for d in range(N):
        t0[pi[d]] = pi[s0[d]]
        t1[pi[d]] = pi[s1[d]]
    faces = sorted(faces_of(s0, s1), key=min)
    new_faces = sorted(faces_of(t0, t1), key=min)
    label_of_dart = {}
    for f, lab in zip(faces, labels):
        for d in f:
            label_of_dart[pi[d]] = lab
    new_labels = tuple(label_of_dart[min(f)] for f in new_faces)
    return (tuple(t0), tuple(t1), new_labels)


def orbit_classes(g, n, degrees):
    """Isomorphism classes with |Aut|, by explicit orbit partition.

    Only feasible for 6 darts (the relabelling group has size 720).
    """
    structs = labelled_structures(g, n, degrees)
    N = 2 * (sum(degrees) // 2)
    group = list(itertools.permutations(range(N)))
    pool = set(structs)
    classes = []
    while pool:
        rep = min(pool)
        orbit = {conjugate(rep, pi) for pi in group} & pool
        pool -= orbit
        classes.append((rep, _aut_order(rep, group)))
    return classes


def _aut_order(struct, group):
    return sum(1 for pi in group if conjugate(struct, pi) == struct)


def total_labelled_structures(g, n, degrees):
    """Number of valid (s0, s1, labels) triples on a fixed dart set.

    Counts completions of one blocked s0 and multiplies by the number of
    permutations with that cycle type; by orbit counting this must equal
    the enumeration's sum of (2E)!/|Aut| over classes.
    """
    structs = labelled_structures(g, n, degrees)
    deg = sorted(degrees, reverse=True)
    N = sum(deg)
    stab = 1
    for d in deg:
        stab *= d
    for d in set(deg):
        stab *= factorial(deg.count(d))
    n_s0 = factorial(N) // stab
    return n_s0 * len(structs)


def bfs_relabel(s0, s1, root):
    """Breadth-first relabelling of (s0, s1) from `root`.

    Returns the relabelled pair `(s0', s1')` and the dart map `new` (old
    dart d becomes new[d]).  The i-th dart visited becomes dart i, and both
    of its images are numbered by the time it is visited, so `s0'[i]` and
    `s1'[i]` are filled in at that step.
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


def bounded_relabel(s0, s1, root, bound):
    """`bfs_relabel(s0, s1, root)`, or None as soon as the `s0'` prefix
    exceeds the bound's; if `s0'` ties the bound, `s1'` settles the
    comparison at the end.  A pair equal to the bound is returned, so
    callers can count the roots that reach a minimum.  No bound (None)
    relabels in full.
    """
    if bound is None:
        return bfs_relabel(s0, s1, root)
    N = len(s0)
    new = [-1] * N
    new[root] = 0
    order = [root]
    s0p = [0] * N
    s1p = [0] * N
    tight = True  # the s0' prefix still equals the bound's
    b0 = bound[0]
    for i, d in enumerate(order):
        for e in (s0[d], s1[d]):
            if new[e] < 0:
                new[e] = len(order)
                order.append(e)
        x = new[s0[d]]
        s0p[i] = x
        s1p[i] = new[s1[d]]
        if tight and x != b0[i]:
            if x > b0[i]:
                return None
            tight = False
    pair = (tuple(s0p), tuple(s1p))
    if tight and pair[1] > bound[1]:
        return None
    return pair, new


def canonical_pair(s0, s1):
    """The unlabelled canonical form: the least BFS encoding over all roots,
    each root's BFS bounded by the best pair so far."""
    best = None
    for root in range(len(s0)):
        res = bounded_relabel(s0, s1, root, best)
        if res is not None:
            best = res[0]
    return best


def canonical_form(graph):
    """The least labelled encoding `(s0', s1', labels)` of `graph` over all
    roots and the number of roots that reach it, in one fused pass.

    Each root's BFS is bounded by the best pair so far, so losing roots stop
    early; a root's face labels are compared once its pair ties the best.
    The package reaches the same answer in two passes (the unlabelled
    canonical pair, then the face orders of the roots that reach it).
    """
    faces = faces_of(graph.s0, graph.s1)
    best_pair = best_labels = None
    count = 0
    for root in range(graph.num_darts):
        res = bounded_relabel(graph.s0, graph.s1, root, best_pair)
        if res is None:
            continue
        pair, new = res
        order = sorted(range(len(faces)), key=lambda i: min(new[d] for d in faces[i]))
        labels = tuple(graph.face_labels[i] for i in order)
        if best_pair is None or (pair, labels) < (best_pair, best_labels):
            best_pair, best_labels, count = pair, labels, 1
        elif labels == best_labels:  # the bound leaves pair == best_pair
            count += 1
    return best_pair + (best_labels,), count


def search_pairings(degrees):
    """The vertex rotation `s0` of the block layout and an iterator over the
    complete pairings `s1` of its slots, one per quasi-canonical DFS path,
    with no face-count pruning.

    Vertices are blocks of consecutive slots; s0 rotates inside each block.
    The first unpaired slot that lies on an already used vertex is matched
    against the later unpaired slots of used vertices, or against the first
    slot of the first unused vertex of each distinct degree; this reaches
    every connected isomorphism class.  The used vertices need not be a
    prefix of the layout (degrees 5,4,3: vertex 0 may open vertex 2 while
    vertex 1 is unused), so the slot paired is not always the smallest
    unpaired one; the branch ends, as disconnected, only when no unpaired
    slot lies on a used vertex.
    """
    starts = []
    vertex_at = []
    s0 = []
    for v, deg in enumerate(degrees):
        base = len(s0)
        starts.append(base)
        vertex_at += [v] * deg
        s0 += [base + (k + 1) % deg for k in range(deg)]
    N = len(s0)
    partner = [-1] * N
    used = [False] * len(degrees)
    used[0] = True

    def rec(next_free):
        s = next_free
        while s < N and partner[s] >= 0:
            s += 1
        if s == N:
            yield tuple(partner)
            return
        # p: the first unpaired slot from s on that lies on a used vertex
        p = next((q for q in range(s, N) if partner[q] < 0 and used[vertex_at[q]]), None)
        if p is None:
            return  # used component closed while vertices remain: disconnected
        cands = [t for t in range(p + 1, N)
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
            partner[p], partner[t] = t, p
            yield from rec(s)
            partner[p] = partner[t] = -1
            if opened:
                used[v] = False

    return tuple(s0), rec(0)


def canonical_pairs(n, degrees):
    """The unlabelled maps with n faces, sorted: the bounded canonical pair
    of every n-face pairing of `search_pairings`, deduplicated as a set."""
    s0, pairings = search_pairings(sorted(degrees, reverse=True))
    return sorted({canonical_pair(s0, s1) for s1 in pairings
                   if len(face_cycles(s0, s1)) == n})


def labelled_classes(g, n, degrees):
    """Labelled classes with |Aut|, one canonical form per labelling.

    Takes the unlabelled maps of `canonical_pairs` and builds a
    `RibbonGraph` for each of the n! face labellings of each map; the fused
    `canonical_form` names its class and gives |Aut|.  Returns the same
    `[(graph, aut_order), ...]` list as `enumerate_graphs`, without its
    pruned search, its dedupe or its orbit computation.
    """
    V, E = len(degrees), sum(degrees) // 2
    if V - E + n != 2 - 2 * g:
        return []
    classes = {}
    for s0k, s1k in canonical_pairs(n, degrees):
        for labels in itertools.permutations(range(1, n + 1)):
            key, aut = canonical_form(RibbonGraph(s0k, s1k, labels))
            classes.setdefault(key, aut)
    return [(RibbonGraph(*key), classes[key]) for key in sorted(classes)]


def orbit_labelled_classes(orders, n):
    """The labelled classes of a map with the face orders `orders`,
    {canonical labelling: labelled |Aut|}: the least image, and its count,
    of each of the n! labellings over every order, n! x len(orders) tuples.
    """
    classes = {}
    for labels in itertools.permutations(range(1, n + 1)):
        images = [tuple(labels[i] for i in order) for order in orders]
        least = min(images)
        classes[least] = images.count(least)
    return classes


def coset_labelled_classes(orders, n):
    """The labelled classes of a map with the face orders `orders`,
    {canonical labelling: labelled |Aut|}, read off the coset H of the
    distinct orders: the least images of the n! labellings over H alone,
    n! (|H| + 1) tuples, the first of each orbit kept in labelling order;
    every class has |Aut L| = len(orders) / |H|."""
    coset = set(map(tuple, orders))
    aut = len(orders) // len(coset)
    labellings = list(itertools.permutations(range(1, n + 1)))
    if len(coset) == 1:
        return dict.fromkeys(labellings, aut)
    # n >= 2 here, so each getter returns a tuple: the labels listed in order o
    return dict.fromkeys(map(min, zip(*[map(itemgetter(*o), labellings) for o in coset])),
                         aut)

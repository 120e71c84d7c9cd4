"""Independent brute-force oracle for small ribbon graph enumerations.

Fixes the dart set and the vertex rotation s0 (one cycle per vertex over
consecutive slot blocks), iterates over every fixed-point-free involution
s1 and every face labelling, and partitions the survivors into orbits of
the full relabelling group by explicit conjugation.  Nothing here is shared
with the package's enumeration path beyond elementary permutation algebra,
except in `canonical_form` and `labelled_classes`, which share the BFS
encoding and check only the labelling step.
"""

import itertools
from math import factorial

from ribbonvol.ribbon import (
    RibbonGraph,
    _bfs_relabel,
    _canonical_pair,
    _search_pairings,
    face_cycles,
)


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
        res = _bfs_relabel(graph.s0, graph.s1, root, best_pair)
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


def labelled_classes(g, n, degrees):
    """Labelled classes with |Aut|, one canonical form per labelling.

    Takes the package's unlabelled maps (pairing search and canonical pair)
    and builds a `RibbonGraph` for each of the n! face labellings of each
    map; the fused `canonical_form` names its class and gives |Aut|.
    Returns the same `[(graph, aut_order), ...]` list as `enumerate_graphs`,
    without its orbit computation.
    """
    degrees = sorted(degrees, reverse=True)
    s0, pairings = _search_pairings(degrees)
    V, E = len(degrees), len(s0) // 2
    if V - E + n != 2 - 2 * g:
        return []
    unlabeled = {_canonical_pair(s0, s1) for s1 in pairings
                 if len(face_cycles(s0, s1)) == n}
    classes = {}
    for s0k, s1k in sorted(unlabeled):
        for labels in itertools.permutations(range(1, n + 1)):
            key, aut = canonical_form(RibbonGraph(s0k, s1k, labels))
            classes.setdefault(key, aut)
    return [(RibbonGraph(*key), classes[key]) for key in sorted(classes)]

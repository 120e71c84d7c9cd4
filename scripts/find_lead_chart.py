#!/usr/bin/env python3
"""Search for the (1,2) degree-(5,3) cell realisation on which the four
documented multicurves reproduce the reference crossing matrix X exactly.

The graph has a degree-5 vertex carrying a loop (edge 4) and three parallel
edges (1, 2, 3) to a degree-3 vertex; face 1 is the bigon between edges 1
and 2.  The curves, as signed edge sequences with edges 1-3 oriented toward
the degree-5 vertex:

    C1 = [ 2, 4, -2, 3, -4, -3]
    C2 = [ 1, 4, -1, 3, -4, -3]
    C3 = [ 1, 4, -2] u [4]
    C4 = [ 1, 4, -2, 3, -4, -1, 2, -3]

Emits every slot assignment whose engine output matches X.
"""

import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ribbonvol.exact import Surd
from ribbonvol.multicurve import Multicurve, intersection_matrix
from ribbonvol.ribbon import InvalidRibbonGraph, RibbonGraph, face_cycles

S5 = Surd(0, 1)
X_REF = [
    [Surd(0), S5 - 1, Surd(-2), Surd(-2)],
    [1 - S5, Surd(0), Surd(2), S5 - 1],
    [Surd(2), Surd(-2), Surd(0), 1 - S5],
    [Surd(2), 1 - S5, S5 - 1, Surd(0)],
]

# dart ids: 0..4 at the degree-5 vertex, 5..7 at the degree-3 vertex
S0 = (1, 2, 3, 4, 0, 6, 7, 5)

WALKS = {
    "C1": [[2, 4, -2, 3, -4, -3]],
    "C2": [[1, 4, -1, 3, -4, -3]],
    "C3": [[1, 4, -2], [4]],
    "C4": [[1, 4, -2, 3, -4, -1, 2, -3]],
}


def main():
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
            except Exception:
                continue
            X = intersection_matrix(probe, curves)
            if all(X[i][j] == X_REF[i][j] for i in range(4) for j in range(4)):
                hits.append((probe, curves))
    print(f"{len(hits)} matching realisations")
    if hits:
        probe, curves = hits[0]
        chart = {
            "graph": probe.to_json(),
            "curves": [c.to_signed_edges(probe) for c in curves],
        }
        print(json.dumps(chart, indent=1))
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


if __name__ == "__main__":
    main()

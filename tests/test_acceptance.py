"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact (zero tolerance) unless stated otherwise.
"""

import math
import time
from fractions import Fraction

import pytest

from ribbonvol.cli import main as cli_main
from oracle_linalg import mat_rank
from paper_geometry import intercostal_bound, limit_length_reduced, rib_length_limit
from ribbonvol.exact import (
    RationalFunction,
    Surd,
    mat_inverse,
    mat_vec,
)
from ribbonvol.hypgeom import (
    IdealPolygonChord,
    crossing_cos,
    crossing_cos_exact,
)
from ribbonvol.kformula import (
    EPSILON,
    _cell_form,
    kernel_normalization,
    kontsevich_form,
    verify_form_identities,
    verify_kcf,
)
from ribbonvol.multicurve import edge_multicurve, intersection_matrix
from ribbonvol.ribbon import enumerate_graphs, enumerate_trivalent
from ribbonvol.volumes import kontsevich_volume, psi_numbers
from ribbonvol.wittencycle import (
    cell_volume_laplace,
    example5_charts,
    form_on_kernel_basis,
    witten12_report,
    witten_cycle_intersections,
)

KCF_TYPES = [(0, 3), (1, 1), (0, 4), (1, 2), (0, 5)]


def report(number, ok, text):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_base_cases(capsys):
    t0 = time.perf_counter()
    W03 = kontsevich_volume(0, 3)
    W11 = kontsevich_volume(1, 1)
    ok3 = W03.terms == {(1, 1, 1): Fraction(1)} and W03.vars == ("L1", "L2", "L3")
    ok1 = W11.terms == {(3,): Fraction(1, 48)} and W11.vars == ("L1",)
    # and through the CLI surface
    code = cli_main(["volume", "--g", "1", "--n", "1"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(1, ok3 and ok1 and code == 0 and '"1/48"' in out and elapsed < 1.0,
               f"W_0,3 = L1L2L3 and W_1,1 = L1^3/48 exactly ({elapsed:.2f}s < 1s)")


def test_criterion_2_combinatorial_formula(capsys):
    t0 = time.perf_counter()
    ok = True
    detail = []
    for g, n in KCF_TYPES:
        rep = verify_kcf(g, n, trials=30, seed=20260810)
        ok &= rep["equal"] and rep["trials"] >= 30
        detail.append(f"({g},{n}):{rep['graphs']}g/{rep['trials']}pts")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    with capsys.disabled():
        report(2, ok, "exact equality of both sides at seeded rational points "
               f"[{', '.join(detail)}] ({elapsed:.1f}s < 300s)")


def test_criterion_3_psi_numbers(capsys):
    ok = psi_numbers(1, 1) == {(1,): Fraction(1, 24)}
    table = psi_numbers(0, 4)
    ok &= all(table[a] == 1 for a in table) and len(table) == 4
    with capsys.disabled():
        report(3, ok, "<psi_1>_{1,1} = 1/24 and <psi_i>_{0,4} = 1, exactly")


def test_criterion_4_matrix_identities(capsys):
    """Rank and kernel of B, the K-form identities with one global sign, and
    the cell density 2^(1-g).

    The identity carries the factor 4: with the side-ordering rule for K the
    density of the quarter-K form is 2^(1-g), which criterion 2's identity
    forces, and a factor-8 variant would require doubling K and hence the
    density.  The suite asserts the factor-4 identity and additionally
    records that the factor-8 variant fails on some graph.
    """
    t0 = time.perf_counter()
    ok = True
    eight_fails = False
    for g, n in KCF_TYPES:
        for graph, _ in enumerate_trivalent(g, n):
            E = graph.num_edges
            BI, AI = graph.oriented_adjacency(), graph.face_edge_matrix()
            B = [[Fraction(x) for x in row] for row in BI]
            ok &= mat_rank(B) == 6 * g - 6 + 2 * n
            # ker B = im A^T: B kills every row of A (exactly, in integers),
            # and the ranks leave no room for anything else
            # (dim ker B = E - (6g-6+2n) = n)
            ok &= all(all(x == 0 for x in mat_vec(BI, row)) for row in AI)
            ok &= mat_rank([[Fraction(x) for x in row] for row in AI]) == n
            form = _cell_form(graph)
            rep = verify_form_identities(graph, form)
            ok &= rep["ok"] and rep["epsilon"] == EPSILON
            ok &= form.density() == Fraction(2) ** (1 - g)
            if not eight_fails:
                K = kontsevich_form(graph)
                BKB = [[sum(B[i][a] * K[a][b] * B[b][j]
                            for a in range(E) for b in range(E))
                        for j in range(E)] for i in range(E)]
                if any(BKB[i][j] != EPSILON * 8 * B[i][j]
                       for i in range(E) for j in range(E)) and \
                        any(B[i][j] != 0 for i in range(E) for j in range(E)):
                    eight_fails = True
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(4, ok and eight_fails,
               "rank B = 6g-6+2n, ker B = im A^T, B K B = eps*4*B with one "
               "global eps, side independence, density 2^(1-g) "
               f"(factor 8 variant indeed fails; {elapsed:.0f}s)")


def test_criterion_5_limit_matrix(capsys):
    t0 = time.perf_counter()
    ok = True
    count = 0
    loops = multi = 0
    for g, n in KCF_TYPES:
        for graph, _ in enumerate_trivalent(g, n):
            E = graph.num_edges
            curves = [edge_multicurve(graph, k) for k in range(E)]
            X = intersection_matrix(graph, curves)
            B = graph.oriented_adjacency()
            ok &= all(X[i][j] == -2 * B[i][j] for i in range(E) for j in range(E))
            count += 1
            if any(graph.vertex_of[a] == graph.vertex_of[b] for a, b in graph.edges):
                loops += 1
            ends = [(min(graph.vertex_of[a], graph.vertex_of[b]),
                     max(graph.vertex_of[a], graph.vertex_of[b]))
                    for a, b in graph.edges]
            if len(set(ends)) < len(ends):
                multi += 1
    elapsed = time.perf_counter() - t0
    ok &= loops > 0 and multi > 0
    with capsys.disabled():
        report(5, ok, f"X = -2B entry-exactly on {count} trivalent graphs "
               f"({loops} with loops, {multi} with multiedges) ({elapsed:.0f}s)")


def test_criterion_6_example_cycle(capsys):
    t0 = time.perf_counter()
    s5 = Surd(0, 1)
    x_ref = [
        [Surd(0), s5 - 1, Surd(-2), Surd(-2)],
        [1 - s5, Surd(0), Surd(2), s5 - 1],
        [Surd(2), Surd(-2), Surd(0), 1 - s5],
        [Surd(2), 1 - s5, s5 - 1, Surd(0)],
    ]
    xinv8_ref = [
        [Surd(0), -(1 + s5), -(1 + s5), 3 + s5],
        [1 + s5, Surd(0), -(3 + s5), 3 + s5],
        [1 + s5, 3 + s5, Surd(0), 1 + s5],
        [-(3 + s5), -(3 + s5), -(1 + s5), Surd(0)],
    ]
    cells = enumerate_graphs(1, 2, [5, 3])
    ok = len(cells) == 8 and all(aut == 1 for _, aut in cells)

    charts, lead_index = example5_charts()
    lead = charts[lead_index][0]
    X = lead.intersection_matrix()
    ok &= X == x_ref
    Xinv = mat_inverse(X)
    ok &= all(8 * Xinv[i][j] == xinv8_ref[i][j] for i in range(4) for j in range(4))

    # Omega = de2 ^ de3 on the cell, in the documented edge names
    _, mu2 = limit_length_reduced(lead.graph, lead.curves[1])
    _, mu3 = limit_length_reduced(lead.graph, lead.curves[2])
    e2 = next(e for e, m in enumerate(mu2) if m)
    e3 = next(e for e, m in enumerate(mu3) if m)
    G, _ = form_on_kernel_basis(lead)
    W, d, _ = kernel_normalization(lead.graph.face_edge_matrix())
    V = [[Fraction(x, d) for x in w] for w in W]
    for i, u in enumerate(V):
        for j, v in enumerate(V):
            ok &= G[i][j] == Surd(u[e2] * v[e3] - u[e3] * v[e2])

    sv = ("s1", "s2")

    def rf(scalar, factors):
        return RationalFunction.from_factors(sv, scalar, factors)

    expected_terms = sorted([
        rf(Fraction(1, 2), [(0, 1), (0, 1), (1,), (1,)]).canonical_key(),
        rf(Fraction(1, 4), [(0, 1), (1,), (1,), (1,)]).canonical_key(),
        rf(Fraction(1, 4), [(0, 1), (1,), (1,), (1,)]).canonical_key(),
        rf(Fraction(1), [(0, 1), (0, 1), (0, 1), (1,)]).canonical_key(),
        rf(Fraction(1, 2), [(0, 1), (0, 1), (0,), (0,)]).canonical_key(),
        rf(Fraction(1, 4), [(0, 1), (0,), (0,), (0,)]).canonical_key(),
        rf(Fraction(1, 4), [(0, 1), (0,), (0,), (0,)]).canonical_key(),
        rf(Fraction(1), [(0, 1), (0, 1), (0, 1), (0,)]).canonical_key(),
    ])
    ok &= sorted(cell_volume_laplace(c).canonical_key() for c, _ in charts) == expected_terms
    ok &= cell_volume_laplace(lead) == rf(Fraction(1, 2), [(0, 1), (0, 1), (1,), (1,)])

    result = witten_cycle_intersections(charts)
    total_ref = rf(Fraction(1, 2), [(0,), (1,), (1,), (1,)]) + \
        rf(Fraction(1, 2), [(0,), (0,), (0,), (1,)])
    ok &= result["totals"] == total_ref
    ok &= result["intersections"] == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
    ok &= witten12_report()["intersections"] == {"psi1": "1", "psi2": "1"}
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    with capsys.disabled():
        report(6, ok, "eight (5,3) cells, reference X and X^-1, "
               "Omega = de2^de3, the eight Laplace terms, total "
               "1/(2 s1 s2^3) + 1/(2 s1^3 s2), psi-pairings 1/2 on the cells "
               "and 1 on W_5 "
               f"({elapsed:.1f}s < 30s)")


def test_criterion_7_hyperbolic_limits(capsys):
    ok = crossing_cos_exact(IdealPolygonChord(5, (0, 2)),
                            IdealPolygonChord(5, (1, 3))) == Surd(-2, 1)
    ok &= abs(crossing_cos(IdealPolygonChord(5, (0, 2)),
                           IdealPolygonChord(5, (1, 3))) - (math.sqrt(5) - 2)) <= 1e-12
    ok &= abs(rib_length_limit(3) - math.acosh(2 / math.sqrt(3))) <= 1e-12
    ok &= abs(rib_length_limit(4) - math.acosh(math.sqrt(2))) <= 1e-12
    ell = 0.7
    vals = [intercostal_bound(ell, N) for N in range(1, 120)]
    ok &= all(x > y for x, y in zip(vals, vals[1:]))
    ok &= all(intercostal_bound(l, 35.0 / l + 1e-9) < 1e-6 for l in (0.1, 1.0, 5.0))
    ok &= intercostal_bound(1.0, 35.0) < 1e-6
    with capsys.disabled():
        report(7, ok, "pentagon cosine sqrt(5)-2 exact and to 1e-12, rib "
               "lengths acosh(2/sqrt3), acosh(sqrt2) to 1e-12, intercostal "
               "bound strictly decreasing and < 1e-6 for N*l >= 35")


def test_criterion_8_out_of_scope_documented(capsys):
    """No finite computation reproduces the Gromov-Hausdorff convergence
    statement or the full Weil-Petersson polynomial with its kappa terms;
    the quantitative property suites of criteria 4-7 stand in for them."""
    with capsys.disabled():
        report(8, True, "Gromov-Hausdorff convergence and kappa-term "
               "Weil-Petersson polynomials are out of scope by design; "
               "covered indirectly by criteria 4-7")

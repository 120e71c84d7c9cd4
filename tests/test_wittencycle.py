import itertools
from fractions import Fraction

import pytest

from oracle_cells import surd_solve
from test_linalg import sqrt5_matrix
from ribbonvol.exact import (
    Poly,
    RationalFunction,
    Surd,
    identity,
    mat_det,
    mat_inverse,
    solve_sqrt5,
)
from ribbonvol.kformula import (
    EPSILON,
    kernel_normalization,
    kontsevich_form,
    restrict_form,
)
from ribbonvol.multicurve import (
    Multicurve,
    edge_multicurve,
    limit_differential,
    limit_length_reduced,
)
from ribbonvol.ribbon import enumerate_trivalent
from ribbonvol.wittencycle import (
    CellChart,
    ChartError,
    asymptotic_form,
    cell_volume_laplace,
    example5_charts,
    form_on_kernel_basis,
    witten12_report,
    witten_cycle_intersections,
)

S5 = Surd(0, 1)

# reference crossing matrix of the documented lead cell, rows C1..C4
X_REF = [
    [Surd(0), S5 - 1, Surd(-2), Surd(-2)],
    [1 - S5, Surd(0), Surd(2), S5 - 1],
    [Surd(2), Surd(-2), Surd(0), 1 - S5],
    [Surd(2), 1 - S5, S5 - 1, Surd(0)],
]

# eight times its inverse (skew-symmetric; entries +-(1+sqrt5), +-(3+sqrt5))
X_INV_8 = [
    [Surd(0), -(1 + S5), -(1 + S5), 3 + S5],
    [1 + S5, Surd(0), -(3 + S5), 3 + S5],
    [1 + S5, 3 + S5, Surd(0), 1 + S5],
    [-(3 + S5), -(3 + S5), -(1 + S5), Surd(0)],
]

SV = ("s1", "s2")


def rf(scalar, factors):
    return RationalFunction.from_factors(SV, scalar, factors)


@pytest.fixture(scope="module")
def charts():
    return example5_charts()


@pytest.fixture(scope="module")
def lead(charts):
    cs, lead_index = charts
    return cs[lead_index][0]


def test_eight_cells_with_trivial_automorphisms(charts):
    cs, _ = charts
    assert len(cs) == 8
    assert all(aut == 1 for _, aut in cs)


def test_lead_face_edge_matrix(lead):
    # face 1 is the bigon: x1 = e1 + e2; the loop and the remaining edge
    # have both sides on face 2
    assert lead.graph.face_edge_matrix() == [[1, 1, 0, 0], [1, 1, 2, 2]]


def test_lead_crossing_matrix(lead):
    X = lead.intersection_matrix()
    assert X == X_REF


def test_lead_inverse_matrix(lead):
    X = lead.intersection_matrix()
    Xinv = mat_inverse(X)
    for i in range(4):
        for j in range(4):
            assert 8 * Xinv[i][j] == X_INV_8[i][j]


def test_lead_limit_lengths(lead):
    """l1 = x1+x2-2e1, l2 = x1+x2-2e2, l3 = x2-2e3, l4 = x1+x2 in the cell
    coordinates (edge names follow the documented cell)."""
    g = lead.graph
    lams = []
    supports = []
    for c in lead.curves:
        lam, mu = limit_length_reduced(g, c)
        lams.append(tuple(lam))
        supports.append(tuple(e for e, m in enumerate(mu) if m))
        assert all(m in (0, -2) for m in mu)
    assert lams == [(1, 1), (1, 1), (0, 1), (1, 1)]
    assert [len(s) for s in supports] == [1, 1, 1, 0]
    # the three supported edges are distinct
    assert len({supports[0][0], supports[1][0], supports[2][0]}) == 3


def test_lead_reduced_form_is_single_wedge(lead):
    """On the cell the form collapses to de2 ^ de3 (the bigon edge of the
    second curve against the doubled edge of the third)."""
    g = lead.graph
    _, mu2 = limit_length_reduced(g, lead.curves[1])
    _, mu3 = limit_length_reduced(g, lead.curves[2])
    e2 = next(e for e, m in enumerate(mu2) if m)
    e3 = next(e for e, m in enumerate(mu3) if m)
    V, G, volfactor = form_on_kernel_basis(lead)
    for i, u in enumerate(V):
        for j, v in enumerate(V):
            wedge = u[e2] * v[e3] - u[e3] * v[e2]
            assert G[i][j] == Surd(wedge)


def test_lead_laplace_term(lead):
    term = cell_volume_laplace(lead)
    assert term == rf(Fraction(1, 2), [(0, 1), (0, 1), (1,), (1,)])


def test_all_eight_terms_multiset(charts):
    cs, _ = charts
    expected = sorted([
        rf(Fraction(1, 2), [(0, 1), (0, 1), (1,), (1,)]).canonical_key(),
        rf(Fraction(1, 4), [(0, 1), (1,), (1,), (1,)]).canonical_key(),
        rf(Fraction(1, 4), [(0, 1), (1,), (1,), (1,)]).canonical_key(),
        rf(Fraction(1, 1), [(0, 1), (0, 1), (0, 1), (1,)]).canonical_key(),
        rf(Fraction(1, 2), [(0, 1), (0, 1), (0,), (0,)]).canonical_key(),
        rf(Fraction(1, 4), [(0, 1), (0,), (0,), (0,)]).canonical_key(),
        rf(Fraction(1, 4), [(0, 1), (0,), (0,), (0,)]).canonical_key(),
        rf(Fraction(1, 1), [(0, 1), (0, 1), (0, 1), (0,)]).canonical_key(),
    ])
    got = sorted(cell_volume_laplace(c).canonical_key() for c, _ in cs)
    assert got == expected


def test_cycle_total_and_intersections(charts):
    cs, _ = charts
    result = witten_cycle_intersections(cs, codim_pairs=1)
    target = rf(Fraction(1, 2), [(0,), (1,), (1,), (1,)]) + \
        rf(Fraction(1, 2), [(0,), (0,), (0,), (1,)])
    assert result["totals"] == target
    assert result["intersections"] == {(1, 0): Fraction(1), (0, 1): Fraction(1)}


def test_total_is_label_symmetric(charts):
    cs, _ = charts
    result = witten_cycle_intersections(cs, codim_pairs=1)
    total = result["totals"].reduced()
    num = total.num.with_vars(("s1", "s2"))
    swapped = RationalFunction(
        total.svars, total.scalar,
        Poly(("s2", "s1"), num.terms),  # the same terms with s1 and s2 exchanged
        {tuple(sorted(1 - i for i in f)) if len(f) == 1 else f: m
         for f, m in total.den.items()})
    assert total == swapped


def test_report_shape():
    rep = witten12_report()
    assert rep["graphs"] == 8
    assert rep["intersections"] == {"psi1": "1", "psi2": "1"}
    assert rep["total_laplace"] == "(s1^2 + s2^2)/(2 s1^3 s2^3)"
    assert rep["lead_term"] == "1/(2 (s1+s2)^2 s2^2)"


def test_chart_needs_right_curve_count(lead):
    with pytest.raises(ChartError):
        CellChart(lead.graph, lead.curves[:3])


def test_chart_limit_differentials(lead):
    diffs = [limit_differential(lead.graph, c) for c in lead.curves]
    assert len(diffs) == 4
    assert diffs[3] == [0, 0, 0, 0]  # the fourth curve has constant length
    assert sorted(sum(1 for x in d if x) for d in diffs) == [0, 1, 1, 1]


def test_chart_json_roundtrip(charts):
    for chart, _ in charts[0]:
        back = CellChart.from_json(chart.to_json())
        assert back == chart
        first, second = chart.curves[:2]
        assert first != second
        assert CellChart(chart.graph, (second,) + chart.curves[1:]) != chart
        assert back.intersection_matrix() == chart.intersection_matrix()


def test_perimeter_chart_is_degenerate(lead):
    """Replacing a curve by a face boundary zeroes a row of X."""
    g = lead.graph
    boundary = Multicurve((tuple(reversed(g.faces[0])),)).validate(g)
    bad = CellChart(g, (lead.curves[0], lead.curves[1], lead.curves[2], boundary))
    X = bad.intersection_matrix()
    assert mat_det(X) == 0
    with pytest.raises(ChartError):
        cell_volume_laplace(bad)


def entrywise_asymptotic_form(chart):
    """Oracle for `asymptotic_form`: -sum_ij [X^-1]_ij D_ia D_jb per entry."""
    Xinv = mat_inverse(chart.intersection_matrix())
    D = [c.edge_counts(chart.graph) for c in chart.curves]
    E = chart.graph.num_edges
    return [[-sum((Xinv[i][j] * (D[i][a] * D[j][b])
                   for i in range(len(D)) for j in range(len(D))), Surd(0))
             for b in range(E)] for a in range(E)]


def test_asymptotic_form_equals_entrywise_sum(charts):
    cs, _ = charts
    for chart, _ in cs:
        assert asymptotic_form(chart) == entrywise_asymptotic_form(chart)


def test_point_cell_chart_has_the_zero_form():
    graph = enumerate_trivalent(0, 3)[0][0]
    chart = CellChart(graph, ())
    assert asymptotic_form(chart) == [[Surd(0)] * 3 for _ in range(3)]
    assert asymptotic_form(chart) == entrywise_asymptotic_form(chart)


def test_only_a_singular_X_is_reported_as_degenerate(lead, monkeypatch):
    import ribbonvol.wittencycle as wc

    def broken(X):
        raise TypeError("not a singular matrix")

    monkeypatch.setattr(wc, "mat_inverse", broken)
    with pytest.raises(TypeError):
        asymptotic_form(lead)


def _trivalent_standard_chart(graph):
    """Edge multicurves on a subset with invertible restricted adjacency."""
    B = graph.oriented_adjacency()
    E = graph.num_edges
    dim = 6 * graph.genus - 6 + 2 * graph.num_faces
    for S in itertools.combinations(range(E), dim):
        Bhat = [[Fraction(B[i][j]) for j in S] for i in S]
        if mat_det(Bhat) != 0:
            curves = tuple(edge_multicurve(graph, k) for k in S)
            if any(c.is_empty for c in curves):
                continue
            return CellChart(graph, curves)
    raise AssertionError("no invertible principal block")


@pytest.mark.parametrize("g,n", [(0, 3), (1, 1), (0, 4), (1, 2)])
def test_trivalent_charts_match_quarter_K_form(g, n):
    """The limiting form on a trivalent cell equals 2*eps times the
    quarter-K form: the bridge between the two volume routes."""
    for graph, _ in enumerate_trivalent(g, n):
        if 6 * g - 6 + 2 * n == 0:
            continue
        chart = _trivalent_standard_chart(graph)
        V, G, volfactor = form_on_kernel_basis(chart)
        K = kontsevich_form(graph)
        Kq = [[Fraction(x, 4) for x in row] for row in K]
        GK = restrict_form(Kq, V)
        for i in range(len(V)):
            for j in range(len(V)):
                assert G[i][j] == 2 * EPSILON * GK[i][j]


@pytest.mark.parametrize("g,n", [(1, 1), (0, 4), (1, 2)])
def test_trivalent_cell_volumes_give_graph_sum_weights(g, n):
    """Chart-based cell volumes equal 2^(2g-2+n) times the orthant product:
    cell by cell, the limiting form reproduces the prefactor of the graph
    sum (and exceeds the quarter-K density 2^(1-g) by 2^(3g-3+n))."""
    from ribbonvol.exact import orthant_exponential_integral

    for graph, _ in enumerate_trivalent(g, n):
        chart = _trivalent_standard_chart(graph)
        svars = tuple(f"s{i}" for i in range(1, n + 1))
        direct = orthant_exponential_integral(graph.face_edge_matrix(), svars)
        assert cell_volume_laplace(chart) == direct * (Fraction(2) ** (2 * g - 2 + n))


def _assert_form_matches_full_form(chart):
    """`form_on_kernel_basis` against the reference route: the full E x E
    form of `asymptotic_form`, restricted to V by `restrict_form`."""
    V, G, volfactor = form_on_kernel_basis(chart)
    assert all(type(x) is Surd for row in G for x in row)
    assert G == restrict_form(asymptotic_form(chart), V)
    W, d, vf = kernel_normalization(chart.graph.face_edge_matrix())
    assert V == [[Fraction(x, d) for x in w] for w in W] and volfactor == vf


def test_form_on_kernel_basis_matches_full_form_on_packaged_charts(charts):
    cs, _ = charts
    for chart, _ in cs:
        _assert_form_matches_full_form(chart)


@pytest.mark.parametrize("g,n", [(0, 3), (1, 1), (0, 4), (1, 2)])
def test_form_on_kernel_basis_matches_full_form_on_trivalent_charts(g, n):
    """Includes the (0,3) point cell, whose chart has no curves."""
    for graph, _ in enumerate_trivalent(g, n):
        _assert_form_matches_full_form(_trivalent_standard_chart(graph))


def test_form_on_kernel_basis_scales_by_d(charts, monkeypatch):
    """d = 1 on every chart here, so the 1/d^2 of G and the integer basis
    W in Y = D W^T are checked on the basis 3W with d = 3: V, and so G,
    must not change."""
    import ribbonvol.wittencycle as wc

    def scaled(A):
        W, d, volfactor = kernel_normalization(A)
        return [[3 * x for x in w] for w in W], 3 * d, volfactor

    cs, _ = charts
    trivalent = [_trivalent_standard_chart(graph)
                 for graph, _ in enumerate_trivalent(1, 2)]
    monkeypatch.setattr(wc, "kernel_normalization", scaled)
    for chart in [c for c, _ in cs] + trivalent:
        _assert_form_matches_full_form(chart)


def test_form_on_kernel_basis_reports_a_singular_X(lead):
    g = lead.graph
    boundary = Multicurve((tuple(reversed(g.faces[0])),)).validate(g)
    for pos in range(4):
        curves = list(lead.curves)
        curves[pos] = boundary
        with pytest.raises(ChartError, match="X is singular"):
            form_on_kernel_basis(CellChart(g, tuple(curves)))


def test_witten12_builds_no_full_form(monkeypatch):
    """The form on each cell comes from one elimination of [X | D W^T]; the
    route through the E x E form made 2304 Surd multiplications here."""
    calls = [0]
    mul = Surd.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Surd, "__mul__", counted)
    monkeypatch.setattr(Surd, "__rmul__", counted)
    witten12_report()
    assert 0 < calls[0] <= 1000


def test_witten12_inverts_each_surd_pivot_once(monkeypatch):
    """Gauss-Jordan scales each pivot row by one reciprocal of the pivot;
    dividing entry by entry inverted a Surd 249 times here."""
    calls = [0]
    inverse = Surd.inverse

    def counted(self):
        calls[0] += 1
        return inverse(self)

    monkeypatch.setattr(Surd, "inverse", counted)
    report = witten12_report()
    assert report["intersections"] == {"psi1": "1", "psi2": "1"}
    assert 0 < calls[0] <= 61


def test_chart_solves_equal_the_surd_field_route(charts):
    """`solve_sqrt5` against the `Surd` RREF for [X | D W^T] and [X | I] on
    the eight packaged charts and on the (0,3) point cell, whose X is 0 x 0."""
    point = CellChart(enumerate_trivalent(0, 3)[0][0], ())
    for chart in [c for c, _ in charts[0]] + [point]:
        X = chart.intersection_matrix()
        W, _, _ = kernel_normalization(chart.graph.face_edge_matrix())
        Y = [[sum(a * b for a, b in zip(c.edge_counts(chart.graph), w)) for w in W]
             for c in chart.curves]
        for rhs in (Y, identity(len(X))):
            assert sqrt5_matrix(*solve_sqrt5(X, rhs)) == surd_solve(X, rhs)


def test_witten12_lead_inverse_equals_mat_inverse(charts):
    cs, lead_index = charts
    Xinv = mat_inverse(cs[lead_index][0].intersection_matrix())
    assert witten12_report()["lead_X_inverse"] == [[x.to_json() for x in row] for row in Xinv]


def test_witten12_runs_no_field_elimination(monkeypatch):
    """Every Q(sqrt 5) system of the pipeline goes through `solve_sqrt5`:
    it runs with the `Surd` Gauss-Jordan elimination patched to raise."""
    import ribbonvol.exact.linalg as linalg

    def refuse(A):
        raise AssertionError("witten12 ran a field elimination")

    monkeypatch.setattr(linalg, "_gauss_jordan", refuse)
    assert witten12_report()["intersections"] == {"psi1": "1", "psi2": "1"}

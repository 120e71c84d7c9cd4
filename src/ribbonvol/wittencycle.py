"""Cell charts on combinatorial cycles and their limiting volumes.

A chart equips a ribbon graph cell with 6g-6+2n multicurves whose limiting
lengths are local coordinates.  The limiting crossing matrix X inverts to
give the limiting Weil-Petersson form

    Omega = - sum_{i<j} [X^{-1}]_{ij} dl_i ^ dl_j,

a constant-coefficient 2-form on the cell {A e = x, e > 0}.  Its top power
integrates to a constant density times the Lebesgue fibre volume, whose
Laplace transform is the per-edge product 1/(s_l + s_r); matching the total
over all cells of a cycle against the psi-class expansion recovers the
cycle's intersection numbers.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .exact import (
    RationalFunction,
    SingularMatrixError,
    Surd,
    double_factorial,
    mat_inverse,
    mat_mul,
    orthant_exponential_integral,
    pfaffian,
    solve_sqrt5,
    transpose,
)
from .exact.linalg import _surd_matrix
from .kformula import kernel_normalization
from .multicurve import Multicurve, intersection_matrix
from .ribbon import RibbonGraph, enumerate_graphs

__all__ = [
    "CellChart",
    "ChartError",
    "asymptotic_form",
    "form_on_kernel_basis",
    "cell_volume_laplace",
    "witten_cycle_intersections",
    "example5_charts",
    "witten12_report",
]


class ChartError(ValueError):
    pass


class CellChart:
    """A ribbon graph with a multicurve coordinate system on its cell.

    Transversal crossings must lie at degree-5 vertices, where the chord
    angles of the ideal pentagon are exact in Q(sqrt(5)).
    """

    def __init__(self, graph: RibbonGraph, curves):
        self.graph, self.curves = graph, curves
        expected = 6 * self.graph.genus - 6 + 2 * self.graph.num_faces
        if len(self.curves) != expected:
            raise ChartError(
                f"need {expected} multicurves for this cell, got {len(self.curves)}")
        for c in self.curves:
            c.validate(self.graph)

    def __eq__(self, other):
        return isinstance(other, CellChart) and (
            (self.graph, self.curves) == (other.graph, other.curves))

    def intersection_matrix(self):
        return intersection_matrix(self.graph, self.curves)

    def to_json(self):
        return {
            "graph": self.graph.to_json(),
            "curves": [c.to_signed_edges(self.graph) for c in self.curves],
        }

    @classmethod
    def from_json(cls, obj) -> "CellChart":
        graph = RibbonGraph.from_json(obj["graph"])
        curves = tuple(Multicurve.from_signed_edges(graph, comp)
                       for comp in obj["curves"])
        return cls(graph, curves)


def asymptotic_form(chart: CellChart):
    """The matrix of Omega = -sum_{i<j} [X^{-1}]_{ij} dl_i ^ dl_j in de
    coordinates: the full E x E form M = -D^T X^{-1} D over Q(sqrt(5)).

    Only the restriction to ker A (the tangent space of the cell) is
    meaningful.  `form_on_kernel_basis` computes that restriction without
    building M; this full form is kept as its reference.  Both solve in
    Q(sqrt(5)) by `solve_sqrt5` (here through `mat_inverse`).
    """
    X = chart.intersection_matrix()
    try:
        Xinv = mat_inverse(X)
    except SingularMatrixError as exc:
        raise ChartError(f"chart is degenerate: X is singular ({exc})") from exc
    # rows: d(limit length) of each curve in de-coordinates (raw edge counts)
    D = [c.edge_counts(chart.graph) for c in chart.curves]
    if not D:  # a point cell: the zero form, whose size mat_mul cannot know
        E = chart.graph.num_edges
        return [[Surd(0)] * E for _ in range(E)]
    return [[-x for x in row] for row in mat_mul(transpose(D), mat_mul(Xinv, D))]


def form_on_kernel_basis(chart: CellChart, X=None):
    """(G, volfactor): the Gram matrix of Omega on the kernel basis V of A,
    and the basis-to-Lebesgue conversion factor.  `X` is the chart's
    `intersection_matrix()` when the caller has it (default: built here).

    With the integer basis W = d * V of ker A from `kernel_normalization`
    and the curves' edge counts D, the restriction of M = -D^T X^{-1} D is

        G = V M V^T = -(1/d^2) Y^T X^{-1} Y,   Y = D W^T  (m x k, integer),

    so no E x E form is built: with X^{-1} Y = (Za + Zb sqrt(5)) / det from
    `solve_sqrt5`, G = -(Y^T Za + Y^T Zb sqrt(5)) / (d^2 det) in integers.
    """
    W, d, volfactor = kernel_normalization(chart.graph.face_edge_matrix())
    D = [c.edge_counts(chart.graph) for c in chart.curves]
    Y = [[sum(a * b for a, b in zip(row, w)) for w in W] for row in D]
    try:
        Za, Zb, det = solve_sqrt5(chart.intersection_matrix() if X is None else X, Y)
    except SingularMatrixError as exc:
        raise ChartError("chart is degenerate: X is singular") from exc
    Yt = transpose(Y)
    return _surd_matrix(mat_mul(Yt, Za), mat_mul(Yt, Zb), -d * d * det), volfactor


def cell_volume_laplace(chart: CellChart, X=None) -> RationalFunction:
    """Laplace transform of the integral of the top power of Omega over the
    cell: (constant density) x (per-edge orthant product).  `X` is as for
    `form_on_kernel_basis`."""
    G, volfactor = form_on_kernel_basis(chart, X)
    pf = pfaffian(G)
    if isinstance(pf, Surd):
        if not pf.is_rational:
            raise ChartError(f"cell density is irrational: {pf}")
        pf = pf.as_fraction()
    density = abs(pf) / volfactor
    n = chart.graph.num_faces
    svars = tuple(f"s{i}" for i in range(1, n + 1))
    base = orthant_exponential_integral(chart.graph.face_edge_matrix(), svars)
    return base * density


def witten_cycle_intersections(charts) -> dict:
    """Intersection numbers of a combinatorial cycle from its cell charts.

    `charts` carries one (chart, aut_order) per top cell of the cycle, all of
    one (g, n, E), else ChartError; a cell has dimension E - n = 2d'.  For
    [C] the cells' sum, each weighted 1/|Aut|, the Laplace total satisfies

      sum_a <[C] psi^a> prod (2a_k - 1)!! / s_k^{2a_k+1} = total,

    solved for <[C] psi^a> with no normalization factor (the trivalent top
    cells give the psi numbers); [C] has codimension 2(3g - 3 + n - d').
    Each chart's intersection matrix X is built once and returned, in the
    order of `charts`, as "matrices".
    """
    types = {(c.graph.genus, c.graph.num_faces, c.graph.num_edges) for c, _ in charts}
    if len(types) != 1:
        raise ChartError(f"the cells disagree on (g, n, E): {sorted(types)}")
    [(_, n, E)] = types
    dprime = (E - n) // 2
    svars = tuple(f"s{i}" for i in range(1, n + 1))
    matrices = [chart.intersection_matrix() for chart, _ in charts]
    terms = [cell_volume_laplace(chart, X) * Fraction(1, aut)
             for (chart, aut), X in zip(charts, matrices)]
    total = RationalFunction.sum(terms)
    # total must be a pure co-monomial sum: numerator over prod s_k^{m_k}
    for f in total.den:
        if len(f) != 1:
            raise ChartError(
                f"cycle total does not reduce to psi form; factor {f} survives")
    mexp = [total.den.get((i,), 0) for i in range(n)]
    values = {}
    num = total.num.with_vars(svars)
    for exp, c in num.terms.items():
        alpha = []
        for i in range(n):
            down = mexp[i] - exp[i]
            if down < 1 or (down - 1) % 2:
                raise ChartError(f"monomial {exp} is not of psi shape")
            alpha.append((down - 1) // 2)
        alpha = tuple(alpha)
        if sum(alpha) != dprime:
            raise ChartError(f"exponent {alpha} has weight != {dprime}")
        dd = 1
        for a in alpha:
            dd *= double_factorial(2 * a - 1)
        values[alpha] = total.scalar * c / dd
    return {
        "totals": total,
        "terms": terms,
        "matrices": matrices,
        "intersections": values,
    }


# -- the (1,2) example cycle ---------------------------------------------------


def _charts_payload():
    path = os.path.join(os.path.dirname(__file__), "charts", "witten12.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def example5_charts():
    """The eight charts for the degree-(5,3) cells in type (1,2).

    Loaded from packaged data; returns (charts, lead_index) where each chart
    entry is (chart, aut_order) and the lead chart carries the documented
    curve system with the reference crossing matrix.
    """
    payload = _charts_payload()
    # enumeration lists each class as its canonical form; only |Aut| is kept
    auts = {(g.s0, g.s1, g.face_labels): a for g, a in enumerate_graphs(1, 2, [5, 3])}
    out = []
    for entry in payload["charts"]:
        chart = CellChart.from_json(entry)
        key = chart.graph.canonical_form()
        if key not in auts:
            raise ChartError("packaged chart graph is a duplicate or not a (5,3) cell")
        out.append((chart, auts.pop(key)))
    if auts:
        raise ChartError(f"{len(auts)} of the (5,3) cells have no packaged chart")
    return out, payload["lead_index"]


_W5_FACTOR = 2  # W_5 = 2 [C]; see `witten12_report`


def witten12_report() -> dict:
    """Run the full (1,2) one-vertex-of-degree-five pipeline; the lead
    chart's X^{-1} is `mat_inverse`, one `solve_sqrt5` of [X | I] in
    integers, on the X the cycle computation built.

    The cells give <[C] psi_i> = 1/2; W_5 = 2 [C] is the Witten cycle as
    Kontsevich (1992) and Arbarello-Cornalba (1996) normalize it, pairing
    with psi_i as 12 kappa_1 (= 12 pi_* psi_{n+1}^2) does, to 1.  The 2 is
    one per degree-5 vertex; here it equals 2^{d'} and 2^{codim/2} too."""
    charts, lead_index = example5_charts()
    result = witten_cycle_intersections(charts)
    w5 = {alpha: _W5_FACTOR * v for alpha, v in result["intersections"].items()}
    lead = charts[lead_index][0]
    X = result["matrices"][lead_index]
    Xinv = mat_inverse(X)
    report = {
        "graphs": len(charts),
        "lead_chart": lead.to_json(),
        "lead_X": [[x.to_json() for x in row] for row in X],
        "lead_X_inverse": [[x.to_json() for x in row] for row in Xinv],
        "lead_term": str(result["terms"][lead_index]),
        "terms": [str(t) for t in result["terms"]],
        "total_laplace": str(result["totals"]),
        "intersections": {"psi1": str(w5.get((1, 0))), "psi2": str(w5.get((0, 1)))},
    }
    return report

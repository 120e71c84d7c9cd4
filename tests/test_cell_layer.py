"""The integer cell layer against the Fraction oracle in `oracle_cells`.

`_cell_form` carries the basis of ker A and the K form on it as integer
matrices with one integer scale d; every value it yields must equal the
Fraction route's, and every check of `verify_form_identities` must give the
oracle's verdict.  The canaries show the integer checks can fail.
"""

import random
from fractions import Fraction

import pytest

import ribbonvol.kformula as kf
from ribbonvol.kformula import _cell_form, verify_form_identities
from ribbonvol.ribbon import enumerate_trivalent

import oracle_cells

# (g, n) -> number of cells to compare, None for every trivalent cell
CELLS = {(0, 3): None, (1, 1): None, (0, 4): None, (1, 2): None, (2, 1): None,
         (1, 3): None, (0, 5): 150, (2, 2): 80}


def cells(g, n):
    graphs = [graph for graph, _ in enumerate_trivalent(g, n)]
    count = CELLS[g, n]
    return graphs if count is None else random.Random(11 * n + g).sample(graphs, count)


@pytest.mark.parametrize("g,n", list(CELLS))
def test_integer_cell_form_equals_the_fraction_route(g, n):
    for graph in cells(g, n):
        form = _cell_form(graph)
        K, V, volfactor, G = oracle_cells.cell_form(graph)
        d = form.d
        assert form.K == K
        assert [[Fraction(x, d) for x in w] for w in form.V] == V
        assert form.volfactor == volfactor
        assert [[Fraction(x, 4 * d * d) for x in row] for row in form.G] == G
        assert form.density() == oracle_cells.density(G, volfactor) == Fraction(2) ** (1 - g)
        assert verify_form_identities(graph, form) == oracle_cells.verify_form_identities(graph)


def _flip_one_entry(graph, form):
    """The alternative K with one entry K[i][j] negated, (i, j) chosen so
    that both edges appear in the basis of ker A: G changes by a nonzero
    rank-one matrix."""
    alt = [len(c) // 2 for c in graph.faces]
    K = kf.kontsevich_form(graph, alt)
    used = [e for e in range(graph.num_edges) if any(v[e] for v in form.V)]
    i, j = next((i, j) for i in used for j in used if K[i][j])
    K[i][j] = -K[i][j]
    return alt, K


@pytest.mark.parametrize("g,n", [(0, 4), (1, 2), (1, 3)])
def test_one_flipped_entry_of_the_alternative_k_breaks_side_independence(g, n, monkeypatch):
    true_form = kf.kontsevich_form
    for graph, _ in enumerate_trivalent(g, n):
        form = _cell_form(graph)
        alt, flipped = _flip_one_entry(graph, form)
        monkeypatch.setattr(kf, "kontsevich_form",
                            lambda gr, d=None: flipped if d == alt else true_form(gr, d))
        checks = verify_form_identities(graph, form)["checks"]
        monkeypatch.setattr(kf, "kontsevich_form", true_form)
        assert not checks["distinguished_side_independent_on_kerA"]
        assert verify_form_identities(graph, form)["checks"][
            "distinguished_side_independent_on_kerA"]


@pytest.mark.parametrize("g,n", [(1, 1), (0, 4), (1, 2)])
def test_a_perturbed_kernel_basis_breaks_check_ii(g, n):
    """ker(BK - 4I) is exactly ker A, and no unit vector e_k lies in ker A
    (every edge borders a face), so adding one to any entry of V fails."""
    for graph, _ in enumerate_trivalent(g, n):
        form = _cell_form(graph)
        for k in range(graph.num_edges):
            V = [list(v) for v in form.V]
            V[0][k] += 1
            report = verify_form_identities(graph, form._replace(V=V))
            assert not report["checks"]["BK_minus_eps4I_kills_kerA"]
            assert not report["ok"]


@pytest.mark.parametrize("g,n", [(1, 1), (0, 4), (1, 2), (2, 1)])
def test_a_scaled_kernel_basis_gives_the_same_density_and_report(g, n):
    """d = 1 on every cell measured so far; the d > 1 path of the density
    and of the checks runs on the basis 3V with d = 3 and G = 9 V^T K V."""
    for graph, _ in enumerate_trivalent(g, n):
        form = _cell_form(graph)
        scaled = form._replace(V=[[3 * x for x in v] for v in form.V], d=3 * form.d,
                               G=[[9 * x for x in row] for row in form.G])
        assert scaled.density() == form.density()
        assert verify_form_identities(graph, scaled) == verify_form_identities(graph, form)

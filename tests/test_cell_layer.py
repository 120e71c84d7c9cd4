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
from ribbonvol.exact import pfaffian
from ribbonvol.kformula import _abs_pf, _cell_form, verify_form_identities
from ribbonvol.ribbon import enumerate_maps, enumerate_trivalent

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


@pytest.mark.parametrize("g,n", [(1, 3), (2, 2)])
def test_density_equals_the_pfaffian_oracle_on_every_map(g, n):
    """|Pf G| read off `bareiss` against the subset-expansion Pfaffian."""
    _, maps = enumerate_maps(g, n, [3] * (4 * g - 4 + 2 * n))
    for graph, _, _ in maps:
        form = _cell_form(graph)
        scale = (4 * form.d * form.d) ** (len(form.G) // 2)
        assert form.density() == Fraction(abs(pfaffian(form.G)), scale) / form.volfactor


def _random_skew(rng, k):
    M = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            M[i][j] = rng.randint(-4, 4)
            M[j][i] = -M[i][j]
    return M


@pytest.mark.parametrize("k", [0, 2, 4, 6, 8])
def test_abs_pf_equals_the_pfaffian_oracle_on_random_skew_matrices(k):
    """Random skew integer matrices, and singular ones C^T S C with S skew
    of size m < k: the empty matrix gives 1 (type (0,3)), a singular one 0."""
    rng = random.Random(100 + k)
    matrices = [_random_skew(rng, k) for _ in range(20)]
    for m in range(0, k, 2):
        for _ in range(5):
            S = _random_skew(rng, m)
            C = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
            SC = [[sum(S[a][b] * C[b][j] for b in range(m)) for j in range(k)] for a in range(m)]
            matrices.append([[sum(C[a][i] * SC[a][j] for a in range(m)) for j in range(k)]
                             for i in range(k)])
    for M in matrices:
        assert _abs_pf(M) == abs(pfaffian(M))
    assert any(pfaffian(M) == 0 for M in matrices) == (k > 0)
    assert any(pfaffian(M) != 0 for M in matrices)


@pytest.mark.parametrize("g,n", [(0, 3), (1, 1), (0, 4), (1, 2)])
def test_a_determinant_that_is_not_a_square_makes_the_density_raise(g, n, monkeypatch):
    true_bareiss = kf.bareiss

    def off_by_one(A):
        R, pivots, det = true_bareiss(A)
        return R, pivots, det + 1

    forms = [_cell_form(graph) for graph, _ in enumerate_trivalent(g, n)]
    monkeypatch.setattr(kf, "bareiss", off_by_one)
    for form in forms:
        with pytest.raises(ArithmeticError):
            form.density()


@pytest.mark.parametrize("g,n", [(1, 1), (0, 4), (1, 2)])
def test_a_g_that_is_not_skew_or_of_odd_size_is_refused(g, n):
    """The refusals `pfaffian` makes: one entry made non-skew, and a G
    with its last row and column dropped."""
    for graph, _ in enumerate_trivalent(g, n):
        form = _cell_form(graph)
        G = [list(row) for row in form.G]
        G[0][1] += 1
        odd = [row[:-1] for row in form.G[:-1]]
        for bad in (G, odd):
            with pytest.raises(ValueError):
                pfaffian(bad)
            with pytest.raises(ValueError):
                form._replace(G=bad).density()


@pytest.mark.parametrize("g,n", [(1, 1), (0, 4), (1, 2), (1, 3)])
def test_a_zeroed_row_and_column_of_g_breaks_check_iii(g, n):
    """Zeroing row and column r keeps G skew and drops its rank: the form is
    degenerate, the report says so, and the density is 0."""
    for graph, _ in enumerate_trivalent(g, n):
        form = _cell_form(graph)
        for r in range(len(form.G)):
            G = [[0 if r in (i, j) else x for j, x in enumerate(row)]
                 for i, row in enumerate(form.G)]
            degenerate = form._replace(G=G)
            report = verify_form_identities(graph, degenerate)
            assert not report["checks"]["quarterK_nondegenerate_on_kerA"]
            assert not report["ok"]
            assert degenerate.density() == 0

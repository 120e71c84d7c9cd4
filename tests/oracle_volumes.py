"""Independent oracle for W_{g,n}: the boundary-splitting recursion.

Builds W_{g,n}(L_1..L_n) symbolically from the base cases W_{0,3} = L1 L2 L3
and W_{1,1} = L1^3/48 by removing the pair of pants that contains boundary 1:
either it joins boundary 1 to another boundary k (a polynomial integral over
the new boundary's length), or it splits off the rest of the surface along
two new boundaries, into one surface of genus g-1 or two surfaces of genus
g1 + g2 = g over all 2^(n-1) subsets of the other boundaries.  Nothing here
uses the package's psi-number recursion; the psi numbers are read back off
the coefficients, <psi^a> = [L^{2a+1}] W_{g,n} * 2^{3g-3+n} * prod(a_k!).

`tau` is the Dijkgraaf-Verlinde-Verlinde recursion peeling the largest
index, where `ribbonvol.volumes._dvv` peels the smallest (so that a step on
an index 0 or 1 is the string or dilaton equation): the same relation walked
through other brackets, with subset splits at every peeled index above 1,
each split's two lookups skipped when its first bracket fails the
dimension test, as `_dvv` skips them.
`smallest_index_tau` is the package's earlier route: the smallest index
peeled as `_dvv` peels it, but every step summed in `Fraction`s, with the
double factorials as weights and one division per bracket.

`dvv_tau`, `volume_coefficient` and `laplace_coefficient` are the
package's earlier per-key divisions of its integer DVV table M(ds) =
`_dvv(ds)`, each by its own weight: the cached `_tau`, M over 24^g g!
prod (2d_i+1)!!; `kontsevich_volume`'s own per-key dict, M over 24^g g!
prod (2d_i+1)!; and the Laplace coefficients of `lhs_laplace` and of
`verify_kcf`'s psi side, the psi number times prod (2d_i-1)!!.

`kdv_tau` shares no recursion with DVV: the string and dilaton equations
reduce a bracket with an index 0 or 1, and a bracket whose indices are all
at least 2 is read off the KdV hierarchy (Witten, Surveys in Diff. Geom. 1
(1991); Kontsevich, Comm. Math. Phys. 147 (1992)).

`laplace` is the term-by-term Laplace transform of a polynomial, the second
derivation of `ribbonvol.volumes.lhs_laplace` (which is built from the DVV
brackets directly), applied to `wp_volume_asymptotic`, the asymptotic
Weil-Petersson polynomial read off W_{g,n}.
"""

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from ribbonvol.exact import Poly, RationalFunction, double_factorial, poly_integrate
from ribbonvol.volumes import _dvv, is_stable
from ribbonvol.volumes import kontsevich_volume as package_volume


class NotABaseCase(ValueError):
    pass


def _L(i):
    return f"L{i}"


def base_case(g, n):
    """The seeds of the recursion: W_{0,3} = L1 L2 L3 and W_{1,1} = L1^3/48."""
    if (g, n) == (0, 3):
        out = Poly.const(1, ())
        for i in (1, 2, 3):
            out = out * Poly.variable(_L(i))
        return out
    if (g, n) == (1, 1):
        return Poly((_L(1),), {(3,): Fraction(1, 48)})
    raise NotABaseCase(f"({g},{n}) is not a base case")


def _W(g, n, names):
    """W_{g,n} with the variables renamed to `names` (length n)."""
    if 2 - 2 * g - n >= 0:
        return Poly.zero(())  # unstable: identically zero inside the recursion
    W = kontsevich_volume(g, n)
    assert W.vars == tuple(_L(i + 1) for i in range(n))
    return Poly(tuple(names), W.terms).with_vars(tuple(sorted(names)))


@lru_cache(maxsize=None)
def kontsevich_volume(g, n):
    """The polynomial W_{g,n}(L1..Ln), homogeneous of degree 6g-6+3n."""
    if not is_stable(g, n):
        raise ValueError(f"({g},{n}) is unstable")
    if (g, n) in ((0, 3), (1, 1)):
        return base_case(g, n)

    # recurse on the boundary labelled 1; the rest are the index set S
    L0 = _L(1)
    S = list(range(2, n + 1))
    x, y = "_x", "_y"
    P0 = Poly.variable(L0)
    Px = Poly.variable(x)
    Py = Poly.variable(y)
    total = Poly.zero(())

    # boundary terms: join boundary 1 with boundary k
    for k in S:
        rest = [_L(i) for i in S if i != k]
        Wk = _W(g, n - 1, tuple([x] + rest))
        Lk = Poly.variable(_L(k))
        inner1 = (P0 - Px) * Wk
        part1 = poly_integrate(inner1, x, Poly.const(0), P0 - Lk)
        inner2 = (P0 + Lk - Px) * Wk * Fraction(1, 2)
        part2 = poly_integrate(inner2, x, P0 - Lk, P0 + Lk)
        total = total + Lk * (part1 + part2)

    # splitting terms: remove a pair of pants containing boundary 1
    kernel = (P0 - Px - Py) * Fraction(1, 2)
    bulk = _W(g - 1, n + 1, tuple([x, y] + [_L(i) for i in S])) if g >= 1 else Poly.zero(())
    for g1 in range(0, g + 1):
        g2 = g - g1
        for r in range(0, len(S) + 1):
            for I1 in itertools.combinations(S, r):
                I2 = tuple(i for i in S if i not in I1)
                if not (is_stable(g1, len(I1) + 1) and is_stable(g2, len(I2) + 1)):
                    continue  # W_{0,1} = W_{0,2} = 0 kill these splittings
                W1 = _W(g1, len(I1) + 1, tuple([x] + [_L(i) for i in I1]))
                W2 = _W(g2, len(I2) + 1, tuple([y] + [_L(i) for i in I2]))
                bulk = bulk + W1 * W2
    if not bulk.is_zero():
        inner = poly_integrate(kernel * bulk, x, Poly.const(0), P0 - Py)
        total = total + poly_integrate(inner, y, Poly.const(0), P0)

    return total.with_vars(tuple(_L(i) for i in range(1, n + 1)))


def psi_numbers(g, n):
    """<psi^a> for every a with |a| = 3g-3+n, read off the oracle's W_{g,n}."""
    W = kontsevich_volume(g, n)
    d = 3 * g - 3 + n
    out = {}
    for alpha in itertools.product(range(d + 1), repeat=n):
        if sum(alpha) != d:
            continue
        c = W.terms.get(tuple(2 * a + 1 for a in alpha), Fraction(0))
        for a in alpha:
            c *= factorial(a)
        out[alpha] = c * Fraction(2) ** d
    return out


def _key(ds):
    return tuple(sorted(ds, reverse=True))


@lru_cache(maxsize=None)
def tau(ds):
    """<tau_{d_1} ... tau_{d_n}> for `ds` sorted in decreasing order, by DVV
    on the largest index, seeded by <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24."""
    n = len(ds)
    g, rem = divmod(sum(ds) - n + 3, 3)
    if rem or not is_stable(g, n) or ds[-1] < 0:
        return Fraction(0)
    if ds == (0, 0, 0):
        return Fraction(1)
    if ds == (1,):
        return Fraction(1, 24)
    k, rest = ds[0] - 1, ds[1:]
    total = Fraction(0)
    for j, d in enumerate(rest):
        weight = double_factorial(2 * k + 2 * d + 1) // double_factorial(2 * d - 1)
        total += weight * tau(_key(rest[:j] + (d + k,) + rest[j + 1:]))
    # each split (I, J) of `rest`, with x = sum I - |I| + 2, so that (r, I)
    # has genus (r + x) / 3; a split whose (r, I) has no integer genus of
    # at most g has a zero product and is skipped before its two lookups
    splits = [(2, [], [])] if k > 0 else []
    for d in rest if k > 0 else ():
        splits = [split for x, I, J in splits
                  for split in ((x + d - 1, I + [d], J), (x, I, J + [d]))]
    half = Fraction(0)
    for r in range(k):
        s = k - 1 - r
        inner = tau(_key((r, s) + rest))
        for x, I, J in splits:
            g1, rem = divmod(r + x, 3)
            if rem or g1 > g:
                continue
            inner += tau(_key([r] + I)) * tau(_key([s] + J))
        half += double_factorial(2 * r + 1) * double_factorial(2 * s + 1) * inner
    return (total + half / 2) / double_factorial(2 * k + 3)


@lru_cache(maxsize=None)
def smallest_index_tau(ds):
    """<tau_{d_1} ... tau_{d_n}> for `ds` sorted in decreasing order, by DVV
    on the smallest index in `Fraction`s, seeded by <tau_0^3>_0 = 1 and
    <tau_1>_1 = 1/24."""
    n = len(ds)
    g, rem = divmod(sum(ds) - n + 3, 3)
    if rem or not is_stable(g, n) or ds[-1] < 0:
        return Fraction(0)
    if ds == (0, 0, 0):
        return Fraction(1)
    if ds == (1,):
        return Fraction(1, 24)
    k, rest = ds[-1] - 1, ds[:-1]
    total = Fraction(0)
    for j, d in enumerate(rest):
        weight = double_factorial(2 * k + 2 * d + 1) // double_factorial(2 * d - 1)
        total += weight * smallest_index_tau(_key(rest[:j] + (d + k,) + rest[j + 1:]))
    splits = [([d for i, d in enumerate(rest) if mask >> i & 1],
               [d for i, d in enumerate(rest) if not mask >> i & 1])
              for mask in range(1 << len(rest))] if k > 0 else []
    half = Fraction(0)
    for r in range(k):
        s = k - 1 - r
        inner = smallest_index_tau(_key((r, s) + rest))
        for I, J in splits:
            inner += smallest_index_tau(_key([r] + I)) * smallest_index_tau(_key([s] + J))
        half += double_factorial(2 * r + 1) * double_factorial(2 * s + 1) * inner
    return (total + half / 2) / double_factorial(2 * k + 3)


def _lowered(ds):
    """`ds` with each entry in turn lowered by one, as a labelled list."""
    return [ds[:j] + (d - 1,) + ds[j + 1:] for j, d in enumerate(ds)]


def _labelled_splits(ds):
    """Each split of the multiset `ds` into (S1, S2), with the number of
    labelled splits it stands for, a product of binomials."""
    splits = [((), (), 1)]
    for d, c in Counter(ds).items():
        splits = [(S1 + (d,) * k, S2 + (d,) * (c - k), w * comb(c, k))
                  for S1, S2, w in splits for k in range(c + 1)]
    return splits


def _kdv(quarter):
    """The brackets <tau_{d_1} ... tau_{d_n}>, seeded by <tau_0^3>_0 = 1 and
    <tau_1>_1 = 1/24, by no form of DVV.

    The string equation <tau_0 X> = sum_i <X with x_i lowered by 1> and the
    dilaton equation <tau_1 X>_g = (2g-2+|X|) <X>_g reduce a bracket with an
    index 0 or 1.  The KdV hierarchy, for a multiset S with labelled splits,

        (2m+1) <tau_m tau_0^2 S> = sum_{S1 u S2 = S} [ <tau_{m-1} tau_0 S1> <tau_0^3 S2>
                                      + 2 <tau_{m-1} tau_0^2 S1> <tau_0^2 S2> ]
                                   + 1/4 <tau_{m-1} tau_0^4 S>,

    gives a bracket whose indices are all at least 2: with x its largest,
    <tau_x S> = <tau_0 tau_{x+1} S> - sum_j <tau_{x+1} S_j lowered>, and
    <tau_0 tau_y S> is solved from the relation at m = y + 1.  Each step
    lowers the genus, the number of points, or the sum of the indices but
    the largest, so the recursion ends.

    Returns the cached bracket `tau(ds)`, `ds` sorted in decreasing order,
    with `quarter` in place of the hierarchy's 1/4 (`kdv_tau` is the true
    one).
    """

    @lru_cache(maxsize=None)
    def tau(ds):
        n = len(ds)
        g, rem = divmod(sum(ds) - n + 3, 3)
        if rem or not is_stable(g, n) or ds[-1] < 0:
            return Fraction(0)
        if ds == (0, 0, 0):
            return Fraction(1)
        if ds == (1,):
            return Fraction(1, 24)
        if ds[-1] == 0:  # the string equation
            return sum(map(tau, map(_key, _lowered(ds[:-1]))), Fraction(0))
        if ds[-1] == 1:  # the dilaton equation
            return (2 * g - 3 + n) * tau(ds[:-1])
        # every index is at least 2: by the string equation,
        # <tau_x S> = <tau_0 tau_y S> - sum_j <tau_y S_j lowered>, y = x + 1
        y, S = ds[0] + 1, ds[1:]
        return one_zero(y, S) - sum(tau(_key((y,) + T)) for T in _lowered(S))

    def one_zero(y, S):
        # <tau_0 tau_y S> from KdV at m = y + 1, where it is the term of
        # S2 empty on the right and, by the string equation, a term of the
        # left side, (2m+1) (<tau_0 tau_y S> + sum_j <tau_0 tau_m S_j lowered>)
        m = y + 1
        right = quarter * tau(_key((y, 0, 0, 0, 0) + S))
        for S1, S2, w in _labelled_splits(S):
            if S2:
                right += w * (tau(_key((y, 0) + S1)) * tau(_key((0, 0, 0) + S2))
                              + 2 * tau(_key((y, 0, 0) + S1)) * tau(_key((0, 0) + S2)))
        left = sum(tau(_key((m, 0) + T)) for T in _lowered(S))
        return (right - (2 * m + 1) * left) / (2 * m)

    return tau


# <tau_ds> for `ds` sorted in decreasing order, with the hierarchy's 1/4
kdv_tau = _kdv(Fraction(1, 4))


def _weighted_dvv(ds, weight):
    n = len(ds)
    g, rem = divmod(sum(ds) - n + 3, 3)
    if rem or not is_stable(g, n) or ds[-1] < 0:
        return Fraction(0)
    return Fraction(_dvv(ds), 24 ** g * factorial(g) * prod(weight(d) for d in ds))


def dvv_tau(ds):
    """<tau_ds> for `ds` sorted in decreasing order, as `_tau` divided it:
    M(ds) / (24^g g! prod (2d_i+1)!!)."""
    return _weighted_dvv(ds, lambda d: double_factorial(2 * d + 1))


def volume_coefficient(ds):
    """[L^(2ds+1)] W_{g,n} for `ds` sorted in decreasing order, as
    `kontsevich_volume` divided it per key: M(ds) / (24^g g! prod (2d_i+1)!)."""
    return _weighted_dvv(ds, lambda d: factorial(2 * d + 1))


def laplace_coefficient(ds):
    """<tau_ds> prod (2d_i-1)!!, as `lhs_laplace` and `_psi_groups` formed it
    from the psi number."""
    return dvv_tau(ds) * prod(double_factorial(2 * d - 1) for d in ds)


def laplace(p, svars=None):
    """Laplace transform sending prod x_k^{m_k} to prod m_k! / s_k^{m_k+1}.

    The polynomial variables map positionally to `svars` (default: x_i -> s_i
    by rewriting the leading letter to `s`).
    """
    n = len(p.vars)
    if svars is None:
        svars = tuple("s" + v[1:] if v[1:] else "s" for v in p.vars)
    svars = tuple(svars)
    if len(svars) != n:
        raise ValueError("variable count mismatch")
    maxexp = [max((e[i] for e in p.terms), default=0) for i in range(n)]
    den = {(i,): maxexp[i] + 1 for i in range(n)}
    terms = {}
    for e, c in p.terms.items():
        exp = tuple(maxexp[i] - e[i] for i in range(n))
        terms[exp] = terms.get(exp, 0) + c * prod(factorial(x) for x in e)
    return RationalFunction(svars, 1, Poly(svars, terms), den).reduced()


def wp_volume_asymptotic(g, n):
    """The degree-(6g-6+2n) polynomial lim V_{g,n}(N x)/N^{6g-6+2n} in x.

    Re-derived from the package's W_{g,n}: every term of W_{g,n} has each
    L_k to an odd power, so dividing by the product of the perimeters lowers
    each exponent by one; L_k is renamed to x_k.
    """
    W = package_volume(g, n)
    assert all(e % 2 == 1 for exp in W.terms for e in exp)
    return Poly(tuple(f"x{i}" for i in range(1, n + 1)),
                {tuple(e - 1 for e in exp): c for exp, c in W.terms.items()})

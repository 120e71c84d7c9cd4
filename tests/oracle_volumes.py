"""Independent oracle for W_{g,n}: the boundary-splitting recursion.

Builds W_{g,n}(L_1..L_n) symbolically from the base cases W_{0,3} = L1 L2 L3
and W_{1,1} = L1^3/48 by removing the pair of pants that contains boundary 1:
either it joins boundary 1 to another boundary k (a polynomial integral over
the new boundary's length), or it splits off the rest of the surface along
two new boundaries, into one surface of genus g-1 or two surfaces of genus
g1 + g2 = g over all 2^(n-1) subsets of the other boundaries.  Nothing here
uses the package's psi-number recursion; the psi numbers are read back off
the coefficients, <psi^a> = [L^{2a+1}] W_{g,n} * 2^{3g-3+n} * prod(a_k!).

`laplace` is the term-by-term Laplace transform of a polynomial, the second
derivation of `ribbonvol.volumes.lhs_laplace` (which is built from the psi
numbers directly), applied to `wp_volume_asymptotic`, the asymptotic
Weil-Petersson polynomial read off W_{g,n}.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from ribbonvol.exact import Poly, RationalFunction, poly_integrate
from ribbonvol.volumes import is_stable
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

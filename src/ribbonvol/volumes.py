"""Volume polynomials of the combinatorial moduli space and psi-class numbers.

The psi-class intersection numbers <tau_{d_1} ... tau_{d_n}>_g =
<psi_1^d1 ... psi_n^dn> on the compactified moduli space of curves come from
the Dijkgraaf-Verlinde-Verlinde recursion (Witten's conjecture).  Peeling an
index k+1 off the bracket,

    (2k+3)!! <tau_{k+1} tau_S>_g
        = sum_j (2k+2d_j+1)!!/(2d_j-1)!! <tau_{d_j+k} tau_{S-j}>_g
        + 1/2 sum_{r+s=k-1} (2r+1)!! (2s+1)!! [ <tau_r tau_s tau_S>_{g-1}
              + sum_{I u J = S} <tau_r tau_I>_{g1} <tau_s tau_J>_{g2} ],

with (-1)!! = 1.  A bracket vanishes unless sum d_i = 3g-3+n for some g
with 2g-2+n > 0, which fixes every genus above; for the split 3 g1 =
r + sum I - |I| + 2, and g2 = g - g1.

The recursion runs in integers (`_dvv`), on

    M(d_1 .. d_n) = 24^g g! prod_i (2d_i+1)!! <tau_{d_1} ... tau_{d_n}>_g,

which is an int.  Multiplying the relation by 24^g g! (2k+3)!! prod_S
(2d_i+1)!! clears every denominator but the 1/2:

    M(k+1, S) = sum_j (2d_j+1) M(d_j+k, S-j)
              + 1/2 sum_{r+s=k-1} [ 24g M(r, s, S)
                                   + sum_{I u J = S} C(g, g1) M(r, I) M(s, J) ].

The sum halved is even: the terms of r and s = k-1-r are equal (swap I and
J), so it is twice the sum over r < s plus the term r = s, in which 24g is
even and the splits (I, J) and (J, I) give equal products (with S empty,
the one split gives C(2g1, g1) M(r)^2, and C(2g1, g1) is even).  `_dvv`
sums each pair r < s once, doubled, and halves exactly; an odd sum raises
`ArithmeticError`.  The seeds are M(0,0,0) = 1 (<tau_0^3>_0 = 1) and
M(1) = 3 (<tau_1>_1 = 1/24).  `_dvv` peels the smallest index.  Its step is
the string equation when that index is 0 (k = -1: weights 2d_j+1, empty
half-sum) and the dilaton equation when it is 1 (k = 0), so subset splits
run only when every index is at least 2; a split whose first half fails the
dimension test is skipped before any lookup.  `_brackets` divides M by the
weight of the psi numbers, of W_{g,n} or of its Laplace transform once per
sorted key, the one `Fraction` each bracket costs.

`kontsevich_volume(g, n)` returns the polynomial W_{g,n}(L_1..L_n): the
product of the perimeters times the top-power volume of the moduli space of
metric ribbon graphs with boundary lengths L.  It is assembled from the psi
numbers, d = 3g-3+n:

    [L^{2a+1}] W_{g,n} = <psi_1^a1 ... psi_n^an> / (2^d prod a_k!)
                       = M(a) / (24^g g! prod_k (2a_k+1)!),

since 2^a a! (2a+1)!! = (2a+1)!, so W_{0,3} = L1 L2 L3 and W_{1,1} = L1^3 / 48.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, prod
from operator import sub

from .exact import Poly, RationalFunction, double_factorial

__all__ = [
    "is_stable",
    "kontsevich_volume",
    "psi_numbers",
    "lhs_laplace",
    "UnstableInput",
]


class UnstableInput(ValueError):
    pass


def is_stable(g: int, n: int) -> bool:
    return g >= 0 and n >= 1 and 2 - 2 * g - n < 0


def _key(ds) -> tuple:
    return tuple(sorted(ds, reverse=True))


def _genus(ds) -> int:
    """The genus g of a nonzero bracket <tau_ds>_g, `ds` sorted in
    decreasing order, with sum ds = 3g-3+n, or -1 if there is none: a sum
    off the lattice, an unstable (g, n) or an index below 0."""
    n = len(ds)
    g, rem = divmod(sum(ds) - n + 3, 3)
    return g if not rem and is_stable(g, n) and ds[-1] >= 0 else -1


# M at the two seeds: M(0,0,0) = <tau_0^3>_0 and M(1) = 24 * 3!! <tau_1>_1.
_SEEDS = {(0, 0, 0): 1, (1,): 3}


@lru_cache(maxsize=None)
def _dvv(ds: tuple) -> int:
    """M(ds) = 24^g g! prod (2d_i+1)!! <tau_ds>_g for `ds` sorted in
    decreasing order, by integer DVV on the smallest index."""
    g = _genus(ds)
    if g < 0:
        return 0
    if ds in _SEEDS:
        return _SEEDS[ds]
    k, rest = ds[-1] - 1, ds[:-1]
    total = 0
    for j, d in enumerate(rest):
        total += (2 * d + 1) * _dvv(_key(rest[:j] + (d + k,) + rest[j + 1:]))
    if k <= 0:
        return total
    # each split (I, J) of `rest`, with x = sum I - |I| + 2, so that (r, I)
    # has genus (r + x) / 3; I and J stay sorted
    splits = [(2, (), ())]
    for d in rest:
        splits = [split for x, I, J in splits
                  for split in ((x + d - 1, I + (d,), J), (x, I, J + (d,)))]
    binom = [comb(g, i) for i in range(g + 1)]
    # the term of r equals that of s = k-1-r (swap I and J): each pair
    # r < s is summed once and doubled
    half = 0
    for r in range((k + 1) // 2):
        s = k - 1 - r
        term = 24 * g * _dvv(_key((r, s) + rest)) if g else 0
        for x, I, J in splits:
            g1, rem = divmod(r + x, 3)
            if rem or g1 > g:
                continue
            left = _dvv(_key((r,) + I))
            if left:
                term += binom[g1] * left * _dvv(_key((s,) + J))
        half += term if r == s else 2 * term
    if half & 1:
        raise ArithmeticError(f"odd DVV half-sum at {ds}")
    return total + (half >> 1)


def _bracket(ds, weight) -> Fraction:
    """M(ds) / (24^g g! prod weight(d_i)) for `ds` sorted in decreasing
    order, of genus g (`_genus`)."""
    g = _genus(ds)
    return Fraction(_dvv(ds), 24 ** g * factorial(g) * prod(map(weight, ds)))


def _brackets(g: int, n: int, weight):
    """Each composition a of 3g-3+n into n parts, in lexicographic order,
    with `_bracket(_key(a), weight)`, taken once per sorted key."""
    if not is_stable(g, n):
        raise UnstableInput(f"({g},{n}) is unstable")
    values = {}
    for alpha in _compositions(3 * g - 3 + n, n):
        key = _key(alpha)
        value = values.get(key)
        if value is None:
            value = values[key] = _bracket(key, weight)
        yield alpha, value


def psi_numbers(g: int, n: int) -> dict:
    """<psi^a> in Q for each a with |a| = 3g-3+n, in lexicographic order."""
    return dict(_brackets(g, n, lambda a: double_factorial(2 * a + 1)))


def _compositions(total: int, parts: int):
    """The tuples of `parts` integers >= 0 summing to `total`, in
    lexicographic order, by stars and bars: each nondecreasing choice
    c_1 <= ... <= c_{parts-1} of bar positions in 0..total gives the parts
    c_1, c_2 - c_1, ..., total - c_{parts-1}."""
    ends = (total,)
    for bars in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, bars + ends, (0,) + bars))


@lru_cache(maxsize=None)
def kontsevich_volume(g: int, n: int) -> Poly:
    """The polynomial W_{g,n}(L1..Ln), homogeneous of degree 6g-6+3n:
    sum_a <psi^a> / (2^d prod a_k!) prod_k L_k^(2a_k + 1), each coefficient
    M(a) / (24^g g! prod (2a_k+1)!) computed once per sorted key."""
    d = 3 * g - 3 + n
    odd = range(1, 2 * d + 2, 2)
    terms = {tuple(map(odd.__getitem__, alpha)): c
             for alpha, c in _brackets(g, n, lambda a: factorial(2 * a + 1))}
    return Poly(tuple(f"L{i}" for i in range(1, n + 1)), terms)


def _laplace_coefficients(g: int, n: int):
    """Each composition a of 3g-3+n with <psi^a> prod (2a_k-1)!!, its
    coefficient in `lhs_laplace`: M(a) / (24^g g! prod (2a_k+1))."""
    return _brackets(g, n, lambda a: 2 * a + 1)


def lhs_laplace(g: int, n: int) -> RationalFunction:
    """Sum over |a| = 3g-3+n of <psi^a> prod (2a_k-1)!! / s_k^{2a_k+1}."""
    d = 3 * g - 3 + n
    svars = tuple(f"s{i}" for i in range(1, n + 1))
    terms = {tuple(2 * (d - a) for a in alpha): val
             for alpha, val in _laplace_coefficients(g, n) if val}
    den = {(i,): 2 * d + 1 for i in range(n)}
    return RationalFunction(svars, 1, Poly(svars, terms), den).reduced()

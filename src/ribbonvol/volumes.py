"""Volume polynomials of the combinatorial moduli space and psi-class numbers.

The psi-class intersection numbers <tau_{d_1} ... tau_{d_n}>_g =
<psi_1^d1 ... psi_n^dn> on the compactified moduli space of curves come from
the Dijkgraaf-Verlinde-Verlinde recursion (Witten's conjecture).  Peeling an
index k+1 off the bracket,

    (2k+3)!! <tau_{k+1} tau_S>_g
        = sum_j (2k+2d_j+1)!!/(2d_j-1)!! <tau_{d_j+k} tau_{S-j}>_g
        + 1/2 sum_{r+s=k-1} (2r+1)!! (2s+1)!! [ <tau_r tau_s tau_S>_{g-1}
              + sum_{I u J = S} <tau_r tau_I>_{g1} <tau_s tau_J>_{g2} ],

with (-1)!! = 1.  `_tau` peels the smallest index.  Its step is the string
equation when that index is 0 (k = -1: weights 1, empty half-sum) and the
dilaton equation <tau_1 tau_S>_g = (2g-2+|S|) <tau_S>_g when it is 1 (k = 0:
weights 2d_j+1, summing to 3(2g-2+|S|)), so subset splits run only when
every index is at least 2.  The seeds are <tau_0^3>_0 = 1 and <tau_1>_1 =
1/24; a bracket vanishes unless sum d_i = 3g-3+n for some g with
2g-2+n > 0, which fixes every genus above.

`kontsevich_volume(g, n)` returns the polynomial W_{g,n}(L_1..L_n): the
product of the perimeters times the top-power volume of the moduli space of
metric ribbon graphs with boundary lengths L.  It is assembled from the psi
numbers, d = 3g-3+n:

    [L^{2a+1}] W_{g,n} = <psi_1^a1 ... psi_n^an> / (2^d prod a_k!),

so W_{0,3} = L1 L2 L3 and W_{1,1} = L1^3 / 48.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

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


@lru_cache(maxsize=None)
def _tau(ds: tuple) -> Fraction:
    """<tau_{d_1} ... tau_{d_n}> for `ds` sorted in decreasing order, by DVV
    on the smallest index."""
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
        total += weight * _tau(_key(rest[:j] + (d + k,) + rest[j + 1:]))
    splits = [([d for i, d in enumerate(rest) if mask >> i & 1],
               [d for i, d in enumerate(rest) if not mask >> i & 1])
              for mask in range(1 << len(rest))] if k > 0 else []
    half = Fraction(0)
    for r in range(k):
        s = k - 1 - r
        inner = _tau(_key((r, s) + rest))
        for I, J in splits:
            inner += _tau(_key([r] + I)) * _tau(_key([s] + J))
        half += double_factorial(2 * r + 1) * double_factorial(2 * s + 1) * inner
    return (total + half / 2) / double_factorial(2 * k + 3)


def psi_numbers(g: int, n: int) -> dict:
    """Map from exponent tuples a (|a| = 3g-3+n) to <psi^a> in Q."""
    if not is_stable(g, n):
        raise UnstableInput(f"({g},{n}) is unstable")
    return {alpha: _tau(_key(alpha)) for alpha in _compositions(3 * g - 3 + n, n)}


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def kontsevich_volume(g: int, n: int) -> Poly:
    """The polynomial W_{g,n}(L1..Ln), homogeneous of degree 6g-6+3n:
    sum_a <psi^a> / (2^d prod a_k!) prod_k L_k^(2a_k + 1)."""
    scale = 2 ** (3 * g - 3 + n)
    terms = {}
    for alpha, val in psi_numbers(g, n).items():
        denom = scale
        for a in alpha:
            denom *= factorial(a)
        terms[tuple(2 * a + 1 for a in alpha)] = val / denom
    return Poly(tuple(f"L{i}" for i in range(1, n + 1)), terms)


def lhs_laplace(g: int, n: int) -> RationalFunction:
    """Sum over |a| = 3g-3+n of <psi^a> prod (2a_k-1)!! / s_k^{2a_k+1}."""
    d = 3 * g - 3 + n
    svars = tuple(f"s{i}" for i in range(1, n + 1))
    terms = {tuple(2 * (d - a) for a in alpha):
             val * prod(double_factorial(2 * a - 1) for a in alpha)
             for alpha, val in psi_numbers(g, n).items() if val}
    den = {(i,): 2 * d + 1 for i in range(n)}
    return RationalFunction(svars, 1, Poly(svars, terms), den).reduced()

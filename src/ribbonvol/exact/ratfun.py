"""Rational functions with denominators factored into s_i and s_i + s_j.

This is the closed form produced by Laplace transforms of piecewise
polynomial volumes: a scalar, a polynomial numerator, and a multiset of
linear denominator factors drawn from {s_k} and {s_i + s_j, i < j}.
Keeping the denominator factored avoids expansion blowup; a sum of any
number of terms (`RationalFunction.sum`) is taken once over the common
denominator and reduced by exact division against the factor list.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import mul

from .poly import Poly

__all__ = ["RationalFunction", "orthant_exponential_integral", "double_factorial"]


def double_factorial(n: int) -> int:
    """(n)!! with the empty-product convention (-1)!! = 1."""
    if n <= 0:
        return 1
    out = 1
    while n > 0:
        out *= n
        n -= 2
    return out


def _factor_poly(factor, svars) -> Poly:
    if len(factor) == 1:
        return Poly.variable(svars[factor[0]], svars)
    i, j = factor
    return Poly.variable(svars[i], svars) + Poly.variable(svars[j], svars)


def _divide_once(num: Poly, factor, svars):
    """Exact division of `num` by the linear factor, or None."""
    if not num.terms:
        return num
    if len(factor) == 1:
        v = svars[factor[0]]
        if v not in num.vars:
            return None
        i = num.vars.index(v)
        if any(e[i] == 0 for e in num.terms):
            return None
        terms = {}
        for exp, c in num.terms.items():
            new = list(exp)
            new[i] -= 1
            terms[tuple(new)] = c
        return Poly(num.vars, terms)
    # synthetic division by s_i + s_j, monic in s_i
    vi, vj = svars[factor[0]], svars[factor[1]]
    num = num.with_vars(tuple(sorted(set(num.vars) | {vi, vj})))
    i = num.vars.index(vi)
    j = num.vars.index(vj)
    quotient = {}
    rem = dict(num.terms)
    while rem:
        d = max(e[i] for e in rem)
        if d == 0:
            return None
        lead = {e: c for e, c in rem.items() if e[i] == d}
        for exp, c in lead.items():
            q = list(exp)
            q[i] -= 1
            qt = tuple(q)
            quotient[qt] = quotient.get(qt, 0) + c
            # subtract (s_i + s_j) * q-term
            rem.pop(exp)
            other = list(q)
            other[j] += 1
            ot = tuple(other)
            acc = rem.get(ot, 0) - c
            if acc:
                rem[ot] = acc
            else:
                rem.pop(ot, None)
    return Poly(num.vars, quotient)


class RationalFunction:
    """scalar * numerator / prod(factors^multiplicity)."""

    __slots__ = ("svars", "scalar", "num", "den")

    def __init__(self, svars, scalar=1, num=None, den=None):
        self.svars = tuple(svars)
        self.scalar = Fraction(scalar)
        self.num = num if num is not None else Poly.const(1, self.svars)
        den = dict(den or {})
        for f, m in list(den.items()):
            if m < 0:
                raise ValueError("negative factor multiplicity")
            if m == 0:
                del den[f]
            if len(f) == 2 and f[0] == f[1]:
                raise ValueError("doubled factor (i,i); fold the 2 into the scalar")
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, svars) -> "RationalFunction":
        return cls(svars, 0, Poly.zero(svars), {})

    @classmethod
    def from_factors(cls, svars, scalar, factors) -> "RationalFunction":
        den = {}
        for f in factors:
            f = tuple(sorted(f))
            den[f] = den.get(f, 0) + 1
        return cls(svars, scalar, Poly.const(1, svars), den)

    def is_zero(self) -> bool:
        return self.scalar == 0 or self.num.is_zero()

    @staticmethod
    def sum(terms) -> "RationalFunction":
        """The reduced sum of `terms`, added once over a common denominator.

        Terms with equal denominators are merged first.  The common
        denominator is prod_f f^(M_f), M_f the largest exponent of the
        factor f in any term; each merged numerator is raised to it by the
        powers f^k, k <= M_f, computed once per factor, and the one sum is
        then reduced.  The variables are those of the first term, so an
        empty `terms` raises ValueError.
        """
        terms = list(terms)
        if not terms:
            raise ValueError("a sum of no rational functions has no variables")
        svars = terms[0].svars
        groups = {}
        for t in terms:
            if not t.is_zero():
                key = tuple(sorted(t.den.items()))
                groups[key] = groups.get(key, 0) + t.num * t.scalar
        highest = {}
        for key in groups:
            for f, m in key:
                highest[f] = max(highest.get(f, 0), m)
        # the monomials s_k first: a product grows least multiplied by them
        order = sorted(highest, key=lambda f: (len(f), f))
        # powers[f][k - 1] = f^k
        powers = {f: list(accumulate([_factor_poly(f, svars)] * highest[f], mul))
                  for f in order}
        num = Poly.zero(svars)
        for key, part in groups.items():
            den = dict(key)
            for f in order:
                e = highest[f] - den.get(f, 0)
                if e:
                    part = part * powers[f][e - 1]
            num = num + part
        return RationalFunction(svars, 1, num, highest).reduced()

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.svars, self.scalar * other, self.num, self.den)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        den = dict(self.den)
        for f, m in other.den.items():
            den[f] = den.get(f, 0) + m
        return RationalFunction(self.svars, self.scalar * other.scalar,
                                self.num * other.num, den)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction.sum((self, other))

    def __sub__(self, other):
        return self + (-other)

    # -- canonical form ----------------------------------------------------

    def reduced(self) -> "RationalFunction":
        """Cancel factors dividing the numerator; normalise the content."""
        if self.is_zero():
            return RationalFunction.zero(self.svars)
        num = self.num
        den = dict(self.den)
        for f in sorted(den):
            while den.get(f, 0) > 0:
                q = _divide_once(num, f, self.svars)
                if q is None:
                    break
                num = q
                den[f] -= 1
            if den.get(f, 0) == 0:
                den.pop(f, None)
        scalar = self.scalar
        coeffs = list(num.terms.values())
        if coeffs:
            num_gcd = 0
            den_lcm = 1
            for c in coeffs:
                num_gcd = gcd(num_gcd, abs(c.numerator))
                den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
            content = Fraction(num_gcd, den_lcm)
            lead = num._sorted_terms()[0][1]
            if lead < 0:
                content = -content
            if content not in (0, 1):
                num = num * (Fraction(1) / content)
                scalar = scalar * content
        return RationalFunction(self.svars, scalar, num, den)

    def canonical_key(self):
        r = self.reduced()
        return (r.scalar, tuple(sorted(r.den.items())),
                tuple(sorted(r.num.with_vars(r.svars).terms.items())))

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash(self.canonical_key())

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point: dict) -> Fraction:
        """Exact value at a point (dict var -> Fraction); denominators must not vanish."""
        total = self.scalar * self.num.evaluate(point)
        for f, m in self.den.items():
            if len(f) == 1:
                fv = point[self.svars[f[0]]]
            else:
                fv = point[self.svars[f[0]]] + point[self.svars[f[1]]]
            if fv == 0:
                raise ZeroDivisionError(f"denominator factor {self.factor_str(f)} vanishes")
            total = total / fv**m
        return total

    # -- display ---------------------------------------------------------------

    def factor_str(self, f) -> str:
        if len(f) == 1:
            return self.svars[f[0]]
        return f"({self.svars[f[0]]}+{self.svars[f[1]]})"

    def __str__(self):
        r = self.reduced()
        if r.is_zero():
            return "0"
        top = []
        if r.scalar.numerator != 1 or (not r.den and r.scalar.denominator == 1
                                       and r.num.total_degree() == 0):
            top.append(str(r.scalar.numerator))
        if not (r.num == 1):
            ns = str(r.num)
            top.append(f"({ns})" if len(r.num.terms) > 1 else ns)
        bottom = []
        if r.scalar.denominator != 1:
            bottom.append(str(r.scalar.denominator))
        for f, m in sorted(r.den.items()):
            base = r.factor_str(f)
            bottom.append(f"{base}^{m}" if m > 1 else base)
        tstr = "*".join(top) if top else "1"
        if not bottom:
            return tstr
        if len(bottom) == 1 and "+" not in bottom[0]:
            return f"{tstr}/{bottom[0]}"
        return f"{tstr}/({' '.join(bottom)})"

    def __repr__(self):
        return f"RationalFunction({self})"


def orthant_exponential_integral(A, svars) -> RationalFunction:
    """Integral of exp(-<s, A e>) over the positive orthant in e.

    `A` is the face/edge incidence matrix with column sums 2; each edge
    contributes 1/(s_l + s_r), a doubled face contributing 1/(2 s_i).
    """
    n = len(A)
    E = len(A[0]) if n else 0
    scalar = Fraction(1)
    factors = []
    for e in range(E):
        col = [A[i][e] for i in range(n)]
        faces = [i for i in range(n) if col[i]]
        if sum(col) != 2:
            raise ValueError(f"column {e} of A does not sum to 2")
        if len(faces) == 1:
            scalar /= 2
            factors.append((faces[0],))
        else:
            factors.append((faces[0], faces[1]))
    return RationalFunction.from_factors(svars, scalar, factors)

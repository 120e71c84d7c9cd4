"""Pairwise addition of rational functions, the oracle for
`RationalFunction.sum`.

Two terms are raised to the lcm of their factored denominators, their
numerators added and the result reduced; a sum of many terms is a fold of
this.  `RationalFunction.sum` instead merges terms by denominator and adds
everything once over the common denominator of the whole list.
"""

from functools import reduce

from ribbonvol.exact import Poly, RationalFunction


def _factor_poly(factor, svars):
    return sum((Poly.variable(svars[i], svars) for i in factor), Poly.zero(svars))


def pairwise_add(a, b):
    """a + b over the lcm of the two denominators, reduced (a zero operand
    returns the other one as it is)."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    lcm = dict(a.den)
    for f, m in b.den.items():
        lcm[f] = max(lcm.get(f, 0), m)
    x = a.num * a.scalar
    y = b.num * b.scalar
    for f, m in lcm.items():
        fx = m - a.den.get(f, 0)
        fy = m - b.den.get(f, 0)
        fp = _factor_poly(f, a.svars)
        for _ in range(fx):
            x = x * fp
        for _ in range(fy):
            y = y * fp
    return RationalFunction(a.svars, 1, x + y, lcm).reduced()


def pairwise_sum(terms):
    """The terms added one at a time by `pairwise_add`, then reduced."""
    return reduce(pairwise_add, terms).reduced()

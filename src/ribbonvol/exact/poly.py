"""Exact multivariate polynomials over Q.

A polynomial stores a variable tuple and a map from exponent tuples to
nonzero `Fraction` coefficients; binary operations merge variable sets by
name.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

__all__ = ["Poly", "poly_integrate"]


class Poly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        clean = {}
        if terms:
            for exp, c in terms.items():
                if c:
                    clean[tuple(exp)] = Fraction(c)
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars=()) -> "Poly":
        return cls(vars, {})

    @classmethod
    def const(cls, c, vars=()) -> "Poly":
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, name: str, vars=None) -> "Poly":
        if vars is None:
            vars = (name,)
        vars = tuple(vars)
        i = vars.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {exp: Fraction(1)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Rational)):
            other = Poly.const(other, self.vars)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    # -- variable bookkeeping ----------------------------------------------

    def with_vars(self, vars) -> "Poly":
        """Reindex onto a superset of variables."""
        vars = tuple(vars)
        if vars == self.vars:
            return self
        pos = []
        for v in self.vars:
            if v not in vars:
                raise ValueError(f"variable {v} missing from {vars}")
            pos.append(vars.index(v))
        terms = {}
        for exp, c in self.terms.items():
            new = [0] * len(vars)
            for p, e in zip(pos, exp):
                new[p] = e
            terms[tuple(new)] = c
        return Poly(vars, terms)

    @staticmethod
    def _merge_vars(a: "Poly", b: "Poly"):
        if a.vars == b.vars:
            return a, b
        vars = tuple(sorted(set(a.vars) | set(b.vars)))
        return a.with_vars(vars), b.with_vars(vars)

    # -- arithmetic ----------------------------------------------------------

    def _wrap(self, other):
        if isinstance(other, (int, Rational)):
            return Poly.const(other, self.vars)
        return other

    def __add__(self, other):
        other = self._wrap(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = Poly._merge_vars(self, other)
        terms = dict(a.terms)
        for exp, c in b.terms.items():
            acc = terms.get(exp, 0) + c
            if not acc:
                terms.pop(exp, None)
            else:
                terms[exp] = acc
        return Poly(a.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._wrap(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Rational)):
            if not other:
                return Poly.zero(self.vars)
            return Poly(self.vars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = Poly._merge_vars(self, other)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                exp = tuple(x + y for x, y in zip(e1, e2))
                acc = terms.get(exp, 0) + c1 * c2
                if not acc:
                    terms.pop(exp, None)
                else:
                    terms[exp] = acc
        return Poly(a.vars, terms)

    __rmul__ = __mul__

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, name: str, value) -> "Poly":
        """Replace a variable by a polynomial (or scalar), exactly."""
        if name not in self.vars:
            return self
        i = self.vars.index(name)
        if not isinstance(value, Poly):
            value = Poly.const(value, ())
        rest_vars = tuple(v for v in self.vars if v != name)
        out = Poly.zero(tuple(sorted(set(rest_vars) | set(value.vars))))
        powers = {0: Poly.const(1, ())}
        maxp = max((e[i] for e in self.terms), default=0)
        for k in range(1, maxp + 1):
            powers[k] = powers[k - 1] * value
        for exp, c in self.terms.items():
            rest = tuple(e for j, e in enumerate(exp) if j != i)
            mono = Poly(rest_vars, {rest: c})
            out = out + mono * powers[exp[i]]
        return out

    def evaluate(self, point: dict):
        """Exact evaluation; `point` must cover every used variable."""
        total = 0
        for exp, c in self.terms.items():
            val = c
            for v, e in zip(self.vars, exp):
                if e:
                    val = val * point[v] ** e
            total = val + total
        return total

    # -- calculus ------------------------------------------------------------

    def antiderivative(self, name: str) -> "Poly":
        if name not in self.vars:
            return self * Poly.variable(name)
        i = self.vars.index(name)
        terms = {}
        for exp, c in self.terms.items():
            new = list(exp)
            new[i] += 1
            terms[tuple(new)] = c * Fraction(1, new[i])
        return Poly(self.vars, terms)

    # -- display -------------------------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self._sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exp) if e
            )
            cs = str(c)
            if mono:
                piece = mono if cs == "1" else (f"-{mono}" if cs == "-1" else f"{cs}*{mono}")
            else:
                piece = cs
            parts.append(piece)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Poly({self.vars!r}, {self.terms!r})"

    def to_json(self):
        return {
            "vars": list(self.vars),
            "terms": [{"exp": list(e), "coef": str(c)}
                      for e, c in self._sorted_terms()],
        }


def poly_integrate(p: Poly, name: str, lower, upper) -> Poly:
    """Signed definite integral of `p` in `name` between polynomial bounds.

    The bounds may be polynomials in the remaining variables; the result is
    the antiderivative evaluated at `upper` minus at `lower` (a polynomial
    identity, valid even when the bounds formally cross).
    """
    F = p.antiderivative(name)
    return F.substitute(name, upper) - F.substitute(name, lower)

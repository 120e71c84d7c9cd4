"""Exact arithmetic in the real quadratic field Q(sqrt(5)).

Elements are `a + b*sqrt(5)` with rational `a`, `b`, each stored as an
`int` or a `Fraction`; the pentagon chord cosines live in this field.
Rationals embed as `b = 0`; mixed arithmetic with `int` and `Fraction`
promotes automatically.  Int parts stay ints under `+`, `-` and `*`, so
the integer crossing matrices of the chart layer hold no `Fraction`;
division goes through a `Fraction` norm, so it is exact on int parts too.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

__all__ = ["Surd"]


class Surd:
    """An element a + b*sqrt(5) of Q(sqrt(5)); a and b are each an int
    or a `Fraction` (anything else rational is converted to a Fraction)."""

    __slots__ = ("a", "b")

    D = 5

    def __init__(self, a, b=0):
        self.a = a if type(a) is int else Fraction(a)
        self.b = b if type(b) is int else Fraction(b)

    @staticmethod
    def _make(a, b) -> "Surd":
        """a + b*sqrt(5) from two parts, each an int or a Fraction, stored
        without conversion."""
        s = object.__new__(Surd)
        s.a = a
        s.b = b
        return s

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Surd":
        if isinstance(x, Surd):
            return x
        if isinstance(x, (int, Rational)):
            return Surd(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Surd")

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.a)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        try:
            o = Surd._coerce(other)
        except TypeError:
            return NotImplemented
        return Surd._make(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Surd._make(-self.a, -self.b)

    def __sub__(self, other):
        try:
            o = Surd._coerce(other)
        except TypeError:
            return NotImplemented
        return Surd._make(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int:  # a scalar: no coercion to Surd
            return Surd._make(self.a * other, self.b * other)
        try:
            o = Surd._coerce(other)
        except TypeError:
            return NotImplemented
        return Surd._make(self.a * o.a + self.D * self.b * o.b,
                          self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        # sqrt(5) is irrational, so the norm vanishes only at zero
        norm = self.a * self.a - self.D * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero Surd")
        if type(norm) is int:  # int parts: divide by a Fraction, never int / int
            norm = Fraction(norm)
        return Surd._make(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        try:
            o = Surd._coerce(other)
        except TypeError:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- equality and conversion -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Rational)):
            return self.b == 0 and self.a == other
        if isinstance(other, Surd):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __float__(self):
        return float(self.a) + float(self.b) * float(self.D) ** 0.5

    # -- formatting ------------------------------------------------------

    def __repr__(self):
        return f"Surd({self.a!r}, {self.b!r})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.D})"
        bpart = root if self.b == 1 else (f"-{root}" if self.b == -1 else f"{self.b}*{root}")
        if self.a == 0:
            return bpart
        sign = "+" if self.b > 0 else "-"
        mag = abs(self.b)
        bmag = root if mag == 1 else f"{mag}*{root}"
        return f"{self.a} {sign} {bmag}"

    def to_json(self):
        if self.b == 0:
            return str(self.a)
        return {"a": str(self.a), "b": str(self.b), "D": self.D}

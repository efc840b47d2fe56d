"""Exact arithmetic in the real quadratic field Q(sqrt2).

Every series coefficient in this package is an :class:`AlgebraicNumber`,
an exact value ``a + b*sqrt(2)`` with ``a`` and ``b`` rational.  Keeping a
single coefficient field everywhere (even where plain rationals would do)
keeps the series arithmetic uniform; "the irrational part is exactly zero"
is then itself a checkable property.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_SQRT2_FLOAT = math.sqrt(2.0)

_LITERAL_RE = re.compile(
    r"""^\s*(-?\d+(?:/\d+)?)\s*(?:([+-])\s*(\d+(?:/\d+)?)\s*\*\s*sqrt2)?\s*$"""
)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class AlgebraicNumber:
    """An exact element ``rat + irr*sqrt(2)`` of Q(sqrt2).

    Values are immutable, hashable and compare componentwise; the numeric
    embedding ``float(x)`` is the real number a + b*sqrt(2).  ``int`` and
    ``Fraction`` operands coerce in arithmetic.
    """

    __slots__ = ("rat", "irr")

    def __init__(self, rat=0, irr=0):
        object.__setattr__(self, "rat", _frac(rat))
        object.__setattr__(self, "irr", _frac(irr))

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicNumber is immutable")

    # -- coercion -----------------------------------------------------

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, cls):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        return None

    # -- ring/field operations ---------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgebraicNumber(self.rat + o.rat, self.irr + o.irr)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(-self.rat, -self.irr)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgebraicNumber(self.rat - o.rat, self.irr - o.irr)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.rat, self.irr, o.rat, o.irr
        return AlgebraicNumber(a * c + 2 * b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicNumber":
        """Multiplicative inverse (a - b*sqrt2) / (a^2 - 2b^2).

        The norm a^2 - 2b^2 vanishes only at zero (sqrt2 is irrational),
        so division by any nonzero value is always possible.
        """
        norm = self.rat * self.rat - 2 * self.irr * self.irr
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return AlgebraicNumber(self.rat / norm, -self.irr / norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        """Binary powering: x**n takes popcount(n) - 1 products plus one
        squaring per bit below the top one; x**0 is 1 and x**1 is x."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return ONE
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    # -- predicates and conversions ----------------------------------

    def __bool__(self):
        return bool(self.rat) or bool(self.irr)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.rat == o.rat and self.irr == o.irr

    def __hash__(self):
        # rational values must hash like their Fraction/int counterparts
        if not self.irr:
            return hash(self.rat)
        return hash((self.rat, self.irr))

    def __float__(self):
        return float(self.rat) + float(self.irr) * _SQRT2_FLOAT

    # -- text form -----------------------------------------------------

    def render(self, digits=str) -> str:
        """Canonical text form ``a+b*sqrt2`` (rationals as ``p/q``), each
        integer written by `digits`; ``str`` raises ValueError past the
        interpreter's limit on digits."""
        def part(x: Fraction) -> str:
            den = "" if x.denominator == 1 else f"/{digits(x.denominator)}"
            return digits(x.numerator) + den

        return f"{part(self.rat)}{'-' if self.irr < 0 else '+'}{part(abs(self.irr))}*sqrt2"

    @classmethod
    def parse(cls, text: str) -> "AlgebraicNumber":
        """Exact inverse of :meth:`render`; also accepts a bare rational."""
        m = _LITERAL_RE.match(text)
        if not m:
            raise ValueError(f"not a Q(sqrt2) literal: {text!r}")
        rat = Fraction(m.group(1))
        irr = Fraction(m.group(3)) if m.group(3) else Fraction(0)
        if m.group(2) == "-":
            irr = -irr
        return cls(rat, irr)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"AlgebraicNumber({self.rat!r}, {self.irr!r})"


ZERO = AlgebraicNumber(0)
ONE = AlgebraicNumber(1)
SQRT2 = AlgebraicNumber(0, 1)

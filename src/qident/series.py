"""Truncated formal series in q with exact rational exponents.

A :class:`PuiseuxSeries` stores finitely many terms ``c * q**e`` with
``Fraction`` exponents and :class:`~qident.field.AlgebraicNumber`
coefficients, together with a truncation bound ``trunc``: the series is
known exactly for every exponent strictly below ``trunc`` and unknown at
or above it.  Exponents may be negative (the lower bound is always
finite) and exponent denominators are arbitrary — no fixed grid.

Truncation propagates pessimistically through arithmetic; comparisons
that would need unknown coefficients raise
:class:`InsufficientPrecisionError` instead of silently comparing fewer
terms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from . import backend
from .field import ONE, ZERO, AlgebraicNumber

# Below this many terms on either side, multiplication stays sparse;
# dense convolution also bails out when the common grid is too long.
_SPARSE_CUTOFF = 8
_DENSE_SLOT_CAP = 500_000
# No dense coefficient array built from an order and an exponent grid
# (block expansions, inverse and root recurrences) may be longer than this.
MAX_DENSE_SLOTS = 1_000_000


class InsufficientPrecisionError(Exception):
    """More coefficients were requested than the truncation guarantees."""


class LeadingCoefficientError(ValueError):
    """Root extraction requires a leading coefficient of exactly 1."""


class SlotBudgetError(ValueError):
    """A dense coefficient array would exceed :data:`MAX_DENSE_SLOTS`."""


def dense_slots(span) -> int:
    """ceil(span) slots, checked against the budget before any allocation."""
    n = math.ceil(span)
    if n > MAX_DENSE_SLOTS:
        raise SlotBudgetError(
            f"expansion needs {n} dense coefficient slots, more than the "
            f"limit of {MAX_DENSE_SLOTS}; lower the order or the exponent "
            "denominators"
        )
    return n


class Mismatch(NamedTuple):
    exponent: Fraction
    lhs: AlgebraicNumber
    rhs: AlgebraicNumber


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _coeff(c) -> AlgebraicNumber:
    return c if isinstance(c, AlgebraicNumber) else AlgebraicNumber(c)


class PuiseuxSeries:
    """Finitely many exact terms plus a truncation bound."""

    __slots__ = ("terms", "trunc")

    def __init__(self, terms, trunc):
        trunc = _fr(trunc)
        clean: dict[Fraction, AlgebraicNumber] = {}
        for e, c in terms.items():
            e = _fr(e)
            if e >= trunc:
                continue  # beyond the guarantee; not representable
            c = _coeff(c)
            if c:
                clean[e] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, trunc) -> "PuiseuxSeries":
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc) -> "PuiseuxSeries":
        return cls.monomial(ONE, 0, trunc)

    @classmethod
    def monomial(cls, coeff, exponent, trunc) -> "PuiseuxSeries":
        coeff, exponent, trunc = _coeff(coeff), _fr(exponent), _fr(trunc)
        if coeff and trunc <= exponent:
            raise ValueError(
                f"monomial exponent {exponent} not below truncation {trunc}"
            )
        return cls({exponent: coeff}, trunc)

    # -- basic queries ---------------------------------------------------

    def _least(self) -> Fraction:
        # least exponent; by convention the truncation bound for the zero
        # series (it has no terms below trunc)
        return min(self.terms) if self.terms else self.trunc

    def leading(self) -> Optional[tuple[Fraction, AlgebraicNumber]]:
        if not self.terms:
            return None
        e = min(self.terms)
        return e, self.terms[e]

    def coefficient(self, exponent) -> AlgebraicNumber:
        e = _fr(exponent)
        if e >= self.trunc:
            raise InsufficientPrecisionError(
                f"coefficient of q^{e} unknown (truncation {self.trunc})"
            )
        return self.terms.get(e, ZERO)

    def items(self) -> list[tuple[Fraction, AlgebraicNumber]]:
        return sorted(self.terms.items())

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.terms == other.terms

    def __hash__(self):
        return hash((self.trunc, frozenset(self.terms.items())))

    # -- additive structure ---------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            cur = acc.get(e)
            acc[e] = c if cur is None else cur + c
        return PuiseuxSeries(acc, trunc)

    def __neg__(self):
        out = {e: -c for e, c in self.terms.items()}
        return PuiseuxSeries(out, self.trunc)

    def __sub__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "PuiseuxSeries":
        c = _coeff(c)
        if not c:
            return PuiseuxSeries.zero(self.trunc)
        return PuiseuxSeries({e: v * c for e, v in self.terms.items()}, self.trunc)

    def shift(self, delta, coeff=None) -> "PuiseuxSeries":
        """Exact multiplication by the monomial ``coeff * q**delta``.

        Unlike series multiplication this loses no precision: a monomial
        is known at every exponent, so the bound moves with the terms.
        """
        delta = _fr(delta)
        out = {e + delta: c for e, c in self.terms.items()}
        s = PuiseuxSeries(out, self.trunc + delta)
        return s if coeff is None else s.scale(coeff)

    # -- multiplication ----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            return self.scale(other)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        m1, m2 = self._least(), other._least()
        trunc = min(self.trunc + m2, other.trunc + m1)
        if not self.terms or not other.terms:
            return PuiseuxSeries.zero(trunc)
        if min(len(self.terms), len(other.terms)) <= _SPARSE_CUTOFF:
            return self._mul_sparse(other, trunc)
        dense = self._mul_dense(other, trunc)
        return dense if dense is not None else self._mul_sparse(other, trunc)

    __rmul__ = __mul__

    def _mul_sparse(self, other, trunc):
        small, large = self, other
        if len(small.terms) > len(large.terms):
            small, large = large, small
        large_items = large.items()
        acc: dict[Fraction, AlgebraicNumber] = {}
        for e1, c1 in small.terms.items():
            for e2, c2 in large_items:
                e = e1 + e2
                if e >= trunc:
                    break  # large_items ascending
                cur = acc.get(e)
                p = c1 * c2
                acc[e] = p if cur is None else cur + p
        return PuiseuxSeries(acc, trunc)

    def _mul_dense(self, other, trunc):
        den = 1
        for s in (self, other):
            for e in s.terms:
                den = den * e.denominator // math.gcd(den, e.denominator)
        base = self._least() + other._least()
        span = (trunc - base) * den
        if span <= 0:
            return PuiseuxSeries.zero(trunc)
        nout = math.ceil(span)
        if nout > _DENSE_SLOT_CAP:
            return None
        ra, ia, d1, irr1 = self._dense_vectors(den, nout)
        rb, ib, d2, irr2 = other._dense_vectors(den, nout)
        if irr1 or irr2:
            rc, ic = backend.convolve(ra, ia, rb, ib, nout)
        else:
            rc = backend.convolve_rational(ra, rb, nout)
            ic = [0] * nout
        d = d1 * d2
        bn = int(base * den)
        out = {}
        for k in range(nout):
            r, i = rc[k], ic[k]
            if r or i:
                out[Fraction(bn + k, den)] = AlgebraicNumber(
                    Fraction(r, d), Fraction(i, d)
                )
        return PuiseuxSeries(out, trunc)

    def _dense_vectors(self, den, nout):
        """Integer-normalized dense coefficients on the 1/den grid.

        Returns (rat_parts, irr_parts, common_denominator, has_irr) with
        coefficient k equal to (rat[k] + irr[k]*sqrt2) / common_denominator.
        """
        m = self._least()
        d = 1
        offs = []
        for e, c in self.terms.items():
            off = int((e - m) * den)
            if off >= nout:
                continue  # cannot reach a kept slot of the product
            offs.append((off, c))
            for q in (c.rat.denominator, c.irr.denominator):
                d = d * q // math.gcd(d, q)
        n = max(off for off, _ in offs) + 1 if offs else 1
        ra = [0] * n
        ia = [0] * n
        has_irr = False
        for off, c in offs:
            ra[off] = int(c.rat * d)
            iv = int(c.irr * d)
            ia[off] = iv
            if iv:
                has_irr = True
        return ra, ia, d, has_irr

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return PuiseuxSeries.one(self.trunc)
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- inversion and roots ----------------------------------------------

    def _unit_dense(self):
        """Leading-term data plus dense unit-part coefficients.

        Writes the series as c0 * q**m * u with u = 1 + ..., and returns
        (m, c0, den, nonzero unit terms, slot count) where u's exponents
        live on the 1/den grid and `nonzero` maps slot -> coefficient.
        """
        m = self._least()
        c0 = self.terms[m]
        den = 1
        for e in self.terms:
            q = (e - m).denominator
            den = den * q // math.gcd(den, q)
        span = (self.trunc - m) * den
        nout = max(dense_slots(span), 1)
        inv0 = c0.inverse()
        nonzero = []
        for e, c in sorted(self.terms.items()):
            off = int((e - m) * den)
            if 0 < off < nout:
                nonzero.append((off, c * inv0))
        return m, c0, den, nonzero, nout

    def inverse(self) -> "PuiseuxSeries":
        """Multiplicative inverse up to the available truncation.

        With leading term c*q^m and bound t, the result has leading term
        (1/c)*q^-m and bound t - 2m (the standard recursive coefficient
        formula consumes one copy of the unit part's precision).
        """
        if not self.terms:
            raise ZeroDivisionError("inverse of the zero series")
        m, c0, den, nonzero, nout = self._unit_dense()
        v = [ZERO] * nout
        v[0] = ONE
        for k in range(1, nout):
            acc = ZERO
            for off, u in nonzero:
                if off > k:
                    break
                acc = acc + u * v[k - off]
            if acc:
                v[k] = -acc
        inv0 = c0.inverse()
        out = {}
        for k in range(nout):
            if v[k]:
                out[Fraction(k, den) - m] = v[k] * inv0
        return PuiseuxSeries(out, self.trunc - 2 * m)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            return self.scale(_coeff(other).inverse())
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self * other.inverse()

    def nth_root(self, n: int) -> "PuiseuxSeries":
        """n-th root of a series with leading coefficient exactly 1.

        Coefficients come from the power recurrence for u**(1/n) on the
        normalized unit part (k*p_k = sum ((1/n+1)j - k) u_j p_{k-j});
        the leading exponent m becomes m/n.
        """
        if n < 1:
            raise ValueError("root index must be a positive integer")
        lead = self.leading()
        if lead is None or lead[1] != ONE:
            raise LeadingCoefficientError(
                "nth_root needs leading coefficient exactly 1"
                + ("" if lead else " (zero series)")
            )
        if n == 1:
            return self
        m, _, den, nonzero, nout = self._unit_dense()
        alpha = Fraction(1, n)
        p = [ZERO] * nout
        p[0] = ONE
        for k in range(1, nout):
            acc = ZERO
            for off, u in nonzero:
                if off > k:
                    break
                acc = acc + ((alpha + 1) * off - k) * u * p[k - off]
            if acc:
                p[k] = acc * Fraction(1, k)
        shift = m / n
        out = {}
        for k in range(nout):
            if p[k]:
                out[Fraction(k, den) + shift] = p[k]
        return PuiseuxSeries(out, (self.trunc - m) + shift)

    # -- substitution and comparison ----------------------------------------

    def substitute(self, r) -> "PuiseuxSeries":
        """q -> q**r: every exponent and the bound scale by r (> 0)."""
        r = _fr(r)
        if r <= 0:
            raise ValueError("substitution exponent must be positive")
        return PuiseuxSeries(
            {e * r: c for e, c in self.terms.items()}, self.trunc * r
        )

    def truncated(self, order) -> "PuiseuxSeries":
        order = _fr(order)
        if order > self.trunc:
            raise InsufficientPrecisionError(
                f"cannot extend truncation {self.trunc} to {order}"
            )
        return PuiseuxSeries({e: c for e, c in self.terms.items() if e < order}, order)

    def first_mismatch(self, other, order) -> Optional[Mismatch]:
        """Smallest exponent below `order` where the series differ.

        Returns None when all coefficients below `order` agree exactly;
        raises InsufficientPrecisionError if either bound is too small.
        """
        order = _fr(order)
        short = min(self.trunc, other.trunc)
        if short < order:
            raise InsufficientPrecisionError(
                f"comparison to order {order} needs more terms "
                f"(guaranteed only below {short})"
            )
        exps = set(self.terms) | set(other.terms)
        for e in sorted(exps):
            if e >= order:
                break
            a = self.terms.get(e, ZERO)
            b = other.terms.get(e, ZERO)
            if a != b:
                return Mismatch(e, a, b)
        return None

    def equal_to_order(self, other, order) -> bool:
        return self.first_mismatch(other, order) is None

    # -- numerics and output --------------------------------------------------

    def evaluate(self, q: float) -> float:
        """Numeric value of the truncated series at a float q > 0."""
        return math.fsum(float(c) * q ** float(e) for e, c in self.items())

    def dump(self) -> str:
        """One line per term: ``exponent<TAB>a+b*sqrt2``, ascending."""
        return "\n".join(f"{e}\t{c.render()}" for e, c in self.items())

    def __repr__(self):
        parts = []
        for e, c in self.items()[:6]:
            parts.append(f"({c.render()})*q^{e}")
        if len(self.terms) > 6:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        return f"<PuiseuxSeries {body} + O(q^{self.trunc})>"

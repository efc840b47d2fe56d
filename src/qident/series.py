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

Dense work (products, the power recurrence, the block builders) runs on
the grid form of a series: with least exponent m, slot k of an integer
array holds the coefficient of ``q**(m + k/den)``, where 1/den is the
coarsest grid of the offsets e - m.  :meth:`PuiseuxSeries._grid`,
:meth:`PuiseuxSeries._slots` and :meth:`PuiseuxSeries.from_slots` are
the only code that converts between the two forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple, Optional

from . import backend
from .field import ONE, ZERO, AlgebraicNumber

# No dense coefficient array built from an order and an exponent grid
# (block expansions, products, inverse and root recurrences) may be longer
# than this,
MAX_DENSE_SLOTS = 1_000_000
# nor may the loop that fills it take more inner steps (slot updates): the
# slot cap bounds memory, this bounds time.  A product past either budget
# multiplies term by term instead.
MAX_SLOT_STEPS = 20_000_000
# A step of a term-by-term loop (a Fraction exponent and a Q(sqrt2) value
# per term, kept in a dict) counts as this many of those steps: on a 2-core
# x86-64 machine under CPython 3.11 it took 23-33 us, a dense slot step
# 45-90 ns.
TERM_STEP_WEIGHT = 256


class InsufficientPrecisionError(Exception):
    """More coefficients were requested than the truncation guarantees."""


class LeadingCoefficientError(ValueError):
    """A power that is not an integer (a root, say) requires a leading
    coefficient of exactly 1."""


class SlotBudgetError(ValueError):
    """A dense coefficient array would exceed :data:`MAX_DENSE_SLOTS`, or
    filling it (or a term-by-term loop) would take more than
    :data:`MAX_SLOT_STEPS` steps."""


def dense_slots(span, steps=None) -> int:
    """ceil(span) slots, checked against the budgets before any allocation.

    `steps`, if given, maps the slot count to the number of inner-loop
    steps that fill the array, which must not exceed MAX_SLOT_STEPS.
    """
    n = math.ceil(span)
    if n > MAX_DENSE_SLOTS:
        raise SlotBudgetError(
            f"expansion needs {n} dense coefficient slots, more than the "
            f"limit of {MAX_DENSE_SLOTS}; lower the order or the exponent "
            "denominators"
        )
    if steps is not None:
        check_steps(steps(n), f"expansion over {n} dense coefficient slots")
    return n


def check_steps(work, what) -> None:
    """Refuse a loop of `work` inner steps past MAX_SLOT_STEPS.

    `what` names the loop in the message; callers count `work` in closed
    form, before the loop runs or allocates anything.
    """
    if work > MAX_SLOT_STEPS:
        raise SlotBudgetError(
            f"{what} needs {work} steps, more than the limit of "
            f"{MAX_SLOT_STEPS}; lower the order or the exponent denominators"
        )


class Mismatch(NamedTuple):
    exponent: Fraction
    lhs: AlgebraicNumber
    rhs: AlgebraicNumber


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _coeff(c) -> AlgebraicNumber:
    return c if isinstance(c, AlgebraicNumber) else AlgebraicNumber(c)


def _lowest(a, b, n):
    """(a + b*sqrt2) / n in lowest terms, n > 0."""
    g = math.gcd(a, b, n) if n > 0 else -math.gcd(a, b, n)
    return a // g, b // g, n // g


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
    def from_slots(cls, start, den, rat, irr, trunc, d=1, scale=1):
        """The series with slot k of the integer arrays at q^(start + k/den).

        Slot k holds (rat[k] + irr[k]*sqrt2) / (d * scale**k); `irr` may be
        None for an all-rational series, and zero slots are skipped.  Every
        slot must lie below `trunc`: a caller sizes its arrays by the
        bound, ceil((trunc - start) * den) slots at most.
        """
        start = _fr(start)
        e, step = start.numerator * den, start.denominator
        grid = step * den
        terms = {}
        for r, i in zip(rat, irr if irr is not None else repeat(0)):
            if r or i:
                terms[Fraction(e, grid)] = (
                    AlgebraicNumber(r, i) if d == 1
                    else AlgebraicNumber(Fraction(r, d), Fraction(i, d)))
            e += step
            d *= scale
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "trunc", _fr(trunc))
        return out

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

    def _grid(self) -> tuple[Fraction, int]:
        """(m, den): the least exponent m, and the coarsest grid 1/den that
        holds every offset e - m."""
        m = self._least()
        big = math.lcm(*(e.denominator for e in self.terms))
        base = m.numerator * (big // m.denominator)
        g = big
        for e in self.terms:
            g = math.gcd(g, e.numerator * (big // e.denominator) - base)
        return m, big // g

    def _slots(self, den, nout):
        """(rat, irr or None, d): the terms as integer arrays on the grid
        q^(m + k/den), m the least exponent.

        Slot k holds (rat[k] + irr[k]*sqrt2) / d, d the lcm of the kept
        coefficients' denominators; terms at slot nout or later are
        dropped, the arrays end at the last nonzero slot, and `irr` is None
        when every irrational part is 0.
        """
        m = self._least()
        mn, md = m.numerator, m.denominator
        d = 1
        kept = []
        for e, c in self.terms.items():
            k = (e.numerator * md - mn * e.denominator) * den // (e.denominator * md)
            if k < nout:
                kept.append((k, c.rat, c.irr))
                d = math.lcm(d, c.rat.denominator, c.irr.denominator)
        n = max(k for k, _, _ in kept) + 1 if kept else 0
        rat = [0] * n
        irr = [0] * n
        for k, r, i in kept:
            rat[k] = r.numerator * (d // r.denominator)
            irr[k] = i.numerator * (d // i.denominator)
        return rat, irr if any(irr) else None, d

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
        dense = self._mul_dense(other, trunc)
        return dense if dense is not None else self._mul_sparse(other, trunc)

    __rmul__ = __mul__

    def _mul_sparse(self, other, trunc):
        """Term-by-term product: the fallback past the dense budgets.

        Its len(self) * len(other) term pairs count against the step
        budget, TERM_STEP_WEIGHT steps each.
        """
        small, large = self, other
        if len(small.terms) > len(large.terms):
            small, large = large, small
        pairs = len(small.terms) * len(large.terms)
        check_steps(TERM_STEP_WEIGHT * pairs,
                    f"term-by-term product of {pairs} term pairs")
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
        """Convolution of the two slot arrays on their common offset grid.

        Returns None, and the caller multiplies term by term, when the
        product needs more than MAX_DENSE_SLOTS slots or its kernel more
        than MAX_SLOT_STEPS inner steps: the sum over the nonzero slots i
        of the first array of min(len(second), nout - i), taken before the
        kernel runs.
        """
        m1, den1 = self._grid()
        m2, den2 = other._grid()
        den = math.lcm(den1, den2)
        nout = math.ceil((trunc - m1 - m2) * den)
        if nout > MAX_DENSE_SLOTS:
            return None
        ra, ia, d1 = self._slots(den, nout)
        rb, ib, d2 = other._slots(den, nout)
        nb = len(rb)
        steps = sum(min(nb, nout - i)
                    for i, x in enumerate(ra) if x or ia and ia[i])
        if steps > MAX_SLOT_STEPS:
            return None
        if ia is None and ib is None:
            rc, ic = backend.convolve_rational(ra, rb, nout), None
        else:
            rc, ic = backend.convolve(ra, ia or [0] * len(ra),
                                      rb, ib or [0] * nb, nout)
        return PuiseuxSeries.from_slots(m1 + m2, den, rc, ic, trunc, d1 * d2)

    def __pow__(self, r):
        """self ** r for an int or Fraction r: the power recurrence of
        :meth:`_power`, which needs a leading coefficient of exactly 1 when
        r is not an integer.  Any series to the power 0 is 1."""
        if not isinstance(r, (int, Fraction)):
            return NotImplemented
        if r == 0:
            return PuiseuxSeries.one(self.trunc)
        return self._power(r.numerator, r.denominator)

    # -- inversion, roots and rational powers ------------------------------

    def _unit_dense(self, extra):
        """Leading-term data plus the unit part as scaled Z[sqrt2] pairs.

        Writes the series as c0 * q**m * u with u = 1 + sum u_j t**j on the
        grid t = q**(1/den) of :meth:`_grid`.  From the slot arrays of
        :meth:`_slots`, c_j = (r_j + i_j*sqrt2) / d, so with the integer
        norm N = r_0**2 - 2*i_0**2, u_j = c_j / c_0 = (a_j + b_j*sqrt2) / N
        for a_j = r_j r_0 - 2 i_j i_0 and b_j = i_j r_0 - r_j i_0, and
        den(u_j) = |N| / gcd(a_j, b_j, N) (den of a Q(sqrt2) value: the lcm
        of its two parts' denominators).  It then picks an integer L with
        den(u_j) | L**j for every j.  Each small prime p of
        D = lcm_j den(u_j) enters L as p**ceil(max_j v_p(den u_j) / j); the
        part of D free of the primes tried enters once, which is enough
        because every den(u_j) divides D.  (L = D would do too, but D**j
        outgrows the coefficients by far.)

        Returns (m, den, nout, scale, units) with scale = L * extra and
        units the tuples (j, r, i, 2*i) with r + i*sqrt2 = u_j * scale**j
        for the nonzero u_j, 0 < j < nout, ascending in j.

        The recurrence over the nout slots is checked against the budgets
        before its arrays are allocated: each of its inner steps counts as
        ceil(B / 64) steps (at least 1), B = (nout - 1) * log2(scale)
        bounding the bits of the largest scaled value, so a fine grid with
        a large scale is refused even when its plain step count is small.
        """
        m, den = self._grid()
        nout = dense_slots((self.trunc - m) * den)
        rat, irr, _ = self._slots(den, nout)
        irr = irr or [0] * len(rat)
        r0, i0 = rat[0], irr[0]
        norm = r0 * r0 - 2 * i0 * i0
        fracs = [(j, *_lowest(x * r0 - 2 * y * i0, y * r0 - x * i0, norm))
                 for j, (x, y) in enumerate(zip(rat, irr)) if j and (x or y)]
        lcm_den = math.lcm(*(d for *_, d in fracs))
        scale = extra
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if lcm_den % p:
                continue
            while lcm_den % p == 0:
                lcm_den //= p
            need = 0
            for j, _, _, d in fracs:
                v = 0
                while d % p == 0:
                    d //= p
                    v += 1
                need = max(need, -(-v // j))
            scale *= p**need
        scale *= lcm_den  # the cofactor free of the trial primes
        check_steps(max(1, math.ceil((nout - 1) * math.log2(scale) / 64))
                    * sum(nout - j for j, *_ in fracs),
                    f"expansion over {nout} dense coefficient slots")
        units = []
        for j, r, i, d in fracs:
            f = scale**j // d
            units.append((j, r * f, i * f, 2 * i * f))
        return m, den, nout, scale, units

    def _power(self, a: int, n: int) -> "PuiseuxSeries":
        """self ** (a/n), a/n in lowest terms with n >= 1, up to the
        available truncation.

        With leading term c*q^m and bound t the result has leading term
        c**(a/n) * q**(a*m/n) and bound (t - m) + a*m/n: the unit part's
        precision carries over.  Unless n = 1, c must be exactly 1; a zero
        base has bound a*t for a > 0 and no power for a < 0.

        Coefficients come from the power recurrence for p = u**(a/n) on
        the normalized unit part, n*k*p_k = sum_j ((a+n)j - n*k) u_j
        p_{k-j}, run on integer pairs.  With the scale L of
        :meth:`_unit_dense` and U_j = u_j (L n**2)**j in Z[sqrt2], the
        values P_k = p_k (L n**2)**k satisfy
        n*k*P_k = sum_j ((a+n)j - n*k) U_j P_{k-j}.  They lie in Z[sqrt2]:
        p_k = sum_i binom(a/n, i) [t**k](u - 1)**i over i <= k, each product
        of i unit coefficients u_{j_1}...u_{j_i} with j_1 + ... + j_i = k
        times L**k is a product of U's, and n**(2k) binom(a/n, i) =
        n**(2(k-i)) * n**(2i) binom(a/n, i) is an integer: n**(2i)
        binom(a/n, i) = n**i prod_{l<i} (a - l*n) / i!, and for p not
        dividing n the i factors a - l*n form a progression with a step
        prime to p, so they hold every p of i!, while for p | n,
        v_p(i!) < i.  So the division by n*k is exact, and a remainder
        raises ArithmeticError.  At a/n = -1 the sum has no j-weighted
        part and the recurrence is P_k = -sum_j U_j P_{k-j}.  Each
        coefficient becomes a field element once, at the end.
        """
        lead = self.leading()
        if lead is None and n == 1:
            if a < 0:
                raise ZeroDivisionError("negative power of the zero series")
            return PuiseuxSeries.zero(a * self.trunc)
        if lead is None or n > 1 and lead[1] != ONE:
            raise LeadingCoefficientError(
                f"power {a}/{n} needs leading coefficient exactly 1"
                + ("" if lead else " (zero series)")
            )
        m, den, nout, scale, units = self._unit_dense(n * n)
        pr = [0] * nout
        pi = [0] * nout
        pr[0] = 1
        an = a + n
        live = 0
        for k in range(1, nout):
            while live < len(units) and units[live][0] <= k:
                live += 1
            r = i = 0
            if an:
                nk = n * k
                for j, ur, ui, ui2 in units[:live]:
                    c = an * j - nk
                    x = pr[k - j]
                    y = pi[k - j]
                    r += c * (ur * x + ui2 * y)
                    i += c * (ur * y + ui * x)
                pr[k], rem_r = divmod(r, nk)
                pi[k], rem_i = divmod(i, nk)
                if rem_r or rem_i:
                    raise ArithmeticError(
                        f"power recurrence: slot {k} is not divisible by {nk}"
                    )
            else:
                for j, ur, ui, ui2 in units[:live]:
                    x = pr[k - j]
                    y = pi[k - j]
                    r += ur * x + ui2 * y
                    i += ur * y + ui * x
                pr[k] = -r
                pi[k] = -i
        c = lead[1] ** a  # c0**a as (x + y*sqrt2) / d
        d = math.lcm(c.rat.denominator, c.irr.denominator)
        x = c.rat.numerator * (d // c.rat.denominator)
        y = c.irr.numerator * (d // c.irr.denominator)
        if (x, y) != (1, 0):
            pr, pi = ([r * x + 2 * i * y for r, i in zip(pr, pi)],
                      [r * y + i * x for r, i in zip(pr, pi)])
        shift = m * a / n
        return PuiseuxSeries.from_slots(shift, den, pr, pi,
                                        (self.trunc - m) + shift, d, scale)

    def inverse(self) -> "PuiseuxSeries":
        """Multiplicative inverse up to the available truncation.

        With leading term c*q^m and bound t, the result has leading term
        (1/c)*q^-m and bound t - 2m (the recurrence consumes one copy of
        the unit part's precision); see :meth:`_power`.
        """
        return self._power(-1, 1)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            return self.scale(_coeff(other).inverse())
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self * other.inverse()

    def nth_root(self, n: int) -> "PuiseuxSeries":
        """n-th root of a series with leading coefficient exactly 1; the
        leading exponent m becomes m/n.  See :meth:`_power`."""
        if n < 1:
            raise ValueError("root index must be a positive integer")
        return self._power(1, n)

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

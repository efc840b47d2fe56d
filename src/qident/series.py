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

# Products convolve on the common 1/lcm exponent grid; past this many grid
# slots (widely differing exponent denominators) they multiply term by term.
_DENSE_SLOT_CAP = 500_000
# No dense coefficient array built from an order and an exponent grid
# (block expansions, inverse and root recurrences) may be longer than this,
MAX_DENSE_SLOTS = 1_000_000
# nor may the loop that fills it take more inner steps (slot updates): the
# slot cap bounds memory, this bounds time.
MAX_SLOT_STEPS = 20_000_000
# A step of a term-by-term loop (a Fraction exponent and a Q(sqrt2) value
# per term, kept in a dict) counts as this many of those steps: on a 2-core
# x86-64 machine under CPython 3.11 it took 23-33 us, a dense slot step
# 45-90 ns.
TERM_STEP_WEIGHT = 256


class InsufficientPrecisionError(Exception):
    """More coefficients were requested than the truncation guarantees."""


class LeadingCoefficientError(ValueError):
    """A power other than a negative integer (a root, say) requires a
    leading coefficient of exactly 1."""


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
        dense = self._mul_dense(other, trunc)
        return dense if dense is not None else self._mul_sparse(other, trunc)

    __rmul__ = __mul__

    def _mul_sparse(self, other, trunc):
        """Term-by-term product: the fallback past the dense slot cap.

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

    def __pow__(self, r):
        """self ** r for an int or Fraction r.

        Positive integer powers square repeatedly (each product keeps the
        term-by-term fallback past the dense slot cap); every other power
        runs the recurrence of :meth:`_power`, which needs a leading
        coefficient of exactly 1 when r is not an integer.
        """
        if not isinstance(r, (int, Fraction)):
            return NotImplemented
        if r.denominator != 1 or r < 0:
            return self._power(r.numerator, r.denominator)
        n = int(r)
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

    # -- inversion, roots and rational powers ------------------------------

    def _unit_dense(self, extra):
        """Leading-term data plus the unit part as scaled Z[sqrt2] pairs.

        Writes the series as c0 * q**m * u with u = 1 + sum u_j t**j on the
        grid t = q**(1/den), and picks an integer L with den(u_j) | L**j for
        every j (den of a Q(sqrt2) value: the lcm of its two parts'
        denominators).  Each small prime p of D = lcm_j den(u_j) enters L as
        p**ceil(max_j v_p(den u_j) / j); the part of D free of the primes
        tried enters once, which is enough because every den(u_j) divides D.
        (L = D would do too, but D**j outgrows the coefficients by far.)

        Returns (m, den, nout, scale, units, inv) with scale = L * extra,
        units the tuples (j, r, i, 2*i) with r + i*sqrt2 = u_j * scale**j
        for the nonzero u_j, 0 < j < nout, ascending in j, and inv = (x, y,
        w) with 1/c0 = (x + y*sqrt2) / w.

        The recurrence over the nout slots is checked against the budgets
        before anything is allocated: each of its inner steps counts as
        ceil(B / 64) steps (at least 1), B = (nout - 1) * log2(scale)
        bounding the bits of the largest scaled value, so a fine grid with
        a large scale is refused even when its plain step count is small.
        """
        m, c0 = self.leading()
        den = 1
        for e in self.terms:
            den = math.lcm(den, (e - m).denominator)
        span = (self.trunc - m) * den
        nout = math.ceil(span)
        norm = c0.rat * c0.rat - 2 * c0.irr * c0.irr
        x, y = c0.rat / norm, -c0.irr / norm
        fracs = []
        lcm_den = 1
        for e, c in self.terms.items():
            j = int((e - m) * den)
            if 0 < j < nout:
                ur = c.rat * x + 2 * c.irr * y
                ui = c.rat * y + c.irr * x
                d = math.lcm(ur.denominator, ui.denominator)
                fracs.append((j, ur.numerator * (d // ur.denominator),
                              ui.numerator * (d // ui.denominator), d))
                lcm_den = math.lcm(lcm_den, d)
        fracs.sort()
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
        dense_slots(span, steps=lambda n: max(
            1, math.ceil((n - 1) * math.log2(scale) / 64)
        ) * sum(n - j for j, *_ in fracs))
        units = []
        for j, r, i, d in fracs:
            f = scale**j // d
            units.append((j, r * f, i * f, 2 * i * f))
        w = math.lcm(x.denominator, y.denominator)
        inv = (x.numerator * (w // x.denominator),
               y.numerator * (w // y.denominator), w)
        return m, den, nout, scale, units, inv

    def _power(self, a: int, n: int) -> "PuiseuxSeries":
        """self ** (a/n), a/n in lowest terms with n >= 1, up to the
        available truncation.

        With leading term c*q^m and bound t the result has leading term
        c**(a/n) * q**(a*m/n) and bound (t - m) + a*m/n: the unit part's
        precision carries over.  Unless a/n is a negative integer, c must
        be exactly 1.

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
        if lead is None and a < 0:
            raise ZeroDivisionError("negative power of the zero series")
        if lead is None or (a > 0 or n > 1) and lead[1] != ONE:
            raise LeadingCoefficientError(
                f"power {a}/{n} needs leading coefficient exactly 1"
                + ("" if lead else " (zero series)")
            )
        m, den, nout, scale, units, inv = self._unit_dense(n * n)
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
        ix, iy, iw = inv
        x, y, d = 1, 0, 1
        for _ in range(-a):  # c0**a = (x + y*sqrt2) / d; c0 = 1 unless a < 0
            x, y, d = x * ix + 2 * y * iy, x * iy + y * ix, d * iw
        shift = m * a / n
        out = {}
        for k in range(nout):
            r, i = pr[k], pi[k]
            if r or i:
                out[Fraction(k, den) + shift] = AlgebraicNumber(
                    Fraction(r * x + 2 * i * y, d), Fraction(r * y + i * x, d)
                )
            d *= scale
        return PuiseuxSeries(out, (self.trunc - m) + shift)

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

"""Truncated formal series in q with exact rational exponents.

A :class:`PuiseuxSeries` is finitely many terms ``c * q**e`` with rational
exponents and coefficients in Q(sqrt2), together with a truncation bound
``trunc``: the series is known exactly for every exponent strictly below
``trunc`` and unknown at or above it.  Exponents may be negative (the lower
bound is always finite) and exponent denominators are arbitrary.

A series keeps its terms on an integer grid, in one canonical form: the
least exponent ``m`` (a ``Fraction``; the bound for the zero series), the
grid ``den`` (slot k sits at ``q**(m + k/den)``), one common positive
denominator ``d``, and ``slots``, a dict from slot k to the integer pair
(r, i) of the coefficient (r + i*sqrt2)/d, ascending in k, with no zero
pair.  ``den`` is the coarsest such grid (the lcm of the denominators of
the offsets e - m) and ``d`` is reduced by the content gcd of every r and
i, so equal series have equal fields.  Every operation works on these
integers; :attr:`PuiseuxSeries.terms` and :meth:`PuiseuxSeries.items` are
a view in ``Fraction`` exponents and :class:`~qident.field.AlgebraicNumber`
coefficients, built on each access.

Truncation propagates pessimistically through arithmetic; comparisons
that would need unknown coefficients raise
:class:`InsufficientPrecisionError` instead of silently comparing fewer
terms.

Dense work (products, the power recurrence, the block builders) runs on
integer arrays: :meth:`PuiseuxSeries._slots` spreads the slots over an
array on a grid at least as fine, and :meth:`PuiseuxSeries.from_slots`
takes such arrays back into the canonical form.

A product takes one of two paths, after the same slot, step and word
checks (:meth:`PuiseuxSeries._mul_dense`): the packed kernel of
:mod:`qident.backend` on the slot arrays, or, when the operands have no
more nonzero term pairs than the kernel calls touch output slots, the
slot dicts term pair by term pair.  Both give the same canonical series.

A power takes one of two paths (:meth:`PuiseuxSeries.__pow__`).  Every
power -- inverses, roots, rational and integer powers -- is the power
recurrence :meth:`PuiseuxSeries._power`, O(slots x unit terms), except
that a small positive power (at most 8) with fewer products than unit
terms is a product: binary powering by series products, whose cost
does not grow with the unit terms.  So a dense base is squared in one
product, while ``(1 + q)**3``, ``eta**24`` and ``(1 + q)**(10**30)``
stay on the recurrence.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Optional

from . import backend
from .field import ONE, ZERO, AlgebraicNumber

# No dense coefficient array built from an order and an exponent grid
# (block expansions, products, the recurrences) may be longer than this,
# no packed integer of a product or a block fill and no recurrence's
# arrays (a power's or an exponent map's) may hold more 64-bit words, and
# a loop that collects terms in a dict (the theta sums, the 1psi1
# summands) may have no more terms in its closed-form bound,
MAX_DENSE_SLOTS = 1_000_000
# nor may the loop that fills an array take more inner steps (slot
# updates): the slot cap bounds memory, this bounds time.  Every loop past
# either budget stops with SlotBudgetError; none falls back to another path
# once refused (an exponent map whose fills would all pass the step cap
# takes its recurrence instead before any fill, see blocks.expand_map).
MAX_SLOT_STEPS = 20_000_000


class InsufficientPrecisionError(Exception):
    """More coefficients were requested than the truncation guarantees."""


class LeadingCoefficientError(ValueError):
    """A power that is not an integer (a root, say) requires a leading
    coefficient of exactly 1."""


class SlotBudgetError(ValueError):
    """A dense coefficient array (or a term dict of a theta sum) would exceed
    :data:`MAX_DENSE_SLOTS` slots (or, packed into one integer or held by
    a recurrence, 64-bit words), or filling it would take more than
    :data:`MAX_SLOT_STEPS` steps."""


def dense_slots(span) -> int:
    """ceil(span) slots, checked against MAX_DENSE_SLOTS before allocation."""
    n = math.ceil(span)
    if n > MAX_DENSE_SLOTS:
        raise SlotBudgetError(
            f"expansion needs {n} dense coefficient slots, more than the "
            f"limit of {MAX_DENSE_SLOTS}; lower the order or the exponent "
            "denominators"
        )
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


def power_steps(slots, scale, steps) -> int:
    """The charge of `steps` inner steps of the power recurrence over
    `slots` slots whose values carry the factor `scale` a slot: each step
    counts ceil(B / 64) steps (at least 1), B = (slots - 1) * log2(scale)
    the bits the scale alone gives the last value, so a fine grid with a
    large scale is refused even when its plain step count is small."""
    return max(1, math.ceil((slots - 1) * math.log2(scale) / 64)) * steps


def check_words(words, what) -> None:
    """Refuse integers of `words` 64-bit words in all past MAX_DENSE_SLOTS,
    as many as the slot cap allows values of one word.

    A packed product or fill pads every slot to its widest value, so its
    memory follows words, not slots; callers count `words` before the
    integers are built, except the power recurrence and the
    log-derivative recurrence, which tally them as they run.
    """
    if words > MAX_DENSE_SLOTS:
        raise SlotBudgetError(
            f"{what} holds {words} 64-bit words, more than the limit of "
            f"{MAX_DENSE_SLOTS}; lower the order or the coefficient sizes"
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


def _pair(c: AlgebraicNumber) -> tuple[int, int, int]:
    """(x, y, e) with c = (x + y*sqrt2) / e, e > 0 the lcm of the parts'
    denominators."""
    rat, irr = c.rat, c.irr
    e = math.lcm(rat.denominator, irr.denominator)
    return (rat.numerator * (e // rat.denominator),
            irr.numerator * (e // irr.denominator), e)


def _number(r: int, i: int, d: int) -> AlgebraicNumber:
    """(r + i*sqrt2) / d as a field element."""
    return AlgebraicNumber(Fraction(r, d), Fraction(i, d))


def _bits(s) -> int:
    """The bit length of the largest part of any slot of s."""
    return max(map(abs, chain.from_iterable(s.slots.values()))).bit_length()


def _has_sqrt2(s) -> bool:
    """Whether any slot of s has a nonzero sqrt2 part."""
    return any(i for _, i in s.slots.values())


def _common_grid(a, b) -> tuple[Fraction, int]:
    """(m, den): the least exponent of a and b, and the coarsest grid 1/den
    on which every term of both sits at q^(m + k/den).  A zero series has
    no terms and adds nothing."""
    if not a.slots:
        return b.m, b.den
    if not b.slots:
        return a.m, a.den
    return min(a.m, b.m), math.lcm(a.den, b.den, (a.m - b.m).denominator)


def _init(obj, m, den, d, slots, trunc) -> None:
    set_ = object.__setattr__
    set_(obj, "m", m)
    set_(obj, "den", den)
    set_(obj, "d", d)
    set_(obj, "slots", slots)
    set_(obj, "trunc", trunc)


class PuiseuxSeries:
    """Finitely many exact terms on an integer grid, plus a truncation bound.

    The fields are the canonical form of the module docstring: the term
    (r + i*sqrt2)/d * q^(m + k/den) for each k -> (r, i) of ``slots``.
    """

    __slots__ = ("m", "den", "d", "slots", "trunc")

    def __init__(self, terms, trunc):
        """The series of a dict exponent -> coefficient (int, Fraction or
        AlgebraicNumber); terms at or above `trunc` and zero coefficients
        are dropped."""
        trunc = _fr(trunc)
        kept = []
        for e, c in terms.items():
            e, c = _fr(e), _coeff(c)
            if e < trunc and c:
                kept.append((e, c))
        if not kept:
            _init(self, trunc, 1, 1, {}, trunc)
            return
        kept.sort(key=lambda t: t[0])
        m = kept[0][0]
        den = math.lcm(*((e - m).denominator for e, _ in kept))
        d = math.lcm(*(x.denominator for _, c in kept for x in (c.rat, c.irr)))
        _init(self, m, den, d,
              {int((e - m) * den): (int(c.rat * d), int(c.irr * d))
               for e, c in kept},
              trunc)

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def _make(cls, m, den, d, slots, trunc) -> "PuiseuxSeries":
        # fields already in canonical form
        out = object.__new__(cls)
        _init(out, m, den, d, slots, trunc)
        return out

    @classmethod
    def _reduced(cls, m, den, d, slots, trunc) -> "PuiseuxSeries":
        """The canonical form of the terms (r + i*sqrt2)/d at q^(m + k/den),
        for `slots` ascending in k with no zero pair: the least slot moves
        to 0, the grid coarsens and d drops the content gcd."""
        if not slots:
            return cls.zero(trunc)
        k0 = next(iter(slots))
        if k0:
            m += Fraction(k0, den)
            slots = {k - k0: v for k, v in slots.items()}
        g = math.gcd(den, *slots)
        if g > 1:
            den //= g
            slots = {k // g: v for k, v in slots.items()}
        if d > 1:
            g = math.gcd(d, *chain.from_iterable(slots.values()))
            if g > 1:
                d //= g
                slots = {k: (r // g, i // g) for k, (r, i) in slots.items()}
        return cls._make(m, den, d, slots, trunc)

    @classmethod
    def zero(cls, trunc) -> "PuiseuxSeries":
        trunc = _fr(trunc)
        return cls._make(trunc, 1, 1, {}, trunc)

    @classmethod
    def one(cls, trunc) -> "PuiseuxSeries":
        return cls.monomial(ONE, 0, trunc)

    @classmethod
    def from_slots(cls, start, den, rat, irr, trunc, d=1, scale=1):
        """The series with slot k of the integer arrays at q^(start + k/den).

        Slot k holds (rat[k] + irr[k]*sqrt2) / (d * scale**k); `irr` may be
        None for an all-rational series, and zero slots are skipped.  Every
        slot must lie below `trunc`: a caller sizes its arrays by the
        bound, ceil((trunc - start) * den) slots at most.  The integers are
        kept as they are; a `scale` other than 1 is multiplied out once,
        from the top nonzero slot down, into one common denominator.
        """
        if irr is None:
            slots = {k: (r, 0) for k, r in enumerate(rat) if r}
        else:
            slots = {k: v for k, v in enumerate(zip(rat, irr)) if v[0] or v[1]}
        if slots and scale != 1:
            top = next(reversed(slots))
            power = [1] * (top + 1)  # power[j] = scale**j
            for j in range(1, top + 1):
                power[j] = power[j - 1] * scale
            slots = {k: (r * power[top - k], i * power[top - k])
                     for k, (r, i) in slots.items()}
            d *= power[top]
        return cls._reduced(_fr(start), den, d, slots, _fr(trunc))

    @classmethod
    def monomial(cls, coeff, exponent, trunc) -> "PuiseuxSeries":
        coeff, exponent, trunc = _coeff(coeff), _fr(exponent), _fr(trunc)
        if not coeff:
            return cls.zero(trunc)
        if trunc <= exponent:
            raise ValueError(
                f"monomial exponent {exponent} not below truncation {trunc}"
            )
        x, y, e = _pair(coeff)
        return cls._make(exponent, 1, e, {0: (x, y)}, trunc)

    # -- basic queries ---------------------------------------------------

    def _slots(self, den, nout):
        """(rat, irr or None, d): the slots as integer arrays on the finer
        grid q^(m + k/den), den a multiple of the series' grid.

        Slot k holds (rat[k] + irr[k]*sqrt2) / d; slots at nout or later
        are dropped, the arrays end at the last nonzero slot, and `irr` is
        None when every irrational part is 0.  d is the common denominator
        of the kept slots, so the lcm of their coefficients' denominators.
        """
        s = self._kept(den, nout)
        if not s.slots:
            return [], None, 1
        slots, d, f = s.slots, s.d, den // s.den
        n = next(reversed(slots)) * f + 1
        rat = [0] * n
        irr = [0] * n
        for k, (r, i) in slots.items():
            rat[k * f] = r
            irr[k * f] = i
        return rat, irr if any(irr) else None, d

    def _kept(self, den, nout):
        """The series without its slots at nout or later on the finer grid
        q^(m + k/den)."""
        if self.slots and next(reversed(self.slots)) * (den // self.den) >= nout:
            return self.truncated(self.m + Fraction(nout, den))
        return self

    def _on_grid(self, m, den, d, n):
        """The slots moved to the grid q^(m + k/den) with common denominator
        d (multiples of the series' own), those at n or later dropped."""
        slots = self.slots
        if not slots:
            return slots
        f = den // self.den
        off = int((self.m - m) * den)
        s = d // self.d
        if f == 1 and not off and s == 1 and next(reversed(slots)) < n:
            return slots
        lim = n - off
        if s == 1:
            return {off + k * f: v for k, v in slots.items() if k * f < lim}
        return {off + k * f: (r * s, i * s)
                for k, (r, i) in slots.items() if k * f < lim}

    def leading(self) -> Optional[tuple[Fraction, AlgebraicNumber]]:
        if not self.slots:
            return None
        return self.m, _number(*self.slots[0], self.d)

    def coefficient(self, exponent) -> AlgebraicNumber:
        e = _fr(exponent)
        if e >= self.trunc:
            raise InsufficientPrecisionError(
                f"coefficient of q^{e} unknown (truncation {self.trunc})"
            )
        if self.slots:
            k = (e - self.m) * self.den
            v = self.slots.get(k.numerator) if k.denominator == 1 else None
            if v is not None:
                return _number(*v, self.d)
        return ZERO

    def items(self) -> list[tuple[Fraction, AlgebraicNumber]]:
        """The terms as (exponent, coefficient) pairs, ascending."""
        m, den, d = self.m, self.den, self.d
        return [(m + Fraction(k, den), _number(r, i, d))
                for k, (r, i) in self.slots.items()]

    @property
    def terms(self) -> dict[Fraction, AlgebraicNumber]:
        """The terms as a dict exponent -> coefficient, built on each
        access."""
        return dict(self.items())

    def __bool__(self):
        return bool(self.slots)

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (self.trunc == other.trunc and self.m == other.m
                and self.den == other.den and self.d == other.d
                and self.slots == other.slots)

    def __hash__(self):
        return hash((self.trunc, self.m, self.den, self.d,
                     tuple(self.slots.items())))

    # -- additive structure ---------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        if not other.slots:
            return self.truncated(trunc)
        if not self.slots:
            return other.truncated(trunc)
        m, den = _common_grid(self, other)
        d = math.lcm(self.d, other.d)
        n = math.ceil((trunc - m) * den)
        acc = dict(self._on_grid(m, den, d, n))
        for k, (r, i) in other._on_grid(m, den, d, n).items():
            cur = acc.get(k)
            acc[k] = (r, i) if cur is None else (cur[0] + r, cur[1] + i)
        return PuiseuxSeries._reduced(
            m, den, d, {k: v for k, v in sorted(acc.items()) if v[0] or v[1]},
            trunc)

    def __neg__(self):
        return PuiseuxSeries._make(
            self.m, self.den, self.d,
            {k: (-r, -i) for k, (r, i) in self.slots.items()}, self.trunc)

    def __sub__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "PuiseuxSeries":
        c = _coeff(c)
        if not c:
            return PuiseuxSeries.zero(self.trunc)
        x, y, e = _pair(c)
        if (x, y, e) == (1, 0, 1) or not self.slots:
            return self
        # a nonzero product in Q(sqrt2) stays nonzero, so no slot vanishes
        return PuiseuxSeries._reduced(
            self.m, self.den, self.d * e,
            {k: (r * x + 2 * i * y, r * y + i * x)
             for k, (r, i) in self.slots.items()},
            self.trunc)

    def shift(self, delta) -> "PuiseuxSeries":
        """Exact multiplication by the monomial ``q**delta``.

        Unlike series multiplication this loses no precision: a monomial
        is known at every exponent, so the bound moves with the terms.
        """
        delta = _fr(delta)
        return PuiseuxSeries._make(self.m + delta, self.den, self.d, self.slots,
                                   self.trunc + delta)

    # -- multiplication ----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            return self.scale(other)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        m1, m2 = self.m, other.m
        trunc = min(self.trunc + m2, other.trunc + m1)
        if not self.slots or not other.slots:
            return PuiseuxSeries.zero(trunc)
        return self._mul_dense(other, trunc)

    __rmul__ = __mul__

    def _mul_dense(self, other, trunc):
        """The product on the two operands' common offset grid, by
        :meth:`_mul_terms` when they have few term pairs, else by
        :meth:`_mul_packed`.

        Raises SlotBudgetError, before either path runs, when the product
        needs more than MAX_DENSE_SLOTS slots, more than MAX_SLOT_STEPS
        inner steps (the sum over the nonzero slots i of the first array
        of min(len(second), nout - i)) or a packed integer of more than
        MAX_DENSE_SLOTS 64-bit words (the kernel's product: both arrays'
        slots at :func:`~qident.backend.product_bytes` each).  The
        lengths and bit sizes come from the slot dicts.  So the path
        taken changes no admission: the term path is only the cheaper
        route for a product the checks let through.

        Each kernel call of the packed path touches every one of its nout
        output slots in Python at least once, and the term path each
        nonzero pair once, so the term path is taken when the pairs are
        at most the packed path's calls times nout: 1 call for two
        rational operands, 2 when one has a sqrt2 part and 3 when both
        do.  Past 3 * nout pairs no operand is scanned for sqrt2 parts.
        """
        den = math.lcm(self.den, other.den)
        m1, m2 = self.m, other.m
        nout = dense_slots((trunc - m1 - m2) * den)
        a = self._kept(den, nout)
        b = other._kept(den, nout)
        f1 = den // a.den
        na = next(reversed(a.slots)) * f1 + 1
        nb = next(reversed(b.slots)) * (den // b.den) + 1
        what = f"product over {nout} dense coefficient slots"
        # slots k with k*f1 <= nout - nb meet all nb slots, the rest fewer
        keys = list(a.slots)
        cut = bisect.bisect_right(keys, (nout - nb) // f1)
        check_steps(cut * nb + (len(keys) - cut) * nout - f1 * sum(keys[cut:]),
                    what)
        # one bit more for the sums A + A' of a three-call product
        w = backend.product_bytes(_bits(a) + 1, _bits(b) + 1, min(na, nb))
        check_words(-(-(na + nb - 1) * w // 8), what)
        pairs = len(a.slots) * len(b.slots)
        if pairs <= 3 * nout and (
                pairs <= (1 + _has_sqrt2(a) + _has_sqrt2(b)) * nout):
            return a._mul_terms(b, den, nout, trunc)
        return a._mul_packed(b, den, nout, trunc)

    def _mul_terms(self, other, den, nout, trunc):
        """The product of two series without slots at nout or later on
        the grid q^(m + k/den), term pair by term pair: each slot of self
        meets the slots of `other` up to the first whose sum with it
        reaches nout."""
        f1, f2 = den // self.den, den // other.den
        right = [(j * f2, r, i) for j, (r, i) in other.slots.items()]
        acc = {}
        get = acc.get
        for k, (r1, i1) in self.slots.items():
            k *= f1
            for j, r2, i2 in right:
                e = k + j
                if e >= nout:
                    break
                r = r1 * r2 + 2 * i1 * i2
                i = r1 * i2 + i1 * r2
                cur = get(e)
                acc[e] = (r, i) if cur is None else (cur[0] + r, cur[1] + i)
        return PuiseuxSeries._reduced(
            self.m + other.m, den, self.d * other.d,
            {k: v for k, v in sorted(acc.items()) if v[0] or v[1]}, trunc)

    def _mul_packed(self, other, den, nout, trunc):
        """The product of two series without slots at nout or later on
        the grid q^(m + k/den), by convolution of their slot arrays.

        Every product is built from rational convolutions of the nonzero
        parts only: one when both factors are rational, two (AB and A'B
        or AB') when one is, and three when neither is, by
        (A + A'sqrt2)(B + B'sqrt2) = (AB + 2A'B')
        + ((A + A')(B + B') - AB - A'B')sqrt2.
        """
        ra, ia, d1 = self._slots(den, nout)
        rb, ib, d2 = other._slots(den, nout)
        conv = backend.convolve_rational
        rc, ic = conv(ra, rb, nout), None
        if ia is not None and ib is not None:
            ii = conv(ia, ib, nout)
            mixed = conv([x + y for x, y in zip(ra, ia)],
                         [x + y for x, y in zip(rb, ib)], nout)
            ic = [s - x - y for s, x, y in zip(mixed, rc, ii)]
            rc = [x + 2 * y for x, y in zip(rc, ii)]
        elif ia is not None or ib is not None:  # A'B or AB'
            ic = conv(ia or ra, ib or rb, nout)
        return PuiseuxSeries.from_slots(self.m + other.m, den, rc, ic, trunc,
                                        d1 * d2)

    def __pow__(self, r):
        """self ** r for an int or Fraction r.  Any series to the power 0
        is 1, and to the power 1 itself.

        A small positive power with fewer products than unit terms is a
        product: an integer 2 <= a <= 8 takes bit_length(a) + popcount(a)
        - 2 products by binary powering, and when that is fewer than the
        base's nonzero terms after its leading one, the powers are
        multiplied, each product under its own slot, step and word checks.
        The cap on a keeps the products' values small: the recurrence
        multiplies its wide values by unit terms only, while a product of
        values a times wider slows more than linearly
        (``eta(1)`` filled to q^2000 and raised to 1000 takes over ten
        times as long by products).  Every other power -- inverses, roots,
        other rationals, and integers with a sparse base or a large
        exponent -- is the power recurrence of :meth:`_power`, which needs
        a leading coefficient of exactly 1 when r is not an integer.
        """
        if not isinstance(r, (int, Fraction)):
            return NotImplemented
        if r == 0:
            return PuiseuxSeries.one(self.trunc)
        if r == 1:
            return self
        a = r.numerator
        if r.denominator == 1 and 1 < a <= 8 and (
                a.bit_length() + a.bit_count() - 2 < len(self.slots) - 1):
            out = self
            for bit in bin(a)[3:]:
                out = out * out
                if bit == "1":
                    out = out * self
            return out
        return self._power(a, r.denominator)

    # -- inversion, roots and rational powers ------------------------------

    def _unit_dense(self, extra):
        """Leading-term data plus the unit part as scaled Z[sqrt2] pairs.

        Writes the series as c0 * q**m * u with u = 1 + sum u_j t**j on the
        grid t = q**(1/den) of the series.  From the slot arrays of
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
        before its arrays are allocated, its steps charged by
        :func:`power_steps`.  Growth that comes from the exponent or the
        unit coefficients shows only as the values are made; :meth:`_power`
        weighs it as it runs.
        """
        m, den = self.m, self.den
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
        check_steps(power_steps(nout, scale, sum(nout - j for j, *_ in fracs)),
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

        The values also grow with |a| and with the unit coefficients:
        (1 + q)**(10**30) gains about 100 bits a slot, (1 + 10**100 q)**-1
        333.  So the loop keeps a running tally of the 64-bit words its
        arrays hold, and past MAX_DENSE_SLOTS words, as many as the slot
        cap allows one-word values, it stops with SlotBudgetError.
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
        what = f"expansion over {nout} dense coefficient slots"
        live = 0
        held = 1
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
            held += (pr[k].bit_length() + pi[k].bit_length() + 63) // 64
            check_words(held, what)
        x, y, d = _pair(lead[1] ** a)  # c0**a = (x + y*sqrt2) / d
        if (x, y) != (1, 0):
            pr, pi = ([r * x + 2 * i * y for r, i in zip(pr, pi)],
                      [r * y + i * x for r, i in zip(pr, pi)])
        shift = m * a / n
        return PuiseuxSeries.from_slots(shift, den, pr, pi,
                                        (self.trunc - m) + shift, d, scale)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            return self.scale(_coeff(other).inverse())
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self * other ** -1

    # -- substitution and comparison ----------------------------------------

    def substitute(self, r) -> "PuiseuxSeries":
        """q -> q**r: every exponent and the bound scale by r (> 0)."""
        r = _fr(r)
        if r <= 0:
            raise ValueError("substitution exponent must be positive")
        p = r.numerator
        # slot k moves from m + k/den to m*r + k*p / (den * r.denominator)
        return PuiseuxSeries._reduced(
            self.m * r, self.den * r.denominator, self.d,
            {k * p: v for k, v in self.slots.items()} if p > 1 else self.slots,
            self.trunc * r)

    def truncated(self, order) -> "PuiseuxSeries":
        order = _fr(order)
        if order > self.trunc:
            raise InsufficientPrecisionError(
                f"cannot extend truncation {self.trunc} to {order}"
            )
        if not self.slots:
            return PuiseuxSeries.zero(order)
        n = math.ceil((order - self.m) * self.den)
        if next(reversed(self.slots)) < n:
            return PuiseuxSeries._make(self.m, self.den, self.d, self.slots,
                                       order)
        return PuiseuxSeries._reduced(
            self.m, self.den, self.d,
            {k: v for k, v in self.slots.items() if k < n}, order)

    def first_mismatch(self, other, order) -> Optional[Mismatch]:
        """Smallest exponent below `order` where the series differ.

        Returns None when all coefficients below `order` agree exactly;
        raises InsufficientPrecisionError if either bound is too small.
        Both sides are compared as integer pairs over one grid and one
        common denominator.
        """
        order = _fr(order)
        short = min(self.trunc, other.trunc)
        if short < order:
            raise InsufficientPrecisionError(
                f"comparison to order {order} needs more terms "
                f"(guaranteed only below {short})"
            )
        m, den = _common_grid(self, other)
        d = math.lcm(self.d, other.d)
        n = math.ceil((order - m) * den)
        a = self._on_grid(m, den, d, n)
        b = other._on_grid(m, den, d, n)
        if a == b:
            return None
        none = (0, 0)
        for k in sorted(a.keys() | b.keys()):
            x = a.get(k, none)
            y = b.get(k, none)
            if x != y:
                return Mismatch(m + Fraction(k, den), _number(*x, d),
                                _number(*y, d))
        return None  # unreachable: the dicts differ at some slot

    # -- numerics and output --------------------------------------------------

    def evaluate(self, q: float) -> float:
        """Numeric value of the truncated series at a float q > 0."""
        return math.fsum(float(c) * q ** float(e) for e, c in self.items())

    def __repr__(self):
        parts = []
        for e, c in self.items()[:6]:
            parts.append(f"({c.render()})*q^{e}")
        if len(self.slots) > 6:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        return f"<PuiseuxSeries {body} + O(q^{self.trunc})>"

"""Named q-series building blocks.

Everything here produces a :class:`~qident.series.PuiseuxSeries` or the
Pochhammer families of one: products and quotients of q-Pochhammer
symbols, the two-variable theta function f as a bilateral sum, exact
sine-ratio tables, the normalized theta_1 specializations, and the
families of f (by the triple product), of eta, of G_2 and of the
continued-fraction product sides h and i.

Each DSL atom of :data:`qident.expr.PRIMITIVES` has one builder.  The
Pochhammer-family atoms (eta, poch, H, I, G2, and psi11rhs, whose
families come from :mod:`qident.lambert`) take their families from the
``*_families`` lists here, the rescaling q -> q^r already in the specs
(eta(1/2) is (q^(1/2); q^(1/2))_inf).  phi(r) and psi(r) are the theta
sums f(q^r, q^r) and f(q^r, q^3r), and :mod:`~qident.expr` folds the
atom f(spec) as its theta sum :func:`theta_sum`, taking its
triple-product families (:func:`theta_families`) only under a power
other than a positive integer.  G_1 and G_3 have no builder here: by
Jacobi's product for theta_1, G_k(q) (q; q)_inf is
:func:`theta1_normalized`, which :mod:`~qident.expr` folds at q^r beside
the map {(q^r; q^r)_inf: -1} of G_k(q^r).

Exponent maps.  :func:`expand_map` is the one place that decides how an
exponent map {PochSpec: power} -- a family atom's, or a tree's that
:mod:`~qident.expr` folds -- is expanded: by the :func:`fill` of each
plan :func:`_fills` picks, raised to its power, or by the recurrence on
its logarithmic derivative (:func:`_logd`, on the coefficients
:func:`_sieve` finds).  The whole theta products among a fill's positive
powers (:func:`_theta_groups`) enter by their sum sides, and a fill that
is one such product to power 1 -- (q; q)_inf, or f(q, -q^2)'s families
under a root -- is its sum side, charged the steps its passes would
make.  Any other fill packs all its
slots into one int (Kronecker substitution, as in :mod:`qident.backend`),
with no series product, no inverse and no Fraction per intermediate
slot, and its slot width comes from a closed-form majorant of its
coefficients (:func:`_fill_bytes`), so (q; q)_inf (q^2; q^2)_inf below
q^4000 packs 3 bytes a slot, not 27.  The sums (theta sums, theta_1
specializations, B tables) count their exponents on an integer grid and
their coefficients as integer pairs x + y*sqrt2, and every builder hands
the canonical slot form to the series directly.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

from . import backend, series
from .field import SQRT2, AlgebraicNumber
from .series import PuiseuxSeries, _fr, check_steps, check_words, dense_slots, power_steps

_FR = Fraction

# beta_k = -2*cos(2*k*pi/8) for k = 1, 2, 3: exactly -sqrt2, 0, sqrt2.
BETA = {1: -SQRT2, 2: AlgebraicNumber(0), 3: SQRT2}


class Record:
    """Base of the package's immutable records: the specs here and in
    :mod:`~qident.lambert`, and the expression nodes of :mod:`~qident.expr`.

    A subclass declares its fields as annotations and ``__slots__ = ()``.
    The field values are stored once, in order, as the tuple `_key`, and
    each field reads its place in it.  Records compare by class and
    `_key`, so C compares the tuples, and hash by `_key`, once.  A
    record's fields cannot be assigned.
    """

    __slots__ = ("_key", "_hash")
    _fields: tuple = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls.__dict__.get("__annotations__")
        if fields:
            cls._fields = tuple(fields)
            for i, name in enumerate(cls._fields):
                setattr(cls, name, property(lambda self, i=i: self._key[i]))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} "
                            f"fields, got {len(values)}")
        object.__setattr__(self, "_key", values)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        # computed once: specs key the exponent maps of expr, and a node's
        # key holds its subtree, which a tuple hash would walk every call
        h = self._hash
        if h is None:
            h = hash(self._key)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key


class PochSpec(Record):
    """The product prod_{j>=0} (1 + sign*q^{offset + j*step}).

    ``PochSpec(-1, a, b)`` is the classical (q^a; q^b)_inf; the +1 sign
    gives (-q^a; q^b)_inf.  Positive offset and step guarantee formal
    convergence.
    """

    __slots__ = ()
    sign: int
    offset: Fraction
    step: Fraction

    def __init__(self, sign, offset, step):
        offset, step = _fr(offset), _fr(step)
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if offset <= 0 or step <= 0:
            raise ValueError("offset and step must be positive")
        super().__init__(sign, offset, step)


class ThetaSpec(Record):
    """f(sign1*q^a, sign2*q^b) for the bilateral theta sum."""

    __slots__ = ()
    sign1: int
    sign2: int
    a: Fraction
    b: Fraction

    def __init__(self, sign1, sign2, a, b):
        a, b = _fr(a), _fr(b)
        if sign1 not in (1, -1) or sign2 not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        if a <= 0 or b <= 0:
            raise ValueError("theta arguments need positive exponents")
        super().__init__(sign1, sign2, a, b)


# bits of headroom over the float width bound of a packed fill, for its
# rounding and for a coefficient of exactly the bound
_MARGIN = 2


def _fill_bytes(families, n, groups=()) -> int:
    """Slot width in bytes of a packed fill over n slots, from its
    families (weight, first, step, divides) and its theta groups
    (power, s1, s2, a, b).

    The fill is a product of factors (1 + u*y) and, for divisor families,
    quotients by (1 + u*y), y = X^e for e = first + j*step (j >= 0).  With
    a submultiplicative, subadditive norm on the coefficients (|u| on Z,
    |r| + sqrt2*|i| on Z[sqrt2]), every coefficient c_k of the product is
    bounded in norm by the coefficient of X^k of a majorant M(X) with
    nonnegative coefficients: factor by factor, (1 + y)^weight, and
    (1 - y)^-weight for a divisor, since 1/(1 + u*y) = sum (-u*y)^j.  So
    |c_k| <= M(x) * x^-k <= M(x) * x^-(n-1) for every 0 < x < 1 and k < n.
    A family adds weight * sum_j g(x^(first + j*step)) to log M(x), with
    g(y) = log(1 + y), or -log(1 - y) for a divisor.  As g(x^e) falls
    with e, the sum is at most g(x^first) + (1/step) * I, where I, the
    integral of g(x^e) over e > 0, is (integral_0^1 g(y)/y dy) / -log x:
    pi^2/12 / -log x for a factor and pi^2/6 / -log x for a divisor.

    A theta group (:func:`_theta_groups`) to power g is a whole product
    f(s1*X^a, s2*X^b) = sum_j +-X^e(j), by Jacobi's triple product (or
    Euler's pentagonal theorem for (X^D; X^D)_inf), and its sum side
    sum_j x^e(j), raised to g, is a majorant too.  With m = |j|, every
    exponent has e(j) >= P*m(m-1)/2 for the period P = a + b: the three
    terms j = 0, 1, -1 are at most 1, and the rest of either side lies
    below the integral of exp(-P*L*(u-1)^2/2) over u > 1,
    sqrt(2pi/(P*L))/2, with L = -log x.  So the sum side adds less than
    g * log(3 + sqrt(2pi/(P*L))) to log M(x), a term in sqrt(1/L) where
    its factors would add one in 1/L; at each x the group adds the
    smaller of the two (:func:`_log_majorant`), so no fill is wider than
    its factors alone would make it.

    The weight is |power| for a Pochhammer family.  The bound is
    minimized over x = 1 - 2^-t, t = 1 .. bit_length(n); the optimum lies
    near 1 - x ~ n^(-1/2).  In floats x is exact and
    1 - x^e >= 1 - x >= 1/(2n), so the bound errs by a relative
    2n * 2^-53 or so, far below a bit for n <= MAX_DENSE_SLOTS.  Its bits
    plus _MARGIN and a sign bit, rounded up to whole bytes, hold every
    |c_k| below 2^(8w - 1), as :func:`~qident.backend.unpack` needs.
    """
    best = math.inf
    for t in range(1, n.bit_length() + 1):
        lx = math.log1p(-0.5**t)  # log x
        value = _log_majorant(families, groups, lx) - (n - 1) * lx
        if value >= best:
            break  # past the minimum; every x gives a valid bound
        best = value
    return backend.slot_bytes(math.ceil(best / math.log(2)) + _MARGIN)


def _log_majorant(families, groups, lx) -> float:
    """The bound on log M(x) of :func:`_fill_bytes` at lx = log x < 0."""
    log_m = 0.0
    for weight, first, step, divides in families:
        xf = math.exp(first * lx)
        if divides:
            log_m += weight * (-math.log1p(-xf) - math.pi**2 / (6 * step * lx))
        else:
            log_m += weight * (math.log1p(xf) - math.pi**2 / (12 * step * lx))
    for power, s1, s2, a, b in groups:
        u = -1 / ((a + b) * lx)  # 1/(P*L)
        term = math.log(3 + math.sqrt(2 * math.pi * u))
        # the members' 1/step add up to 3/P for every kind of group, so
        # their integral terms are pi^2/4 * u, and their g(x^first) only
        # matter where that alone is below the sum side's term
        factors = math.pi**2 / 4 * u
        if factors < term:
            factors += sum(math.log1p(math.exp(first * lx))
                           for _, first, _ in _group_members(s1, s2, a, b))
        log_m += power * min(term, factors)
    return log_m


def _grid(families):
    """(den, [(sign, first, step, power)]): the families on their common
    grid 1/den, equal specs merged and zero powers dropped."""
    powers: dict[PochSpec, int] = {}
    for spec, p in families:
        powers[spec] = powers.get(spec, 0) + p
    den = math.lcm(1, *(x.denominator for spec in powers
                        for x in (spec.offset, spec.step)))

    def on_grid(x):  # x * den, without a Fraction product
        return x.numerator * (den // x.denominator)

    return den, [(spec.sign, on_grid(spec.offset), on_grid(spec.step), p)
                 for spec, p in powers.items() if p]


def _theta_groups(grid):
    """(groups, rest): the whole theta products among the positive-power
    families of `grid`, as (power, s1, s2, a, b) for f(s1*X^a, s2*X^b) on
    the grid, and the grid with the powers they leave.

    On step D, the families (s, A, D)(s, D-A, D)(-1, D, D) are
    f(s*X^A, s*X^(D-A)) by Jacobi's triple product (G. E. Andrews, *The
    Theory of Partitions*, 1976, Thm 2.8), period D.  The six families
    (s, A, D)(-s, A+h, D)(-s, h-A, D)(s, D-A, D)(1, h, D)(-1, D, D) of a
    mixed-sign :func:`theta_families` over step D = 2h are
    f(s*X^A, -s*X^(h-A)), period h, and are matched first.  A (-1, D, D)
    left over is (X^D; X^D)_inf = f(-X^D, -X^2D) by Euler's pentagonal
    theorem (ibid., Thm 1.6), period 3D.  A group's power is the least
    power among its members, a member listed twice counting half; each
    pass looks up a fixed number of members per family, so matching is
    linear in the families.  Divisors never join a group: 1/f has no
    sparse sum side.
    """
    left = {(sign, first, step): p for sign, first, step, p in grid if p > 0}
    # every group has a core (X^D; X^D)_inf among its members
    if not any(s < 0 and a == d for s, a, d in left):
        return [], grid
    groups = []

    def take(s1, s2, a, b, members):
        power = min(left.get(m, 0) // members.count(m) for m in members)
        if power > 0:
            for m in members:
                left[m] -= power
            groups.append((power, s1, s2, a, b))

    for s, a, d in list(left):
        h = d // 2
        if d % 2 == 0 and 0 < a < h and left.get((-1, d, d)):
            take(s, -s, a, h - a, _triple_parts(s, -s, a, h - a))
    for s, a, d in list(left):
        if a < d and left.get((-1, d, d)):
            take(s, s, a, d - a, _triple_parts(s, s, a, d - a))
    for (s, a, d), p in left.items():
        if s < 0 and a == d and p:
            groups.append((p, -1, -1, d, 2 * d))
            left[s, a, d] = 0
    return groups, [(s, a, d, left.get((s, a, d), p)) for s, a, d, p in grid]


def _group_members(s1, s2, a, b) -> list:
    """(sign, first, step) of the families whose product is the theta
    group f(s1*X^a, s2*X^b): (X^a; X^a)_inf for f(-X^a, -X^2a), whose
    majorant is the least of its factorizations', else the triple
    product's."""
    if s1 == s2 == -1 and b == 2 * a:
        return [(-1, a, a)]
    return _triple_parts(s1, s2, a, b)


def _theta_terms(s1, s2, a, b, n) -> list:
    """The terms (e, c) of f(s1*X^a, s2*X^b) = sum_j c*X^e with e < n,
    for positive integers a and b, in ascending e, equal exponents
    (a = b) merged and zero sums dropped.

    The term exponent a*j(j+1)/2 + b*j(j-1)/2 is strictly increasing in
    |j| in each direction, so each direction stops at the first term at
    or above n.
    """
    acc: dict[int, int] = {}
    for j, step in ((0, 1), (-1, -1)):
        while True:
            t1 = j * (j + 1) // 2
            t2 = j * (j - 1) // 2
            e = a * t1 + b * t2
            if e >= n:
                break
            acc[e] = acc.get(e, 0) + (s1 if t1 % 2 else 1) * (s2 if t2 % 2 else 1)
            j += step
    return [(e, c) for e, c in sorted(acc.items()) if c]


def _steps(grid, n) -> int:
    # the factors at slots first + j*step < n visit n - first - j*step slots
    work = 0
    for _, first, step, p in grid:
        f = max(0, -(-(n - first) // step))
        work += abs(p) * (f * (n - first) - step * f * (f - 1) // 2)
    return work


class FillPlan(NamedTuple):
    """One :func:`fill` below `order`, worked out before it
    runs: `n` slots on the grid 1/`den`, the theta `groups` (power, s1, s2,
    a, b) with the `terms` (e, c), 0 < e < n, of each one's sum side, the
    families (sign, first, step, power) left to fill pass by pass, and the
    `steps` of every pass.  With one group to power 1 and no family left,
    1 and the group's terms are the fill itself.  Past MAX_DENSE_SLOTS no
    group is matched and every family is left, so the plan costs
    O(families) whatever `order`, and the fill refuses it by its slots."""

    order: Fraction
    den: int
    n: int
    groups: list
    terms: list
    rest: list
    steps: int


def plan_fill(families, order) -> FillPlan:
    """The :class:`FillPlan` of prod (spec)_inf ** power over the
    (PochSpec, power) pairs below `order`.

    A group to power g charges g * sum(n - e) over its terms, e > 0: one
    pass of n - e slot visits a term.  A family left over charges its
    factor passes as :func:`_steps` counts them.
    """
    order = _fr(order)
    den, grid = _grid(families)
    n = math.ceil(order * den)
    groups, rest = (_theta_groups(grid) if n <= series.MAX_DENSE_SLOTS
                    else ([], grid))
    terms = [[(e, c) for e, c in _theta_terms(s1, s2, a, b, n) if e]
             for _, s1, s2, a, b in groups]
    steps = _steps(rest, n) + sum(g[0] * sum(n - e for e, _ in t)
                                  for g, t in zip(groups, terms))
    return FillPlan(order, den, n, groups, terms, [f for f in rest if f[3]], steps)


def fill(plan: FillPlan) -> PuiseuxSeries:
    """The product that `plan` describes, below its order.

    The whole product or quotient is filled on the common grid of every
    offset and step, starting from 1; equal specs with opposite powers
    cancel first.  The n slots are packed into one integer c, w bytes a
    slot, and the fill runs modulo 2^(8wn): X -> 2^(8w) maps
    Z[X]/(X^n) to Z/2^(8wn) as a ring homomorphism, so intermediate
    slots may wrap, and only the final coefficients must fit a signed
    slot, which the width of :func:`_fill_bytes` guarantees.

    Each theta group (:func:`_theta_groups`) multiplies c by its sum side
    below X^n, once per unit of its power: the pass c + sum c*X^e over its
    terms, each c*X^e the shift (c & (mask >> 8w*e)) << 8w*e of the
    n - e lowest slots, so f(+-X^a, +-X^b) on n slots costs about
    2*sqrt(2n/(a + b)) shifted adds, where its three families would take
    about 3n/(a + b) factor passes.  Each family the groups leave enters
    factor by factor: each factor (1 + sign*y), y = X^off for a factor
    q^e with e below `order` at slot off, |power| times.  Multiplying by
    it is the one pass c + sign*(low << 8w*off), low the n - off lowest
    slots of c; dividing by it multiplies by the truncated inverse
    (1 - sign*y)(1 + y^2)(1 + y^4)..., about log2(n/off) passes.  Every
    pass adds less than 2^(8wn) a term and reads only the slots below n,
    so c is reduced modulo 2^(8wn) once a group pass, and once as it is
    unpacked.

    The plan's steps (n - e slot visits a group term or a factor, none for
    a division's doubling passes) are checked before anything is built,
    and the packed integer's 64-bit words against MAX_DENSE_SLOTS.  A fill
    that is one theta group to power 1, with no family left, is its sum
    side, 1 plus the group's terms, with no width, packed integer or
    unpacking; its slots and steps are checked first, as any fill's.  Its
    words could not be refused: at MAX_DENSE_SLOTS slots every kind of
    group packs 2 bytes a slot, 250,000 words.
    """
    if plan.order <= 0:
        return PuiseuxSeries.zero(plan.order)
    n = dense_slots(plan.n)
    what = f"expansion over {n} dense coefficient slots"
    check_steps(plan.steps, what)
    if not plan.rest and len(plan.groups) == 1 and plan.groups[0][0] == 1:
        slots = {0: (1, 0)}
        slots.update((e, (c, 0)) for e, c in plan.terms[0])
        return PuiseuxSeries._reduced(_FR(0), plan.den, 1, slots, plan.order)
    w = _fill_bytes([(abs(p), first, step, p < 0) for _, first, step, p in plan.rest],
                    n, plan.groups)
    check_words(-(-n * w // 8), what)
    bits = 8 * w
    size = bits * n
    mask = (1 << size) - 1
    c = 1
    for (power, *_), terms in zip(plan.groups, plan.terms):
        for _ in range(power):
            new = c
            for e, coef in terms:
                s = bits * e
                t = (c & (mask >> s)) << s
                if coef == 1:
                    new += t
                elif coef == -1:
                    new -= t
                else:  # +-2, where a = b merges the terms j and -j
                    new += coef * t
            c = new & mask
    for sign, first, step, p in plan.rest:
        for off in range(first, n, step):
            s = bits * off
            low = mask >> s
            for _ in range(abs(p)):
                # times 1 + sign*y, or 1 - sign*y and then the doublings
                c = c + ((c & low) << s) if sign * p > 0 else c - ((c & low) << s)
                e = 2 * s
                while p < 0 and e < size:
                    c += (c & (mask >> e)) << e
                    e *= 2
    return PuiseuxSeries.from_slots(0, plan.den, backend.unpack(c, w, n), None, plan.order)


def expand_map(powers: dict, unit: Fraction) -> PuiseuxSeries:
    """The product of the families of the exponent map `powers`
    ({PochSpec: Fraction}), each to its power, below `unit`.

    An empty map is 1, and a bound at or below 0 the zero series.  A map
    with two or more distinct powers, one of them not an integer -- both
    ``thm31`` maps, ``H(1)^(1/2)`` -- is one run of :func:`_logd`: for an
    integral product, packed products of values no wider than its
    coefficients, and from a first slot that is not an integer on, n steps
    per nonzero coefficient of the derivative whatever the powers.  Any
    other map -- integer powers, or one power shared by all its families
    -- is the product of the fills of the form :func:`_fills` picks, each
    raised to its power: ``eta(1)^(24)`` is one fill raised to 24,
    ``eta(1)^(1000)*eta(2)^(999)`` two fills raised apart, as the tree
    raises them, and a family atom one fill.  When every form has a fill,
    or a power charged as the power recurrence charges it, past
    MAX_SLOT_STEPS, the map runs :func:`_logd` instead, which counts its
    own steps: ``G2(1/2)*poch(-,1,2)`` at order 6000, which no theta group
    covers, would be one fill of 2.7*10^7 steps, and is the sieve alone,
    as every coefficient of the derivative cancels (the product is 1).
    """
    if unit <= 0:
        return PuiseuxSeries.zero(unit)
    if not powers:
        return PuiseuxSeries.one(unit)
    mixed = (len(set(powers.values())) > 1
             and any(e.denominator > 1 for e in powers.values()))
    fills = None if mixed else _fills(powers, unit)
    if fills is None:
        return _logd(powers, unit)
    return reduce(PuiseuxSeries.__mul__, (fill(plan) ** r for r, plan in fills))


def _fills(powers: dict, unit: Fraction):
    """(r, plan) pairs whose :func:`fill` below `unit`, each raised to r,
    multiply to the exponent map `powers`, or None when every form has a
    fill or a power past MAX_SLOT_STEPS.  :func:`expand_map` asks only for
    maps whose powers are all integers or all equal.

    Either one fill of the integer powers e*D/g raised to g/D, D the lcm
    of the powers' denominators and g the gcd of the e*D, or one fill per
    distinct power e of its families, raised to e.  The first enters each
    factor or theta group |e|*D/g times, the second once, but adds a power
    per fill and a product (one packed multiplication, not counted).
    Counting a fill by its plan's steps and a power r on n slots as
    :func:`~qident.series.power_steps` charges n^2/2 steps at the scale
    den(r)^2, the form with fewer steps is taken, the single fill on a
    tie, unless it has a fill or a power past MAX_SLOT_STEPS and the
    other has none.
    The second form is planned only when the first is past the cap or
    takes more steps than the second's powers alone.
    """
    den = math.lcm(*(e.denominator for e in powers.values()))
    g = math.gcd(*(e.numerator * (den // e.denominator) for e in powers.values()))
    fills = [(_FR(g, den), plan_fill(
        [(spec, int(e * den) // g) for spec, e in powers.items()], unit))]
    by_power: dict = {}
    for spec, e in powers.items():
        by_power.setdefault(e, []).append((spec, 1))

    def power(r, n):
        return 0 if r == 1 else power_steps(n, r.denominator ** 2, n * n // 2)

    def steps(fills):
        over = work = 0
        for r, plan in fills:
            p = power(r, plan.n)
            over |= max(plan.steps, p) > series.MAX_SLOT_STEPS
            work += plan.steps + p
        return over, work

    over, work = steps(fills)
    # the second form raises each fill of a power other than 1, on at
    # least ceil(unit) slots, so it is planned only when it could win
    least = sum(power(e, math.ceil(unit)) for e in by_power)
    if len(by_power) > 1 and (over or work > least):
        split = [(e, plan_fill(families, unit)) for e, families in by_power.items()]
        (over, _), fills = min(((over, work), fills), (steps(split), split),
                               key=lambda scored: scored[0])
    return None if over else fills


_LOGD = "log-derivative recurrence over {} dense coefficient slots"
_BLOCK = 32  # the base block of _logd's online sums, a power of 2


def _sieve(powers: dict, unit: Fraction) -> tuple:
    """(den, lcd, c): the logarithmic derivative of the exponent map
    `powers` below `unit`, on the families' common grid t = q^(1/den).

    f = prod (spec)^e has t*f' = C*f for C = sum_k c_k t^k, and a factor
    (1 + s*t^x) of a family with power e adds -e*x*(-s)^m to c_(m*x) for
    every m >= 1: a sieve of sum_x (n-1)//x steps over the factors x < n,
    checked before it runs.  `c` lists lcd*c_k for the n slots k < n, lcd
    the lcm of the powers' denominators, so every entry is an int.
    """
    den, grid = _grid(powers.items())
    n = dense_slots(unit * den)
    lcd = math.lcm(*(e.denominator for *_, e in grid))
    grid = [(sign, range(first, n, step), int(e * lcd)) for sign, first, step, e in grid]
    check_steps(sum((n - 1) // x for _, xs, _ in grid for x in xs), _LOGD.format(n))
    c = [0] * n
    for sign, xs, e in grid:
        for x in xs:
            v = -e * x
            if sign < 0:
                for k in range(x, n, x):
                    c[k] += v
            else:  # (-1)^m: +e*x at the odd multiples, -e*x at the even
                for k in range(x, n, 2 * x):
                    c[k] -= v
                for k in range(2 * x, n, 2 * x):
                    c[k] += v
    return den, lcd, c


def _logd(powers: dict, unit: Fraction) -> PuiseuxSeries:
    """The exponent map `powers` below `unit` by one recurrence on its
    logarithmic derivative.

    With the c_k of :func:`_sieve`, N*f_N = sum_k c_k f_(N-k) (Andrews,
    *q-Series*, CBMS 66, 1986), on plain ints F_N = Q*f_N over one common
    denominator Q: it starts at 1 and rises, rescaling the earlier slots,
    only when the division by N*lcd leaves a remainder, so an integral
    product keeps Q = 1 and values no wider than its coefficients.  While
    Q is 1 the sums are online (J. van der Hoeven, "Relax, but don't be too
    lazy", J. Symbolic Comput. 34, 2002), O(M(n) log n): a slot takes the
    terms of its aligned block of _BLOCK slots by one dot product and the
    rest from `acc`, to which each finished block [e - s, e), s = lowbit(e)
    >= _BLOCK, adds its terms for [e, e + s) by one packed product.  From
    the first remainder on (that slot's sum is complete), each slot is the
    plain sum over the nonzero c_k, n steps per nonzero c_k.

    The plain sums' steps, sum(n - k) over the nonzero c_k, are checked
    before the loop.  As it runs, its values may outgrow a word, through Q
    or through large powers, so each slot is also charged as the plain sum
    makes it, once per 64-bit word of the widest c_k times the words of the
    value it reads (bounded by the widest value so far and by all the
    words held), and each rescaling once per slot it rescales, against the
    same cap; with one-word values and Q = 1 the charge is at most the
    plain count.  The words held are tallied too, and checked like the
    power recurrence's, and so are a packed product's before it runs.
    """
    den, lcd, c = _sieve(powers, unit)
    n = len(c)
    what = _LOGD.format(n)
    units = [(k, ck) for k, ck in enumerate(c) if ck]
    check_steps(sum(n - k for k, _ in units), what)
    cw = max((_words(ck) for _, ck in units), default=0)
    f = [0] * n
    f[0] = q = held = width = 1
    live = work = 0
    acc = [0] * n  # None once Q rises
    for k in range(1, n):
        while live < len(units) and units[live][0] <= k:
            live += 1
        b = k - k % _BLOCK  # the slot's aligned block starts at b
        s = (sum([ck * f[k - j] for j, ck in units[:live]]) if acc is None
             else acc[k] + sum(map(operator.mul, f[b:k], c[k - b:0:-1])))
        # the words this slot's plain sum reads: at most `width` each, and
        # at most `held` in all
        work += cw * min(live * width, held)
        kd = k * lcd
        f[k], rem = divmod(s, kd)
        if rem:
            acc = None
            r = kd // math.gcd(s, kd)
            q *= r
            f[:k] = [x * r for x in f[:k]]
            f[k] = s * r // kd
            words = [_words(x) for x in f[:k]]
            held, width = sum(words), max(words)
            work += k
        check_steps(work, what)
        held += _words(f[k])
        width = max(width, _words(f[k]))
        check_words(held, what)
        e, size = k + 1, (k + 1) & ~k  # size: the lowest set bit of e
        if acc is not None and size >= _BLOCK and e < n:
            ra, rc = f[e - size:e], c[:min(2 * size, n - e + size)]
            w = backend.product_bytes(max(map(abs, ra)).bit_length(),
                                      max(map(abs, rc)).bit_length(), size)
            check_words(-(-(size + len(rc) - 1) * w // 8), what)
            out = backend.convolve_rational(ra, rc, len(rc))
            for t, x in enumerate(out[size:], e):
                acc[t] += x
    return PuiseuxSeries.from_slots(0, den, f, None, unit, q)


def _words(x: int) -> int:
    """The 64-bit words of |x|, 0 for 0."""
    return (x.bit_length() + 63) // 64


def _theta_bounds(spec: ThetaSpec, order: Fraction) -> tuple:
    """(den, a, b, n, terms) of f(spec) below `order`: the grid 1/den =
    1/lcm(den spec.a, den spec.b), the exponents a = spec.a*den and b =
    spec.b*den on it, the slot bound n = ceil(order*den) and the term
    bound 2*isqrt(floor(2*order / (spec.a + spec.b))) + 3, in ints."""
    an, ad = spec.a.numerator, spec.a.denominator
    bn, bd = spec.b.numerator, spec.b.denominator
    on, od = order.numerator, order.denominator
    den = math.lcm(ad, bd)
    a, b = an * (den // ad), bn * (den // bd)
    terms = 2 * math.isqrt(max(0, 2 * on * den // (od * (a + b)))) + 3
    return den, a, b, -(-on * den // od), terms


def theta_sum(spec: ThetaSpec, order) -> PuiseuxSeries:
    """Bilateral sum of gamma^{j(j+1)/2} delta^{j(j-1)/2} below `order`,
    by :func:`_theta_terms`.

    The term exponent exceeds (a+b)(|j| - 1)^2 / 2, which bounds the term
    count before the loop; the bound counts as slots against
    MAX_DENSE_SLOTS, the cap on a dense builder's output.  Exponents are
    counted as ints on the grid 1/lcm(den a, den b), so a grid far finer
    than the cap still expands.
    """
    order = _fr(order)
    den, a, b, n, terms = _theta_bounds(spec, order)
    dense_slots(terms)
    return PuiseuxSeries._reduced(
        _FR(0), den, 1,
        {e: (c, 0) for e, c in _theta_terms(spec.sign1, spec.sign2, a, b, n)}, order)


def _triple_parts(s1, s2, a, b) -> list:
    """(sign, offset, step) of the Pochhammer families of f(s1*q^a, s2*q^b)
    = (-g; gd)(-d; gd)(gd; gd), for ints or Fractions a and b.

    A negative product base gd (mixed argument signs) makes the factor
    signs alternate with the index, so each of the three products splits
    into its even- and odd-index halves over the doubled step.
    """
    st = a + b
    if s1 * s2 == 1:
        return [(s1, a, st), (s2, b, st), (-1, st, st)]
    return [(s1, a, 2 * st), (-s1, a + st, 2 * st), (s2, b, 2 * st),
            (-s2, b + st, 2 * st), (1, st, 2 * st), (-1, 2 * st, 2 * st)]


def theta_families(spec: ThetaSpec, power: int = 1) -> list:
    """f(spec) as Pochhammer families (-g; gd)(-d; gd)(gd; gd), each to
    `power` (:func:`_triple_parts`)."""
    return [(PochSpec(*part), power)
            for part in _triple_parts(spec.sign1, spec.sign2, spec.a, spec.b)]


def eta_families(r) -> list:
    """eta(r tau) = q^{r/24} (q^r; q^r)_inf as Pochhammer families."""
    return [(PochSpec(-1, r, r), 1)]


def g2_families(r) -> list:
    """G_2(q^r) = (-q^{2r}; q^{2r})_inf as Pochhammer families."""
    return [(PochSpec(1, 2 * r, 2 * r), 1)]


def h_families(r) -> list:
    """h(q^r) = q^{r/2} f(-q^r, -q^{7r}) / f(-q^{3r}, -q^{5r}) as Pochhammer
    families, the divisor's with power -1; their common (q^{8r}; q^{8r})
    cancels in the fill."""
    return (theta_families(ThetaSpec(-1, -1, r, 7 * r), 1)
            + theta_families(ThetaSpec(-1, -1, 3 * r, 5 * r), -1))


def i_families(r) -> list:
    """i(q^r) = f(-q^r, -q^{3r}) / f(-q^{2r}, -q^{2r}) as Pochhammer
    families, as for :func:`h_families`; the common (q^{4r}; q^{4r})
    cancels."""
    return (theta_families(ThetaSpec(-1, -1, r, 3 * r), 1)
            + theta_families(ThetaSpec(-1, -1, 2 * r, 2 * r), -1))


def sine_ratio_table(k: int, count: int) -> list[tuple[int, int]]:
    """r_j = sin((2j+1)k*pi/8) / sin(k*pi/8) for j < count, as integer
    pairs (x, y) = x + y*sqrt2.

    r_0 = 1, r_1 = 1 + t*sqrt2 and r_{j+1} = t*sqrt2*r_j - r_{j-1}, where
    t*sqrt2 = 2cos(2k*pi/8) is sqrt2, 0, -sqrt2 for k = 1, 2, 3, so every
    ratio lies in Z[sqrt2]; any other k is refused.
    """
    if k not in BETA:
        raise ValueError("sine-ratio index must be 1, 2 or 3")
    t = -int(BETA[k].irr)
    values = [(1, 0), (1, t)]
    while len(values) < count:
        (xp, yp), (x, y) = values[-2:]
        values.append((2 * t * y - xp, t * x - yp))
    return values[:count]


def b_table_series(i: int, length: int = 32) -> PuiseuxSeries:
    """The polynomial sum_{k<length} B_i(k) q^k (trunc = length).

    B_1(k) = r1_k - r3_k, B_2(k) = (1+beta3) r3_k - (1+beta1) r1_k and
    B_3(k) = beta3 r3_k - beta1 r1_k, where rj is the sine-ratio table at
    angle j*pi/8.  Since r3_k is r1_k = x + y*sqrt2 with sqrt2 negated,
    these are 2y*sqrt2, 2(x-y)*sqrt2 and 2x*sqrt2, from one table.
    """
    if i not in (1, 2, 3):
        raise ValueError("table index must be 1, 2 or 3")
    values = [2 * (y, x - y, x)[i - 1] for x, y in sine_ratio_table(1, length)]
    return PuiseuxSeries._reduced(
        _FR(0), 1, 1, {k: (0, v) for k, v in enumerate(values) if v},
        _FR(length))


def theta1_normalized(k: int, order) -> PuiseuxSeries:
    """theta_1(k*pi/8 | tau) / (2 q^{1/8} sin(k*pi/8)).

    Equals sum_{j>=0} (-1)^j r_j q^{j(j+1)/2} with the exact sine ratios,
    none of which is 0; by the product expansion it must match
    (q;q)_inf * G_k(q), and the table at 3 is the table at 1 with sqrt2
    negated.  k outside 1..3 raises ValueError.  Its term bound counts as
    slots against MAX_DENSE_SLOTS, as :func:`theta_sum`'s does.
    """
    order = _fr(order)
    # j(j+1)/2 < order needs j^2 < 2*order
    terms = dense_slots(math.isqrt(max(0, math.floor(2 * order))) + 1)
    n = math.ceil(order)  # the integer exponents below order are e < n
    return PuiseuxSeries._reduced(
        _FR(0), 1, 1,
        {j * (j + 1) // 2: (-x, -y) if j % 2 else (x, y)
         for j, (x, y) in enumerate(sine_ratio_table(k, terms))
         if j * (j + 1) // 2 < n},
        order)

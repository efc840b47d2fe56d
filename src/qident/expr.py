"""Expression trees over series-valued primitives, and their evaluation.

Each node evaluates to a :class:`~qident.series.PuiseuxSeries` at a
requested guarantee order.

Product form.  The family atoms -- ``eta``, ``poch``, ``f``, ``H``,
``I``, ``G2`` and ``psi11rhs`` -- are products of Pochhammer families
(through Jacobi's triple product and Ramanujan's 1psi1 summation); each
takes its families from :mod:`~qident.blocks` or :mod:`~qident.lambert`,
the rescaling q -> q^r already in the specs.  A ``Mul``/``Pow`` subtree
whose leaves are family atoms, nonzero constants and powers of q folds
into a :class:`Fold`: a constant, a shift q^s and one exponent map
``{PochSpec: Fraction}``.  A power of a subtree whose constant is not 1
does not fold.  The map's unit part below order - s
(:func:`_unit_product`) is expanded along one of two paths.  A map with
two or more distinct powers, one of them not an integer -- both
``thm31`` maps, ``H(1)^(1/2)`` -- is one run of the recurrence on its
logarithmic derivative (:func:`_logd`): n steps per nonzero
coefficient of the derivative whatever the powers, and, for an integral
product, values no wider than its coefficients.  Any other map --
integer powers, or one power shared by all its families -- is filled by
:func:`~qident.blocks.poch_quotient` in the form :func:`_fills` picks:
one fill of the integer powers e*D/g and one power g/D, D the lcm of the
powers' denominators and g the gcd of the e*D, so ``eta(1)^(24)`` is one
fill raised to 24, or, when that single fill would take more steps,
one fill and one power per distinct e, so that
``eta(1)^(1000)*eta(2)^(999)`` costs what the tree costs; a family atom
alone is one fill.  A fill multiplies its whole theta products in by
their sum sides and every other family factor by factor, and counts the
steps of both.  When every such form has a fill, or a power charged as
the power recurrence charges it, past MAX_SLOT_STEPS, the map runs the
recurrence instead, which counts its own steps:
``G2(1/2)*poch(-,1,2)`` at order 6000, which no theta group covers,
would be one fill of 2.7*10^7 steps, and is the recurrence's sieve, as
every coefficient of the derivative cancels (the product is 1).  A
folding factor times an ``Add``/``Sub`` whose terms all fold distributes
into one map per term when the terms are no more than the family atoms
the tree would expand one by one.  Everything else is evaluated node by
node, where a power is the power recurrence of
:meth:`~qident.series.PuiseuxSeries._power` unless it is a small
positive power with fewer products than unit terms, which is a product
(see :meth:`~qident.series.PuiseuxSeries.__pow__`).

Node by node, evaluation propagates per-node targets top down: a product
pads each factor by the co-factor's structural leading exponent
(`hint`), and a power ``Pow(base, r)`` of any rational r -- integer
powers, inverses, roots ``x^(1/n)`` and ``x^(a/n)`` alike -- pads its
base to ``order + (1 - r) * hint(base)``, but never below
``hint(base) + 1``, just past the base's leading term.  A division
``x/y`` is the product ``Mul(x, Pow(y, -1))``: the numerator is padded
to ``order + hint(y)`` and the divisor to ``order - hint(x) +
2*hint(y)``, the extra ``hint(y)`` being what inversion consumes.
``G1(r)`` is its sum side at q, ``T1N(1)`` times the unit part of
(q; q)_inf^-1 below order/r (Jacobi's product for theta_1), taken
through q -> q^r by the same substitution as ``subst``; ``G3(r)`` is
``G1(r)`` with sqrt2 negated; ``phi(r)`` and ``psi(r)`` are theta sums
with r in their spec.  Hints are exact
unless a subtraction cancels a leading term inside a denominator or a
power, which no built-in identity does; :func:`evaluate_to_order`
re-runs with a larger target (at most 3 retries) if a result still
falls short.  A folded
subtree is exact below the order it is asked for.

Inside :func:`shared_evaluations` (which :func:`~qident.verify.verify_many`
enters for its whole batch) every evaluation goes through one
:class:`SharedEvaluations` cache keyed on the exact ``(node, order)`` pair.
Nodes are immutable records (:class:`~qident.blocks.Record`) that
compare by structure, as one stored tuple of their fields, and hash
once, so the same subexpression in two identities is expanded once.
Only nodes met at least twice by a walk that does not re-enter a node
it has met are stored: the nodes that can be asked for again.  The unit
part of every folded map is stored too, keyed on the map and its bound,
so maps that differ only in constant and shift (the six ``thm31`` right
sides are scaled sums of two) are filled once.  Every entry is held until the
block exits.  Outside that block nothing is cached.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterator, NamedTuple, Optional

from . import blocks, series
from . import lambert as lam
from .blocks import PochSpec, Record, ThetaSpec
from .field import ONE, AlgebraicNumber
from .series import InsufficientPrecisionError, PuiseuxSeries, _fr

_FR = Fraction
_QQ = PochSpec(-1, 1, 1)  # (q; q)_inf


class Node(Record):
    """Base of all identity-expression nodes."""

    __slots__ = ("_depth",)

    def evaluate(self, order) -> PuiseuxSeries:
        """This node's series, guaranteed below `order`."""
        shared = _SHARED.get()
        if shared is None:
            return self._evaluate(order)
        return shared.evaluate(self, order)

    def _evaluate(self, order) -> PuiseuxSeries:
        raise NotImplementedError

    def hint(self) -> Fraction:
        """Structural estimate of the leading exponent."""
        raise NotImplementedError

    def fold(self) -> Optional["Fold"]:
        """This tree's product form if it folds (see :class:`Fold`), else
        None.  Not kept: a batch would hold one map per node."""
        return None

    def depth(self) -> int:
        """Levels of the tree under this node, 1 for a leaf; computed once,
        so a tree built bottom up is measured one level at a time."""
        d = getattr(self, "_depth", None)
        if d is None:
            d = 1 + max((v.depth() for v in self._key if isinstance(v, Node)),
                        default=0)
            object.__setattr__(self, "_depth", d)
        return d


# -- leaves ----------------------------------------------------------------


class QPow(Node):
    __slots__ = ()
    exponent: Fraction

    def _evaluate(self, order):
        order = _fr(order)
        return PuiseuxSeries.monomial(ONE, self.exponent, max(order, self.exponent + 1))

    def hint(self):
        return self.exponent

    def fold(self):
        return Fold(ONE, self.exponent, {})


class Const(Node):
    __slots__ = ()
    value: AlgebraicNumber

    def _evaluate(self, order):
        return PuiseuxSeries.monomial(self.value, 0, max(_fr(order), _FR(1)))

    def hint(self):
        return _FR(0)

    def fold(self):
        return Fold(self.value, _FR(0), {}) if self.value else None


def _polynomial(s: PuiseuxSeries, order) -> PuiseuxSeries:
    # a polynomial is exact at every order
    trunc = max(_fr(order), s.trunc)
    if not s.slots:
        return PuiseuxSeries.zero(trunc)
    return PuiseuxSeries._make(s.m, s.den, s.d, s.slots, trunc)


class Primitive(NamedTuple):
    """One named series of the DSL, taking exactly one argument.

    `kind` names the argument: "r" (a substitution exponent q -> q^r),
    "k" (an index 1..3), or a spec: "poch", "theta", "lambert",
    "bilateral", or "bilateral_product" (a bilateral spec with
    alpha + beta < s).  `build(arg, order)` expands the series, `meaning`
    is its line in the DSL atom table and `hint(arg)` its structural
    leading exponent.  A family atom (:func:`_family`) also lists its
    Pochhammer families: `families(arg)` gives the (PochSpec, power)
    pairs whose product, times q^hint(arg), is the series.
    """

    kind: str
    build: Callable[[object, object], PuiseuxSeries]
    meaning: str
    hint: Callable[[object], Fraction] = lambda arg: _FR(0)
    families: Optional[Callable[[object], list]] = None

    def fold(self, arg) -> Optional["Fold"]:
        """The product form of this atom at `arg`, None unless a family atom."""
        if self.families is not None:
            return Fold(ONE, self.hint(arg), _merge({}, self.families(arg)))


def _g1(r, order) -> PuiseuxSeries:
    """G1(r) below `order`: by Jacobi's product for theta_1, G_1(q) is
    T1N(1) (q; q)_inf^-1, and q -> q^r takes that product below order/r to
    the atom's argument.  The inverse is the unit part of its exponent
    map, so a batch fills it once."""
    o = _fr(order) / r
    if o <= 0:
        return PuiseuxSeries.zero(order)
    inverse = _expand(Fold(ONE, _FR(0), {_QQ: _FR(-1)}), o)
    return (blocks.theta1_normalized(1, o) * inverse).substitute(r)


def _g3(r, order) -> PuiseuxSeries:
    """G3(r) below `order`: G1(r) with sqrt2 negated, as T1N(3) is T1N(1)
    with sqrt2 negated.  G1(r) is evaluated as a node, so a batch that
    repeats it builds its product once."""
    g1 = Prim("G1", r).evaluate(order)
    return PuiseuxSeries._make(g1.m, g1.den, g1.d,
                               {k: (x, -y) for k, (x, y) in g1.slots.items()},
                               g1.trunc)


def _family(kind, meaning, families, hint=lambda arg: _FR(0)):
    """A primitive that is q^hint(arg) times the product of its
    Pochhammer families, built in product form like any folded tree."""
    prim = Primitive(kind, lambda arg, order: _expand(prim.fold(arg), order),
                     meaning, hint, families)
    return prim


# Builders look their block up at call time, so that a function rebound on
# `blocks` or `lambert` from outside (a tracer) is the one that runs.
PRIMITIVES: dict[str, Primitive] = {
    "eta": _family("r", "`eta(r tau) = q^(r/24) (q^r;q^r)_inf`",
                   blocks.eta_families, lambda r: r / 24),
    "poch": _family("poch", "`prod_{j>=0} (1 + sign q^(a+jb))`",
                    lambda s: [(s, 1)]),
    "f": _family("theta", "theta `f(sign q^a, sign q^b)`, triple-product form",
                 lambda s: blocks._triple_product(s, 1)),
    "fsum": Primitive("theta", lambda s, o: blocks.theta_sum(s, o),
                      "the same theta function as a bilateral sum"),
    "phi": Primitive("r", lambda r, o: blocks.theta_sum(ThetaSpec(1, 1, r, r), o),
                     "`phi(q^r) = f(q^r, q^r)`"),
    "psi": Primitive("r", lambda r, o: blocks.theta_sum(ThetaSpec(1, 1, r, 3 * r), o),
                     "`psi(q^r) = f(q^r, q^3r)`"),
    "H": _family("r", "Gollnitz-Gordon fraction product side `h(q^r)`",
                 blocks.h_families, lambda r: r / 2),
    "I": _family("r", "order-four fraction product side `i(q^r)`",
                 blocks.i_families),
    "G1": Primitive("r", _g1,
                    "`prod_{n>=1} (1 - sqrt2 q^(rn) + q^(2rn))`"),
    "G2": _family("r", "`prod_{n>=1} (1 + q^(2rn))`",
                  blocks.g2_families),
    "G3": Primitive("r", _g3,
                    "`prod_{n>=1} (1 + sqrt2 q^(rn) + q^(2rn))`"),
    "T1N": Primitive("k", lambda k, o: blocks.theta1_normalized(k, o),
                     "`theta_1(k pi/8) / (2 q^(1/8) sin(k pi/8))`"),
    "btable": Primitive("k", lambda k, o: _polynomial(blocks.b_table_series(k, 32), o),
                        "difference-table polynomial `sum_{j<32} B_k(j) q^j`",
                        lambda k: _FR(1 if k == 1 else 0)),  # B_1(0) = 0
    "lambert": Primitive(
        "lambert", lambda s, o: lam.lambert_sum(s, o),
        "`sum_{m = r mod s} w(m) sum_i +-q^(a_i m)/(1 - q^(bm))`; `w(m)` is 1,"
        " `m` (`w` = `m`) or the Legendre symbol (m/p) (`w` = `legendre(p)`,"
        " p an odd prime below 3.3*10^24)",
        lambda s: _FR(s.leading_exponent())),
    "psi11lhs": Primitive(
        "bilateral", lambda s, o: lam.bilateral_1psi1_lhs(s, o),
        "1psi1 sum `sum_j z^j/(1 - x q^j)`, `x = q^alpha`, `z = q^beta`, base `q^s`"),
    "psi11rhs": _family(
        "bilateral_product",
        "1psi1 product side of the same sum, for `alpha + beta < s`",
        lam.product_families),
}


class Prim(Node):
    """A named primitive series from :data:`PRIMITIVES` at its argument."""

    __slots__ = ()
    name: str
    arg: object

    def _evaluate(self, order):
        return PRIMITIVES[self.name].build(self.arg, order)

    def hint(self):
        return PRIMITIVES[self.name].hint(self.arg)

    def fold(self):
        return PRIMITIVES[self.name].fold(self.arg)


# -- composites ----------------------------------------------------------


class Add(Node):
    __slots__ = ()
    left: Node
    right: Node

    def _evaluate(self, order):
        return self.left.evaluate(order) + self.right.evaluate(order)

    def hint(self):
        return min(self.left.hint(), self.right.hint())


class Sub(Node):
    __slots__ = ()
    left: Node
    right: Node

    def _evaluate(self, order):
        return self.left.evaluate(order) - self.right.evaluate(order)

    def hint(self):
        return min(self.left.hint(), self.right.hint())


class Mul(Node):
    __slots__ = ()
    left: Node
    right: Node

    def _evaluate(self, order):
        order = _fr(order)
        fold = self.fold()
        if fold is not None:
            return _expand(fold, order)
        # a folding factor times a sum of folding terms distributes when
        # the terms are no more than the atoms under the product
        for factor, other in ((self.left, self.right), (self.right, self.left)):
            terms = _terms(other) if isinstance(other, (Add, Sub)) else None
            common = terms and factor.fold()
            if common and len(terms) <= sum(
                    isinstance(n, Prim) for n in _occurrences(self)):
                return reduce(PuiseuxSeries.__add__, (
                    _expand(_times(common, t, sign), order) for sign, t in terms))
        lh, rh = self.left.hint(), self.right.hint()
        return self.left.evaluate(order - rh) * self.right.evaluate(order - lh)

    def hint(self):
        return self.left.hint() + self.right.hint()

    def fold(self):
        left = self.left.fold()
        right = None if left is None else self.right.fold()
        return None if right is None else _times(left, right)


class Pow(Node):
    """base ** r for a rational r; unless r is an integer the base's
    leading coefficient must be exactly 1."""

    __slots__ = ()
    base: Node
    r: Fraction

    def _evaluate(self, order):
        # a power keeps the bound of its base's unit part and moves the
        # leading exponent from m to r*m, so the base needs order + (1-r)*m;
        # it is never asked for less than its leading term
        order = _fr(order)
        fold = self.fold()
        if fold is not None:
            return _expand(fold, order)
        if not self.r:
            return PuiseuxSeries.one(max(order, _FR(1)))
        h = self.base.hint()
        return self.base.evaluate(max(order + (1 - self.r) * h, h + 1)) ** self.r

    def hint(self):
        return self.r * self.base.hint()

    def fold(self):
        # a constant other than 1 stays on the tree: its root may not exist,
        # and c**r for a large integer r would be computed before any budget
        # is checked, where the power recurrence stops at its word cap
        base, r = self.base.fold(), self.r
        if base is None or base.const != ONE:
            return None
        return Fold(ONE, r * base.shift,
                    {spec: r * e for spec, e in base.powers.items()} if r else {})


class Subst(Node):
    """q -> q^r applied to a whole subexpression."""

    __slots__ = ()
    base: Node
    r: Fraction

    def _evaluate(self, order):
        return self.base.evaluate(_fr(order) / self.r).substitute(self.r)

    def hint(self):
        return self.base.hint() * self.r


# -- product form ------------------------------------------------------------


class Fold(NamedTuple):
    """const * q^shift * prod_spec (spec)^power over `powers`: the product
    form of a Mul/Pow tree whose leaves are family atoms, nonzero constants
    and powers of q.  `powers` maps each :class:`~qident.blocks.PochSpec`
    to its nonzero rational power."""

    const: AlgebraicNumber
    shift: Fraction
    powers: dict


def _merge(powers: dict, pairs) -> dict:
    """The exponent map `powers` times the (PochSpec, power) `pairs`:
    powers of equal specs add, and zero powers drop out."""
    out = dict(powers)
    for spec, e in pairs:
        e += out.pop(spec, 0)
        if e:
            out[spec] = e
    return out


def _times(a: Fold, b: Fold, sign=1) -> Fold:
    """The product form of a * b, times `sign`."""
    # field products are slow, and most constants are the ONE of an atom
    const = a.const if b.const is ONE else b.const if a.const is ONE else a.const * b.const
    return Fold(const if sign > 0 else -const, a.shift + b.shift,
                _merge(a.powers, b.powers.items()))


def _expand(fold: Fold, order) -> PuiseuxSeries:
    """The series of `fold` below `order`.

    Its unit part, the product of the families below order - shift, is
    filled as :func:`_fills` says.  Inside :func:`shared_evaluations` the
    unit part is stored under its exponent map and bound, so products
    that differ only in constant and shift are filled once.
    """
    unit = _fr(order) - fold.shift
    shared = _SHARED.get()
    key = (frozenset(fold.powers.items()), unit)
    s = None if shared is None else shared.products.get(key)
    if s is None:
        s = _unit_product(fold.powers, unit)
        if shared is not None:
            shared.products[key] = s
    return s.scale(fold.const).shift(fold.shift)


def _unit_product(powers: dict, unit: Fraction) -> PuiseuxSeries:
    """The product of the families of `powers`, each to its power, below
    `unit`.

    A map with two or more distinct powers, one of them not an integer,
    is one run of :func:`_logd`.  Any other map is expanded in the form
    :func:`_fills` picks, the plans of :func:`~qident.blocks.plan_fill`
    filled, raised to powers and multiplied, unless every form it offers
    has a fill or a power past MAX_SLOT_STEPS; then it too goes to
    :func:`_logd`, which counts its own steps.  A plan counts a theta group by the
    passes of its sum side, so a map of theta functions and eta powers
    fills at orders where one pass a factor would be refused:
    ``eta(1)*eta(2)`` below q^7000 is 1.1*10^6 steps of its fill.
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
    return reduce(PuiseuxSeries.__mul__, (blocks.fill(plan) ** r for r, plan in fills))


def _fills(powers: dict, unit: Fraction) -> Optional[list]:
    """(r, plan) pairs whose :func:`~qident.blocks.fill` below `unit`,
    each raised to r, multiply to the exponent map `powers`, or None when
    every form has a fill or a power past MAX_SLOT_STEPS.
    :func:`_unit_product` asks only for maps whose powers are all integers
    or all equal.

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
    fills = [(_FR(g, den), blocks.plan_fill(
        [(spec, int(e * den) // g) for spec, e in powers.items()], unit))]
    by_power: dict = {}
    for spec, e in powers.items():
        by_power.setdefault(e, []).append((spec, 1))

    def power(r, n):
        return 0 if r == 1 else series.power_steps(n, r.denominator ** 2, n * n // 2)

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
        split = [(e, blocks.plan_fill(families, unit)) for e, families in by_power.items()]
        (over, _), fills = min(((over, work), fills), (steps(split), split),
                               key=lambda scored: scored[0])
    return None if over else fills


def _logd(powers: dict, unit: Fraction) -> PuiseuxSeries:
    """The exponent map `powers` below `unit` by one recurrence on its
    logarithmic derivative.

    On the families' common grid t = q^(1/den), f = prod (spec)^e has
    t*f' = C*f for C = sum_k c_k t^k, and a factor (1 + s*t^x) of a family
    with power e adds -e*x*(-s)^m to c_(m*x) for every m >= 1: a sieve of
    sum_x (n-1)//x steps over the factors x < n.  Then N*f_N =
    sum_k c_k f_(N-k) (Andrews, *q-Series*, CBMS 66, 1986) costs n steps
    per nonzero c_k, whatever the powers.  With D the lcm of the powers'
    denominators every D*c_k is an integer, and the loop runs on plain
    ints F_N = Q*f_N over one common denominator Q: it starts at 1 and
    rises, rescaling the earlier slots, only when the division by N*D
    leaves a remainder, so an integral product keeps Q = 1 and values no
    wider than its coefficients.

    The sieve's steps are checked before it runs and the recurrence's,
    sum(n - k) over the nonzero c_k, before its loop.  As the loop runs,
    its values may outgrow a word, through Q or through large powers, so
    each step is also charged as it is made, once per 64-bit word of the
    widest c_k times the words of the value it reads (bounded by the
    widest value so far and by all the words held), and each rescaling
    once per slot it rescales, against the same cap; with one-word values
    and Q = 1 the charge is at most the plain count.  The words held are tallied
    too, and checked like the power recurrence's.
    """
    den, grid = blocks._grid(powers.items())
    n = series.dense_slots(unit * den)
    what = f"log-derivative recurrence over {n} dense coefficient slots"
    lcd = math.lcm(*(e.denominator for *_, e in grid))
    grid = [(sign, range(first, n, step), int(e * lcd)) for sign, first, step, e in grid]
    series.check_steps(sum((n - 1) // x for _, xs, _ in grid for x in xs), what)
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
    units = [(k, ck) for k, ck in enumerate(c) if ck]
    series.check_steps(sum(n - k for k, _ in units), what)
    cw = max((_words(ck) for _, ck in units), default=0)
    f = [0] * n
    f[0] = q = held = width = 1
    live = work = 0
    for k in range(1, n):
        while live < len(units) and units[live][0] <= k:
            live += 1
        s = sum([ck * f[k - j] for j, ck in units[:live]])
        # the words this slot's products read: at most `width` each, and
        # at most `held` in all
        work += cw * min(live * width, held)
        kd = k * lcd
        f[k], rem = divmod(s, kd)
        if rem:
            r = kd // math.gcd(s, kd)
            q *= r
            f[:k] = [x * r for x in f[:k]]
            f[k] = s * r // kd
            words = [_words(x) for x in f[:k]]
            held, width = sum(words), max(words)
            work += k
        series.check_steps(work, what)
        held += _words(f[k])
        width = max(width, _words(f[k]))
        series.check_words(held, what)
    return PuiseuxSeries.from_slots(0, den, f, None, unit, q)


def _words(x: int) -> int:
    """The 64-bit words of |x|, 0 for 0."""
    return (x.bit_length() + 63) // 64


def _terms(node: Node, sign=1) -> Optional[list]:
    """The terms (sign, fold) of an Add/Sub tree whose terms all fold, or
    None."""
    if isinstance(node, (Add, Sub)):
        left = _terms(node.left, sign)
        right = _terms(node.right, -sign if isinstance(node, Sub) else sign)
        return None if left is None or right is None else left + right
    fold = node.fold()
    return None if fold is None else [(sign, fold)]


def _occurrences(node: Node) -> Iterator[Node]:
    """Every node of the tree under `node`, once per position."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(v for v in n._key if isinstance(v, Node))


class SharedEvaluations:
    """Evaluation results shared across the expression trees of one batch.

    One walk over the batch's trees, which enters a node's children only
    the first time it meets the node, finds the nodes it meets at least
    twice: the only ones that can be asked for again, since an occurrence
    inside a stored parent is answered by the parent.  Each such node's
    result is stored under ``(node, order)`` and held until the
    :func:`shared_evaluations` block exits; any other node is evaluated
    directly.  `products` holds the unit part of every exponent map
    :func:`_expand` fills, under (map, bound), as long.
    """

    def __init__(self, roots):
        seen: set[Node] = set()
        self.repeated: set[Node] = set()
        stack = list(roots)
        while stack:
            n = stack.pop()
            if n in seen:
                self.repeated.add(n)
            else:
                seen.add(n)
                stack.extend(v for v in n._key if isinstance(v, Node))
        self.entries: dict[tuple[Node, Fraction], PuiseuxSeries] = {}
        self.products: dict[tuple[frozenset, Fraction], PuiseuxSeries] = {}

    def evaluate(self, node: Node, order) -> PuiseuxSeries:
        if node not in self.repeated:
            return node._evaluate(order)
        key = (node, _fr(order))
        if key not in self.entries:
            self.entries[key] = node._evaluate(order)
        return self.entries[key]


_SHARED: ContextVar[Optional[SharedEvaluations]] = ContextVar(
    "qident_shared_evaluations", default=None)


@contextmanager
def shared_evaluations(roots):
    """Share node evaluations among the trees `roots` inside the block.

    The cache belongs to the current context (thread or task) only and is
    gone when the block exits, by an exception too.
    """
    token = _SHARED.set(SharedEvaluations(roots))
    try:
        yield
    finally:
        _SHARED.reset(token)


_MAX_RETRIES = 3


def evaluate_to_order(node: Node, order) -> PuiseuxSeries:
    """Evaluate with automatic padding until trunc >= order.

    The first pass usually lands exactly; a hint thrown off by leading
    cancellation shows up as a short result and triggers a padded retry,
    at most :data:`_MAX_RETRIES` of them.
    """
    order = _fr(order)
    target = order
    for _ in range(_MAX_RETRIES + 1):
        s = node.evaluate(target)
        if s.trunc >= order:
            return s
        target = target + 2 * (order - s.trunc)
    raise InsufficientPrecisionError(
        f"could not reach order {order} after {_MAX_RETRIES} padded retries "
        f"(best truncation {s.trunc})"
    )

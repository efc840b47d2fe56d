"""Expression trees over series-valued primitives, and their evaluation.

Each node evaluates to a :class:`PuiseuxSeries` at a requested
guarantee order.

Product form.  The family atoms -- ``eta``, ``poch``, ``f``, ``H``,
``I``, ``G1``, ``G2``, ``G3`` and ``psi11rhs`` -- are products of
Pochhammer families (through Jacobi's triple product and Ramanujan's
1psi1 summation); each takes its families from :mod:`~qident.blocks` or
:mod:`~qident.lambert`, the rescaling q -> q^r already in the specs.
Three of them fold with a sparse sum factor.  ``f(spec)`` is its theta
sum (:func:`~qident.blocks.theta_sum`) over an empty map, the sum side
of the triple product.  By Jacobi's product for theta_1, G_k(q)
(q; q)_inf is the sparse sum ``T1N(k)``, so ``G1(r)`` and ``G3(r)`` are
T1N(1) and T1N(3) at q^r over (q^r; q^r)_inf.  A ``Mul``/``Pow`` subtree
whose leaves are family atoms, nonzero constants and powers of q folds
into a :class:`Fold`: a constant, a shift q^s, one exponent map
``{PochSpec: Fraction}`` and the sums beside it.  A power of a subtree
whose constant is not 1 does not fold.  Under a power other than a
positive integer, each theta sum enters the map as its triple-product
families (:func:`~qident.blocks.theta_families`), and a subtree with a
theta_1 sum does not fold: a sum to a power is a product of sums only
for a positive integer power.  The unit part below order - s is
:func:`~qident.blocks.expand_map` of the map, which says how a map is
expanded: by fills, powers of them, or the recurrence on its
logarithmic derivative, times the product of the sums; a lone sum to
power 1 is that sum alone, built with no fill.  A folding
factor times an ``Add``/``Sub`` whose terms all fold distributes into one
fold per term when the terms are no more than the family atoms the tree
would expand one by one.  Everything else is evaluated node by node,
where a power is the power recurrence of
:meth:`PuiseuxSeries._power` unless it is a small positive power with
fewer products than unit terms, which is a product (see
:meth:`PuiseuxSeries.__pow__`).  A product that neither folds nor
distributes applies its nonzero ``Const`` and ``QPow`` factors, exact at
every order, last by ``scale`` and ``shift``: its other factors along its
left chain are one node, its core, asked for at the order less the shift.

Node by node, evaluation propagates per-node targets top down: a product
pads each factor by the co-factor's structural leading exponent
(`hint`), and a power ``Pow(base, r)`` of any rational r -- integer
powers, inverses, roots ``x^(1/n)`` and ``x^(a/n)`` alike -- pads its
base to ``order + (1 - r) * hint(base)``, but never below
``hint(base) + 1``, just past the base's leading term.  A division
``x/y`` is the product ``Mul(x, Pow(y, -1))``: the numerator is padded
to ``order + hint(y)`` and the divisor to ``order - hint(x) +
2*hint(y)``, the extra ``hint(y)`` being what inversion consumes.
``phi(r)`` and ``psi(r)`` are theta sums with r in their spec.  Hints
are exact unless a subtraction cancels a leading term inside a
denominator or a power, which no built-in identity does: such a power
asks its base again from the bound it came back zero below, and
:func:`evaluate_to_order` re-runs with a larger target if a result
still falls short (at most 3 retries each).  A folded subtree is exact
below the order it is asked for.

Inside :func:`shared_evaluations` (which :func:`~qident.verify.verify_many`
enters for its whole batch) every evaluation goes through one
:class:`SharedEvaluations` cache keyed on the exact ``(node, order)`` pair.
Nodes are immutable records (:class:`~qident.blocks.Record`) that
compare by structure, as one stored tuple of their fields, and hash
once, so the same subexpression in two identities is expanded once.
Only nodes met at least twice by a walk through what evaluation asks for
(:meth:`Node.asks`: a node's children, or a product's core), which
does not re-enter a node it has met, are stored: the nodes that can be
asked for again.  The unit part of every fold, keyed on its map, sums
and bound, is stored too, as are its map's and each sum's alone: the six
``thm31`` right sides, scaled sums of two folds, expand two, and the two
terms of their left sides fill one map.
Every entry is held until the block exits.  Outside that block nothing
is cached.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterator, NamedTuple, Optional

from . import blocks
from . import lambert as lam
from .blocks import PochSpec, Record, ThetaSpec
from .field import ONE, AlgebraicNumber
from .series import InsufficientPrecisionError, PuiseuxSeries, _fr

_FR = Fraction


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

    def asks(self) -> tuple:
        """The nodes this node's evaluation asks for: by default its children."""
        return tuple(v for v in self._key if isinstance(v, Node))

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
        return Fold(ONE, self.exponent, {}, {})


class Const(Node):
    __slots__ = ()
    value: AlgebraicNumber

    def _evaluate(self, order):
        return PuiseuxSeries.monomial(self.value, 0, max(_fr(order), _FR(1)))

    def hint(self):
        return _FR(0)

    def fold(self):
        return Fold(self.value, _FR(0), {}, {}) if self.value else None


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
    leading exponent.  A family atom (:func:`_family`) also gives its
    product form: `families(arg)` the (PochSpec, power) pairs and
    `sums(arg)` the sparse sums {key: power} (:class:`Fold`) whose
    product is the series divided by q^hint(arg); ``f`` is one theta sum
    and no family.
    """

    kind: str
    build: Callable[[object, object], PuiseuxSeries]
    meaning: str
    hint: Callable[[object], Fraction] = lambda arg: _FR(0)
    families: Optional[Callable[[object], list]] = None
    sums: Callable[[object], dict] = lambda arg: {}

    def fold(self, arg) -> Optional["Fold"]:
        """The product form of this atom at `arg`, None unless a family atom."""
        if self.families is not None:
            return Fold(ONE, self.hint(arg), _merge({}, self.families(arg)),
                        self.sums(arg))


def _family(kind, meaning, families, hint=lambda arg: _FR(0), sums=lambda arg: {}):
    """A primitive that is q^hint(arg) times its Pochhammer families and
    sparse sums, built in product form like any folded tree."""
    prim = Primitive(kind, lambda arg, order: _expand(prim.fold(arg), order),
                     meaning, hint, families, sums)
    return prim


# Builders look their block up at call time, so that a function rebound on
# `blocks` or `lambert` from outside (a tracer) is the one that runs.
PRIMITIVES: dict[str, Primitive] = {
    "eta": _family("r", "`eta(r tau) = q^(r/24) (q^r;q^r)_inf`",
                   blocks.eta_families, lambda r: r / 24),
    "poch": _family("poch", "`prod_{j>=0} (1 + sign q^(a+jb))`",
                    lambda s: [(s, 1)]),
    "f": _family("theta", "theta `f(sign q^a, sign q^b)`, triple-product form",
                 lambda s: [], sums=lambda s: {s: 1}),
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
    "G1": _family("r", "`prod_{n>=1} (1 - sqrt2 q^(rn) + q^(2rn))`",
                  lambda r: [(PochSpec(-1, r, r), -1)], sums=lambda r: {(1, r): 1}),
    "G2": _family("r", "`prod_{n>=1} (1 + q^(2rn))`",
                  blocks.g2_families),
    "G3": _family("r", "`prod_{n>=1} (1 + sqrt2 q^(rn) + q^(2rn))`",
                  lambda r: [(PochSpec(-1, r, r), -1)], sums=lambda r: {(3, r): 1}),
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
        "1psi1 sum `sum_j z^j/(1 - x q^j)`, `x = q^alpha`, `z = q^beta`, base `q^s`",
        lambda s: min(_FR(0), s.base - s.x_exp - s.z_exp)),  # the j = -1 term
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
        const, shift, core = self._split()
        if core is not self:
            return core.evaluate(order - shift).scale(const).shift(shift)
        lh, rh = self.left.hint(), self.right.hint()
        return self.left.evaluate(order - rh) * self.right.evaluate(order - lh)

    def hint(self):
        return self.left.hint() + self.right.hint()

    def _split(self):
        """(const, shift, core): the nonzero Const factors along the left
        chain of this product multiplied, its QPow exponents summed, and the
        product of its other factors in order; or (1, 0, self) when it has
        no such factor, or no other."""
        factors, node = [], self
        while isinstance(node, Mul):
            factors[:0], node = [node.right], node.left
        const, shift, rest = ONE, _FR(0), []
        for x in [node] + factors:
            if isinstance(x, QPow):
                shift += x.exponent
            elif isinstance(x, Const) and x.value:
                const = const * x.value
            else:
                rest.append(x)
        if not rest or len(rest) > len(factors):
            return ONE, _FR(0), self
        return const, shift, reduce(Mul, rest)

    def asks(self):
        core = self._split()[2]
        return super().asks() if core is self else (core,)

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
        for _ in range(_MAX_RETRIES + 1):
            base = self.base.evaluate(max(order + (1 - self.r) * h, h + 1))
            if base or self.r > 0 and self.r.denominator == 1:
                break
            h = base.trunc  # zero below it by cancellation: the leading term is at or past it
        return base ** self.r

    def hint(self):
        return self.r * self.base.hint()

    def fold(self):
        # a constant other than 1 stays on the tree: its root may not exist,
        # and c**r for a large integer r would be computed before any budget
        # is checked, where the power recurrence stops at its word cap; only
        # a positive integer power keeps a sum a product of sums, so under
        # any other a theta sum enters the map as its families, and a tree
        # with a theta_1 sum, which no PochSpec map expresses, does not fold
        base, r = self.base.fold(), self.r
        if base is None or base.const != ONE:
            return None
        powers, sums = base.powers, base.sums
        if sums and (r <= 0 or r.denominator > 1):
            if not all(isinstance(key, ThetaSpec) for key in sums):
                return None
            powers, sums = _merge(powers, (
                pair for spec, p in sums.items()
                for pair in blocks.theta_families(spec, p))), {}
        return Fold(ONE, r * base.shift,
                    {spec: r * e for spec, e in powers.items()} if r else {},
                    {key: int(r) * p for key, p in sums.items()})


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
    """const * q^shift * prod_spec (spec)^power over `powers` * the
    product of `sums`: the product form of a Mul/Pow tree whose leaves
    are family atoms, nonzero constants and powers of q.  `powers` maps
    each :class:`~qident.blocks.PochSpec` to its nonzero rational power.
    `sums` maps each sparse sum to its positive integer power p: a
    :class:`~qident.blocks.ThetaSpec` to the theta sum f(spec)
    (:func:`~qident.blocks.theta_sum`), and a pair (k, r) to T1N(k) at
    q^r (:func:`~qident.blocks.theta1_normalized`)."""

    const: AlgebraicNumber
    shift: Fraction
    powers: dict
    sums: dict


def _merge(powers: dict, pairs) -> dict:
    """The map `powers` times the (key, power) `pairs`, a PochSpec's or a
    sum's: powers of equal keys add, and zero powers drop out."""
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
                _merge(a.powers, b.powers.items()), _merge(a.sums, b.sums.items()))


def _expand(fold: Fold, order) -> PuiseuxSeries:
    """The series of `fold` below `order`: its :func:`_unit`, scaled and shifted."""
    unit = _fr(order) - fold.shift
    return _unit(fold.powers, fold.sums, unit).scale(fold.const).shift(fold.shift)


def _unit(powers: dict, sums: dict, unit: Fraction) -> PuiseuxSeries:
    """:func:`~qident.blocks.expand_map` of `powers` below `unit` times the
    narrow product of `sums`, each theta sum f(spec) below `unit` and each
    T1N(k) below unit/r at q^r to its power; stored in a batch with the
    map alone and each sum alone.  A lone sum to power 1 is the sum."""
    shared = _SHARED.get()
    if shared is not None:  # keyed only in a batch: the key costs microseconds
        key = (frozenset(powers.items()), frozenset(sums.items()), unit)
        if key in shared.products:
            return shared.products[key]
    if not sums or unit <= 0:
        s = blocks.expand_map(powers, unit)
    elif not powers and list(sums.values()) == [1]:
        (one,) = sums
        if isinstance(one, ThetaSpec):
            s = blocks.theta_sum(one, unit)
        else:
            k, r = one
            s = blocks.theta1_normalized(k, unit / r).substitute(r)
    else:
        # the map first, so that its refusals come first
        m = _unit(powers, {}, unit) if powers else None
        s = reduce(PuiseuxSeries.__mul__, (
            _unit({}, {ks: 1}, unit) ** p for ks, p in sums.items()))
        s = s if m is None else m * s
    if shared is not None:
        shared.products[key] = s
    return s


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

    One walk over the batch's trees, which enters the nodes a node's
    evaluation asks for (:meth:`Node.asks`) only the first time it meets
    the node, finds the nodes it meets at least twice: the only ones that
    can be asked for again, since an occurrence inside a stored parent is
    answered by the parent.  Each such node's result is stored under
    ``(node, order)`` and held until the :func:`shared_evaluations` block
    exits; any other node is evaluated directly.  `products` holds every unit part :func:`_unit` makes,
    under (map, sums, bound), as long.
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
                stack.extend(n.asks())
        self.entries: dict[tuple[Node, Fraction], PuiseuxSeries] = {}
        self.products: dict[tuple[frozenset, frozenset, Fraction], PuiseuxSeries] = {}

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

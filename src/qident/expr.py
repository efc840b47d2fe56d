"""Expression trees over series-valued primitives, and their evaluation.

Each node evaluates to a :class:`~qident.series.PuiseuxSeries` at a
requested guarantee order.  A primitive with a substitution exponent r
(``eta(8)``, ``G1(1/2)``) is its block at q, expanded to order/r and
taken through q -> q^r by the same substitution as ``subst``.  Evaluation propagates per-node targets top
down: a product pads each factor by the co-factor's structural leading
exponent (`hint`), and a power ``Pow(base, r)`` of any rational r --
integer powers, inverses, roots ``x^(1/n)`` and ``x^(a/n)`` alike --
pads its base to ``order + (1 - r) * hint(base)``, but never below
``hint(base) + 1``, just past the base's leading term.  A division ``x/y``
is the product ``Mul(x, Pow(y, -1))``: the numerator is padded to
``order + hint(y)`` and the divisor to ``order - hint(x) + 2*hint(y)``,
the extra ``hint(y)`` being what inversion consumes.  Hints are exact
unless a subtraction cancels a leading term inside a denominator or a
power, which no built-in identity does; :func:`evaluate_to_order`
re-runs with a larger target (at most 3 retries) if a result still falls
short.

Inside :func:`shared_evaluations` (which :func:`~qident.verify.verify_many`
enters for its whole batch) every evaluation goes through one
:class:`SharedEvaluations` cache keyed on the exact ``(node, order)`` pair.
Nodes are frozen dataclasses that compare by structure and hash once, so
the same subexpression in two identities is expanded once.  Only nodes
that occur at least twice in the batch are stored, and every entry is
held until the block exits.  Outside that block nothing is cached.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from . import blocks
from . import lambert as lam
from .field import ONE, AlgebraicNumber
from .series import InsufficientPrecisionError, PuiseuxSeries, _fr

_FR = Fraction


class Node:
    """Base of all identity-expression nodes."""

    __slots__ = ()

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

    def __hash__(self):
        # The hash of the node's class and fields, computed once: the
        # dataclass hash would rehash the whole subtree on every call.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((type(self).__name__,
                      *(getattr(self, f) for f in self.__dataclass_fields__)))
            object.__setattr__(self, "_hash", h)
        return h

    def depth(self) -> int:
        """Levels of the tree under this node, 1 for a leaf; computed once,
        so a tree built bottom up is measured one level at a time.  Fields
        are read by name: `vars` would give every node a dict of its own."""
        d = getattr(self, "_depth", None)
        if d is None:
            fields = (getattr(self, f) for f in self.__dataclass_fields__)
            d = 1 + max((v.depth() for v in fields if isinstance(v, Node)),
                        default=0)
            object.__setattr__(self, "_depth", d)
        return d


def _node(cls):
    """Make `cls` a frozen dataclass that compares by structure and keeps
    the hash of :meth:`Node.__hash__`."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Node.__hash__
    return cls


# -- leaves ----------------------------------------------------------------


@_node
class QPow(Node):
    exponent: Fraction

    def _evaluate(self, order):
        order = _fr(order)
        return PuiseuxSeries.monomial(ONE, self.exponent, max(order, self.exponent + 1))

    def hint(self):
        return self.exponent


@_node
class Const(Node):
    value: AlgebraicNumber

    def _evaluate(self, order):
        return PuiseuxSeries.monomial(self.value, 0, max(_fr(order), _FR(1)))

    def hint(self):
        return _FR(0)


def _polynomial(s: PuiseuxSeries, order) -> PuiseuxSeries:
    # a polynomial is exact at every order
    trunc = max(_fr(order), s.trunc)
    if not s.slots:
        return PuiseuxSeries.zero(trunc)
    return PuiseuxSeries._make(s.m, s.den, s.d, s.slots, trunc)


@dataclass(frozen=True)
class Primitive:
    """One named series of the DSL, taking exactly one argument.

    `kind` names the argument: "r" (a substitution exponent: the series
    is built at q and taken to q -> q^r by :func:`_rescaled`), "k" (an
    index 1..3), or a spec: "poch", "theta", "lambert", "bilateral", or
    "bilateral_product" (a bilateral spec with alpha + beta < s).
    `build(arg, order)` expands the series, `meaning` is its line in the
    DSL atom table and `hint(arg)` its structural leading exponent.
    """

    kind: str
    build: Callable[[object, object], PuiseuxSeries]
    meaning: str
    hint: Callable[[object], Fraction] = lambda arg: _FR(0)


def _rescaled(name: str, *args):
    """The build of an "r" atom: ``blocks.<name>(*args, order)`` expands
    the series at q, and q -> q^r takes it to the atom's argument."""
    return lambda r, order: getattr(blocks, name)(*args, _fr(order) / r).substitute(r)


# Builders look their block up at call time, so that a function rebound on
# `blocks` or `lambert` from outside (a tracer) is the one that runs.
PRIMITIVES: dict[str, Primitive] = {
    "eta": Primitive("r", _rescaled("eta"),
                     "`eta(r tau) = q^(r/24) (q^r;q^r)_inf`", lambda m: m / 24),
    "poch": Primitive("poch", lambda s, o: blocks.pochhammer(s, o),
                      "`prod_{j>=0} (1 + sign q^(a+jb))`"),
    "f": Primitive("theta", lambda s, o: blocks.theta_product(s, o),
                   "theta `f(sign q^a, sign q^b)`, triple-product form"),
    "fsum": Primitive("theta", lambda s, o: blocks.theta_sum(s, o),
                      "the same theta function as a bilateral sum"),
    "phi": Primitive("r", _rescaled("phi"), "`phi(q^r) = f(q^r, q^r)`"),
    "psi": Primitive("r", _rescaled("psi"), "`psi(q^r) = f(q^r, q^3r)`"),
    "H": Primitive("r", _rescaled("h_series"),
                   "Gollnitz-Gordon fraction product side `h(q^r)`", lambda r: r / 2),
    "I": Primitive("r", _rescaled("i_series"),
                   "order-four fraction product side `i(q^r)`"),
    "G1": Primitive("r", _rescaled("gamma_k", 1),
                    "`prod_{n>=1} (1 - sqrt2 q^(rn) + q^(2rn))`"),
    "G2": Primitive("r", _rescaled("gamma_k", 2),
                    "`prod_{n>=1} (1 + q^(2rn))`"),
    "G3": Primitive("r", _rescaled("gamma_k", 3),
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
    "psi11rhs": Primitive(
        "bilateral_product", lambda s, o: lam.bilateral_1psi1_rhs(s, o),
        "1psi1 product side of the same sum, for `alpha + beta < s`"),
}


@_node
class Prim(Node):
    """A named primitive series from :data:`PRIMITIVES` at its argument."""

    name: str
    arg: object

    def _evaluate(self, order):
        return PRIMITIVES[self.name].build(self.arg, order)

    def hint(self):
        return PRIMITIVES[self.name].hint(self.arg)


# -- composites ----------------------------------------------------------


@_node
class Add(Node):
    left: Node
    right: Node

    def _evaluate(self, order):
        return self.left.evaluate(order) + self.right.evaluate(order)

    def hint(self):
        return min(self.left.hint(), self.right.hint())


@_node
class Sub(Node):
    left: Node
    right: Node

    def _evaluate(self, order):
        return self.left.evaluate(order) - self.right.evaluate(order)

    def hint(self):
        return min(self.left.hint(), self.right.hint())


@_node
class Mul(Node):
    left: Node
    right: Node

    def _evaluate(self, order):
        order = _fr(order)
        lh, rh = self.left.hint(), self.right.hint()
        return self.left.evaluate(order - rh) * self.right.evaluate(order - lh)

    def hint(self):
        return self.left.hint() + self.right.hint()


@_node
class Pow(Node):
    """base ** r for a rational r; unless r is an integer the base's
    leading coefficient must be exactly 1."""

    base: Node
    r: Fraction

    def _evaluate(self, order):
        # a power keeps the bound of its base's unit part and moves the
        # leading exponent from m to r*m, so the base needs order + (1-r)*m;
        # it is never asked for less than its leading term
        order = _fr(order)
        if not self.r:
            return PuiseuxSeries.one(max(order, _FR(1)))
        h = self.base.hint()
        return self.base.evaluate(max(order + (1 - self.r) * h, h + 1)) ** self.r

    def hint(self):
        return self.r * self.base.hint()


@_node
class Subst(Node):
    """q -> q^r applied to a whole subexpression."""

    base: Node
    r: Fraction

    def _evaluate(self, order):
        return self.base.evaluate(_fr(order) / self.r).substitute(self.r)

    def hint(self):
        return self.base.hint() * self.r


def _occurrences(node: Node) -> Iterator[Node]:
    """Every node of the tree under `node`, once per position."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(v for v in vars(n).values() if isinstance(v, Node))


class SharedEvaluations:
    """Evaluation results shared across the expression trees of one batch.

    One count over the batch's trees finds the nodes that occur at least
    twice.  Each such node's result is stored under ``(node, order)`` and
    held until the :func:`shared_evaluations` block exits; a node that
    occurs once is evaluated directly.
    """

    def __init__(self, roots):
        counts = Counter(n for root in roots for n in _occurrences(root))
        self.repeated = {n for n, c in counts.items() if c > 1}
        self.entries: dict[tuple[Node, Fraction], PuiseuxSeries] = {}

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

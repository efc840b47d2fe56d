"""Expression trees over series-valued primitives, and their evaluation.

Each node evaluates to a :class:`~qident.series.PuiseuxSeries` at a
requested guarantee order.  Evaluation propagates per-node targets top
down: multiplicative nodes pad their children by the co-factor's
structural leading exponent (`hint`), divisions and roots add the extra
amount their truncation rules consume.  Hints are exact unless a
subtraction cancels a leading term inside a denominator or root, which
no built-in identity does; :func:`evaluate_to_order` re-runs with a
larger target (at most 3 retries) if a result still falls short.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import blocks
from . import lambert as lam
from .field import ONE, AlgebraicNumber
from .series import InsufficientPrecisionError, PuiseuxSeries

_FR = Fraction


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Node:
    """Base of all identity-expression nodes."""

    __slots__ = ()

    def evaluate(self, order) -> PuiseuxSeries:
        raise NotImplementedError

    def hint(self) -> Fraction:
        """Structural estimate of the leading exponent."""
        raise NotImplementedError


# -- leaves ----------------------------------------------------------------


@dataclass(frozen=True)
class QPow(Node):
    exponent: Fraction

    def evaluate(self, order):
        order = _fr(order)
        return PuiseuxSeries.monomial(ONE, self.exponent, max(order, self.exponent + 1))

    def hint(self):
        return self.exponent


@dataclass(frozen=True)
class Const(Node):
    value: AlgebraicNumber

    def evaluate(self, order):
        return PuiseuxSeries.monomial(self.value, 0, max(_fr(order), _FR(1)))

    def hint(self):
        return _FR(0)


def _polynomial(s: PuiseuxSeries, order) -> PuiseuxSeries:
    # a polynomial is exact at every order
    return PuiseuxSeries(dict(s.terms), max(_fr(order), s.trunc))


@dataclass(frozen=True)
class Primitive:
    """One named series of the DSL, taking exactly one argument.

    `kind` names the argument: "r" (a substitution exponent), "k" (an
    index 1..3), or a spec: "poch", "theta", "lambert", "bilateral".
    `build(arg, order)` expands the series, `meaning` is its line in the
    DSL atom table and `hint(arg)` its structural leading exponent.
    """

    kind: str
    build: Callable[[object, object], PuiseuxSeries]
    meaning: str
    hint: Callable[[object], Fraction] = lambda arg: _FR(0)


# Builders look their block up at call time, so that a function rebound on
# `blocks` or `lambert` from outside (a tracer) is the one that runs.
PRIMITIVES: dict[str, Primitive] = {
    "eta": Primitive("r", lambda m, o: blocks.eta(m, o),
                     "`eta(r tau) = q^(r/24) (q^r;q^r)_inf`", lambda m: m / 24),
    "poch": Primitive("poch", lambda s, o: blocks.pochhammer(s, o),
                      "`prod_{j>=0} (1 + sign q^(a+jb))`"),
    "f": Primitive("theta", lambda s, o: blocks.theta_product(s, o),
                   "theta `f(sign q^a, sign q^b)`, triple-product form"),
    "fsum": Primitive("theta", lambda s, o: blocks.theta_sum(s, o),
                      "the same theta function as a bilateral sum"),
    "phi": Primitive("r", lambda r, o: blocks.phi(r, o), "`phi(q^r) = f(q^r, q^r)`"),
    "psi": Primitive("r", lambda r, o: blocks.psi(r, o), "`psi(q^r) = f(q^r, q^3r)`"),
    "H": Primitive("r", lambda r, o: blocks.h_series(o, r),
                   "Gollnitz-Gordon fraction product side `h(q^r)`", lambda r: r / 2),
    "I": Primitive("r", lambda r, o: blocks.i_series(o, r),
                   "order-four fraction product side `i(q^r)`"),
    "G1": Primitive("r", lambda r, o: blocks.gamma_k(1, o, r),
                    "`prod_{n>=1} (1 - sqrt2 q^(rn) + q^(2rn))`"),
    "G2": Primitive("r", lambda r, o: blocks.gamma_k(2, o, r),
                    "`prod_{n>=1} (1 + q^(2rn))`"),
    "G3": Primitive("r", lambda r, o: blocks.gamma_k(3, o, r),
                    "`prod_{n>=1} (1 + sqrt2 q^(rn) + q^(2rn))`"),
    "T1N": Primitive("k", lambda k, o: blocks.theta1_normalized(k, o),
                     "`theta_1(k pi/8) / (2 q^(1/8) sin(k pi/8))`"),
    "btable": Primitive("k", lambda k, o: _polynomial(blocks.b_table_series(k, 32), o),
                        "difference-table polynomial `sum_{j<32} B_k(j) q^j`"),
    "lambert": Primitive(
        "lambert", lambda s, o: lam.lambert_sum(s, o),
        "`sum_{m = r mod s} w(m) sum_i +-q^(a_i m)/(1 - q^(bm))`; `w(m)` is 1,"
        " `m` (`w` = `m`) or the Legendre symbol (m/p) (`w` = `legendre(p)`)",
        lambda s: _FR(s.leading_exponent())),
    "psi11lhs": Primitive(
        "bilateral", lambda s, o: lam.bilateral_1psi1_lhs(s, o),
        "1psi1 sum `sum_j z^j/(1 - x q^j)`, `x = q^alpha`, `z = q^beta`, base `q^s`"),
    "psi11rhs": Primitive("bilateral", lambda s, o: lam.bilateral_1psi1_rhs(s, o),
                          "1psi1 product side of the same sum"),
}


@dataclass(frozen=True)
class Prim(Node):
    """A named primitive series from :data:`PRIMITIVES` at its argument."""

    name: str
    arg: object

    def evaluate(self, order):
        return PRIMITIVES[self.name].build(self.arg, order)

    def hint(self):
        return PRIMITIVES[self.name].hint(self.arg)


# -- composites ----------------------------------------------------------


@dataclass(frozen=True)
class Add(Node):
    left: Node
    right: Node

    def evaluate(self, order):
        return self.left.evaluate(order) + self.right.evaluate(order)

    def hint(self):
        return min(self.left.hint(), self.right.hint())


@dataclass(frozen=True)
class Sub(Node):
    left: Node
    right: Node

    def evaluate(self, order):
        return self.left.evaluate(order) - self.right.evaluate(order)

    def hint(self):
        return min(self.left.hint(), self.right.hint())


@dataclass(frozen=True)
class Mul(Node):
    left: Node
    right: Node

    def evaluate(self, order):
        order = _fr(order)
        lh, rh = self.left.hint(), self.right.hint()
        return self.left.evaluate(order - rh) * self.right.evaluate(order - lh)

    def hint(self):
        return self.left.hint() + self.right.hint()


@dataclass(frozen=True)
class Div(Node):
    left: Node
    right: Node

    def evaluate(self, order):
        # num * inv(den): inversion costs 2*m_den of truncation, the
        # product another m_num / (-m_den)
        order = _fr(order)
        lh, rh = self.left.hint(), self.right.hint()
        num = self.left.evaluate(order + rh)
        den = self.right.evaluate(order - lh + 2 * rh)
        return num * den.inverse()

    def hint(self):
        return self.left.hint() - self.right.hint()


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    n: int

    def evaluate(self, order):
        order = _fr(order)
        bh = self.base.hint()
        if self.n == 0:
            return PuiseuxSeries.one(max(order, _FR(1)))
        if self.n > 0:
            target = order - (self.n - 1) * bh
        else:
            target = order + (-self.n + 1) * bh
        return self.base.evaluate(target) ** self.n

    def hint(self):
        return self.n * self.base.hint()


@dataclass(frozen=True)
class Root(Node):
    base: Node
    n: int

    def evaluate(self, order):
        order = _fr(order)
        bh = self.base.hint()
        return self.base.evaluate(order + bh - bh / self.n).nth_root(self.n)

    def hint(self):
        return self.base.hint() / self.n


@dataclass(frozen=True)
class Subst(Node):
    """q -> q^r applied to a whole subexpression."""

    base: Node
    r: Fraction

    def evaluate(self, order):
        return self.base.evaluate(_fr(order) / self.r).substitute(self.r)

    def hint(self):
        return self.base.hint() * self.r


def evaluate_to_order(node: Node, order, max_retries: int = 3) -> PuiseuxSeries:
    """Evaluate with automatic padding until trunc >= order.

    The first pass usually lands exactly; a hint thrown off by leading
    cancellation shows up as a short result and triggers a padded retry.
    """
    order = _fr(order)
    target = order
    for _ in range(max_retries + 1):
        s = node.evaluate(target)
        if s.trunc >= order:
            return s
        target = target + 2 * (order - s.trunc)
    raise InsufficientPrecisionError(
        f"could not reach order {order} after {max_retries} padded retries "
        f"(best truncation {s.trunc})"
    )

"""Named q-series building blocks.

Everything here produces a :class:`~qident.series.PuiseuxSeries`:
q-Pochhammer products, the two-variable theta function f (bilateral sum
and triple-product forms), eta quotients realized purely as q-expansions
(q^{m/24} (q^m;q^m)_inf — the upper-half-plane variable never appears),
the trinomial products G_k, exact sine-ratio tables, the normalized
theta_1 specializations, and the two continued-fraction product sides
h and i.

eta, phi, psi, G_k, h and i are built at q only.  Their rescalings
q -> q^r, which the paper uses (G_k(q^(1/2)), h(q^2), eta(16 tau)), are
the DSL atoms of :data:`qident.expr.PRIMITIVES`: each expands its block
to order/r and applies :meth:`~qident.series.PuiseuxSeries.substitute`.

Every product or quotient of Pochhammer families -- a single Pochhammer,
eta, the triple-product form of f, h, i, and the 1psi1 product side in
:mod:`qident.lambert` -- is filled in place on one dense int array by
:func:`poch_quotient`, one factor pass at a time, with no series product,
no inverse and no Fraction per intermediate slot.  The sums (theta sums,
theta_1 specializations, B tables) count their exponents on an integer
grid and their coefficients as integer pairs x + y*sqrt2, and every
builder hands the canonical slot form to the series directly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .field import SQRT2, AlgebraicNumber
from .series import PuiseuxSeries, _fr, dense_slots

_FR = Fraction

# beta_k = -2*cos(2*k*pi/8) for k = 1, 2, 3: exactly -sqrt2, 0, sqrt2.
BETA = {1: -SQRT2, 2: AlgebraicNumber(0), 3: SQRT2}


@dataclass(frozen=True)
class PochSpec:
    """The product prod_{j>=0} (1 + sign*q^{offset + j*step}).

    ``PochSpec(-1, a, b)`` is the classical (q^a; q^b)_inf; the +1 sign
    gives (-q^a; q^b)_inf.  Positive offset and step guarantee formal
    convergence.
    """

    sign: int
    offset: Fraction
    step: Fraction

    def __post_init__(self):
        object.__setattr__(self, "offset", _fr(self.offset))
        object.__setattr__(self, "step", _fr(self.step))
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.offset <= 0 or self.step <= 0:
            raise ValueError("offset and step must be positive")


@dataclass(frozen=True)
class ThetaSpec:
    """f(sign1*q^a, sign2*q^b) for the bilateral theta sum."""

    sign1: int
    sign2: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _fr(self.a))
        object.__setattr__(self, "b", _fr(self.b))
        if self.sign1 not in (1, -1) or self.sign2 not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        if self.a <= 0 or self.b <= 0:
            raise ValueError("theta arguments need positive exponents")


def poch_quotient(families, order) -> PuiseuxSeries:
    """prod of pochhammer(spec)**power over (spec, power) pairs, below `order`.

    The whole product or quotient fills one dense int array on the common
    grid of every offset and step, starting from 1; equal specs with
    opposite powers cancel first.  Each factor (1 + sign*q^e) with e below
    `order`, at slot off, enters |power| times.  Multiplying by it is the
    descending pass c[k] += sign*c[k - off], run as one slice update on the
    old values; dividing by it is the ascending pass
    c[k] -= sign*c[k - off] on the new ones, run as slice updates of off
    slots at a time, each taking the updated block before it.  The array
    starts with 1, so every coefficient stays an integer.  Each pass
    visits n - off of the n slots; their total is summed in closed form
    per family and checked against the budgets before the array is
    allocated.
    """
    order = _fr(order)
    if order <= 0:
        return PuiseuxSeries.zero(order)
    powers: dict[PochSpec, int] = {}
    for spec, p in families:
        powers[spec] = powers.get(spec, 0) + p
    den = math.lcm(1, *(x.denominator for spec in powers
                        for x in (spec.offset, spec.step)))
    grid = [(spec.sign, int(spec.offset * den), int(spec.step * den), p)
            for spec, p in powers.items() if p]

    # the factors at slots first + j*step < n visit n - first - j*step slots
    def steps(n):
        work = 0
        for _, first, step, p in grid:
            f = max(0, -(-(n - first) // step))
            work += abs(p) * (f * (n - first) - step * f * (f - 1) // 2)
        return work

    n = dense_slots(order * den, steps)
    c = [0] * n
    c[0] = 1
    for sign, first, step, p in grid:
        op = operator.add if sign > 0 else operator.sub
        inv = operator.sub if sign > 0 else operator.add
        for off in range(first, n, step):
            for _ in range(p):
                c[off:] = list(map(op, c[off:], c))
            for _ in range(-p):
                for s in range(off, n, off):
                    c[s:s + off] = map(inv, c[s:s + off], c[s - off:s])
    return PuiseuxSeries.from_slots(0, den, c, None, order)


def pochhammer(spec: PochSpec, order) -> PuiseuxSeries:
    """Expand prod (1 + sign*q^{offset+j*step}) below `order`.

    Exactly the factors with exponent < order enter; later factors are
    congruent to 1 at this truncation.  One family of :func:`poch_quotient`.
    """
    return poch_quotient([(spec, 1)], order)


def theta_sum(spec: ThetaSpec, order) -> PuiseuxSeries:
    """Bilateral sum of gamma^{j(j+1)/2} delta^{j(j-1)/2} below `order`.

    With both exponents positive the term exponent a*j(j+1)/2 + b*j(j-1)/2
    is strictly increasing in |j| in each direction, so each direction
    stops at the first term at or above the truncation.  It exceeds
    (a+b)(|j| - 1)^2 / 2, which bounds the term count before the loop;
    the bound counts as slots against MAX_DENSE_SLOTS, the cap on a dense
    builder's output.  Exponents are counted as ints on the grid
    1/lcm(den a, den b), so a grid far finer than the cap still expands.
    """
    order = _fr(order)
    s1, s2 = spec.sign1, spec.sign2
    terms = 2 * math.isqrt(max(0, math.floor(2 * order / (spec.a + spec.b)))) + 3
    dense_slots(terms)
    den = math.lcm(spec.a.denominator, spec.b.denominator)
    a, b, n = int(spec.a * den), int(spec.b * den), math.ceil(order * den)
    acc: dict[int, int] = {}
    for j, step in ((0, 1), (-1, -1)):
        while True:
            t1 = j * (j + 1) // 2
            t2 = j * (j - 1) // 2
            e = a * t1 + b * t2
            if e >= n:
                break
            c = (s1 if t1 % 2 else 1) * (s2 if t2 % 2 else 1)
            acc[e] = acc.get(e, 0) + c
            j += step
    return PuiseuxSeries._reduced(
        _FR(0), den, 1, {e: (c, 0) for e, c in sorted(acc.items()) if c}, order)


def _triple_product(spec: ThetaSpec, power: int) -> list:
    """f(spec) as Pochhammer families (-g; gd)(-d; gd)(gd; gd), each to `power`.

    A negative product base gd (mixed argument signs) makes the factor
    signs alternate with the index, so each of the three products splits
    into its even- and odd-index halves over the doubled step.
    """
    a, b, s1, s2 = spec.a, spec.b, spec.sign1, spec.sign2
    st = a + b
    if s1 * s2 == 1:
        parts = [(s1, a, st), (s2, b, st), (-1, st, st)]
    else:
        parts = [(s1, a, 2 * st), (-s1, a + st, 2 * st), (s2, b, 2 * st),
                 (-s2, b + st, 2 * st), (1, st, 2 * st), (-1, 2 * st, 2 * st)]
    return [(PochSpec(sign, offset, st), power) for sign, offset, st in parts]


def theta_product(spec: ThetaSpec, order) -> PuiseuxSeries:
    """Triple-product form of f(spec): its Pochhammer families filled in
    one array by :func:`poch_quotient`, independent of :func:`theta_sum`."""
    return poch_quotient(_triple_product(spec, 1), order)


def eta(order) -> PuiseuxSeries:
    """eta(tau) = q^{1/24} (q; q)_inf."""
    return pochhammer(PochSpec(-1, 1, 1), _fr(order) - _FR(1, 24)).shift(_FR(1, 24))


def gamma_k(k: int, order) -> PuiseuxSeries:
    """G_k(q) = prod_{n>=1} (1 + beta_k q^n + q^{2n}), factors below order.

    G_2(q) = (-q^2; q^2)_inf is one Pochhammer family.  G_1 has
    coefficients in Z[sqrt2] (beta_1 = -sqrt2), so its expansion runs in
    place on a pair of dense int arrays; multiplying by sqrt2 swaps the
    parts with a factor 2 on one side.  G_3 is G_1 under sqrt2 -> -sqrt2,
    which maps beta_1 to beta_3: G_1 with its sqrt2 part negated.
    """
    if k == 2:
        return pochhammer(PochSpec(1, 2, 2), order)
    if k not in (1, 3):
        raise ValueError("G_k needs k = 1, 2 or 3")
    order = _fr(order)
    if order <= 0:
        return PuiseuxSeries.zero(order)
    # factor m, at slot m < n, visits n - m slots
    n = dense_slots(order, lambda n: n * (n - 1) // 2)
    rp = [0] * n
    ip = [0] * n
    rp[0] = 1
    for off1 in range(1, n):
        off2 = 2 * off1
        for j in range(n - 1, off1 - 1, -1):
            j1 = j - off1
            rp[j] -= 2 * ip[j1]
            ip[j] -= rp[j1]
            j2 = j - off2
            if j2 >= 0:
                rp[j] += rp[j2]
                ip[j] += ip[j2]
    if k == 3:
        ip = [-y for y in ip]
    return PuiseuxSeries.from_slots(0, 1, rp, ip, order)


def sine_ratio_table(k: int, count: int) -> list[tuple[int, int]]:
    """r_j = sin((2j+1)k*pi/8) / sin(k*pi/8) for j < count, as integer
    pairs (x, y) = x + y*sqrt2.

    r_0 = 1, r_1 = 1 + t*sqrt2 and r_{j+1} = t*sqrt2*r_j - r_{j-1}, where
    t*sqrt2 = 2cos(2k*pi/8) is sqrt2, 0, -sqrt2 for k = 1, 2, 3, so every
    ratio lies in Z[sqrt2].
    """
    t = -int(BETA[k].irr)
    values = [(1, 0), (1, t)]
    while len(values) < count:
        (xp, yp), (x, y) = values[-2:]
        values.append((2 * t * y - xp, t * x - yp))
    return values[:count]


def b_value(i: int, k: int) -> AlgebraicNumber:
    """Exact value of the k-th entry of the difference table B_i."""
    return b_table_series(i, k + 1).coefficient(k)


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
    (q;q)_inf * G_k(q).  Its term bound counts as slots against
    MAX_DENSE_SLOTS, as :func:`theta_sum`'s does.
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


def h_series(order) -> PuiseuxSeries:
    """h(q) = q^{1/2} f(-q, -q^7) / f(-q^3, -q^5).

    Both triple products go into one :func:`poch_quotient`, the divisor's
    families with power -1; their common (q^8; q^8) cancels.
    """
    return poch_quotient(
        _triple_product(ThetaSpec(-1, -1, 1, 7), 1)
        + _triple_product(ThetaSpec(-1, -1, 3, 5), -1),
        _fr(order) - _FR(1, 2),
    ).shift(_FR(1, 2))


def i_series(order) -> PuiseuxSeries:
    """i(q) = f(-q, -q^3) / f(-q^2, -q^2).

    One :func:`poch_quotient` as for :func:`h_series`; the common
    (q^4; q^4) cancels.
    """
    return poch_quotient(
        _triple_product(ThetaSpec(-1, -1, 1, 3), 1)
        + _triple_product(ThetaSpec(-1, -1, 2, 2), -1),
        order,
    )


def phi(order) -> PuiseuxSeries:
    """phi(q) = f(q, q) = sum q^{j^2}."""
    return theta_sum(ThetaSpec(1, 1, 1, 1), order)


def psi(order) -> PuiseuxSeries:
    """psi(q) = f(q, q^3) = sum_{j>=0} q^{j(j+1)/2}."""
    return theta_sum(ThetaSpec(1, 1, 1, 3), order)

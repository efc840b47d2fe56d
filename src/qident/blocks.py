"""Named q-series building blocks.

Everything here produces a :class:`~qident.series.PuiseuxSeries`:
q-Pochhammer products, the two-variable theta function f (bilateral sum
and triple-product forms), eta quotients realized purely as q-expansions
(q^{m/24} (q^m;q^m)_inf — the upper-half-plane variable never appears),
the trinomial products G_k, exact sine-ratio tables, the normalized
theta_1 specializations, and the two continued-fraction product sides
h and i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .field import ONE, SQRT2, AlgebraicNumber
from .series import PuiseuxSeries, dense_slots

_FR = Fraction

# beta_k = -2*cos(2*k*pi/8) for k = 1, 2, 3: exactly -sqrt2, 0, sqrt2.
BETA = {1: -SQRT2, 2: AlgebraicNumber(0), 3: SQRT2}


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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


@dataclass(frozen=True)
class EtaQuotient:
    """prod_i eta(m_i tau)^{p_i} with positive rational multipliers."""

    factors: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        fs = tuple((_fr(m), _fr(p)) for m, p in self.factors)
        object.__setattr__(self, "factors", fs)
        if any(m <= 0 for m, _ in fs):
            raise ValueError("eta multipliers must be positive")

    def leading_exponent(self) -> Fraction:
        return sum((p * m / 24 for m, p in self.factors), _FR(0))


@dataclass(frozen=True)
class SineRatioTable:
    """Exact values r_j = sin((2j+1)k*pi/8) / sin(k*pi/8), j = 0..J."""

    k: int
    values: tuple[AlgebraicNumber, ...]


def pochhammer(spec: PochSpec, order) -> PuiseuxSeries:
    """Expand prod (1 + sign*q^{offset+j*step}) below `order`.

    Exactly the factors with exponent < order are multiplied in; later
    factors are congruent to 1 at this truncation.  Intermediate
    coefficients are integers, so the expansion runs on a dense int array.
    """
    order = _fr(order)
    if order <= 0:
        return PuiseuxSeries.zero(order)
    den = (spec.offset.denominator * spec.step.denominator) // math.gcd(
        spec.offset.denominator, spec.step.denominator
    )
    n = dense_slots(order * den)
    coeffs = [0] * n
    coeffs[0] = 1
    sign = spec.sign
    e = spec.offset
    while e < order:
        off = int(e * den)
        for k in range(n - 1 - off, -1, -1):
            c = coeffs[k]
            if c:
                coeffs[k + off] += sign * c
        e += spec.step
    return PuiseuxSeries(
        {_FR(k, den): c for k, c in enumerate(coeffs) if c}, order
    )


def theta_sum(spec: ThetaSpec, order) -> PuiseuxSeries:
    """Bilateral sum of gamma^{j(j+1)/2} delta^{j(j-1)/2} below `order`.

    With both exponents positive the term exponent a*j(j+1)/2 + b*j(j-1)/2
    is strictly increasing in |j| in each direction, so each direction
    stops at the first term at or above the truncation.
    """
    order = _fr(order)
    a, b, s1, s2 = spec.a, spec.b, spec.sign1, spec.sign2
    acc: dict[Fraction, int] = {}

    def add(j):
        t1 = j * (j + 1) // 2
        t2 = j * (j - 1) // 2
        e = a * t1 + b * t2
        if e >= order:
            return False
        c = (s1 if t1 % 2 else 1) * (s2 if t2 % 2 else 1)
        acc[e] = acc.get(e, 0) + c
        return True

    j = 0
    while add(j):
        j += 1
    j = -1
    while add(j):
        j -= 1
    return PuiseuxSeries(acc, order)


def theta_product(spec: ThetaSpec, order) -> PuiseuxSeries:
    """Triple-product form: (-g; gd)(-d; gd)(gd; gd) as Pochhammers.

    A negative product base gd (mixed argument signs) makes the factor
    signs alternate with the index, so each of the three products splits
    into its even- and odd-index halves over the doubled step.
    """
    a, b = spec.a, spec.b
    step = a + b
    if spec.sign1 * spec.sign2 == 1:
        parts = [
            (spec.sign1, a, step),
            (spec.sign2, b, step),
            (-1, step, step),
        ]
    else:
        parts = [
            (spec.sign1, a, 2 * step),
            (-spec.sign1, a + step, 2 * step),
            (spec.sign2, b, 2 * step),
            (-spec.sign2, b + step, 2 * step),
            (1, step, 2 * step),
            (-1, 2 * step, 2 * step),
        ]
    out = PuiseuxSeries.one(_fr(order))
    for sign, offset, st in parts:
        out = out * pochhammer(PochSpec(sign, offset, st), order)
    return out


def eta_quotient(eq: EtaQuotient, order) -> PuiseuxSeries:
    """Realize prod eta(m tau)^p as q^{sum p*m/24} times Pochhammer powers.

    Fractional powers act on the unit series (q^m;q^m)_inf, whose leading
    coefficient is 1, via nth_root followed by an integer power.
    """
    order = _fr(order)
    lead = eq.leading_exponent()
    unit_order = order - lead
    if unit_order <= 0:
        return PuiseuxSeries.zero(order)
    out = PuiseuxSeries.one(unit_order)
    for m, p in eq.factors:
        base = pochhammer(PochSpec(-1, m, m), unit_order)
        if p.denominator != 1:
            base = base.nth_root(p.denominator)
        out = out * base ** p.numerator
    return out.shift(lead)


def eta(m, order) -> PuiseuxSeries:
    """Single eta(m tau) = q^{m/24} (q^m; q^m)_inf."""
    return eta_quotient(EtaQuotient(((_fr(m), _FR(1)),)), order)


def gamma_k(k: int, order, r=1) -> PuiseuxSeries:
    """G_k(q^r) = prod_{n>=1} (1 + beta_k q^{rn} + q^{2rn}), factors below order.

    Coefficients stay in Z[sqrt2] (beta_k is 0 or +-sqrt2), so the
    expansion runs in place on a pair of dense int arrays; multiplying by
    sqrt2 swaps the parts with a factor 2 on one side.
    """
    order = _fr(order)
    r = _fr(r)
    if order <= 0:
        return PuiseuxSeries.zero(order)
    s = int(BETA[k].irr)  # beta_k = s*sqrt2 with s in {-1, 0, 1}
    den = r.denominator
    n = dense_slots(order * den)
    rp = [0] * n
    ip = [0] * n
    rp[0] = 1
    m = 1
    while r * m < order:
        off1 = int(r * m * den)
        off2 = 2 * off1
        for j in range(n - 1, off1 - 1, -1):
            if s:
                j1 = j - off1
                bi = ip[j1]
                br = rp[j1]
                if bi:
                    rp[j] += 2 * s * bi
                if br:
                    ip[j] += s * br
            j2 = j - off2
            if j2 >= 0:
                rp[j] += rp[j2]
                ip[j] += ip[j2]
        m += 1
    terms = {
        _FR(j, den): AlgebraicNumber(rp[j], ip[j])
        for j in range(n)
        if rp[j] or ip[j]
    }
    return PuiseuxSeries(terms, order)


def sine_ratio_table(k: int, count: int) -> SineRatioTable:
    """r_0..r_{count-1} by the three-term recurrence.

    r_0 = 1, r_1 = 2cos(2k*pi/8) + 1 and
    r_{j+1} = 2cos(2k*pi/8) * r_j - r_{j-1}; the cosine doubles are
    sqrt2, 0, -sqrt2 for k = 1, 2, 3, so every value is exact in Q(sqrt2).
    """
    twocos = -BETA[k]
    values = [ONE]
    if count > 1:
        values.append(twocos + ONE)
    while len(values) < count:
        values.append(twocos * values[-1] - values[-2])
    return SineRatioTable(k, tuple(values[:count]))


def b_value(i: int, k: int) -> AlgebraicNumber:
    """Exact value of the k-th entry of the difference table B_i.

    B_1(k) = r1_k - r3_k, B_2(k) = (1+beta3) r3_k - (1+beta1) r1_k,
    B_3(k) = beta3 r3_k - beta1 r1_k, where rj is the sine-ratio table
    at angle j*pi/8.
    """
    r1 = sine_ratio_table(1, k + 1).values[k]
    r3 = sine_ratio_table(3, k + 1).values[k]
    if i == 1:
        return r1 - r3
    if i == 2:
        return (ONE + BETA[3]) * r3 - (ONE + BETA[1]) * r1
    if i == 3:
        return BETA[3] * r3 - BETA[1] * r1
    raise ValueError("table index must be 1, 2 or 3")


def b_table_series(i: int, length: int = 32) -> PuiseuxSeries:
    """The polynomial sum_{k<length} B_i(k) q^k (trunc = length)."""
    return PuiseuxSeries({_FR(k): b_value(i, k) for k in range(length)}, length)


def theta1_normalized(k: int, order) -> PuiseuxSeries:
    """theta_1(k*pi/8 | tau) / (2 q^{1/8} sin(k*pi/8)).

    Equals sum_{j>=0} (-1)^j r_j q^{j(j+1)/2} with the exact sine ratios;
    by the product expansion it must match (q;q)_inf * G_k(q).
    """
    order = _fr(order)
    exps = []
    j = 0
    while _FR(j * (j + 1), 2) < order:
        exps.append(_FR(j * (j + 1), 2))
        j += 1
    table = sine_ratio_table(k, len(exps)).values
    terms = {
        e: (-table[j] if j % 2 else table[j]) for j, e in enumerate(exps)
    }
    return PuiseuxSeries(terms, order)


def h_series(order, r=1) -> PuiseuxSeries:
    """h(q^r) = q^{r/2} f(-q^r, -q^{7r}) / f(-q^{3r}, -q^{5r})."""
    order = _fr(order)
    r = _fr(r)
    unit_order = order - r / 2
    if unit_order <= 0:
        return PuiseuxSeries.zero(order)
    num = theta_product(ThetaSpec(-1, -1, r, 7 * r), unit_order)
    den = theta_product(ThetaSpec(-1, -1, 3 * r, 5 * r), unit_order)
    return (num * den.inverse()).shift(r / 2)


def i_series(order, r=1) -> PuiseuxSeries:
    """i(q^r) = f(-q^r, -q^{3r}) / f(-q^{2r}, -q^{2r})."""
    order = _fr(order)
    r = _fr(r)
    num = theta_product(ThetaSpec(-1, -1, r, 3 * r), order)
    den = theta_product(ThetaSpec(-1, -1, 2 * r, 2 * r), order)
    return num * den.inverse()


def phi(r, order) -> PuiseuxSeries:
    """phi(q^r) = f(q^r, q^r) = sum q^{r j^2}."""
    return theta_sum(ThetaSpec(1, 1, _fr(r), _fr(r)), order)


def psi(r, order) -> PuiseuxSeries:
    """psi(q^r) = f(q^r, q^{3r}) = sum_{j>=0} q^{r j(j+1)/2}."""
    r = _fr(r)
    return theta_sum(ThetaSpec(1, 1, r, 3 * r), order)

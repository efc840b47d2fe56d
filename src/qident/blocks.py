"""Named q-series building blocks.

Everything here produces a :class:`~qident.series.PuiseuxSeries` or the
Pochhammer families of one: products and quotients of q-Pochhammer
symbols, the two-variable theta function f as a bilateral sum, the
trinomial products G_1 and G_3, exact sine-ratio tables, the normalized
theta_1 specializations, and the families of f (by the triple product),
of eta, of G_2 and of the continued-fraction product sides h and i.

Each DSL atom of :data:`qident.expr.PRIMITIVES` has one builder.  The
Pochhammer-family atoms (eta, poch, f, H, I, G2, and psi11rhs, whose
families come from :mod:`qident.lambert`) take their families from
:func:`_triple_product` and the ``*_families`` lists here, the rescaling
q -> q^r already in the specs (eta(1/2) is (q^(1/2); q^(1/2))_inf), and
are filled in product form.  phi(r) and psi(r) are the theta sums
f(q^r, q^r) and f(q^r, q^3r).  Only G_1 and G_3 are built at q: their
atoms expand :func:`gamma_k` to order/r and apply
:meth:`~qident.series.PuiseuxSeries.substitute`.

Every product or quotient of Pochhammer families -- those atoms and the
fills of their folded products and powers -- is filled by
:func:`poch_quotient` on one int
that packs all the slots (Kronecker substitution, as in
:mod:`qident.backend`), one shift-and-add pass per factor and a few per
divisor, with no series product, no inverse and no Fraction per
intermediate slot; :func:`gamma_k` fills G_1 on a packed pair the same
way.  The sums (theta sums,
theta_1 specializations, B tables) count their exponents on an integer
grid and their coefficients as integer pairs x + y*sqrt2, and every
builder hands the canonical slot form to the series directly.

A packed fill's slot width comes from a closed-form majorant of its
coefficients (:func:`_fill_bytes`), which bounds each factor (1 +- y) by
(1 + y).  The whole theta products among a fill's positive powers
(:func:`_theta_groups`) are bounded by their sum sides instead: by
Jacobi's triple product (G. E. Andrews, *The Theory of Partitions*,
1976, Thm 2.8) the families (s*q^A; q^D)(s*q^(D-A); q^D)(q^D; q^D) are
f(s*q^A, s*q^(D-A)) = sum_j +-q^e(j), and the six of a mixed-sign f are
one f too; by Euler's pentagonal theorem (ibid., Thm 1.6) (q^D; q^D)
is f(-q^D, -q^2D).  Each sum has about 2*sqrt(2n/P) terms below slot n,
P the period of its exponents e(j) >= P*|j|(|j| - 1)/2, so a group
adds a term in sqrt(1/-log x) to the log of the majorant where its
factors would add one in 1/-log x: (q; q)_inf below q^4000 packs 2
bytes a slot, not 22.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import backend
from .field import SQRT2, AlgebraicNumber
from .series import PuiseuxSeries, _fr, check_words, dense_slots

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
        # specs key the exponent maps of expr, so the hash is made once
        object.__setattr__(self, "_hash", hash((self.sign, self.offset, self.step)))

    def __hash__(self):
        return self._hash


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


# bits of headroom over the float width bound of a packed fill, for its
# rounding and for a coefficient of exactly the bound
_MARGIN = 2


def _fill_bytes(families, n, groups=()) -> int:
    """Slot width in bytes of a packed fill over n slots, from its
    families (weight, first, step, divides) and its theta groups
    (power, period).

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
    f(+-X^a, +-X^b) = sum_j +-X^e(j), by Jacobi's triple product (or
    Euler's pentagonal theorem for (X^D; X^D)_inf), whose majorant is its
    sum side sum_j x^e(j), raised to g.  With m = |j|, every exponent has
    e(j) >= P*m(m-1)/2 for the group's period P: the three terms
    j = 0, 1, -1 are at most 1, and the rest of either side lies below
    the integral of exp(-P*L*(u-1)^2/2) over u > 1, sqrt(2pi/(P*L))/2,
    with L = -log x.  So the group adds less than
    g * log(4 + sqrt(2pi/(P*L))) to log M(x), a term in sqrt(1/L) where
    its factors would add one in 1/L.

    The weight is |power| for a Pochhammer family; :func:`gamma_k` bounds
    1 + sqrt2*y + y^2 by (1 + y)^2.  The bound is minimized over
    x = 1 - 2^-t, t = 1 .. bit_length(n); the optimum lies near
    1 - x ~ n^(-1/2).  In floats x is exact and 1 - x^e >= 1 - x >= 1/(2n),
    so the bound errs by a relative 2n * 2^-53 or so, far below a bit for
    n <= MAX_DENSE_SLOTS.  Its bits plus _MARGIN and a sign bit, rounded up
    to whole bytes, hold every |c_k| below 2^(8w - 1), as
    :func:`~qident.backend.unpack` needs.
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
    for power, period in groups:
        log_m += power * math.log(4 + math.sqrt(-2 * math.pi / (period * lx)))
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
    families of `grid`, as (power, period) pairs, and the grid with the
    powers they leave.

    On step D, the families (s, A, D)(s, D-A, D)(-1, D, D) are
    f(s*X^A, s*X^(D-A)) by Jacobi's triple product (G. E. Andrews, *The
    Theory of Partitions*, 1976, Thm 2.8), exponents e(j) =
    D*j(j-1)/2 + A*j, period D.  The six families (s, A, D)(-s, A+h, D)
    (-s, h-A, D)(s, D-A, D)(1, h, D)(-1, D, D) of a mixed-sign
    :func:`_triple_product` over step D = 2h are f(s*X^A, -s*X^(h-A)),
    exponents h*j(j-1)/2 + A*j, period h, and are matched first.  A (-1, D, D) left over is (X^D;
    X^D)_inf = f(-X^D, -X^2D) by Euler's pentagonal theorem (ibid.,
    Thm 1.6), period 3D.  A group's power is the least power among its
    members, a member listed twice counting half; each pass looks up a
    fixed number of members per family, so matching is linear in the
    families.  Divisors never join a group: 1/f has no sparse sum side.
    """
    left = {(sign, first, step): p for sign, first, step, p in grid if p > 0}
    groups = []

    def take(period, *members):
        power = min(left.get(m, 0) // members.count(m) for m in members)
        if power > 0:
            for m in members:
                left[m] -= power
            groups.append((power, period))

    for s, a, d in list(left):
        h = d // 2
        if d % 2 == 0 and 0 < a < h:
            take(h, (s, a, d), (-s, a + h, d), (-s, h - a, d), (s, d - a, d),
                 (1, h, d), (-1, d, d))
    for s, a, d in list(left):
        if a < d:
            take(d, (s, a, d), (s, d - a, d), (-1, d, d))
    for s, a, d in list(left):
        if s < 0 and a == d:
            take(3 * d, (s, a, d))
    return groups, [(s, a, d, left.get((s, a, d), p)) for s, a, d, p in grid]


def _steps(grid, n) -> int:
    # the factors at slots first + j*step < n visit n - first - j*step slots
    work = 0
    for _, first, step, p in grid:
        f = max(0, -(-(n - first) // step))
        work += abs(p) * (f * (n - first) - step * f * (f - 1) // 2)
    return work


def poch_quotient(families, order) -> PuiseuxSeries:
    """prod of (spec)_inf ** power over the (PochSpec, power) pairs, below
    `order`.

    The whole product or quotient is filled on the common grid of every
    offset and step, starting from 1; equal specs with opposite powers
    cancel first.  The n slots are packed into one integer c, w bytes a
    slot, and the fill runs modulo 2^(8wn): X -> 2^(8w) maps
    Z[X]/(X^n) to Z/2^(8wn) as a ring homomorphism, so intermediate
    slots may wrap, and only the final coefficients must fit a signed
    slot, which the width of :func:`_fill_bytes` guarantees: a majorant
    of the families, in which the whole theta products that
    :func:`_theta_groups` finds among the positive powers count by their
    sum sides (Jacobi's triple product and Euler's pentagonal theorem),
    so a fill of theta functions and eta powers packs coefficients of a
    few bits in slots of a byte or two.  Each factor
    (1 + sign*y), y = X^off for a factor q^e with e below `order` at slot
    off, enters |power| times.  Multiplying by it is the one pass
    c + sign*(low << 8w*off), low the n - off lowest slots of c;
    dividing by it multiplies by the truncated inverse
    (1 - sign*y)(1 + y^2)(1 + y^4)..., about log2(n/off) passes.  Every
    pass adds less than 2^(8wn) and reads only the slots below n, so c
    is reduced modulo 2^(8wn) once, as it is unpacked.

    The step budget still counts n - off slot visits per factor pass,
    summed in closed form per family and checked before anything is
    built, and the packed integer's 64-bit words are checked against
    MAX_DENSE_SLOTS.
    """
    order = _fr(order)
    if order <= 0:
        return PuiseuxSeries.zero(order)
    den, grid = _grid(families)
    n = dense_slots(order * den, lambda n: _steps(grid, n))
    groups, rest = _theta_groups(grid)
    w = _fill_bytes([(abs(p), first, step, p < 0) for _, first, step, p in rest if p],
                    n, groups)
    check_words(-(-n * w // 8), f"expansion over {n} dense coefficient slots")
    bits = 8 * w
    size = bits * n
    mask = (1 << size) - 1
    c = 1
    for sign, first, step, p in grid:
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
    return PuiseuxSeries.from_slots(0, den, backend.unpack(c, w, n), None, order)


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
    return (_triple_product(ThetaSpec(-1, -1, r, 7 * r), 1)
            + _triple_product(ThetaSpec(-1, -1, 3 * r, 5 * r), -1))


def i_families(r) -> list:
    """i(q^r) = f(-q^r, -q^{3r}) / f(-q^{2r}, -q^{2r}) as Pochhammer
    families, as for :func:`h_families`; the common (q^{4r}; q^{4r})
    cancels."""
    return (_triple_product(ThetaSpec(-1, -1, r, 3 * r), 1)
            + _triple_product(ThetaSpec(-1, -1, 2 * r, 2 * r), -1))


def gamma_k(k: int, order) -> PuiseuxSeries:
    """G_k(q) = prod_{n>=1} (1 + beta_k q^n + q^{2n}) for k = 1, 3, factors
    below order.

    G_2(q) = (-q^2; q^2)_inf is one Pochhammer family, :func:`g2_families`,
    and has no builder here.  G_1 has
    coefficients in Z[sqrt2] (beta_1 = -sqrt2), so its expansion runs on
    a pair (R, I) of integers packed as in :func:`poch_quotient`, for
    R + I*sqrt2: the factor m multiplies by 1 - sqrt2*y + y^2, y = X^m,
    as R' = R - 2(I << s) + (R << 2s) and I' = I - (R << s) + (I << 2s)
    with s = 8w*m, each shift taking only the slots that stay below n.
    G_3 is G_1 under sqrt2 -> -sqrt2, which maps beta_1
    to beta_3: G_1 with its sqrt2 part negated.
    """
    if k not in (1, 3):
        raise ValueError("gamma_k builds G_k for k = 1 or 3")
    order = _fr(order)
    if order <= 0:
        return PuiseuxSeries.zero(order)
    # factor m, at slot m < n, visits n - m slots
    n = dense_slots(order, lambda n: n * (n - 1) // 2)
    # in the norm |r| + sqrt2*|i|, each factor is at most
    # 1 + sqrt2 y + y^2 <= (1 + y)^2 coefficientwise
    w = _fill_bytes([(2, 1, 1, False)], n)
    check_words(2 * -(-n * w // 8), f"expansion over {n} dense coefficient slots")
    bits = 8 * w
    mask = (1 << bits * n) - 1
    r, i = 1, 0
    for m in range(1, n):
        s = bits * m
        lo1 = mask >> s
        lo2 = lo1 >> s
        r, i = (r - ((i & lo1) << s + 1) + ((r & lo2) << 2 * s),
                i - ((r & lo1) << s) + ((i & lo2) << 2 * s))
    rp = backend.unpack(r, w, n)
    ip = backend.unpack(i, w, n)
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

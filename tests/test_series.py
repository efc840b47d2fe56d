"""Puiseux series arithmetic: truncation bookkeeping and exactness."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qident import backend, blocks, series as series_mod
from qident.field import ONE, SQRT2, ZERO, AlgebraicNumber as A
from qident.blocks import (
    PochSpec,
    ThetaSpec,
    fill,
    g2_families,
    i_families,
    plan_fill,
    theta_families,
    theta_sum,
)
from qident.expr import PRIMITIVES
from qident.lambert import BilateralSpec, LambertSpec, bilateral_1psi1_lhs, lambert_sum
from qident.series import (
    MAX_DENSE_SLOTS,
    MAX_SLOT_STEPS,
    InsufficientPrecisionError,
    LeadingCoefficientError,
    PuiseuxSeries as P,
    SlotBudgetError,
)
from test_blocks import oracle_gamma_k


def geometric(order):
    return P({n: 1 for n in range(order)}, order)


def qq_naive(order):
    """(q;q)_inf by direct factor multiplication — independent of blocks."""
    s = P.one(order)
    for k in range(1, order):
        s = s * P({0: 1, k: -1}, order)
    return s


def partition_counts(n_max):
    """p(n) by textbook dynamic programming over part sizes."""
    counts = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            counts[n] += counts[n - part]
    return counts


def _oracle_unit_part(s):
    """(m, c0, den, [(slot, u_j)], slot count) with s = c0 q^m (1 + ...)."""
    m = min(s.terms)
    c0 = s.terms[m]
    den = 1
    for e in s.terms:
        den = math.lcm(den, (e - m).denominator)
    nout = max(math.ceil((s.trunc - m) * den), 1)
    inv0 = c0.inverse()
    nonzero = []
    for e, c in sorted(s.terms.items()):
        off = int((e - m) * den)
        if 0 < off < nout:
            nonzero.append((off, c * inv0))
    return m, c0, den, nonzero, nout


def oracle_inverse(s):
    """1/s by the recurrence v_k = -sum u_j v_{k-j} on field objects."""
    m, c0, den, nonzero, nout = _oracle_unit_part(s)
    v = [ZERO] * nout
    v[0] = ONE
    for k in range(1, nout):
        acc = ZERO
        for off, u in nonzero:
            if off > k:
                break
            acc = acc + u * v[k - off]
        if acc:
            v[k] = -acc
    inv0 = c0.inverse()
    out = {F(k, den) - m: v[k] * inv0 for k in range(nout) if v[k]}
    return P(out, s.trunc - 2 * m)


def oracle_nth_root(s, n):
    """s**(1/n) by k p_k = sum ((1/n + 1) j - k) u_j p_{k-j} on field
    objects."""
    m, _, den, nonzero, nout = _oracle_unit_part(s)
    alpha = F(1, n)
    p = [ZERO] * nout
    p[0] = ONE
    for k in range(1, nout):
        acc = ZERO
        for off, u in nonzero:
            if off > k:
                break
            acc = acc + ((alpha + 1) * off - k) * u * p[k - off]
        if acc:
            p[k] = acc * F(1, k)
    out = {F(k, den) + m / n: p[k] for k in range(nout) if p[k]}
    return P(out, (s.trunc - m) + m / n)


def oracle_power(s, r):
    """s**r as the oracle root (r not an integer) or inverse (r < 0),
    then repeated multiplication."""
    base = oracle_nth_root(s, r.denominator) if r.denominator > 1 else s
    if r < 0:
        base = oracle_inverse(base)
    out = base
    for _ in range(abs(r.numerator) - 1):
        out = out * base
    return out


# -- oracle: the Fraction-dict operations the integer slots replaced ------
#
# Each works on the exponent -> coefficient view of its operands and builds
# its result through the constructor, one Fraction and one field element
# per term.


def oracle_add(a, b):
    acc = dict(a.terms)
    for e, c in b.terms.items():
        cur = acc.get(e)
        acc[e] = c if cur is None else cur + c
    return P(acc, min(a.trunc, b.trunc))


def oracle_neg(a):
    return P({e: -c for e, c in a.terms.items()}, a.trunc)


def oracle_scale(a, c):
    return P({e: v * c for e, v in a.terms.items()}, a.trunc)


def oracle_shift(a, delta):
    return P({e + delta: c for e, c in a.terms.items()}, a.trunc + delta)


def oracle_substitute(a, r):
    return P({e * r: c for e, c in a.terms.items()}, a.trunc * r)


def oracle_truncated(a, order):
    return P({e: c for e, c in a.terms.items() if e < order}, order)


def oracle_leading(a):
    terms = a.terms
    if not terms:
        return None
    e = min(terms)
    return e, terms[e]


def oracle_first_mismatch(a, b, order):
    ta, tb = a.terms, b.terms
    for e in sorted(set(ta) | set(tb)):
        if e >= order:
            break
        x, y = ta.get(e, ZERO), tb.get(e, ZERO)
        if x != y:
            return e, x, y
    return None


def oracle_mul(a, b):
    """Term-by-term product with the bound min(t_a + m_b, t_b + m_a), the
    least exponent of a zero series counting as its bound."""
    ta, tb = a.terms, b.terms
    ma = min(ta) if ta else a.trunc
    mb = min(tb) if tb else b.trunc
    trunc = min(a.trunc + mb, b.trunc + ma)
    acc = {}
    for e1, c1 in ta.items():
        for e2, c2 in tb.items():
            e = e1 + e2
            if e < trunc:
                cur = acc.get(e)
                acc[e] = c1 * c2 if cur is None else cur + c1 * c2
    return P(acc, trunc)


def oracle_slots(s, den, nout):
    """The integer arrays of the old exponent-dict path: d is the lcm of
    the kept coefficients' denominators."""
    terms = s.terms
    m = min(terms) if terms else s.trunc
    kept = [(int((e - m) * den), c) for e, c in terms.items()
            if (e - m) * den < nout]
    d = math.lcm(1, *(x.denominator for _, c in kept for x in (c.rat, c.irr)))
    n = max((k for k, _ in kept), default=-1) + 1
    rat, irr = [0] * n, [0] * n
    for k, c in kept:
        rat[k] = int(c.rat * d)
        irr[k] = int(c.irr * d)
    return rat, irr if any(irr) else None, d


small_exponents = st.fractions(min_value=F(-2), max_value=F(6), max_denominator=4)
small_coeffs = st.builds(
    A,
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def series(draw, min_trunc=4):
    trunc = draw(st.fractions(min_value=min_trunc, max_value=10, max_denominator=2))
    n = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n):
        e = draw(small_exponents)
        if e < trunc:
            terms[e] = draw(small_coeffs)
    return P(terms, trunc)


@st.composite
def unit_series(draw):
    s = draw(series())
    return P({**{e: c for e, c in s.terms.items() if e > 0}, F(0): ONE}, s.trunc)


# Denominators with high powers of small primes, and primes (101, 999983)
# past any trial-division list, so the integer recurrences need every kind
# of per-slot scale.
wide_dens = st.sampled_from(
    [1, 2, 3, 4, 6, 8, 9, 25, 27, 64, 101, 2**5 * 101, 999983, 3 * 999983]
)
wide_rationals = st.builds(F, st.integers(-9, 9), wide_dens)
wide_coeffs = st.builds(A, wide_rationals, wide_rationals)


@st.composite
def wide_series(draw, unit=False):
    """Series on a fractional grid q^(1/g) with a possibly non-unit lead."""
    grid = draw(st.sampled_from([1, 2, 3, 4, 6]))
    m = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
    span = draw(st.integers(1, 24))
    trunc = m + F(span, grid) + draw(st.sampled_from([0, F(1, 5)]))
    slots = draw(st.sets(st.integers(1, span + 2), max_size=8))
    terms = {m + F(j, grid): draw(wide_coeffs) for j in slots}
    lead = ONE if unit else draw(wide_coeffs.filter(bool))
    return P({**terms, m: lead}, trunc)


def both_paths(x, y):
    """(term path, packed path) of x * y, each called on the operands as
    `_mul_dense` hands them over."""
    trunc = min(x.trunc + y.m, y.trunc + x.m)
    den = math.lcm(x.den, y.den)
    nout = math.ceil((trunc - x.m - y.m) * den)
    a, b = x._kept(den, nout), y._kept(den, nout)
    return (a._mul_terms(b, den, nout, trunc),
            a._mul_packed(b, den, nout, trunc))


# slot values: small, negative, and wider than 64 bits
product_values = st.one_of(st.integers(-9, 9), st.integers(-2**80, 2**80))
product_grids = st.sampled_from([1, 2, 3, 6])
product_starts = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def product_operand(draw, den, slots, sqrt2, d, span=None):
    """The series sum (r + i*sqrt2)/d q^(m + k/den) over the given slots,
    known below m + `span` (by default, past its last slot), with k = 0
    and k = 1 among them so that den is its grid, every r nonzero, and
    a nonzero sqrt2 part at slot 0 when `sqrt2`."""
    m = draw(product_starts)
    terms = {}
    for k in slots:
        r = draw(product_values) or 1
        i = (draw(product_values) or int(k == 0)) if sqrt2 else 0
        terms[m + F(k, den)] = A(F(r, d), F(i, d))
    return P(terms, m + (F(max(slots) + 1, den) if span is None else span))


def slot_sets(low, high, size=(0, 12)):
    """Sets of slots holding 0 and 1, the others drawn from [low, high]."""
    if high < low:
        return st.just({0, 1})
    return st.sets(st.integers(low, high), min_size=size[0],
                   max_size=size[1]).map(lambda s: {0, 1} | s)


@st.composite
def product_pairs(draw):
    """Two operands on mixed grids, rational or with sqrt2 parts, both cut
    by one truncation; with a conjugate or a q -> -q partner the product
    cancels: every sqrt2 part, or every odd slot."""
    sa, sb = draw(st.booleans()), draw(st.booleans())
    d = draw(st.sampled_from([1, 2, 3, 7]))
    a = draw(product_operand(draw(product_grids), draw(slot_sets(2, 30)), sa, d))
    partner = draw(st.sampled_from(["drawn", "conjugate", "alternate"]))
    if partner == "drawn":
        b = draw(product_operand(draw(product_grids), draw(slot_sets(2, 30)),
                                 sb, d))
    else:
        flip = ((lambda k, r, i: (r, -i)) if partner == "conjugate"
                else (lambda k, r, i: (-r, -i) if k % 2 else (r, i)))
        m = draw(product_starts)
        b = P._make(m, a.den, a.d, {k: flip(k, *v) for k, v in a.slots.items()},
                    m + a.trunc - a.m)
    cut = draw(st.sampled_from([F(1, 3), F(1, 2), F(1)]))
    return (a.truncated(a.m + (a.trunc - a.m) * cut),
            b.truncated(b.m + (b.trunc - b.m) * cut))


@st.composite
def boundary_pairs(draw):
    """(a, b, excess): a and b on grids 1/da and 1/db whose product has
    nout slots and exactly calls * nout + excess term pairs, excess in
    {-1, 0, 1} and calls 1 plus the number of operands with a sqrt2
    part."""
    da, db = draw(product_grids), draw(product_grids)
    den = math.lcm(da, db)
    sa, sb = draw(st.booleans()), draw(st.booleans())
    excess = draw(st.sampled_from([-1, 0, 1]))
    nout = draw(st.integers(2, 120))
    pairs = (1 + sa + sb) * nout + excess
    # slot k of an operand on the grid 1/g lies below nout when k * den/g < nout
    room_a, room_b = -(-nout * da // den), -(-nout * db // den)
    counts = [(p, pairs // p) for p in range(2, room_a + 1)
              if pairs % p == 0 and 2 <= pairs // p <= room_b]
    assume(counts)
    p, q = draw(st.sampled_from(counts))
    d = draw(st.sampled_from([1, 3]))
    span = F(nout, den)
    a = draw(product_operand(da, draw(slot_sets(2, room_a - 1, (p - 2, p - 2))),
                             sa, d, span))
    b = draw(product_operand(db, draw(slot_sets(2, room_b - 1, (q - 2, q - 2))),
                             sb, d, span))
    return a, b, excess


class TestMonomial:
    def test_single_term(self):
        s = P.monomial(A(0, 2), F(25, 24), 10)
        assert s.items() == [(F(25, 24), A(0, 2))]
        assert s.trunc == 10

    def test_one(self):
        assert P.one(5).items() == [(F(0), ONE)]

    def test_zero_coefficient_gives_empty(self):
        assert not P.monomial(ZERO, 0, 5)

    def test_rejects_trunc_at_or_below_exponent(self):
        with pytest.raises(ValueError):
            P.monomial(ONE, 3, 3)


class TestMul:
    def test_geometric_inverse_pair(self):
        one = (P({0: 1, 1: -1}, 8) * geometric(8)).truncated(8)
        assert one == P.one(8)

    def test_sqrt2_cross_terms(self):
        # (1 - sqrt2 q + q^2)(1 + sqrt2 q + q^2): the q^2 terms cancel
        # against (sqrt2)^2 q^2, leaving 1 + 0q + 0q^2 + 0q^3 (+ q^4)
        a = P({0: ONE, 1: -SQRT2, 2: ONE}, 10)
        b = P({0: ONE, 1: SQRT2, 2: ONE}, 10)
        assert (a * b).first_mismatch(P.one(10), 4) is None

    def test_zero_annihilates_with_trunc_propagation(self):
        z = P.zero(6)
        s = P({1: 2}, 9)
        # least exponent of the zero series counts as its truncation
        assert (z * s).trunc == 7
        assert not (z * s)

    def test_zero_base_power_bound(self):
        # a positive integer power of the zero series keeps the bound a*t
        # that the product z * z * z has
        cube = P.zero(5) ** 3
        assert not cube
        assert cube.trunc == 15

    def test_scalar_multiplication(self):
        s = P({F(1, 8): 1}, 4)
        assert s * A(0, 2) == P({F(1, 8): A(0, 2)}, 4)
        assert 3 * s == P({F(1, 8): 3}, 4)

    def test_trunc_rule(self):
        a = P({2: 1}, 10)  # known below 10, leading exponent 2
        b = P({3: 1}, 7)
        assert (a * b).trunc == min(10 + 3, 7 + 2)

    @example(P({n: (n % 3) - 1 for n in range(30)}, 30),
             P({F(n, 2): A(1, n % 2) for n in range(25)}, 20))
    @example(P({n: A(n % 4 - 1, 2 - n % 3) for n in range(30)}, 30),
             P({F(n, 2): A(F(n - 3, 7), F(1, n + 1)) for n in range(25)}, 20))
    @given(series(min_trunc=0), series(min_trunc=0))
    def test_dense_and_sparse_paths_agree(self, a, b):
        assert a * b == oracle_mul(a, b)

    def test_bigint_parts_in_both_factors(self):
        # both parts of both factors near 10^40, with signs that cancel in
        # the assembled sqrt2 part: (A+A')(B+B') - AB - A'B' stays exact
        big = 10**40
        a = P({F(n, 2): A(big + n, (-1) ** n * big) for n in range(12)}, 6)
        b = P({F(n, 3): A(-big * n, big - n) for n in range(1, 18)}, 6)
        product = a._mul_dense(b, 6)
        assert product.slots[0][0] != 0 and product.slots[0][1] != 0
        assert product == oracle_mul(a, b) == a * b

    @given(wide_series())
    def test_slots_round_trip(self, s):
        m, den = s.m, s.den
        offsets = [(e - m) * den for e in s.terms]
        assert all(o.denominator == 1 for o in offsets)
        assert math.gcd(den, *(o.numerator for o in offsets)) == 1  # coarsest
        rat, irr, d = s._slots(den, math.ceil((s.trunc - m) * den))
        back = P.from_slots(m, den, rat, irr, s.trunc, d)
        assert (back.terms, back.trunc) == (s.terms, s.trunc)

    def test_products_convolve_on_the_offset_grid(self, monkeypatch):
        # eta(1) = q^(1/24) (q;q)_inf: its offsets lie on the integer grid,
        # so its square to q^(241/24) convolves 10 slots, not the 239 of
        # the exponents' 1/24 grid
        a = fill(plan_fill([(PochSpec(-1, 1, 1), 1)], F(239, 24))).shift(F(1, 24))
        slots = []
        kernel = backend.convolve_rational

        def counting(ra, rb, nout):
            slots.append(nout)
            return kernel(ra, rb, nout)

        monkeypatch.setattr(backend, "convolve_rational", counting)
        assert a * a == oracle_mul(a, a)
        assert slots == [10]

    def test_integer_powers_multiply_only_when_fewer_products(self, monkeypatch):
        # a small positive power with fewer products than unit terms is a
        # product: x has 3 unit terms and x ** 3 takes 2 (a square, then
        # times x); 1 + q has one unit term, so its cube runs the power
        # recurrence and makes no product, and so does any power above 8,
        # however dense the base
        x = P({F(1, 3): F(2, 3), F(1, 2): F(1, 5), 2: -4, F(7, 3): 3}, 6)
        want = oracle_mul(oracle_mul(x, x), x)
        calls = []
        dense = P._mul_dense

        def counting(*args):
            calls.append(args)
            return dense(*args)

        monkeypatch.setattr(P, "_mul_dense", counting)
        assert x ** 3 == want
        assert len(calls) == 2
        calls.clear()
        assert P({0: 1, 1: 1}, 10) ** 3 == P({0: 1, 1: 3, 2: 3, 3: 1}, 10)
        dense_base = geometric(12)
        assert dense_base ** 9 == dense_base._power(9, 1)
        assert calls == []

    def test_grid_past_the_slot_cap_is_refused(self):
        # four terms, but their common grid 1/(999983 * 1000003) puts
        # about 10^12 slots below q^1: the slot check runs before the term
        # path is chosen, so a product of four term pairs is refused too
        a = P({0: 1, F(1, 999983): 1}, 1)
        b = P({0: 1, F(1, 1000003): 1}, 1)
        with pytest.raises(SlotBudgetError, match="dense coefficient slots"):
            a * b

    @settings(max_examples=200, deadline=None)
    @given(product_pairs())
    @example((P({0: 1, 1: -SQRT2, 2: ONE}, 3), P({0: 1, 1: SQRT2, 2: ONE}, 3)))
    @example((P({0: 1, 1: 1, 3: 2**70}, 4), P({0: 1, 1: -1, 3: -2**70}, 4)))
    def test_term_and_packed_paths_agree(self, pair):
        a, b = pair
        terms, packed = both_paths(a, b)
        assert terms == packed == oracle_mul(a, b) == a * b

    @settings(max_examples=200, deadline=None)
    @given(boundary_pairs())
    def test_products_at_the_routing_boundary(self, case):
        # the term path takes at most calls * nout term pairs, the packed
        # path one pair more, and both agree with the oracle
        a, b, excess = case
        taken = []
        terms, packed = P._mul_terms, P._mul_packed
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(P, "_mul_terms",
                       lambda *args: taken.append("terms") or terms(*args))
            mp.setattr(P, "_mul_packed",
                       lambda *args: taken.append("packed") or packed(*args))
            product = a * b
        assert taken == ["terms" if excess <= 0 else "packed"]
        assert product == oracle_mul(a, b)
        assert both_paths(a, b) == (product, product)


class TestInverse:
    def test_monomial(self):
        s = P.monomial(ONE, F(1, 2), 5)
        assert (s ** -1).items() == [(F(-1, 2), ONE)]

    def test_one_minus_q(self):
        inv = P({0: 1, 1: -1}, 9) ** -1
        assert inv == geometric(9)

    def test_partition_generating_function(self):
        # oracle: enumeration-based p(n) against 1/(q;q)_inf
        inv = qq_naive(31) ** -1
        expect = partition_counts(30)
        got = [inv.coefficient(n) for n in range(31)]
        assert got == [A(p) for p in expect]

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            P.zero(5) ** -1

    @settings(max_examples=50)
    @given(unit_series())
    def test_mul_roundtrip(self, s):
        order = s.trunc
        prod = s * s ** -1
        assert prod.first_mismatch(P.one(order), order) is None


class TestRecurrencesMatchOracle:
    """The integer-pair recurrences equal the field-object ones exactly."""

    @staticmethod
    def assert_same(got, want):
        assert got.terms == want.terms
        assert got.trunc == want.trunc

    @example(P({0: A(F(1, 3), F(1, 101)), F(1, 2): A(F(2, 999983)),
                F(3, 2): A(1, F(1, 2**7))}, 5))
    @example(oracle_gamma_k(3, 12, F(1, 2)).scale(A(F(-2, 9), F(1, 101))))
    @settings(max_examples=150, deadline=None)
    @given(wide_series())
    def test_inverse(self, s):
        self.assert_same(s ** -1, oracle_inverse(s))

    @example(P({0: 1, F(1, 3): A(F(1, 999983), 2), 1: A(F(-5, 64))}, 7), 12)
    @settings(max_examples=150, deadline=None)
    @given(wide_series(unit=True), st.sampled_from([2, 3, 4, 5, 6, 8, 12]))
    def test_nth_root(self, s, n):
        self.assert_same(s ** F(1, n), oracle_nth_root(s, n))

    @example(P({0: 1, F(1, 3): A(F(1, 999983), 2), 1: A(F(-5, 64))}, 7), -3, 4)
    @example(P({F(-1, 3): A(F(1, 3), F(1, 101)), F(1, 2): A(F(2, 9))}, 4), -2, 1)
    @settings(max_examples=150, deadline=None)
    @given(
        wide_series(),
        st.sampled_from([-3, -2, -1, 1, 2, 3, 5]),
        st.sampled_from([1, 2, 3, 4, 6, 8, 12]),
    )
    def test_power(self, s, a, n):
        r = F(a, n)
        if r.denominator > 1:  # a fractional power needs a unit lead
            s = P({**s.terms, min(s.terms): ONE}, s.trunc)
        self.assert_same(s ** r, oracle_power(s, r))


@st.composite
def dense_series(draw):
    """A series with a term in every slot of its grid up to its bound,
    rational or in Z[sqrt2]."""
    grid = draw(st.sampled_from([1, 2, 3]))
    m = draw(st.fractions(min_value=-2, max_value=2, max_denominator=2))
    span = draw(st.integers(6, 30))
    coeffs = wide_coeffs if draw(st.booleans()) else wide_rationals.map(A)
    terms = {m + F(j, grid): draw(coeffs) for j in range(span)}
    return P(terms, m + F(span, grid))


class TestIntegerPowers:
    """Binary powering equals the power recurrence it stands in for."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(wide_series(), dense_series()), st.integers(2, 9))
    def test_products_match_the_recurrence(self, s, a):
        assert s ** a == s._power(a, 1)

    @pytest.mark.parametrize("a", range(2, 10))
    def test_zero_series(self, a):
        z = P.zero(F(5, 2))
        assert z ** a == z._power(a, 1)


class TestOperationsMatchOracle:
    """Every operation on the integer slots equals the Fraction-dict one,
    exact terms and bound, and leaves its result in the canonical form that
    the constructor builds from those terms."""

    @staticmethod
    def assert_same(got, want):
        assert got.terms == want.terms
        assert got.trunc == want.trunc
        canonical = P(got.terms, got.trunc)
        assert (got.m, got.den, got.d, got.slots) == (
            canonical.m, canonical.den, canonical.d, canonical.slots)
        assert list(got.slots) == sorted(got.slots)

    @settings(max_examples=100, deadline=None)
    @given(wide_series(), wide_series())
    def test_add_sub_neg(self, a, b):
        self.assert_same(a + b, oracle_add(a, b))
        self.assert_same(a - b, oracle_add(a, oracle_neg(b)))
        self.assert_same(-a, oracle_neg(a))
        self.assert_same(a + (-a), oracle_add(a, oracle_neg(a)))
        # the leading term cancels, and the rest may sit on a coarser grid
        e, c = a.leading()
        rest = a - P.monomial(c, e, a.trunc)
        self.assert_same(rest, oracle_add(a, P({e: -c}, a.trunc)))
        assert rest.leading() == oracle_leading(rest)

    @settings(max_examples=100, deadline=None)
    @given(wide_series(), wide_coeffs, wide_rationals)
    def test_scale_and_shift(self, a, c, delta):
        for k in (c, ZERO, ONE, A(-1), 3, F(-2, 7)):
            self.assert_same(a.scale(k), oracle_scale(a, k))
        self.assert_same(a.shift(delta), oracle_shift(a, delta))
        self.assert_same(a.shift(delta).scale(c),
                         oracle_scale(oracle_shift(a, delta), c))

    @settings(max_examples=100, deadline=None)
    @given(wide_series(), st.sampled_from([F(1, 2), F(2, 3), 1, 2, 3, F(6, 5)]))
    def test_substitute(self, a, r):
        self.assert_same(a.substitute(r), oracle_substitute(a, r))

    @settings(max_examples=100, deadline=None)
    @given(wide_series(), st.fractions(0, 1))
    def test_truncated(self, a, part):
        order = a.trunc - 5 + 5 * part
        self.assert_same(a.truncated(order), oracle_truncated(a, order))
        self.assert_same(a.truncated(a.trunc), a)

    @settings(max_examples=100, deadline=None)
    @given(wide_series(), wide_rationals)
    def test_leading_and_coefficient(self, a, e):
        assert a.leading() == oracle_leading(a)
        for x in [*a.terms, e, a.trunc - F(1, 999983)]:
            if x < a.trunc:
                assert a.coefficient(x) == a.terms.get(x, ZERO)

    @settings(max_examples=100, deadline=None)
    @given(wide_series(), wide_series(), st.fractions(0, 1))
    def test_first_mismatch(self, a, b, part):
        order = min(a.trunc, b.trunc) - 2 * part
        for x, y in ((a, b), (a, a), (a, a.truncated(order)),
                     (a, oracle_add(a.truncated(order), P.zero(order)))):
            if min(x.trunc, y.trunc) < order:
                continue
            mm = x.first_mismatch(y, order)
            assert (None if mm is None else tuple(mm)) == \
                oracle_first_mismatch(x, y, order)

    @settings(max_examples=100, deadline=None)
    @given(wide_series(), wide_series())
    def test_equality_and_hash(self, a, b):
        same = (a.terms, a.trunc) == (b.terms, b.trunc)
        assert (a == b) == same
        rebuilt = P(a.terms, a.trunc)
        assert rebuilt == a and hash(rebuilt) == hash(a)
        doubled = a + a
        assert doubled == a.scale(2) and hash(doubled) == hash(a.scale(2))

    @settings(max_examples=100, deadline=None)
    @given(wide_series(), wide_series())
    def test_dense_and_sparse_products(self, a, b):
        self.assert_same(a * b, oracle_mul(a, b))

    @settings(max_examples=60, deadline=None)
    @given(wide_series(), st.sampled_from([2, 3, F(-1), F(-2), F(1, 2)]))
    def test_powers(self, a, r):
        if F(r).denominator > 1:  # a fractional power needs a unit lead
            a = P({**a.terms, min(a.terms): ONE}, a.trunc)
        self.assert_same(a ** r, oracle_power(a, F(r)))

    @settings(max_examples=100, deadline=None)
    @given(wide_series(), st.sampled_from([1, 2, 3, 6]), st.integers(0, 80))
    def test_slots_hold_the_old_arrays(self, a, fine, nout):
        # kernels and the power recurrence see the arrays of the old path,
        # d reduced over the kept slots when some are dropped
        den = a.den * fine
        assert a._slots(den, nout) == oracle_slots(a, den, nout)

    @given(st.dictionaries(wide_rationals, wide_coeffs, max_size=8),
           wide_rationals)
    def test_constructor_view_round_trip(self, terms, trunc):
        s = P(terms, trunc)
        assert s.terms == {e: c for e, c in terms.items() if e < trunc and c}
        assert s.items() == sorted(s.terms.items())


class TestRecurrenceHotPath:
    """Powers -- inverses, roots and other rationals -- do O(slots) field
    arithmetic, not O(slots*nnz)."""

    @pytest.fixture()
    def field_calls(self, monkeypatch):
        calls = [0]
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            def counted(*args, _fn=getattr(A, name)):
                calls[0] += 1
                return _fn(*args)

            monkeypatch.setattr(A, name, counted)
        return calls

    @pytest.mark.parametrize(
        "op, oracle",
        [
            (lambda s: s ** -1, oracle_inverse),
            (lambda s: s ** F(1, 2), lambda s: oracle_nth_root(s, 2)),
            (lambda s: s ** F(3, 4), lambda s: oracle_power(s, F(3, 4))),
            (lambda s: s ** -2, lambda s: oracle_power(s, F(-2))),
        ],
        ids=["inverse", "nth_root", "pow_3/4", "pow_-2"],
    )
    def test_field_calls_linear_in_slots(self, field_calls, op, oracle):
        s = oracle_gamma_k(1, 96, F(1, 2))  # unit series, 192 slots, 190 terms
        slots = 192
        expected = op(s)
        assert field_calls[0] <= slots
        field_calls[0] = 0
        assert oracle(s) == expected
        assert field_calls[0] > 20 * slots  # the guard tells the paths apart


class TestSlotBudget:
    """Dense arrays sized by an order and an exponent grid are capped."""

    def test_block_expansions(self):
        assert issubclass(SlotBudgetError, ValueError)
        with pytest.raises(SlotBudgetError):
            fill(plan_fill([(PochSpec(-1, F(1, 10**9), 1), 1)], 1))
        with pytest.raises(SlotBudgetError):
            PRIMITIVES["G1"].build(F(1), MAX_DENSE_SLOTS + 1)

    def test_inverse_and_root(self):
        s = P({0: 1, F(1, 10**7): 1}, 1)
        with pytest.raises(SlotBudgetError):
            s ** -1
        with pytest.raises(SlotBudgetError):
            s ** F(1, 2)

    def test_step_budget(self):
        # far below the slot cap, but slots x factors (or slots x terms)
        # inner steps is more than MAX_SLOT_STEPS: (q; q^2)_inf is no theta
        # group, so its 10,000 factors take 10^8 steps
        with pytest.raises(SlotBudgetError, match="steps"):
            fill(plan_fill([(PochSpec(-1, 1, 2), 1)], 20000))
        with pytest.raises(SlotBudgetError, match="steps"):
            fill(plan_fill(g2_families(1), 20000))
        s = P({F(j * j, 1000): 1 for j in range(100)}, 500)
        assert sum(500_000 - j * j for j in range(1, 100)) > MAX_SLOT_STEPS
        with pytest.raises(SlotBudgetError, match="steps"):
            s ** -1
        with pytest.raises(SlotBudgetError, match="steps"):
            s ** F(1, 2)
        # phi(q^(1/1000)) to order 5: 5000 slots and 70 unit terms are few
        # steps, but the root's scale 4 makes its 5000th value ~10^4 bits
        phi = P({0: 1, **{F(j * j, 1000): 2 for j in range(1, 71)}}, 5)
        assert sum(5000 - j * j for j in range(1, 71)) < MAX_SLOT_STEPS // 50
        with pytest.raises(SlotBudgetError, match="steps"):
            phi ** F(1, 2)

    @pytest.mark.parametrize(
        "expand, steps",
        [
            # (q;q)_inf to q^10 is Euler's sum 1 - q - q^2 + q^5 + q^7 - ...:
            # the pass of each term q^e, e > 0, visits 10 - e slots,
            # 9 + 8 + 5 + 3
            (lambda: fill(plan_fill([(PochSpec(-1, 1, 1), 1)], 10)), 25),
            # 1/(q;q)_inf to q^10: the divisors at slots 1..9 of 10 visit
            # 9 + 8 + ... + 1 slots
            (lambda: fill(plan_fill([(PochSpec(-1, 1, 1), -1)], 10)), 45),
            # factors at half-slots 3, 5, 7 of 8 visit 5 + 3 + 1
            (lambda: fill(plan_fill([(PochSpec(1, F(3, 2), 1), 1)], 4)), 9),
            # f(q, q^2) = (-q;q^3)(-q^2;q^3)(q^3;q^3) to q^7 is the sum
            # 1 + q + q^2 + q^5 + ...: 6 + 5 + 2
            (lambda: fill(plan_fill(theta_families(ThetaSpec(1, 1, 1, 2), 1), 7)), 13),
            # f(q, -q) to q^10 is 1 - 2q^4 + ...: the terms j = 1 and -1
            # cancel at q^1, those of j = 2 and -2 merge at q^4 and those of
            # j = 3 and -3 cancel at q^9, so one pass of 6 slot visits
            pytest.param(
                lambda: fill(plan_fill(theta_families(ThetaSpec(1, -1, 1, 1), 1), 10)), 6,
                id="f(q,-q)-6"),
            # (q;q)_inf^2 (-q;q^2)_inf to q^6: two passes of 5 + 4 + 1 for
            # the group, and the factors at slots 1, 3, 5 left: 5 + 3 + 1
            (lambda: fill(plan_fill([(PochSpec(-1, 1, 1), 2), (PochSpec(1, 1, 2), 1)], 6)), 29),
            # i(q) to q^9 = (q;q^4)(q^3;q^4) / (q^2;q^4)^2 once (q^4;q^4)
            # cancels: 8+4 + 6+2 for the products, 2*(7+3) for the divisions
            (lambda: fill(plan_fill(i_families(1), 9)), 40),
            # (1 + q)(1 + q^2) to q^10: both slots of the first factor meet
            # all 3 slots of the second
            (lambda: P({0: 1, 1: 1}, 10) * P({0: 1, 2: 1}, 10), 6),
            # sum_m q^m/(1 - q^m) to q^5: m = 1..4 give 4 + 2 + 1 + 1 terms
            (lambda: lambert_sum(LambertSpec(1, 0, ((1, 1),), 1), 5), 8),
            # the same with weight (m/3) to q^7: 6 + 3 + 1 + 1 terms for
            # m = 1, 2, 4, 5; m = 3 and 6 have weight 0 and add none
            (lambda: lambert_sum(LambertSpec(1, 0, ((1, 1),), 1, "legendre", 3), 7),
             11),
            # sum_j q^(2j)/(1 - q^(8+16j)) to q^20: j = 0 gives q^0, q^8,
            # q^16, j = 1..9 one term each, j = -1 gives -q^6, -q^14
            (lambda: bilateral_1psi1_lhs(BilateralSpec(16, 8, 2), 20), 14),
            # unit terms at slots 1 and 3 of 10 enter 9 + 7 recurrence steps
            (lambda: P({0: 1, 1: 1, 3: 1}, 10) ** -1, 16),
            (lambda: P({0: 1, 1: 1, 3: 1}, 10) ** F(1, 3), 16),
            (lambda: P({0: 1, 1: 1, 3: 1}, 10) ** F(-3, 4), 16),
            # a positive integer power runs the same recurrence
            (lambda: P({0: 1, 1: 1, 3: 1}, 10) ** 3, 16),
        ],
    )
    def test_step_count_is_exact(self, monkeypatch, expand, steps):
        monkeypatch.setattr(series_mod, "MAX_SLOT_STEPS", steps)
        expand()
        monkeypatch.setattr(series_mod, "MAX_SLOT_STEPS", steps - 1)
        with pytest.raises(SlotBudgetError):
            expand()

    def test_word_count_is_exact(self, monkeypatch):
        # (1 + 2^100 q)^2 to q^3: the kernel packs 2 + 2 - 1 slots of
        # slot_bytes(102 + 102 + 2) = 26 bytes, 78 bytes or 10 words
        a = P({0: 1, 1: 2**100}, 3)
        monkeypatch.setattr(series_mod, "MAX_DENSE_SLOTS", 10)
        assert a * a == oracle_mul(a, a)
        monkeypatch.setattr(series_mod, "MAX_DENSE_SLOTS", 9)
        with pytest.raises(SlotBudgetError, match="10 64-bit words"):
            a * a

    @pytest.mark.parametrize(
        "a, limit",
        [
            # 100 dense slots squared: 5050 steps
            (P.from_slots(0, 1, [1] * 100, None, 100), "MAX_SLOT_STEPS"),
            # 1 + 10^1000 q^(99999/1000) squared: 100,001 steps, but about
            # 2.1*10^7 words
            (P({0: 1, F(99999, 1000): 10**1000}, 100), None),
        ],
    )
    def test_products_are_refused_before_any_array(self, monkeypatch, a, limit):
        def unbuilt(*args):
            raise AssertionError("slot arrays built before the budget check")

        if limit:
            monkeypatch.setattr(series_mod, limit, 5049)
        monkeypatch.setattr(P, "_slots", unbuilt)
        with pytest.raises(SlotBudgetError):
            a * a

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**6), st.integers(1, 10**6),
           st.one_of(st.sampled_from([1, 2, 3, 7, 999983]),
                     st.integers(1, 10**30)),
           st.one_of(st.sampled_from([1, 2, 3, 7, 1000003]),
                     st.integers(1, 10**30)),
           st.one_of(st.fractions(min_value=-50, max_value=10**4),
                     st.builds(F, st.integers(-10**40, 10**44),
                               st.integers(1, 10**40))))
    @example(1, 1, 999983, 1000003, F(10))
    @example(3, 5, 2, 3, F(0))
    @example(7, 11, 4, 9, F(-3, 2))
    @example(1, 1, 1, 1, F(10**36 + 1, 10**30 + 1))
    def test_theta_bounds_match_the_fraction_formulas(self, an, bn, ad, bd, order):
        # the integer bounds of theta_sum equal the Fraction formulas they
        # replaced, for orders at or below 0, with large denominators, and
        # for exponents on coprime grids
        spec = ThetaSpec(1, -1, F(an, ad), F(bn, bd))
        den = math.lcm(spec.a.denominator, spec.b.denominator)
        terms = 2 * math.isqrt(max(0, math.floor(2 * order / (spec.a + spec.b)))) + 3
        assert blocks._theta_bounds(spec, order) == (
            den, int(spec.a * den), int(spec.b * den), math.ceil(order * den), terms)

    def test_theta_sum_term_bound_is_exact(self, monkeypatch):
        # phi(q) to q^10: |j| - 1 <= isqrt(10) bounds its terms by 9, which
        # count as slots against the dense slot cap
        monkeypatch.setattr(series_mod, "MAX_DENSE_SLOTS", 9)
        theta_sum(ThetaSpec(1, 1, 1, 1), 10)
        monkeypatch.setattr(series_mod, "MAX_DENSE_SLOTS", 8)
        with pytest.raises(SlotBudgetError, match="dense coefficient slots"):
            theta_sum(ThetaSpec(1, 1, 1, 1), 10)


class TestNthRoot:
    def test_monomial_exponent_divides(self):
        s = P.monomial(ONE, F(1, 2), 6)
        assert (s ** F(1, 2)).items() == [(F(1, 4), ONE)]

    def test_perfect_square(self):
        s = P({0: 1, 1: 2, 2: 1}, 8)
        assert (s ** F(1, 2)).first_mismatch(P({0: 1, 1: 1}, 8), 8) is None

    def test_fourth_root_of_one_minus_q(self):
        r = P({0: 1, 1: -1}, 8) ** F(1, 4)
        assert r.coefficient(1) == A(F(-1, 4))
        assert r.coefficient(2) == A(F(-3, 32))
        back = r ** 4
        assert back.first_mismatch(P({0: 1, 1: -1}, 8), 8) is None

    def test_requires_unit_leading_coefficient(self):
        with pytest.raises(LeadingCoefficientError):
            P({0: 2, 1: 1}, 5) ** F(1, 2)
        with pytest.raises(LeadingCoefficientError):
            P({0: 2, 1: 1}, 5) ** F(-3, 2)
        with pytest.raises(LeadingCoefficientError):
            P.zero(5) ** F(1, 3)

    @settings(max_examples=40)
    @given(unit_series(), st.sampled_from([2, 3, 4]))
    def test_power_roundtrip(self, s, n):
        root = s ** F(1, n)
        assert (root ** n).first_mismatch(s, s.trunc) is None


class TestSubstitute:
    def test_halving(self):
        s = P({0: 1, 1: 1}, 4).substitute(F(1, 2))
        assert s == P({0: 1, F(1, 2): 1}, 2)

    def test_identity(self):
        s = P({F(3, 2): A(1, 1)}, 4)
        assert s.substitute(1) == s

    def test_leading_exponent_bookkeeping(self):
        # m/2-grid series doubled lands on the integer grid
        s = P({F(1, 2): 1, F(3, 2): -1}, F(5, 2)).substitute(2)
        assert s == P({1: 1, 3: -1}, 5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            P.one(3).substitute(0)

    @settings(max_examples=40)
    @given(series(), series(), st.sampled_from([F(1, 2), F(1, 3), 2, 3]))
    def test_multiplicative(self, s1, s2, r):
        lhs = (s1 * s2).substitute(r)
        rhs = s1.substitute(r) * s2.substitute(r)
        assert lhs == rhs


class TestComparison:
    def test_self_equal(self):
        s = P({0: 1, F(7, 3): A(0, 1)}, 5)
        assert s.first_mismatch(s, 5) is None

    def test_mismatch_location(self):
        a = P({0: 1, 1: 1}, 6)
        b = P({0: 1, 1: 1, 3: 1}, 6)
        assert a.first_mismatch(b, 3) is None
        mm = a.first_mismatch(b, 4)
        assert mm is not None
        assert (mm.exponent, mm.lhs, mm.rhs) == (3, ZERO, ONE)

    def test_insufficient_precision(self):
        with pytest.raises(InsufficientPrecisionError):
            P.one(3).first_mismatch(P.one(10), 5)

    def test_coefficient_beyond_trunc_raises(self):
        with pytest.raises(InsufficientPrecisionError):
            P.one(3).coefficient(3)


class TestScaleAndShift:
    def test_scale_identity_and_zero(self):
        s = P({F(1, 8): 1}, 2)
        assert s.scale(ONE) == s
        assert not s.scale(ZERO)
        assert s.scale(A(0, 2)) == P({F(1, 8): A(0, 2)}, 2)

    def test_shift_moves_the_bound(self):
        s = P({0: 1, 1: 1}, 4).shift(F(1, 2))
        assert s == P({F(1, 2): 1, F(3, 2): 1}, F(9, 2))


@settings(max_examples=40)
@given(series(), series())
def test_mul_commutative(s1, s2):
    assert s1 * s2 == s2 * s1


@settings(max_examples=30)
@given(series(), series(), series())
def test_mul_associative_up_to_guarantee(s1, s2, s3):
    a = (s1 * s2) * s3
    b = s1 * (s2 * s3)
    order = min(a.trunc, b.trunc)
    assert a.first_mismatch(b, order) is None


def test_truncation_soundness_across_depths():
    # the same expression expanded deeper must agree below the shallow bound
    shallow = qq_naive(12) ** -1
    deep = qq_naive(40) ** -1
    assert deep.first_mismatch(shallow, shallow.trunc) is None


def test_evaluate_numeric():
    s = P({0: 1, 1: -1}, 10)
    assert abs(s.evaluate(0.25) - 0.75) < 1e-15

"""Named q-objects against independent oracles."""

import math
import operator
import random
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from qident import blocks
from qident.blocks import (
    BETA,
    PochSpec,
    ThetaSpec,
    _triple_product,
    b_table_series,
    gamma_k,
    poch_quotient,
    sine_ratio_table,
    theta1_normalized,
    theta_sum,
)
from qident.dsl import parse_expression
from qident.expr import PRIMITIVES, Prim, evaluate_to_order
from qident.field import ONE, SQRT2, AlgebraicNumber as A
from qident.lambert import BilateralSpec, product_families
from qident.series import PuiseuxSeries as P

QQ = PochSpec(-1, 1, 1)  # (q; q)_inf


def pentagonal_numbers(limit):
    """Generalized pentagonal numbers k(3k-1)/2 below `limit` with their
    pentagonal-number-theorem signs (-1)^k, by brute force."""
    out = {0: 1}
    k = 1
    while k * (3 * k - 1) // 2 < limit:
        sign = -1 if k % 2 else 1
        for n in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if n < limit:
                out[n] = sign
        k += 1
    return out


# -- oracle: each Pochhammer expanded on its own, then multiplied --------


def oracle_pochhammer(spec, order):
    """One family by its own int array, one factor pass at a time."""
    order = F(order)
    if order <= 0:
        return P.zero(order)
    den = math.lcm(spec.offset.denominator, spec.step.denominator)
    n = math.ceil(order * den)
    coeffs = [0] * n
    coeffs[0] = 1
    e = spec.offset
    while e < order:
        off = int(e * den)
        for k in range(n - 1 - off, -1, -1):
            if coeffs[k]:
                coeffs[k + off] += spec.sign * coeffs[k]
        e += spec.step
    return P({F(k, den): c for k, c in enumerate(coeffs) if c}, order)


def oracle_quotient(families, order):
    """Pochhammer expansions multiplied through series products, each
    divisor through ** -1."""
    out = P.one(order)
    for spec, power in families:
        one = oracle_pochhammer(spec, order)
        factor = one if power > 0 else one ** -1
        for _ in range(abs(power)):
            out = out * factor
    return out


def oracle_fill(families, order):
    """The slice-update fill the packed fill replaced: one int list on the
    common grid; multiplying by (1 + sign*y), y = q^off, is one slice
    update on the old values, dividing by it the ascending blocks of off
    slots, each taking the updated block before it."""
    order = F(order)
    powers = {}
    for spec, p in families:
        powers[spec] = powers.get(spec, 0) + p
    den = math.lcm(1, *(x.denominator for spec in powers
                        for x in (spec.offset, spec.step)))
    n = math.ceil(order * den)
    c = [0] * n
    c[0] = 1
    for spec, p in powers.items():
        op = operator.add if spec.sign > 0 else operator.sub
        inv = operator.sub if spec.sign > 0 else operator.add
        for off in range(int(spec.offset * den), n, int(spec.step * den)):
            for _ in range(p):
                c[off:] = list(map(op, c[off:], c))
            for _ in range(-p):
                for s in range(off, n, off):
                    c[s:s + off] = map(inv, c[s:s + off], c[s - off:s])
    return P.from_slots(0, den, c, None, order)


def oracle_theta_product(spec, order):
    """(-g; gd)(-d; gd)(gd; gd), the base's sign split over a doubled step."""
    a, b, s1, s2 = spec.a, spec.b, spec.sign1, spec.sign2
    st_ = a + b
    if s1 * s2 == 1:
        parts = [(s1, a, st_), (s2, b, st_), (-1, st_, st_)]
    else:
        parts = [(s1, a, 2 * st_), (-s1, a + st_, 2 * st_),
                 (s2, b, 2 * st_), (-s2, b + st_, 2 * st_),
                 (1, st_, 2 * st_), (-1, 2 * st_, 2 * st_)]
    out = P.one(order)
    for sign, offset, step in parts:
        out = out * oracle_pochhammer(PochSpec(sign, offset, step), order)
    return out


def oracle_h(order, r):
    unit_order = F(order) - F(r) / 2
    if unit_order <= 0:
        return P.zero(order)
    num = oracle_theta_product(ThetaSpec(-1, -1, r, 7 * r), unit_order)
    den = oracle_theta_product(ThetaSpec(-1, -1, 3 * r, 5 * r), unit_order)
    return (num * den ** -1).shift(F(r) / 2)


def oracle_i(order, r):
    num = oracle_theta_product(ThetaSpec(-1, -1, r, 3 * r), order)
    den = oracle_theta_product(ThetaSpec(-1, -1, 2 * r, 2 * r), order)
    return num * den ** -1


def oracle_psi11rhs(spec, order):
    s, a, b = spec.base, spec.x_exp, spec.z_exp
    return oracle_quotient(
        [(PochSpec(-1, off, s), 1) for off in (a + b, s - a - b, s, s)]
        + [(PochSpec(-1, off, s), -1) for off in (a, s - a, b, s - b)],
        order,
    )


# -- oracle: the sums in Fraction exponents and Q(sqrt2) values ----------


def oracle_theta_sum(spec, order):
    """The bilateral sum with a Fraction exponent per term, into one dict."""
    order = F(order)
    a, b, s1, s2 = spec.a, spec.b, spec.sign1, spec.sign2
    acc = {}
    for j, step in ((0, 1), (-1, -1)):
        while True:
            t1, t2 = j * (j + 1) // 2, j * (j - 1) // 2
            e = a * t1 + b * t2
            if e >= order:
                break
            c = (s1 if t1 % 2 else 1) * (s2 if t2 % 2 else 1)
            acc[e] = acc.get(e, 0) + c
            j += step
    return P(acc, order)


def oracle_sine_ratios(k, count):
    """r_0..r_{count-1} in field elements: r_{j+1} = 2cos(2k pi/8) r_j - r_{j-1}."""
    twocos = -BETA[k]
    values = [ONE, twocos + ONE]
    while len(values) < count:
        values.append(twocos * values[-1] - values[-2])
    return values[:count]


def oracle_theta1_normalized(k, order):
    order = F(order)
    exps = []
    while F(len(exps) * (len(exps) + 1), 2) < order:
        exps.append(F(len(exps) * (len(exps) + 1), 2))
    table = oracle_sine_ratios(k, len(exps))
    return P({e: -table[j] if j % 2 else table[j] for j, e in enumerate(exps)},
             order)


def oracle_b_table_series(i, length):
    r1, r3 = oracle_sine_ratios(1, length), oracle_sine_ratios(3, length)
    if i == 1:
        values = [x - y for x, y in zip(r1, r3)]
    elif i == 2:
        values = [(ONE + BETA[3]) * y - (ONE + BETA[1]) * x for x, y in zip(r1, r3)]
    else:
        values = [BETA[3] * y - BETA[1] * x for x, y in zip(r1, r3)]
    return P({F(k): v for k, v in enumerate(values)}, length)


def oracle_gamma_k(k, order, r=1):
    """G_k(q^r) by one pass per factor over a pair of int arrays, with the
    sign of beta_k = s*sqrt2 read per k and G_2 filled by the same loop."""
    order, r = F(order), F(r)
    if order <= 0:
        return P.zero(order)
    s = int(BETA[k].irr)
    den = r.denominator
    n = math.ceil(order * den)
    rp, ip = [0] * n, [0] * n
    rp[0] = 1
    for off1 in range(r.numerator, n, r.numerator):
        for j in range(n - 1, off1 - 1, -1):
            if s:
                rp[j] += 2 * s * ip[j - off1]
                ip[j] += s * rp[j - off1]
            if j - 2 * off1 >= 0:
                rp[j] += rp[j - 2 * off1]
                ip[j] += ip[j - 2 * off1]
    return P.from_slots(0, den, rp, ip, order)


def poch(spec, order):
    """One Pochhammer family, (spec) below `order`, as its own fill."""
    return poch_quotient([(spec, 1)], order)


# -- oracle: each atom at q^r built a second way ---------------------------


def threaded_eta(m, order):
    m = F(m)
    return poch(PochSpec(-1, m, m), F(order) - m / 24).shift(m / 24)


def threaded_h(r, order):
    r = F(r)
    return poch_quotient(
        _triple_product(ThetaSpec(-1, -1, r, 7 * r), 1)
        + _triple_product(ThetaSpec(-1, -1, 3 * r, 5 * r), -1),
        F(order) - r / 2,
    ).shift(r / 2)


def threaded_i(r, order):
    r = F(r)
    return poch_quotient(
        _triple_product(ThetaSpec(-1, -1, r, 3 * r), 1)
        + _triple_product(ThetaSpec(-1, -1, 2 * r, 2 * r), -1),
        order,
    )


def at_q(spec):
    """A theta sum at q below order/r, taken through q -> q^r."""
    return lambda r, order: theta_sum(spec, F(order) / F(r)).substitute(F(r))


THREADED = {
    "eta": threaded_eta,
    "phi": at_q(ThetaSpec(1, 1, 1, 1)),
    "psi": at_q(ThetaSpec(1, 1, 1, 3)),
    "H": threaded_h,
    "I": threaded_i,
    "G1": lambda r, order: oracle_gamma_k(1, order, r),
    "G2": lambda r, order: oracle_gamma_k(2, order, r),
    "G3": lambda r, order: oracle_gamma_k(3, order, r),
}


def atom(name, arg, order):
    """The DSL atom `name(arg)` below `order`, through its one builder."""
    return PRIMITIVES[name].build(F(arg) if isinstance(arg, (int, F)) else arg, order)


def fields(s):
    """The canonical form field for field, the slot order included."""
    return s.m, s.den, s.d, list(s.slots.items()), s.trunc


GRIDS = (1, 2, 3, 4, 6)


@st.composite
def grid_exponent(draw, max_units=3):
    """A positive exponent k/g on one of the grids q^(1/g), at most max_units."""
    g = draw(st.sampled_from(GRIDS))
    return F(draw(st.integers(1, max_units * g)), g)


@st.composite
def families(draw):
    return draw(st.lists(
        st.tuples(
            st.builds(PochSpec, st.sampled_from([1, -1]), grid_exponent(),
                      grid_exponent()),
            st.sampled_from([1, -1]),
        ),
        min_size=1, max_size=5,
    ))


@st.composite
def theta_specs(draw, max_units=3):
    signs = st.sampled_from([1, -1])
    return ThetaSpec(draw(signs), draw(signs), draw(grid_exponent(max_units)),
                     draw(grid_exponent(max_units)))


orders = st.builds(F, st.integers(1, 96), st.sampled_from([1, 2, 3]))


def assert_same(got, want):
    assert got.trunc == want.trunc
    assert got.terms == want.terms


class TestBuilderMatchesOracle:
    """poch_quotient, and every block built on it, against the old path."""

    # divisions by factors at slots on both sides of sqrt(n), n the slot
    # count: many short blocks of off slots below, few long ones above,
    # and a last block cut short by n
    @example([(PochSpec(-1, 1, 1), -1)], F(40))
    @example([(PochSpec(1, 1, 1), -1)], F(40))
    @example([(PochSpec(1, 7, 5), -1), (PochSpec(-1, 6, 1), -2)], F(30))
    @example([(PochSpec(1, F(1, 2), 3), -2), (PochSpec(-1, 2, 2), -1),
              (PochSpec(1, F(3, 2), F(5, 2)), 1)], F(24))
    @example([(PochSpec(-1, F(5, 3), F(1, 3)), -1),
              (PochSpec(1, F(2, 3), 2), -1)], F(95, 3))
    @settings(max_examples=60, deadline=None)
    @given(families(), orders)
    def test_factor_lists(self, fams, order):
        assert_same(poch_quotient(fams, order), oracle_quotient(fams, order))

    @settings(max_examples=40, deadline=None)
    @given(theta_specs(), orders)
    def test_theta_product(self, spec, order):
        assert_same(atom("f", spec, order), oracle_theta_product(spec, order))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([F(1), F(2), F(1, 2), F(1, 3)]), orders)
    def test_h_and_i(self, r, order):
        assert_same(atom("H", r, order), oracle_h(order, r))
        assert_same(atom("I", r, order), oracle_i(order, r))

    @settings(max_examples=30, deadline=None)
    @given(grid_exponent(4), grid_exponent(4), grid_exponent(2), orders)
    def test_psi11rhs(self, alpha, beta, extra, order):
        spec = BilateralSpec(alpha + beta + extra, alpha, beta)
        assert_same(Prim("psi11rhs", spec).evaluate(order), oracle_psi11rhs(spec, order))

    # deep divisions: about log2(n/off) doublings at off = 1, and one at
    # off just below n/2
    @example([(PochSpec(1, 1, 1), -1)], F(400))
    @example([(PochSpec(-1, 1, 1), -24)], F(60))
    @example([(PochSpec(1, 1, 1), 24)], F(60))
    @example([(PochSpec(-1, 19, 100), -1)], F(40))
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(
        st.builds(PochSpec, st.sampled_from([1, -1]), grid_exponent(),
                  grid_exponent()),
        st.integers(-4, 4)), min_size=1, max_size=6), orders)
    def test_packed_fill_matches_the_slice_fill(self, fams, order):
        assert fields(poch_quotient(fams, order)) == fields(oracle_fill(fams, order))

    def test_one_family_is_pochhammer(self):
        spec = PochSpec(1, F(2, 3), F(3, 2))
        assert_same(poch(spec, 40), oracle_pochhammer(spec, 40))

    def test_cancelled_families_leave_one(self):
        spec = PochSpec(-1, 1, 2)
        assert poch_quotient([(spec, 1), (spec, -1)], 10) == P.one(10)


class TestRescaledAtoms:
    """Every `r` atom equals the same series built the other way, field for
    field: G1 and G3, built at q and substituted, equal their per-slot loop
    with r threaded through it; phi and psi, r in their spec, equal their
    sum at q substituted; the family atoms equal their fill at q^r."""

    @pytest.mark.parametrize("name", sorted(THREADED))
    def test_matches_the_threaded_builder(self, name):
        for r in (1, F(1, 2), 2, F(3, 2), F(2, 3), 16, F(1, 7), F(5, 3), 64):
            for order in (-1, 0, F(1, 3), 1, F(7, 2), 24, F(97, 2), 96):
                assert fields(atom(name, r, order)) == \
                    fields(THREADED[name](r, order)), (r, order)

    def test_every_r_atom_is_covered(self):
        assert set(THREADED) == {n for n, p in PRIMITIVES.items() if p.kind == "r"}


class TestPochhammer:
    def test_euler_pentagonal_to_order_100(self):
        s = poch(QQ, 100)
        expected = pentagonal_numbers(100)
        got = {int(e): c for e, c in s.items()}
        assert set(got) == set(expected)
        for n, c in got.items():
            assert c in (A(1), A(-1))
            assert c == A(expected[n])

    def test_euler_product_identity(self):
        # (-q;q)(q;q) = (q^2;q^2), a cross-check between distinct specs
        lhs = poch(PochSpec(1, 1, 1), 20) * poch(QQ, 20)
        rhs = poch(PochSpec(-1, 2, 2), 20)
        assert lhs.first_mismatch(rhs, 20) is None

    def test_half_integer_grid(self):
        s = poch(PochSpec(-1, F(1, 2), F(1, 2)), 6)
        assert all(e.denominator in (1, 2) for e, _ in s.items())
        assert s.coefficient(F(1, 2)) == A(-1)

    def test_order_at_most_zero_is_empty(self):
        assert not poch(QQ, 0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PochSpec(2, 1, 1)
        with pytest.raises(ValueError):
            PochSpec(-1, 0, 1)


class TestTheta:
    def test_phi_squares(self):
        s = theta_sum(ThetaSpec(1, 1, 1, 1), 10)
        assert s == P({0: 1, 1: 2, 4: 2, 9: 2}, 10)

    def test_psi_triangular(self):
        s = theta_sum(ThetaSpec(1, 1, 1, 3), 11)
        assert s == P({0: 1, 1: 1, 3: 1, 6: 1, 10: 1}, 11)

    def test_enumeration_oracle(self):
        # brute-force bilateral enumeration over j in [-6, 6]
        spec = ThetaSpec(-1, -1, 2, 14)
        acc = {}
        for j in range(-6, 7):
            t1, t2 = j * (j + 1) // 2, j * (j - 1) // 2
            e = 2 * t1 + 14 * t2
            if e < 40:
                acc[e] = acc.get(e, 0) + (-1) ** (t1 + t2)
        s = theta_sum(spec, 40)
        assert {int(e): c for e, c in s.items()} == {
            n: A(c) for n, c in acc.items() if c
        }
        assert s.coefficient(0) == ONE
        assert s.coefficient(2) == A(-1)
        assert s.coefficient(14) == A(-1)

    @pytest.mark.parametrize(
        "spec",
        [
            ThetaSpec(1, 1, 1, 1),
            ThetaSpec(1, 1, 1, 3),
            ThetaSpec(-1, -1, 1, 7),
            ThetaSpec(-1, 1, 2, 3),   # mixed signs: alternating base
            ThetaSpec(1, -1, F(1, 2), F(5, 2)),
        ],
    )
    def test_sum_equals_product(self, spec):
        assert theta_sum(spec, 24).first_mismatch(
            atom("f", spec, 24), 24
        ) is None

    @example(ThetaSpec(1, 1, F(1, 10**9), F(1, 10**9)), F(1, 10**6))
    @example(ThetaSpec(-1, 1, F(2, 3), F(3, 2)), F(0))
    @settings(max_examples=200, deadline=None)
    @given(st.builds(ThetaSpec, st.sampled_from([1, -1]), st.sampled_from([1, -1]),
                     st.fractions(F(1, 7), 20, max_denominator=7),
                     st.fractions(F(1, 7), 20, max_denominator=7)),
           st.fractions(-5, 120, max_denominator=7))
    def test_sum_matches_the_oracle(self, spec, order):
        assert fields(theta_sum(spec, order)) == fields(oracle_theta_sum(spec, order))

    @settings(max_examples=60, deadline=None)
    @given(theta_specs(max_units=4), st.sampled_from([24, 48]))
    def test_triple_product_property(self, spec, order):
        assert_same(theta_sum(spec, order), atom("f", spec, order))

    def test_product_form_as_explicit_pochhammers(self):
        # f(-q,-q^7) = (q;q^8)(q^7;q^8)(q^8;q^8)
        lhs = atom("f", ThetaSpec(-1, -1, 1, 7), 30)
        rhs = (
            poch(PochSpec(-1, 1, 8), 30)
            * poch(PochSpec(-1, 7, 8), 30)
            * poch(PochSpec(-1, 8, 8), 30)
        )
        assert lhs.first_mismatch(rhs, 30) is None
        # f(-q^2,-q^2) = (q^2;q^4)^2 (q^4;q^4)
        lhs2 = atom("f", ThetaSpec(-1, -1, 2, 2), 30)
        rhs2 = (
            poch(PochSpec(-1, 2, 4), 30) ** 2
            * poch(PochSpec(-1, 4, 4), 30)
        )
        assert lhs2.first_mismatch(rhs2, 30) is None


class TestLemmaInstances:
    """The four theta rewriting rules on seeded monomial instances.

    Instances are (gamma, delta) = (q^a, q^b) with 0 < a < b so that every
    derived argument (delta/gamma included) keeps a positive exponent.
    """

    SEED = 20240817

    def instances(self, n=10):
        rng = random.Random(self.SEED)
        grid = [F(k, 2) for k in range(1, 17)]
        out = []
        while len(out) < n:
            a, b = rng.choice(grid), rng.choice(grid)
            if a < b:
                out.append((a, b))
        return out

    def f(self, s1, a, s2, b, order):
        return atom("f", ThetaSpec(s1, s2, F(a), F(b)), order)

    @pytest.mark.parametrize("idx", range(10))
    def test_f1_factorization(self, idx):
        a, b = self.instances()[idx]
        lhs = self.f(1, a, 1, a + 2 * b, 24) * self.f(1, b, 1, 2 * a + b, 24)
        rhs = self.f(1, a, 1, b, 24) * atom("psi", a + b, 24)
        assert lhs.first_mismatch(rhs, 24) is None

    @pytest.mark.parametrize("idx", range(10))
    def test_f2_sum(self, idx):
        a, b = self.instances()[idx]
        lhs = self.f(1, a, 1, b, 24) + self.f(-1, a, -1, b, 24)
        rhs = self.f(1, 3 * a + b, 1, a + 3 * b, 24) * 2
        assert lhs.first_mismatch(rhs, 24) is None

    @pytest.mark.parametrize("idx", range(10))
    def test_f3_difference(self, idx):
        a, b = self.instances()[idx]
        lhs = self.f(1, a, 1, b, 24) - self.f(-1, a, -1, b, 24)
        rhs = self.f(1, b - a, 1, 5 * a + 3 * b, 24).shift(a) * 2
        assert lhs.first_mismatch(rhs, 24) is None

    @pytest.mark.parametrize("idx", range(10))
    def test_f4_negative_split(self, idx):
        a, b = self.instances()[idx]
        lhs = self.f(-1, a, -1, b, 24)
        rhs = self.f(1, 3 * a + b, 1, a + 3 * b, 24) - self.f(
            1, b - a, 1, 5 * a + 3 * b, 24
        ).shift(a)
        assert lhs.first_mismatch(rhs, 24) is None


def dsl(text, order):
    return evaluate_to_order(parse_expression(text), order)


class TestEta:
    def test_prod_quotient_leading(self):
        # q^{-1/4} eta(8t)/eta(2t) = (q^8;q^8)/(q^2;q^2), unit leading term
        s = dsl("eta(8)/eta(2)", 20).shift(F(-1, 4))
        assert s.leading() == (F(0), ONE)
        want = oracle_quotient([(PochSpec(-1, 8, 8), 1), (PochSpec(-1, 2, 2), -1)],
                               F(79, 4))
        assert s.truncated(F(79, 4)).terms == want.terms

    def test_leading_exponent_arithmetic(self):
        s = dsl("eta(16)^(4)/eta(8)^(2)", 10)
        assert s.leading()[0] == 2  # 4*16/24 - 2*8/24

    def test_half_multiplier(self):
        assert atom("eta", F(1, 2), 5).leading()[0] == F(1, 48)

    @pytest.mark.parametrize("m", [1, 2, 8, F(1, 2), F(5, 3)])
    @pytest.mark.parametrize("order", [F(-1), F(1, 48), F(1, 2), F(31, 2)])
    def test_single_eta_is_shifted_pochhammer(self, m, order):
        want = oracle_pochhammer(PochSpec(-1, m, m), order - F(m) / 24)
        assert fields(atom("eta", m, order)) == fields(want.shift(F(m) / 24))

    @pytest.mark.parametrize(
        "factors",
        [((1, 1),), ((F(1, 2), 1), (3, 1), (F(1, 2), 1)), ((1, 24),),
         ((2, -1), (8, 1)), ((1, -3), (4, 5), (2, 0)), ((3, 2), (1, -24))],
    )
    def test_integer_powers_match_the_oracle(self, factors):
        # a DSL product of eta(m)^(p): each power runs on its own series
        order = F(31, 2)
        lead = sum(F(p) * F(m) / 24 for m, p in factors)
        want = oracle_quotient(
            [(PochSpec(-1, m, m), p) for m, p in factors], order - lead
        ).shift(lead)
        got = dsl("*".join(f"eta({m})^({p})" for m, p in factors), order)
        assert got.trunc >= order
        assert got.truncated(order).terms == want.terms

    def test_fractional_power_consistency(self):
        # eta^{1/2}(4t)^2 == eta(4t)^1 up to truncation
        half = dsl("eta(4)^(1/2)", 12)
        assert (half * half).first_mismatch(atom("eta", 4, 12), 12) is None


class TestGamma:
    def test_gamma2_is_poch(self):
        lhs = atom("G2", 1, 24)
        rhs = poch(PochSpec(1, 2, 2), 24)
        assert lhs.first_mismatch(rhs, 24) is None

    def test_gamma1_first_terms(self):
        s = gamma_k(1, 10)
        assert s.coefficient(0) == ONE
        assert s.coefficient(1) == -SQRT2
        assert s.coefficient(2) == A(1, -1)

    def test_product_collapses(self):
        lhs = gamma_k(1, 24) * atom("G2", 1, 24) * gamma_k(3, 24)
        rhs = poch(PochSpec(-1, 8, 8), 24) / poch(PochSpec(-1, 2, 2), 24)
        assert lhs.first_mismatch(rhs, 24) is None

    def test_scaled_argument(self):
        direct = oracle_gamma_k(1, 10, F(1, 2))
        via_subst = gamma_k(1, 20).substitute(F(1, 2))
        assert direct.first_mismatch(via_subst, 10) is None

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, F(1, 2), 2, F(3, 2), F(1, 3), 5])
    def test_matches_the_per_k_loop(self, k, r):
        for order in [-1, 0, F(1, 2), 1, F(7, 3), 24, F(97, 2)]:
            assert fields(atom(f"G{k}", r, order)) == \
                fields(oracle_gamma_k(k, order, r))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 3]), st.builds(F, st.integers(-2, 600), st.sampled_from([1, 2])))
    def test_packed_fill_matches_the_per_slot_loop(self, k, order):
        assert fields(gamma_k(k, order)) == fields(oracle_gamma_k(k, order))

    def test_k_outside_1_to_3_is_refused(self):
        # G_2 is a family atom, not a gamma_k build
        for k in (2, 4):
            with pytest.raises(ValueError, match="k = 1 or 3"):
                gamma_k(k, 10)


def exact_fill_bits(families, n):
    """The width bound of blocks._fill_bytes in 40-digit decimals: the
    least over x = 1 - 2^-t of the majorant bound on log2 |c_k|."""
    with localcontext() as ctx:
        ctx.prec = 40
        zeta2 = Decimal(math.pi) ** 2 / 6 + Decimal("1e-15")  # above pi^2/6
        values = []
        for t in range(1, n.bit_length() + 1):
            x = 1 - Decimal(2) ** -t
            lx = x.ln()
            log_m = Decimal(0)
            for weight, first, step, divides in families:
                xf = x**first
                if divides:
                    log_m += weight * (-(1 - xf).ln() - zeta2 / (step * lx))
                else:
                    log_m += weight * ((1 + xf).ln() - zeta2 / (2 * step * lx))
            values.append((log_m - (n - 1) * lx) / Decimal(2).ln())
        return min(values)


G1_FAMILIES = [(2, 1, 1, False)]


class TestFillWidth:
    """The slot width of the packed fills against the true coefficients."""

    @pytest.fixture
    def widths(self, monkeypatch):
        seen = []
        fill_bytes = blocks._fill_bytes

        def spy(*args):
            seen.append(fill_bytes(*args))
            return seen[-1]

        monkeypatch.setattr(blocks, "_fill_bytes", spy)
        return seen

    @pytest.mark.parametrize(
        "families, order, shift",
        [
            ([(QQ, 24)], 400, 0),
            ([(QQ, -24)], 400, 0),
            ([(PochSpec(1, 1, 1), 24)], 400, 0),
            (_triple_product(ThetaSpec(-1, -1, 1, 7), 1)
             + _triple_product(ThetaSpec(-1, -1, 3, 5), -1), 400, F(1, 2)),
            (_triple_product(ThetaSpec(-1, -1, 1, 3), 1)
             + _triple_product(ThetaSpec(-1, -1, 2, 2), -1), 400, 0),
        ],
        ids=["qq^24", "qq^-24", "-q;q^24", "h", "i"],
    )
    def test_majorant_covers_the_largest_coefficient(self, widths, families,
                                                     order, shift):
        # what the H(1) and I(1) atoms fill; H below order - 1/2 before its shift
        want = oracle_fill(families, F(order) - shift)
        assert poch_quotient(families, F(order) - shift) == want
        bits = max(abs(r).bit_length() for r, _ in want.slots.values())
        assert want.d == 1 and 8 * widths[-1] > bits + 1

    def test_psi11rhs_and_g1(self, widths):
        # the whole 1psi1 quotient in one fill; the atom fills its square
        # root and squares it, as its powers 2 and -2 share the factor 2
        spec = BilateralSpec(1, F(1, 4), F(1, 2))
        want = oracle_psi11rhs(spec, 400)
        assert atom("psi11rhs", spec, 400) == want
        assert poch_quotient(product_families(spec), 400) == want
        bits = max(abs(r).bit_length() for r, _ in want.slots.values())
        assert want.d == 1 and 8 * widths[-1] > bits + 1
        want = oracle_gamma_k(1, 2000)
        assert gamma_k(1, 2000) == want
        bits = max(abs(x).bit_length() for v in want.slots.values() for x in v)
        assert want.d == 1 and 8 * widths[-1] > bits + 1

    @pytest.mark.parametrize(
        "families",
        [
            [(24, 1, 1, False)],
            [(24, 1, 1, True)],
            [(1, 1, 4, False), (1, 3, 4, False), (2, 2, 4, True)],
            G1_FAMILIES,
        ],
        ids=["qq^24", "qq^-24", "i", "G1"],
    )
    def test_width_keeps_the_margin_over_the_exact_bound(self, families):
        # the float search may stop early, so its bound is at least the
        # least exact one; _MARGIN bits and a sign bit come on top
        for n in range(1, 300):
            w = blocks._fill_bytes(families, n)
            bound = math.ceil(exact_fill_bits(families, n))
            assert 8 * w - 1 >= bound + blocks._MARGIN


def filled_with_width(families, order):
    """poch_quotient(families, order) and the slot width it filled at."""
    seen = []
    fill_bytes = blocks._fill_bytes

    def spy(*args):
        seen.append(fill_bytes(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks, "_fill_bytes", spy)
        got = poch_quotient(families, order)
    return got, seen[-1]


@st.composite
def width_grid_families(draw):
    """(grid g, families): one to four parts on the grid q^(1/g), g = 1..4,
    each a triple product, eta, poch, h, i or 1psi1 product side raised to
    a power in -2..3."""
    g = draw(st.integers(1, 4))
    unit = st.builds(F, st.integers(1, 4 * g), st.just(g))
    signs = st.sampled_from([1, -1])
    out = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["f", "f", "eta", "poch", "H", "I", "psi11"]))
        p = draw(st.integers(-2, 3))
        if kind == "f":
            parts = _triple_product(ThetaSpec(draw(signs), draw(signs),
                                              draw(unit), draw(unit)), p)
        elif kind == "eta":
            parts = [(spec, p) for spec, _ in blocks.eta_families(draw(unit))]
        elif kind == "poch":
            parts = [(PochSpec(draw(signs), draw(unit), draw(unit)), p)]
        elif kind == "psi11":
            s_ = F(draw(st.integers(3, 4 * g)), g)
            a = F(draw(st.integers(1, int(s_ * g) - 2)), g)
            b = F(draw(st.integers(1, int((s_ - a) * g) - 1)), g)
            parts = [(spec, q * p) for spec, q in product_families(BilateralSpec(s_, a, b))]
        else:
            r = draw(unit)
            fams = blocks.h_families(r) if kind == "H" else blocks.i_families(r)
            parts = [(spec, q * p) for spec, q in fams]
        out.extend(parts)
    return g, out


class TestThetaGroupWidths:
    """Fills whose width comes from whole theta products and eta powers."""

    @example((1, [(QQ, 1)]), 300)
    @example((1, [(QQ, 3)]), 300)
    @example((1, [(PochSpec(1, 1, 1), 3)]), 300)
    @example((1, _triple_product(ThetaSpec(1, -1, 1, 1), 3)), 300)
    @example((1, _triple_product(ThetaSpec(1, 1, 1, 1), 3)
              + _triple_product(ThetaSpec(-1, -1, 1, 3), -2)), 300)
    @example((2, _triple_product(ThetaSpec(1, 1, F(1, 2), F(1, 2)), 2)
              + [(PochSpec(-1, 1, 1), 1)]), 150)
    @settings(max_examples=150, deadline=None)
    @given(width_grid_families(), st.integers(1, 300))
    def test_fill_matches_the_slice_fill_with_the_margin(self, grid_families, m):
        # n = m slots on the grid q^(1/g)
        g, fams = grid_families
        order = F(m, g)
        got, w = filled_with_width(fams, order)
        want = oracle_fill(fams, order)
        assert fields(got) == fields(want)
        bits = max((abs(r).bit_length() for r, _ in want.slots.values()), default=0)
        assert 8 * w - 1 > bits + blocks._MARGIN

    @pytest.mark.parametrize(
        "families, order, width",
        [
            ([(QQ, 1)], 4000, 2),
            ([(QQ, 3)], 2000, 3),
            (_triple_product(ThetaSpec(1, -1, 1, 1), 1), 5000, 2),
            (_triple_product(ThetaSpec(1, -1, 1, 2), 2), 1000, 2),
        ],
        ids=["eta", "eta^3", "f(q,-q)", "f(q,-q^2)^2"],
    )
    def test_widths_of_theta_products_and_eta_powers(self, families, order, width):
        # the majorant of the factors alone takes 22, 27, 30 and 17 bytes
        got, w = filled_with_width(families, order)
        assert w == width
        assert fields(got) == fields(oracle_fill(families, order))

    @pytest.mark.parametrize(
        "grid, groups, left",
        [
            # f(q, q^3): (-q; q^4)(-q^3; q^4)(q^4; q^4), period 4
            ([(1, 1, 4, 1), (1, 3, 4, 1), (-1, 4, 4, 1)], [(1, 4)], 0),
            # f(q^2, q^2): (-q^2; q^4) counts twice
            ([(1, 2, 4, 2), (-1, 4, 4, 1)], [(1, 4)], 0),
            ([(1, 2, 4, 3), (-1, 4, 4, 1)], [(1, 4)], 1),
            # half of f(q^2, q^2) and an eta: the pentagonal group alone
            ([(1, 2, 4, 1), (-1, 4, 4, 1)], [(1, 12)], 1),
            # f(q, q^3)^3 * eta(4): the core's fourth power is eta's
            ([(-1, 1, 4, 3), (-1, 3, 4, 3), (-1, 4, 4, 4)], [(3, 4), (1, 12)], 0),
            # f(q, -q^2): six families over step 6, period 3
            (_triple_product(ThetaSpec(1, -1, 1, 2), 2), [(2, 3)], 0),
            # (-q^4; q^4) is no core, and divisors join no group
            ([(1, 1, 4, 1), (1, 3, 4, 1), (1, 4, 4, 1)], [], 3),
            ([(1, 4, 4, 2)], [], 2),
            ([(1, 1, 4, -1), (1, 3, 4, -1), (-1, 4, 4, -1)], [], 0),
            ([(-1, 1, 1, -3)], [], 0),
        ],
        ids=["f(q,q3)", "f(q2,q2)", "f(q2,q2)^1.5", "eta", "f^3*eta",
             "mixed", "+core", "+eta", "1/f", "1/eta^3"],
    )
    def test_groups(self, grid, groups, left):
        if isinstance(grid[0][0], PochSpec):
            grid = blocks._grid(grid)[1]
        got, rest = blocks._theta_groups(grid)
        assert got == groups
        # the groups take their powers off their members; divisors stay
        assert sum(p for *_, p in rest if p > 0) == left
        assert [p for *_, p in rest if p < 0] == [p for *_, p in grid if p < 0]


def theta_group_kinds():
    """(name, families, exponents e(j)) of one whole group of each kind,
    on the integer grid."""
    kinds = [("pentagonal D=%d" % d, [(PochSpec(-1, d, d), 1)],
              lambda j, d=d: d * j * (3 * j - 1) // 2) for d in (1, 2, 3)]
    for s1, s2 in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
        for a, b in ((1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (1, 5)):
            kinds.append((f"f({s1}q^{a},{s2}q^{b})",
                           _triple_product(ThetaSpec(s1, s2, a, b), 1),
                           lambda j, a=a, b=b: a * j * (j + 1) // 2 + b * j * (j - 1) // 2))
    return kinds


@pytest.mark.parametrize("name, families, e", theta_group_kinds(),
                         ids=[k[0] for k in theta_group_kinds()])
def test_group_term_bounds_the_sum_side(name, families, e):
    # the term a group adds to log M(x) is at least log of its sum side
    # sum x^e(j) over the exponents below n, at every x = 1 - 2^-t
    groups, rest = blocks._theta_groups(blocks._grid(families)[1])
    assert len(groups) == 1 and groups[0][0] == 1
    assert all(p == 0 for *_, p in rest)
    exps = [e(j) for j in range(-40, 41)]
    assert min(e(41), e(-41)) >= 300  # every exponent below 300 is listed
    for n in range(1, 301):
        below = [k for k in exps if k < n]
        for t in range(1, n.bit_length() + 3):
            lx = math.log1p(-0.5**t)
            total = math.fsum(math.exp(k * lx) for k in below)
            assert blocks._log_majorant([], groups, lx) >= math.log(total), (n, t)


class TestSineRatios:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_float_oracle(self, k):
        table = sine_ratio_table(k, 13)
        assert table[0] == (1, 0)
        z = k * math.pi / 8
        for j, (x, y) in enumerate(table):
            want = math.sin((2 * j + 1) * z) / math.sin(z)
            assert abs(x + y * math.sqrt(2) - want) < 1e-10

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 40])
    def test_pairs_match_the_field_oracle(self, k, count):
        assert [A(x, y) for x, y in sine_ratio_table(k, count)] == \
            oracle_sine_ratios(k, count)

    def test_k1_second_entry(self):
        assert sine_ratio_table(1, 2)[1] == (1, 1)

    def test_b1_at_residue_one(self):
        for l in range(4):
            assert b_table_series(1, 32).coefficient(8 * l + 1) == A(0, 2)

    def test_b2_at_zero(self):
        assert b_table_series(2, 1).coefficient(0) == A(0, 2)

    def test_sine_product_identity(self):
        prod = (
            math.sin(math.pi / 8)
            * math.sin(2 * math.pi / 8)
            * math.sin(3 * math.pi / 8)
        )
        assert abs(prod - 0.25) <= 1e-12

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_b_table_matches_the_oracle(self, i):
        for length in range(0, 70):
            assert fields(b_table_series(i, length)) == \
                fields(oracle_b_table_series(i, length))

    def test_b_table_series_support(self):
        s = b_table_series(1, 32)
        assert all(e.denominator == 1 for e, _ in s.items())
        assert s.coefficient(0) == A(0)
        assert s.coefficient(1) == A(0, 2)


class TestTheta1Normalized:
    def test_k2_sign_cycle(self):
        # ratios at 2pi/8 cycle 1, 1, -1, -1, so the alternating sum has
        # coefficients +1, -1, -1, +1 at the triangular exponents
        s = theta1_normalized(2, 16)
        assert [s.coefficient(e) for e in (0, 1, 3, 6, 10)] == [
            ONE, A(-1), A(-1), ONE, ONE,
        ]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_pochhammer_times_gamma(self, k):
        lhs = theta1_normalized(k, 24)
        rhs = poch(QQ, 24) * atom(f"G{k}", 1, 24)
        assert lhs.first_mismatch(rhs, 24) is None

    def test_constant_term_is_one(self):
        for k in (1, 2, 3):
            assert theta1_normalized(k, 5).coefficient(0) == ONE

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_the_oracle(self, k):
        for num in range(-3, 130):
            order = F(num, 1 + num % 4)
            assert fields(theta1_normalized(k, order)) == \
                fields(oracle_theta1_normalized(k, order))


class TestContinuedFractionProducts:
    def test_h_leading(self):
        h = atom("H", 1, 12)
        assert h.leading() == (F(1, 2), ONE)

    def test_h_constant_term_after_normalizing(self):
        h = atom("H", 1, 12).shift(F(-1, 2))
        assert h.coefficient(0) == ONE

    def test_i_leading(self):
        assert atom("I", 1, 12).leading() == (F(0), ONE)

    def test_substituting_q_squared_doubles_the_leading_exponent(self):
        # h(q^2) via substitution has leading term q^1
        doubled = atom("H", 1, 12).substitute(2)
        assert doubled.leading() == (F(1), ONE)
        direct = threaded_h(2, 24)
        assert doubled.first_mismatch(direct, 24) is None

    def test_reciprocal_difference_law(self):
        h = atom("H", 1, 21)
        lhs = h ** -1 - h
        rhs = atom("phi", 2, 21) * atom("psi", 4, 21) ** -1 * P.monomial(1, F(-1, 2), 21)
        assert lhs.first_mismatch(rhs, 20) is None

    def test_reciprocal_sum_law(self):
        h = atom("H", 1, 21)
        lhs = h ** -1 + h
        rhs = atom("phi", 1, 21) * atom("psi", 4, 21) ** -1 * P.monomial(1, F(-1, 2), 21)
        assert lhs.first_mismatch(rhs, 20) is None


class TestPhiPsi:
    def test_phi_values(self):
        assert atom("phi", 1, 10) == P({0: 1, 1: 2, 4: 2, 9: 2}, 10)

    def test_psi_scaled(self):
        assert atom("psi", 4, 25) == P({0: 1, 4: 1, 12: 1, 24: 1}, 25)

    def test_psi_product_form(self):
        # (q^2;q^2)/(q;q^2) against the bilateral sum
        prod = poch(PochSpec(-1, 2, 2), 24) / poch(PochSpec(-1, 1, 2), 24)
        assert atom("psi", 1, 24).first_mismatch(prod, 24) is None


def test_root_of_unity_polynomial():
    # (1-y)(1+y) prod_k (1 + beta_k y + y^2) = 1 - y^8 exactly
    order = 12
    out = P({0: 1, 1: -1}, order) * P({0: 1, 1: 1}, order)
    for k in (1, 2, 3):
        out = out * P({0: ONE, 1: BETA[k], 2: ONE}, order)
    assert out == P({0: 1, 8: -1}, order)

"""Puiseux series arithmetic: truncation bookkeeping and exactness."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qident.field import ONE, SQRT2, ZERO, AlgebraicNumber as A
from qident.blocks import PochSpec, gamma_k, pochhammer
from qident.series import (
    MAX_DENSE_SLOTS,
    InsufficientPrecisionError,
    LeadingCoefficientError,
    PuiseuxSeries as P,
    SlotBudgetError,
)


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

    def test_scalar_multiplication(self):
        s = P({F(1, 8): 1}, 4)
        assert s * A(0, 2) == P({F(1, 8): A(0, 2)}, 4)
        assert 3 * s == P({F(1, 8): 3}, 4)

    def test_trunc_rule(self):
        a = P({2: 1}, 10)  # known below 10, leading exponent 2
        b = P({3: 1}, 7)
        assert (a * b).trunc == min(10 + 3, 7 + 2)

    def test_dense_and_sparse_paths_agree(self):
        a = P({n: (n % 3) - 1 for n in range(30)}, 30)
        b = P({F(n, 2): A(1, n % 2) for n in range(25)}, 20)
        sparse = a._mul_sparse(b, F(45, 2))
        dense = a._mul_dense(b, F(45, 2))
        assert sparse == dense


class TestInverse:
    def test_monomial(self):
        s = P.monomial(ONE, F(1, 2), 5)
        assert s.inverse().items() == [(F(-1, 2), ONE)]

    def test_one_minus_q(self):
        inv = P({0: 1, 1: -1}, 9).inverse()
        assert inv == geometric(9)

    def test_partition_generating_function(self):
        # oracle: enumeration-based p(n) against 1/(q;q)_inf
        inv = qq_naive(31).inverse()
        expect = partition_counts(30)
        got = [inv.coefficient(n) for n in range(31)]
        assert got == [A(p) for p in expect]

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            P.zero(5).inverse()

    @settings(max_examples=50)
    @given(unit_series())
    def test_mul_roundtrip(self, s):
        order = s.trunc
        prod = s * s.inverse()
        assert prod.first_mismatch(P.one(order), order) is None


class TestSlotBudget:
    """Dense arrays sized by an order and an exponent grid are capped."""

    def test_block_expansions(self):
        assert issubclass(SlotBudgetError, ValueError)
        with pytest.raises(SlotBudgetError):
            pochhammer(PochSpec(-1, F(1, 10**9), 1), 1)
        with pytest.raises(SlotBudgetError):
            gamma_k(1, MAX_DENSE_SLOTS + 1)

    def test_inverse_and_root(self):
        s = P({0: 1, F(1, 10**7): 1}, 1)
        with pytest.raises(SlotBudgetError):
            s.inverse()
        with pytest.raises(SlotBudgetError):
            s.nth_root(2)


class TestNthRoot:
    def test_monomial_exponent_divides(self):
        s = P.monomial(ONE, F(1, 2), 6)
        assert s.nth_root(2).items() == [(F(1, 4), ONE)]

    def test_perfect_square(self):
        s = P({0: 1, 1: 2, 2: 1}, 8)
        assert s.nth_root(2).first_mismatch(P({0: 1, 1: 1}, 8), 8) is None

    def test_fourth_root_of_one_minus_q(self):
        r = P({0: 1, 1: -1}, 8).nth_root(4)
        assert r.coefficient(1) == A(F(-1, 4))
        assert r.coefficient(2) == A(F(-3, 32))
        back = r ** 4
        assert back.first_mismatch(P({0: 1, 1: -1}, 8), 8) is None

    def test_requires_unit_leading_coefficient(self):
        with pytest.raises(LeadingCoefficientError):
            P({0: 2, 1: 1}, 5).nth_root(2)
        with pytest.raises(LeadingCoefficientError):
            P.zero(5).nth_root(3)

    @settings(max_examples=40)
    @given(unit_series(), st.sampled_from([2, 3, 4]))
    def test_power_roundtrip(self, s, n):
        root = s.nth_root(n)
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
    shallow = qq_naive(12).inverse()
    deep = qq_naive(40).inverse()
    assert deep.first_mismatch(shallow, shallow.trunc) is None


def test_dump_format():
    s = P({F(1, 2): A(0, 2), 2: A(F(-1, 3))}, 4)
    assert s.dump() == "1/2\t0+2*sqrt2\n2\t-1/3+0*sqrt2"


def test_evaluate_numeric():
    s = P({0: 1, 1: -1}, 10)
    assert abs(s.evaluate(0.25) - 0.75) < 1e-15

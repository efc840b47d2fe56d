"""Exact Q(sqrt2) arithmetic."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from qident.field import ONE, SQRT2, ZERO, AlgebraicNumber as A


def rationals(max_num=1000, max_den=30):
    return st.builds(
        F,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def algebraics(**kw):
    return st.builds(A, rationals(**kw), rationals(**kw))


class TestExamples:
    def test_conjugate_pair_sum(self):
        assert A(1, 1) + A(1, -1) == A(2)

    def test_additive_identity(self):
        x = A(F(3, 7), F(-2, 5))
        assert ZERO + x == x

    def test_rational_addition(self):
        assert A(F(1, 2)) + A(F(1, 3), 2) == A(F(5, 6), 2)

    def test_sqrt2_squares_to_two(self):
        assert SQRT2 * SQRT2 == A(2)

    def test_norm_form(self):
        assert A(1, 1) * A(1, -1) == A(-1)

    def test_scalar_scaling(self):
        assert A(0, 2) * A(F(1, 2)) == SQRT2

    def test_inverse_of_one(self):
        assert ONE.inverse() == ONE

    def test_inverse_of_sqrt2(self):
        assert SQRT2.inverse() == A(0, F(1, 2))

    def test_inverse_of_one_plus_sqrt2(self):
        x = A(1, 1)
        inv = x.inverse()
        assert x * inv == ONE  # independent check: multiply back
        assert inv == A(-1, 1)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_int_and_fraction_coercion(self):
        assert 2 * SQRT2 == A(0, 2)
        assert SQRT2 + 1 == A(1, 1)
        assert F(1, 2) * A(4, 2) == A(2, 1)
        assert 1 / SQRT2 == A(0, F(1, 2))

    def test_pow(self):
        assert A(1, 1) ** 2 == A(3, 2)
        assert A(1, 1) ** -1 == A(-1, 1)
        assert A(5, 3) ** 0 == ONE

    @pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (3, 2),
                                             (4, 2), (5, 3), (8, 3)])
    def test_pow_products(self, monkeypatch, n, products):
        # binary powering: one squaring per bit below the top one, one
        # product per further set bit, and no product by 1 to start
        x = A(F(2, 3), -1)
        want = ONE
        for _ in range(n):
            want = want * x
        calls = []
        mul = A.__mul__

        def counted(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(A, "__mul__", counted)
        assert x ** n == want
        assert len(calls) == products


@given(algebraics(), algebraics(), algebraics())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@given(algebraics())
def test_inverse_law(x):
    # a^2 - 2b^2 = 0 only at zero: sqrt2 is irrational
    if x:
        assert x * x.inverse() == ONE
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()


@given(algebraics(max_num=10**6, max_den=10**6),
       algebraics(max_num=10**6, max_den=10**6))
def test_float_embedding_is_multiplicative(x, y):
    got = float(x * y)
    expect = float(x) * float(y)
    assert abs(got - expect) <= 1e-12 * (1 + abs(expect))


def test_float_embedding_value():
    assert math.isclose(float(A(1, 1)), 1 + math.sqrt(2), rel_tol=1e-15)


def test_hash_consistent_with_cross_type_equality():
    assert A(2) == 2 and hash(A(2)) == hash(2)
    assert A(F(3, 4)) == F(3, 4) and hash(A(F(3, 4))) == hash(F(3, 4))


class TestTextForm:
    @pytest.mark.parametrize(
        "value,text",
        [
            (A(0), "0+0*sqrt2"),
            (A(F(1, 2)), "1/2+0*sqrt2"),
            (A(0, 2), "0+2*sqrt2"),
            (A(1, -1), "1-1*sqrt2"),
            (A(F(-2, 3), F(5, 7)), "-2/3+5/7*sqrt2"),
        ],
    )
    def test_render(self, value, text):
        assert value.render() == text
        assert A.parse(text) == value

    @given(algebraics())
    def test_round_trip(self, x):
        assert A.parse(x.render()) == x

    def test_bare_rational_accepted(self):
        assert A.parse("-7/3") == A(F(-7, 3))

    def test_rejects_garbage(self):
        for bad in ("", "sqrt2", "1 + sqrt2", "1+2sqrt2", "2.5+0*sqrt2"):
            with pytest.raises(ValueError):
                A.parse(bad)

"""Lambert/Eisenstein sums and the bilateral 1psi1 summation."""

from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from qident.blocks import PochSpec, fill, plan_fill
from qident.expr import Prim
from qident.field import AlgebraicNumber as A
from qident.lambert import (
    BilateralSpec,
    LambertSpec,
    bilateral_1psi1_lhs,
    MAX_LEGENDRE_P,
    lambert_sum,
    legendre_symbol,
    product_families,
)
from qident.series import PuiseuxSeries

# Theorem-style level-8 sum over odd m: (q^m + q^3m - q^5m - q^7m)/(1-q^8m)
ODD8 = LambertSpec(2, 1, ((1, 1), (1, 3), (-1, 5), (-1, 7)), 8)


def oracle_lambert_sum(spec, order):
    """The Lambert sum's former loop: m by m, each tail into one dict."""
    order = F(order)
    a_min = min(a for _, a in spec.numerators)
    acc = {}
    m = spec.residue if spec.residue >= 1 else spec.modulus
    while a_min * m < order:
        if spec.weight == "unit":
            w = 1
        elif spec.weight == "linear":
            w = m
        else:
            w = legendre_symbol(m, spec.legendre_p)
        if w:
            for c, a in spec.numerators:
                e = a * m
                while e < order:
                    acc[e] = acc.get(e, 0) + c * w
                    e += spec.denom_exponent * m
        m += spec.modulus
    return PuiseuxSeries(acc, order)


def oracle_bilateral_term(spec, j, order):
    """The index-j summand with a Fraction exponent per term, into one dict."""
    order = F(order)
    s, alpha, beta = spec.base, spec.x_exp, spec.z_exp
    if j >= 0:
        e, step, sign = beta * j, alpha + s * j, 1
    else:
        step = -s * j - alpha
        e, sign = beta * j + step, -1
    acc = {}
    while e < order:
        acc[e] = acc.get(e, 0) + sign
        e += step
    return PuiseuxSeries(acc, order)


def oracle_psi11lhs(spec, order):
    """The 1psi1 sum's former loop: summand series added one by one, each
    direction up to the first empty summand."""
    order = F(order)
    out = PuiseuxSeries.zero(order)
    for j, direction in ((0, 1), (-1, -1)):
        while True:
            t = oracle_bilateral_term(spec, j, order)
            if not t:
                break
            out = out + t
            j += direction
    return out


def psi11rhs(spec, order):
    """The 1psi1 product side, the DSL atom `psi11rhs(spec)`."""
    return Prim("psi11rhs", spec).evaluate(order)


def _exponent(data, top):
    # a positive rational on a grid q^(1/g), g <= 4
    g = data.draw(st.sampled_from([1, 2, 3, 4]))
    return F(data.draw(st.integers(1, top * g)), g)


class TestLegendre:
    def test_small_values(self):
        assert legendre_symbol(1, 3) == 1
        assert legendre_symbol(2, 3) == -1
        assert legendre_symbol(6, 3) == 0

    def test_euler_criterion_vs_quadratic_residues(self):
        p = 7
        squares = {(x * x) % p for x in range(1, p)}
        for m in range(0, 2 * p):
            expect = 0 if m % p == 0 else (1 if m % p in squares else -1)
            assert legendre_symbol(m, p) == expect

    @pytest.mark.parametrize("bad", [2, 9, 15, 1, -3])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(ValueError):
            legendre_symbol(5, bad)

    def test_primality_matches_trial_division(self):
        def trial(p):
            return p > 2 and p % 2 and all(p % d for d in range(3, isqrt(p) + 1, 2))

        for p in range(-3, 5000):
            try:
                legendre_symbol(1, p)
            except ValueError:
                assert not trial(p), p
            else:
                assert trial(p), p

    @pytest.mark.parametrize("n", [
        56052361,  # Carmichael number 211*421*631: a^(n-1) = 1 for every base
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,  # to every prime base up to 23
        318665857834031151167461,  # to every prime base up to 37
        MAX_LEGENDRE_P,  # to every prime base up to 41: refused as too large
        10**5000,
    ], ids=["carmichael", "spsp7", "spsp23", "spsp37", "spsp41", "10^5000"])
    def test_rejects_pseudoprimes_and_huge_moduli(self, n):
        with pytest.raises(ValueError, match="odd prime p below"):
            LambertSpec(1, 0, ((1, 1),), 1, "legendre", n)

    def test_large_prime_modulus(self):
        # the spec checks p once; each weight is one modular power
        p = 1000000007
        spec = LambertSpec(1, 0, ((1, 1),), 1, "legendre", p)
        got, want = lambert_sum(spec, 300), oracle_lambert_sum(spec, 300)
        assert (got.terms, got.trunc) == (want.terms, want.trunc)
        assert legendre_symbol(p - 1, p) == legendre_symbol(-1, p) == -1  # p = 3 mod 4


class TestLambertSum:
    def test_first_coefficient_unit_weight(self):
        s = lambert_sum(ODD8, 12)
        assert s.coefficient(1) == A(1)  # only m=1, numerator q^m

    def test_hand_enumerated_prefix(self):
        # m=1: (q + q^3 - q^5 - q^7)(1 + q^8 + ...); m=3: q^3 + q^9 + ...;
        # m=5: q^5 + ...; m=7: q^7 + ...; m=9: q^9 + ...
        s = lambert_sum(ODD8, 10)
        assert s.coefficient(3) == A(2)   # m=1 numerator q^3m plus m=3 numerator q^m
        assert s.coefficient(5) == A(0)   # -q^5 from m=1 cancels q^m at m=5
        assert s.coefficient(9) == A(3)   # m=1 tail, m=3 q^3m, m=9 q^m

    def test_linear_weight(self):
        spec = LambertSpec(1, 0, ((1, 1), (-1, 3), (-1, 5), (1, 7)), 8, "linear")
        s = lambert_sum(spec, 10)
        assert s.coefficient(1) == A(1)
        assert s.coefficient(2) == A(2)  # m=2 contributes weight 2

    def test_legendre_weight(self):
        spec = LambertSpec(1, 0, ((1, 1),), 8, "legendre", 3)
        s = lambert_sum(spec, 10)
        assert s.coefficient(2) == A(-1)  # (2|3) = -1, single term m=2
        assert s.coefficient(3) == A(0)   # (3|3) = 0

    def test_integer_coefficients_always(self):
        for spec in (
            ODD8,
            LambertSpec(1, 0, ((1, 1), (-1, 3)), 8, "linear"),
            LambertSpec(1, 0, ((1, 1), (-1, 5)), 8, "legendre", 5),
        ):
            for _, c in lambert_sum(spec, 40).items():
                assert c.irr == 0
                assert c.rat.denominator == 1

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_oracle(self, data):
        weight = data.draw(st.sampled_from(["unit", "linear", "legendre"]))
        modulus = data.draw(st.integers(1, 4))
        numerators = data.draw(st.lists(
            st.tuples(st.sampled_from([1, -1]), st.integers(1, 8)),
            min_size=1, max_size=4))
        spec = LambertSpec(modulus, data.draw(st.integers(0, modulus - 1)),
                           numerators, data.draw(st.integers(1, 9)), weight,
                           data.draw(st.sampled_from([3, 5, 7]))
                           if weight == "legendre" else 0)
        order = F(data.draw(st.integers(-4, 80)), data.draw(st.integers(1, 3)))
        got, want = lambert_sum(spec, order), oracle_lambert_sum(spec, order)
        assert (got.terms, got.trunc) == (want.terms, want.trunc)

    def test_order_5000_runs(self):
        # sum_m q^m/(1 - q^m) = sum_n d(n) q^n, d the number of divisors
        s = lambert_sum(LambertSpec(1, 0, ((1, 1),), 1), 5000)
        assert s.trunc == 5000
        assert [s.coefficient(n) for n in (4999, 4096, 4620)] == [A(2), A(13), A(48)]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LambertSpec(0, 0, ((1, 1),), 8)
        with pytest.raises(ValueError):
            LambertSpec(2, 1, ((2, 1),), 8)
        with pytest.raises(ValueError):
            LambertSpec(2, 1, ((1, 1),), 8, "legendre", 9)


class TestBilateral:
    def test_leading_term(self):
        s = bilateral_1psi1_lhs(BilateralSpec(16, 8, 2), 20)
        assert s.coefficient(0) == A(1)  # j=0, t=0

    @pytest.mark.parametrize("j", [-1, -2])
    def test_negative_index_expansion_vs_rational_value(self, j):
        # the rewrite 1/(1-q^{-u}) = -q^u/(1-q^u) behind the negative-j
        # terms, checked at a numeric point
        spec = BilateralSpec(16, 8, 2)
        q = 0.1
        series_value = oracle_bilateral_term(spec, j, 80).evaluate(q)
        direct = q ** (2 * j) / (1 - q ** (8 + 16 * j))
        assert abs(series_value - direct) < 1e-12

    def test_term_signs(self):
        spec = BilateralSpec(16, 8, 2)
        assert oracle_bilateral_term(spec, 1, 40).coefficient(2) == A(1)
        neg = oracle_bilateral_term(spec, -1, 40)
        lead = neg.leading()
        assert lead[0] == 6 and lead[1] == A(-1)  # -q^{-2} q^{8}

    @pytest.mark.parametrize("z_exp", [2, 6])
    def test_lhs_equals_rhs_to_order_48(self, z_exp):
        spec = BilateralSpec(16, 8, z_exp)
        lhs = bilateral_1psi1_lhs(spec, 48)
        rhs = psi11rhs(spec, 48)
        assert lhs.first_mismatch(rhs, 48) is None

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_ramanujan_summation_property(self, data):
        # 1psi1 at random 0 < alpha, beta with alpha + beta < s, each
        # exponent on its own grid q^(1/g), g <= 4
        alpha, beta = _exponent(data, 3), _exponent(data, 3)
        s = alpha + beta + _exponent(data, 3)
        spec = BilateralSpec(s, alpha, beta)
        lhs = bilateral_1psi1_lhs(spec, 24)
        rhs = psi11rhs(spec, 24)
        assert lhs.trunc == rhs.trunc == 24
        assert lhs.terms == rhs.terms

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_lhs_matches_oracle(self, data):
        # any 0 < alpha, beta < s, alpha + beta >= s included, at orders
        # off the grid and at or below 0
        s = _exponent(data, 12)
        alpha = _exponent(data, 12) % s or s / 2
        beta = _exponent(data, 12) % s or s / 3
        spec = BilateralSpec(s, alpha, beta)
        order = F(data.draw(st.integers(-6, 60)), data.draw(st.integers(1, 3)))
        got, want = bilateral_1psi1_lhs(spec, order), oracle_psi11lhs(spec, order)
        assert (got.terms, got.trunc) == (want.terms, want.trunc)

    def test_lhs_at_large_order(self):
        # quadratic in the order before terms went into one dict
        spec = BilateralSpec(16, 8, 2)
        lhs = bilateral_1psi1_lhs(spec, 2000)
        assert lhs.first_mismatch(psi11rhs(spec, 2000), 2000) is None
        assert bilateral_1psi1_lhs(spec, 8000).truncated(2000) == lhs

    def test_rhs_explicit_pochhammer_composition(self):
        # (q^10,q^6,q^16,q^16;q^16) / (q^8,q^8,q^2,q^14;q^16)
        rhs = psi11rhs(BilateralSpec(16, 8, 2), 40)
        num = den = None
        for off in (10, 6, 16, 16):
            p = fill(plan_fill([(PochSpec(-1, off, 16), 1)], 40))
            num = p if num is None else num * p
        for off in (8, 8, 2, 14):
            p = fill(plan_fill([(PochSpec(-1, off, 16), 1)], 40))
            den = p if den is None else den * p
        assert rhs.first_mismatch(num / den, 40) is None

    def test_one_sided_vs_bilateral_split(self):
        # sum over odd m of (q^m + q^3m)/(1-q^8m) minus the 5m,7m block
        # equals q * LHS(16,8,2) + q^3 * LHS(16,8,6)
        one_sided = lambert_sum(ODD8, 48)
        combo = bilateral_1psi1_lhs(BilateralSpec(16, 8, 2), 47).shift(1) + \
            bilateral_1psi1_lhs(BilateralSpec(16, 8, 6), 45).shift(3)
        assert one_sided.first_mismatch(combo, 45) is None

    def test_spec_window_validation(self):
        with pytest.raises(ValueError):
            BilateralSpec(16, 8, 16)  # z exponent not inside (0, base)
        with pytest.raises(ValueError):
            BilateralSpec(16, 0, 2)

    def test_rhs_offset_validation(self):
        # alpha + beta >= base puts a Pochhammer offset at or below zero
        with pytest.raises(ValueError):
            product_families(BilateralSpec(16, 10, 6))

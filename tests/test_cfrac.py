"""Continued fractions vs truncated product series, numerically."""

import math
from fractions import Fraction

import pytest

from qident.cfrac import (
    eval_general_cf,
    eval_h_cf,
    eval_i_cf,
    gcf_product_value,
)
from qident.expr import PRIMITIVES

# deep enough that the geometric tail at q <= 0.3 is far below 1e-12
H64 = PRIMITIVES["H"].build(Fraction(1), 64)
I64 = PRIMITIVES["I"].build(Fraction(1), 64)


class TestGeneralCF:
    def test_against_product_oracle(self):
        ev = eval_general_cf(0.3, 0.1, 0.2)
        ref = gcf_product_value(0.3, 0.1, 0.2, factors=200)
        assert ev.converged
        assert abs(ev.value - ref) <= 1e-9

    def test_q_zero_degenerates_to_one(self):
        # at q = 0 the fraction's value is the attracting fixed point of
        # x = (1-kl) + kl/x, namely x = 1, matching the product side
        ev = eval_general_cf(0.3, 0.1, 0.0)
        assert abs(ev.value - 1.0) <= 1e-9
        assert abs(gcf_product_value(0.3, 0.1, 0.0) - 1.0) == 0.0

    def test_k_l_zero(self):
        ev = eval_general_cf(0.0, 0.0, 0.2)
        assert abs(ev.value - 1.0) <= 1e-12
        assert abs(gcf_product_value(0.0, 0.0, 0.2) - 1.0) == 0.0

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            eval_general_cf(2.0, 0.6, 0.2)
        with pytest.raises(ValueError):
            eval_general_cf(0.3, 0.1, 1.0)


class TestHFraction:
    @pytest.mark.parametrize("q,tol", [(0.1, 1e-10), (0.2, 1e-9), (0.3, 1e-9)])
    def test_matches_series(self, q, tol):
        ev = eval_h_cf(q)
        assert ev.converged
        assert abs(ev.value - H64.evaluate(q)) <= tol

    def test_leading_behavior(self):
        q = 1e-6
        assert abs(eval_h_cf(q).value / math.sqrt(q) - 1.0) < 1e-5

    def test_rejects_out_of_domain(self):
        for q in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                eval_h_cf(q)


class TestIFraction:
    @pytest.mark.parametrize("q,tol", [(0.1, 1e-10), (0.25, 1e-9)])
    def test_matches_series(self, q, tol):
        ev = eval_i_cf(q)
        assert ev.converged
        assert abs(ev.value - I64.evaluate(q)) <= tol

    def test_leading_behavior(self):
        assert abs(eval_i_cf(1e-6).value - 1.0) < 1e-5


@pytest.mark.parametrize("q", [0.05, 0.1, 0.2, 0.3])
def test_sample_grid_within_1e9(q):
    assert abs(eval_h_cf(q).value - H64.evaluate(q)) <= 1e-9
    assert abs(eval_i_cf(q).value - I64.evaluate(q)) <= 1e-9


@pytest.mark.parametrize("q", [0.05, 0.1, 0.2, 0.3])
def test_residual_nonincreasing_beyond_depth_10(q):
    # observed property on the sample grid: collect the whole residual
    # trace (tol=0 never converges early) and check monotonicity once the
    # iteration has settled, ignoring values at the float noise floor
    for evaluator in (eval_h_cf, eval_i_cf):
        trace = []
        evaluator(q, tol=0.0, max_depth=40, residual_trace=trace)
        tail = trace[9:]
        for a, b in zip(tail, tail[1:]):
            if a <= 1e-14:
                break
            assert b <= a


def test_converged_respects_tolerance():
    ev = eval_h_cf(0.2, tol=1e-8)
    assert ev.converged and ev.residual <= 1e-8


def test_non_convergence_reported():
    ev = eval_h_cf(0.3, tol=1e-15, max_depth=2)
    assert not ev.converged
    assert ev.depth_used == 2

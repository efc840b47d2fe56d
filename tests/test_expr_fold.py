"""The product form of `Mul`/`Pow` trees over family atoms against the
tree: atom builds composed with `*`, `**`, `+`, `-` and `shift`, padded by
the hints as node-by-node evaluation pads them."""

import time
from fractions import Fraction as F

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from qident import backend, blocks, expr
from qident import series as series_mod
from qident.blocks import PochSpec, ThetaSpec
from qident.catalog import catalog
from qident.cli import main
from qident.dsl import parse_expression
from qident.expr import (
    PRIMITIVES, Add, Const, Mul, Pow, Prim, QPow, Sub, evaluate_to_order,
    shared_evaluations,
)
from qident.field import ONE, SQRT2, AlgebraicNumber
from qident.lambert import BilateralSpec
from qident.series import (
    InsufficientPrecisionError, LeadingCoefficientError, PuiseuxSeries as P,
    SlotBudgetError,
)

THM31 = [idy for idy in catalog() if idy.id.startswith("thm31-")]
FAILURES = (InsufficientPrecisionError, LeadingCoefficientError, ZeroDivisionError)


def tree(node, order, memo=None):
    """`node` below `order` one node at a time, with no product form above
    the atoms."""
    memo = {} if memo is None else memo
    order = F(order)
    key = (node, order)
    if key in memo:
        return memo[key]
    if isinstance(node, Prim):
        out = PRIMITIVES[node.name].build(node.arg, order)
    elif isinstance(node, Const):
        out = P.monomial(node.value, 0, max(order, F(1)))
    elif isinstance(node, QPow):
        out = P.one(max(order - node.exponent, F(1))).shift(node.exponent)
    elif isinstance(node, Add):
        out = tree(node.left, order, memo) + tree(node.right, order, memo)
    elif isinstance(node, Sub):
        out = tree(node.left, order, memo) - tree(node.right, order, memo)
    elif isinstance(node, Mul):
        lh, rh = node.left.hint(), node.right.hint()
        out = tree(node.left, order - rh, memo) * tree(node.right, order - lh, memo)
    elif not node.r:
        out = P.one(max(order, F(1)))
    else:
        h = node.base.hint()
        out = tree(node.base, max(order + (1 - node.r) * h, h + 1), memo) ** node.r
    memo[key] = out
    return out


def tree_to_order(node, order):
    """:func:`tree` with the padded retries of `evaluate_to_order`."""
    target, memo = F(order), {}
    for _ in range(4):
        s = tree(node, target, memo)
        if s.trunc >= order:
            return s
        target += 2 * (order - s.trunc)
    raise InsufficientPrecisionError(f"tree falls short of {order}")


def assert_same(node, order):
    """The engine's series of `node` has the tree's coefficients below
    `order` and a bound at least `order`; where the tree fails, the
    engine fails the same way (only a short tree may be beaten)."""
    try:
        want = tree_to_order(node, order)
    except FAILURES as exc:
        if isinstance(exc, InsufficientPrecisionError):
            return
        with pytest.raises(type(exc)):
            evaluate_to_order(node, order)
        return
    got = evaluate_to_order(node, order)
    assert got.trunc >= order
    assert got.first_mismatch(want, order) is None


# -- random trees ------------------------------------------------------------

R = st.sampled_from([F(1, 2), F(1), F(2), F(3, 2)])
HALVES = st.integers(1, 4).map(lambda k: F(k, 2))
SIGNS = st.sampled_from([1, -1])
# 1psi1 product sides: 0 < alpha, beta and alpha + beta < s
PSI11 = st.builds(lambda a, b, c: BilateralSpec(a + b + c, a, b), HALVES, HALVES, HALVES)
FAMILY_ATOMS = st.one_of(
    st.builds(Prim, st.sampled_from(["eta", "H", "I", "G2"]), R),
    st.builds(Prim, st.just("poch"), st.builds(PochSpec, SIGNS, HALVES, HALVES)),
    st.builds(Prim, st.just("f"),
              st.builds(ThetaSpec, SIGNS, SIGNS, HALVES, HALVES)),
    st.builds(Prim, st.just("psi11rhs"), PSI11),
)
LEAVES = st.one_of(
    FAMILY_ATOMS,
    st.builds(Prim, st.just("phi"), R),  # not a family: a partial product
    st.builds(Const, st.sampled_from(
        [ONE, AlgebraicNumber(2), AlgebraicNumber(-3), SQRT2, 1 + SQRT2,
         AlgebraicNumber(F(1, 2))])),
    st.builds(QPow, st.sampled_from([F(-1, 2), F(1, 3), F(2)])),
)
POWERS = st.sampled_from([F(-2), F(-1), F(-1, 2), F(1, 3), F(3, 4), F(2), F(0)])
PRODUCTS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.builds(Mul, inner, inner),
                            st.builds(Pow, inner, POWERS)),
    max_leaves=5,
)
TREES = st.recursive(
    PRODUCTS,
    lambda inner: st.one_of(st.builds(Add, inner, inner),
                            st.builds(Sub, inner, inner),
                            st.builds(Mul, PRODUCTS, inner),
                            st.builds(Mul, inner, PRODUCTS)),
    max_leaves=6,
)


class TestRandomTrees:
    @settings(max_examples=60, deadline=None)
    @given(TREES, st.sampled_from([F(1, 2), F(3), F(13, 3), F(8)]))
    @example(Mul(Pow(Prim("eta", F(1)), F(1, 2)),
                 Sub(Prim("H", F(1)), Pow(Prim("I", F(2)), F(-1)))), F(8))
    @example(Pow(Mul(Const(AlgebraicNumber(2)), Prim("eta", F(1))), F(1, 2)), F(3))
    @example(Pow(Sub(Prim("H", F(1)), Prim("H", F(1))), F(-1)), F(3))
    def test_fold_matches_the_tree(self, node, order):
        assert_same(node, order)

    @settings(max_examples=30, deadline=None)
    @given(TREES, st.sampled_from([F(3), F(8)]))
    def test_fold_matches_the_tree_in_a_batch(self, node, order):
        with shared_evaluations([node, Mul(Const(SQRT2), node)]):
            assert_same(node, order)
            assert_same(Mul(Const(SQRT2), node), order)


# -- named trees -------------------------------------------------------------


class TestNamedTrees:
    @pytest.mark.parametrize("order", [F(24), F(48), F(96), F(192)])
    def test_thm31_right_sides(self, order):
        memo = {}
        with shared_evaluations([idy.rhs for idy in THM31]):
            for idy in THM31:
                got = evaluate_to_order(idy.rhs, order)
                want = tree(idy.rhs, order, memo)
                assert got.trunc >= order and want.trunc >= order
                assert got.first_mismatch(want, order) is None, idy.id

    @pytest.mark.parametrize("text", [
        "eta(1)^(24)",
        "1/H(1) - H(1)",
        "phi(2)/(q^(1/2)*psi(4))",
        "phi(2)*eta(1)*eta(2)^(-1/2)",
        "eta(1)*phi(2)*eta(2)/(q^(1/2)*psi(4))",
        "eta(1)*phi(2)*eta(2)*(q^(1) + q^(2)*phi(1))",
        "eta(16)^(4)/eta(8)^(2)*(1/H(2) + H(2))",
        "eta(1)*(1 + q^(1) + q^(2) + q^(3))",
        "eta(1)^(1000)*eta(1)^(-999)",
        "eta(1)^(1/2)*eta(1)^(-1/2)",
        "psi11rhs(16,8,6)*eta(2)^(1/2)",
        "psi11rhs(1,1/4,1/2)^(1/2)*psi11rhs(16,8,2)/H(1)",
    ])
    @pytest.mark.parametrize("order", [F(1, 3), F(24), F(96)])
    def test_examples(self, text, order):
        node = parse_expression(text)
        assert_same(node, order)
        if tree(node, order).trunc >= order:  # no retry where the tree needs none
            assert node.evaluate(order).trunc >= order

    @pytest.mark.parametrize("texts, maps", [
        # PREF*GGPROD and PREF*GGRATIO, each expanded once for all six
        ([idy.id for idy in THM31], 2),
        # two terms for two atoms: distributed
        (["eta(16)^(4)/eta(8)^(2)*(1/H(2) + H(2))"], 2),
        # four terms for one atom: the sum is expanded as it stands
        (["eta(1)*(1 + q^(1) + q^(2) + q^(3))"], 1),
        (["eta(1)^(24)", "2*eta(1)^(12)*eta(1)^(12)"], 1),
        # the 1psi1 product side folds with the other family atoms
        (["psi11rhs(16,8,6)*eta(2)^(1/2)"], 1),
    ])
    def test_maps_expanded(self, monkeypatch, texts, maps):
        filled = []
        unit_product = expr._unit_product

        def spy(powers, unit):
            filled.append(unit)
            return unit_product(powers, unit)

        monkeypatch.setattr(expr, "_unit_product", spy)
        ids = {idy.id: idy.rhs for idy in THM31}
        nodes = [ids[t] if t in ids else parse_expression(t) for t in texts]
        with shared_evaluations(nodes):
            for node in nodes:
                evaluate_to_order(node, F(48))
        assert len(filled) == maps


# -- budgets and retries -----------------------------------------------------


class TestBudgets:
    def test_a_fused_fill_past_the_steps_is_refused_before_it_fills(self, monkeypatch):
        # one fill enters (q;q) and (q^2;q^2) once each below q^6000:
        # 2.7*10^7 steps, though either alone would take fewer than 2*10^7
        def unpack(*args):
            raise AssertionError("filled")

        monkeypatch.setattr(backend, "unpack", unpack)
        with pytest.raises(SlotBudgetError, match="steps"):
            evaluate_to_order(parse_expression("eta(1)*eta(2)"), 6000)

    def test_a_fused_fill_past_the_words_is_refused_before_it_fills(self, monkeypatch):
        # one fill of three passes a factor: below q^400 it fills 400 slots
        # of more than 8 bytes each
        node, slots = parse_expression("eta(1)^(2)*eta(2)"), 400

        def unpack(*args):
            raise AssertionError("filled")

        monkeypatch.setattr(backend, "unpack", unpack)
        monkeypatch.setattr(series_mod, "MAX_DENSE_SLOTS", slots)
        with pytest.raises(SlotBudgetError, match="64-bit words"):
            evaluate_to_order(node, 400)
        monkeypatch.setattr(series_mod, "MAX_DENSE_SLOTS", slots - 1)
        with pytest.raises(SlotBudgetError, match="dense coefficient slots, more"):
            evaluate_to_order(node, 400)

    def test_a_form_past_the_steps_gives_way_to_one_within(self, monkeypatch):
        # eta(1)^2*eta(2) below q^100: one fill of three passes a factor
        # takes fewer steps than two fills and a square, and runs; with the
        # cap just below that fill, the two fills run instead
        node = parse_expression("eta(1)^(2)*eta(2)")
        want = tree(node, 100)
        _, grid = blocks._grid([(PochSpec(-1, F(1), F(1)), 2), (PochSpec(-1, F(2), F(2)), 1)])
        monkeypatch.setattr(series_mod, "MAX_SLOT_STEPS", blocks._steps(grid, 100) - 1)
        got = evaluate_to_order(node, 100)
        assert got.first_mismatch(want, 100) is None
        with pytest.raises(SlotBudgetError, match="steps"):
            blocks.poch_quotient([(PochSpec(-1, F(1), F(1)), 2), (PochSpec(-1, F(2), F(2)), 1)],
                                 F(100) - F(1, 6))

    @pytest.mark.parametrize("text, order, code, what", [
        # large powers of two families: filled apart and raised, as the
        # tree does, not entered pass by pass into one fill
        ("eta(1)^(1000)*eta(2)^(999)", "300", 0, "3599/12\t"),
        ("eta(1)^(5)/eta(2)^(2)", "3000", 0, "70225/24\t265+0*sqrt2"),
        ("eta(1)*eta(2)", "6000", 2, "steps"),
        ("eta(1/1000)*eta(1/999)", "2", 2, "dense coefficient slots"),
    ])
    def test_cli(self, text, order, code, what):
        t0 = time.perf_counter()
        result = CliRunner().invoke(main, ["dump", text, "--order", order])
        assert result.exit_code == code
        assert what in result.output
        assert code == 0 or time.perf_counter() - t0 < 2

    def test_a_huge_power_is_raised_not_filled(self):
        # 146 powers of 10^30: the family is filled once and raised, and its
        # coefficient of q^1 is too long to print, as on the tree
        text = "poch(-,1,1)"
        for _ in range(146):
            text = f"({text})^(1{'0' * 30})"
        result = CliRunner().invoke(main, ["dump", f"{text}*poch(-,1,2)", "--order", "10"])
        assert result.exit_code == 2
        assert "the coefficient of q^1 is too long to print" in result.output

    @pytest.mark.parametrize("order", [F(24), F(48), F(96)])
    def test_no_padded_retries_on_the_catalog(self, order):
        # evaluate_to_order re-runs exactly when the first pass falls short
        sides = [side for idy in catalog() for side in (idy.lhs, idy.rhs)]
        with shared_evaluations(sides):
            short = [side for side in sides if side.evaluate(order).trunc < order]
        assert short == []

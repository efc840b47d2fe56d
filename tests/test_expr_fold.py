"""The product form of `Mul`/`Pow` trees over family atoms against the
tree: atom builds composed with `*`, `**`, `+`, `-` and `shift`, padded by
the hints as node-by-node evaluation pads them."""

import math
import time
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from qident import backend, blocks, expr
from qident import series as series_mod
from qident.blocks import PochSpec, ThetaSpec
from qident.catalog import catalog
from qident.cli import main
from qident.verify import verify_many
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
from test_blocks import oracle_gamma_k

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
    st.builds(Prim, st.sampled_from(["eta", "H", "I", "G1", "G2", "G3"]), R),
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
        expand_map = blocks.expand_map

        def spy(powers, unit):
            filled.append(unit)
            return expand_map(powers, unit)

        monkeypatch.setattr(blocks, "expand_map", spy)
        ids = {idy.id: idy.rhs for idy in THM31}
        nodes = [ids[t] if t in ids else parse_expression(t) for t in texts]
        with shared_evaluations(nodes):
            for node in nodes:
                evaluate_to_order(node, F(48))
        assert len(filled) == maps


# -- G_1 and G_3: theta_1 sums beside the map ----------------------------------

G_R = st.sampled_from([F(1), F(1, 2), F(2), F(2, 3)])


def oracle_g(r, a, b, order):
    """G1(q^r)^a G3(q^r)^b below `order`, each G_k by one pass per factor."""
    out = P.one(max(F(order), F(1)))
    for k, p in ((1, a), (3, b)):
        for _ in range(p):
            out = out * oracle_gamma_k(k, order, r)
    return out


class TestGammaFold:
    @settings(max_examples=40, deadline=None)
    @given(G_R, st.integers(0, 3), st.integers(0, 3),
           st.sampled_from([None, "G2", "eta", "poch"]),
           st.builds(F, st.integers(1, 400), st.just(2)))  # 1/2 to 200
    @example(F(2, 3), 3, 3, "eta", F(200))
    def test_products_match_the_per_factor_loop(self, r, a, b, other, order):
        node = Mul(Pow(Prim("G1", r), F(a)), Pow(Prim("G3", r), F(b)))
        want = oracle_g(r, a, b, order)
        if other is not None:
            x = (Prim("poch", PochSpec(-1, 1, 1)) if other == "poch"
                 else Prim(other, r))
            node = Mul(node, x)
            want = oracle_g(r, a, b, order - x.hint()) * tree(x, order)
        got = evaluate_to_order(node, order)
        assert got.trunc >= order and want.trunc >= order
        assert got.first_mismatch(want, order) is None

    @pytest.mark.parametrize("r", [F(1), F(1, 2), F(2), F(2, 3)])
    def test_a_positive_integer_power_folds_beside_the_map(self, r):
        node = Mul(Pow(Prim("G1", r), F(2)), Prim("G3", r))
        assert node.fold() == expr.Fold(
            ONE, F(0), {PochSpec(-1, r, r): F(-3)}, {(1, r): 2, (3, r): 1})

    @pytest.mark.parametrize("r", [F(1), F(1, 2), F(2), F(2, 3)])
    def test_other_powers_do_not_fold(self, r):
        g1, g3 = Prim("G1", r), Prim("G3", r)
        cases = [
            (Pow(g1, F(1, 2)), lambda o: oracle_g(r, 1, 0, o) ** F(1, 2)),
            (Pow(g3, F(-1)), lambda o: oracle_g(r, 0, 1, o) ** -1),
            (Mul(g1, Pow(g3, F(-1))),
             lambda o: oracle_g(r, 1, 0, o) * oracle_g(r, 0, 1, o) ** -1),
        ]
        for node, oracle in cases:
            assert node.fold() is None
            for order in (F(1, 3), F(24), F(97, 2)):
                got = evaluate_to_order(node, order)
                assert got.trunc >= order
                assert got.first_mismatch(oracle(order), order) is None


# -- f: its theta sum beside the map --------------------------------------------

THETA_SPECS = st.builds(ThetaSpec, SIGNS, SIGNS, HALVES, HALVES)
THETA_FACTORS = st.one_of(
    st.none(),
    st.builds(Prim, st.sampled_from(["eta", "G1"]), G_R),
    st.builds(Prim, st.just("poch"), st.builds(PochSpec, SIGNS, HALVES, HALVES)),
)


def family_map(spec, p, other=None):
    """The exponent map of f(spec)^p times `other`'s, f as its
    triple-product families (:func:`blocks.theta_families`)."""
    powers = {} if other is None else other.fold().powers
    return expr._merge(powers, blocks.theta_families(spec, p))


class TestThetaFold:
    @settings(max_examples=60, deadline=None)
    @given(THETA_SPECS, st.integers(1, 4), THETA_FACTORS,
           st.builds(F, st.integers(1, 600), st.just(2)))  # 1/2 to 300
    @example(ThetaSpec(1, -1, F(1, 2), F(1, 2)), 4, Prim("G1", F(1, 2)), F(300))
    @example(ThetaSpec(-1, -1, F(1), F(2)), 1, Prim("eta", F(1)), F(300))
    def test_the_sum_is_the_family_map(self, spec, p, other, order):
        # the fold is f's sum to p beside the factor's map and sums, and
        # expands to the series and bound of the map with f as families,
        # times the factor's theta_1 sum
        node = Pow(Prim("f", spec), F(p))
        extra = {} if other is None else other.fold().sums
        if other is not None:
            node = Mul(node, other)
        fold = node.fold()
        assert fold.sums == {spec: p, **extra}
        assert fold.powers == ({} if other is None else other.fold().powers)
        unit = order - fold.shift
        want = blocks.expand_map(family_map(spec, p, other), unit)
        for (k, r), e in extra.items():
            want = want * blocks.theta1_normalized(k, unit / r).substitute(r) ** e
        assert expr._expand(fold, order) == want.shift(fold.shift)

    @pytest.mark.parametrize("spec", [
        ThetaSpec(1, 1, 1, 2), ThetaSpec(-1, -1, 1, 2), ThetaSpec(1, -1, 1, 2),
        ThetaSpec(-1, 1, F(1, 2), F(1, 2)), ThetaSpec(-1, -1, 1, 1),
    ])
    def test_other_powers_fold_as_the_families(self, spec):
        f, eta = Prim("f", spec), Prim("eta", F(1))
        inverse = Pow(f, F(-1)).fold()
        assert inverse.sums == {}
        assert inverse.powers == {s: -e for s, e in family_map(spec, 1).items()}
        root = Mul(Pow(f, F(1, 2)), Pow(eta, F(1, 2))).fold()
        assert root.sums == {}
        assert root.powers == {s: e / 2 for s, e in family_map(spec, 1, eta).items()}

    def test_theta_rules_make_no_fill(self, monkeypatch, runner, tmp_path):
        # the five theta rules of a theta-dsl file, at its costliest
        # exponents: every f is a theta sum, so nothing is planned or filled
        calls = []

        def spy(name, real):
            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted

        for name in ("plan_fill", "theta_families"):
            monkeypatch.setattr(blocks, name, spy(name, getattr(blocks, name)))
        path = tmp_path / "rules.qid"
        path.write_text(
            "fsum(+q^1/2,-q^1/2) == f(+q^1/2,-q^1/2)\n"
            "f(+q^1/2,+q^5/2)*f(+q^1,+q^2) == f(+q^1/2,+q^1)*psi(3/2)\n"
            "f(+q^1/2,+q^1) + f(-q^1/2,-q^1) == 2*f(+q^5/2,+q^7/2)\n"
            "f(+q^1/2,+q^1) - f(-q^1/2,-q^1) == 2*q^(1/2)*f(+q^1/2,+q^11/2)\n"
            "f(-q^1/2,-q^1) == f(+q^5/2,+q^7/2) - q^(1/2)*f(+q^1/2,+q^11/2)\n",
            encoding="utf-8")
        result = runner.invoke(main, ["parse", str(path), "--order", "200"])
        assert result.exit_code == 0, result.output
        assert calls == []


# -- the log-derivative recurrence against the fills ---------------------------


def oracle_forms(powers):
    """The two forms a map was expanded in before the recurrence: one fill
    of the integer powers e*D/g raised to g/D, and one fill per distinct
    power raised to it."""
    den = math.lcm(*(e.denominator for e in powers.values()))
    g = math.gcd(*(e.numerator * (den // e.denominator) for e in powers.values()))
    fused = [(F(g, den), [(spec, int(e * den) // g) for spec, e in powers.items()])]
    split = {}
    for spec, e in powers.items():
        split.setdefault(e, []).append((spec, 1))
    return fused, list(split.items())


def assert_logd(powers, unit):
    """`_logd` equals each form of :func:`oracle_forms`, its fills raised
    and multiplied, or :func:`quadratic_logd` where the budgets refuse a
    form that `_logd` runs within them; returns its series."""
    got = blocks._logd(powers, unit)
    for fills in oracle_forms(powers):
        try:
            want = reduce(P.__mul__, (blocks.fill(blocks.plan_fill(families, unit)) ** r
                                      for r, families in fills))
        except SlotBudgetError:
            want = quadratic_logd(powers, unit, lambda *_: None, lambda *_: None)
        assert got == want
    return got


def fold_of(text):
    return parse_expression(text).fold()


def map_of(text):
    """The exponent map of `text`'s fold with each f atom's theta sum as
    its triple-product families (:func:`blocks.theta_families`), as a
    power other than a positive integer takes it: a map over every atom."""
    fold = fold_of(text)
    assert all(isinstance(spec, ThetaSpec) for spec in fold.sums)
    return expr._merge(fold.powers, (pair for spec, p in fold.sums.items()
                                     for pair in blocks.theta_families(spec, p)))


def quadratic_logd(powers, unit, check_steps, check_words):
    """The recurrence of `blocks._logd` slot by slot, each slot by the plain
    sum over the nonzero c_k: its loop before it was blocked, kept as the
    oracle of the blocked loop, with the same charges."""
    den, lcd, c = blocks._sieve(powers, unit)
    n = len(c)
    units = [(k, ck) for k, ck in enumerate(c) if ck]
    check_steps(sum(n - k for k, _ in units), None)
    cw = max((blocks._words(ck) for _, ck in units), default=0)
    f = [0] * n
    f[0] = q = held = width = 1
    live = work = 0
    for k in range(1, n):
        while live < len(units) and units[live][0] <= k:
            live += 1
        s = sum([ck * f[k - j] for j, ck in units[:live]])
        work += cw * min(live * width, held)
        kd = k * lcd
        f[k], rem = divmod(s, kd)
        if rem:
            r = kd // math.gcd(s, kd)
            q *= r
            f[:k] = [x * r for x in f[:k]]
            f[k] = s * r // kd
            words = [blocks._words(x) for x in f[:k]]
            held, width = sum(words), max(words)
            work += k
        check_steps(work, None)
        held += blocks._words(f[k])
        width = max(width, blocks._words(f[k]))
        check_words(held, None)
    return P.from_slots(0, den, f, None, unit, q)


def assert_blocked(powers, unit):
    """`blocks._logd` equals :func:`quadratic_logd` and makes the same step
    and word checks in the same order, and each of its packed products
    right after one more word check; returns (series, products)."""
    want_calls, got_calls = [], []
    want = quadratic_logd(powers, unit, lambda work, _: want_calls.append(("steps", work)),
                          lambda words, _: want_calls.append(("words", words)))
    convolve = backend.convolve_rational

    def product(*args):
        got_calls.append(("product",))
        return convolve(*args)

    den, lcd, c = blocks._sieve(powers, unit)  # its own check goes unrecorded
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks, "_sieve", lambda *args: (den, lcd, c))
        mp.setattr(blocks, "check_steps", lambda work, _: got_calls.append(("steps", work)))
        mp.setattr(blocks, "check_words", lambda words, _: got_calls.append(("words", words)))
        mp.setattr(backend, "convolve_rational", product)
        got = blocks._logd(powers, unit)
    assert got == want
    products = [i for i, call in enumerate(got_calls) if call == ("product",)]
    assert all(got_calls[i - 1][0] == got_calls[i - 2][0] == "words" for i in products)
    dropped = {j for i in products for j in (i - 1, i)}
    assert [call for i, call in enumerate(got_calls) if i not in dropped] == want_calls
    return got, len(products)


# atoms of every family kind, with grids of den 1, 2 and 6
LOGD_ATOMS = st.sampled_from(
    ["eta(1)", "eta(2)", "eta(1/2)", "eta(3/2)", "H(1)", "I(1)", "I(1/2)", "G2(1)",
     "poch(+,1/3,1)", "poch(-,1/2,3/2)", "f(-q^1,-q^2)", "f(+q^1/2,-q^3/2)",
     "psi11rhs(16,8,6)", "psi11rhs(3/2,1/2,1/2)"])
LOGD_POWERS = st.builds(F, st.integers(-4, 4).filter(bool),
                        st.sampled_from([1, 2, 3, 4, 5, 97]))


class TestLogDerivative:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(LOGD_ATOMS, LOGD_POWERS), min_size=1, max_size=4),
           st.sampled_from([F(1, 2), F(5), F(37, 3), F(24)]))
    @example([("eta(1)", F(1, 97)), ("eta(2)", F(1, 89))], F(24))
    @example([("f(-q^1,-q^2)", F(1, 2)), ("eta(1)", F(-1, 2))], F(24))
    @example([("eta(1/2)", F(-1)), ("psi11rhs(3/2,1/2,1/2)", F(3, 4))], F(37, 3))
    # a fill form of 20,114,112 steps is refused where _logd runs
    @example([("eta(1)", F(2, 5)), ("I(1/2)", F(1, 4)), ("poch(+,1/3,1)", F(4, 3)),
              ("eta(1)", F(1, 97))], F(24))
    def test_random_maps_match_the_fills(self, atoms, unit):
        powers = {}
        for text, e in atoms:
            powers = expr._merge(powers, ((spec, p * e) for spec, p
                                          in map_of(text).items()))
        if powers:
            assert_logd(powers, unit)

    def test_a_fractional_product_raises_the_denominator(self):
        # eta(1)^(1/97)*eta(2)^(1/89) has no integral coefficients: Q > 1
        got = assert_logd(fold_of("eta(1)^(1/97)*eta(2)^(1/89)").powers, F(40))
        assert got.d > 1

    def test_a_log_derivative_that_cancels_is_one(self):
        # f(-q,-q^2) = (q;q)_inf through other families: every c_k is 0
        got = assert_logd(fold_of("f(-q^1,-q^2)^(1/2)*eta(1)^(-1/2)").powers, F(50))
        assert got == P.one(50)

    def test_the_sieve_of_qq_is_minus_the_divisor_sums(self):
        # t*f'/f for f = (q;q)_inf is -sum_k sigma(k) q^k
        den, lcd, c = blocks._sieve({PochSpec(-1, 1, 1): F(1)}, F(200))
        assert (den, lcd, len(c), c[0]) == (1, 1, 200, 0)
        for k in range(1, 200):
            assert c[k] == -sum(d for d in range(1, k + 1) if k % d == 0), k

    def test_the_sieve_of_a_map_that_cancels_is_zero(self):
        # f(-q,-q^2) = (q;q)_inf by Euler's pentagonal theorem
        den, lcd, c = blocks._sieve(map_of("f(-q^1,-q^2)*eta(1)^(-1)"), F(100))
        assert (den, lcd, len(c)) == (1, 1, 100)
        assert not any(c)

    @pytest.mark.parametrize("order", [F(24), F(96)])
    def test_the_thm31_maps_stay_integral(self, order):
        # Q rises only at a remainder, which leaves a coefficient that is
        # not an integer, so d == 1 says Q stayed 1
        pref = "eta(4)^(1/2)*eta(1)^(1/4)*eta(8)/(eta(1/2)*eta(2)^(3/4))"
        for rest in ("H(1)^(1/2)*I(1)^(1/4)", "I(1)^(1/4)/H(1)^(1/2)"):
            fold = fold_of(f"{pref}*{rest}")
            assert len(set(fold.powers.values())) > 1
            assert assert_logd(fold.powers, order - fold.shift).d == 1

    def test_the_thm31_entries_run_no_power_recurrence(self, monkeypatch):
        # both maps run the recurrence, and the squares of G1(1/2) and
        # G3(1/2) are one product each
        def refuse(*args):
            raise AssertionError("power recurrence")

        monkeypatch.setattr(P, "_power", refuse)
        assert all(r.ok() for r in verify_many(THM31, 96))


class TestBlockedRecurrence:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(LOGD_ATOMS, LOGD_POWERS), min_size=1, max_size=4),
           st.sampled_from([F(5), F(37, 3), F(24), F(64)]))
    @example([("eta(1)", F(1, 97)), ("eta(2)", F(1, 89))], F(64))
    @example([("f(-q^1,-q^2)", F(1, 2)), ("eta(1)", F(-1, 2))], F(64))
    def test_random_maps_match_the_quadratic_loop(self, atoms, unit):
        powers = {}
        for text, e in atoms:
            powers = expr._merge(powers, ((spec, p * e) for spec, p
                                          in map_of(text).items()))
        if powers:
            assert_blocked(powers, unit)

    @pytest.mark.parametrize("order", [F(24), F(48), F(96), F(192), F(384)])
    def test_the_thm31_maps_match_the_quadratic_loop(self, order):
        pref = "eta(4)^(1/2)*eta(1)^(1/4)*eta(8)/(eta(1/2)*eta(2)^(3/4))"
        for rest in ("H(1)^(1/2)*I(1)^(1/4)", "I(1)^(1/4)/H(1)^(1/2)"):
            fold = fold_of(f"{pref}*{rest}")
            unit = order - fold.shift
            got, products = assert_blocked(fold.powers, unit)
            # one product after each block of 32 slots but the last
            n = len(blocks._sieve(fold.powers, unit)[2])
            assert got.d == 1 and products == len(range(32, n, 32)) > 0

    def test_q_rising_at_the_first_slot_makes_no_product(self):
        got, products = assert_blocked(
            fold_of("eta(1)^(1/97)*eta(2)^(1/89)").powers, F(200))
        assert got.d > 1 and products == 0

    @pytest.mark.parametrize("text, unit, made", [
        # 1 - q^40/2 - ... from the root: the first remainder is at slot 40,
        # after the product of slots 0-31; at 100, after three
        ("eta(1)*poch(-,40,40)^(1/2)", F(120), 1),
        ("poch(-,100,100)^(1/2)*eta(1)*eta(2)^(-1)", F(200), 3),
    ])
    def test_q_rising_late_goes_on_by_the_plain_sum(self, text, unit, made):
        got, products = assert_blocked(fold_of(text).powers, unit)
        assert got.d > 1 and products == made


# -- budgets and retries -----------------------------------------------------


def both_forms_scored(powers, unit):
    """The form of blocks._fills with both forms planned and scored: one
    fill of the powers over their gcd, or one fill per distinct power."""
    den = math.lcm(*(e.denominator for e in powers.values()))
    g = math.gcd(*(e.numerator * (den // e.denominator) for e in powers.values()))
    forms = [[(F(g, den), blocks.plan_fill(
        [(spec, int(e * den) // g) for spec, e in powers.items()], unit))]]
    by_power = {}
    for spec, e in powers.items():
        by_power.setdefault(e, []).append((spec, 1))
    if len(by_power) > 1:
        forms.append([(e, blocks.plan_fill(families, unit))
                      for e, families in by_power.items()])

    def power(r, n):
        # n^2/2 steps of the power recurrence, each as many words as the
        # scale D^2 a slot gives its last value, D the denominator of r
        if r == 1:
            return 0
        bits = (n - 1) * 2 * math.log2(r.denominator)
        return max(1, math.ceil(bits / 64)) * (n * n // 2)

    def steps(fills):
        over = any(max(plan.steps, power(r, plan.n)) > series_mod.MAX_SLOT_STEPS
                   for r, plan in fills)
        return over, sum(plan.steps + power(r, plan.n) for r, plan in fills)

    (over, _), fills = min(((steps(form), form) for form in forms),
                           key=lambda scored: scored[0])
    return None if over else fills


class TestBudgets:
    def test_a_fill_past_the_steps_runs_the_recurrence_instead(self, monkeypatch):
        # (-q;q)_inf (q;q^2)_inf = 1 (Euler), and neither family is a
        # theta group, so one fill would enter them factor by factor below
        # q^6000: 2.7*10^7 steps, though either alone takes fewer than
        # 2*10^7; in the log-derivative recurrence every c_k cancels, so it
        # takes only its sieve's steps
        def unpack(*args):
            raise AssertionError("filled")

        monkeypatch.setattr(backend, "unpack", unpack)
        got = evaluate_to_order(parse_expression("G2(1/2)*poch(-,1,2)"), 6000)
        assert got.first_mismatch(P.one(6000), 6000) is None

    def test_theta_groups_fill_what_the_recurrence_took(self, monkeypatch):
        # (q;q)_inf (q^2;q^2)_inf below q^6000 is two pentagonal groups of
        # 126 and 88 terms: a fill of 851,748 steps, not 2.7*10^7 a factor
        # at a time, so it no longer runs the recurrence and agrees with it;
        # below q^7000 (1,074,454 steps), where the recurrence is refused,
        # it agrees with the tree
        fold = fold_of("eta(1)*eta(2)")
        unit = F(6000) - fold.shift
        want = blocks._logd(fold.powers, unit)

        def refuse(*args):
            raise AssertionError("recurrence")

        monkeypatch.setattr(blocks, "_logd", refuse)
        assert blocks.expand_map(fold.powers, unit) == want
        node = parse_expression("eta(1)*eta(2)")
        got = evaluate_to_order(node, 7000)
        assert got.first_mismatch(tree(node, 7000), 7000) is None

    def test_a_fused_fill_past_the_words_is_refused_before_it_fills(self, monkeypatch):
        # one fill of three divisions a factor: below q^400 it fills 400
        # slots of 17 bytes each, a width set by the divisors, which no
        # theta group bounds
        node, slots = parse_expression("1/(G2(1/2)^(2)*G2(1))"), 400

        def unpack(*args):
            raise AssertionError("filled")

        monkeypatch.setattr(backend, "unpack", unpack)
        monkeypatch.setattr(series_mod, "MAX_DENSE_SLOTS", slots)
        with pytest.raises(SlotBudgetError, match="64-bit words"):
            evaluate_to_order(node, 400)
        monkeypatch.setattr(series_mod, "MAX_DENSE_SLOTS", slots - 1)
        with pytest.raises(SlotBudgetError, match="dense coefficient slots, more"):
            evaluate_to_order(node, 400)

    def test_the_recurrence_past_the_steps_is_refused_before_its_loop(self, monkeypatch):
        # f(-q,-q^2)^(1/3)*eta(1)^(2/3) = q^(1/36) (q;q)_inf below q^100
        # has two powers, one not an integer, so it runs the recurrence:
        # every c_k is nonzero, so it takes 99 + 98 + ... + 1 = 4950
        # steps, and its values fit a word, so the charge as it runs is
        # that count too
        node = parse_expression("f(-q^1,-q^2)^(1/3)*eta(1)^(2/3)")
        want = tree(node, 100)
        monkeypatch.setattr(series_mod, "MAX_SLOT_STEPS", 4950)
        assert evaluate_to_order(node, 100).first_mismatch(want, 100) is None

        def check_words(*args):
            raise AssertionError("the loop started")

        monkeypatch.setattr(blocks, "check_words", check_words)
        monkeypatch.setattr(series_mod, "MAX_SLOT_STEPS", 4949)
        with pytest.raises(SlotBudgetError,
                           match="log-derivative recurrence over 100 .* 4950 steps"):
            evaluate_to_order(node, 100)

    def test_the_sieve_step_count_is_exact(self, monkeypatch):
        # f(-q,-q^2)^(1/2) / eta(1)^(1/2) below q^50: the factors q^x of
        # both sides, x = 1..49, each visit their 49 // x multiples, and
        # every c_k cancels, so the recurrence itself takes no steps
        powers = fold_of("f(-q^1,-q^2)^(1/2)*eta(1)^(-1/2)").powers
        sieve = 2 * sum(49 // x for x in range(1, 50))
        monkeypatch.setattr(series_mod, "MAX_SLOT_STEPS", sieve)
        assert blocks._logd(powers, F(50)) == P.one(50)
        monkeypatch.setattr(series_mod, "MAX_SLOT_STEPS", sieve - 1)
        with pytest.raises(SlotBudgetError, match=f"log-derivative recurrence .* {sieve} steps"):
            blocks._logd(powers, F(50))

    def test_the_recurrence_word_count_is_exact(self, monkeypatch):
        # eta(1)^(1/97)*eta(2)^(1/89) below q^200: 200 slots over a common
        # denominator of about 2000 bits.  Q only rises to the lcm of the
        # coefficients' denominators, so the values held at the end are
        # Q*f_j, and the tally never falls
        node = parse_expression("eta(1)^(1/97)*eta(2)^(1/89)")
        want = tree(node, 200)
        coeffs = [c.rat for _, c in want.items()]
        q = math.lcm(*(c.denominator for c in coeffs))
        held = sum(((c * q).numerator.bit_length() + 63) // 64 for c in coeffs)
        assert held > 25 * 200  # far more words than slots
        monkeypatch.setattr(series_mod, "MAX_DENSE_SLOTS", held)
        assert evaluate_to_order(node, 200).first_mismatch(want, 200) is None
        monkeypatch.setattr(series_mod, "MAX_DENSE_SLOTS", held - 1)
        with pytest.raises(SlotBudgetError, match=f"log-derivative recurrence over 200 "
                                                  f".* holds {held} 64-bit words"):
            evaluate_to_order(node, 200)

    def test_a_form_past_the_steps_gives_way_to_one_within(self, monkeypatch):
        # G2(1/2)^2*G2(1) below q^100, no theta group: one fill of two
        # passes a factor of (-q;q) and one of (-q^2;q^2), 2*4950 + 2450 =
        # 12,350 steps, takes fewer than two fills and a square, 4950 +
        # 5000 + 2450, and runs; with the cap just below that fill, the two
        # fills run instead
        node = parse_expression("G2(1/2)^(2)*G2(1)")
        want = tree(node, 100)
        families = [(PochSpec(1, F(1), F(1)), 2), (PochSpec(1, F(2), F(2)), 1)]
        assert blocks.plan_fill(families, F(100)).steps == 12350
        monkeypatch.setattr(series_mod, "MAX_SLOT_STEPS", 12349)
        got = evaluate_to_order(node, 100)
        assert got.first_mismatch(want, 100) is None
        with pytest.raises(SlotBudgetError, match="steps"):
            blocks.fill(blocks.plan_fill(families, F(100)))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(LOGD_ATOMS, st.integers(-4, 6).filter(bool)),
                    min_size=1, max_size=4),
           st.integers(1, 300), st.sampled_from([None, 10**4, 10**5]))
    @example([("G2(1)", 6), ("G2(1/2)", 5)], 300, None)
    @example([("eta(1)", 1000), ("eta(2)", 999)], 300, None)
    @example([("G2(1/2)", 2), ("G2(1)", 1)], 100, 12349)
    @example([("f(-q^1,-q^2)", F(1, 2)), ("eta(1)", F(1, 2))], 1000, None)
    @example([("f(-q^1,-q^2)", F(1, 2)), ("eta(1)", F(1, 2))], 1500, None)
    @example([("eta(1)", F(1, 3)), ("eta(2)", F(1, 3))], 300, 10**5)
    def test_the_second_form_is_planned_only_when_it_could_win(self, atoms, unit, cap):
        # _fills takes the form that scoring both forms, fully planned,
        # takes, under the step cap or a lower one
        powers = {}
        for text, e in atoms:
            powers = expr._merge(powers, ((spec, p * e) for spec, p
                                          in map_of(text).items()))
        if not powers:
            return
        with pytest.MonkeyPatch.context() as mp:
            if cap:
                mp.setattr(series_mod, "MAX_SLOT_STEPS", cap)
            assert blocks._fills(powers, F(unit)) == both_forms_scored(powers, F(unit))

    @pytest.mark.parametrize("text, order, code, what", [
        # large powers of two families: filled apart and raised, as the
        # tree does, not entered pass by pass into one fill
        ("eta(1)^(1000)*eta(2)^(999)", "300", 0, "3599/12\t"),
        ("eta(1)^(5)/eta(2)^(2)", "3000", 0, "70225/24\t265+0*sqrt2"),
        # two pentagonal groups: fills of 8.5*10^5 and 1.1*10^6 steps (the
        # tree's coefficients of q^(39593/8) and q^(55969/8))
        ("eta(1)*eta(2)", "6000", 0, "39593/8\t6+0*sqrt2"),
        ("eta(1)*eta(2)", "7000", 0, "55969/8\t-4+0*sqrt2"),
        # no groups: one fill of 3.7*10^7 steps, or 2.45*10^7 of the
        # recurrence, is refused
        ("G2(1/2)*G2(1)", "7000", 2, "steps"),
        # its square root: 1.8*10^7 steps, but values that gain about two
        # bits a slot, so the charge per word refuses it as it runs
        ("(eta(1)*eta(2))^(1/2)", "6000", 2, "steps"),
        ("eta(1/1000)*eta(1/999)", "2", 2, "dense coefficient slots"),
    ])
    def test_cli(self, runner, text, order, code, what):
        t0 = time.perf_counter()
        result = runner.invoke(main, ["dump", text, "--order", order])
        assert result.exit_code == code
        assert what in result.output
        assert code == 0 or time.perf_counter() - t0 < 2

    def test_a_root_past_the_steps_runs_the_recurrence_instead(self, monkeypatch):
        # f(-q,-q^2)^(1/2)*eta(1)^(1/2) = q^(1/48) (q;q)_inf: below q^1500
        # its one fill is within the cap, but the square root of that fill
        # weighs each of its 1.1*10^6 steps by 47 words (1499 slots times
        # the 2 bits of the scale 2^2), past the cap that the power
        # recurrence would refuse it by, so the map runs the log-derivative
        # recurrence
        node = parse_expression("f(-q^1,-q^2)^(1/2)*eta(1)^(1/2)")
        fold = node.fold()
        unit = F(1500) - fold.shift
        assert blocks._fills(fold.powers, unit) is None
        want = blocks._logd(fold.powers, unit).shift(fold.shift)

        def refuse(*args):
            raise AssertionError("power recurrence")

        monkeypatch.setattr(P, "_power", refuse)
        got = evaluate_to_order(node, 1500)
        assert got == want
        euler = evaluate_to_order(parse_expression("eta(1)*q^(-1/48)"), 1500)
        assert got.first_mismatch(euler, 1500) is None

    def test_a_huge_power_is_raised_not_filled(self, runner):
        # 146 powers of 10^30: the family is filled once and raised, and its
        # coefficient of q^1 is too long to print, as on the tree
        text = "poch(-,1,1)"
        for _ in range(146):
            text = f"({text})^(1{'0' * 30})"
        result = runner.invoke(main, ["dump", f"{text}*poch(-,1,2)", "--order", "10"])
        assert result.exit_code == 2
        assert "the coefficient of q^1 is too long to print" in result.output

    @pytest.mark.parametrize("order", [F(24), F(48), F(96)])
    def test_no_padded_retries_on_the_catalog(self, order):
        # evaluate_to_order re-runs exactly when the first pass falls short
        sides = [side for idy in catalog() for side in (idy.lhs, idy.rhs)]
        with shared_evaluations(sides):
            short = [side for side in sides if side.evaluate(order).trunc < order]
        assert short == []

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS
lines inline).  Every tolerance is pinned here; nothing is deferred.
"""

import math
import random
import time
from fractions import Fraction as F

from qident.blocks import (
    PochSpec, ThetaSpec, b_table_series, fill, plan_fill, theta_families, theta_sum,
)
from qident.catalog import B_TABLE_PERIOD, TRIPLE_PRODUCT_SEED, catalog
from qident.cfrac import eval_general_cf, eval_h_cf, eval_i_cf, gcf_product_value
from qident.expr import PRIMITIVES
from qident.field import AlgebraicNumber as A
from qident.lambert import BilateralSpec, LambertSpec, bilateral_1psi1_lhs, lambert_sum
from qident.verify import report_json, verify
from test_blocks import oracle_pass_fill

SECTION4_IDS = (
    "e1-thm41", "e2-cor42", "thm43-i", "thm43-ii", "thm43-iii",
    "thm44-i", "thm44-ii",
)
INTERMEDIATE_IDS = ("diff-313", "sum-318", "comb-3113", "fab1", "fab2")
THM31_IDS = tuple(f"thm31-{p}" for p in ("i", "ii", "iii", "iv", "v", "vi"))


def _get(ident):
    return next(idy for idy in catalog() if idy.id == ident)


def _passed(n, message):
    print(f"ACCEPTANCE {n:02d} PASS: {message}")


def test_criterion_01_full_catalog_run_order_24():
    t0 = time.perf_counter()
    reports = [verify(idy, 24) for idy in catalog()]
    elapsed = time.perf_counter() - t0
    mismatched = [r.id for r in reports if not r.ok()]
    assert mismatched == []
    assert elapsed < 60.0, f"catalog run took {elapsed:.1f}s"
    by_id = {r.id: r for r in reports}
    for ident in SECTION4_IDS:
        r = by_id[ident]
        assert (r.status, r.resolved_sign) == ("verified", 1), ident
    _passed(1, f"verify all --order 24: {len(reports)} identities, "
               f"0 mismatches, {elapsed:.1f}s, section-4 entries all +1")


def test_criterion_02_difference_tables_96_exact_values():
    two_sqrt2 = A(0, 2)
    checked = 0
    for i in (1, 2, 3):
        for l in range(4):
            for r in range(8):
                expect = B_TABLE_PERIOD[i][r] * two_sqrt2
                assert b_table_series(i, 32).coefficient(8 * l + r) == expect, (i, l, r)
                checked += 1
    assert checked == 96
    _passed(2, "all 96 table values reproduced exactly in Q(sqrt2)")


def test_criterion_03_triple_product_20_seeded_specs():
    rng = random.Random(TRIPLE_PRODUCT_SEED)
    grid = [F(k, 2) for k in range(1, 17)]
    for _ in range(20):
        a, b = rng.choice(grid), rng.choice(grid)
        s1, s2 = rng.choice("+-"), rng.choice("+-")
        spec = ThetaSpec(1 if s1 == "+" else -1, 1 if s2 == "+" else -1, a, b)
        assert theta_sum(spec, 24).first_mismatch(
            PRIMITIVES["f"].build(spec, 24), 24
        ) is None, spec
        # the f atom's fill is the sum side itself: the product side is the
        # fill with one pass per Pochhammer factor
        assert theta_sum(spec, 24).first_mismatch(
            oracle_pass_fill(theta_families(spec), 24), 24
        ) is None, spec
    _passed(3, "sum and product theta forms agree exactly, 20 seeded specs, order 24")


def test_criterion_04_lemma_rewrites_10_seeded_instances_each():
    rng = random.Random(20240817)
    grid = [F(k, 2) for k in range(1, 17)]
    pairs = []
    while len(pairs) < 10:
        a, b = rng.choice(grid), rng.choice(grid)
        if a < b:
            pairs.append((a, b))

    def f(s1, a, s2, b):
        return PRIMITIVES["f"].build(ThetaSpec(s1, s2, F(a), F(b)), 24)

    for a, b in pairs:
        lhs1 = f(1, a, 1, a + 2 * b) * f(1, b, 1, 2 * a + b)
        psi_ab = PRIMITIVES["psi"].build(a + b, 24)  # psi(q^(a+b))
        assert lhs1.first_mismatch(f(1, a, 1, b) * psi_ab, 24) is None
        plus = f(1, a, 1, b) + f(-1, a, -1, b)
        assert plus.first_mismatch(f(1, 3 * a + b, 1, a + 3 * b) * 2, 24) is None
        minus = f(1, a, 1, b) - f(-1, a, -1, b)
        assert minus.first_mismatch(
            f(1, b - a, 1, 5 * a + 3 * b).shift(a) * 2, 24
        ) is None
        split = f(1, 3 * a + b, 1, a + 3 * b) - f(1, b - a, 1, 5 * a + 3 * b).shift(a)
        assert f(-1, a, -1, b).first_mismatch(split, 24) is None
    _passed(4, "all four rewriting rules exact on 10 seeded instances each, order 24")


def test_criterion_05_g_product_family_at_order_20():
    signs = {}
    for ident in THM31_IDS + INTERMEDIATE_IDS:
        r = verify(_get(ident), 20)
        assert r.ok(), (ident, r.status, r.first_mismatch)
        signs[ident] = r.resolved_sign
    assert signs["diff-313"] == signs["thm31-i"]
    _passed(5, "six G-product identities plus five intermediates verified "
               f"at order 20; diff-313 and thm31-i share sign {signs['thm31-i']}")


def test_criterion_06_bilateral_summation_to_order_48():
    for z in (2, 6):
        spec = BilateralSpec(16, 8, z)
        lhs = bilateral_1psi1_lhs(spec, 48)
        assert lhs.first_mismatch(PRIMITIVES["psi11rhs"].build(spec, 48), 48) is None
    one_sided = lambert_sum(
        LambertSpec(2, 1, ((1, 1), (1, 3), (-1, 5), (-1, 7)), 8), 48
    )
    combo = bilateral_1psi1_lhs(BilateralSpec(16, 8, 2), 47).shift(1) + \
        bilateral_1psi1_lhs(BilateralSpec(16, 8, 6), 45).shift(3)
    assert one_sided.first_mismatch(combo, 48) is None
    _passed(6, "1psi1 LHS = RHS exactly to order 48 for both specializations, "
               "and the one-sided sum splits into the bilateral pair")


def test_criterion_07_continued_fractions_within_1e9():
    h64 = PRIMITIVES["H"].build(F(1), 64)
    i64 = PRIMITIVES["I"].build(F(1), 64)
    worst = 0.0
    for q in (0.05, 0.1, 0.2, 0.3):
        dh = abs(eval_h_cf(q).value - h64.evaluate(q))
        di = abs(eval_i_cf(q).value - i64.evaluate(q))
        worst = max(worst, dh, di)
        assert dh <= 1e-9 and di <= 1e-9, q
    dg = abs(eval_general_cf(0.3, 0.1, 0.2).value - gcf_product_value(0.3, 0.1, 0.2))
    assert dg <= 1e-9
    _passed(7, f"continued fractions match series on the grid "
               f"(worst |diff| {max(worst, dg):.1e} <= 1e-9)")


def test_criterion_08_sine_product():
    prod = (math.sin(math.pi / 8) * math.sin(2 * math.pi / 8)
            * math.sin(3 * math.pi / 8))
    assert abs(prod - 0.25) <= 1e-12
    _passed(8, f"sin(pi/8) sin(2pi/8) sin(3pi/8) = 1/4 within {abs(prod-0.25):.1e}")


def test_criterion_09_partition_and_pentagonal_oracles():
    # independent p(n): dynamic programming over part sizes
    n_max = 30
    counts = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            counts[n] += counts[n - part]
    inv = fill(plan_fill([(PochSpec(-1, 1, 1), 1)], n_max + 1)) ** -1
    for n in range(n_max + 1):
        assert inv.coefficient(n) == A(counts[n]), n

    # independent pentagonal support list
    support = {0}
    k = 1
    while k * (3 * k - 1) // 2 < 100:
        for n in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if n < 100:
                support.add(n)
        k += 1
    qq = fill(plan_fill([(PochSpec(-1, 1, 1), 1)], 100))
    got = {int(e): c for e, c in qq.items()}
    assert set(got) == support
    assert all(c in (A(1), A(-1)) for c in got.values())
    _passed(9, "p(n) matches enumeration for n <= 30; (q;q) support is exactly "
               "the generalized pentagonal numbers below 100")


def test_criterion_10_json_reports_are_byte_identical():
    a = report_json([verify(idy, 24) for idy in catalog()])
    b = report_json([verify(idy, 24) for idy in catalog()])
    assert a == b
    _passed(10, f"two verify-all runs serialize to identical bytes ({len(a)} bytes)")

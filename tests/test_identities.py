"""Expression evaluation, the verification engine, and the catalog."""

from fractions import Fraction as F

import pytest

from qident import blocks
from qident.catalog import catalog, catalog_ids, get
from qident.dsl import parse_expression, parse_identity
from qident.expr import Const, Mul, Subst, evaluate_to_order
from qident.field import ONE, AlgebraicNumber as A
from qident.verify import Identity, verify

SECTION4_IDS = (
    "e1-thm41", "e2-cor42", "thm43-i", "thm43-ii", "thm43-iii",
    "thm44-i", "thm44-ii",
)


class TestEvaluation:
    def test_eta_quotient_equals_poch_quotient(self):
        node = parse_expression("q^(-1/4)*eta(8)/eta(2)")
        got = evaluate_to_order(node, 24)
        want = blocks.poch_quotient([(blocks.PochSpec(-1, 8, 8), 1),
                                     (blocks.PochSpec(-1, 2, 2), -1)], 24)
        assert got.first_mismatch(want, 24) is None

    def test_root_of_unit_series(self):
        got = evaluate_to_order(parse_expression("root(I(1),4)"), 12)
        assert got.leading() == (F(0), ONE)

    def test_subst_node(self):
        node = Subst(parse_expression("G1(1)"), F(1, 2))
        got = evaluate_to_order(node, 10)
        want = evaluate_to_order(parse_expression("G1(1/2)"), 10)
        assert got.first_mismatch(want, 10) is None

    def test_negative_exponent_prefactors_get_padded(self):
        # q^(-4) forces every co-factor four orders deeper
        node = parse_expression("q^(-4)*phi(1)")
        got = evaluate_to_order(node, 10)
        assert got.trunc >= 10
        assert got.coefficient(-4) == ONE
        assert got.coefficient(-3) == A(2)

    def test_division_truncation_is_padded(self):
        got = evaluate_to_order(parse_expression("1/H(1)"), 20)
        assert got.trunc >= 20
        assert got.leading()[0] == F(-1, 2)

    def test_retry_recovers_from_cancelled_leading_term(self):
        # (1 + q^(1)) - 1 has hint 0 but actual leading exponent 1, so the
        # first division pass falls short and the retry fills it in
        node = parse_expression("phi(1)/((1 + q^(1)) - 1)")
        got = evaluate_to_order(node, 12)
        assert got.trunc >= 12
        assert got.leading()[0] == -1


class TestVerify:
    def test_verified_plus_one(self):
        r = verify(get("hcf-plus"), 20)
        assert (r.status, r.resolved_sign) == ("verified", 1)
        assert r.first_mismatch is None

    def test_sign_flip_detected_and_recorded(self):
        r = verify(get("diff-313"), 20)
        assert (r.status, r.resolved_sign) == ("verified_with_sign_flip", -1)

    def test_corrupted_identity_mismatches_at_leading_exponent(self):
        src = get("hcf-plus")
        bad = Identity("bad", src.lhs, Mul(Const(A(2)), src.rhs), F(20))
        r = verify(bad)
        assert r.status == "mismatch"
        assert r.resolved_sign is None
        assert r.first_mismatch.exponent == F(-1, 2)

    def test_sign_flip_not_granted_without_tolerance(self):
        src = get("diff-313")
        strict = Identity("strict", src.lhs, src.rhs, F(20), sign_tolerant=False)
        r = verify(strict)
        assert r.status == "mismatch"
        assert r.first_mismatch.exponent == 1

    def test_evaluation_failure_maps_to_insufficient_precision(self):
        lhs, rhs = parse_identity("root(2*phi(1),2) == phi(1)")
        r = verify(Identity("bad-root", lhs, rhs, F(10)))
        assert r.status == "insufficient_precision"
        assert r.resolved_sign is None

    def test_zero_divisor_maps_to_insufficient_precision(self):
        lhs, rhs = parse_identity("phi(1)/(phi(1) - phi(1)) == phi(1)")
        r = verify(Identity("div-zero", lhs, rhs, F(10)))
        assert r.status == "insufficient_precision"

    def test_order_override(self):
        r = verify(get("hcf-plus"), F(5, 2))
        assert r.status == "verified"
        assert r.order == F(5, 2)


class TestCatalog:
    def test_size_and_unique_ids(self):
        ids = catalog_ids()
        assert len(ids) >= 30
        assert len(set(ids)) == len(ids)

    def test_reference_tags_nonempty(self):
        assert all(idy.paper_ref for idy in catalog())

    def test_deterministic_construction(self):
        assert catalog_ids() == catalog_ids()
        assert catalog()[0] is catalog()[0]

    def test_lookup(self):
        assert get("prodK").id == "prodK"
        with pytest.raises(KeyError):
            get("nope")

    @pytest.mark.parametrize("idy", catalog(), ids=lambda idy: idy.id)
    def test_every_entry_verifies_at_default_order(self, idy):
        assert idy.default_order >= 12
        r = verify(idy)
        assert r.ok(), f"{idy.id}: {r.status} {r.first_mismatch}"

    def test_section4_entries_verify_with_plus_sign(self):
        for ident in SECTION4_IDS:
            r = verify(get(ident))
            assert (r.status, r.resolved_sign) == ("verified", 1), ident

    def test_sign_coherence_between_difference_forms(self):
        # thm31-i is the (Gamma1 - Gamma3) difference transported through
        # the product identity, so its sign must match diff-313's
        sign_diff = verify(get("diff-313"), 20).resolved_sign
        sign_i = verify(get("thm31-i"), 20).resolved_sign
        assert sign_diff == sign_i
        # parts (ii) and (v) differ by an exact factor sqrt2
        assert (
            verify(get("thm31-ii"), 20).resolved_sign
            == verify(get("thm31-v"), 20).resolved_sign
        )

    def test_order_monotonicity(self):
        # verified at N implies verified at any smaller order above the
        # leading exponent
        for ident in ("hcf-plus", "prodK", "e1-thm41"):
            idy = get(ident)
            high = verify(idy, 20)
            low = verify(idy, 8)
            assert high.ok() and low.ok()

    def test_verification_report_invariants(self):
        for idy in catalog()[:8]:
            r = verify(idy)
            if r.status == "verified":
                assert r.resolved_sign == 1
            if r.status == "verified_with_sign_flip":
                assert idy.sign_tolerant

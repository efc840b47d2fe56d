"""End-to-end command-line behavior: exit codes, JSON, goldens."""

import json
import pathlib
import time
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from qident import cli
from qident.catalog import catalog
from qident.cli import main
from qident.dsl import MAX_NESTING, MAX_TREE_DEPTH, parse_expression, parse_identity
from qident.expr import evaluate_to_order
from qident.field import AlgebraicNumber as A
from qident.verify import Identity, report_json, verify, verify_many

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture()
def runner():
    return CliRunner()


class TestVerifyCommand:
    def test_single_id_human_output(self, runner):
        result = runner.invoke(main, ["verify", "hcf-plus"])
        assert result.exit_code == 0
        assert "verified (+1) to q^20" in result.output

    def test_sign_flip_output(self, runner):
        result = runner.invoke(main, ["verify", "diff-313"])
        assert result.exit_code == 0
        assert "sign flip (-1)" in result.output

    def test_unknown_id_exit_2_with_suggestions(self, runner):
        result = runner.invoke(main, ["verify", "hcf-plos"])
        assert result.exit_code == 2
        assert "hcf-plus" in result.output

    def test_bad_order_exit_2(self, runner):
        result = runner.invoke(main, ["verify", "hcf-plus", "--order", "0"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["verify", "hcf-plus", "--order", "x/y"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("order", ["1", "1/2"])
    def test_verify_all_at_orders_below_the_leading_terms(self, runner, order):
        # powers asked for at or below their own leading exponent
        result = runner.invoke(main, ["verify", "all", "--order", order])
        assert result.exit_code == 0
        assert "INSUFFICIENT PRECISION" not in result.output

    def test_verify_all_json(self, runner):
        result = runner.invoke(main, ["verify", "all", "--order", "24", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert len(payload) == len(catalog())
        assert all(
            r["status"] in ("verified", "verified_with_sign_flip")
            for r in payload
        )
        first = payload[0]
        assert list(first) == [
            "id", "paper_ref", "order", "status", "resolved_sign",
            "first_mismatch", "elapsed_ms",
        ]
        assert first["order"] == "24"

    def test_json_runs_are_byte_identical(self, runner):
        a = runner.invoke(main, ["verify", "all", "--order", "24", "--json"])
        b = runner.invoke(main, ["verify", "all", "--order", "24", "--json"])
        assert a.output == b.output

    def test_matches_golden_report(self, runner):
        result = runner.invoke(main, ["verify", "all", "--order", "24", "--json"])
        golden = (GOLDEN / "verify_all_order24.json").read_text()
        assert result.output.strip() == golden.strip()

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["verify", "hcf-plus", "--json", "--output", str(out)]
        )
        assert result.exit_code == 0
        assert json.loads(out.read_bytes())[0]["id"] == "hcf-plus"

    @pytest.mark.parametrize("order", [48, 96])
    def test_deeper_reports_match_the_golden_but_for_the_order(self, order):
        golden = json.loads((GOLDEN / "verify_all_order24.json").read_bytes())
        for entry in golden:
            entry["order"] = str(order)
        want = json.dumps(golden, indent=2).encode("utf-8")
        assert report_json(verify_many(catalog(), order)) == want


class TestExitCodeContract:
    """The three e2e cases: success, mismatch, usage error."""

    def test_success_is_zero(self, runner):
        assert runner.invoke(main, ["verify", "prodK", "fab1"]).exit_code == 0

    def test_mismatch_is_one(self, runner, tmp_path):
        bad = tmp_path / "wrong.qid"
        bad.write_text("phi(1) == 2*phi(1)\n")
        result = runner.invoke(main, ["parse", str(bad)])
        assert result.exit_code == 1
        assert "MISMATCH" in result.output

    def test_false_catalog_entry_is_one(self, runner, monkeypatch):
        lhs, rhs = parse_identity("phi(1) == 2*phi(1)")
        monkeypatch.setattr(cli, "catalog",
                            lambda: [Identity("wrong", lhs, rhs, F(8))])
        result = runner.invoke(main, ["verify", "all"])
        assert result.exit_code == 1
        assert result.output == "wrong: MISMATCH at q^0: lhs 1+0*sqrt2 != rhs 2+0*sqrt2\n"

    def test_failed_evaluation_in_a_file_is_one(self, runner, tmp_path):
        path = tmp_path / "fails.qid"
        path.write_text("(2*eta(1))^(1/2) == eta(1)\neta(1) == eta(1)\n")
        result = runner.invoke(main, ["parse", str(path)])
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert lines[0] == "fails:1: INSUFFICIENT PRECISION (evaluation failed)"
        assert lines[1].startswith("fails:2: verified (+1) to q^20")

    @pytest.mark.parametrize("expr, message", [
        ("(2*eta(1))^(1/2)", "power 1/2 needs leading coefficient exactly 1"),
        ("1/(q^(1) - q^(1))", "negative power of the zero series"),
    ])
    def test_failed_dump_evaluation_is_one(self, runner, expr, message):
        result = runner.invoke(main, ["dump", expr])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"evaluation failed: {message}\n"

    def test_parse_error_is_two(self, runner, tmp_path):
        bad = tmp_path / "broken.qid"
        bad.write_text("phi(1) == eta(8)/\n")
        result = runner.invoke(main, ["parse", str(bad)])
        assert result.exit_code == 2

    def test_zero_constant_to_negative_power_is_two(self, runner, tmp_path):
        bad = tmp_path / "zero.qid"
        bad.write_text("0^(-1) == 1\n")
        for args in (["parse", str(bad)], ["dump", "0^(-1)"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2
            assert "line 1, column 2: division by zero" in result.output


class TestListCommand:
    def test_lists_all_ids_with_refs(self, runner):
        result = runner.invoke(main, ["list"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == len(catalog())
        assert any("hcf-plus" in ln for ln in lines)
        assert any("1psi1" in ln for ln in lines)


class TestDumpCommand:
    @pytest.mark.parametrize(
        "block", ["qq", "phi", "psi", "gamma1", "gamma2", "gamma3", "h", "i"]
    )
    def test_matches_golden(self, runner, block):
        result = runner.invoke(main, ["dump", block, "--order", "32"])
        assert result.exit_code == 0
        golden = (GOLDEN / f"{block}_order32.txt").read_text()
        assert result.output == golden

    def test_expression_dump(self, runner):
        result = runner.invoke(main, ["dump", "eta(8)/eta(2)", "--order", "2"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "1/4\t1+0*sqrt2"

    def test_grid_past_the_dense_slot_cap(self, runner):
        # phi(q^(1/999983)) = 1 + 2 sum_j q^(j^2/999983): its grid holds
        # about 10^7 slots below q^10, far past MAX_DENSE_SLOTS, but only
        # its 3163 terms are stored and printed
        result = runner.invoke(main, ["dump", "phi(1/999983)", "--order", "10"])
        assert result.exit_code == 0
        assert 3162**2 < 10 * 999983 < 3163**2
        want = ["0\t1+0*sqrt2"] + [
            f"{j * j}/999983\t2+0*sqrt2" for j in range(1, 3163)]
        assert result.output == "\n".join(want) + "\n"

    def test_dump_format(self, runner):
        result = runner.invoke(main, ["dump", "2*sqrt2*q^(1/2) - 1/3*q^(2)",
                                      "--order", "4"])
        assert result.exit_code == 0
        assert result.output == "1/2\t0+2*sqrt2\n2\t-1/3+0*sqrt2\n"

    @pytest.mark.parametrize(
        "expr, column",
        [("2^(20000)", 2), ("2^(1000000000)", 2),
         ("(1+sqrt2)^(-100000)", 10), ("q^(1)*(1/3)^(9100)", 12),
         ("9" * 4000 + "*" + "9" * 4000, 4001)],
        ids=["2^20000", "2^10^9", "unit^-100000", "(1/3)^9100",
             "product"],
    )
    def test_constant_too_long_to_print_exit_2(self, runner, expr, column):
        t0 = time.perf_counter()
        result = runner.invoke(main, ["dump", expr, "--order", "1"])
        assert result.exit_code == 2
        assert f"line 1, column {column}: constant too long to print" in result.output
        assert "4300 digits" in result.output
        assert time.perf_counter() - t0 < 1

    def test_constant_at_the_digit_limit_dumps(self, runner):
        # 3^9000 has 4295 digits
        result = runner.invoke(main, ["dump", "(2/3)^(9000)", "--order", "1"])
        assert result.exit_code == 0
        assert result.output.startswith("0\t" + str(2**9000) + "/")

    def test_coefficient_too_long_to_print_exit_2(self, runner):
        # binom(10^30, 153), about 4590 - 269 digits, is the first
        # coefficient past 4300
        t0 = time.perf_counter()
        result = runner.invoke(main, ["dump", "(1+q^(1))^(1" + "0" * 30 + ")",
                                      "--order", "200"])
        assert result.exit_code == 2
        assert "the coefficient of q^153 is too long to print" in result.output
        assert "4300 digits" in result.output
        assert time.perf_counter() - t0 < 5

    def test_unknown_block_exit_2(self, runner):
        result = runner.invoke(main, ["dump", "nope(", "--order", "4"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["dump", "poch(-,1/1000000000,1)", "--order", "1"],
            ["dump", "qq", "--order", "1000000000"],
            ["verify", "prodK", "--order", "1000000000"],
            ["dump", "lambert(1,0,+1,1)", "--order", "100000000"],
            ["dump", "psi11lhs(16,8,2)", "--order", "100000000"],
            # 10^8 steps: (q; q^2)_inf is no theta group, so it fills by
            # one pass a factor (qq, Euler's sum, takes 3.1*10^6)
            ["dump", "poch(-,1,2)", "--order", "20000"],
            ["dump", "1/phi(1/1000)", "--order", "500"],
            ["dump", "root(phi(1/1000),2)", "--order", "500"],
            # 1.1e7 steps, but on integers of ~10^5 bits
            ["dump", "root(phi(1/1000),2)", "--order", "50"],
            # a square of one unit term (one product: a tie) runs the
            # recurrence, here over 1,000,003 slots
            ["dump", "(1+q^(1/1000003))^(2)", "--order", "1"],
            # 2000 slots and plain steps, but values that grow by about
            # 100 bits (binom(10^30, k)) or 333 bits ((-10^100)^k) a slot
            ["dump", "(1+q^(1))^(1" + "0" * 30 + ")", "--order", "2000"],
            ["dump", "(1+1" + "0" * 100 + "*q^(1))^(-1)", "--order", "2000"],
            # 3163 x 3163 terms, but about 10^13 slots on the product's
            # grid 1/(999983 * 999979); no product multiplies term by term
            ["dump", "phi(1/999983)*phi(1/999979)", "--order", "10"],
            # a theta sum's term bound counts as slots: about 6.3*10^7 each
            ["dump", "phi(1/1000000000000)", "--order", "1000"],
            ["dump", "fsum(+q^(1/1000000000000),+q^(1/1000000000000))",
             "--order", "1000"],
            # 1,414,214 terms
            ["dump", "T1N(1)", "--order", "1000000000000"],
        ],
    )
    def test_oversized_expansion_exit_2_quickly(self, runner, args):
        t0 = time.perf_counter()
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "dense coefficient slots" in result.output
        assert time.perf_counter() - t0 < 5

    @pytest.mark.parametrize(
        "args",
        [
            # 20,007,546 terms of four Lambert numerators, just past the limit
            ["dump", "lambert(1,0,+1+2+3+4,1)", "--order", "999999"],
            # 1000 nonzero slots of phi times 999,999 dense slots, within
            # the slot cap; the product's step count refuses it
            ["dump", "phi(1)*phi(1)", "--order", "999999"],
            # 2*10^8 steps of a dense product on 20,000 slots
            ["dump", "(1/(1-q^(1)))*(1/(1-q^(1)))", "--order", "20000"],
            # the power recurrence of a root, scaled to integers
            ["dump", "root(1/(1-q^(1)),2)", "--order", "20000"],
            # 39,409,768 terms of three Lambert numerators, one step each
            ["dump", "lambert(1,0,+1+2+3,1)", "--order", "999999"],
            # 26,939,844 terms of two
            ["dump", "lambert(1,0,+1+2,1)", "--order", "999999"],
            # a square of 20,000 dense slots: one product of 2.0*10^8 steps
            ["dump", "(1/(1-q^(1)))^(2)", "--order", "20000"],
        ],
    )
    def test_term_loops_exit_2_quickly(self, runner, args):
        t0 = time.perf_counter()
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "steps, more than the limit" in result.output
        assert time.perf_counter() - t0 < 5

    def test_g1_past_the_step_cap_exit_2(self, runner):
        # 1/(q;q) below q^6400 is n(n-1)/2 steps as a fill and as a
        # recurrence; below q^6325 it is 19,999,650 and fills
        result = runner.invoke(main, ["dump", "G1(1)", "--order", "6400"])
        assert result.exit_code == 2
        assert "6400 dense coefficient slots needs 20476800 steps" in result.output

    def test_packed_product_past_the_word_cap_exit_2(self, runner):
        # 100,001 steps, within the step cap, but the packed product pads
        # each of its 199,999 slots to the width of 10^2000: 833 bytes,
        # about 2.1*10^7 words in all
        t0 = time.perf_counter()
        factor = "(1+10^(1000)*q^(99999/1000))"
        result = runner.invoke(main, ["dump", f"{factor}*{factor}", "--order", "100"])
        assert result.exit_code == 2
        assert "64-bit words, more than the limit" in result.output
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("numerators", ["+1+2+3", "+1+2"])
    def test_lambert_refusal_stops_counting_at_the_limit(self, runner, numerators):
        t0 = time.perf_counter()
        result = runner.invoke(main, ["dump", f"lambert(1,0,{numerators},1)",
                                      "--order", "999999"])
        assert result.exit_code == 2
        assert "Lambert sum of at least" in result.output
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize(
        "expr, order, coefficients",
        [
            # 178,744 terms of the bilateral sum; its low part is checked
            # against the product side in tests/test_lambert.py
            ("psi11lhs(16,8,2)", 100000, {0: 1, 6: 0, 8: 2, 99996: 1}),
            # 5,221,424 terms of sum_n d(n) q^n, d the number of divisors
            ("lambert(1,0,+1,1)", 400000, {399999: 8, 393216: 36, 360360: 192}),
            # 1/phi(q) = 1 - 2q + 4q^2 - 8q^3 + 14q^4 - ... on 50,000 slots
            ("1/phi(1/1000)", 50, {"1/1000": -2, "2/1000": 4, "4/1000": 14}),
            # 141,421 terms of sum_j (-1)^j r_j q^(j(j+1)/2), j < 141421,
            # whose sine ratios r_j at pi/8 repeat with period 8:
            # r_3 = 1, r_4 = -1
            ("T1N(1)", 10**10, {2: 0, 6: -1, 10: -1, 9999878910: -1}),
        ],
    )
    def test_term_loops_within_the_budget_finish(self, expr, order, coefficients):
        # what `dump` expands, without rendering its 10^5 lines
        s = evaluate_to_order(parse_expression(expr), order)
        assert s.trunc == order
        assert {e: s.coefficient(e) for e in coefficients} == \
            {e: A(c) for e, c in coefficients.items()}

    @pytest.mark.parametrize(
        "p, order, code",
        [("1000000007", "3000", 0),
         ("100000000000000003", "5", 0),
         ("3317044064679887385961981", "5", 2),  # past the primality bound
         ("1" * 4000, "5", 2)],
        ids=["10^9+7", "10^17+3", "bound", "4000-digit"],
    )
    def test_large_legendre_modulus_is_quick(self, runner, p, order, code):
        t0 = time.perf_counter()
        result = runner.invoke(
            main, ["dump", f"lambert(1,0,+1,1,legendre({p}))", "--order", order])
        assert result.exit_code == code
        if code:
            assert "line 1, column 1: legendre(p) needs an odd prime" in result.output
        assert time.perf_counter() - t0 < 1

    def test_over_long_integer_literal_exit_2(self, runner):
        result = runner.invoke(main, ["dump", "q^(" + "9" * 5000 + ")"])
        assert result.exit_code == 2
        assert "line 1, column 4: integer literal of 5000 digits" in result.output

    @pytest.mark.parametrize("expr", ["psi11rhs(4,3,3)", "psi11rhs(5,2,3)"])
    def test_product_side_outside_its_window_exit_2(self, runner, expr):
        result = runner.invoke(main, ["dump", expr, "--order", "3"])
        assert result.exit_code == 2
        assert "line 1, column 1: the 1psi1 product side needs" in result.output

    def test_sum_side_of_the_same_spec_dumps(self, runner):
        # 0 < alpha, beta < s is all the sum side needs
        result = runner.invoke(main, ["dump", "psi11lhs(4,3,3)", "--order", "3"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "-2\t-1+0*sqrt2"

    @pytest.mark.parametrize(
        "expr", ["q^(30)*f(-q^1,-q^3)", "q^(30)*I(1)", "q^(30)*psi11rhs(8,1,3)"]
    )
    def test_factor_at_order_below_zero(self, runner, expr):
        # the product side is evaluated to order 10 - 30 = -20
        result = runner.invoke(main, ["dump", expr, "--order", "10"])
        assert result.exit_code == 0
        assert result.output.strip() == ""


class TestCFCommand:
    def test_h_table(self, runner):
        result = runner.invoke(main, ["cf", "h", "--q", "0.1", "--q", "0.2"])
        assert result.exit_code == 0
        rows = result.output.strip().splitlines()
        assert len(rows) == 3  # header + two grid points
        assert all(float(row.split()[3]) < 1e-9 for row in rows[1:])

    @pytest.mark.parametrize(
        "args, message",
        [
            (["i", "--q", "1.5"], "need 0 < q < 1"),
            (["gcf", "--k", "2", "--l", "3", "--q", "0.2"], "need |kl| < 1"),
            (["h", "--q", "0.5", "--series-order", "0"], "'--series-order'"),
            (["h", "--q", "0.5", "--max-depth", "0"], "'--max-depth'"),
            # NaN and inf*0 fail every comparison, so a guard written as
            # "out of range" would let them through
            (["gcf", "--k", "nan", "--l", "1", "--q", "0.5"], "need |kl| < 1"),
            (["gcf", "--k", "inf", "--l", "0", "--q", "0.5"], "need |kl| < 1"),
            (["h", "--q", "0.5", "--tol", "nan"], "'--tol'"),
            (["h", "--q", "0.5", "--tol", "-1e-10"], "'--tol'"),
        ],
    )
    def test_bad_input_exit_2(self, runner, args, message):
        result = runner.invoke(main, ["cf", *args])
        assert result.exit_code == 2
        assert message in result.output
        assert "Traceback" not in result.output

    def test_gcf_requires_parameters(self, runner):
        result = runner.invoke(main, ["cf", "gcf", "--q", "0.2"])
        assert result.exit_code == 2
        result = runner.invoke(
            main, ["cf", "gcf", "--q", "0.2", "--k", "0.3", "--l", "0.1"]
        )
        assert result.exit_code == 0


class TestParseCommand:
    def test_oversized_expansion_exit_2(self, runner, tmp_path):
        path = tmp_path / "huge.qid"
        path.write_text("G1(1/1000000000) == G1(1/1000000000)\n")
        result = runner.invoke(main, ["parse", str(path), "--order", "2"])
        assert result.exit_code == 2
        assert "dense coefficient slots" in result.output

    def test_product_side_outside_its_window_exit_2(self, runner, tmp_path):
        path = tmp_path / "window.qid"
        path.write_text("# the sum side alone is valid here\n"
                        "psi11lhs(4,3,3) == psi11rhs(4,3,3)\n")
        result = runner.invoke(main, ["parse", str(path)])
        assert result.exit_code == 2
        assert "line 2, column 20: the 1psi1 product side needs" in result.output

    def test_not_utf8_exit_2(self, runner, tmp_path):
        path = tmp_path / "latin1.qid"
        path.write_bytes("phi(1) == phi(1)  # \u00e9\n".encode("latin-1"))
        result = runner.invoke(main, ["parse", str(path)])
        assert result.exit_code == 2
        assert f"{path}: 'utf-8' codec can't decode byte 0xe9" in result.output
        assert "Traceback" not in result.output

    def test_mismatch_too_long_to_print_exit_2(self, runner, tmp_path):
        # the first mismatch is at q^199, where both sides are about
        # binom(10^30, 199), some 5600 digits
        n = "1" + "0" * 30
        path = tmp_path / "long.qid"
        path.write_text(f"(1+q^(1))^({n}) == (1+q^(1))^({n}) + q^(199)\n")
        result = runner.invoke(main, ["parse", str(path), "--order", "200"])
        assert result.exit_code == 2
        assert "the coefficient of q^199 is too long to print" in result.output
        assert "4300 digits" in result.output

    def test_constant_too_long_to_print_exit_2(self, runner, tmp_path):
        path = tmp_path / "long.qid"
        path.write_text("phi(1) == phi(1)\nphi(1) == 2^(20000)*phi(1)\n")
        result = runner.invoke(main, ["parse", str(path)])
        assert result.exit_code == 2
        assert "line 2, column 12: constant too long to print" in result.output

    def test_over_long_integer_literal_exit_2(self, runner, tmp_path):
        path = tmp_path / "long.qid"
        path.write_text("phi(1) == phi(1)\nphi(1) == 1/" + "9" * 5000 + "*phi(1)\n")
        result = runner.invoke(main, ["parse", str(path)])
        assert result.exit_code == 2
        assert "line 2, column 13: integer literal of 5000 digits" in result.output

    def test_verifies_user_file(self, runner, tmp_path):
        path = tmp_path / "user.qid"
        path.write_text(
            "# reciprocal laws\n"
            "1/H(1) + H(1) == phi(1)/(q^(1/2)*psi(4))\n"
            "T1N(2) == poch(-,1,1)*G2(1)\n"
        )
        result = runner.invoke(main, ["parse", str(path), "--order", "16"])
        assert result.exit_code == 0
        assert result.output.count("verified") == 2
        assert "user:2" in result.output


DEEP = [
    (MAX_NESTING, lambda n: "(" * n + "phi(1)" + ")" * n,
     "nested parentheses", MAX_NESTING + 1),
    (MAX_TREE_DEPTH, lambda n: "+".join(["q^(1)"] * n),
     "levels of nested operations", 6 * MAX_TREE_DEPTH),
]


class TestDeepInput:
    @pytest.mark.parametrize("cap, text, message, column", DEEP)
    def test_at_the_cap_dump_and_parse_work(self, runner, tmp_path, cap, text,
                                            message, column):
        result = runner.invoke(main, ["dump", text(cap), "--order", "3"])
        assert result.exit_code == 0, result.output
        path = tmp_path / "deep.qid"
        path.write_text(f"{text(cap)} == {text(cap)}\n")
        result = runner.invoke(main, ["parse", str(path), "--order", "3"])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("cap, text, message, column", DEEP)
    def test_one_past_the_cap_exit_2(self, runner, tmp_path, cap, text,
                                     message, column):
        where = f"line 1, column {column}: more than {cap} "
        result = runner.invoke(main, ["dump", text(cap + 1), "--order", "3"])
        assert result.exit_code == 2
        assert where in result.output and message in result.output
        path = tmp_path / "deep.qid"
        path.write_text(f"phi(1) == {text(cap + 1)}\n")
        result = runner.invoke(main, ["parse", str(path), "--order", "3"])
        assert result.exit_code == 2
        assert f"line 1, column {column + 10}: more than {cap} " in result.output


class TestReportJson:
    def test_empty(self):
        assert report_json([]) == b"[]"

    def test_sign_values(self):
        flip = verify(next(i for i in catalog() if i.id == "diff-313"))
        ok = verify(next(i for i in catalog() if i.id == "hcf-plus"))
        payload = json.loads(report_json([ok, flip]))
        assert payload[0]["resolved_sign"] == 1
        assert payload[1]["resolved_sign"] == -1
        assert payload[0]["elapsed_ms"] == 0

    def test_mismatch_serialization(self):
        from qident.dsl import parse_identity
        from qident.verify import Identity
        lhs, rhs = parse_identity("phi(1) == 2*phi(1)")
        r = verify(Identity("neg", lhs, rhs, 8))
        (entry,) = json.loads(report_json([r]))
        assert entry["status"] == "mismatch"
        assert entry["first_mismatch"] == {
            "exponent": "0", "lhs": "1+0*sqrt2", "rhs": "2+0*sqrt2",
        }


class TestSetUp:
    def test_the_cli_and_catalog_import_no_record_or_report_machinery(self):
        # a fresh interpreter, as every `qident` call starts: dataclasses,
        # difflib and json cost set-up time that only a misspelt id or a
        # JSON report needs
        import os
        import subprocess
        import sys

        import qident

        src = pathlib.Path(qident.__file__).resolve().parents[1]
        code = ("import sys\nimport qident.cli\nsys.modules['qident.catalog'].catalog()\n"
                "print(sorted(m for m in ('dataclasses', 'difflib', 'json') "
                "if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
        for path in (src / "qident").glob("*.py"):
            text = path.read_text(encoding="utf-8")
            assert "from dataclasses" not in text and "import dataclasses" not in text, path

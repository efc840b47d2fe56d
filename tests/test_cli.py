"""End-to-end command-line behavior: exit codes, JSON, goldens."""

import json
import pathlib
import time

import pytest
from click.testing import CliRunner

from qident.catalog import catalog
from qident.cli import main
from qident.verify import report_json, verify

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

    def test_bless_writes_golden_path(self, runner):
        with runner.isolated_filesystem():
            result = runner.invoke(main, ["verify", "hcf-plus", "--bless"])
            assert result.exit_code == 0
            written = pathlib.Path("tests/golden/verify_all_order24.json")
            assert json.loads(written.read_bytes())[0]["id"] == "hcf-plus"


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

    def test_parse_error_is_two(self, runner, tmp_path):
        bad = tmp_path / "broken.qid"
        bad.write_text("phi(1) == eta(8)/\n")
        result = runner.invoke(main, ["parse", str(bad)])
        assert result.exit_code == 2


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

    def test_unknown_block_exit_2(self, runner):
        result = runner.invoke(main, ["dump", "nope(", "--order", "4"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["dump", "poch(-,1/1000000000,1)", "--order", "1"],
            ["dump", "qq", "--order", "1000000000"],
            ["verify", "prodK", "--order", "1000000000"],
        ],
    )
    def test_oversized_expansion_exit_2_quickly(self, runner, args):
        t0 = time.perf_counter()
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "dense coefficient slots" in result.output
        assert time.perf_counter() - t0 < 5


class TestCFCommand:
    def test_h_table(self, runner):
        result = runner.invoke(main, ["cf", "h", "--q", "0.1", "--q", "0.2"])
        assert result.exit_code == 0
        rows = result.output.strip().splitlines()
        assert len(rows) == 3  # header + two grid points
        assert all(float(row.split()[3]) < 1e-9 for row in rows[1:])

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

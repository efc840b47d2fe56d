"""Smoke mode of the benchmark: every workload at a tiny order, one pass.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
WORKLOADS = ("catalog", "thm31-deep", "theta-dsl")

sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def _smoke() -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke():
    return _smoke()


def test_smoke_emits_every_metric_and_no_error(smoke):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["end_to_end"] + spec["per_layer"]
    metrics = smoke["metrics"]
    assert smoke["correct"] and smoke["failed"] == 0
    for w in WORKLOADS:
        for m in declared:
            assert metrics[f"{w}.{m['name']}"]["unit"] == m["unit"]
        assert metrics[f"{w}.error_rate"]["value"] == 0
    emitted = {k.split(".", 1)[1] for k in metrics}
    assert emitted == {m["name"] for m in declared} | {"error_rate"}


def test_layer_checks(smoke):
    m = {k: v["value"] for k, v in smoke["metrics"].items()}
    assert m["theta-dsl.series.inverse.calls"] == 0
    assert m["theta-dsl.series.nth_root.calls"] == 0
    assert m["thm31-deep.expr.useful_ratio"] < m["theta-dsl.expr.useful_ratio"]


def test_counts_repeat_exactly(smoke):
    again = _smoke()["metrics"]
    counts = {k: v["value"] for k, v in smoke["metrics"].items()
              if v["unit"] == "count"}
    assert any(k.endswith("field.ops") for k in counts)
    assert counts == {k: again[k]["value"] for k in counts}


def test_theta_dsl_inputs_follow_the_seed():
    order = Fraction(200)
    text, expected = workloads.theta_dsl(7, order, 60)
    assert (text, expected) == workloads.theta_dsl(7, order, 60)
    assert text != workloads.theta_dsl(8, order, 60)[0]
    assert len(expected) == 60
    assert any(v[0] == workloads.MISMATCH for v in expected.values())


def test_a_wrong_verdict_counts_as_failed():
    expected = {"a": ("verified", 1, None), "b": ("mismatch", None, "3/2")}
    right = {"verdicts": [["a", "verified", 1, None],
                          ["b", "mismatch", None, "3/2"]]}
    wrong = {"verdicts": [["a", "verified_with_sign_flip", -1, None],
                          ["b", "mismatch", None, "2"]]}
    assert run._check(right, expected) == 0
    assert run._check(wrong, expected) == 2
    assert run._check({"verdicts": []}, expected) == 2

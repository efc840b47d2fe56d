#!/usr/bin/env python3
"""qident benchmark: end-to-end verification time and per-layer traces.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --smoke

One closed-loop caller runs the load: each pass starts a fresh interpreter
(``worker.py``), so it pays import and catalog set-up like every CLI call,
and the next pass starts only after the previous one has ended.  With
``--trace 0`` the run repeats untraced passes until ``--seconds`` is spent
and reports medians of the end-to-end metrics, in seconds calibrated against
the drift of the CPU speed (see ``_calibrated``); with ``--trace 1`` it runs one
untraced pass, one pass with timed layer spans and one with count-only
hooks, and reports the per-layer metrics.  ``--smoke`` runs every workload
at a tiny order, once, and reports both.

Every verdict is checked against its known answer; a wrong verdict makes
``correct`` false and the exit code 1.  The last line of standard output is
the JSON result; the lines before it give the run metadata and a table of
every metric with its unit (including ``error_rate``).  Run records and
span dumps go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# A run must end within 180 s; each worker gets what is left of this.
RUN_LIMIT_S = 170.0
MIN_SETUP_SAMPLES = 11
# Reported times are scaled to a CPU that runs the worker's calibration loop
# in this many seconds (this 2-core machine does, when it runs at full speed).
CALIB_REF_S = 0.08

SPAN_LAYERS = [name for name in tracer.SPANS
               if name not in ("catalog.build", "verify", "expr.evaluate_to_order")]


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def _worker(job: dict, mode: str, started: float, spans_out=None) -> dict:
    payload = dict(job, spans_out=str(spans_out) if spans_out else None)
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(RUN_LIMIT_S - (time.perf_counter() - started), 1.0)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(ROOT / "src")],
        input=json.dumps(payload), capture_output=True, text=True,
        timeout=timeout, cwd=ROOT, env=env,
    )
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {job['workload']} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(result: dict, expected: dict) -> int:
    """Identities whose verdict differs from the known answer."""
    got = {v[0]: tuple(v[1:]) for v in result["verdicts"]}
    return sum(1 for ident, want in expected.items()
               if got.get(ident) != tuple(want))


def _calibrated(seconds: float, worker: dict) -> float:
    """A time in reference seconds: on a CPU that runs the calibration loop
    in CALIB_REF_S, as measured in the same interpreter around the pass."""
    return seconds * CALIB_REF_S / worker["calib_s"]


def _end_to_end(passes: list, setups: list) -> dict:
    """Medians over the passes, calibrated.  ``verdict_s.max`` is the
    slowest identity by its median time, which one slow pass does not move.
    """
    med = statistics.median
    per_identity = {}
    for p in passes:
        for ident, seconds in p["verdict_s"].items():
            per_identity.setdefault(ident, []).append(_calibrated(seconds, p))
    return {
        "setup_s": (med(_calibrated(w["setup_s"], w) for w in setups), "s"),
        "wall_s": (med(_calibrated(p["wall_s"], p) for p in passes), "s"),
        "verdict_s.max": (max(med(v) for v in per_identity.values()), "s"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in passes), "MB"),
    }


def _uncalibrated(passes: list, setups: list) -> dict:
    med = statistics.median
    return {
        "setup_s": med(w["setup_s"] for w in setups),
        "wall_s": med(p["wall_s"] for p in passes),
        "verdict_s.max": max(med(p["verdict_s"][i] for p in passes)
                             for i in passes[0]["verdict_s"]),
        "calib_s": med(w["calib_s"] for w in passes + setups),
    }


def _per_layer(plain: dict, spans: dict, counts: dict) -> dict:
    """Per-layer metrics from one span pass and one count pass."""
    s = spans["layers"]["spans"]
    c = counts["layers"]
    out = {"catalog.build_s": (s["catalog.build"]["total_s"], "s")}
    out["verify.calls"] = (s["verify"]["calls"], "count")
    out["verify.self_s"] = (s["verify"]["self_s"], "s")
    out["verify.sign_retries"] = (spans["layers"]["sign_retries"], "count")
    out["expr.evaluate_to_order.calls"] = (c["expr.evaluate_to_order.calls"], "count")
    out["expr.padded_retries"] = (c["expr.padded_retries"], "count")
    out["expr.node_evals"] = (c["expr.node_evals"], "count")
    out["expr.node_evals_unique"] = (c["expr.node_evals_unique"], "count")
    out["expr.useful_ratio"] = (
        c["expr.node_evals_unique"] / max(c["expr.node_evals"], 1), "ratio")
    for name in SPAN_LAYERS:
        out[f"{name}.calls"] = (s[name]["calls"], "count")
        out[f"{name}.self_s"] = (s[name]["self_s"], "s")
    for op in ("inverse", "nth_root"):
        out[f"series.{op}.slots"] = (c[f"series.{op}.slots"], "count")
    for fn in ("convolve", "convolve_rational"):
        macs = c[f"backend.{fn}.mac_ops"]
        busy = s[f"backend.{fn}"]["self_s"]
        out[f"backend.{fn}.mac_ops"] = (macs, "count")
        out[f"backend.{fn}.mac_per_s"] = (macs / busy if busy > 0 else 0.0, "1/s")
    out["field.ops"] = (c["field.ops"], "count")
    out["trace.overhead_s"] = (spans["wall_s"] - plain["wall_s"], "s")
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 smoke: bool) -> dict:
    started = time.perf_counter()
    job, expected = workloads.build(name, seed, ROOT, smoke)
    if not smoke:
        OUT.mkdir(exist_ok=True)

    # compiles the bytecode caches, so that no timed pass pays for it
    _worker(job, "setup", started)
    passes, setups, metrics, uncalibrated = [], [], {}, None
    if smoke or not trace:
        deadline = started + seconds
        durations = []
        while True:
            t0 = time.perf_counter()
            passes.append(_worker(job, "plain", started))
            setups.append(passes[-1])
            if smoke:
                break
            # set-up is short and the CPU speed drifts: sample it all along
            setups.append(_worker(job, "setup", started))
            durations.append(time.perf_counter() - t0)
            if time.perf_counter() + statistics.median(durations) > deadline:
                break
        while not smoke and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(_worker(job, "setup", started))
        metrics.update(_end_to_end(passes, setups))
        uncalibrated = _uncalibrated(passes, setups)
    if smoke or trace:
        if not passes:
            passes.append(_worker(job, "plain", started))
        spans_out = None if smoke else OUT / f"{name}-seed{seed}-spans.json"
        spans = _worker(job, "spans", started, spans_out)
        counts = _worker(job, "counts", started)
        metrics.update(_per_layer(passes[0], spans, counts))
        passes += [spans, counts]

    attempted = len(expected) * len(passes)
    failed = sum(_check(p, expected) for p in passes)
    meta = dict(passes[0]["meta"], nproc=len(os.sched_getaffinity(0)),
                workload=name, order=job["order"], seed=seed,
                seconds=seconds, trace=int(trace), smoke=smoke,
                passes=len(passes), platform=platform.platform())
    result = {
        "meta": meta, "uncalibrated": uncalibrated,
        "correct": failed == 0, "attempted": attempted,
        "failed": failed, "error_rate": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not smoke:
        raw = [{k: w.get(k) for k in ("mode", "setup_s", "calib_s", "wall_s",
                                      "verdict_s", "peak_rss_mb")}
               for w in passes + [w for w in setups if w["mode"] == "setup"]]
        (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(dict(result, workers=raw), indent=1), encoding="utf-8")
    return result


def _with_error_rate(result: dict) -> dict:
    return dict(result["metrics"],
                error_rate={"value": result["error_rate"], "unit": "ratio"})


def _print_table(result: dict) -> None:
    print("# meta " + json.dumps(result["meta"], sort_keys=True))
    if result["uncalibrated"]:
        print("# uncalibrated medians, s: " + json.dumps(result["uncalibrated"]))
    for key, m in _with_error_rate(result).items():
        print(f"{result['meta']['workload']:>11} {key:<36} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"],
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at a tiny order, one pass, traced "
                         "and untraced")
    args = ap.parse_args(argv)
    # turn a stop request into an exception, so subprocess.run kills the
    # running pass before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "qident" / "__init__.py").is_file():
        print(f"perfbench: no qident source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.smoke or args.workload == "all" \
        else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace),
                                args.smoke) for n in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for r in results:
        _print_table(r)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['meta']['workload']}.{k}": m
                   for r in results for k, m in _with_error_rate(r).items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One timed pass of a workload in a fresh interpreter.

    python3 worker.py <mode> <qident src directory>  < job.json

Prints its result as one JSON line on stdout.  Every ``qident verify`` /
``qident parse`` invocation pays import and catalog set-up, so each pass
does too, and reports it as ``setup_s``; only ``sys`` and ``time`` are
imported before the set-up clock starts.

Modes: ``setup`` (set-up only), ``plain`` (untraced pass), ``spans``
(timed layer spans) and ``counts`` (count-only hooks).

Around the pass the worker times a fixed calibration loop (``calib_s``),
so that the caller can take out the drift of the CPU speed.
"""

import sys
import time

CALIBRATION_STEPS = 15000


def calibrate() -> float:
    """Seconds for a fixed pure-Python Fraction loop, garbage collector off.

    It does the kind of work the engine does (exact rational arithmetic on
    short-lived objects) and none of the engine's code, so a change to
    qident cannot change it, and it runs the same whatever the heap holds.
    """
    import gc
    from fractions import Fraction

    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, CALIBRATION_STEPS):
            acc += Fraction(1, k) * Fraction(k + 1, k + 2)
            if acc.denominator > 10**50:
                acc = Fraction(acc.numerator % 997, 7)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _run_pass(job, catalog):
    from fractions import Fraction

    verify_mod, dsl = sys.modules["qident.verify"], sys.modules["qident.dsl"]
    order = Fraction(job["order"])
    t0 = time.perf_counter()
    if job["workload"] == "theta-dsl":
        reports = [
            verify_mod.verify(verify_mod.Identity(
                f"theta-dsl:{lineno}", lhs, rhs, order))
            for lineno, lhs, rhs in dsl.parse_identity_file(job["text"])
        ]
    else:
        entries = [idy for idy in catalog
                   if job["workload"] == "catalog" or idy.id.startswith("thm31-")]
        reports = verify_mod.verify_many(entries, order)
    wall = time.perf_counter() - t0
    verdicts = [
        [r.id, r.status, r.resolved_sign,
         None if r.first_mismatch is None else str(r.first_mismatch.exponent)]
        for r in reports
    ]
    verdict_s = {r.id: r.elapsed_ms / 1000.0 for r in reports}
    return wall, verdict_s, verdicts


def main() -> None:
    mode, src = sys.argv[1], sys.argv[2]
    job_text = sys.stdin.read()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import qident.cli  # noqa: F401  (the CLI import is part of set-up)
    instrument = None
    if mode in ("spans", "counts"):
        import tracer
        instrument = tracer.SpanTracer() if mode == "spans" else tracer.CountHooks()
        instrument.install()
    catalog = sys.modules["qident.catalog"].catalog()
    setup_s = time.perf_counter() - t0

    import json
    import platform
    import resource
    from pathlib import Path

    qident = sys.modules["qident"]
    if not Path(qident.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"perfbench: imported qident from {qident.__file__}, "
                         f"not from {src}")
    job = json.loads(job_text)
    result = {
        "mode": mode,
        "setup_s": setup_s,
        "meta": {
            "kernel_backend": qident.KERNEL_BACKEND,
            "python": platform.python_version(),
        },
    }
    calib_before = calibrate()
    if mode != "setup":
        wall, verdict_s, verdicts = _run_pass(job, catalog)
        result.update(wall_s=wall, verdict_s=verdict_s, verdicts=verdicts)
    result["calib_s"] = (calib_before + calibrate()) / 2
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if instrument is not None:
        result["layers"] = instrument.summary()
    if mode == "spans" and job["spans_out"]:
        Path(job["spans_out"]).write_text(
            json.dumps(instrument.dump()), encoding="utf-8")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

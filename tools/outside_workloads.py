"""Time DSL inputs outside the benchmark's workloads on two source trees.

    python tools/outside_workloads.py OLD_SRC NEW_SRC 'eta(1)@4000' ... [--runs N]

For each EXPR@ORDER and each tree, in fresh interpreters: the exit code
and whole-process wall time of `qident dump EXPR --order ORDER`, and the
best of N in-process evaluations (skipped when the dump fails: exit 2 is
a refusal, exit 1 an evaluation that raises).  The two dumps' standard
output and error are hashed and compared.  Prints one JSON object, each
input mapped to "old -> new; output same" (or "differs"), as the
`outside_workloads` tables of the BENCH_*.json files record them.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

TIMED = """import sys, time
from fractions import Fraction
from qident.dsl import parse_expression
from qident.expr import evaluate_to_order
node, best = parse_expression(sys.argv[1]), float("inf")
for _ in range(int(sys.argv[3])):
    t = time.perf_counter()
    evaluate_to_order(node, Fraction(sys.argv[2]))
    best = min(best, time.perf_counter() - t)
print(best)
"""


def run(src, expr, order, runs):
    """(row, digest): the timings of one tree and the hash of its dump."""
    env = dict(os.environ, PYTHONPATH=src)
    dump = [sys.executable, "-c", "from qident.cli import main; main()",
            "dump", expr, "--order", order]
    t = time.perf_counter()
    done = subprocess.run(dump, env=env, capture_output=True)
    row = f"exit {done.returncode}, whole process {time.perf_counter() - t:.2f} s"
    if done.returncode == 0:
        out = subprocess.run([sys.executable, "-c", TIMED, expr, order, str(runs)],
                             env=env, capture_output=True, text=True, check=True)
        row += f", in-process best {float(out.stdout):.4f} s"
    return row, hashlib.sha256(done.stdout + b"\0" + done.stderr).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("inputs", nargs="+", metavar="EXPR@ORDER")
    ap.add_argument("--runs", type=int, default=3)
    args = ap.parse_args()
    rows = {}
    for item in args.inputs:
        expr, order = item.rsplit("@", 1)
        (old, a), (new, b) = (run(src, expr, order, args.runs)
                              for src in (args.old_src, args.new_src))
        rows[f"{expr} @ {order}"] = (f"{old} -> {new}; output "
                                     + ("same" if a == b else "differs"))
    print(json.dumps(rows, indent=2))


if __name__ == "__main__":
    main()

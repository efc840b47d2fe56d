"""Check that two source trees print the same reports and dumps.

    python tools/same_reports.py OLD_SRC NEW_SRC

Runs `qident verify all --json` at the orders 1/2, 1, 7/3, 24, 48, 96 and
192 and at each entry's default order, and `qident dump` of the eight
named blocks at order 32 (the golden dumps under tests/golden), once on
each tree in a fresh interpreter.  Prints one line per command: "identical"
when the exit code, standard output and standard error all agree, else
"differs".  Exits 1 if any command differs, 0 otherwise.
"""

import argparse
import os
import subprocess
import sys

ORDERS = ["1/2", "1", "7/3", "24", "48", "96", "192", None]  # None: the default
BLOCKS = ["qq", "phi", "psi", "gamma1", "gamma2", "gamma3", "h", "i"]


def commands():
    for order in ORDERS:
        yield ["verify", "all", "--json"] + ([] if order is None else ["--order", order])
    for block in BLOCKS:
        yield ["dump", block, "--order", "32"]


def run(src, args):
    """(exit code, stdout, stderr) of `qident ARGS` on the tree `src`."""
    done = subprocess.run(
        [sys.executable, "-c", "from qident.cli import main; main()", *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True)
    return done.returncode, done.stdout, done.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    args = ap.parse_args()
    differ = 0
    for cmd in commands():
        old, new = run(args.old_src, cmd), run(args.new_src, cmd)
        differ += old != new
        verdict = "identical" if old == new else f"differs (exit {old[0]} -> {new[0]})"
        print(f"qident {' '.join(cmd)}: {verdict}")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()

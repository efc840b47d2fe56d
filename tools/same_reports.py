"""Check that two source trees print the same output for every subcommand.

    python tools/same_reports.py OLD_SRC NEW_SRC

Runs, once on each tree in a fresh interpreter:
- `qident list`;
- `qident verify all --json` at the orders 1/2, 1, 7/3, 24, 48, 96 and 192
  and at each entry's default order;
- `qident dump` of the eight named blocks at order 32 (the golden dumps
  under tests/golden), and of twenty expressions: an integral exponent
  map whose log-derivative recurrence runs blocked at 1500, a map whose
  common denominator rises at the first slot at 300, a product with a
  constant factor at 96, a mixed-sign f at 200 (its theta sum), eta(1)
  at 4000 (a fill that is one theta group, so its sum side), the square
  of an f at 200 alone and beside an eta, the quotient H(1) at 96, four
  products of G_k: two that fold, their theta_1 sums times one map
  (G1 G2 G3 at 200, and G1(1/3)^3 eta(1) at 96), and two that do not,
  being a root of a product and a quotient (both at 48); and five
  products with an f atom, which folds as its theta sum unless raised to
  a power other than a positive integer: the inverse of an f at 1000
  (its triple-product families), and the sum times a map (f/eta(1) at
  3000, a mixed-sign f times eta(2)^3 at 1500), times a sum (the theta
  factorization f(q,q^5)f(q^2,q^4) at 3000) and times G1 (at 1000); and
  three products of two sparse sums, two with no more term pairs than
  slots, which multiply term by term (T1N(1)*T1N(3) at 200, sqrt2 parts
  on both sides, and phi(1)*psi(4) at 2000), and one just past that
  bound, which takes the packed kernel (phi(1)*psi(1) at 2000);
- `qident cf` of h and i at q = 0.05 and 0.3, and of gcf at k = 0.3,
  l = 0.1, q = 0.2;
- `qident parse` of a file holding the README's two DSL examples, one
  false identity and two theta-rule lines, the second off by q^3, so the
  exit-1 path runs too.
Timings printed as "[N ms]" are masked before comparing.  Prints one line
per command: "identical" when the exit code, standard output and standard
error all agree, else "differs".  Exits 1 if any command differs, 0
otherwise.
"""

import argparse
import os
import pathlib
import re
import subprocess
import sys
import tempfile

ORDERS = ["1/2", "1", "7/3", "24", "48", "96", "192", None]  # None: the default
BLOCKS = ["qq", "phi", "psi", "gamma1", "gamma2", "gamma3", "h", "i"]
EXPRESSIONS = [("f(-q^1,-q^2)^(1/2)*eta(1)^(1/2)", "1500"),
               ("eta(1)^(1/97)*eta(2)^(1/89)", "300"),
               ("(1+sqrt2)*G1(1/2)*G3(1/2)^(2)", "96"),
               ("f(+q^(1/2),-q^(1/2))", "200"),
               ("eta(1)", "4000"),
               ("f(+q^(1),+q^(2))^(2)", "200"),
               ("f(+q^(1),+q^(2))^(2)*eta(1)", "200"),
               ("H(1)", "96"),
               ("G1(1)*G2(1)*G3(1)", "200"),
               ("G1(1/3)^(3)*eta(1)", "96"),
               ("(G1(1)*G3(1))^(1/2)", "48"),
               ("G1(1)^(2)/G3(1)", "48"),
               ("f(+q^(1),+q^(2))^(-1)", "1000"),
               ("f(-q^(1),-q^(2))/eta(1)", "3000"),
               ("f(+q^(1),+q^(5))*f(+q^(2),+q^(4))", "3000"),
               ("f(+q^(1),-q^(2))*eta(2)^(3)", "1500"),
               ("f(+q^(1),+q^(3))*G1(1)", "1000"),
               ("T1N(1)*T1N(3)", "200"),
               ("phi(1)*psi(4)", "2000"),
               ("phi(1)*psi(1)", "2000")]
CF = [["h", "--q", "0.05", "--q", "0.3"], ["i", "--q", "0.05", "--q", "0.3"],
      ["gcf", "--k", "0.3", "--l", "0.1", "--q", "0.2"]]
PARSE_TEXT = ("1/H(1) + H(1) == phi(1)/(q^(1/2)*psi(4))\n"
              "G1(1)*G2(1)*G3(1) == q^(-1/4)*eta(8)/eta(2)\n"
              "phi(1) == 2*phi(1)\n"
              "fsum(+q^(1/2),-q^(3/2)) == f(+q^(1/2),-q^(3/2))\n"
              "f(-q^(1),-q^(2)) == f(+q^(5),+q^(7)) - q^(1)*f(+q^(1),+q^(11)) + q^(3)\n")
TIMING = re.compile(rb"\[\d+ ms\]")


def commands(parse_path):
    yield ["list"]
    for order in ORDERS:
        yield ["verify", "all", "--json"] + ([] if order is None else ["--order", order])
    for block in BLOCKS:
        yield ["dump", block, "--order", "32"]
    for text, order in EXPRESSIONS:
        yield ["dump", text, "--order", order]
    for args in CF:
        yield ["cf", *args]
    yield ["parse", parse_path]


def run(src, args):
    """(exit code, stdout, stderr) of `qident ARGS` on the tree `src`, with
    timings masked."""
    done = subprocess.run(
        [sys.executable, "-c", "from qident.cli import main; main()", *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True)
    return (done.returncode, TIMING.sub(b"[N ms]", done.stdout),
            TIMING.sub(b"[N ms]", done.stderr))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    args = ap.parse_args()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "readme.qid")
        path.write_text(PARSE_TEXT, encoding="utf-8")
        for cmd in commands(str(path)):
            old, new = run(args.old_src, cmd), run(args.new_src, cmd)
            differ += old != new
            verdict = "identical" if old == new else f"differs (exit {old[0]} -> {new[0]})"
            print(f"qident {' '.join(cmd)}: {verdict}")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()

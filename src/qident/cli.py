"""Command-line front end.

Subcommands: `list` (catalog ids), `verify` (run identity checks, optional
JSON report), `dump` (series coefficients of a named block or a DSL
expression), `cf` (continued-fraction vs series table) and `parse`
(verify identities from a user DSL file).

Exit codes: 0 all requested checks verified (possibly with a recorded
sign flip), 1 on any mismatch or failed evaluation, 2 on usage or parse
errors, including an order or exponent grid too large to expand.  All
configuration is by flags; no environment variables.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import re
import sys
from fractions import Fraction

from .catalog import catalog
from .cfrac import eval_general_cf, eval_h_cf, eval_i_cf, gcf_product_value
from .dsl import ParseError, parse_expression, parse_identity_file
from .expr import evaluate_to_order
from .series import SlotBudgetError
from .verify import EVALUATION_FAILURES, Identity, report_json, verify, verify_many
from .verify import MISMATCH, SIGN_FLIP, VERIFIED

# Named series for `dump`, each short for a DSL expression.
_DUMP_BLOCKS = {"qq": "poch(-,1,1)", "phi": "phi(1)", "psi": "psi(1)", "gamma1": "G1(1)",
                "gamma2": "G2(1)", "gamma3": "G3(1)", "h": "H(1)", "i": "I(1)"}
# a negative number that argparse would take for an option
_NEGATIVE = re.compile(r"-(inf|infinity|nan|[0-9.]+(e[-+]?[0-9]+)?)", re.IGNORECASE)


class UsageError(Exception):
    """Bad input on the command line: exit 2 with the message."""


def _parse_order(text: str) -> Fraction:
    try:
        order = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"order must be a rational like 24 or 49/2, got {text!r}")
    if order <= 0:
        raise UsageError("order must be positive")
    return order


def _text(exponent, c) -> str:
    """The coefficient `c` of q^exponent as text, or a usage error past the digit limit."""
    try:
        return c.render()
    except ValueError as exc:
        raise _too_long(exponent, exc)


def _too_long(exponent, exc) -> UsageError:
    return UsageError(f"the coefficient of q^{exponent} is too long to print: {exc}")


def _ratio(a: int, b: int) -> str:
    """a/b in lowest terms, b > 0, as str(Fraction(a, b)) prints it."""
    g = math.gcd(a, b)
    return str(a // g) if b == g else f"{a // g}/{b // g}"


def _dump_lines(s):
    """One "exponent<TAB>a+b*sqrt2" line per term of `s`, the text of its
    exponent Fraction and its coefficient's render, made from the slot
    integers with one gcd per exponent and per coefficient part."""
    # slot k sits at q^(m + k/den) = q^((a*den + k*b) / (b*den)), m = a/b
    a, b, den, d = s.m.numerator, s.m.denominator, s.den, s.d
    for k, (r, i) in s.slots.items():
        e = _ratio(a * den + k * b, b * den)
        try:
            yield f"{e}\t{_ratio(r, d)}{'-' if i < 0 else '+'}{_ratio(abs(i), d)}*sqrt2"
        except ValueError as exc:
            raise _too_long(e, exc)


def _describe(report) -> str:
    if report.status == VERIFIED:
        return f"verified (+1) to q^{report.order} [{report.elapsed_ms:.0f} ms]"
    if report.status == SIGN_FLIP:
        return (f"verified with sign flip (-1) to q^{report.order} "
                f"[{report.elapsed_ms:.0f} ms]")
    if report.status == MISMATCH:
        mm = report.first_mismatch
        return (f"MISMATCH at q^{mm.exponent}: lhs {_text(mm.exponent, mm.lhs)} "
                f"!= rhs {_text(mm.exponent, mm.rhs)}")
    return "INSUFFICIENT PRECISION (evaluation failed)"


def list_cmd(args) -> int:
    """List catalog identity ids with their reference tags."""
    for idy in catalog():
        print(f"{idy.id:26s} order {str(idy.default_order):>4s}  {idy.paper_ref}")
    return 0


def verify_cmd(args) -> int:
    """Verify catalog identities ('all' or explicit ids)."""
    if args.output and pathlib.Path(args.output).is_dir():
        raise UsageError(f"Invalid value for '--output': File {args.output!r} is a directory.")
    order = _parse_order(args.order) if args.order else None
    by_id = {idy.id: idy for idy in catalog()}
    unknown = [i for i in args.ids if i not in by_id]
    if unknown and args.ids != ["all"]:
        import difflib  # only a misspelt id needs it
        near = difflib.get_close_matches(unknown[0], by_id, n=3)
        hint = f"; did you mean {', '.join(near)}?" if near else ""
        raise UsageError(f"unknown identity id {unknown[0]!r}{hint}")
    selected = list(by_id.values()) if args.ids == ["all"] else [by_id[i] for i in args.ids]
    reports = verify_many(selected, order)
    payload = report_json(reports) if args.json or args.output else None
    if args.json:
        print(payload.decode("utf-8"))
    else:
        for r in reports:
            print(f"{r.id}: {_describe(r)}", flush=True)
    if args.output:
        pathlib.Path(args.output).write_bytes(payload)
    return 0 if all(r.ok() for r in reports) else 1


def dump_cmd(args) -> int:
    """Dump series coefficients: one 'exponent<TAB>a+b*sqrt2' line per term.

    BLOCK is a named series (qq, phi, psi, gamma1..3, h, i) or a DSL
    expression such as 'eta(8)/eta(2)'.
    """
    order = _parse_order(args.order)
    try:
        node = parse_expression(_DUMP_BLOCKS.get(args.block, args.block))
        series = evaluate_to_order(node, order)
    except ParseError as exc:
        raise UsageError(f"{args.block!r} is not a named block ({', '.join(_DUMP_BLOCKS)}) "
                         f"and does not parse as an expression: {exc}")
    except EVALUATION_FAILURES as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(_dump_lines(series.truncated(order))))
    return 0


def cf_cmd(args) -> int:
    """Continued-fraction values against the product/series side."""
    for name, value in (("--max-depth", args.max_depth), ("--series-order", args.series_order)):
        if value < 1:
            raise UsageError(f"Invalid value for {name!r}: {value} is not in the range x>=1.")
    if not args.tol >= 0:  # NaN too
        raise UsageError("Invalid value for '--tol': must be a non-negative number")
    if args.kind == "gcf":
        if args.k is None or args.l is None:
            raise UsageError("gcf needs --k and --l")
        reference = lambda q: gcf_product_value(args.k, args.l, q)
        evaluate = lambda q: eval_general_cf(args.k, args.l, q, args.tol, args.max_depth)
    else:
        reference = evaluate_to_order(parse_expression(_DUMP_BLOCKS[args.kind]),
                                      args.series_order).evaluate
        cf = eval_h_cf if args.kind == "h" else eval_i_cf
        evaluate = lambda q: cf(q, args.tol, args.max_depth)
    try:  # a q or a (k, l) outside the fraction's domain is a usage error
        rows = [(q, evaluate(q), reference(q)) for q in args.q]
    except ValueError as exc:
        raise UsageError(str(exc))
    print(f"{'q':>8s} {'cf_value':>20s} {'series_value':>20s} "
          f"{'|diff|':>10s} {'depth':>5s}")
    for q, ev, ref in rows:
        flag = "" if ev.converged else "  (not converged)"
        print(f"{q:8.4f} {ev.value:20.14f} {ref:20.14f} "
              f"{abs(ev.value - ref):10.2e} {ev.depth_used:5d}{flag}")
    return 0


def parse_cmd(args) -> int:
    """Parse a DSL file (one identity per line) and verify each."""
    path = pathlib.Path(args.path)
    if not path.is_file():
        state = "is a directory" if path.is_dir() else "does not exist"
        raise UsageError(f"Invalid value for 'PATH': File {args.path!r} {state}.")
    order = _parse_order(args.order)
    try:
        parsed = parse_identity_file(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ParseError) as exc:  # unreadable, not UTF-8, or bad DSL
        print(f"{args.path}: {exc}", file=sys.stderr)
        return 2
    failed = False
    for lineno, lhs, rhs in parsed:
        r = verify(Identity(f"{path.stem}:{lineno}", lhs, rhs, order))
        print(f"{r.id}: {_describe(r)}", flush=True)
        failed = failed or not r.ok()
    return 1 if failed else 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser("qident", description="Exact q-series identity verification.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__.split("\n")[0], description=run.__doc__)
        sub.set_defaults(run=run, parser=sub)
        return sub.add_argument

    command("list", list_cmd)
    arg = command("verify", verify_cmd)
    arg("ids", nargs="+", metavar="IDS")
    arg("--order", help="Override the expansion order (rational, e.g. 24 or 49/2).")
    arg("--json", action="store_true", help="Emit a JSON report array.")
    arg("--output", help="Also write the JSON report to this path.")
    arg = command("dump", dump_cmd)
    arg("block", metavar="BLOCK")
    arg("--order", default="32", help="Expansion order (rational).")
    arg = command("cf", cf_cmd)
    arg("kind", choices=["h", "i", "gcf"], metavar="KIND", help="h, i or gcf.")
    arg("--q", type=float, action="append", required=True, help="A point in (0, 1); repeatable.")
    arg("--tol", type=float, default=1e-10, help="Convergence tolerance (default: %(default)s).")
    arg("--max-depth", type=int, default=400,
        help="Most partial quotients to take (default: %(default)s).")
    arg("--k", type=float, help="First parameter (gcf only).")
    arg("--l", type=float, help="Second parameter (gcf only).")
    arg("--series-order", type=int, default=64, help="Reference order (default: %(default)s).")
    arg = command("parse", parse_cmd)
    arg("path", metavar="PATH")
    arg("--order", default="20", help="Expansion order for the checks (default: %(default)s).")
    return parser


def _joined(argv) -> list:
    """`argv` with each negative number joined to the option before it:
    argparse reads `--tol -1e-10` as two options, since it takes only a
    plain decimal such as -0.5 for a number."""
    out = []
    for arg in argv:
        if out and out[-1][:2] == "--" and "=" not in out[-1] and _NEGATIVE.fullmatch(arg):
            out[-1] += f"={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> None:
    """Run `qident ARGV` (default sys.argv[1:]) and exit with its code."""
    args = _parser().parse_args(_joined(sys.argv[1:] if argv is None else argv))
    try:
        sys.exit(args.run(args))
    except (UsageError, SlotBudgetError) as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    main()

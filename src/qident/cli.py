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

import math
import pathlib
from fractions import Fraction
from typing import Iterator

import click

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


def _parse_order(text: str) -> Fraction:
    try:
        order = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"order must be a rational like 24 or 49/2, got {text!r}")
    if order <= 0:
        raise click.UsageError("order must be positive")
    return order


def _text(exponent, c) -> str:
    """The coefficient `c` of q^exponent as text; a part with more digits
    than the interpreter prints is a usage error."""
    try:
        return c.render()
    except ValueError as exc:
        raise _too_long(exponent, exc)


def _too_long(exponent, exc) -> click.UsageError:
    return click.UsageError(f"the coefficient of q^{exponent} is too long to print: {exc}")


def _ratio(a: int, b: int) -> str:
    """a/b in lowest terms, b > 0, as str(Fraction(a, b)) prints it."""
    g = math.gcd(a, b)
    return str(a // g) if b == g else f"{a // g}/{b // g}"


def _dump_lines(s) -> Iterator[str]:
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


class _Main(click.Group):
    def invoke(self, ctx):
        # an order or exponent grid too large to expand is a usage error
        try:
            return super().invoke(ctx)
        except SlotBudgetError as exc:
            raise click.UsageError(str(exc), ctx)


@click.group(cls=_Main)
def main():
    """Exact q-series identity verification."""


@main.command("list")
def list_cmd():
    """List catalog identity ids with their reference tags."""
    for idy in catalog():
        click.echo(f"{idy.id:26s} order {str(idy.default_order):>4s}  {idy.paper_ref}")


@main.command("verify")
@click.argument("ids", nargs=-1, required=True)
@click.option("--order", "order_text", default=None,
              help="Override the expansion order (rational, e.g. 24 or 49/2).")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report array.")
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Also write the JSON report to this path.")
@click.pass_context
def verify_cmd(ctx, ids, order_text, as_json, output):
    """Verify catalog identities ('all' or explicit ids)."""
    order = _parse_order(order_text) if order_text else None
    if len(ids) == 1 and ids[0] == "all":
        selected = list(catalog())
    else:
        by_id = {idy.id: idy for idy in catalog()}
        selected = []
        for ident in ids:
            if ident not in by_id:
                import difflib  # only a misspelt id needs it

                near = difflib.get_close_matches(ident, by_id, n=3)
                hint = f"; did you mean {', '.join(near)}?" if near else ""
                raise click.UsageError(f"unknown identity id {ident!r}{hint}")
            selected.append(by_id[ident])
    reports = verify_many(selected, order)
    payload = report_json(reports) if as_json or output else None
    if as_json:
        click.echo(payload.decode("utf-8"))
    else:
        for r in reports:
            click.echo(f"{r.id}: {_describe(r)}")
    if output:
        pathlib.Path(output).write_bytes(payload)
    if any(not r.ok() for r in reports):
        ctx.exit(1)


@main.command("dump")
@click.argument("block")
@click.option("--order", "order_text", default="32",
              help="Expansion order (rational).")
@click.pass_context
def dump_cmd(ctx, block, order_text):
    """Dump series coefficients: one 'exponent<TAB>a+b*sqrt2' line per term.

    BLOCK is a named series (qq, phi, psi, gamma1..3, h, i) or a DSL
    expression such as 'eta(8)/eta(2)'.
    """
    order = _parse_order(order_text)
    try:
        node = parse_expression(_DUMP_BLOCKS.get(block, block))
        series = evaluate_to_order(node, order)
    except ParseError as exc:
        raise click.UsageError(
            f"{block!r} is not a named block ({', '.join(_DUMP_BLOCKS)}) "
            f"and does not parse as an expression: {exc}"
        )
    except EVALUATION_FAILURES as exc:
        click.echo(f"evaluation failed: {exc}", err=True)
        ctx.exit(1)
    click.echo("\n".join(_dump_lines(series.truncated(order))))


@main.command("cf")
@click.argument("kind", type=click.Choice(["h", "i", "gcf"]))
@click.option("--q", "q_values", type=float, multiple=True, required=True,
              help="Evaluation point(s) in (0, 1); repeatable.")
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--max-depth", type=click.IntRange(min=1), default=400,
              show_default=True)
@click.option("--k", "k_param", type=float, default=None,
              help="First parameter (gcf only).")
@click.option("--l", "l_param", type=float, default=None,
              help="Second parameter (gcf only).")
@click.option("--series-order", type=click.IntRange(min=1), default=64,
              show_default=True,
              help="Truncation order of the reference series.")
def cf_cmd(kind, q_values, tol, max_depth, k_param, l_param, series_order):
    """Continued-fraction values against the product/series side."""
    if not tol >= 0:  # NaN too
        raise click.BadParameter("must be a non-negative number",
                                 param_hint="'--tol'")
    if kind == "gcf":
        if k_param is None or l_param is None:
            raise click.UsageError("gcf needs --k and --l")
        reference = lambda q: gcf_product_value(k_param, l_param, q)
        evaluate = lambda q: eval_general_cf(k_param, l_param, q, tol, max_depth)
    else:
        reference = evaluate_to_order(parse_expression(_DUMP_BLOCKS[kind]),
                                      series_order).evaluate
        evaluate = ((lambda q: eval_h_cf(q, tol, max_depth)) if kind == "h"
                    else (lambda q: eval_i_cf(q, tol, max_depth)))
    try:  # a q or a (k, l) outside the fraction's domain is a usage error
        rows = [(q, evaluate(q), reference(q)) for q in q_values]
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(f"{'q':>8s} {'cf_value':>20s} {'series_value':>20s} "
               f"{'|diff|':>10s} {'depth':>5s}")
    for q, ev, ref in rows:
        flag = "" if ev.converged else "  (not converged)"
        click.echo(f"{q:8.4f} {ev.value:20.14f} {ref:20.14f} "
                   f"{abs(ev.value - ref):10.2e} {ev.depth_used:5d}{flag}")


@main.command("parse")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--order", "order_text", default="20", show_default=True,
              help="Expansion order for the checks.")
@click.pass_context
def parse_cmd(ctx, path, order_text):
    """Parse a DSL file (one identity per line) and verify each."""
    order = _parse_order(order_text)
    try:
        parsed = parse_identity_file(pathlib.Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, ParseError) as exc:
        click.echo(f"{path}: {exc}", err=True)
        ctx.exit(2)
    stem = pathlib.Path(path).stem
    failed = False
    for lineno, lhs, rhs in parsed:
        idy = Identity(f"{stem}:{lineno}", lhs, rhs, order)
        r = verify(idy)
        click.echo(f"{idy.id}: {_describe(r)}")
        failed = failed or not r.ok()
    if failed:
        ctx.exit(1)


if __name__ == "__main__":
    main(prog_name="qident")

"""Workload inputs and their known answers.

Three workloads, each chosen to stress a different layer of qident:

* ``catalog``: the 55 built-in identities at order 48 through
  ``verify_many`` -- the ``qident verify all`` path, with heavy sharing of
  subexpressions across entries and most time in ``inverse``/``nth_root``.
* ``thm31-deep``: the six ``thm31-*`` identities at order 96, where the
  dense O(n*nnz) recurrences of ``inverse``/``nth_root`` dominate.
* ``theta-dsl``: a seeded file of generated theta identities at order 200,
  run the way ``qident parse`` runs a file.  It has no inverses or roots
  and little sharing, so it bypasses both the series-core recurrences and
  any evaluation cache; its time goes to ``mul`` and the block builders.

The program under test sees only DSL text (``theta-dsl``) or its own
catalog; the expected verdicts stay here.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

VERIFIED = "verified"
MISMATCH = "mismatch"

# name -> (order, smoke order); orders are exact rationals as text
WORKLOADS = {
    "catalog": ("48", "8"),
    "thm31-deep": ("96", "12"),
    "theta-dsl": ("200", "16"),
}

THETA_DSL_LINES = 60          # a multiple of the five rules
THETA_DSL_SMOKE_LINES = 10
# One in this many right-hand sides gets a `+ q^(k)` perturbation.
PERTURB_ONE_IN = 5

_GRID = [Fraction(k, 2) for k in range(1, 17)]


def _f(s1: str, a: Fraction, s2: str, b: Fraction, fn: str = "f") -> str:
    return f"{fn}({s1}q^{a},{s2}q^{b})"


def _instance(rule: str, s1: str, s2: str, a: Fraction, b: Fraction):
    """(lhs, rhs) of one instance of a theta rule.

    The rules are the Jacobi triple product (sum form == product form)
    and the four lemma rewrites of ``tests/test_acceptance.py``:
    factorization, bisection sum, bisection difference and the split of
    f(-q^a,-q^b); the last two need b > a.
    """
    if rule == "triple-product":
        return _f(s1, a, s2, b, "fsum"), _f(s1, a, s2, b)
    if rule == "factorization":
        return (f"{_f('+', a, '+', a + 2 * b)}*{_f('+', b, '+', 2 * a + b)}",
                f"{_f('+', a, '+', b)}*psi({a + b})")
    if rule == "bisection-sum":
        return (f"{_f('+', a, '+', b)} + {_f('-', a, '-', b)}",
                f"2*{_f('+', 3 * a + b, '+', a + 3 * b)}")
    if rule == "bisection-difference":
        return (f"{_f('+', a, '+', b)} - {_f('-', a, '-', b)}",
                f"2*q^({a})*{_f('+', b - a, '+', 5 * a + 3 * b)}")
    return (_f("-", a, "-", b),
            f"{_f('+', 3 * a + b, '+', a + 3 * b)} - "
            f"q^({a})*{_f('+', b - a, '+', 5 * a + 3 * b)}")


RULES = ("triple-product", "factorization", "bisection-sum",
         "bisection-difference", "split")
_ALL_PAIRS = [(a, b) for a in _GRID for b in _GRID]
_PAIRS_A_BELOW_B = [(a, b) for a, b in _ALL_PAIRS if a < b]
# The costliest instance of each rule at order 200 (smallest exponents;
# mixed signs for the triple product).  Every file holds all five, so
# `verdict_s.max` measures the same worst case whatever the seed.
_ANCHORS = {
    "triple-product": ("+", "-", Fraction(1, 2), Fraction(1, 2)),
    **{rule: ("+", "+", Fraction(1, 2), Fraction(1)) for rule in RULES[1:]},
}


def _stratified(rng: random.Random, pairs, n: int):
    """n pairs, one drawn from each of n equal slices of `pairs` ordered by
    a + b: the expansion sizes, and so the work, are spread the same way
    for every seed while the exponents themselves are random."""
    pairs = sorted(pairs, key=lambda p: (p[0] + p[1], p))
    cuts = [round(i * len(pairs) / n) for i in range(n + 1)]
    return [pairs[rng.randrange(lo, hi)] for lo, hi in zip(cuts, cuts[1:])]


def theta_dsl(seed: int, order: Fraction, count: int):
    """Seeded DSL file text plus the expected verdict of every line.

    ``count`` lines, the same number for each rule.  The file opens with
    the five anchors, always in the same order and unperturbed, so that
    they run in the same state whatever the seed; the random instances
    follow, shuffled.  Returns (text, expected) where expected maps the
    1-based line number to (status, resolved_sign, mismatch exponent or
    None).  About one random line in PERTURB_ONE_IN adds q^k to its
    right-hand side, so it must fail at exactly k.
    """
    rng = random.Random(seed)
    per_rule = count // len(RULES)
    randoms = []
    for rule in RULES:
        pairs = _ALL_PAIRS if rule == "triple-product" else _PAIRS_A_BELOW_B
        for a, b in _stratified(rng, pairs, per_rule - 1):
            randoms.append((rule, rng.choice("+-"), rng.choice("+-"), a, b))
    rng.shuffle(randoms)
    lines = [f"# theta-dsl workload, seed {seed}, order {order}"]
    expected = {}
    for n, (rule, s1, s2, a, b) in enumerate(
            [(rule, *_ANCHORS[rule]) for rule in RULES] + randoms):
        lhs, rhs = _instance(rule, s1, s2, a, b)
        if n >= len(RULES) and rng.randrange(PERTURB_ONE_IN) == 0:
            k = Fraction(rng.randrange(int(2 * order)), 2)
            rhs = f"{rhs} + q^({k})"
            expected[len(lines) + 1] = (MISMATCH, None, str(k))
            note = f"expect mismatch at q^{k}"
        else:
            expected[len(lines) + 1] = (VERIFIED, 1, None)
            note = "expect verified"
        lines.append(f"{lhs} == {rhs}  # {rule}; {note}")
    return "\n".join(lines) + "\n", expected


def catalog_expected(root: Path, thm31_only: bool):
    """Known verdicts of the catalog entries, from the golden report.

    The statuses and resolved signs are the same at orders 8 through 96;
    every entry verifies, so no mismatch exponent is expected.
    """
    golden = root / "tests" / "golden" / "verify_all_order24.json"
    out = {}
    for entry in json.loads(golden.read_text(encoding="utf-8")):
        if thm31_only and not entry["id"].startswith("thm31-"):
            continue
        out[entry["id"]] = (entry["status"], entry["resolved_sign"], None)
    return out


def build(name: str, seed: int, root: Path, smoke: bool):
    """The job a worker runs for one pass, and its known answers."""
    order, smoke_order = WORKLOADS[name]
    order = smoke_order if smoke else order
    job = {"workload": name, "order": order, "text": None}
    if name == "theta-dsl":
        count = THETA_DSL_SMOKE_LINES if smoke else THETA_DSL_LINES
        job["text"], expected = theta_dsl(seed, Fraction(order), count)
        expected = {f"theta-dsl:{n}": v for n, v in expected.items()}
    else:
        expected = catalog_expected(root, thm31_only=name == "thm31-deep")
    return job, expected

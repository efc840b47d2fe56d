"""Textual identity DSL: tokenizer, recursive-descent parser, renderer.

Grammar (whitespace insignificant, '#' starts a comment):

    identity := expr "==" expr
    expr     := term { ("+"|"-") term }
    term     := factor { ("*"|"/") factor }
    factor   := atom [ "^" "(" rational ")" ]
    atom     := "q" "^" "(" rational ")" | rational | "sqrt2"
              | name "(" argument ")"        -- a primitive, see below
              | "root" "(" expr "," int ")"
              | "subst" "(" expr "," rational ")"
              | "(" expr ")"
    rational := ["-"] int [ "/" int ] ;  sign := "+" | "-"

The primitives are the entries of :data:`qident.expr.PRIMITIVES`; this
table is :func:`atom_table`.  `r` is a positive rational and the atom is
the series at q -> q^r; `k` is 1, 2 or 3; `a`, `b`, `s`, `alpha`, `beta`
are positive rationals; `+a1-a2...` lists signed integer exponents.

| atom | argument | meaning |
|---|---|---|
| `eta` | `r` | `eta(r tau) = q^(r/24) (q^r;q^r)_inf` |
| `poch` | `sign,a,b` | `prod_{j>=0} (1 + sign q^(a+jb))` |
| `f` | `sign q^a,sign q^b` | theta `f(sign q^a, sign q^b)`, triple-product form |
| `fsum` | `sign q^a,sign q^b` | the same theta function as a bilateral sum |
| `phi` | `r` | `phi(q^r) = f(q^r, q^r)` |
| `psi` | `r` | `psi(q^r) = f(q^r, q^3r)` |
| `H` | `r` | Gollnitz-Gordon fraction product side `h(q^r)` |
| `I` | `r` | order-four fraction product side `i(q^r)` |
| `G1` | `r` | `prod_{n>=1} (1 - sqrt2 q^(rn) + q^(2rn))` |
| `G2` | `r` | `prod_{n>=1} (1 + q^(2rn))` |
| `G3` | `r` | `prod_{n>=1} (1 + sqrt2 q^(rn) + q^(2rn))` |
| `T1N` | `k` | `theta_1(k pi/8) / (2 q^(1/8) sin(k pi/8))` |
| `btable` | `k` | difference-table polynomial `sum_{j<32} B_k(j) q^j` |
| `lambert` | `s,r,+a1-a2...,b[,w]` | `sum_{m = r mod s} w(m) sum_i +-q^(a_i m)/(1 - q^(bm))`; `w(m)` is 1, `m` (`w` = `m`) or the Legendre symbol (m/p) (`w` = `legendre(p)`, p an odd prime below 3.3*10^24) |
| `psi11lhs` | `s,alpha,beta` | 1psi1 sum `sum_j z^j/(1 - x q^j)`, `x = q^alpha`, `z = q^beta`, base `q^s` |
| `psi11rhs` | `s,alpha,beta` | 1psi1 product side of the same sum, for `alpha + beta < s` |

Constant subexpressions fold at parse time, so rendering and reparsing
an expression reproduces it node for node.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction

from .blocks import PochSpec, ThetaSpec
from .expr import (
    PRIMITIVES, Add, Const, Mul, Node, Pow, Prim, QPow, Sub, Subst,
)
from .field import SQRT2, AlgebraicNumber
from .lambert import BilateralSpec, LambertSpec, product_families

_FR = Fraction

# Parsing, evaluating and rendering recurse once per level, so deeper input
# is refused at a position instead of exhausting the interpreter's stack.
# Parentheses (and root/subst) around an atom deepen the parser but not the
# tree, so both are capped; a rendered tree nests no deeper than the tree,
# so it always reparses.
MAX_NESTING = 150
MAX_TREE_DEPTH = 150


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<name>[A-Za-z][A-Za-z0-9]*)
      | (?P<int>\d+)
      | (?P<eq>==)
      | (?P<op>[-+*/^(),=])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _tokenize(text: str, line_offset: int = 0) -> list[tuple]:
    # (kind, text, line, column) tuples, in one scan: every character starts
    # a match (`bad` takes what no token does), and a token's column counts
    # from the last newline before it
    tokens = []
    line = 1 + line_offset
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            value = m.group()
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + value.rfind("\n") + 1
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}",
                             line, m.start() - line_start + 1)
        elif kind != "comment":
            tokens.append((kind, m.group(), line, m.start() - line_start + 1))
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


class Parser:
    def __init__(self, text: str, line_offset: int = 0):
        self.tokens = _tokenize(text, line_offset)
        self.pos = 0
        self.nesting = 0

    # -- token plumbing -------------------------------------------------

    def _peek(self) -> tuple:
        return self.tokens[self.pos]

    def _next(self) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def _error(self, message: str, tok: tuple = None):
        tok = tok or self._peek()
        if tok[0] == "eof" and self.pos > 0:
            # anchor end-of-input errors at the last real token
            prev = self.tokens[self.pos - 1]
            raise ParseError(f"{message} (input ended)", *prev[2:])
        raise ParseError(message, *tok[2:])

    def _expect(self, text: str) -> tuple:
        tok = self._peek()
        if tok[1] != text:
            self._error(f"expected {text!r}, found {tok[1]!r}" if tok[1]
                        else f"expected {text!r}")
        return self._next()

    def _at(self, text: str) -> bool:
        return self._peek()[1] == text

    # -- grammar --------------------------------------------------------

    def parse_identity(self) -> tuple[Node, Node]:
        lhs = self._expr()
        self._expect("==")
        return lhs, self.parse_expression()

    def parse_expression(self) -> Node:
        node = self._expr()
        tok = self._peek()
        if tok[0] != "eof":
            self._error(f"unexpected trailing input {tok[1]!r}")
        return node

    def _expr(self) -> Node:
        # every nested expression sits just after its opening "("
        if self.nesting > MAX_NESTING:
            self._error(f"more than {MAX_NESTING} nested parentheses",
                        self.tokens[self.pos - 1])
        self.nesting += 1
        node = self._term()
        while self._peek()[1] in ("+", "-"):
            tok = self._next()
            node = self._shallow(self._fold(tok, node, self._term()), tok)
        self.nesting -= 1
        return node

    def _term(self) -> Node:
        node = self._factor()
        while self._peek()[1] in ("*", "/"):
            tok = self._next()
            node = self._shallow(self._fold(tok, node, self._factor()), tok)
        return node

    def _fold(self, tok: tuple, left: Node, right: Node) -> Node:
        """left op right for the operator `tok`; a division x/y is
        Mul(x, Pow(y, -1))."""
        op = tok[1]
        if isinstance(left, Const) and isinstance(right, Const):
            if op == "/" and not right.value:
                self._error("division by zero in constant expression")
            fold = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                    "/": operator.truediv}[op]
            return self._const(fold(left.value, right.value), tok)
        if op == "/":
            return Mul(left, Pow(right, _FR(-1)))
        return {"+": Add, "-": Sub, "*": Mul}[op](left, right)

    def _shallow(self, node: Node, tok: tuple) -> Node:
        """`node`, refused at `tok` if its tree is too deep to evaluate."""
        if node.depth() > MAX_TREE_DEPTH:
            self._error(f"more than {MAX_TREE_DEPTH} levels of nested "
                        "operations", tok)
        return node

    def _factor(self) -> Node:
        node = self._atom()
        if not self._at("^"):
            return node
        tok = self._next()
        self._expect("(")
        r = self._rational()
        self._expect(")")
        if not isinstance(node, Const) or r.denominator != 1:
            return node if r == 1 else self._shallow(Pow(node, r), tok)
        v, n = node.value, int(r)
        if not v and n < 0:
            self._error("division by zero in constant expression", tok)
        # Refused before it is computed, past the point where _const would
        # refuse it: a base other than 0 and +-1 has a height of at least
        # max(1, bits - 3)/2 bits (bits: its longest numerator or
        # denominator), its n-th power |n| times that, and a value of
        # height H has a part longer than H/2 - 1/2 bits; 14 > 4*log2(10).
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        bits = max(x.bit_length() for p in (v.rat, v.irr)
                   for x in (p.numerator, p.denominator))
        if v not in (0, 1, -1) and abs(n) * max(1, bits - 3) > 14 * limit + 6:
            self._error(f"constant too long to print: more than {limit} digits", tok)
        return self._const(v ** n, tok)

    def _const(self, value: AlgebraicNumber, tok: tuple) -> Const:
        """Const(value), refused at `tok` when it is too long to print."""
        try:
            value.render()
        except ValueError as exc:  # a part past the interpreter's digit limit
            self._error(f"constant too long to print: {exc}", tok)
        return Const(value)

    def _atom(self) -> Node:
        tok = self._peek()
        if tok[1] == "(":
            self._next()
            node = self._expr()
            self._expect(")")
            return node
        if tok[1] == "-" or tok[0] == "int":
            return Const(AlgebraicNumber(self._rational()))
        if tok[0] != "name":
            self._error("expected an operand")
        name = self._next()[1]
        if name == "q":
            self._expect("^")
            self._expect("(")
            e = self._rational()
            self._expect(")")
            return QPow(e)
        if name == "sqrt2":
            return Const(SQRT2)
        if name in PRIMITIVES:
            self._expect("(")
            try:
                arg = getattr(self, f"_arg_{PRIMITIVES[name].kind}")()
            except ParseError:
                raise
            except ValueError as exc:  # a spec rejected its fields
                self._error(str(exc), tok)
            self._expect(")")
            return Prim(name, arg)
        handler = getattr(self, f"_atom_{name}", None)
        if handler is None:
            self._error(f"unknown function {name!r}", tok)
        return handler(tok)

    # -- atoms ----------------------------------------------------------

    def _rational(self) -> Fraction:
        neg = False
        if self._at("-"):
            self._next()
            neg = True
        num = self._int("a rational number")
        den = 1
        # '/' is a fraction bar only when an integer follows; otherwise it
        # belongs to the enclosing term as a division operator
        if self._at("/") and self.tokens[self.pos + 1][0] == "int":
            self._next()
            dtok = self._peek()
            den = self._int()
            if den == 0:
                self._error("malformed rational: zero denominator", dtok)
        r = _FR(num, den)
        return -r if neg else r

    def _int(self, what: str = "an integer") -> int:
        """The value of the next token, which must be an integer literal."""
        tok = self._peek()
        if tok[0] != "int":
            self._error(f"expected {what}")
        self._next()
        try:
            return int(tok[1])
        except ValueError:  # past the interpreter's limit on digits
            self._error(f"integer literal of {len(tok[1])} digits is too "
                        "long", tok)

    def _sign(self) -> int:
        if self._peek()[1] not in ("+", "-"):
            self._error("expected a sign (+ or -)")
        return 1 if self._next()[1] == "+" else -1

    def _theta_arg(self) -> tuple[int, Fraction]:
        sign = self._sign()
        if not self._at("q"):
            self._error("expected q^exponent in theta argument")
        self._next()
        self._expect("^")
        if self._at("("):
            self._next()
            e = self._rational()
            self._expect(")")
        else:
            e = self._rational()
        return sign, e

    def _atom_root(self, tok):
        self._expect("(")
        base = self._expr()
        self._expect(",")
        n = self._int()
        if n < 1:
            self._error("root index must be >= 1", tok)
        self._expect(")")
        return base if n == 1 else self._shallow(Pow(base, _FR(1, n)), tok)

    def _atom_subst(self, tok):
        self._expect("(")
        base = self._expr()
        self._expect(",")
        r = self._rational()
        if r <= 0:
            self._error("substitution exponent must be positive", tok)
        self._expect(")")
        return self._shallow(Subst(base, r), tok)

    # -- primitive arguments, one parser per kind ----------------------

    def _arg_r(self) -> Fraction:
        tok = self._peek()
        r = self._rational()
        if r <= 0:
            self._error("substitution exponent must be positive", tok)
        return r

    def _arg_k(self) -> int:
        tok = self._peek()
        k = self._int()
        if k not in (1, 2, 3):
            self._error("index must be 1, 2 or 3", tok)
        return k

    def _arg_poch(self) -> PochSpec:
        sign = self._sign()
        self._expect(",")
        offset = self._rational()
        self._expect(",")
        return PochSpec(sign, offset, self._rational())

    def _arg_theta(self) -> ThetaSpec:
        s1, a = self._theta_arg()
        self._expect(",")
        s2, b = self._theta_arg()
        return ThetaSpec(s1, s2, a, b)

    def _arg_lambert(self) -> LambertSpec:
        modulus = self._int()
        self._expect(",")
        residue = self._int()
        self._expect(",")
        numerators = []
        while self._peek()[1] in ("+", "-"):
            sign = self._sign()
            numerators.append((sign, self._int()))
        if not numerators:
            self._error("expected signed exponents like +1-3")
        self._expect(",")
        denom = self._int()
        weight, p = "unit", 0
        if self._at(","):
            self._next()
            wtok = self._peek()
            if wtok[0] != "name" or wtok[1] not in ("m", "legendre"):
                self._error("expected weight 'm' or 'legendre(p)'")
            self._next()
            if wtok[1] == "m":
                weight = "linear"
            else:
                weight = "legendre"
                self._expect("(")
                p = self._int()
                self._expect(")")
        return LambertSpec(modulus, residue, tuple(numerators), denom, weight, p)

    def _arg_bilateral(self) -> BilateralSpec:
        s = self._rational()
        self._expect(",")
        alpha = self._rational()
        self._expect(",")
        return BilateralSpec(s, alpha, self._rational())

    def _arg_bilateral_product(self) -> BilateralSpec:
        spec = self._arg_bilateral()
        product_families(spec)  # the product side also needs alpha + beta < s
        return spec


def parse_identity(text: str, line_offset: int = 0) -> tuple[Node, Node]:
    """Parse ``expr == expr`` into an (lhs, rhs) node pair."""
    return Parser(text, line_offset).parse_identity()


def parse_expression(text: str, line_offset: int = 0) -> Node:
    return Parser(text, line_offset).parse_expression()


def parse_identity_file(text: str) -> list[tuple[int, Node, Node]]:
    """One identity per non-blank, non-comment line; returns
    (line number, lhs, rhs) triples."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        lhs, rhs = parse_identity(line, line_offset=lineno - 1)
        out.append((lineno, lhs, rhs))
    return out


# -- rendering ---------------------------------------------------------------

_ADD, _MUL, _POW, _ATOM = 1, 2, 3, 4


def render(node: Node) -> str:
    """Textual form that reparses to a structurally equal tree."""
    return _render(node, _ADD)


def render_identity(lhs: Node, rhs: Node) -> str:
    return f"{render(lhs)} == {render(rhs)}"


def _render(node: Node, min_prec: int) -> str:
    text, prec = _render_node(node)
    return f"({text})" if prec < min_prec else text


def _sgn(s: int) -> str:
    return "+" if s > 0 else "-"


def _render_const(v: AlgebraicNumber) -> tuple[str, int]:
    a, b = v.rat, v.irr
    if b == 0:
        return str(a), _ATOM
    irr = "sqrt2" if abs(b) == 1 else f"{abs(b)}*sqrt2"
    prec = _ATOM if abs(b) == 1 else _MUL
    if a == 0 and b > 0:
        return irr, prec
    if a == 0:
        return f"0-{irr}", _ADD
    return f"{a}{'+' if b > 0 else '-'}{irr}", _ADD


def _render_lambert(s: LambertSpec) -> str:
    exps = "".join(f"{_sgn(c)}{a}" for c, a in s.numerators)
    tail = {"unit": "", "linear": ",m", "legendre": f",legendre({s.legendre_p})"}
    return f"{s.modulus},{s.residue},{exps},{s.denom_exponent}{tail[s.weight]}"


# argument kind -> (its syntax in the atom table, renderer of an argument)
_ARG_KINDS = {
    "r": ("r", str),
    "k": ("k", str),
    "poch": ("sign,a,b", lambda s: f"{_sgn(s.sign)},{s.offset},{s.step}"),
    "theta": ("sign q^a,sign q^b",
              lambda s: f"{_sgn(s.sign1)}q^{s.a},{_sgn(s.sign2)}q^{s.b}"),
    "lambert": ("s,r,+a1-a2...,b[,w]", _render_lambert),
    "bilateral": ("s,alpha,beta", lambda s: f"{s.base},{s.x_exp},{s.z_exp}"),
}
_ARG_KINDS["bilateral_product"] = _ARG_KINDS["bilateral"]


def atom_table() -> str:
    """The primitive atoms as a Markdown table: name, argument, meaning."""
    rows = ["| atom | argument | meaning |", "|---|---|---|"]
    for name, prim in PRIMITIVES.items():
        rows.append(f"| `{name}` | `{_ARG_KINDS[prim.kind][0]}` | {prim.meaning} |")
    return "\n".join(rows)


def _render_node(node: Node) -> tuple[str, int]:
    if isinstance(node, Prim):
        arg = _ARG_KINDS[PRIMITIVES[node.name].kind][1](node.arg)
        return f"{node.name}({arg})", _ATOM
    if isinstance(node, Add):
        return f"{_render(node.left, _ADD)} + {_render(node.right, _MUL)}", _ADD
    if isinstance(node, Sub):
        return f"{_render(node.left, _ADD)} - {_render(node.right, _MUL)}", _ADD
    if isinstance(node, Mul) and isinstance(node.right, Pow) and node.right.r == -1:
        right = _render(node.right.base, _POW)
        if right[0].isdigit():
            # after "x*3" a bare "/4" would reparse as the rational 3/4
            right = f"({right})"
        return f"{_render(node.left, _MUL)}/{right}", _MUL
    if isinstance(node, Mul):
        return f"{_render(node.left, _MUL)}*{_render(node.right, _POW)}", _MUL
    if isinstance(node, Pow):
        return f"{_render(node.base, _ATOM)}^({node.r})", _POW
    if isinstance(node, QPow):
        return f"q^({node.exponent})", _ATOM
    if isinstance(node, Const):
        return _render_const(node.value)
    if isinstance(node, Subst):
        return f"subst({render(node.base)},{node.r})", _ATOM
    raise TypeError(f"cannot render {type(node).__name__}")

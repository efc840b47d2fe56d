"""DSL grammar, error reporting, and render round-trips."""

import pathlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qident.blocks import PochSpec, ThetaSpec
from qident.catalog import catalog
import qident.dsl
from qident.dsl import (
    MAX_NESTING,
    MAX_TREE_DEPTH,
    ParseError,
    atom_table,
    parse_expression,
    parse_identity,
    parse_identity_file,
    render,
    render_identity,
)
from qident.expr import (
    PRIMITIVES, Add, Const, Mul, Pow, Prim, QPow, Sub, Subst,
    evaluate_to_order,
)
from qident.field import AlgebraicNumber as A
from qident.lambert import BilateralSpec, LambertSpec
from qident.verify import Identity, verify, verify_many


class TestGrammar:
    def test_prod_quotient_identity(self):
        lhs, rhs = parse_identity(
            "eta(8)/eta(2) * q^(-1/4) == poch(-,8,8)/poch(-,2,2)"
        )
        assert lhs == Mul(
            Mul(Prim("eta", F(8)), Pow(Prim("eta", F(2)), F(-1))), QPow(F(-1, 4))
        )
        assert rhs == Mul(
            Prim("poch", PochSpec(-1, 8, 8)),
            Pow(Prim("poch", PochSpec(-1, 2, 2)), F(-1)),
        )

    def test_root_atom(self):
        assert parse_expression("root(I(1),4)") == Pow(Prim("I", F(1)), F(1, 4))

    def test_power_lowering(self):
        assert parse_expression("G1(1)^(2)") == Pow(Prim("G1", F(1)), F(2))
        assert parse_expression("H(1)^(1/2)") == Pow(Prim("H", F(1)), F(1, 2))
        assert parse_expression("eta(2)^(3/4)") == Pow(Prim("eta", F(2)), F(3, 4))
        assert parse_expression("eta(2)^(-3/4)") == Pow(Prim("eta", F(2)), F(-3, 4))

    def test_theta_arguments(self):
        node = parse_expression("f(-q^2,-q^14)")
        assert node == Prim("f", ThetaSpec(-1, -1, 2, 14))
        assert parse_expression("fsum(+q^1/2,-q^7/2)") == Prim(
            "fsum", ThetaSpec(1, -1, F(1, 2), F(7, 2))
        )
        # parenthesized exponents tolerated
        assert parse_expression("f(-q^(2),-q^(14))") == Prim(
            "f", ThetaSpec(-1, -1, 2, 14)
        )

    def test_substitution_atoms(self):
        assert parse_expression("phi(2)") == Prim("phi", F(2))
        assert parse_expression("psi(1/2)") == Prim("psi", F(1, 2))
        assert parse_expression("H(2)") == Prim("H", F(2))
        assert parse_expression("G3(1/2)") == Prim("G3", F(1, 2))
        assert parse_expression("T1N(2)") == Prim("T1N", 2)
        assert parse_expression("btable(3)") == Prim("btable", 3)
        assert parse_expression("subst(G1(1),1/2)") == Subst(Prim("G1", F(1)), F(1, 2))

    def test_lambert_atoms(self):
        node = parse_expression("lambert(2,1,+1+3-5-7,8)")
        assert node == Prim(
            "lambert", LambertSpec(2, 1, ((1, 1), (1, 3), (-1, 5), (-1, 7)), 8)
        )
        assert parse_expression("lambert(1,0,+1,8,m)") == Prim(
            "lambert", LambertSpec(1, 0, ((1, 1),), 8, "linear")
        )
        assert parse_expression("lambert(1,0,+1,8,legendre(3))") == Prim(
            "lambert", LambertSpec(1, 0, ((1, 1),), 8, "legendre", 3)
        )

    def test_psi11_atoms(self):
        assert parse_expression("psi11lhs(16,8,2)") == Prim(
            "psi11lhs", BilateralSpec(16, 8, 2)
        )
        assert parse_expression("psi11rhs(16,8,6)") == Prim(
            "psi11rhs", BilateralSpec(16, 8, 6)
        )

    def test_constant_folding(self):
        assert parse_expression("2*sqrt2") == Const(A(0, 2))
        assert parse_expression("1+sqrt2") == Const(A(1, 1))
        assert parse_expression("1-sqrt2") == Const(A(1, -1))
        assert parse_expression("(3/2)*(1/3)") == Const(A(F(1, 2)))
        assert parse_expression("1/sqrt2") == Const(A(0, F(1, 2)))
        assert parse_expression("sqrt2^(2)") == Const(A(2))

    def test_division_not_confused_with_fraction_bar(self):
        assert parse_expression("1/H(1)") == Mul(
            Const(A(1)), Pow(Prim("H", F(1)), F(-1))
        )
        assert parse_expression("1/2") == Const(A(F(1, 2)))

    def test_associativity_shape(self):
        node = parse_expression("G1(1) - G3(1) - G2(1)")
        assert node == Sub(Sub(Prim("G1", F(1)), Prim("G3", F(1))), Prim("G2", F(1)))

    def test_whitespace_and_comments(self):
        a = parse_identity("T1N(1)==poch(-,1,1)*G1(1)")
        b = parse_identity("  T1N( 1 )  ==  poch( - , 1 , 1 ) * G1(1) # note")
        assert a == b


class TestErrors:
    def test_truncated_input_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("eta(8)/")
        assert err.value.line == 1
        assert err.value.column == 7  # anchored at the dangling operator

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function 'foo'"):
            parse_expression("foo(1)")

    def test_malformed_rational(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_expression("q^(1/0)")

    def test_missing_equals(self):
        with pytest.raises(ParseError, match="expected '=='"):
            parse_identity("eta(8) = eta(2)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_expression("eta(8) eta(2)")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_expression("eta(8) @ 2")

    def test_bad_spec_reported_with_position(self):
        with pytest.raises(ParseError, match="positive"):
            parse_expression("poch(-,0,1)")
        with pytest.raises(ParseError, match="odd prime"):
            parse_expression("lambert(1,0,+1,8,legendre(4))")

    @pytest.mark.parametrize(
        "text, column",
        [("psi11rhs(4,3,3)", 1),  # alpha + beta > s
         ("psi11lhs(5,2,3) - 2*psi11rhs(5,2,3)", 21)],  # alpha + beta = s
    )
    def test_product_side_outside_its_window(self, text, column):
        with pytest.raises(ParseError, match="needs alpha \\+ beta < s") as err:
            parse_expression(text)
        assert (err.value.line, err.value.column) == (1, column)

    @pytest.mark.parametrize("text, message, column", [
        ("eta(1", "expected ')' (input ended)", 5),
        ("eta(1) eta(2)", "unexpected trailing input 'eta'", 8),
        ("q^(x)", "expected a rational number", 4),
        ("f(q^1,+q^2)", "expected a sign (+ or -)", 3),
        ("f(+x,+q^2)", "expected q^exponent in theta argument", 4),
        ("root(eta(1),0)", "root index must be >= 1", 1),
        ("subst(eta(1),-1)", "substitution exponent must be positive", 1),
        ("eta(-1)", "substitution exponent must be positive", 5),
        ("T1N(4)", "index must be 1, 2 or 3", 5),
        ("lambert(2,1,8)", "expected signed exponents like +1-3", 13),
        ("lambert(2,1,+1,8,w)", "expected weight 'm' or 'legendre(p)'", 18),
    ])
    def test_malformed_argument_placed(self, text, message, column):
        with pytest.raises(ParseError) as err:
            parse_expression(text)
        assert (err.value.reason, err.value.line, err.value.column) == (message, 1, column)

    def test_constant_division_by_zero(self):
        # a literal "1/0" is caught earlier as a malformed rational; the
        # fold path needs the zero to arrive as its own constant
        with pytest.raises(ParseError, match="division by zero"):
            parse_expression("1/(2-2)")
        with pytest.raises(ParseError, match="zero denominator"):
            parse_expression("1/0")

    def test_constant_zero_to_negative_power(self):
        with pytest.raises(ParseError, match="division by zero") as err:
            parse_expression("0^(-1)")
        assert (err.value.line, err.value.column) == (1, 2)
        with pytest.raises(ParseError, match="division by zero"):
            parse_expression("(2-2)^(-3)")
        assert parse_expression("(2-2)^(3)") == Const(A(0))


# Deep inputs, by the depth they reach: parentheses around an atom nest
# the parser only; a sum, a right-nested difference and nested substitutions
# nest the tree too (a leaf is one level).
DEEP = {
    "parens": (MAX_NESTING, lambda n: "(" * n + "phi(1)" + ")" * n),
    "sum": (MAX_TREE_DEPTH, lambda n: "+".join(["q^(1)"] * n)),
    "difference": (MAX_TREE_DEPTH,
                   lambda n: "q^(1)-(" * (n - 1) + "q^(1)" + ")" * (n - 1)),
    "subst": (MAX_TREE_DEPTH, lambda n: "subst(" * (n - 1) + "phi(1)" + ",1)" * (n - 1)),
}


class TestDepthCaps:
    @pytest.mark.parametrize("shape", DEEP)
    def test_everything_works_at_the_cap(self, shape):
        cap, text = DEEP[shape]
        node = parse_expression(text(cap))
        node.hint()
        idy = Identity("deep", node, node, F(3))
        assert evaluate_to_order(node, 3).trunc == 3
        assert verify_many([idy])[0].ok() and verify(idy).ok()
        assert parse_expression(render(node)) == node

    @pytest.mark.parametrize("shape", DEEP)
    def test_one_past_the_cap_is_a_parse_error(self, shape):
        cap, text = DEEP[shape]
        with pytest.raises(ParseError, match=f"more than {cap}") as err:
            parse_expression(text(cap + 1))
        assert err.value.line == 1

    def test_positions(self):
        with pytest.raises(ParseError) as err:
            parse_expression(DEEP["parens"][1](MAX_NESTING + 1))
        assert err.value.column == MAX_NESTING + 1  # the innermost "("
        with pytest.raises(ParseError) as err:
            parse_expression(DEEP["sum"][1](MAX_TREE_DEPTH + 1))
        assert err.value.column == 6 * MAX_TREE_DEPTH  # the last "+"


class TestFileParsing:
    def test_multiple_lines_with_comments(self):
        text = (
            "# header comment\n"
            "\n"
            "T1N(1) == poch(-,1,1)*G1(1)\n"
            "phi(1) == fsum(+q^1,+q^1)  # trailing\n"
        )
        parsed = parse_identity_file(text)
        assert [line for line, _, _ in parsed] == [3, 4]

    def test_error_carries_file_line(self):
        text = "T1N(1) == poch(-,1,1)*G1(1)\n\nG1(1) == eta(8)/\n"
        with pytest.raises(ParseError) as err:
            parse_identity_file(text)
        assert err.value.line == 3


class TestRoundTrip:
    @pytest.mark.parametrize("idy", catalog(), ids=lambda idy: idy.id)
    def test_catalog_entries(self, idy):
        text = render_identity(idy.lhs, idy.rhs)
        lhs, rhs = parse_identity(text)
        assert lhs == idy.lhs
        assert rhs == idy.rhs

    @pytest.mark.parametrize(
        "text",
        [
            "q^(-3/32)",
            "0-sqrt2",
            "1-3/4*sqrt2",
            "subst(G1(1)*G3(1),1/2)",
            "root(H(1)/q^(1/2),2)",
            "lambert(8,7,+7-3,8)",
            "psi11rhs(16,8,6)",
            "eta(1)^(-1)",
            "f(-q^1/2,-q^7/2)",
            "2 - (3 - G1(1))",
            "G1(1)/(G2(1)/G3(1))",
            "root(G1(1),4)^(2)",
            "root(G1(1),4)^(4)",
            "G1(1)*3/(4)",
            "G1(1)/3/(4)",
            "(G1(1)^(1/4))^(2)",
            "eta(2)^(-3/4)",
        ],
    )
    def test_assorted_expressions(self, text):
        node = parse_expression(text)
        assert parse_expression(render(node)) == node


class TestPowPadding:
    """Pow pads its base to order + (1 - r) * hint(base) for every rational r."""

    @pytest.mark.parametrize("r", ["-2", "-3/4", "-1/2", "1/4", "3/4", "3/2", "2"])
    @pytest.mark.parametrize(
        "base", ["eta(2)", "H(1)", "I(1)", "G1(1/2)", "phi(1)", "f(-q^1,-q^3)"]
    )
    def test_first_pass_reaches_the_order(self, base, r):
        node = parse_expression(f"{base}^({r})")
        assert isinstance(node, Pow) and node.r == F(r)
        order = 10
        first = node.evaluate(order)  # no padded retry
        assert first.trunc >= order
        assert first.truncated(order) == node.evaluate(order + 3).truncated(order)


# argument texts for each argument kind of the primitive registry
ARG_SAMPLES = {
    "r": ("1/2", "3"),
    "k": ("1", "2", "3"),
    "poch": ("-,1/2,3/2", "+,1,2"),
    "theta": ("-q^1/2,+q^3/2", "+q^1,+q^3"),
    "lambert": ("4,1,+1-3,8,m", "5,2,+1,1,legendre(5)"),
    "bilateral": ("16,8,2", "5,1,3"),
    "bilateral_product": ("16,8,2", "5,1,3"),
}


class TestPrimitives:
    @pytest.mark.parametrize("name", PRIMITIVES)
    def test_parse_render_evaluate_hint(self, name):
        for arg in ARG_SAMPLES[PRIMITIVES[name].kind]:
            node = parse_expression(f"{name}({arg})")
            assert isinstance(node, Prim) and node.name == name
            assert parse_expression(render(node)) == node
            series = evaluate_to_order(node, 8)
            assert series.trunc >= 8
            if series:
                assert node.hint() == series.leading()[0], arg

    @pytest.mark.parametrize("name", [n for n in PRIMITIVES if n != "btable"])
    @pytest.mark.parametrize("order", [0, -5])
    def test_order_at_most_zero_is_the_zero_series(self, name, order):
        # btable is an exact polynomial, known at every order
        for arg in ARG_SAMPLES[PRIMITIVES[name].kind]:
            series = parse_expression(f"{name}({arg})").evaluate(order)
            assert not series, arg
            assert series.trunc == order, arg

    def test_atom_table_is_documented(self):
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        assert atom_table() in qident.dsl.__doc__
        assert atom_table() in readme.read_text(encoding="utf-8")


def oracle_tokenize(text, line_offset=0):
    """The tokenizer as a loop of anchored matches, one position at a
    time, kept as the reference for the one-scan `_tokenize`."""
    tokens = []
    line = 1 + line_offset
    col = 1
    pos = 0
    while pos < len(text):
        m = qident.dsl._TOKEN_RE.match(text, pos)
        if m is None or m.lastgroup == "bad":
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


def _tokens_or_error(tokenize, text, line_offset):
    try:
        return [tuple(t) if isinstance(t, tuple) else (t.kind, t.text, t.line, t.col)
                for t in tokenize(text, line_offset)]
    except ParseError as err:
        return ("error", err.line, err.column, err.reason)


# pieces of DSL text and of what is not: newlines, tabs, carriage returns
# and other whitespace, comments, stray ASCII and non-ASCII characters (a
# Unicode digit is a digit to the pattern)
TOKEN_PIECES = st.sampled_from(
    ["eta", "q", "sqrt2", "f", "G1", "x9", "12", "0", "٣", "+", "-", "*",
     "/", "^", "(", ")", ",", "=", "==", " ", "  ", "\t", "\n", "\n\n", " \n\t",
     "\r\n", "\x0c", " ", "# note", "#", "# a\n", "@", "$", "é", ";",
     ".", "!"])


class TestTokenizer:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(TOKEN_PIECES, max_size=40).map("".join) | st.text(max_size=40),
           st.integers(0, 60))
    def test_one_scan_matches_the_loop(self, text, line_offset):
        assert (_tokens_or_error(qident.dsl._tokenize, text, line_offset)
                == _tokens_or_error(oracle_tokenize, text, line_offset))

    def test_the_catalog_text_tokenizes_as_the_loop_does(self):
        text = "\n".join(f"{render(idy.lhs)} == {render(idy.rhs)}  # {idy.id}"
                         for idy in catalog())
        assert (_tokens_or_error(qident.dsl._tokenize, text, 3)
                == _tokens_or_error(oracle_tokenize, text, 3))

    @pytest.mark.parametrize("text, line, column", [
        ("eta(8) @ 2", 1, 8),
        ("phi(1)\n\t  $", 2, 4),
        ("# c\n\n  eta(1)é", 3, 9),
    ])
    def test_a_stray_character_is_placed(self, text, line, column):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_expression(text)
        assert (err.value.line, err.value.column) == (line, column)


X, Y = QPow(F(1)), Prim("eta", F(2))


class TestRecords:
    def test_nodes_compare_by_class_and_fields(self):
        assert Mul(X, Y) == Mul(QPow(F(1)), Prim("eta", F(2)))
        assert hash(Mul(X, Y)) == hash(Mul(QPow(F(1)), Prim("eta", F(2))))
        assert Add(X, Y) != Sub(X, Y) and Sub(X, Y) != Add(X, Y)
        assert Mul(X, Y) != Mul(Y, X)
        assert Pow(X, F(2)) != Subst(X, F(2))
        assert Mul(X, Y) != (X, Y) and (X, Y) != Mul(X, Y)
        assert len({Add(X, Y), Sub(X, Y), Add(X, Y)}) == 2

    def test_specs_normalize_their_fields(self):
        spec = PochSpec(-1, 1, 1)
        assert spec == PochSpec(-1, F(1), F(1))
        assert hash(spec) == hash(PochSpec(-1, F(1), F(1)))
        assert type(spec.offset) is F and type(ThetaSpec(1, 1, 2, 3).b) is F
        assert LambertSpec(2, 1, [[1, 1]], 8).numerators == ((1, 1),)
        assert BilateralSpec(2, 1, 1) == BilateralSpec(F(2), F(1), F(1))

    @pytest.mark.parametrize("spec, fields", [
        (PochSpec(-1, 1, 1), (-1, F(1), F(1))),
        (ThetaSpec(1, -1, 1, 2), (1, -1, F(1), F(2))),
        (BilateralSpec(2, 1, 1), (F(2), F(1), F(1))),
        (LambertSpec(2, 1, ((1, 1),), 8), (2, 1, ((1, 1),), 8, "unit", 0)),
    ])
    def test_a_spec_never_equals_a_plain_tuple(self, spec, fields):
        assert spec != fields and fields != spec
        assert not spec == fields

    @pytest.mark.parametrize("record, field", [
        (Add(X, Y), "left"), (QPow(F(1)), "exponent"), (Prim("eta", F(1)), "arg"),
        (PochSpec(-1, 1, 1), "sign"), (ThetaSpec(1, 1, 1, 1), "a"),
        (BilateralSpec(2, 1, 1), "base"), (LambertSpec(2, 1, ((1, 1),), 8), "weight"),
    ])
    def test_fields_cannot_be_assigned(self, record, field):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == before

    @pytest.mark.parametrize("make, message", [
        (lambda: PochSpec(0, 1, 1), "sign must be +1 or -1"),
        (lambda: PochSpec(1, 0, 1), "offset and step must be positive"),
        (lambda: PochSpec(1, 1, F(-1, 2)), "offset and step must be positive"),
        (lambda: ThetaSpec(1, 2, 1, 1), "signs must be +1 or -1"),
        (lambda: ThetaSpec(1, 1, 1, 0), "theta arguments need positive exponents"),
        (lambda: LambertSpec(0, 0, ((1, 1),), 1),
         "need modulus >= 1 and 0 <= residue < modulus"),
        (lambda: LambertSpec(2, 2, ((1, 1),), 1),
         "need modulus >= 1 and 0 <= residue < modulus"),
        (lambda: LambertSpec(2, 1, ((1, 1),), 0), "denominator exponent must be positive"),
        (lambda: LambertSpec(2, 1, ((2, 1),), 1),
         "numerators must be (+-1, positive exponent)"),
        (lambda: LambertSpec(2, 1, ((1, 1),), 1, "square"), "unknown weight 'square'"),
        (lambda: LambertSpec(2, 1, ((1, 1),), 1, "legendre", 9),
         "legendre(p) needs an odd prime p below"),
        (lambda: BilateralSpec(2, 2, 1), "need 0 < x exponent < base exponent"),
        (lambda: BilateralSpec(2, 1, 0), "need 0 < z exponent < base exponent"),
    ])
    def test_bad_fields_keep_their_messages(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value).startswith(message)

    def test_repr_names_the_fields(self):
        assert repr(PochSpec(-1, 1, 2)) == (
            "PochSpec(sign=-1, offset=Fraction(1, 1), step=Fraction(2, 1))")
        assert repr(Pow(QPow(F(1, 2)), F(-1))) == (
            "Pow(base=QPow(exponent=Fraction(1, 2)), r=Fraction(-1, 1))")

    def test_records_pickle_and_copy(self):
        import copy
        import pickle

        node = parse_expression("eta(8)/poch(-,2,2) + lambert(4,1,+1,2)")
        for record in (node, PochSpec(-1, 1, 2), LambertSpec(2, 1, ((1, 1),), 8)):
            assert pickle.loads(pickle.dumps(record)) == record
            assert copy.deepcopy(record) == record

"""Grammar tests: precedence, rationals, errors, and print/parse round-trips."""

import random
from fractions import Fraction as Q
from importlib import resources

import pytest

from conftest import (
    PAPER_PRINTS, PAPER_SECTIONS, paper_print, random_expr,
)
from fracsym.cases import parse_printed_form
from fracsym.expr import (
    fderiv, func, gammaf, mul, num, pow_, sym, to_text, MINUS_ONE,
)
from fracsym.parser import ParseError, parse_expression as parse

x, t, u, r = sym("x"), sym("t"), sym("u"), sym("r")
alpha, b, k = sym("alpha"), sym("b"), sym("k")


class TestGrammar:
    def test_power_coefficient(self):
        assert parse("k*t^b") == mul(k, pow_(t, b))

    def test_fdiff_node(self):
        assert parse("fdiff(h, r, 1/2)") == fderiv(sym("h"), r, num(Q(1, 2)))
        assert parse("fdiff(h(r), r, alpha)") \
            == fderiv(func("h", (r,)), r, alpha)

    def test_rational_literal_is_exact(self):
        e = parse("3/4")
        assert e == num(Q(3, 4))

    def test_precedence_right_assoc_power(self):
        assert parse("2^3^2") == num(512)

    def test_unary_minus_binds_tighter_than_mul(self):
        assert parse("-x*y") == mul(MINUS_ONE, x, sym("y"))

    def test_unary_minus_looser_than_power(self):
        assert parse("-x^2") == mul(MINUS_ONE, pow_(x, 2))

    def test_diff_applied_eagerly(self):
        assert parse("diff(t^3, t, 1)") == mul(3, pow_(t, 2))
        assert parse("diff(h(r), r, 2)") == func("h", (r,), order=2)

    def test_gamma(self):
        assert parse("Gamma(1/2)") == gammaf(Q(1, 2))
        assert parse("Gamma(5)") == num(24)

    def test_function_application(self):
        assert parse("exp(b*t)") == func("exp", (mul(b, t),))


# one input per raise site of the parser: its message and its column
ERROR_PINS = [
    ("1.5*x", "decimal literals are not allowed in symbolic expressions",
     2),
    ("x + $", "unexpected character '$'", 5),
    ("(x + t", "expected ')', found 'end of input'", 7),
    ("exp(x t)", "expected ')', found 't'", 7),
    ("exp(x, t]", "unexpected character ']'", 9),
    ("exp x", "unexpected 'x'", 5),
    ("x + 1 2", "unexpected '2'", 7),
    ("t^^2", "unexpected '^'", 3),
    ("x +", "unexpected 'end of input'", 4),
    ("2*frobnicate(x)", "unknown function 'frobnicate'", 3),
    ("1 + Gamma(1, 2)", "Gamma takes one argument", 5),
    ("t*diff(h(r), r)", "diff takes (expr, var, order)", 3),
    ("t*diff(h(r), 3, 1)", "diff variable must be a symbol", 3),
    ("t*diff(h(r), r, 0)", "diff order must be a positive integer", 3),
    ("t*diff(h(r), r, 1/2)", "diff order must be a positive integer", 3),
    ("x - fdiff(h(r), r)", "fdiff takes (expr, var, alpha)", 5),
    ("x - fdiff(h(r), 2*r, alpha)", "fdiff variable must be a symbol", 5),
    # a number starts with a decimal digit, not with any digit
    ("²", "unexpected character '²'", 1),
    ("x + 1²", "unexpected character '²'", 6),
    # the nesting bound: the level past it is named by its opener
    ("(" * 101 + "x" + ")" * 101, "nested deeper than 100 levels", 101),
    ("-" * 101 + "x", "nested deeper than 100 levels", 101),
    ("x" + "^x" * 101, "nested deeper than 100 levels", 202),
    ("h(" * 101 + "x" + ")" * 101, "nested deeper than 100 levels", 202),
    ("(" * 1000 + "t" + ")" * 1000, "nested deeper than 100 levels",
     101),
]


class TestErrors:
    def test_double_caret_position(self):
        with pytest.raises(ParseError) as err:
            parse("t^^2")
        assert "column 3" in str(err.value)

    def test_decimal_rejected(self):
        with pytest.raises(ParseError):
            parse("1.5*x")

    def test_unknown_function_rejected(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("frobnicate(x)")

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse("x +")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(x + t")

    def test_bad_diff_arguments(self):
        with pytest.raises(ParseError):
            parse("diff(h(r), 3, 1)")
        with pytest.raises(ParseError):
            parse("diff(h(r), r, 0)")

    @pytest.mark.parametrize("src, message, column", ERROR_PINS,
                             ids=[src[:16] for src, _, _ in ERROR_PINS])
    def test_message_and_column(self, src, message, column):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert str(err.value) == f"{message} (column {column})"
        assert err.value.column == column

    def test_other_decimal_digits_read_as_numbers(self):
        assert parse("٣*x") == mul(3, x)
        assert parse("x²") == sym("x²")

    @pytest.mark.parametrize("src, want", [
        ("(" * 100 + "x" + ")" * 100, x),
        ("-" * 100 + "x", x),
        ("h(" * 100 + "x" + ")" * 100, None),
        ("-(" * 50 + "x" + ")" * 50, x),
    ])
    def test_the_deepest_nesting_parses(self, src, want):
        e = parse(src)
        assert want is None or e == want


# every expression string printed in the engine's own catalog/reports
SPEC_CORPUS = [
    "k*t^b", "k", "k*exp(b*t)", "k*(t-b)^(2/3)", "k*(t^2-b)^(1/3)",
    "fdiff(h(r), r, alpha)", "fdiff(h(r), r, 1/2)", "fdiff(h(r), r, 1/3)",
    "fdiff(u, t, alpha)", "t*x^(1/(alpha-b))", "u*x^((b-2*alpha)/(alpha-b))",
    "t*x^(1/alpha)", "u*x^(-2)", "t*x^2", "t*x^3",
    "t*x^(2/(1-2*b))", "u*x^((2*b-2)/(1-2*b))",
    "t*x^(3/(1-3*b))", "u*x^((3*b-2)/(1-3*b))",
    "-t", "(alpha-b)*x", "(2*alpha-b)*u", "alpha*x", "2*alpha*u",
    "(2*b-1)*x", "2*t", "2*(b-1)*u", "x", "-2*t", "2*u",
    "(3*b-1)*x", "3*t", "(3*b-2)*u", "-3*t",
    "2*u*u_x", "6*u_x^3 + 18*u*u_x*u_xx + 3*u^2*u_xxx",
    "t^(alpha-1)/Gamma(alpha)", "2*t^(-2/3)/Gamma(1/3)",
    "120*k*alpha^3*h(r)^3", "4*alpha^3*h(r)^2",
    "diff(h(r), r, 1)", "diff(h(r), r, 3)",
    "alpha^3*fdiff(h(r),r,alpha) + 2*alpha^2*r*h(r)*diff(h(r),r,1)",
    "x^(-2)", "1/(alpha-b)", "-1/2", "0", "1",
]


class TestRoundTrip:
    def test_spec_corpus(self):
        for src in SPEC_CORPUS:
            e = parse(src)
            assert parse(to_text(e)) == e, src

    def test_random_corpus_of_200(self):
        rng = random.Random(4242)
        count = 0
        while count < 200:
            e = random_expr(rng, depth=4)
            text = to_text(e)
            assert parse(text) == e, text
            count += 1

    def test_stored_reduced_forms_round_trip(self):
        runtime = sorted(p for p in resources.files(
            "fracsym.data.reduced_forms").iterdir() if p.name.endswith(".txt"))
        assert [p.name for p in runtime] == ["case_1.txt", "case_2_1.txt"]
        prints = sorted(PAPER_PRINTS.glob("*.txt"))
        assert len(prints) == len(PAPER_SECTIONS) == 6
        forms = {p.name: parse_printed_form(p.read_text()) for p in runtime}
        forms.update((section, paper_print(section))
                     for section in PAPER_SECTIONS)
        for name, e in forms.items():
            assert parse(to_text(e)) == e, name


class TestBindings:
    def test_bound_identifier_parses_as_its_value(self):
        half = num(Q(1, 2))
        got = parse("k*t^alpha + alpha", {"alpha": half, "k": num(3)})
        assert got == parse("3*t^(1/2) + 1/2")

    def test_heads_and_derivative_variables_stay_unbound(self):
        half = num(Q(1, 2))
        got = parse("fdiff(h(r), r, alpha) + diff(h(r), r, 1)",
                    {"h": x, "r": x, "alpha": half})
        assert got == parse("fdiff(h(x), r, 1/2) + diff(h(x), r, 1)")

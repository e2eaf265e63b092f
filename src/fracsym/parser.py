"""Expression grammar parser.

Grammar
-------
::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := INT | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

``^`` binds tightest, then unary minus, then ``*``/``/``, then ``+``/``-``.
Integer literals only; ``p/q`` therefore folds to an exact rational through
ordinary division, and bare decimals are a syntax error (numeric values
belong in CLI flags, not in symbolic sources).

Recognized function heads: ``diff(e, v, k)`` (integer derivative, applied
eagerly), ``fdiff(e, v, a)`` (Riemann-Liouville derivative node),
``Gamma(e)``, and the opaque/analytic names in :data:`KNOWN_FUNCTIONS`.
Unknown names followed by ``(`` are rejected with a position.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .calculus import diff
from .expr import (
    Expr, Sym, MINUS_ONE, ExprError,
    add, mul, pow_, num, sym, func, gammaf, fderiv,
)

__all__ = ["ParseError", "parse_expression", "KNOWN_FUNCTIONS"]

KNOWN_FUNCTIONS = frozenset({"h", "g", "exp", "sin", "cos", "log"})
_SPECIAL_HEADS = frozenset({"diff", "fdiff", "Gamma"})


class ParseError(ExprError):
    """Syntax error with 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int' | 'ident' | 'op' | 'end'
    text: str
    column: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                raise ParseError("decimal literals are not allowed in "
                                 "symbolic expressions", j + 1)
            tokens.append(_Token("int", src[i:j], col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], col))
            i = j
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token("op", ch, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", col)
    tokens.append(_Token("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], bindings: Mapping[str, Expr]):
        self.tokens = tokens
        self.pos = 0
        self.bindings = bindings

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.column)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.column)
        return e

    def expr(self) -> Expr:
        left = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                right = self.term()
                if tok.text == "-":
                    right = mul(MINUS_ONE, right)
                left = add(left, right)
            else:
                return left

    def term(self) -> Expr:
        left = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                right = self.unary()
                if tok.text == "/":
                    right = pow_(right, MINUS_ONE)
                left = mul(left, right)
            else:
                return left

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return mul(MINUS_ONE, self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return pow_(base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "int":
            return num(int(tok.text))
        if tok.kind == "op" and tok.text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if tok.kind == "ident":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                return self.call(tok)
            bound = self.bindings.get(tok.text)
            return sym(tok.text) if bound is None else bound
        raise ParseError(
            f"unexpected {tok.text or 'end of input'!r}", tok.column)

    def call(self, head: _Token) -> Expr:
        name = head.text
        if name not in KNOWN_FUNCTIONS and name not in _SPECIAL_HEADS:
            raise ParseError(f"unknown function {name!r}", head.column)
        self.expect_op("(")
        args = [self.expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            if name in ("diff", "fdiff") and len(args) == 1:
                # a derivative's variable is never bound
                bindings, self.bindings = self.bindings, {}
                args.append(self.expr())
                self.bindings = bindings
            else:
                args.append(self.expr())
        self.expect_op(")")

        if name == "Gamma":
            if len(args) != 1:
                raise ParseError("Gamma takes one argument", head.column)
            return gammaf(args[0])
        if name == "diff":
            if len(args) != 3:
                raise ParseError("diff takes (expr, var, order)", head.column)
            e, v, k = args
            if not isinstance(v, Sym):
                raise ParseError("diff variable must be a symbol", head.column)
            from .expr import Num
            if not (isinstance(k, Num) and k.c.denominator == 1
                    and k.c >= 1):
                raise ParseError("diff order must be a positive integer",
                                 head.column)
            return diff(e, v, int(k.c))
        if name == "fdiff":
            if len(args) != 3:
                raise ParseError("fdiff takes (expr, var, alpha)", head.column)
            e, v, a = args
            if not isinstance(v, Sym):
                raise ParseError("fdiff variable must be a symbol",
                                 head.column)
            return fderiv(e, v, a)
        return func(name, args)


def parse_expression(src: str,
                     bindings: Mapping[str, Expr] | None = None) -> Expr:
    """Parse a source string into a canonical expression.

    An identifier named in ``bindings`` parses as its bound value, except as
    a function head or the variable of ``diff``/``fdiff``; the values enter
    while the expression is built instead of by a substitution after it."""
    return _Parser(_tokenize(src), bindings or {}).parse()

"""Expression grammar parser.

Grammar
-------
::

    expr    := unary (('+' | '-' | '*' | '/') unary)*   # left-associative
    unary   := '-' unary | atom ('^' unary)?          # '^' right-associative
    atom    := INT | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

``^`` binds tightest, then unary minus, then ``*``/``/``, then ``+``/``-``.
Integer literals only, each starting with a decimal digit; ``p/q``
therefore folds to an exact rational through ordinary division, and bare
decimals are a syntax error (numeric values belong in CLI flags, not in
symbolic sources).

Recognized function heads: ``diff(e, v, k)`` (integer derivative, applied
eagerly), ``fdiff(e, v, a)`` (Riemann-Liouville derivative node),
``Gamma(e)``, and the opaque/analytic names in :data:`KNOWN_FUNCTIONS`.
Unknown names followed by ``(`` are rejected with a position, and so is
nesting deeper than :data:`MAX_DEPTH` levels.
"""

from __future__ import annotations

import re
from collections.abc import Mapping

from .calculus import diff
from .expr import (
    Expr, Num, Sym, MINUS_ONE, ExprError,
    add, mul, pow_, num, sym, func, gammaf, fderiv,
)

__all__ = ["ParseError", "parse_expression", "KNOWN_FUNCTIONS"]

KNOWN_FUNCTIONS = frozenset({"h", "g", "exp", "sin", "cos", "log"})
# the special heads: the number of arguments of each, and its signature
_SIGNATURES = {"Gamma": (1, "Gamma takes one argument"),
               "diff": (3, "diff takes (expr, var, order)"),
               "fdiff": (3, "fdiff takes (expr, var, alpha)")}
# binary operators by precedence; each level is left-associative
_PRECEDENCE = {"+": 0, "-": 0, "*": 1, "/": 1}
# A level is an open parenthesis or argument list, a unary minus or a '^'.
# The parser and every walk of its tree recurse per level; a fixed bound,
# unlike a caught RecursionError, gives an input one answer in any caller.
MAX_DEPTH = 100
# an integer, a word or any one other character
_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|(\S))")
_KINDS = (None, "int", "ident", "op")


class ParseError(ExprError):
    """Syntax error with 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """``(kind, text, column)`` tokens, closed by an 'end' token."""
    tokens = []
    for m in _TOKEN.finditer(src):
        i = m.lastindex
        kind, text, column = _KINDS[i], m[i], m.start(i) + 1
        if kind == "int" and src.startswith(".", m.end()):
            raise ParseError("decimal literals are not allowed in "
                             "symbolic expressions", m.end() + 1)
        if kind != "int" and not (text[0] in "+-*/^(),_"
                                  or text[0].isalpha()):
            raise ParseError(f"unexpected character {text[0]!r}", column)
        tokens.append((kind, text, column))
    tokens.append(("end", "", len(src) + 1))
    return tokens


class _Parser:
    def __init__(self, src: str, bindings: Mapping[str, Expr]):
        self.tokens = _tokenize(src)
        self.pos = self.depth = 0
        self.bindings = bindings

    def take(self, ops: str | None = None) -> tuple[str, str, int] | None:
        """Consume the next token, or with ``ops`` only an operator in it."""
        tok = self.tokens[self.pos]
        if ops is not None and (tok[0] != "op" or tok[1] not in ops):
            return None
        self.pos += 1
        return tok

    def expect(self, op: str) -> None:
        if self.take(op) is None:
            _, text, column = self.tokens[self.pos]
            raise ParseError(
                f"expected {op!r}, found {text or 'end of input'!r}", column)

    def nested(self, column: int, parse) -> Expr:
        """``parse()`` one level deeper, the level opened at ``column``."""
        if self.depth == MAX_DEPTH:
            raise ParseError(f"nested deeper than {MAX_DEPTH} levels", column)
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def parse(self) -> Expr:
        e = self.binary()
        _, text, column = self.tokens[self.pos]
        if text:
            raise ParseError(f"unexpected {text!r}", column)
        return e

    def binary(self, lowest: int = 0) -> Expr:
        """Operands joined by binary operators of precedence >= ``lowest``."""
        left = self.unary()
        while True:
            op = self.tokens[self.pos][1]
            level = _PRECEDENCE.get(op, -1)
            if level < lowest:
                return left
            self.pos += 1
            right = self.binary(level + 1)
            if op in "-/":
                right = (mul(MINUS_ONE, right) if op == "-"
                         else pow_(right, MINUS_ONE))
            left = add(left, right) if level == 0 else mul(left, right)

    def unary(self) -> Expr:
        tok = self.take("-")
        if tok is not None:
            return mul(MINUS_ONE, self.nested(tok[2], self.unary))
        base = self.atom()
        tok = self.take("^")
        if tok is None:
            return base
        return pow_(base, self.nested(tok[2], self.unary))

    def atom(self) -> Expr:
        kind, text, column = self.take()
        if kind == "int":
            return num(int(text))
        if text == "(":
            inner = self.nested(column, self.binary)
            self.expect(")")
            return inner
        if kind == "ident":
            if self.tokens[self.pos][1] == "(":
                return self.call(text, column)
            return self.bindings[text] if text in self.bindings else sym(text)
        raise ParseError(f"unexpected {text or 'end of input'!r}", column)

    def call(self, head: str, column: int) -> Expr:
        if head not in KNOWN_FUNCTIONS and head not in _SIGNATURES:
            raise ParseError(f"unknown function {head!r}", column)
        paren = self.take()[2]
        args = [self.nested(paren, self.binary)]
        while self.take(","):
            bindings = self.bindings
            if head in ("diff", "fdiff") and len(args) == 1:
                self.bindings = {}   # a derivative's variable is never bound
            args.append(self.nested(paren, self.binary))
            self.bindings = bindings
        self.expect(")")
        if head in _SIGNATURES and len(args) != _SIGNATURES[head][0]:
            raise ParseError(_SIGNATURES[head][1], column)
        if head == "Gamma":
            return gammaf(args[0])
        if head not in ("diff", "fdiff"):
            return func(head, args)
        e, v, order = args
        if not isinstance(v, Sym):
            raise ParseError(f"{head} variable must be a symbol", column)
        if head == "fdiff":
            return fderiv(e, v, order)
        if not (isinstance(order, Num) and order.c.denominator == 1
                and order.c >= 1):
            raise ParseError("diff order must be a positive integer", column)
        return diff(e, v, int(order.c))


def parse_expression(src: str,
                     bindings: Mapping[str, Expr] | None = None) -> Expr:
    """Parse a source string into a canonical expression.

    An identifier named in ``bindings`` parses as its bound value, except as
    a function head or the variable of ``diff``/``fdiff``; the values enter
    while the expression is built instead of by a substitution after it."""
    return _Parser(src, bindings or {}).parse()

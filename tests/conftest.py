"""Shared test helpers: seeded random expressions, rational sampling, the
g(t) catalog by tag, the paper's printed scaling reductions, the tree-walk
numeric evaluator and the jet-by-jet total derivative."""

import math
import pathlib
import random
from fractions import Fraction as Q

import pytest

from fracsym.calculus import diff, jet, parse_jet
from fracsym.cases import CoeffTag, coeff_form_from_text, parse_printed_form
from fracsym.expr import (
    EvalError, FDeriv, Func, GammaF, Num, Pow, Prod, Sum, Sym, _KNOWN_FUNCS,
    _eval_known_func, add, as_expr, children, free_symbols, mul, num, pow_,
    substitute, sym,
)
from fracsym.pde import ALPHA

SYMBOL_POOL = ("x", "t", "u", "alpha", "b", "k")

# the paper's six scaling prints, verbatim; at run time every one of them
# is the scaling form case_2_1 specialized to its case
PAPER_PRINTS = pathlib.Path(__file__).with_name("paper_prints")

# paper section of each scaling print -> the classification case it reduces
PAPER_SECTIONS = {"2.1": "1.2", "2.2": "1.3", "3.1": "2.2", "3.2": "2.3",
                  "4.1": "3.2", "4.2": "3.3"}


# each catalog form of g(t) in the CLI expression grammar
CATALOG_G = {
    CoeffTag.ARBITRARY: "arbitrary",
    CoeffTag.CONSTANT: "k",
    CoeffTag.POWER: "k*t^b",
    CoeffTag.EXPONENTIAL: "k*exp(b*t)",
    CoeffTag.SHIFTED_POWER_23: "k*(t-b)^(2/3)",
    CoeffTag.QUAD_POWER_13: "k*(t^2-b)^(1/3)",
}


def catalog_g(tag: CoeffTag, k=None, b=None):
    """The catalog form of ``tag`` as an expression, with k and b replaced
    by the values given."""
    binding = {name: as_expr(value) for name, value in (("k", k), ("b", b))
               if value is not None}
    return substitute(coeff_form_from_text(CATALOG_G[tag], ALPHA), binding)


def paper_print(section: str):
    """The reduced ODE the paper prints in a scaling section, in fracsym's
    unknown h(r): the paper writes one of its prints in f(r)."""
    name = f"case_{section.replace('.', '_')}.txt"
    text = (PAPER_PRINTS / name).read_text()
    return parse_printed_form(text.replace("f(r)", "h(r)"))


def random_rational(rng: random.Random, lo: int = -9, hi: int = 9,
                    nonzero: bool = False) -> Q:
    while True:
        value = Q(rng.randint(lo, hi), rng.randint(1, 7))
        if not nonzero or value != 0:
            return value


def random_expr(rng: random.Random, depth: int = 6):
    """Random canonical expression of bounded depth over the symbol pool."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return num(random_rational(rng))
        return sym(rng.choice(SYMBOL_POOL))
    kind = rng.randrange(4)
    if kind == 0:
        return add(*(random_expr(rng, depth - 1)
                     for _ in range(rng.randint(2, 3))))
    if kind == 1:
        return mul(*(random_expr(rng, depth - 1)
                     for _ in range(rng.randint(2, 3))))
    if kind == 2:
        return pow_(random_expr(rng, depth - 1), num(rng.randint(1, 3)))
    return mul(num(random_rational(rng)), random_expr(rng, depth - 1))


def subtrees(e):
    """Every node of a tree, the root first."""
    yield e
    for c in children(e):
        yield from subtrees(c)


def random_point(rng: random.Random, names=SYMBOL_POOL) -> dict:
    return {name: rng.uniform(0.3, 2.0) for name in names}


@pytest.fixture
def rng():
    return random.Random(20240809)


def tree_walk_eval(e, point=None, *, funcs=None, fd_handler=None) -> float:
    """eval_numeric as it was before it compiled: one walk of the tree per
    evaluation.  The reference for the compiled evaluator; ``fd_handler``
    takes (node, point) as the compiled one does."""
    point = point or {}

    def ev(node):
        if isinstance(node, Num):
            try:
                return float(node.c)
            except OverflowError as exc:
                raise EvalError("constant out of float range") from exc
        if isinstance(node, Sym):
            try:
                return float(point[node.name])
            except KeyError:
                raise EvalError(f"unbound symbol {node.name!r}") from None
        if isinstance(node, Sum):
            return math.fsum(ev(t) for t in node.terms)
        if isinstance(node, Prod):
            out = 1.0
            for f in node.factors:
                out *= ev(f)
            return out
        if isinstance(node, Pow):
            b = ev(node.base)
            x = ev(node.exp)
            try:
                return b ** x
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise EvalError(f"power evaluation failed: {b}**{x}") from exc
        if isinstance(node, GammaF):
            x = ev(node.arg)
            try:
                return math.gamma(x)
            except ValueError as exc:
                raise EvalError(f"gamma pole at {x}") from exc
            except OverflowError as exc:
                raise EvalError(f"gamma overflows a float at {x}") from exc
        if isinstance(node, Func):
            if funcs and node.name in funcs:
                if len(node.args) != 1:
                    raise EvalError("only unary opaque functions are supported")
                return funcs[node.name](ev(node.args[0]), node.order)
            if node.name in _KNOWN_FUNCS and len(node.args) == 1:
                return _eval_known_func(node.name, node.order, ev(node.args[0]))
            raise EvalError(f"cannot evaluate function {node.name!r}")
        if isinstance(node, FDeriv):
            if fd_handler is not None:
                return fd_handler(node, point)
            raise EvalError(
                "unresolved fractional-derivative node; use the grid numerics")
        raise TypeError(type(node))

    return ev(as_expr(e))


def total_derivative_reference(e, v: str):
    """The total derivative D_v as a sum over coordinates: the partial
    derivative in v, plus, for each jet symbol of e, that jet raised along
    v (t or x) times the partial derivative in it.  The reference for
    ``diff`` with ``total=True``, which raises each jet leaf in one walk;
    for expressions without fractional-derivative nodes."""
    out = diff(e, v)
    for name in sorted(free_symbols(e)):
        parsed = parse_jet(name)
        if parsed is not None:
            nx, nt = parsed
            raised = jet(nx + (v == "x"), nt + (v == "t"))
            out = add(out, mul(raised, diff(e, name)))
    return out

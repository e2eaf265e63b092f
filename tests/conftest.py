"""Shared test helpers: seeded random expressions, rational sampling and
the paper's printed scaling reductions."""

import pathlib
import random
from fractions import Fraction as Q

import pytest

from fracsym.cases import parse_printed_form
from fracsym.expr import add, children, mul, num, pow_, sym

SYMBOL_POOL = ("x", "t", "u", "alpha", "b", "k")

# the paper's six scaling prints, verbatim; at run time every one of them
# is the scaling form case_2_1 specialized to its case
PAPER_PRINTS = pathlib.Path(__file__).with_name("paper_prints")

# paper section of each scaling print -> the classification case it reduces
PAPER_SECTIONS = {"2.1": "1.2", "2.2": "1.3", "3.1": "2.2", "3.2": "2.3",
                  "4.1": "3.2", "4.2": "3.3"}


def paper_print(section: str):
    """The reduced ODE the paper prints in a scaling section."""
    name = f"case_{section.replace('.', '_')}.txt"
    return parse_printed_form((PAPER_PRINTS / name).read_text())


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

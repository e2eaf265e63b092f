"""Shared test helpers: seeded random expressions and rational sampling."""

import random
from fractions import Fraction as Q

import pytest

from fracsym.expr import add, children, mul, num, pow_, sym

SYMBOL_POOL = ("x", "t", "u", "alpha", "b", "k")


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

"""Hypothesis property tests for the expression algebra and GL weights."""

import math
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import subtrees
from fracsym.expr import (
    EvalError, ONE, ZERO, Pow, Prod, SimplifyError, Sum, add, eval_numeric,
    fderiv, func, mul, num, pow_, rebuild, replace_node, simplify,
    substitute, sym, to_text,
)
from fracsym.fracnum import gl_weights
from fracsym.parser import parse_expression

rationals = st.fractions(min_value=-20, max_value=20,
                         max_denominator=9)
names = st.sampled_from(["x", "t", "u", "alpha", "b", "k"])


def exprs(depth: int = 4):
    leaf = st.one_of(rationals.map(num), names.map(sym))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: add(*p)),
            st.tuples(inner, inner).map(lambda p: mul(*p)),
            st.tuples(inner, st.integers(1, 3)).map(
                lambda p: pow_(p[0], num(p[1]))),
        ),
        max_leaves=depth * 4,
    )


class TestAlgebraProperties:
    @given(exprs())
    @settings(max_examples=300, deadline=None)
    def test_simplify_idempotent(self, e):
        s = simplify(e)
        assert simplify(s) == s

    @given(exprs(), exprs())
    @settings(max_examples=200, deadline=None)
    def test_addition_is_order_independent(self, a, b):
        assert add(a, b) == add(b, a)

    @given(exprs(), exprs())
    @settings(max_examples=200, deadline=None)
    def test_multiplication_is_order_independent(self, a, b):
        assert mul(a, b) == mul(b, a)

    @given(exprs())
    @settings(max_examples=200, deadline=None)
    def test_subtracting_self_gives_zero(self, e):
        assert add(e, mul(-1, e)) == ZERO

    @given(exprs())
    @settings(max_examples=200, deadline=None)
    def test_print_parse_round_trip(self, e):
        assert parse_expression(to_text(e)) == e

    @given(exprs(), st.floats(0.2, 1.8), st.floats(0.2, 1.8))
    @settings(max_examples=150, deadline=None)
    def test_canonical_form_preserves_value(self, e, xv, tv):
        point = {"x": xv, "t": tv, "u": 1.3, "alpha": 0.4, "b": 0.7,
                 "k": 1.1}
        try:
            v1 = eval_numeric(e, point)
        except EvalError:
            return
        if not math.isfinite(v1) or abs(v1) > 1e12:
            return
        v2 = eval_numeric(simplify(e), point)
        assert v2 == pytest.approx(v1, rel=1e-9, abs=1e-9)


def recipes(depth: int = 4):
    """Construction recipes: nested tuples that build() turns into a tree,
    so one recipe can be built along different paths."""
    leaf = st.one_of(rationals.map(lambda q: ("num", q)),
                     names.map(lambda n: ("sym", n)))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.tuples(st.just("add"), st.lists(inner, min_size=2, max_size=3)),
            st.tuples(st.just("mul"), st.lists(inner, min_size=2, max_size=3)),
            st.tuples(st.just("pow"), inner, st.integers(1, 3)),
        ),
        max_leaves=depth * 4,
    )


def build(recipe, env=None, reverse=False):
    """Build a recipe; ``env`` binds symbols directly, ``reverse`` feeds
    every sum and product its operands in reverse order."""
    kind = recipe[0]
    if kind == "num":
        return num(recipe[1])
    if kind == "sym":
        return (env or {}).get(recipe[1], sym(recipe[1]))
    if kind == "pow":
        return pow_(build(recipe[1], env, reverse), num(recipe[2]))
    parts = [build(r, env, reverse) for r in recipe[1]]
    if reverse:
        parts.reverse()
    return (add if kind == "add" else mul)(*parts)


class TestHashConsistency:
    """Equal nodes hash equal, however they were built."""

    @given(recipes())
    @settings(max_examples=200, deadline=None)
    def test_permuted_operands(self, recipe):
        a, b = build(recipe), build(recipe, reverse=True)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @given(recipes(), exprs(depth=2))
    @settings(max_examples=150, deadline=None)
    def test_substitute_versus_direct_construction(self, recipe, value):
        direct = build(recipe, {"x": value})
        substituted = substitute(build(recipe), {"x": value})
        if direct == substituted:
            assert hash(direct) == hash(substituted)
        # re-canonicalizing rebuilds every node and must keep the hash
        again = simplify(substituted)
        assert again == substituted and hash(again) == hash(substituted)


def rich_exprs(depth: int = 4):
    """exprs() plus h(...) applications and RL-derivative nodes in t."""
    leaf = st.one_of(rationals.map(num), names.map(sym))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: add(*p)),
            st.tuples(inner, inner).map(lambda p: mul(*p)),
            st.tuples(inner, st.integers(-2, 3))
            .filter(lambda p: p[0] != ZERO or p[1] >= 0)
            .map(lambda p: pow_(p[0], num(p[1]))),
            inner.map(lambda e: func("h", (e,))),
            st.tuples(inner, st.sampled_from([num(Q(1, 2)), sym("alpha")]))
            .map(lambda p: fderiv(p[0], "t", p[1])),
        ),
        max_leaves=depth * 4,
    )


def replace_by_full_rebuild(e, target, replacement):
    """replace_node as it was: every node re-canonicalized on the way up."""
    def walk(node):
        return replacement if node == target else rebuild(node, walk)

    return walk(e)


class TestRewritingWalks:
    @given(rich_exprs(), exprs(depth=2), st.data())
    @settings(max_examples=200, deadline=None)
    def test_replace_node_equals_full_rebuild(self, e, replacement, data):
        target = data.draw(st.sampled_from(list(subtrees(e))))
        try:
            want = replace_by_full_rebuild(e, target, replacement)
        except SimplifyError:   # e.g. a zero replacement under a ^-1
            with pytest.raises(SimplifyError):
                replace_node(e, target, replacement)
            return
        assert replace_node(e, target, replacement) == want

    @given(rich_exprs())
    @settings(max_examples=200, deadline=None)
    def test_absent_target_returns_the_tree_itself(self, e):
        for absent in (sym("w"), func("g", (sym("w"),))):
            assert replace_node(e, absent, sym("r")) is e

    @given(exprs())
    @settings(max_examples=200, deadline=None)
    def test_simplify_canonicalizes_hand_built_nodes(self, e):
        x = sym("x")
        assert simplify(Prod((ONE, x))) == x
        assert simplify(Pow(e, ONE)) == e
        if isinstance(e, Sum):
            assert simplify(Sum(tuple(reversed(e.terms)))) == e


class TestWeightProperties:
    @given(st.floats(0.05, 0.95), st.integers(10, 2000))
    @settings(max_examples=60, deadline=None)
    def test_weight_signs_alternate_once(self, alpha, n):
        # w_0 = 1 > 0, every later weight is negative, and they shrink
        w = gl_weights(alpha, n)
        assert w[0] == 1.0
        assert np.all(w[1:] < 0.0)
        assert np.all(np.diff(np.abs(w[1:])) <= 0.0)

    @given(st.floats(0.05, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_partial_sum_matches_closed_form(self, alpha):
        # sum_{i<=N} w_i = Gamma(N+1-a) / (Gamma(1-a) Gamma(N+1)) ~ N^-a,
        # which tends to 0 as N grows (if slowly for small a)
        n = 50_000
        w = gl_weights(alpha, n + 1)
        closed = math.exp(math.lgamma(n + 1 - alpha) - math.lgamma(1 - alpha)
                          - math.lgamma(n + 1))
        assert w.sum() == pytest.approx(closed, rel=1e-8)
        assert abs(w.sum()) < 1.0 / (1 - alpha) * (n ** -alpha)

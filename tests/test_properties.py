"""Hypothesis property tests for the expression algebra and GL weights."""

import math
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import total_derivative_reference, tree_walk_eval
from fracsym.calculus import diff, jet
from fracsym.cases import CLASSIFICATION_CASES, spec_for_case
from fracsym.expr import (
    EvalError, MINUS_ONE, ONE, ZERO, Pow, Prod, Sum, add,
    compile_numeric, eval_numeric, _monic_sum, fderiv, func, gammaf, mul, num,
    pow_, rebuild, simplify, substitute, sym, to_text,
)
from fracsym.fracnum import gl_weights
from fracsym.parser import parse_expression
from fracsym.pde import T, U, X, Generator
from fracsym.symmetry import (
    eta_alpha, integer_prolongations, invariance_residual,
)

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
    """Every occurrence of ``target`` replaced, every node re-canonicalized
    on the way up."""
    def walk(node):
        return replacement if node == target else rebuild(node, walk)

    return walk(e)


def invariance_residual_as_it_was(spec, gen):
    """invariance_residual as it was: the prolonged generator applied to
    the equation, then every D^alpha_t u node replaced by minus the
    integer-order part through a full rebuild."""
    rest = add(mul(num(spec.zeta), diff(pow_(U, spec.m), "x", total=True)),
               mul(spec.g, diff(pow_(U, spec.n), "x", 3, total=True)))
    coords = zip((T, X, U, jet(1, 0), jet(2, 0), jet(3, 0)),
                 (gen.xi_t, gen.xi_x, gen.eta, *integer_prolongations(gen)))
    total = add(eta_alpha(gen, spec.alpha),
                *(mul(coeff, diff(rest, coord.name))
                  for coord, coeff in coords))
    return replace_by_full_rebuild(total, fderiv(U, T, spec.alpha),
                                   mul(MINUS_ONE, rest))


# polynomials in (t, x) of low degree with small integer coefficients
small_polys = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2)),
    max_size=3,
).map(lambda terms: add(*(mul(c, pow_(T, i), pow_(X, j))
                          for c, i, j in terms)))


class TestRewritingWalks:
    @given(st.sampled_from(sorted(CLASSIFICATION_CASES)),
           st.integers(1, 4), st.integers(1, 4),
           small_polys, small_polys, small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_residual_on_solutions_equals_the_full_rebuild(
            self, key, m, n, xi_t, xi_x, eta_0, eta_1):
        # D^alpha_t u enters the residual linearly, as a factor of a term:
        # collecting its coefficient is the same as replacing the node
        eta = add(eta_0, mul(eta_1, U))
        assume(any(e != ZERO for e in (xi_t, xi_x, eta)))
        spec = spec_for_case(key, m=m, n=n)
        gen = Generator(xi_t, xi_x, eta)
        assert invariance_residual(spec, gen) == \
            invariance_residual_as_it_was(spec, gen)

    @given(exprs())
    @settings(max_examples=200, deadline=None)
    def test_simplify_canonicalizes_hand_built_nodes(self, e):
        x = sym("x")
        assert simplify(Prod((ONE, x))) == x
        assert simplify(Pow(e, ONE)) == e
        if isinstance(e, Sum):
            assert simplify(Sum(tuple(reversed(e.terms)))) == e


def _opaque_h(x, order):
    return math.exp(-x) * (order + 1)


def _fd_value(node, point):
    # depends on the node and the point, so a misrouted node shows
    return len(to_text(node)) * 0.125 + point["t"]


def _outcome(evaluate):
    """The value's exact bits, or the exception's type and message."""
    try:
        value = evaluate()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return value.hex() if isinstance(value, float) else repr(value)


class TestCompiledEvaluation:
    """compile_numeric is bitwise the tree walk it replaced, failures
    included."""

    @given(rich_exprs(), st.floats(0.2, 1.8), st.floats(0.2, 1.8),
           st.booleans())
    # multiplied in the reverse order, this product differs in its last bit
    @example(mul(Q(1, 3), sym("x"), sym("t"), sym("u"), sym("alpha")),
             0.22, 1.1, False)
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_the_tree_walk(self, e, xv, tv, bind_all):
        point = {"x": xv, "t": tv, "u": 1.3, "alpha": 0.4}
        if bind_all:
            point.update(b=0.7, k=1.1)
        kwargs = {"funcs": {"h": _opaque_h}, "fd_handler": _fd_value}
        want = _outcome(lambda: tree_walk_eval(e, point, **kwargs))
        fn = compile_numeric(e, **kwargs)
        assert _outcome(lambda: fn(point)) == want
        # and again at a second point through the same compiled tree
        point["x"] += 0.25
        want = _outcome(lambda: tree_walk_eval(e, point, **kwargs))
        assert _outcome(lambda: fn(point)) == want

    @pytest.mark.parametrize("e, point, message", [
        (mul(sym("x"), sym("w")), {"x": 1.0}, "unbound symbol 'w'"),
        (gammaf(sym("b")), {"b": 0.0}, "gamma pole at 0.0"),
        (add(sym("x"), num(10 ** 400)), {"x": 1.0},
         "constant out of float range"),
        (pow_(sym("x"), -1), {"x": 0.0}, "power evaluation failed"),
        (func("g", (sym("t"),)), {"t": 1.0}, "cannot evaluate function 'g'"),
        (fderiv(func("h", (sym("t"),)), "t", num(Q(1, 2))), {"t": 1.0},
         "unresolved fractional-derivative node"),
    ], ids=["unbound", "pole", "overflow", "zero-power", "opaque", "fd"])
    def test_same_failure(self, e, point, message):
        want = _outcome(lambda: tree_walk_eval(e, point))
        assert want[0] == "EvalError" and message in want[1]
        fn = compile_numeric(e)          # compiling never fails
        assert _outcome(lambda: fn(point)) == want
        assert _outcome(lambda: eval_numeric(e, point)) == want


def per_pair_product(a, b):
    """a * b the way sum expansion used to build it: one general mul per
    pair of terms, summed by add."""
    terms_a = a.terms if isinstance(a, Sum) else (a,)
    terms_b = b.terms if isinstance(b, Sum) else (b,)
    return add(*(mul(p, q) for p in terms_a for q in terms_b))


_ALPHA, _B = sym("alpha"), sym("b")
# atoms of every kind whose numeric exponents the term table adds
_ATOMS = (sym("x"), sym("t"), func("h", (sym("r"),)), gammaf(_ALPHA),
          fderiv(sym("u"), "t", _ALPHA))
# numeric exponents chosen so that sums of two cancel to 0 or reach 1
_EXPONENTS = tuple(map(num, (-2, -1, Q(-1, 2), Q(1, 2), 1, 2, Q(3, 2))))
_SYMBOLIC_EXPONENTS = (_ALPHA, _B, add(_ALPHA, -1))
# sum bases: monic (1 + x), and sign or scale that the kernel divides out
_SUM_BASES = (add(1, sym("x")), add(_B, mul(-1, _ALPHA)),
              add(1, mul(-2, _B)), add(mul(2, sym("x")), mul(3, sym("t"))))


def _factors():
    atom_powers = st.tuples(
        st.sampled_from(_ATOMS),
        st.sampled_from(_EXPONENTS + _SYMBOLIC_EXPONENTS),
    ).map(lambda p: pow_(*p))
    sum_powers = st.tuples(
        st.sampled_from(_SUM_BASES),
        # 17 is past the expansion limit, so a bare power keeps its scale
        st.sampled_from((num(-1), num(-2), num(-3), num(Q(1, 2)), num(17))),
    ).map(lambda p: pow_(*p))
    num_powers = st.sampled_from(_SYMBOLIC_EXPONENTS).map(
        lambda e: pow_(num(2), e))
    return st.one_of(atom_powers, atom_powers, sum_powers, num_powers)


# int and Fraction coefficients, nonzero
_COEFFS = st.one_of(st.integers(-6, 6), rationals).filter(lambda q: q != 0)
_TERMS = st.tuples(_COEFFS, st.lists(_factors(), max_size=3)).map(
    lambda p: mul(p[0], *p[1]))
# sums only: a single term would merge with the other operand's bases
# before any expansion, which the per-pair reference does not do
_SUMS = st.lists(_TERMS, min_size=2, max_size=4).map(
    lambda ts: add(*ts)).filter(lambda e: isinstance(e, Sum))


class TestTermTable:
    """Products of sums expand through the term table exactly as the
    per-pair mul loop it replaced."""

    @given(_SUMS, _SUMS)
    @example(add(pow_(_SUM_BASES[3], 17), sym("u")), add(1, sym("x")))
    @example(add(pow_(_SUM_BASES[0], Q(1, 2)), sym("u")),
             add(pow_(_SUM_BASES[0], Q(1, 2)), sym("t")))
    @example(add(pow_(sym("x"), 2), sym("u")), add(pow_(sym("x"), -1), 1))
    @example(add(pow_(sym("x"), _ALPHA), sym("u")),
             add(pow_(sym("x"), _B), 1))
    @settings(max_examples=200, deadline=None)
    def test_product_of_two_sums(self, a, b):
        assert mul(a, b) == per_pair_product(a, b)

    @given(_SUMS, _SUMS, _SUMS, _TERMS)
    @settings(max_examples=60, deadline=None)
    def test_product_of_three_sums_and_a_term(self, a, b, c, term):
        # mul first merges operands on one base (b * b is b^2, which
        # expands as b * b); the per-pair reference starts from distinct
        # bases, so that case is left to the power test below
        bases = [_monic_sum(s)[1] for s in (a, b, c)]
        factors = term.factors if isinstance(term, Prod) else (term,)
        bases += [f.base if isinstance(f, Pow) else f for f in factors]
        assume(len(set(bases)) == len(bases))
        want = per_pair_product(per_pair_product(per_pair_product(a, b), c),
                                term)
        assert mul(a, b, c, term) == want

    @given(_SUMS, st.integers(2, 3))
    @settings(max_examples=100, deadline=None)
    def test_power_of_a_sum(self, s, k):
        want = s
        for _ in range(k - 1):
            want = per_pair_product(want, s)
        assert pow_(s, num(k)) == want


jet_names = st.sampled_from(["u", "u_x", "u_t", "u_xx", "u_xt", "t", "x",
                             "alpha", "b", "k"])


def jet_polys(depth: int = 4):
    """Random polynomials in jets, t, x and the parameters."""
    leaf = st.one_of(rationals.map(num), jet_names.map(sym))
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


class TestTotalDerivative:
    @given(jet_polys(), st.sampled_from(["t", "x"]))
    @settings(max_examples=200, deadline=None)
    def test_one_walk_matches_the_sum_over_jets(self, e, v):
        assert diff(e, v, total=True) == total_derivative_reference(e, v)


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

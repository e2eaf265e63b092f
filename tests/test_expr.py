"""Expression-core tests: canonicalization, substitution, evaluation."""

import math
import random
from fractions import Fraction as Q

import pytest

from conftest import random_expr, random_point, random_rational, subtrees
from fracsym.expr import (
    EvalError, SimplifyError, SubstitutionError, ZERO, ONE, MINUS_ONE,
    Expr, FDeriv, Func, GammaF, Num, Pow, Prod, Sum, Sym,
    _monic_sum, add, clear_denominators, contains_node, eval_numeric,
    fderiv, free_symbols, func, gammaf, is_zero_exact, mul, num, pow_,
    rebuild, replace_node, simplify, substitute, sym, to_text,
)

x, t, u, r, h = sym("x"), sym("t"), sym("u"), sym("r"), sym("h")
alpha, b = sym("alpha"), sym("b")


class TestExpansion:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_product_of_sums_equals_left_fold(self, k):
        factors = [add(x, num(-j)) for j in range(k)]
        folded = factors[0]
        for f in factors[1:]:
            folded = mul(folded, f)
        got = mul(*factors)
        assert got == folded
        # falling factorial: x (x-1) ... (x-k+1) at x = k + 1/2
        want = math.prod(k + 0.5 - j for j in range(k))
        assert eval_numeric(got, {"x": k + 0.5}) == pytest.approx(want)

    def test_coefficient_and_plain_factors_distribute_once(self):
        sums = [add(x, 1), add(t, -2), add(x, t)]
        got = mul(3, pow_(x, -1), t, *sums)
        folded = mul(3, pow_(x, -1), t)
        for s in sums:
            folded = mul(folded, s)
        assert got == folded

    def test_merged_power_past_the_expansion_limit_times_a_sum(self):
        # (2+x)^(1/2) * (2+x)^(33/2) merges to a bare, unscaled (2+x)^17,
        # which each term of the sum must rescale as mul does
        s = add(2, x)
        got = mul(pow_(s, Q(1, 2)), pow_(s, Q(33, 2)), add(t, 1))
        want = add(mul(2 ** 17, pow_(add(1, mul(Q(1, 2), x)), 17)),
                   mul(2 ** 17, t, pow_(add(1, mul(Q(1, 2), x)), 17)))
        assert got == want

    def test_monic_sum_keeps_unit_lead(self):
        s = add(x, t, 1)
        assert pow_(s, -2) == pow_(mul(2, s), -2) * 4

    @pytest.mark.parametrize("s", [add(x, t, 1), add(mul(2, x), mul(3, t))],
                             ids=["unit-lead", "lead-2"])
    def test_raw_clearing_atoms_still_canonicalize(self, s):
        # clear_denominators multiplies by raw Pow atoms: Pow(s, k) must
        # expand and Pow(s, 1) collapse, as if built by pow_
        assert mul(Pow(s, num(2)), x) == mul(pow_(s, 2), x)
        assert mul(Pow(s, ONE)) == s
        assert mul(Pow(x, ONE), t) == mul(x, t)

    def test_single_factor_is_reused(self):
        f = pow_(x, Q(1, 2))
        assert mul(f, t).factors[1] is f

    def test_monic_sum_is_cached_on_the_sum(self):
        s = add(mul(3, x), mul(Q(1, 2), t), 5)
        lead = s.terms[0].value
        assert lead == 5
        first, second = _monic_sum(s), _monic_sum(s)
        assert second[1] is first[1]
        # computed without the cache: every term divided by the lead
        want = (lead, add(*(mul(num(1 / lead), term) for term in s.terms)))
        assert first == second == want


class TestExactCoefficients:
    """Kernel arithmetic runs on ``Num.c`` (an int when the denominator is
    1); no division or negative power may turn it into a float."""

    def test_negative_power_of_a_scaled_sum(self):
        got = pow_(mul(2, add(x, t)), -3)
        assert got == mul(Q(1, 8), pow_(add(x, t), -3))
        coeff = got.factors[0]
        assert type(coeff.value) is Q and coeff.value == Q(1, 8)
        assert type(coeff.c) is Q
        # a lead of 3 has no exact binary float: 3 ** -2 must not be floated
        got = pow_(mul(3, add(x, t)), -2)
        assert got.factors[0].value == Q(1, 9)

    def test_monic_sum_divides_exactly(self):
        lead, monic = _monic_sum(add(mul(2, x), mul(3, t)))
        assert type(lead) is int and lead == 3
        assert monic == add(t, mul(Q(2, 3), x))
        assert monic.terms[1].factors[0].value == Q(2, 3)

    def test_every_num_on_the_corpus_is_exact(self, rng):
        seen = 0
        for _ in range(300):
            for node in subtrees(random_expr(rng, depth=6)):
                if isinstance(node, Num):
                    seen += 1
                    assert type(node.value) is Q
                    assert (type(node.c) is int) == (node.value.denominator == 1)
                    assert node.c == node.value
        assert seen > 1000

    def test_huge_rational_roots_are_exact(self):
        assert pow_(num(10 ** 400), Q(1, 2)) == num(10 ** 200)
        assert pow_(num(Q(10 ** 600, 7 ** 3)), Q(1, 3)) \
            == num(Q(10 ** 200, 7))
        assert pow_(num(3 ** 500), Q(2, 5)) == num(3 ** 200)
        inexact = pow_(num(10 ** 400 + 1), Q(1, 2))
        assert isinstance(inexact, Pow) and inexact.base == num(10 ** 400 + 1)

    @pytest.mark.parametrize("value", [10 ** 400, Q(10 ** 400, 3)],
                             ids=["int", "fraction"])
    def test_constant_beyond_float_range_is_an_eval_error(self, value):
        with pytest.raises(EvalError, match="float range"):
            eval_numeric(mul(value, t), {"t": 1.0})


class TestSimplify:
    def test_additive_identity(self):
        e = add(mul(2, u, sym("u_x")), ZERO)
        assert e == mul(2, u, sym("u_x"))

    def test_power_merge(self):
        assert mul(pow_(x, 1), pow_(x, 2)) == pow_(x, 3)

    def test_opposite_coefficients_cancel(self, rng):
        # oracle first: the two terms are numeric negatives of each other
        lhs = mul(add(alpha, -b), x)
        rhs = mul(add(b, -alpha), x)
        for _ in range(5):
            point = {"alpha": rng.uniform(0.1, 0.9),
                     "b": rng.uniform(-2, 2), "x": rng.uniform(0.5, 2)}
            assert eval_numeric(lhs, point) + eval_numeric(rhs, point) \
                == pytest.approx(0.0, abs=1e-12)
        assert add(lhs, rhs) == ZERO

    def test_mul_by_zero_and_one(self):
        assert mul(0, u, x) == ZERO
        assert mul(1, u) == u
        assert pow_(x, 0) == ONE

    def test_idempotent_on_random_corpus(self):
        rng = random.Random(99)
        for _ in range(1000):
            e = random_expr(rng, depth=6)
            s = simplify(e)
            assert simplify(s) == s

    def test_numeric_agreement_after_simplify(self, rng):
        for _ in range(50):
            e = random_expr(rng, depth=5)
            s = simplify(e)
            point = random_point(rng)
            try:
                v1 = eval_numeric(e, point)
                v2 = eval_numeric(s, point)
            except EvalError:
                continue
            if math.isfinite(v1) and abs(v1) < 1e12:
                assert v2 == pytest.approx(v1, rel=1e-9, abs=1e-9)

    def test_division_by_zero_folding(self):
        with pytest.raises(SimplifyError):
            pow_(num(0), MINUS_ONE)

    def test_sum_power_expansion(self):
        e = pow_(add(x, 1), 2)
        assert e == add(pow_(x, 2), mul(2, x), ONE)

    def test_inverse_power_cancellation(self):
        base = add(alpha, -b)
        assert mul(base, pow_(base, MINUS_ONE)) == ONE

    def test_sign_normalized_integer_powers(self):
        # (b - alpha)^-1 == -(alpha - b)^-1 so the product with (alpha - b)
        # cancels up to sign
        e = mul(add(b, -alpha), pow_(add(alpha, -b), MINUS_ONE))
        assert e == MINUS_ONE


class TestGammaNode:
    def test_integer_folding(self):
        assert gammaf(5) == num(24)
        assert gammaf(1) == ONE

    def test_pole_rejected(self):
        with pytest.raises(SimplifyError):
            gammaf(0)
        with pytest.raises(SimplifyError):
            gammaf(-3)

    def test_recurrence_normalization(self):
        # Gamma(2 - a) = (1 - a) * (-a) * Gamma(-a): shares the Gamma(-a) atom
        g2 = gammaf(add(2, mul(-1, alpha)))
        g1 = gammaf(add(1, mul(-1, alpha)))
        ratio_atoms = mul(g2, pow_(g1, MINUS_ONE))
        assert is_zero_exact(add(ratio_atoms, mul(-1, add(1, mul(-1, alpha)))))

    def test_half_integer_shift(self):
        assert gammaf(Q(5, 2)) == mul(num(Q(3, 4)), gammaf(Q(1, 2)))


class TestSubstitute:
    def test_direct_replacement(self):
        assert substitute(pow_(u, 2), {"u": mul(pow_(x, 2), h)}) \
            == mul(pow_(x, 4), pow_(h, 2))

    def test_printed_invariant_stays_fixed(self):
        # r -> t*x^(1/(alpha-b)) has no r left to replace afterwards
        target = mul(t, pow_(x, pow_(add(alpha, -b), MINUS_ONE)))
        assert substitute(r, {"r": target}) == target

    def test_fd_node_rewrap(self):
        e = fderiv(u, t, alpha)
        assert substitute(e, {"u": func("h", (t,))}) \
            == fderiv(func("h", (t,)), t, alpha)

    def test_unbound_symbols_unchanged(self):
        e = add(u, x)
        assert substitute(e, {"u": t}) == add(t, x)

    def test_cyclic_binding_rejected(self):
        with pytest.raises(SubstitutionError):
            substitute(add(x, t), {"x": t, "t": x})

    def test_commutes_with_evaluation(self, rng):
        for _ in range(20):
            e = random_expr(rng, depth=4)
            binding = {"x": add(t, num(random_rational(rng)))}
            point = random_point(rng)
            composed = dict(point)
            try:
                composed["x"] = eval_numeric(binding["x"], point)
                v1 = eval_numeric(substitute(e, binding), point)
                v2 = eval_numeric(e, composed)
            except EvalError:
                continue
            if math.isfinite(v1) and abs(v1) < 1e10:
                assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)


# one canonical sample per node kind; a kind missing here fails below
NODE_SAMPLES = {
    Num: num(Q(3, 2)),
    Sym: x,
    Pow: pow_(x, alpha),
    Prod: mul(2, x, pow_(t, -1)),
    Sum: add(1, x, mul(3, t, u)),
    Func: func("h", (mul(t, pow_(x, 2)),), 1),
    GammaF: gammaf(add(alpha, mul(-1, b))),
    FDeriv: fderiv(func("h", (t,)), t, alpha),
}


class TestTraversal:
    @pytest.mark.parametrize("kind", Expr.__subclasses__(),
                             ids=lambda k: k.__name__)
    def test_every_node_kind_round_trips(self, kind):
        e = NODE_SAMPLES[kind]
        assert type(e) is kind
        assert rebuild(e, lambda c: c) == e
        assert simplify(e) == e
        assert free_symbols(e) == {n.name for n in subtrees(e)
                                   if isinstance(n, Sym)}
        inside = set(subtrees(e))
        probes = {n for s in NODE_SAMPLES.values() for n in subtrees(s)}
        for probe in probes | {sym("w"), mul(7, sym("w"))}:
            assert contains_node(e, probe) == (probe in inside)

    def test_rebuild_keeps_the_fd_variable(self):
        e = NODE_SAMPLES[FDeriv]
        got = rebuild(e, lambda c: substitute(c, {"t": x}))
        assert got == fderiv(func("h", (x,)), t, alpha)

    def test_substitute_renames_the_fd_variable(self):
        e = NODE_SAMPLES[FDeriv]
        assert substitute(e, {"t": r}) == fderiv(func("h", (r,)), r, alpha)
        with pytest.raises(SubstitutionError):
            substitute(e, {"t": mul(2, r)})

    def test_replace_node_rewrites_every_occurrence(self):
        fd_u = fderiv(u, t, alpha)
        e = add(fd_u, mul(x, pow_(fd_u, 2)))
        assert replace_node(e, fd_u, h) == add(h, mul(x, pow_(h, 2)))


class TestEval:
    def test_square(self):
        assert eval_numeric(pow_(t, 2), {"t": 3}) == 9.0

    def test_gamma_half_by_reflection_oracle(self):
        # Gamma(1/2)^2 == pi
        value = eval_numeric(gammaf(Q(1, 2)))
        assert value ** 2 == pytest.approx(math.pi, rel=1e-12)
        assert value == pytest.approx(1.7724538509, abs=1e-9)

    def test_unbound_symbol(self):
        with pytest.raises(EvalError, match="unbound"):
            eval_numeric(sym("u_x"), {})

    def test_unresolved_fd_node(self):
        with pytest.raises(EvalError, match="fractional"):
            eval_numeric(fderiv(u, t, num(Q(1, 2))), {"u": 1, "t": 1})

    def test_known_functions(self):
        e = func("sin", (x,))
        assert eval_numeric(e, {"x": 0.3}) == pytest.approx(math.sin(0.3))
        de = func("sin", (x,), order=1)
        assert eval_numeric(de, {"x": 0.3}) == pytest.approx(math.cos(0.3))
        assert eval_numeric(func("exp", (x,), order=2), {"x": 0.4}) \
            == pytest.approx(math.exp(0.4))


class TestZeroDetection:
    def test_rational_function_identity(self):
        X1 = pow_(add(alpha, -b), MINUS_ONE)
        e = add(ONE, mul(MINUS_ONE, alpha, X1), mul(b, X1))
        assert e != ZERO  # not structurally zero
        assert is_zero_exact(e)

    def test_nonzero_stays_nonzero(self):
        X1 = pow_(add(alpha, -b), MINUS_ONE)
        e = add(ONE, mul(alpha, X1))
        assert not is_zero_exact(e)

    def test_clear_denominators_is_polynomial(self):
        X1 = pow_(add(alpha, -b), MINUS_ONE)
        cleared = clear_denominators(add(mul(alpha, X1), b))
        assert "(" not in to_text(cleared) or "^(-" not in to_text(cleared)


class TestPrinting:
    def test_rational_forms(self):
        assert to_text(num(Q(-3, 4))) == "-3/4"
        assert to_text(mul(Q(3, 4), x)) == "3/4*x"

    def test_fraction_base_parenthesized(self):
        assert to_text(pow_(num(Q(3, 4)), x)) == "(3/4)^x"

    def test_sum_with_negative_terms(self):
        assert to_text(add(x, mul(-1, t))) in ("x - t", "-t + x")

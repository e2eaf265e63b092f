"""Acceptance criteria, one test per criterion.

Each test prints a single ``[criterion N] ... PASS`` line once its
assertions hold, so ``pytest tests/test_acceptance.py -s`` doubles as the
acceptance checklist.  Tolerances are pinned here and nowhere else.
"""

import math
import random
import time
from fractions import Fraction as Q

import pytest

from conftest import random_expr, random_point, random_rational
from fracsym import fracnum as fn
from fracsym.cases import load_printed_form, spec_for_case
from fracsym.expr import (
    ZERO, ONE, MINUS_ONE, EvalError,
    add, eval_numeric, fderiv, func, mul, num, pow_, simplify,
    substitute, sym, to_text,
)
from fracsym.pde import (
    ALPHA, B, K, T, U, X,
    CoeffForm, CoeffTag, Generator, PdeSpec, ScalingWeights,
    scaling_invariance_check,
)
from fracsym.reduction import (
    characteristic_invariants, compare_reduced_forms, kernel_solution,
    reduced_residual_identity_check, similarity_substitute,
)
from fracsym.symmetry import classify, eta_alpha, invariance_residual

SEED = 987654321

r = sym("r")
h = func("h", (r,))


def _gen(xi_t, xi_x, eta) -> Generator:
    return Generator(xi_t, xi_x, eta)


X_TRANSLATION = _gen(0, 1, 0)

# the printed classification table, criterion 1
PRINTED_TABLE = {
    "1.1": [X_TRANSLATION],
    "1.2": [X_TRANSLATION,
            _gen(mul(-1, T), mul(add(ALPHA, mul(-1, B)), X),
                 mul(add(mul(2, ALPHA), mul(-1, B)), U))],
    "1.3": [X_TRANSLATION, _gen(mul(-1, T), mul(ALPHA, X), mul(2, ALPHA, U))],
    "2.1": [X_TRANSLATION],
    "2.2": [X_TRANSLATION,
            _gen(mul(2, T), mul(add(mul(2, B), -1), X),
                 mul(2, add(B, -1), U))],
    "2.3": [X_TRANSLATION, _gen(mul(-2, T), X, mul(2, U))],
    "3.1": [X_TRANSLATION],
    "3.2": [X_TRANSLATION,
            _gen(mul(3, T), mul(add(mul(3, B), -1), X),
                 mul(add(mul(3, B), -2), U))],
    "3.3": [X_TRANSLATION, _gen(mul(-3, T), X, mul(2, U))],
}


def classified(case):
    return classify(spec_for_case(case))


class TestCriterion1:
    def test_classification_table(self):
        started = time.monotonic()
        for case, expected in PRINTED_TABLE.items():
            got = classified(case)
            assert len(got) == len(expected), case
            for mine, printed in zip(got, expected):
                assert mine.proportional_to(printed), \
                    (case, mine.as_text_triple())
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"classification took {elapsed:.1f}s"
        print(f"\n[criterion 1] classification table, nine cases, "
              f"{elapsed:.1f}s: PASS")


class TestCriterion2:
    def test_invariance_and_perturbations(self):
        checked = 0
        for case in PRINTED_TABLE:
            spec = spec_for_case(case)
            for gen in classify(spec):
                assert invariance_residual(spec, gen, M=5) == ZERO, case
                e, a0, a1, c = gen.normal_form()
                perturbations = [
                    Generator.from_coeffs(add(e, ONE), a0, a1, c),
                    Generator.from_coeffs(e, a0, add(a1, ONE), c),
                    Generator.from_coeffs(e, a0, a1, add(c, ONE)),
                ]
                for p in perturbations:
                    assert invariance_residual(spec, p, M=5) != ZERO, case
                    checked += 1
                # the translation direction spans the algebra: moving a0
                # stays inside it, so that residual remains zero by design
                in_algebra = Generator.from_coeffs(e, add(a0, ONE), a1, c)
                assert invariance_residual(spec, in_algebra, M=5) == ZERO
        print(f"\n[criterion 2] invariance + {checked} off-algebra "
              "perturbations nonzero: PASS")


class TestCriterion3:
    def test_similarity_invariant_pairs(self):
        inv_ab = pow_(add(ALPHA, mul(-1, B)), MINUS_ONE)
        expected = {
            "1.1": (T, U),
            "1.2": (mul(T, pow_(X, inv_ab)),
                    mul(U, pow_(X, mul(add(B, mul(-2, ALPHA)), inv_ab)))),
            "1.3": (mul(T, pow_(X, pow_(ALPHA, MINUS_ONE))),
                    mul(U, pow_(X, -2))),
            "2.2": (mul(T, pow_(X, mul(2, pow_(add(1, mul(-2, B)),
                                               MINUS_ONE)))),
                    mul(U, pow_(X, mul(add(mul(2, B), -2),
                                       pow_(add(1, mul(-2, B)),
                                            MINUS_ONE))))),
            "2.3": (mul(T, pow_(X, 2)), mul(U, pow_(X, -2))),
            "3.2": (mul(T, pow_(X, mul(3, pow_(add(1, mul(-3, B)),
                                               MINUS_ONE)))),
                    mul(U, pow_(X, mul(add(mul(3, B), -2),
                                       pow_(add(1, mul(-3, B)),
                                            MINUS_ONE))))),
            "3.3": (mul(T, pow_(X, 3)), mul(U, pow_(X, -2))),
        }
        from fracsym.expr import is_zero_exact
        for case, (r_expected, z_expected) in expected.items():
            gens = classified(case)
            gen = gens[0] if case == "1.1" else gens[1]
            red = characteristic_invariants(gen)
            for mine, target in ((red.r_expr, r_expected),
                                 (red.z_expr, z_expected)):
                # exact symbolic equality of the monomial exponents
                ratio_zero = is_zero_exact(add(mine, mul(-1, target)))
                assert ratio_zero, (case, to_text(mine), to_text(target))
        print("\n[criterion 3] all seven (r, z) invariant pairs exact: PASS")


class TestCriterion4:
    def test_exact_targets_cases_22_and_42(self):
        hp = func("h", (r,), order=1)
        hpp = func("h", (r,), order=2)
        hppp = func("h", (r,), order=3)

        # reduction case 2.2 == classification 1.3 (g = k, generic alpha)
        spec = spec_for_case("1.3")
        red = similarity_substitute(
            spec, characteristic_invariants(classified("1.3")[1]))
        report = compare_reduced_forms(red.reduced_ode,
                                       load_printed_form("2.2"))
        assert report.all_equal, [m.as_record() for m in report.mismatches()]
        printed = {to_text(e.monomial): e.printed for e in report.entries}
        assert printed["h(r)^3"] == mul(120, K, pow_(ALPHA, 3))
        assert printed["h(r)^2"] == mul(4, pow_(ALPHA, 3))

        # reduction case 4.2 == classification 3.3 (g = k, alpha = 1/3)
        spec = spec_for_case("3.3")
        red = similarity_substitute(
            spec, characteristic_invariants(classified("3.3")[1]))
        report = compare_reduced_forms(red.reduced_ode,
                                       load_printed_form("4.2"))
        assert report.all_equal, [m.as_record() for m in report.mismatches()]
        third = num(Q(1, 3))
        expected_42 = {
            to_text(pow_(h, 3)): mul(120, K),
            to_text(mul(pow_(r, 3), pow_(hp, 3))): mul(162, K),
            to_text(mul(pow_(r, 2), high := h, pow_(hp, 2))): mul(1296, K),
            to_text(mul(pow_(r, 3), h, hp, hpp)): mul(486, K),
            to_text(mul(r, pow_(h, 2), hp)): mul(1152, K),
            to_text(mul(pow_(r, 2), pow_(h, 2), hpp)): mul(648, K),
            to_text(mul(pow_(r, 3), pow_(h, 2), hppp)): mul(81, K),
        }
        printed = {to_text(e.monomial): e.printed for e in report.entries}
        for mono_text, coeff in expected_42.items():
            assert printed[mono_text] == coeff, mono_text
        print("\n[criterion 4] cases 2.2 and 4.2 coefficient-exact "
              "(120k a^3, 4a^3, 120k, 162k, 1296k, 486k, 1152k, 648k, 81k): "
              "PASS")


class TestCriterion5:
    CASES = [
        # reduction case, classification case, numeric alpha
        ("2.1", "1.2", Q(1, 4)),
        ("3.1", "2.2", Q(1, 2)),
        ("3.2", "2.3", Q(1, 2)),
        ("4.1", "3.2", Q(1, 3)),
    ]

    def test_adjudicated_targets(self):
        rng = random.Random(SEED)
        points = [(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
                  for _ in range(20)]
        binding = {"b": num(2), "k": num(1)}
        for red_key, cls_key, alpha in self.CASES:
            spec_sym = spec_for_case(cls_key)
            red_sym = similarity_substitute(
                spec_sym,
                characteristic_invariants(classify(spec_sym)[1]))
            report = compare_reduced_forms(red_sym.reduced_ode,
                                           load_printed_form(red_key))
            listed = [m.as_record() for m in report.mismatches()]

            # numeric specialization for the grid oracle
            full_binding = dict(binding)
            full_binding["alpha"] = num(alpha)
            from dataclasses import replace
            spec_num = PdeSpec(alpha=num(alpha), m=2, n=3, zeta=1,
                               g=CoeffForm(spec_sym.g.tag, k=num(1), b=num(2)))
            red_num = replace(
                red_sym,
                p=substitute(red_sym.p, full_binding),
                q=substitute(red_sym.q, full_binding),
                normalization_power=substitute(red_sym.normalization_power,
                                               full_binding),
                reduced_ode=substitute(red_sym.reduced_ode, full_binding),
            )
            worst = 0.0
            for h_test in (r, pow_(r, 2), pow_(r, 3)):
                worst = max(worst, reduced_residual_identity_check(
                    spec_num, red_num, h_test, points))
            assert worst <= 1e-8, (red_key, worst)
            print(f"\n[criterion 5] case {red_key}: derived form passes "
                  f"grid oracle (max dev {worst:.2e}); printed-form "
                  f"differences listed: {listed or 'none'}: PASS")


class TestCriterion6:
    def test_kernel_solutions(self):
        rng = random.Random(SEED)
        points = [(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
                  for _ in range(10)]
        for alpha in (Q(1, 4), Q(1, 3), Q(1, 2), Q(3, 4)):
            ks = kernel_solution(alpha, 1)
            assert ks.residual == ZERO
            spec = PdeSpec(alpha=num(alpha),
                           g=CoeffForm(CoeffTag.CONSTANT, k=num(1)))
            residuals = fn.pde_residual_on_grid(spec, ks.expr, points)
            assert all(v == 0.0 for v in residuals), alpha
        print("\n[criterion 6] kernel solution annihilated symbolically and "
              "on the grid for alpha in {1/4, 1/3, 1/2, 3/4}: PASS")


class TestCriterion7:
    def test_gl_matches_power_rule(self):
        for p in (1, 2, 3):
            for a in (0.25, 0.5, 0.75):
                started = time.monotonic()
                grid = fn.Grid.sample(lambda tv: tv ** p, 0.0, 1.0, 10001)
                got = fn.gl_rl_derivative(grid, fn.FracConfig(alpha=a))
                exact = fn.rl_power_rule(p, a, 1.0)
                elapsed = time.monotonic() - started
                assert abs(got - exact) / abs(exact) <= 1e-3, (p, a)
                assert elapsed < 5.0, (p, a, elapsed)

                def err(steps):
                    g2 = fn.Grid.sample(lambda tv: tv ** p, 0.0, 1.0, steps)
                    v = fn.gl_rl_derivative(g2, fn.FracConfig(alpha=a))
                    return abs(v - exact)

                ratio = err(1001) / err(2001)
                assert 1.7 <= ratio <= 2.3, (p, a, ratio)
        print(f"\n[criterion 7] GL vs power rule (9 cases, dt=1e-4, "
              f"backend={fn.GL_BACKEND}): rel err <= 1e-3, halving ratio in "
              "[1.7, 2.3], each under 5s: PASS")


class TestCriterion8:
    def test_translation_universality(self):
        rng = random.Random(SEED)
        tags = [CoeffTag.ARBITRARY, CoeffTag.CONSTANT, CoeffTag.POWER,
                CoeffTag.EXPONENTIAL, CoeffTag.SHIFTED_POWER_23,
                CoeffTag.QUAD_POWER_13]
        for _ in range(50):
            g = CoeffForm(rng.choice(tags),
                          k=num(random_rational(rng, nonzero=True)),
                          b=num(random_rational(rng, nonzero=True)))
            spec = PdeSpec(m=rng.randint(1, 4), n=rng.randint(1, 4),
                           zeta=rng.choice((1, -1)), g=g)
            assert invariance_residual(spec, X_TRANSLATION) == ZERO
        print("\n[criterion 8a] translation universality over 50 seeded "
              "catalog specs: PASS")

    def test_prolongation_cancellation(self):
        rng = random.Random(SEED)
        for _ in range(20):
            c = random_rational(rng, nonzero=True)
            a = random_rational(rng, lo=1, hi=30) / 31
            gen = Generator(0, 1, mul(num(c), U))
            pr = eta_alpha(gen, num(a))
            assert pr.eta_alpha == mul(num(c), fderiv(U, T, num(a)))
        print("[criterion 8b] explicit-RL cancellation over 20 seeded "
              "(c, alpha) rationals: PASS")

    def test_scaling_weight_homogeneity(self):
        for case in ("1.2", "1.3", "2.2", "2.3", "3.2", "3.3"):
            spec = spec_for_case(case)
            scaling = classified(case)[1]
            e, _, a1, c = scaling.normal_form()
            assert scaling_invariance_check(
                spec, ScalingWeights(e, a1, c)), case
        print("[criterion 8c] scaling-weight homogeneity for every "
              "criterion-1 scaling generator: PASS")

    def test_simplify_idempotence_corpus(self):
        rng = random.Random(SEED)
        for _ in range(1000):
            e = random_expr(rng, depth=6)
            s = simplify(e)
            assert simplify(s) == s
        print("[criterion 8d] simplify idempotence over 1000 expressions of "
              "depth <= 6: PASS")

    def test_substitution_evaluation_commutation_corpus(self):
        rng = random.Random(SEED)
        checked = 0
        while checked < 20:
            e = random_expr(rng, depth=4)
            binding = {"x": add(sym("t"), num(random_rational(rng)))}
            point = random_point(rng)
            composed = dict(point)
            try:
                composed["x"] = eval_numeric(binding["x"], point)
                v1 = eval_numeric(substitute(e, binding), point)
                v2 = eval_numeric(e, composed)
            except EvalError:
                continue
            if not math.isfinite(v1) or abs(v1) > 1e9:
                continue
            assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)
            checked += 1
        print("[criterion 8e] substitution/evaluation commutation at 20 "
              "seeded points (rel 1e-12): PASS")

"""Symmetry-engine tests: prolongation, invariance, determining systems, and
the full classification table."""

import math
import random
from fractions import Fraction as Q

import pytest

from conftest import random_rational
from fracsym.calculus import JetContext, diff, total_derivative_t
from fracsym.expr import (
    ZERO, ONE, MINUS_ONE, add, contains_node, contains_symbol, eval_numeric,
    fderiv, func, gammaf, mul, num, pow_, sym,
)
from fracsym.pde import (
    ALPHA, B, T, U, X,
    CoeffForm, CoeffTag, Generator, PdeSpec, ScalingWeights, term_weights,
)
from fracsym.symmetry import (
    OutsideCatalogError, SeriesTerm, UnsupportedAnsatzError,
    classify, determining_system, eta_alpha, generalized_binomial,
    integer_prolongations, invariance_residual, rl_partial_t,
)

CTX = JetContext()
FD_U = fderiv(U, T, ALPHA)
X_TRANSLATION = Generator(0, 1, 0)


def scaling_generator(e, a1, c) -> Generator:
    return Generator.from_coeffs(e, 0, a1, c)


class TestBinomial:
    def test_against_gamma_oracle(self):
        # C(a, m) = Gamma(a+1) / (Gamma(m+1) Gamma(a-m+1)) for rational a
        from fracsym.special import gamma_fn
        rng = random.Random(5)
        for _ in range(10):
            a = random_rational(rng, lo=1, hi=40) / 41  # in (0, 1)
            for m in range(1, 6):
                mine = eval_numeric(generalized_binomial(a, m))
                oracle = (gamma_fn(float(a) + 1)
                          / (math.factorial(m) * gamma_fn(float(a) - m + 1)))
                assert mine == pytest.approx(oracle, rel=1e-10)

    def test_symbolic_form(self):
        got = generalized_binomial(ALPHA, 2)
        assert got == mul(Q(1, 2), add(pow_(ALPHA, 2), mul(-1, ALPHA)))

    @pytest.mark.parametrize("a", [ALPHA, num(Q(1, 3)), num(Q(3, 4)),
                                   num(Q(-5, 2)), num(7)])
    def test_recurrence_matches_product_form(self, a):
        # reference: prod_{j<m} (a - j) / m!, one product per order
        for m in range(9):
            product = mul(num(Q(1, math.factorial(m))),
                          mul(*(add(a, num(-j)) for j in range(m))))
            assert generalized_binomial(a, m) == product, m


class TestRlPartial:
    def test_constant_maps_to_power(self):
        got = rl_partial_t(num(3), ALPHA)
        expected = mul(3, pow_(gammaf(add(1, mul(-1, ALPHA))), MINUS_ONE),
                       pow_(T, mul(-1, ALPHA)))
        assert got == expected

    def test_annihilation_via_gamma_pole(self):
        # RL of t^(a-1) at order a hits Gamma(0): exactly zero
        got = rl_partial_t(pow_(T, num(Q(-1, 2))), num(Q(1, 2)))
        assert got == ZERO

    def test_non_power_dependence_rejected(self):
        with pytest.raises(UnsupportedAnsatzError):
            rl_partial_t(func("exp", (T,)), ALPHA)


class TestEtaAlpha:
    def test_translation_vanishes(self):
        pr = eta_alpha(X_TRANSLATION, ALPHA)
        assert pr.eta_alpha == ZERO
        assert pr.residual_series_terms == ()

    def test_case_12_scaling(self):
        gen = scaling_generator(-1, add(ALPHA, mul(-1, B)),
                                add(mul(2, ALPHA), mul(-1, B)))
        pr = eta_alpha(gen, ALPHA)
        assert pr.eta_alpha == mul(add(mul(3, ALPHA), mul(-1, B)), FD_U)
        assert pr.residual_series_terms == ()

    def test_case_13_scaling(self):
        gen = scaling_generator(-1, ALPHA, mul(2, ALPHA))
        pr = eta_alpha(gen, ALPHA)
        assert pr.eta_alpha == mul(3, ALPHA, FD_U)

    def test_explicit_rl_cancellation_for_cu(self):
        # the d^a(eta)/dt^a and -u d^a(eta_u)/dt^a terms cancel exactly
        rng = random.Random(11)
        for _ in range(20):
            c = random_rational(rng, nonzero=True)
            a = random_rational(rng, lo=1, hi=20) / 21
            gen = Generator(0, 1, mul(num(c), U))
            pr = eta_alpha(gen, num(a))
            assert pr.eta_alpha == mul(num(c), fderiv(U, T, num(a)))

    def test_truncation_changes_nothing_for_ansatz(self):
        gen = scaling_generator(-1, ALPHA, mul(2, ALPHA))
        assert eta_alpha(gen, ALPHA, M=1).eta_alpha \
            == eta_alpha(gen, ALPHA, M=8).eta_alpha

    def test_series_terms_survive_for_t_dependent_xi_x(self):
        gen = Generator(0, T, mul(0, U) + U)  # xi_x = t, eta = u
        pr = eta_alpha(gen, ALPHA, M=3)
        targets = {(s.order, s.target) for s in pr.residual_series_terms}
        assert (1, "u_x") in targets
        assert contains_node(pr.eta_alpha,
                             fderiv(CTX.jet(1, 0), T, add(ALPHA, num(-1))))

    def test_lazy_binomials_match_the_eager_series(self):
        # the series as built before the binomials were made lazy: every
        # C(alpha, 0..M+1) up front, both coefficients at every order
        gen = Generator(pow_(T, 2), mul(pow_(T, 2), X), mul(pow_(T, 2), U))
        M = 4
        eta_u = diff(gen.eta, "u")
        want = []
        dk_xi_t = total_derivative_t(gen.xi_t, CTX)
        dk_xi_x = gen.xi_x
        for m in range(1, M + 1):
            dk_xi_t = total_derivative_t(dk_xi_t, CTX)
            dk_xi_x = total_derivative_t(dk_xi_x, CTX)
            coeff_u = add(
                mul(generalized_binomial(ALPHA, m), diff(eta_u, "t", m)),
                mul(MINUS_ONE, generalized_binomial(ALPHA, m + 1), dk_xi_t))
            if coeff_u != ZERO:
                want.append(SeriesTerm(m, "u", coeff_u))
            coeff_ux = mul(MINUS_ONE, generalized_binomial(ALPHA, m), dk_xi_x)
            if coeff_ux != ZERO:
                want.append(SeriesTerm(m, "u_x", coeff_ux))
        got = eta_alpha(gen, ALPHA, M=M, ctx=CTX).residual_series_terms
        assert got == tuple(want)
        assert {s.order for s in got} == {1, 2}

    def test_non_polynomial_rejected(self):
        gen = Generator(0, pow_(T, num(Q(1, 2))), U)
        with pytest.raises(UnsupportedAnsatzError):
            eta_alpha(gen, ALPHA)


class TestIntegerProlongations:
    def test_translation(self):
        assert integer_prolongations(X_TRANSLATION) == (ZERO, ZERO, ZERO)

    def test_pure_scaling_piece(self):
        gen = Generator(0, X, mul(2, U))
        ex, exx, exxx = integer_prolongations(gen)
        assert ex == CTX.jet(1, 0)
        assert exx == ZERO
        assert exxx == mul(-1, CTX.jet(3, 0))

    def test_case_13_third_prolongation(self):
        gen = scaling_generator(-1, ALPHA, mul(2, ALPHA))
        _, _, exxx = integer_prolongations(gen)
        assert exxx == mul(-1, ALPHA, CTX.jet(3, 0))


class TestInvarianceResidual:
    @pytest.mark.parametrize("tag", [
        CoeffTag.ARBITRARY, CoeffTag.CONSTANT, CoeffTag.POWER,
        CoeffTag.EXPONENTIAL, CoeffTag.SHIFTED_POWER_23,
        CoeffTag.QUAD_POWER_13,
    ])
    def test_translation_is_always_a_symmetry(self, tag):
        spec = PdeSpec(g=CoeffForm(tag))
        assert invariance_residual(spec, X_TRANSLATION) == ZERO

    def test_case_12_generator_is_symmetry(self):
        spec = PdeSpec(g=CoeffForm(CoeffTag.POWER))
        gen = scaling_generator(-1, add(ALPHA, mul(-1, B)),
                                add(mul(2, ALPHA), mul(-1, B)))
        assert invariance_residual(spec, gen) == ZERO

    def test_t_scaling_alone_is_not(self):
        spec = PdeSpec(g=CoeffForm(CoeffTag.CONSTANT))
        assert invariance_residual(spec, Generator(T, 0, 0)) != ZERO

    def test_translation_universality_seeded(self):
        rng = random.Random(314159)
        tags = [CoeffTag.ARBITRARY, CoeffTag.CONSTANT, CoeffTag.POWER,
                CoeffTag.EXPONENTIAL, CoeffTag.SHIFTED_POWER_23,
                CoeffTag.QUAD_POWER_13]
        for _ in range(50):
            tag = rng.choice(tags)
            g = CoeffForm(tag, k=num(random_rational(rng, nonzero=True)),
                          b=num(random_rational(rng, nonzero=True)))
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            spec = PdeSpec(m=m, n=n, zeta=rng.choice((1, -1)), g=g)
            assert invariance_residual(spec, X_TRANSLATION) == ZERO


class TestDeterminingSystem:
    def test_constant_g_solution_pattern(self):
        spec = PdeSpec(g=CoeffForm(CoeffTag.CONSTANT))
        ds = determining_system(spec)
        # the proof's solution: a0 free, a1 = alpha*s, e = -s, c = 2*alpha*s
        assert ds.is_solution(ONE, ZERO, ZERO, ZERO)
        assert ds.is_solution(ZERO, ALPHA, MINUS_ONE, mul(2, ALPHA))
        assert not ds.is_solution(ZERO, ALPHA, MINUS_ONE, mul(3, ALPHA))

    def test_power_g_solution_pattern(self):
        spec = PdeSpec(g=CoeffForm(CoeffTag.POWER))
        ds = determining_system(spec)
        assert ds.is_solution(ZERO, add(ALPHA, mul(-1, B)), MINUS_ONE,
                              add(mul(2, ALPHA), mul(-1, B)))

    def test_solve_reverifies_at_the_configured_truncation(self, monkeypatch):
        import fracsym.symmetry as symmetry
        seen = []
        real = symmetry.invariance_residual

        def spy(spec, gen, M=symmetry.DEFAULT_TRUNCATION):
            seen.append(M)
            return real(spec, gen, M)

        monkeypatch.setattr(symmetry, "invariance_residual", spy)
        gens = classify(PdeSpec(g=CoeffForm(CoeffTag.POWER)), M=2)
        assert len(gens) == 2
        # one call builds the system, one re-verifies each candidate
        assert seen == [2, 2, 2]

    def test_arbitrary_g_only_translation(self):
        spec = PdeSpec(g=CoeffForm(CoeffTag.ARBITRARY))
        ds = determining_system(spec)
        gens = ds.solve()
        assert len(gens) == 1
        assert gens[0].proportional_to(X_TRANSLATION)

    def test_equations_are_linear_homogeneous(self):
        spec = PdeSpec(g=CoeffForm(CoeffTag.POWER))
        ds = determining_system(spec)
        assert ds.equations
        assert ds.is_solution(ZERO, ZERO, ZERO, ZERO)
        for eq in ds.equations:
            for unknown in ds.unknowns:
                assert not contains_symbol(diff(eq, unknown),
                                           ("_a0", "_a1", "_e", "_c"))
        for eq in ds.equations:
            # zero ansatz annihilates every equation (homogeneity)
            from fracsym.expr import substitute
            assert substitute(eq, {"_a0": ZERO, "_a1": ZERO,
                                   "_e": ZERO, "_c": ZERO}) == ZERO


EXPECTED_BASES = {
    "1.1": (PdeSpec(g=CoeffForm(CoeffTag.ARBITRARY)),
            [Generator(0, 1, 0)]),
    "1.2": (PdeSpec(g=CoeffForm(CoeffTag.POWER)),
            [Generator(0, 1, 0),
             Generator(mul(-1, T), mul(add(ALPHA, mul(-1, B)), X),
                       mul(add(mul(2, ALPHA), mul(-1, B)), U))]),
    "1.3": (PdeSpec(g=CoeffForm(CoeffTag.CONSTANT)),
            [Generator(0, 1, 0),
             Generator(mul(-1, T), mul(ALPHA, X), mul(2, ALPHA, U))]),
    "2.1": (PdeSpec(alpha=Q(1, 2), g=CoeffForm(CoeffTag.EXPONENTIAL)),
            [Generator(0, 1, 0)]),
    "2.2": (PdeSpec(alpha=Q(1, 2), g=CoeffForm(CoeffTag.POWER)),
            [Generator(0, 1, 0),
             Generator(mul(2, T), mul(add(mul(2, B), -1), X),
                       mul(2, add(B, -1), U))]),
    "2.3": (PdeSpec(alpha=Q(1, 2), g=CoeffForm(CoeffTag.CONSTANT)),
            [Generator(0, 1, 0),
             Generator(mul(-2, T), X, mul(2, U))]),
    "3.1": (PdeSpec(alpha=Q(1, 3), g=CoeffForm(CoeffTag.SHIFTED_POWER_23)),
            [Generator(0, 1, 0)]),
    "3.2": (PdeSpec(alpha=Q(1, 3), g=CoeffForm(CoeffTag.POWER)),
            [Generator(0, 1, 0),
             Generator(mul(3, T), mul(add(mul(3, B), -1), X),
                       mul(add(mul(3, B), -2), U))]),
    "3.3": (PdeSpec(alpha=Q(1, 3), g=CoeffForm(CoeffTag.CONSTANT)),
            [Generator(0, 1, 0),
             Generator(mul(-3, T), X, mul(2, U))]),
}


class TestClassify:
    @pytest.mark.parametrize("case", sorted(EXPECTED_BASES))
    def test_matches_printed_table_up_to_scalars(self, case):
        spec, expected = EXPECTED_BASES[case]
        got = classify(spec)
        assert len(got) == len(expected)
        for mine, printed in zip(got, expected):
            assert mine.proportional_to(printed), (case, mine.as_text_triple())

    def test_quad_power_form(self):
        spec = PdeSpec(alpha=Q(1, 3), g=CoeffForm(CoeffTag.QUAD_POWER_13))
        got = classify(spec)
        assert len(got) == 1 and got[0].proportional_to(X_TRANSLATION)

    def test_special_forms_rejected_off_one_third(self):
        with pytest.raises(OutsideCatalogError):
            classify(PdeSpec(alpha=Q(1, 2),
                             g=CoeffForm(CoeffTag.SHIFTED_POWER_23)))

    def test_classify_output_is_verified(self):
        for case, (spec, _) in EXPECTED_BASES.items():
            for gen in classify(spec):
                assert invariance_residual(spec, gen) == ZERO, case

    def test_perturbed_generators_fail(self):
        spec, expected = EXPECTED_BASES["1.2"]
        scaling = classify(spec)[1]
        e, a0, a1, c = scaling.normal_form()
        for idx, (ev, a1v, cv) in enumerate([
                (add(e, ONE), a1, c),
                (e, add(a1, ONE), c),
                (e, a1, add(c, ONE))]):
            perturbed = Generator.from_coeffs(ev, a0, a1v, cv)
            assert invariance_residual(spec, perturbed) != ZERO, idx

    def test_translation_direction_stays_inside_algebra(self):
        # adding the translation to a scaling generator stays a symmetry
        spec, _ = EXPECTED_BASES["1.3"]
        scaling = classify(spec)[1]
        e, _, a1, c = scaling.normal_form()
        combined = Generator.from_coeffs(e, ONE, a1, c)
        assert invariance_residual(spec, combined) == ZERO


class TestWeightConsistency:
    @pytest.mark.parametrize("case", ["1.2", "1.3", "2.2", "2.3", "3.2", "3.3"])
    def test_fd_coefficient_equals_term_weight(self, case):
        from fracsym.calculus import split_by
        from fracsym.expr import FDeriv
        spec, _ = EXPECTED_BASES[case]
        scaling = classify(spec)[1]
        e, _, a1, c = scaling.normal_form()
        pr = eta_alpha(scaling, spec.alpha)
        groups = split_by(pr.eta_alpha, lambda f: isinstance(f, FDeriv))
        fd_node = fderiv(U, T, spec.alpha)
        fd_coeff = groups.get(fd_node, ZERO)
        weights = term_weights(spec, ScalingWeights(e, a1, c))
        assert fd_coeff == weights[0], case

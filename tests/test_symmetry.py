"""Symmetry-engine tests: prolongation, invariance, determining systems, and
the full classification table."""

import math
import random
from fractions import Fraction as Q

import pytest

from conftest import catalog_g, random_rational, subtrees
from fracsym.calculus import diff, jet, split_by
from fracsym.cases import CLASSIFICATION_CASES, CoeffTag, outside_catalog
from fracsym.expr import (
    ZERO, ONE, MINUS_ONE, FDeriv, add, contains_symbol, eval_numeric,
    fderiv, func, gammaf, is_zero_exact, mul, num, pow_, substitute, sym,
    to_text,
)
from fracsym.parser import parse_expression
from fracsym.pde import (
    ALPHA, B, T, U, X, Generator, PdeSpec, term_weights,
)
from fracsym.symmetry import (
    SymmetryError, UnsupportedAnsatzError, classify, determining_system,
    eta_alpha, generalized_binomial, integer_prolongations,
    invariance_residual, rl_partial_t,
)

FD_U = fderiv(U, T, ALPHA)
X_TRANSLATION = Generator(0, 1, 0)


def scaling_generator(e, a1, c) -> Generator:
    return Generator.from_coeffs(e, 0, a1, c)


def series_terms(eta, alpha=ALPHA) -> dict:
    """{(m, target): coeff} of the Leibniz-series terms of an eta_alpha,
    read off its D^(alpha-m) nodes with m >= 1; target is "u" or "u_x"."""
    out = {}
    for mono, coeff in split_by(eta, lambda f: isinstance(f, FDeriv)).items():
        if not isinstance(mono, FDeriv):
            continue
        m = add(alpha, mul(MINUS_ONE, mono.alpha))
        if m != ZERO:
            out[(int(m.c), mono.expr.name)] = coeff
    return out


class TestBinomial:
    def test_against_gamma_oracle(self):
        # C(a, m) = Gamma(a+1) / (Gamma(m+1) Gamma(a-m+1)) for rational a
        rng = random.Random(5)
        for _ in range(10):
            a = random_rational(rng, lo=1, hi=40) / 41  # in (0, 1)
            for m in range(1, 6):
                mine = eval_numeric(generalized_binomial(a, m))
                oracle = (math.gamma(float(a) + 1)
                          / (math.factorial(m) * math.gamma(float(a) - m + 1)))
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
        ea = eta_alpha(X_TRANSLATION, ALPHA)
        assert ea == ZERO
        assert series_terms(ea) == {}

    def test_case_12_scaling(self):
        gen = scaling_generator(-1, add(ALPHA, mul(-1, B)),
                                add(mul(2, ALPHA), mul(-1, B)))
        ea = eta_alpha(gen, ALPHA)
        assert ea == mul(add(mul(3, ALPHA), mul(-1, B)), FD_U)
        assert series_terms(ea) == {}

    def test_case_13_scaling(self):
        gen = scaling_generator(-1, ALPHA, mul(2, ALPHA))
        assert eta_alpha(gen, ALPHA) == mul(3, ALPHA, FD_U)

    def test_explicit_rl_cancellation_for_cu(self):
        # the d^a(eta)/dt^a and -u d^a(eta_u)/dt^a terms cancel exactly
        rng = random.Random(11)
        for _ in range(20):
            c = random_rational(rng, nonzero=True)
            a = random_rational(rng, lo=1, hi=20) / 21
            gen = Generator(0, 1, mul(num(c), U))
            assert eta_alpha(gen, num(a)) == mul(num(c),
                                                 fderiv(U, T, num(a)))

    def test_series_terms_survive_for_t_dependent_xi_x(self):
        gen = Generator(0, T, U)  # xi_x = t, eta = u
        ea = eta_alpha(gen, ALPHA)
        assert (1, "u_x") in series_terms(ea)
        assert fderiv(jet(1, 0), T, add(ALPHA, num(-1))) in subtrees(ea)

    def test_lazy_binomials_match_the_eager_series(self):
        # the series as built before the binomials were made lazy: every
        # C(alpha, 0..M+1) up front, both coefficients at every order up to
        # an M past the generator's t-degree; the series ends by itself
        cases = [
            (Generator(pow_(T, 2), mul(pow_(T, 2), X), mul(pow_(T, 2), U)),
             {1, 2}),
            (Generator(pow_(T, 9), 0, 0), set(range(1, 9))),
        ]
        M = 12
        for gen, orders in cases:
            eta_u = diff(gen.eta, "u")
            want = {}
            dk_xi_t = diff(gen.xi_t, "t", total=True)
            dk_xi_x = gen.xi_x
            for m in range(1, M + 1):
                dk_xi_t = diff(dk_xi_t, "t", total=True)
                dk_xi_x = diff(dk_xi_x, "t", total=True)
                coeff_u = add(
                    mul(generalized_binomial(ALPHA, m), diff(eta_u, "t", m)),
                    mul(MINUS_ONE, generalized_binomial(ALPHA, m + 1),
                        dk_xi_t))
                if coeff_u != ZERO:
                    want[(m, "u")] = coeff_u
                coeff_ux = mul(MINUS_ONE, generalized_binomial(ALPHA, m),
                               dk_xi_x)
                if coeff_ux != ZERO:
                    want[(m, "u_x")] = coeff_ux
            got = series_terms(eta_alpha(gen, ALPHA))
            assert got == want
            assert {m for m, _ in got} == orders

    def test_series_ends_within_its_bound_or_is_refused(self):
        from fracsym.symmetry import MAX_SERIES_ORDER
        top = MAX_SERIES_ORDER + 1  # D_t^(m+1) xi_t is nonzero to m = MAX
        got = series_terms(eta_alpha(Generator(pow_(T, top), 0, 0), ALPHA))
        assert {m for m, _ in got} == set(range(1, top))
        with pytest.raises(UnsupportedAnsatzError, match="xi_t is too high"):
            eta_alpha(Generator(pow_(T, top + 1), 0, 0), ALPHA)
        with pytest.raises(UnsupportedAnsatzError,
                           match="xi_x and eta is too high"):
            eta_alpha(Generator(0, pow_(T, top), mul(pow_(T, top), U)),
                      ALPHA)

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
        assert ex == jet(1, 0)
        assert exx == ZERO
        assert exxx == mul(-1, jet(3, 0))

    def test_case_13_third_prolongation(self):
        gen = scaling_generator(-1, ALPHA, mul(2, ALPHA))
        _, _, exxx = integer_prolongations(gen)
        assert exxx == mul(-1, ALPHA, jet(3, 0))


class TestInvarianceResidual:
    @pytest.mark.parametrize("tag", [
        CoeffTag.ARBITRARY, CoeffTag.CONSTANT, CoeffTag.POWER,
        CoeffTag.EXPONENTIAL, CoeffTag.SHIFTED_POWER_23,
        CoeffTag.QUAD_POWER_13,
    ])
    def test_translation_is_always_a_symmetry(self, tag):
        spec = PdeSpec(g=catalog_g(tag))
        assert invariance_residual(spec, X_TRANSLATION) == ZERO

    def test_case_12_generator_is_symmetry(self):
        spec = PdeSpec(g=catalog_g(CoeffTag.POWER))
        gen = scaling_generator(-1, add(ALPHA, mul(-1, B)),
                                add(mul(2, ALPHA), mul(-1, B)))
        assert invariance_residual(spec, gen) == ZERO

    def test_t_scaling_alone_is_not(self):
        spec = PdeSpec(g=catalog_g(CoeffTag.CONSTANT))
        assert invariance_residual(spec, Generator(T, 0, 0)) != ZERO

    def test_translation_universality_seeded(self):
        rng = random.Random(314159)
        tags = [CoeffTag.ARBITRARY, CoeffTag.CONSTANT, CoeffTag.POWER,
                CoeffTag.EXPONENTIAL, CoeffTag.SHIFTED_POWER_23,
                CoeffTag.QUAD_POWER_13]
        for _ in range(50):
            tag = rng.choice(tags)
            g = catalog_g(tag, k=num(random_rational(rng, nonzero=True)),
                          b=num(random_rational(rng, nonzero=True)))
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            spec = PdeSpec(m=m, n=n, zeta=rng.choice((1, -1)), g=g)
            assert invariance_residual(spec, X_TRANSLATION) == ZERO


def rows_annihilate(ds, a0, a1, e, c) -> bool:
    """ds.rows . (a0, a1, e, c) == 0, row by row, exactly."""
    v = (a0, a1, e, c)
    return all(is_zero_exact(add(*(mul(x, y) for x, y in zip(row, v))))
               for row in ds.rows)


class TestDeterminingSystem:
    def test_constant_g_solution_pattern(self):
        spec = PdeSpec(g=catalog_g(CoeffTag.CONSTANT))
        ds = determining_system(spec)
        # the proof's solution: a0 free, a1 = alpha*s, e = -s, c = 2*alpha*s
        assert rows_annihilate(ds, ONE, ZERO, ZERO, ZERO)
        assert rows_annihilate(ds, ZERO, ALPHA, MINUS_ONE, mul(2, ALPHA))
        assert not rows_annihilate(ds, ZERO, ALPHA, MINUS_ONE, mul(3, ALPHA))

    def test_power_g_solution_pattern(self):
        spec = PdeSpec(g=catalog_g(CoeffTag.POWER))
        ds = determining_system(spec)
        assert rows_annihilate(ds, ZERO, add(ALPHA, mul(-1, B)), MINUS_ONE,
                               add(mul(2, ALPHA), mul(-1, B)))

    def test_solve_reverifies_on_the_one_residual_it_built(self,
                                                           monkeypatch):
        import fracsym.symmetry as symmetry
        seen = []
        real = symmetry.invariance_residual

        def spy(spec, gen):
            seen.append(gen)
            return real(spec, gen)

        monkeypatch.setattr(symmetry, "invariance_residual", spy)
        spec = PdeSpec(g=catalog_g(CoeffTag.POWER))
        gens = classify(spec)
        assert len(gens) == 2
        # one call builds the system; candidates are verified on its residual
        a0, a1, e, c = symmetry.DeterminingSystem.unknowns
        ansatz = Generator.from_coeffs(e, a0, a1, c)
        assert seen == [ansatz]
        ds = determining_system(spec)
        assert ds.residual == real(spec, ansatz)

    def test_arbitrary_g_only_translation(self):
        spec = PdeSpec(g=catalog_g(CoeffTag.ARBITRARY))
        ds = determining_system(spec)
        gens = ds.solve()
        assert len(gens) == 1
        assert gens[0].proportional_to(X_TRANSLATION)

    def test_equations_are_linear_homogeneous(self):
        spec = PdeSpec(g=catalog_g(CoeffTag.POWER))
        ds = determining_system(spec)
        assert ds.equations
        assert rows_annihilate(ds, ZERO, ZERO, ZERO, ZERO)
        names = tuple(unknown.name for unknown in ds.unknowns)
        for eq in ds.equations:
            for unknown in ds.unknowns:
                assert not contains_symbol(diff(eq, unknown), names)
        for eq in ds.equations:
            # zero ansatz annihilates every equation (homogeneity)
            from fracsym.expr import substitute
            assert substitute(eq, dict.fromkeys(names, ZERO)) == ZERO


class TestStoredResidual:
    """Verification substitutes candidates into the residual of the
    generic ansatz instead of rebuilding the prolongation."""

    SHAPES = [(2, 3, 1), (2, 3, -1), (3, 1, 1), (1, 4, 1), (4, 2, -1)]

    @pytest.mark.parametrize("case", sorted(CLASSIFICATION_CASES))
    def test_substitution_equals_rebuilt_residual(self, case):
        rng = random.Random(case)
        for m, n, zeta in self.SHAPES:
            spec = CLASSIFICATION_CASES[case].spec(m=m, n=n, zeta=zeta)
            ds = determining_system(spec)
            candidates = [gen.normal_form() for gen in classify(spec)]
            candidates.append(tuple(num(random_rational(rng))
                                    for _ in range(4)))
            candidates.append((ALPHA, num(2), add(B, 1), mul(3, sym("k"))))
            for e, a0, a1, c in candidates:
                binding = {u.name: v for u, v in
                           zip(ds.unknowns, (a0, a1, e, c))}
                rebuilt = invariance_residual(
                    spec, Generator.from_coeffs(e, a0, a1, c))
                assert substitute(ds.residual, binding) == rebuilt, \
                    (case, m, n, zeta, binding)

    def test_perturbed_scaling_is_refused(self, monkeypatch):
        import fracsym.symmetry as symmetry
        spec, expected = EXPECTED_BASES["1.2"]
        real = symmetry.DeterminingSystem.nullspace

        def perturbed(self):
            return [(a0, add(a1, ONE), e, c) if e == MINUS_ONE
                    else (a0, a1, e, c)
                    for a0, a1, e, c in real(self)]

        monkeypatch.setattr(symmetry.DeterminingSystem, "nullspace",
                            perturbed)
        with pytest.raises(SymmetryError, match=(
                r"^nullspace vector fails re-verification: "
                r"-t; x \+ alpha\*x - b\*x; 2\*alpha\*u - b\*u$")):
            classify(spec)


class TestSympyNullspace:
    """The basis size and every basis vector against SymPy's rank and
    matrix product on the same coefficient matrix."""

    SHAPES = TestStoredResidual.SHAPES + [(1, 1, 1), (2, 4, 1)]

    @pytest.mark.parametrize("case", sorted(CLASSIFICATION_CASES))
    def test_rank_and_kernel(self, case):
        sympy = pytest.importorskip("sympy")
        names = {name: sympy.Symbol(name) for name in ("alpha", "b", "k")}

        def parse(e):
            return sympy.parse_expr(to_text(e).replace("^", "**"),
                                    local_dict=names)

        for m, n, zeta in self.SHAPES:
            spec = CLASSIFICATION_CASES[case].spec(m=m, n=n, zeta=zeta)
            matrix = sympy.Matrix([[parse(x) for x in row]
                                   for row in determining_system(spec).rows])
            gens = classify(spec)
            assert len(gens) == 4 - matrix.rank(), (case, m, n, zeta)
            for gen in gens:
                e, a0, a1, c = gen.normal_form()
                vector = sympy.Matrix([parse(x) for x in (a0, a1, e, c)])
                assert sympy.simplify(matrix * vector) \
                    == sympy.zeros(matrix.rows, 1), (case, m, n, zeta)


class TestDegenerateSpecs:
    """On 3m - n - 2 = 0 the scaling x -> lam^(m-1)*x, u -> lam*u keeps all
    three terms at one weight, so it joins the translation in every case
    and replaces the t-scaling unless b = 2*alpha.  Each generator has a
    zero invariance residual."""

    @pytest.mark.parametrize("case", sorted(CLASSIFICATION_CASES))
    @pytest.mark.parametrize("m, n, extra", [
        (1, 1, Generator(0, 0, U)),
        (2, 4, Generator(0, X, U)),
    ])
    def test_t_free_scaling(self, case, m, n, extra):
        spec = CLASSIFICATION_CASES[case].spec(m=m, n=n)
        got = classify(spec)
        assert got == [X_TRANSLATION, extra]
        for gen in got:
            assert invariance_residual(spec, gen) == ZERO

    def test_power_at_b_equal_two_alpha_has_three(self):
        spec = PdeSpec(m=2, n=4, g=catalog_g(CoeffTag.POWER, b=mul(2, ALPHA)))
        got = classify(spec)
        assert got == [X_TRANSLATION,
                       Generator(mul(-1, T), mul(-1, ALPHA, X), 0),
                       Generator(0, X, U)]
        for gen in got:
            assert invariance_residual(spec, gen) == ZERO

    @pytest.mark.parametrize("tag", [CoeffTag.SHIFTED_POWER_23,
                                     CoeffTag.QUAD_POWER_13])
    def test_special_form_at_b_zero_is_a_power(self, tag):
        # b = 0 makes g = k*t^(2/3): the power form at b = 2*alpha
        spec = PdeSpec(alpha=Q(1, 3), g=catalog_g(tag, b=0))
        got = classify(spec)
        assert got == [X_TRANSLATION,
                       Generator(mul(-1, T), mul(Q(-1, 3), X), 0)]
        for gen in got:
            assert invariance_residual(spec, gen) == ZERO


EXPECTED_BASES = {
    "1.1": (PdeSpec(g=catalog_g(CoeffTag.ARBITRARY)),
            [Generator(0, 1, 0)]),
    "1.2": (PdeSpec(g=catalog_g(CoeffTag.POWER)),
            [Generator(0, 1, 0),
             Generator(mul(-1, T), mul(add(ALPHA, mul(-1, B)), X),
                       mul(add(mul(2, ALPHA), mul(-1, B)), U))]),
    "1.3": (PdeSpec(g=catalog_g(CoeffTag.CONSTANT)),
            [Generator(0, 1, 0),
             Generator(mul(-1, T), mul(ALPHA, X), mul(2, ALPHA, U))]),
    "2.1": (PdeSpec(alpha=Q(1, 2), g=catalog_g(CoeffTag.EXPONENTIAL)),
            [Generator(0, 1, 0)]),
    "2.2": (PdeSpec(alpha=Q(1, 2), g=catalog_g(CoeffTag.POWER)),
            [Generator(0, 1, 0),
             Generator(mul(2, T), mul(add(mul(2, B), -1), X),
                       mul(2, add(B, -1), U))]),
    "2.3": (PdeSpec(alpha=Q(1, 2), g=catalog_g(CoeffTag.CONSTANT)),
            [Generator(0, 1, 0),
             Generator(mul(-2, T), X, mul(2, U))]),
    "3.1": (PdeSpec(alpha=Q(1, 3), g=catalog_g(CoeffTag.SHIFTED_POWER_23)),
            [Generator(0, 1, 0)]),
    "3.2": (PdeSpec(alpha=Q(1, 3), g=catalog_g(CoeffTag.POWER)),
            [Generator(0, 1, 0),
             Generator(mul(3, T), mul(add(mul(3, B), -1), X),
                       mul(add(mul(3, B), -2), U))]),
    "3.3": (PdeSpec(alpha=Q(1, 3), g=catalog_g(CoeffTag.CONSTANT)),
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
        spec = PdeSpec(alpha=Q(1, 3), g=catalog_g(CoeffTag.QUAD_POWER_13))
        got = classify(spec)
        assert len(got) == 1 and got[0].proportional_to(X_TRANSLATION)

    def test_special_forms_rejected_off_one_third(self):
        """The catalog refuses the form; the engine still derives its
        basis, the translation alone."""
        spec = PdeSpec(alpha=Q(1, 2), g=catalog_g(CoeffTag.SHIFTED_POWER_23))
        assert outside_catalog(spec) == \
            "g-form shifted-power-2/3 is cataloged only at alpha = 1/3"
        got = classify(spec)
        assert len(got) == 1 and got[0].proportional_to(X_TRANSLATION)

    @pytest.mark.parametrize("text", ["t^2 + 1", "sin(t)", "k*t^b + 1"])
    def test_a_g_outside_the_catalog_has_a_basis(self, text):
        """The model takes any g(t); off the catalog the engine derives the
        translation alone."""
        spec = PdeSpec(g=parse_expression(text))
        got = classify(spec)
        assert [gen.as_text_triple() for gen in got] == [("0", "1", "0")]
        assert invariance_residual(spec, got[0]) == ZERO

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
        spec, _ = EXPECTED_BASES[case]
        scaling = classify(spec)[1]
        e, _, a1, c = scaling.normal_form()
        groups = split_by(eta_alpha(scaling, spec.alpha),
                          lambda f: isinstance(f, FDeriv))
        fd_node = fderiv(U, T, spec.alpha)
        fd_coeff = groups.get(fd_node, ZERO)
        weights = term_weights(spec, e, a1, c)
        assert fd_coeff == weights[0], case

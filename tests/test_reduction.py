"""Reduction-engine tests: invariants, substitution, adjudication, kernel."""

import random
from fractions import Fraction as Q

import pytest

from conftest import PAPER_SECTIONS, paper_print
from fracsym.calculus import collect_terms
from fracsym.cases import (
    classification_case, load_printed_form, spec_for_case,
)
from fracsym.expr import (
    ZERO, MINUS_ONE, add, eval_numeric, fderiv, func, gammaf,
    is_zero_exact, mul, num, pow_, substitute, sym, to_text,
)
from fracsym.fracnum import (
    fode_residual_on_grid, pde_residual_on_grid, relative_deviation,
    rl_power_rule,
)
from fracsym.pde import (
    ALPHA, B, K, T, U, X, CoeffForm, CoeffTag, Generator, PdeSpec,
)
from fracsym.reduction import (
    ReductionError, characteristic_invariants, compare_reduced_forms,
    kernel_solution, reduced_residual_identity_check, similarity_substitute,
)
from fracsym.symmetry import classify, rl_partial_t

r = sym("r")
h = func("h", (r,))
hp = func("h", (r,), order=1)
hpp = func("h", (r,), order=2)
hppp = func("h", (r,), order=3)


def scaling_of(case_key: str) -> Generator:
    spec = spec_for_case(case_key)
    return [g for g in classify(spec) if g.xi_t != ZERO][0]


ACCEPTANCE_INVARIANTS = {
    # case -> (q, p) exponents of r = t*x^q, z = u*x^(-p)
    "1.2": (pow_(add(ALPHA, mul(-1, B)), MINUS_ONE),
            mul(add(mul(2, ALPHA), mul(-1, B)),
                pow_(add(ALPHA, mul(-1, B)), MINUS_ONE))),
    "1.3": (pow_(ALPHA, MINUS_ONE), num(2)),
    "2.2": (mul(2, pow_(add(1, mul(-2, B)), MINUS_ONE)),
            mul(add(2, mul(-2, B)), pow_(add(1, mul(-2, B)), MINUS_ONE))),
    "2.3": (num(2), num(2)),
    "3.2": (mul(3, pow_(add(1, mul(-3, B)), MINUS_ONE)),
            mul(add(2, mul(-3, B)), pow_(add(1, mul(-3, B)), MINUS_ONE))),
    "3.3": (num(3), num(2)),
}


class TestCharacteristicInvariants:
    def test_translation(self):
        red = characteristic_invariants(Generator(0, 1, 0))
        assert red.translation_case
        assert red.r_expr == T and red.z_expr == U

    def test_x_and_u_scaling_is_not_the_translation(self):
        # q = 0 as for the translation, but p = 1: z = u/x
        red = characteristic_invariants(Generator(0, X, U))
        assert (red.p, red.q) == (num(1), ZERO)
        assert not red.translation_case

    def test_case_21_printed_invariants(self):
        gen = Generator.from_coeffs(-1, 0, add(ALPHA, mul(-1, B)),
                                    add(mul(2, ALPHA), mul(-1, B)))
        red = characteristic_invariants(gen)
        q, p = ACCEPTANCE_INVARIANTS["1.2"]
        assert is_zero_exact(add(red.q, mul(-1, q)))
        assert is_zero_exact(add(red.p, mul(-1, p)))

    def test_case_32_concrete(self):
        gen = Generator.from_coeffs(-2, 0, 1, 2)
        red = characteristic_invariants(gen)
        assert red.r_expr == mul(T, pow_(X, 2))
        assert red.z_expr == mul(U, pow_(X, -2))

    @pytest.mark.parametrize("case", sorted(ACCEPTANCE_INVARIANTS))
    def test_every_scaling_case_exactly(self, case):
        red = characteristic_invariants(scaling_of(case))
        q, p = ACCEPTANCE_INVARIANTS[case]
        assert is_zero_exact(add(red.q, mul(-1, q))), case
        assert is_zero_exact(add(red.p, mul(-1, p))), case

    def test_mixed_translation_scaling_rejected(self):
        gen = Generator.from_coeffs(-1, 1, ALPHA, mul(2, ALPHA))
        with pytest.raises(ReductionError):
            characteristic_invariants(gen)

    def test_invariants_numerically_invariant(self):
        # scaling t, x, u by (lam^w_t, lam^w_x, lam^w_u) fixes r and z
        rng = random.Random(77)
        for case in ("1.3", "2.3", "3.3", "1.2"):
            gen = scaling_of(case)
            e, _, a1, c = gen.normal_form()
            red = characteristic_invariants(gen)
            point0 = {"x": 1.3, "t": 0.8, "u": 1.9,
                      "alpha": 0.4, "b": 2.0, "k": 1.0}
            wt, wx, wu = (eval_numeric(w, point0) for w in (e, a1, c))
            for _ in range(10):
                lam = rng.uniform(0.5, 2.0)
                scaled = dict(point0)
                scaled["t"] = point0["t"] * lam ** wt
                scaled["x"] = point0["x"] * lam ** wx
                scaled["u"] = point0["u"] * lam ** wu
                for inv in (red.r_expr, red.z_expr):
                    v0 = eval_numeric(inv, point0)
                    v1 = eval_numeric(inv, scaled)
                    assert v1 == pytest.approx(v0, rel=1e-10), case


class TestSimilaritySubstitute:
    def test_translation_reduces_to_bare_fd(self):
        spec = spec_for_case("1.1")
        red = similarity_substitute(
            spec, characteristic_invariants(Generator(0, 1, 0)))
        assert red.reduced_ode == fderiv(h, r, ALPHA)
        assert red.normalization_power == ZERO

    def test_case_22_exact_coefficients(self):
        # after scaling by alpha^3, the stated coefficients appear exactly
        spec = spec_for_case("1.3")
        red = similarity_substitute(
            spec, characteristic_invariants(scaling_of("1.3")))
        scaled = mul(pow_(ALPHA, 3), red.reduced_ode)
        groups = collect_terms(scaled, [
            fderiv(h, r, ALPHA), mul(r, h, hp), pow_(h, 2), pow_(h, 3),
            mul(pow_(r, 3), pow_(hp, 3)), mul(pow_(r, 2), h, pow_(hp, 2)),
            mul(pow_(r, 3), h, hp, hpp), mul(r, pow_(h, 2), hp),
            mul(pow_(r, 2), pow_(h, 2), hpp),
            mul(pow_(r, 3), pow_(h, 2), hppp),
        ])
        assert groups[fderiv(h, r, ALPHA)] == pow_(ALPHA, 3)
        assert groups[mul(r, h, hp)] == mul(2, pow_(ALPHA, 2))
        assert groups[pow_(h, 2)] == mul(4, pow_(ALPHA, 3))
        assert groups[pow_(h, 3)] == mul(120, K, pow_(ALPHA, 3))

    def test_case_32_spot_coefficients(self):
        # normalized to the stored FD coefficient 1/4: h^3 -> 30k, r^3 h'^3 -> 12k
        spec = spec_for_case("2.3")
        red = similarity_substitute(
            spec, characteristic_invariants(scaling_of("2.3")))
        scaled = mul(num(Q(1, 4)), red.reduced_ode)
        half = num(Q(1, 2))
        groups = collect_terms(scaled, [
            fderiv(h, r, half), mul(r, h, hp), pow_(h, 2), pow_(h, 3),
            mul(pow_(r, 3), pow_(hp, 3)), mul(pow_(r, 2), h, pow_(hp, 2)),
            mul(pow_(r, 3), h, hp, hpp), mul(r, pow_(h, 2), hp),
            mul(pow_(r, 2), pow_(h, 2), hpp),
            mul(pow_(r, 3), pow_(h, 2), hppp),
        ])
        assert groups[pow_(h, 3)] == mul(30, K)
        assert groups[mul(pow_(r, 3), pow_(hp, 3))] == mul(12, K)

    def test_reduced_ode_is_x_and_t_free(self):
        for case in ("1.2", "1.3", "2.2", "2.3", "3.2", "3.3"):
            spec = spec_for_case(case)
            red = similarity_substitute(
                spec, characteristic_invariants(scaling_of(case)))
            text = to_text(red.reduced_ode)
            assert "x" not in text
            assert "t" not in text.replace("alpha", "").replace("fdiff", "")


class TestCompareReducedForms:
    @pytest.mark.parametrize("cls_key,red_key", [
        ("1.2", "2.1"), ("1.3", "2.2"), ("2.2", "3.1"),
        ("2.3", "3.2"), ("3.2", "4.1"), ("3.3", "4.2"),
    ])
    def test_printed_forms_all_equal(self, cls_key, red_key):
        spec = spec_for_case(cls_key)
        red = similarity_substitute(
            spec, characteristic_invariants(scaling_of(cls_key)))
        report = compare_reduced_forms(red.reduced_ode,
                                       paper_print(red_key))
        assert report.all_equal, [m.as_record() for m in report.mismatches()]

    def test_injected_fault_detected_on_h3(self):
        spec = spec_for_case("1.3")
        red = similarity_substitute(
            spec, characteristic_invariants(scaling_of("1.3")))
        printed = paper_print("2.2")
        fault = add(printed, mul(K, pow_(ALPHA, 3), pow_(h, 3)))  # 120 -> 121
        report = compare_reduced_forms(red.reduced_ode, fault)
        assert not report.all_equal
        assert [to_text(m.monomial) for m in report.mismatches()] \
            == ["h(r)^3"]

    def test_f_and_h_are_the_same_unknown(self):
        stored = paper_print("3.2")  # written with f(r)
        assert "f(r)" in to_text(stored)
        normalized = compare_reduced_forms(stored, stored).normalized_derived()
        assert "f(r)" not in to_text(normalized)
        assert "h(r)" in to_text(normalized)


class TestSpecializedPrintedForms:
    """The two runtime forms, specialized to a spec, against the paper's
    prints and against the derivation."""

    @pytest.mark.parametrize("section", sorted(PAPER_SECTIONS))
    def test_paper_print_is_the_specialized_scaling_form(self, section):
        spec = spec_for_case(PAPER_SECTIONS[section])
        report = compare_reduced_forms(load_printed_form("2.1", spec),
                                       paper_print(section))
        assert report.all_equal, [m.as_record() for m in report.mismatches()]

    @pytest.mark.parametrize("case", sorted(ACCEPTANCE_INVARIANTS))
    def test_zeta_form_matches_the_derivation(self, case):
        spec = classification_case(case).spec(zeta=-1)
        red = similarity_substitute(
            spec, characteristic_invariants(classify(spec)[1]))
        report = compare_reduced_forms(red.reduced_ode,
                                       load_printed_form("2.1", spec))
        assert report.all_equal, [m.as_record() for m in report.mismatches()]
        # against the zeta = +1 form exactly the convection monomials differ
        plus = load_printed_form("2.1", spec_for_case(case))
        flipped = compare_reduced_forms(red.reduced_ode, plus).mismatches()
        assert sorted(to_text(m.monomial) for m in flipped) \
            == sorted([to_text(pow_(h, 2)), to_text(mul(r, h, hp))])

    @pytest.mark.parametrize("m, n, zeta", [(2, 3, 1), (2, 3, -1),
                                            (5, 1, 1), (1, 6, -1)])
    def test_translation_form_holds_for_every_m_n_zeta(self, m, n, zeta):
        spec = PdeSpec(alpha=num(Q(1, 3)), m=m, n=n, zeta=zeta,
                       g=CoeffForm(CoeffTag.ARBITRARY))
        red = similarity_substitute(
            spec, characteristic_invariants(Generator(0, 1, 0)))
        printed = load_printed_form("1", spec)
        assert printed == fderiv(h, r, num(Q(1, 3)))
        assert compare_reduced_forms(red.reduced_ode, printed).all_equal


class TestIdentityCheck:
    PTS = [(0.9, 1.1), (1.4, 0.7), (0.6, 1.8)]

    def test_translation_power_rule_closed_form(self):
        spec = PdeSpec(alpha=num(Q(1, 2)),
                       g=CoeffForm(CoeffTag.CONSTANT, k=num(1)))
        red = similarity_substitute(
            spec, characteristic_invariants(Generator(0, 1, 0)))
        dev = reduced_residual_identity_check(spec, red, pow_(r, 2), self.PTS)
        assert dev <= 1e-12
        # both sides equal Gamma(3)/Gamma(3 - a) * t^(2 - a)
        lhs = rl_power_rule(2, 0.5, 1.1)
        from fracsym.special import gamma_fn
        assert lhs == pytest.approx(gamma_fn(3) / gamma_fn(2.5) * 1.1 ** 1.5)

    def test_quarter_alpha_constant_g(self):
        rng = random.Random(4321)
        pts = [(rng.uniform(0.5, 2), rng.uniform(0.5, 2)) for _ in range(20)]
        spec = PdeSpec(alpha=num(Q(1, 4)),
                       g=CoeffForm(CoeffTag.CONSTANT, k=num(1)))
        red = similarity_substitute(
            spec, characteristic_invariants(classify(spec)[1]))
        dev = reduced_residual_identity_check(spec, red, r, pts)
        assert dev <= 1e-8

    def test_zero_profile(self):
        spec = PdeSpec(alpha=num(Q(1, 2)),
                       g=CoeffForm(CoeffTag.CONSTANT, k=num(1)))
        red = similarity_substitute(
            spec, characteristic_invariants(classify(spec)[1]))
        assert reduced_residual_identity_check(spec, red, ZERO, self.PTS) == 0


def per_point_identity_check(spec, red, h_test, points):
    """The identity check as it was before it batched its r-points: one
    fode_residual_on_grid call per point, q and s evaluated at each."""
    if red.translation_case:
        u_expr = substitute(h_test, {"r": T})
    else:
        u_expr = mul(pow_(X, red.p),
                     substitute(h_test, {"r": mul(T, pow_(X, red.q))}))
    lhs = pde_residual_on_grid(spec, u_expr, points)
    worst = 0.0
    for (xv, tv), lhs_val in zip(points, lhs):
        if red.translation_case:
            rv = float(tv)
            spower = 1.0
        else:
            rv = float(tv) * float(xv) ** float(eval_numeric(red.q))
            spower = float(xv) ** float(eval_numeric(red.normalization_power))
        rhs_val = spower * fode_residual_on_grid(
            red.reduced_ode, h_test, [rv])[0]
        worst = max(worst, relative_deviation(lhs_val, rhs_val))
    return worst


def seeded_points(seed: int, count: int):
    rng = random.Random(seed)
    return [(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            for _ in range(count)]


class TestBatchedIdentityCheck:
    """One fode_residual_on_grid call over all r-points gives bitwise the
    deviations of one call per point."""

    PTS = seeded_points(1234, 20)
    H_TESTS = (r, mul(r, r), mul(r, r, r))

    # case 2.2 with the CLI oracle's b = 2, k = 1
    SPEC = classification_case("2.2").spec(k=1, b=2)

    @pytest.mark.parametrize("index", [1, 0], ids=["scaling", "translation"])
    def test_equals_the_per_point_loop(self, index):
        spec = self.SPEC
        red = similarity_substitute(
            spec, characteristic_invariants(classify(spec)[index]))
        assert red.translation_case == (index == 0)
        for h_test in self.H_TESTS:
            got = reduced_residual_identity_check(spec, red, h_test, self.PTS)
            assert got == per_point_identity_check(spec, red, h_test,
                                                   self.PTS)

    def test_fode_residual_matches_one_point_calls(self):
        red = similarity_substitute(
            self.SPEC, characteristic_invariants(classify(self.SPEC)[1]))
        rs = [tv * xv ** float(eval_numeric(red.q)) for xv, tv in self.PTS]
        for h_test in self.H_TESTS:
            batched = fode_residual_on_grid(red.reduced_ode, h_test, rs)
            assert batched == [fode_residual_on_grid(red.reduced_ode, h_test,
                                                     [rv])[0] for rv in rs]


class TestKernelSolution:
    def test_half(self):
        ks = kernel_solution(Q(1, 2), 1)
        assert ks.expr == mul(pow_(T, num(Q(-1, 2))),
                              pow_(gammaf(Q(1, 2)), MINUS_ONE))
        assert ks.residual == ZERO and ks.annihilated

    def test_third_with_kappa(self):
        ks = kernel_solution(Q(1, 3), 2)
        assert ks.expr == mul(2, pow_(T, num(Q(-2, 3))),
                              pow_(gammaf(Q(1, 3)), MINUS_ONE))
        assert ks.annihilated

    def test_zero_kappa(self):
        assert kernel_solution(Q(1, 2), 0).expr == ZERO

    def test_classical_degeneration(self):
        ks = kernel_solution(1, 3)
        assert ks.classical
        assert ks.expr == num(3)

    @pytest.mark.parametrize("a", [Q(1, 4), Q(1, 3), Q(1, 2), Q(3, 4)])
    def test_residual_is_the_power_rule_image(self, a):
        assert kernel_solution(a, 1).residual == ZERO
        # the same kernel under another order is not annihilated
        other = a + Q(1, 8)
        image = rl_partial_t(kernel_solution(a, 1).expr, num(other))
        assert image != ZERO
        want = rl_power_rule(a - 1, other, 1.7) / eval_numeric(gammaf(a))
        assert eval_numeric(image, {"t": 1.7}) == pytest.approx(want, rel=1e-12)

    def test_check_fails_when_the_order_is_wrong(self, monkeypatch):
        import fracsym.reduction as reduction
        monkeypatch.setattr(reduction, "rl_partial_t",
                            lambda e, a: rl_partial_t(e, add(a, Q(1, 10))))
        assert not kernel_solution(Q(1, 2), 1).annihilated

    def test_power_rule_agrees_numerically(self):
        # independent numeric check of the annihilation
        for a in (Q(1, 4), Q(1, 3), Q(1, 2), Q(3, 4)):
            assert rl_power_rule(a - 1, a, 1.7) == 0.0

"""PDE-model tests: jet expansion of the equation, scaling weights, g-form
catalog."""

from fractions import Fraction as Q

import pytest

from fracsym.calculus import JetContext, diff
from fracsym.expr import (
    ZERO, MINUS_ONE, add, fderiv, func, mul, num, pow_, sym,
)
from fracsym.pde import (
    ALPHA, B, K, T, U, X,
    CoeffForm, CoeffTag, Generator, NotWeightHomogeneous, PdeModelError,
    PdeSpec, ScalingWeights, coeff_form_from_text,
    scaling_invariance_check, term_weights,
)

u_x, u_xx, u_xxx = (sym(n) for n in ("u_x", "u_xx", "u_xxx"))


CTX = JetContext()


def expanded(spec):
    """The equation's left-hand side, expanded in jet symbols."""
    return add(fderiv(U, T, spec.alpha),
               mul(num(spec.zeta), diff(pow_(U, spec.m), "x", 1, CTX)),
               mul(spec.g.expr(), diff(pow_(U, spec.n), "x", 3, CTX)))


class TestResidual:
    def test_k23_constant_coefficient(self):
        spec = PdeSpec(alpha=ALPHA, m=2, n=3, zeta=1,
                       g=CoeffForm(CoeffTag.CONSTANT, k=K))
        got = expanded(spec)
        cubic = add(mul(6, pow_(u_x, 3)), mul(18, U, u_x, u_xx),
                    mul(3, pow_(U, 2), u_xxx))
        expected = add(fderiv(U, T, ALPHA), mul(2, U, u_x), mul(K, cubic))
        assert got == expected

    def test_power_coefficient_carries_tb(self):
        spec = PdeSpec(g=CoeffForm(CoeffTag.POWER))
        got = expanded(spec)
        cubic = add(mul(6, pow_(u_x, 3)), mul(18, U, u_x, u_xx),
                    mul(3, pow_(U, 2), u_xxx))
        expected = add(fderiv(U, T, ALPHA), mul(2, U, u_x),
                       mul(K, pow_(T, B), cubic))
        assert got == expected

    def test_n_equals_one_is_linear_dispersion(self):
        spec = PdeSpec(m=2, n=1, g=CoeffForm(CoeffTag.CONSTANT, k=K))
        got = expanded(spec)
        assert got == add(fderiv(U, T, ALPHA), mul(2, U, u_x),
                          mul(K, u_xxx))

    def test_zeta_minus_one(self):
        spec = PdeSpec(zeta=-1, g=CoeffForm(CoeffTag.CONSTANT, k=num(1)))
        got = expanded(spec)
        assert got == add(fderiv(U, T, ALPHA), mul(-2, U, u_x),
                          mul(6, pow_(u_x, 3)), mul(18, U, u_x, u_xx),
                          mul(3, pow_(U, 2), u_xxx))

    def test_validation(self):
        with pytest.raises(PdeModelError):
            PdeSpec(alpha=num(2))
        with pytest.raises(PdeModelError):
            PdeSpec(m=9)
        with pytest.raises(PdeModelError):
            PdeSpec(zeta=0)
        with pytest.raises(PdeModelError):
            CoeffForm(CoeffTag.CONSTANT, k=num(0))


class TestWeights:
    def test_constant_g_scaling(self):
        spec = PdeSpec(g=CoeffForm(CoeffTag.CONSTANT))
        w = ScalingWeights(-1, ALPHA, mul(2, ALPHA))
        got = term_weights(spec, w)
        three_alpha = mul(3, ALPHA)
        assert got == [three_alpha, three_alpha, three_alpha]
        assert scaling_invariance_check(spec, w)

    def test_power_g_scaling(self):
        spec = PdeSpec(g=CoeffForm(CoeffTag.POWER))
        w = ScalingWeights(-1, add(ALPHA, mul(-1, B)),
                           add(mul(2, ALPHA), mul(-1, B)))
        expected = add(mul(3, ALPHA), mul(-1, B))
        assert term_weights(spec, w) == [expected] * 3
        assert scaling_invariance_check(spec, w)

    def test_inhomogeneous_weights(self):
        spec = PdeSpec(g=CoeffForm(CoeffTag.CONSTANT))
        w = ScalingWeights(0, 1, 0)
        assert term_weights(spec, w) == [ZERO, MINUS_ONE, num(-3)]
        assert not scaling_invariance_check(spec, w)

    def test_mismatched_scaling_rejected(self):
        spec = PdeSpec(g=CoeffForm(CoeffTag.CONSTANT))
        assert not scaling_invariance_check(
            spec, ScalingWeights(-1, ALPHA, ALPHA))

    def test_non_homogeneous_form_errors(self):
        spec = PdeSpec(g=CoeffForm(CoeffTag.EXPONENTIAL))
        with pytest.raises(NotWeightHomogeneous):
            term_weights(spec, ScalingWeights(-1, 1, 1))

    @pytest.mark.parametrize("scale", [Q(2), Q(-1, 3), Q(7, 5)])
    def test_boolean_invariant_under_weight_rescale(self, scale):
        spec = PdeSpec(g=CoeffForm(CoeffTag.POWER))
        w = ScalingWeights(-1, add(ALPHA, mul(-1, B)),
                           add(mul(2, ALPHA), mul(-1, B)))
        rescaled = ScalingWeights(mul(scale, w.w_t), mul(scale, w.w_x),
                                  mul(scale, w.w_u))
        assert scaling_invariance_check(spec, w) \
            == scaling_invariance_check(spec, rescaled)

    def test_every_cataloged_scaling_generator_is_homogeneous(self):
        # (case, alpha, g-form, weights from the printed generator)
        rows = [
            ("1.2", ALPHA, CoeffTag.POWER,
             (-1, add(ALPHA, mul(-1, B)), add(mul(2, ALPHA), mul(-1, B)))),
            ("1.3", ALPHA, CoeffTag.CONSTANT, (-1, ALPHA, mul(2, ALPHA))),
            ("2.2", num(Q(1, 2)), CoeffTag.POWER,
             (2, add(mul(2, B), -1), mul(2, add(B, -1)))),
            ("2.3", num(Q(1, 2)), CoeffTag.CONSTANT, (-2, 1, 2)),
            ("3.2", num(Q(1, 3)), CoeffTag.POWER,
             (3, add(mul(3, B), -1), add(mul(3, B), -2))),
            ("3.3", num(Q(1, 3)), CoeffTag.CONSTANT, (-3, 1, 2)),
        ]
        for case, alpha, tag, (wt, wx, wu) in rows:
            spec = PdeSpec(alpha=alpha, g=CoeffForm(tag))
            assert scaling_invariance_check(
                spec, ScalingWeights(wt, wx, wu)), case


class TestCoeffForms:
    @pytest.mark.parametrize("text,tag", [
        ("k*t^b", CoeffTag.POWER),
        ("k", CoeffTag.CONSTANT),
        ("5", CoeffTag.CONSTANT),
        ("3*t^2", CoeffTag.POWER),
        ("t", CoeffTag.POWER),
        ("k*exp(b*t)", CoeffTag.EXPONENTIAL),
        ("k*exp(2*t)", CoeffTag.EXPONENTIAL),
        ("k*(t-b)^(2/3)", CoeffTag.SHIFTED_POWER_23),
        ("k*(t^2-b)^(1/3)", CoeffTag.QUAD_POWER_13),
        ("arbitrary", CoeffTag.ARBITRARY),
    ])
    def test_recognition(self, text, tag):
        assert coeff_form_from_text(text).tag is tag

    def test_rejection(self):
        with pytest.raises(PdeModelError):
            coeff_form_from_text("t + 1")
        with pytest.raises(PdeModelError):
            coeff_form_from_text("0")

    def test_expr_emission(self):
        assert CoeffForm(CoeffTag.ARBITRARY).expr() == func("g", (T,))
        assert CoeffForm(CoeffTag.POWER).expr() == mul(K, pow_(T, B))


class TestGenerator:
    def test_normal_form_roundtrip(self):
        gen = Generator.from_coeffs(-1, 0, ALPHA, mul(2, ALPHA))
        e, a0, a1, c = gen.normal_form()
        assert (e, a0, a1, c) == (MINUS_ONE, ZERO, ALPHA, mul(2, ALPHA))

    def test_non_normal_form(self):
        gen = Generator(pow_(T, 2), ZERO, U)
        assert gen.normal_form() is None

    def test_proportionality(self):
        g1 = Generator.from_coeffs(-1, 0, add(ALPHA, mul(-1, B)),
                                   add(mul(2, ALPHA), mul(-1, B)))
        g2 = Generator.from_coeffs(2, 0, mul(-2, add(ALPHA, mul(-1, B))),
                                   mul(-2, add(mul(2, ALPHA), mul(-1, B))))
        assert g1.proportional_to(g2)
        assert not g1.proportional_to(Generator(0, 1, 0))
        assert Generator(0, 1, 0).proportional_to(Generator(0, 5, 0))

    def test_zero_generator_rejected(self):
        with pytest.raises(PdeModelError):
            Generator(0, 0, 0)

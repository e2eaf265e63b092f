"""PDE-model tests: jet expansion of the equation, scaling weights, and
the g-forms the model and the catalog take."""

import contextlib
import io
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from conftest import catalog_g
from fracsym.calculus import diff
from fracsym.cases import (
    CoeffTag, coeff_form_from_text, coeff_tag, outside_catalog,
)
from fracsym.cli import main
from fracsym.expr import (
    ONE, ZERO, MINUS_ONE, add, fderiv, func, mul, num, pow_, power_of, sym,
)
from fracsym.parser import parse_expression
from fracsym.pde import (
    ALPHA, B, K, T, U, X, Generator, PdeModelError, PdeSpec, power_law,
    scaling_invariance_check, term_weights,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=9)
nonzero = rationals.filter(bool)

u_x, u_xx, u_xxx = (sym(n) for n in ("u_x", "u_xx", "u_xxx"))


def expanded(spec):
    """The equation's left-hand side, expanded in jet symbols."""
    return add(fderiv(U, T, spec.alpha),
               mul(num(spec.zeta), diff(pow_(U, spec.m), "x", total=True)),
               mul(spec.g, diff(pow_(U, spec.n), "x", 3, total=True)))


class TestResidual:
    def test_k23_constant_coefficient(self):
        spec = PdeSpec(alpha=ALPHA, m=2, n=3, zeta=1,
                       g=catalog_g(CoeffTag.CONSTANT, k=K))
        got = expanded(spec)
        cubic = add(mul(6, pow_(u_x, 3)), mul(18, U, u_x, u_xx),
                    mul(3, pow_(U, 2), u_xxx))
        expected = add(fderiv(U, T, ALPHA), mul(2, U, u_x), mul(K, cubic))
        assert got == expected

    def test_power_coefficient_carries_tb(self):
        spec = PdeSpec(g=catalog_g(CoeffTag.POWER))
        got = expanded(spec)
        cubic = add(mul(6, pow_(u_x, 3)), mul(18, U, u_x, u_xx),
                    mul(3, pow_(U, 2), u_xxx))
        expected = add(fderiv(U, T, ALPHA), mul(2, U, u_x),
                       mul(K, pow_(T, B), cubic))
        assert got == expected

    def test_n_equals_one_is_linear_dispersion(self):
        spec = PdeSpec(m=2, n=1, g=catalog_g(CoeffTag.CONSTANT, k=K))
        got = expanded(spec)
        assert got == add(fderiv(U, T, ALPHA), mul(2, U, u_x),
                          mul(K, u_xxx))

    def test_zeta_minus_one(self):
        spec = PdeSpec(zeta=-1, g=catalog_g(CoeffTag.CONSTANT, k=1))
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
            PdeSpec(g=catalog_g(CoeffTag.CONSTANT, k=0))


class TestWeights:
    def test_constant_g_scaling(self):
        spec = PdeSpec(g=catalog_g(CoeffTag.CONSTANT))
        w = (-1, ALPHA, mul(2, ALPHA))
        got = term_weights(spec, *w)
        three_alpha = mul(3, ALPHA)
        assert got == [three_alpha, three_alpha, three_alpha]
        assert scaling_invariance_check(spec, *w)

    def test_power_g_scaling(self):
        spec = PdeSpec(g=catalog_g(CoeffTag.POWER))
        w = (-1, add(ALPHA, mul(-1, B)), add(mul(2, ALPHA), mul(-1, B)))
        expected = add(mul(3, ALPHA), mul(-1, B))
        assert term_weights(spec, *w) == [expected] * 3
        assert scaling_invariance_check(spec, *w)

    def test_inhomogeneous_weights(self):
        spec = PdeSpec(g=catalog_g(CoeffTag.CONSTANT))
        assert term_weights(spec, 0, 1, 0) == [ZERO, MINUS_ONE, num(-3)]
        assert not scaling_invariance_check(spec, 0, 1, 0)

    def test_mismatched_scaling_rejected(self):
        spec = PdeSpec(g=catalog_g(CoeffTag.CONSTANT))
        assert not scaling_invariance_check(spec, -1, ALPHA, ALPHA)

    def test_non_homogeneous_form_errors(self):
        spec = PdeSpec(g=catalog_g(CoeffTag.EXPONENTIAL))
        with pytest.raises(PdeModelError, match="not weight-homogeneous"):
            term_weights(spec, -1, 1, 1)

    @pytest.mark.parametrize("scale", [Q(2), Q(-1, 3), Q(7, 5)])
    def test_boolean_invariant_under_weight_rescale(self, scale):
        spec = PdeSpec(g=catalog_g(CoeffTag.POWER))
        w = (-1, add(ALPHA, mul(-1, B)), add(mul(2, ALPHA), mul(-1, B)))
        rescaled = [mul(scale, wi) for wi in w]
        assert scaling_invariance_check(spec, *w) \
            == scaling_invariance_check(spec, *rescaled)

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
            spec = PdeSpec(alpha=alpha, g=catalog_g(tag))
            assert scaling_invariance_check(spec, wt, wx, wu), case


class TestCoeffForms:
    @pytest.mark.parametrize("text,tag", [
        ("k*t^b", CoeffTag.POWER),
        ("(k+1)*t^b", CoeffTag.POWER),
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
        assert coeff_tag(coeff_form_from_text(text, ALPHA)) is tag

    def test_rejection(self):
        with pytest.raises(PdeModelError):
            coeff_form_from_text("t + 1", ALPHA)
        with pytest.raises(PdeModelError):
            coeff_form_from_text("0", ALPHA)

    def test_expr_emission(self):
        assert coeff_form_from_text("arbitrary", ALPHA) == func("g", (T,))
        assert PdeSpec().g == func("g", (T,))
        assert coeff_form_from_text("k*t^b", ALPHA) == mul(K, pow_(T, B))

    def test_alpha_in_the_text_is_the_order(self):
        g = coeff_form_from_text("k*t^(2*alpha)", num(Q(1, 2)))
        assert g == mul(K, T)
        g = coeff_form_from_text("k*t^alpha", ALPHA)
        assert g == mul(K, pow_(T, ALPHA))

    @given(tag=st.sampled_from(list(CoeffTag)), k=nonzero, b=nonzero)
    @settings(max_examples=150, deadline=None)
    def test_tag_of_each_catalog_text(self, tag, k, b):
        assert coeff_tag(catalog_g(tag, k=k, b=b)) is tag

    @pytest.mark.parametrize("tag, collapsed", [
        (CoeffTag.POWER, CoeffTag.CONSTANT),
        (CoeffTag.EXPONENTIAL, CoeffTag.CONSTANT),
        (CoeffTag.SHIFTED_POWER_23, CoeffTag.POWER),
        (CoeffTag.QUAD_POWER_13, CoeffTag.POWER),
    ])
    def test_tag_at_b_zero(self, tag, collapsed):
        """At b = 0 a form is read as the simpler form it equals."""
        assert coeff_tag(catalog_g(tag, k=3, b=0)) is collapsed

    def test_rejections_carry_the_cli_messages(self):
        """The catalog and PdeSpec raise the line the CLI prints for the
        same g."""
        def cli_error(*argv):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                assert main(list(argv)) == 1
            return err.getvalue()

        with pytest.raises(PdeModelError) as outside:
            coeff_form_from_text("t^t", ALPHA)
        assert "is not in the g(t) catalog" in str(outside.value)
        assert cli_error("classify", "--g", "t^t") \
            == f"error: {outside.value}\n"
        with pytest.raises(PdeModelError) as zero:
            PdeSpec(g=ZERO)
        assert str(zero.value) == "coefficient k must be nonvanishing"
        assert cli_error("reduce", "--case", "1.2", "--oracle-k", "0") \
            == f"error: {zero.value}\n"


    @pytest.mark.parametrize("text, named", [
        ("k*exp(x*t)", "x"), ("x", "x"), ("u", "u"), ("u_x", "u_x"),
        ("r", "r"), ("x*u_xt*t^b", "u_xt, x"),
    ])
    def test_g_may_not_name_the_equations_variables(self, text, named):
        with pytest.raises(PdeModelError) as refused:
            PdeSpec(g=parse_expression(text))
        assert str(refused.value) == \
            f"g(t) may not name the equation's variables: {named}"
        for command in ("classify", "reduce"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                assert main([command, "--g", text]) == 1
            assert err.getvalue() == f"error: {refused.value}\n"

    def test_the_model_takes_a_g_outside_the_catalog(self):
        g = parse_expression("t^t")
        spec = PdeSpec(g=g)
        assert spec.g == g and coeff_tag(g) is None
        assert outside_catalog(spec) == "g = t^t is outside the catalog"

    def test_a_rational_zero_g_is_refused(self):
        with pytest.raises(PdeModelError, match="must be nonvanishing"):
            PdeSpec(g=parse_expression("(a^2-1)/(a-1) - a - 1"))

    def test_other_symbols_are_constants(self):
        spec = PdeSpec(g=parse_expression("c*t^d"))
        assert coeff_tag(spec.g) is CoeffTag.POWER
        assert power_law(spec.g) == (sym("c"), sym("d"))


class TestPowerLaw:
    @given(k=nonzero, b=rationals)
    @settings(max_examples=200, deadline=None)
    def test_reads_k_and_b(self, k, b):
        assert power_law(mul(num(k), pow_(T, num(b)))) == (num(k), num(b))

    @given(k=nonzero, b=nonzero)
    @settings(max_examples=100, deadline=None)
    def test_symbolic_parts(self, k, b):
        assert power_law(catalog_g(CoeffTag.POWER)) == (K, B)
        assert power_law(catalog_g(CoeffTag.CONSTANT, k=k)) == (num(k), ZERO)
        g = catalog_g(CoeffTag.POWER, k=mul(k, ALPHA), b=add(b, ALPHA))
        assert power_law(g) == (mul(k, ALPHA), add(b, ALPHA))

    @given(tag=st.sampled_from([CoeffTag.ARBITRARY, CoeffTag.EXPONENTIAL,
                                CoeffTag.SHIFTED_POWER_23,
                                CoeffTag.QUAD_POWER_13]),
           k=nonzero, b=nonzero)
    @settings(max_examples=100, deadline=None)
    def test_none_off_the_power_laws(self, tag, k, b):
        assert power_law(catalog_g(tag, k=k, b=b)) is None

    @pytest.mark.parametrize("text", ["t^t", "k*t^(b*t)", "1 + t",
                                      "t*exp(t)", "x^t"])
    def test_none_for_exponents_or_factors_in_t(self, text):
        assert power_law(parse_expression(text)) is None


class TestPowerOf:
    @given(name=st.sampled_from(["t", "x", "r"]), p=rationals)
    @settings(max_examples=200, deadline=None)
    def test_reads_the_exponent(self, name, p):
        assert power_of(pow_(sym(name), num(p)), name) == num(p)

    def test_one_and_the_bare_symbol(self):
        assert power_of(ONE, "t") == ZERO
        assert power_of(T, "t") == ONE
        assert power_of(pow_(T, B), "t") == B
        assert power_of(pow_(T, T), "t") == T

    @given(p=nonzero, c=nonzero.filter(lambda c: c != 1))
    @settings(max_examples=100, deadline=None)
    def test_none_for_anything_else(self, p, c):
        for mono in (num(c), X, pow_(X, num(p)), mul(num(c), pow_(T, num(p))),
                     mul(X, T), add(T, num(c)),
                     pow_(add(T, ONE), Q(1, 3)), func("exp", (T,))):
            assert power_of(mono, "t") is None


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

    def test_a_rational_zero_is_zero(self):
        # zero only over a common denominator: the generator vanishes, the
        # normal-form part reads ZERO, and the zero eta is proportional
        zero = parse_expression("(a^2-1)/(a-1) - a - 1")
        with pytest.raises(PdeModelError, match="must not vanish"):
            Generator(0, zero, 0)
        gen = Generator(0, add(ONE, mul(X, zero)), 0)
        assert gen.normal_form() == (ZERO, ONE, ZERO, ZERO)
        assert Generator(0, 1, mul(U, zero)).proportional_to(
            Generator(0, 1, 0))

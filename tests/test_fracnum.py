"""Numeric fractional-calculus tests: gamma, power rule, GL scheme, grids."""

import math
import warnings
from fractions import Fraction as Q

import numpy as np
import pytest

from conftest import catalog_g
from fracsym import fracnum as fn
from fracsym.expr import (
    ZERO, MINUS_ONE, EvalError, GammaF, add, compile_numeric, func, gammaf,
    mul, num, pow_, sym,
)
from fracsym.cases import CoeffTag
from fracsym.pde import PdeSpec

t, x, r, z = sym("t"), sym("x"), sym("r"), sym("z")


class TestGamma:
    """The Gamma the program evaluates: a raw GammaF node, compiled."""

    @staticmethod
    def gamma(v):
        return compile_numeric(GammaF(z))({"z": v})

    def test_factorials(self):
        assert self.gamma(1.0) == 1.0
        assert self.gamma(5.0) == 24.0

    def test_half_by_reflection(self):
        g = self.gamma(0.5)
        assert g * g == pytest.approx(math.pi, rel=1e-15)
        assert g == pytest.approx(1.77245385090552, abs=1e-14)

    def test_duplication_identity(self):
        # Gamma(2v) = Gamma(v) Gamma(v+1/2) 2^(2v-1) / sqrt(pi)
        for v in (0.3, 0.85, 1.7, 3.2):
            lhs = self.gamma(2 * v)
            rhs = (self.gamma(v) * self.gamma(v + 0.5) * 2 ** (2 * v - 1)
                   / math.sqrt(math.pi))
            assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_twelve_digits_against_stdlib(self):
        for v in np.linspace(0.05, 12.0, 97):
            assert self.gamma(float(v)) == math.gamma(float(v))

    def test_reflection_negative_arguments(self):
        # Gamma(v) Gamma(1-v) = pi / sin(pi v)
        for v in (-0.5, -1.3, -2.7):
            assert self.gamma(v) * self.gamma(1 - v) == pytest.approx(
                math.pi / math.sin(math.pi * v), rel=1e-13)

    def test_poles(self):
        for v in (0.0, -1.0, -4.0):
            with pytest.raises(EvalError, match=f"gamma pole at {v}"):
                self.gamma(v)

    def test_finite_up_to_the_float_range(self):
        # Gamma(v) = (v-1) Gamma(v-1) up to the last finite value, v ~ 171.6
        for v in np.linspace(140.0, 171.6, 317):
            got = self.gamma(float(v))
            assert math.isfinite(got)
            assert got == pytest.approx((v - 1) * self.gamma(float(v) - 1),
                                        rel=1e-14)

    @pytest.mark.parametrize("v", [171.7, 200.0, 1e6, 1e300])
    def test_overflow_raises_past_the_float_range(self, v):
        with pytest.raises(EvalError, match="gamma overflows a float"):
            self.gamma(v)


class TestPowerRule:
    def test_kernel_exponent_annihilated(self):
        for a in (Q(1, 4), Q(1, 2), Q(3, 4)):
            assert fn.rl_power_rule(a - 1, a, 2.3) == 0.0
        # float route too
        assert fn.rl_power_rule(-0.5, 0.5, 1.0) == 0.0

    def test_linear_profile(self):
        assert fn.rl_power_rule(1, 0.5, 1.0) \
            == pytest.approx(2 / math.sqrt(math.pi), rel=1e-12)

    def test_constant_is_not_annihilated(self):
        assert fn.rl_power_rule(0, 0.5, 1.0) \
            == pytest.approx(1 / math.sqrt(math.pi), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(fn.FracDomainError):
            fn.rl_power_rule(-1, 0.5, 1.0)

    @pytest.mark.parametrize("p, t", [
        (Q(10 ** 400), 1.0), (Q(-10 ** 400), 1.0), (200, 1.0), (150, 200.0)])
    def test_overflow_is_a_domain_error(self, p, t):
        with pytest.raises(fn.FracDomainError, match="overflows a float"):
            fn.rl_power_rule(p, 0.5, t)

    @pytest.mark.parametrize("a", [0.25, 1 / 3, 0.5, 0.75])
    def test_accuracy_against_mpmath(self, a):
        # Gamma(p+1)/Gamma(p+1-a) at the float inputs the rule is given,
        # for p = -0.99 .. 5 in steps of 0.01
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for i in range(-99, 501):
                p = i / 100
                want = (mpmath.gamma(mpmath.mpf(p) + 1)
                        * mpmath.rgamma(mpmath.mpf(p) + 1 - mpmath.mpf(a)))
                got = fn.rl_power_rule(p, a, 1.0)
                if want == 0:
                    assert got == 0.0
                else:
                    assert abs((got - want) / want) < 2.5e-15, (p, a)

    def test_classical_limit(self):
        for p in (1, 2, 3):
            got = fn.rl_power_rule(p, 1 - 1e-8, 1.0)
            assert got == pytest.approx(p, abs=1e-6)


class TestPowerRuleSum:
    """The one power-rule sum keeps the float operations of the three
    loops it replaced, bit for bit."""

    PROFILE = [(0.7, {"t": Q(3, 2), "x": Q(-1, 3)}), (-2.5, {"t": Q(0)}),
               (1.3, {"x": Q(2)}), (0.1, {"t": Q(1, 7), "x": Q(5, 2)})]

    @pytest.mark.parametrize("a, xv, tv", [(0.5, 1.3, 0.7), (0.25, 0.6, 1.9),
                                           (1 / 3, 2.0, 0.55)])
    def test_pde_time_derivative(self, a, xv, tv):
        want = 0.0
        for coeff, exps in self.PROFILE:
            xpart = xv ** float(exps.get("x", Q(0)))
            want += coeff * xpart * fn.rl_power_rule(exps.get("t", Q(0)),
                                                     a, tv)
        got = fn._power_rule_sum(self.PROFILE, "t", a, {"x": xv, "t": tv})
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("a, at", [(0.5, 1.0), (0.3, 2.7)])
    def test_single_variable(self, a, at):
        profile = [(c, {"r": e["t"]}) for c, e in self.PROFILE if "x" not in e]
        profile += [(3.25, {"r": Q(4, 3)}), (-0.5, {})]
        want = sum(c * fn.rl_power_rule(e.get("r", Q(0)), a, at)
                   for c, e in profile)
        got = fn._power_rule_sum(profile, "r", a, {"r": at})
        assert got.hex() == want.hex()
        assert fn._power_rule_sum([], "r", a, {"r": at}).hex() == "0x0.0p+0"


class TestGrid:
    def test_validation(self):
        with pytest.raises(fn.FracDomainError):
            fn.Grid(1.0, np.zeros(1))
        with pytest.raises(fn.FracDomainError):
            fn.Grid(-0.5, np.zeros(10))
        with pytest.raises(fn.FracDomainError):
            fn.gl_rl_derivative(fn.Grid(1.0, np.zeros(10)), 1.5)

    def test_spacing(self):
        g = fn.Grid(1.0, np.zeros(11))
        assert g.dt == pytest.approx(0.1)


def gl_value_at_1(p, a, steps):
    g = fn.Grid.sample(lambda tv: tv ** p, 1.0, steps)
    return fn.gl_rl_derivative(g, a)


def gl_on_prefixes(values, a):
    """GL value at every node t_j >= t_1, each from the prefix grid
    [t_0, t_j] of a grid on [0, 1]."""
    t = np.linspace(0.0, 1.0, len(values))
    return np.array([fn.gl_rl_derivative(fn.Grid(t[j], values[:j + 1]), a)
                     for j in range(1, len(values))])


def convolution_reference(grid, a):
    """The full-grid long-double history convolution, every node."""
    w = fn.gl_weights(a, grid.steps)
    full = np.convolve(w.astype(np.longdouble),
                       grid.values.astype(np.longdouble))[:grid.steps]
    return full.astype(np.float64) * grid.dt ** (-a)


class TestGrunwaldLetnikov:
    def test_linear_profile_tight(self):
        got = gl_value_at_1(1, 0.5, 10001)
        assert got == pytest.approx(fn.rl_power_rule(1, 0.5, 1.0), abs=1e-3)

    def test_quadratic_profile(self):
        got = gl_value_at_1(2, 0.25, 10001)
        exact = fn.rl_power_rule(2, 0.25, 1.0)
        assert exact == pytest.approx(1.2416, abs=2e-3)
        assert got == pytest.approx(exact, abs=2e-3)

    def test_zero_function(self):
        values = gl_on_prefixes(np.zeros(64), 0.3)
        assert len(values) == 63 and np.all(values == 0.0)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_first_order_convergence(self, p, a):
        exact = fn.rl_power_rule(p, a, 1.0)
        coarse = abs(gl_value_at_1(p, a, 1001) - exact)
        fine = abs(gl_value_at_1(p, a, 2001) - exact)
        assert 1.7 <= coarse / fine <= 2.3

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_weights_equal_the_scalar_recurrence(self, a):
        # w_i = w_{i-1} * (1 - (a+1)/i), one long-double product at a time
        w, want = np.longdouble(1.0), [1.0]
        for i in range(1, 2000):
            w *= 1.0 - (np.longdouble(a) + 1.0) / np.longdouble(i)
            want.append(float(np.float64(w)))
        assert fn.gl_weights(a, 2000).tolist() == want

    def test_weights_tail_behavior(self):
        w = fn.gl_weights(0.5, 100_000)
        partial = np.cumsum(w)
        # sum -> 0 and |partial sums| decrease monotonically after i = 1
        assert abs(partial[-1]) < 2e-3
        tail = np.abs(partial[1:])
        assert np.all(np.diff(tail) <= 1e-18)

    def test_linearity_machine_precision(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=400)
        g = rng.normal(size=400)
        a = 0.6
        lhs = gl_on_prefixes(2.5 * f + g, a)
        rhs = 2.5 * gl_on_prefixes(f, a) + gl_on_prefixes(g, a)
        assert np.allclose(lhs, rhs, rtol=5e-14, atol=5e-12)

    def test_history_start_must_match(self):
        # the history starts at the lower terminal 0, so a grid needs t1 > 0
        with pytest.raises(fn.FracDomainError, match="t1 > 0"):
            fn.Grid(0.0, np.zeros(8))

    def test_value_is_a_plain_float(self):
        assert type(gl_value_at_1(1, 0.5, 101)) is float


class TestPointEvaluation:
    """The O(N) value at the last node against the full convolution."""

    @pytest.mark.parametrize("n", [2, 3, 64, 1001, 10001, 20001])
    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_equals_last_node_of_full_convolution(self, n, a):
        grid = fn.Grid(1.0, np.random.default_rng(n).normal(size=n))
        assert fn.gl_rl_derivative(grid, a) \
            == convolution_reference(grid, a)[-1]

    def test_power_sum_sampler_matches_per_node_lambda(self):
        # the oracle workload's grids and exponents, plus fractional ones:
        # the sampler relies on np.float_power calling the C library's pow
        for t1, steps in ((0.5, 5001), (1.0, 10001), (1.5, 15001),
                          (2.0, 20001)):
            nodes = np.linspace(0.0, t1, steps).tolist()
            for p in (Q(1), Q(3, 2), Q(2), Q(5, 2), Q(3),
                      Q(1, 3), Q(3, 4), Q(7, 4)):
                got = fn.sample_power_sum([(1.0, {"t": p})], t1, steps)
                want = np.array([tv ** float(p) for tv in nodes])
                bad = np.flatnonzero(
                    got.values.view(np.int64) != want.view(np.int64))
                assert bad.size == 0, (
                    f"np.float_power(t, {p}) differs from Python's pow on "
                    f"{bad.size} of {steps} nodes (first t = "
                    f"{nodes[bad[0]]!r}); this NumPy build does not send "
                    "it to the C library's pow")
        e = add(mul(num(Q(3, 2)), pow_(t, num(Q(3, 2)))),
                mul(num(Q(-5, 7)), pow_(t, 3)), mul(-2, t))
        for steps in (20001, 131075):
            for profile in (fn.power_profile(e, ("t",)), []):
                got = fn.sample_power_sum(profile, 1.7, steps)
                want = fn.Grid.sample(lambda tv: sum(
                    c * float(tv) ** float(p.get("t", Q(0)))
                    for c, p in profile) if profile else 0.0, 1.7, steps)
                assert got.t1 == want.t1
                assert got.values.tobytes() == want.values.tobytes()

    def test_sample_overflow_is_a_domain_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fn.FracDomainError,
                               match=r"sampled value overflows a float at "
                                     r"t = 370\.5"):
                fn.sample_power_sum([(1.0, {"t": Q(120)})], 372.0, 372001)

    def test_scale_overflow_is_a_domain_error(self):
        with pytest.raises(fn.FracDomainError,
                           match=r"dt\^-alpha overflows a float at dt = 5e-324"):
            fn.gl_rl_derivative(fn.Grid(5e-324, np.zeros(2)), 0.999)


class TestGridResiduals:
    SPEC = PdeSpec(alpha=num(Q(1, 2)), g=catalog_g(CoeffTag.CONSTANT, k=num(1)))
    POINTS = [(0.8, 1.2), (1.5, 0.6), (2.0, 2.0)]

    def test_kernel_solution_residual_vanishes(self):
        u = mul(pow_(t, num(Q(-1, 2))), pow_(gammaf(Q(1, 2)), MINUS_ONE))
        res = fn.pde_residual_on_grid(self.SPEC, u, self.POINTS)
        assert res == [0.0, 0.0, 0.0]

    def test_zero_solution(self):
        assert fn.pde_residual_on_grid(self.SPEC, ZERO, self.POINTS) \
            == [0.0, 0.0, 0.0]

    def test_u_equals_x(self):
        res = fn.pde_residual_on_grid(self.SPEC, x, [(1.0, 1.0)])
        assert res[0] == pytest.approx(1 / math.sqrt(math.pi) + 2 + 6,
                                       rel=1e-12)

    def test_opaque_g_only_where_it_multiplies_a_nonzero_term(self):
        spec = PdeSpec(alpha=num(Q(1, 2)), g=catalog_g(CoeffTag.ARBITRARY))
        # u = t^2: the dispersion term vanishes, so g(t) needs no value
        res = fn.pde_residual_on_grid(spec, pow_(t, 2), [(1.0, 1.5)])
        assert res == [fn.rl_power_rule(2, 0.5, 1.5)]
        with pytest.raises(EvalError, match="'g'"):
            fn.pde_residual_on_grid(spec, mul(x, t), [(1.0, 1.5)])

    def test_unsupported_profile_suggests_gl(self):
        with pytest.raises(fn.UnsupportedProfileError):
            fn.pde_residual_on_grid(self.SPEC, func("exp", (t,)),
                                    self.POINTS)

    def test_time_exponent_at_or_below_minus_one_is_refused(self):
        with pytest.raises(fn.UnsupportedProfileError,
                           match="^time exponents must exceed -1 "):
            fn.pde_residual_on_grid(self.SPEC, mul(pow_(t, -2), x),
                                    self.POINTS)

    def test_fode_translation_kernel(self):
        reduced = __import__("fracsym.reduction", fromlist=["x"])
        red_ode = __import__("fracsym.expr", fromlist=["x"])
        from fracsym.expr import fderiv, func as fnc
        h = fnc("h", (r,))
        ode = fderiv(h, r, num(Q(1, 2)))
        kernel = mul(pow_(r, num(Q(-1, 2))), pow_(gammaf(Q(1, 2)), MINUS_ONE))
        vals = fn.fode_residual_on_grid(ode, kernel, [0.5, 1.0, 2.0])
        assert vals == [0.0, 0.0, 0.0]

    def test_fode_zero(self):
        from fracsym.expr import fderiv, func as fnc
        ode = fderiv(fnc("h", (r,)), r, num(Q(1, 2)))
        assert fn.fode_residual_on_grid(ode, ZERO, [1.0]) == [0.0]

    def test_fode_cross_oracle_identity_case_22(self):
        # reduced-equation value at r vs x^-s * PDE residual of the ansatz
        from fracsym.reduction import (
            characteristic_invariants, similarity_substitute,
        )
        from fracsym.symmetry import classify
        from fracsym.expr import substitute
        spec = PdeSpec(alpha=num(Q(1, 4)),
                       g=catalog_g(CoeffTag.CONSTANT, k=num(1)))
        red = similarity_substitute(
            spec, characteristic_invariants(classify(spec)[1]))
        xv, tv = 1.0, 1.0
        rv = tv * xv ** 4.0  # q = 1/alpha = 4
        fode_val = fn.fode_residual_on_grid(red.reduced_ode, r, [rv])[0]
        u = mul(pow_(x, 2), substitute(r, {"r": mul(t, pow_(x, 4))}))
        pde_val = fn.pde_residual_on_grid(spec, u, [(xv, tv)])[0]
        s = 3.0
        assert fode_val == pytest.approx(pde_val / xv ** s, rel=1e-10)


class TestProfileDecomposition:
    def test_power_profile(self):
        e = add(mul(3, pow_(x, 2), pow_(t, num(Q(1, 2)))), mul(-1, t))
        profile = fn.power_profile(e, ("x", "t"))
        assert sorted((c, p.get("x", Q(0)), p.get("t", Q(0)))
                      for c, p in profile) \
            == [(-1.0, Q(0), Q(1)), (3.0, Q(2), Q(1, 2))]

    def test_gamma_coefficients_evaluate(self):
        e = mul(pow_(gammaf(Q(1, 2)), MINUS_ONE), t)
        [(c, p)] = fn.power_profile(e, ("t",))
        assert c == pytest.approx(1 / math.sqrt(math.pi))

    def test_relative_deviation_scales(self):
        assert fn.relative_deviation(2.0, 2.0 + 2e-8) \
            == pytest.approx(1e-8, rel=1e-3)
        assert fn.relative_deviation(0.0, 1e-9) == pytest.approx(1e-9)

"""Numeric fractional-calculus tests: gamma, power rule, GL scheme, grids."""

import math
from fractions import Fraction as Q

import numpy as np
import pytest

from fracsym import fracnum as fn
from fracsym.expr import (
    ZERO, MINUS_ONE, add, func, gammaf, mul, num, pow_, sym,
)
from fracsym.pde import CoeffForm, CoeffTag, PdeSpec
from fracsym.special import GammaPoleError, gamma_fn

t, x, r = sym("t"), sym("x"), sym("r")


class TestGamma:
    def test_factorials(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_half_by_reflection(self):
        g = gamma_fn(0.5)
        assert g * g == pytest.approx(math.pi, rel=1e-13)
        assert g == pytest.approx(1.77245385090552, abs=1e-12)

    def test_duplication_identity(self):
        # Gamma(2z) = Gamma(z) Gamma(z+1/2) 2^(2z-1) / sqrt(pi)
        for z in (0.3, 0.85, 1.7, 3.2):
            lhs = gamma_fn(2 * z)
            rhs = (gamma_fn(z) * gamma_fn(z + 0.5) * 2 ** (2 * z - 1)
                   / math.sqrt(math.pi))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_twelve_digits_against_stdlib(self):
        for v in np.linspace(0.05, 12.0, 97):
            assert gamma_fn(float(v)) == pytest.approx(math.gamma(float(v)),
                                                       rel=1e-12)

    def test_reflection_negative_arguments(self):
        for v in (-0.5, -1.3, -2.7):
            assert gamma_fn(v) == pytest.approx(math.gamma(v), rel=1e-11)

    def test_poles(self):
        for v in (0.0, -1.0, -4.0):
            with pytest.raises(GammaPoleError):
                gamma_fn(v)


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

    def test_classical_limit(self):
        for p in (1, 2, 3):
            got = fn.rl_power_rule(p, 1 - 1e-8, 1.0)
            assert got == pytest.approx(p, abs=1e-6)


class TestGrid:
    def test_validation(self):
        with pytest.raises(fn.FracDomainError):
            fn.Grid(0.0, 1.0, np.zeros(1))
        with pytest.raises(fn.FracDomainError):
            fn.Grid(1.0, 0.5, np.zeros(10))
        with pytest.raises(fn.FracDomainError):
            fn.FracConfig(alpha=1.5)

    def test_spacing(self):
        g = fn.Grid(0.0, 1.0, np.zeros(11))
        assert g.dt == pytest.approx(0.1)
        assert g.nodes()[3] == pytest.approx(0.3)


def gl_value_at_1(p, a, steps):
    g = fn.Grid.sample(lambda tv: tv ** p, 0.0, 1.0, steps)
    return fn.gl_rl_derivative(g, fn.FracConfig(alpha=a))


def gl_on_prefixes(values, cfg):
    """GL value at every node t_j >= t_1, each from the prefix grid
    [t_0, t_j] of a grid on [0, 1]."""
    t = np.linspace(0.0, 1.0, len(values))
    return np.array([fn.gl_rl_derivative(fn.Grid(0.0, t[j], values[:j + 1]),
                                         cfg)
                     for j in range(1, len(values))])


def convolution_reference(grid, cfg):
    """The full-grid long-double history convolution, every node."""
    w = fn.gl_weights(cfg.alpha, grid.steps)[:cfg.truncation]
    full = np.convolve(w.astype(np.longdouble),
                       grid.values.astype(np.longdouble))[:grid.steps]
    return full.astype(np.float64) * grid.dt ** (-cfg.alpha)


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
        values = gl_on_prefixes(np.zeros(64), fn.FracConfig(0.3))
        assert len(values) == 63 and np.all(values == 0.0)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_first_order_convergence(self, p, a):
        exact = fn.rl_power_rule(p, a, 1.0)
        coarse = abs(gl_value_at_1(p, a, 1001) - exact)
        fine = abs(gl_value_at_1(p, a, 2001) - exact)
        assert 1.7 <= coarse / fine <= 2.3

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
        cfg = fn.FracConfig(alpha=a)
        lhs = gl_on_prefixes(2.5 * f + g, cfg)
        rhs = 2.5 * gl_on_prefixes(f, cfg) + gl_on_prefixes(g, cfg)
        assert np.allclose(lhs, rhs, rtol=5e-14, atol=5e-12)

    def test_history_start_must_match(self):
        g = fn.Grid(0.5, 1.0, np.zeros(8))
        with pytest.raises(fn.FracDomainError):
            fn.gl_rl_derivative(g, fn.FracConfig(alpha=0.5))

    def test_truncation_window_hook(self):
        g = fn.Grid.sample(lambda tv: tv, 0.0, 1.0, 501)
        full = gl_on_prefixes(g.values, fn.FracConfig(alpha=0.5))
        windowed = gl_on_prefixes(
            g.values, fn.FracConfig(alpha=0.5, truncation=50))
        # windowed sum drops old history: identical on nodes t_1..t_49,
        # whose prefixes hold at most 50 samples
        assert np.allclose(full[:49], windowed[:49])
        assert not np.allclose(full[-1], windowed[-1])

    def test_value_is_a_plain_float(self):
        assert type(gl_value_at_1(1, 0.5, 101)) is float


class TestPointEvaluation:
    """The O(N) value at the last node against the full convolution."""

    @pytest.mark.parametrize("n", [2, 3, 64, 1001, 10001, 20001])
    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_equals_last_node_of_full_convolution(self, n, a):
        grid = fn.Grid(0.0, 1.0, np.random.default_rng(n).normal(size=n))
        for window in (1, 50, n, n + 5):
            cfg = fn.FracConfig(alpha=a, truncation=window)
            assert fn.gl_rl_derivative(grid, cfg) \
                == convolution_reference(grid, cfg)[-1], window

    def test_power_sum_sampler_matches_per_node_lambda(self):
        e = add(mul(num(Q(3, 2)), pow_(t, num(Q(3, 2)))),
                mul(num(Q(-5, 7)), pow_(t, 3)), mul(-2, t))
        for profile in (fn.power_profile(e, ("t",)), []):
            got = fn.sample_power_sum(profile, 1.7, 20001)
            want = fn.Grid.sample(lambda tv: sum(
                c * float(tv) ** float(p.get("t", Q(0))) for c, p in profile)
                if profile else 0.0, 0.0, 1.7, 20001)
            assert (got.t0, got.t1) == (want.t0, want.t1)
            assert got.values.tobytes() == want.values.tobytes()


class TestGridResiduals:
    SPEC = PdeSpec(alpha=num(Q(1, 2)), g=CoeffForm(CoeffTag.CONSTANT, k=num(1)))
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

    def test_unsupported_profile_suggests_gl(self):
        with pytest.raises(fn.UnsupportedProfileError):
            fn.pde_residual_on_grid(self.SPEC, func("exp", (t,)),
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
                       g=CoeffForm(CoeffTag.CONSTANT, k=num(1)))
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

"""Reduction-engine tests: invariants, substitution, adjudication, kernel."""

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

import test_symmetry
from conftest import (
    PAPER_PRINTS, PAPER_SECTIONS, catalog_g, paper_print, subtrees,
    tree_walk_eval,
)
from fracsym.calculus import diff, split_by
from fracsym.cases import (
    CLASSIFICATION_CASES, CoeffTag, classification_case, load_printed_form,
    spec_for_case,
)
from fracsym.expr import (
    ZERO, MINUS_ONE, EvalError, FDeriv, Func, Pow, Prod, add, eval_numeric,
    fderiv, free_symbols, func, gammaf, is_zero_exact, mul, num, pow_,
    rebuild, substitute, sym, to_text,
)
from fracsym.fracnum import (
    _power_rule_sum, fode_residual_on_grid, pde_residual_on_grid,
    power_profile, relative_deviation, rl_power_rule,
)
from fracsym.pde import (
    ALPHA, B, K, T, U, X, Generator, PdeModelError, PdeSpec,
)
from fracsym.reduction import (
    ReductionError, _group_x_power, _reduced_monomials,
    characteristic_invariants, compare_reduced_forms, kernel_solution,
    reduced_residual_identity_check, similarity_substitute,
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


def k23_monomials(order):
    """The ten h, r monomials of a K(2,3) scaling reduction."""
    return {
        fderiv(h, r, order), mul(r, h, hp), pow_(h, 2), pow_(h, 3),
        mul(pow_(r, 3), pow_(hp, 3)), mul(pow_(r, 2), h, pow_(hp, 2)),
        mul(pow_(r, 3), h, hp, hpp), mul(r, pow_(h, 2), hp),
        mul(pow_(r, 2), pow_(h, 2), hpp),
        mul(pow_(r, 3), pow_(h, 2), hppp),
    }


def in_h_and_r(factor):
    """A reduced-ODE factor that belongs to the monomial in h and r."""
    return "r" in free_symbols(factor)


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
        groups = split_by(scaled, in_h_and_r)
        assert set(groups) == k23_monomials(ALPHA)
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
        groups = split_by(scaled, in_h_and_r)
        assert set(groups) == k23_monomials(num(Q(1, 2)))
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

    @pytest.mark.parametrize("cls_key", sorted(ACCEPTANCE_INVARIANTS))
    def test_equal_is_the_cross_multiplied_identity(self, cls_key):
        # each entry decides d/d0 == p/p0 as d*p0 - p*d0 == 0 would
        spec = spec_for_case(cls_key)
        red = similarity_substitute(
            spec, characteristic_invariants(scaling_of(cls_key)))
        printed = load_printed_form("2.1", spec)
        derived = _reduced_monomials(red.reduced_ode)
        fd = fderiv(h, r, spec.alpha)
        d0 = derived[fd]
        for fault in (ZERO, mul(K, pow_(h, 3)), mul(B, r, h, hp),
                      pow_(r, 5)):
            stored = _reduced_monomials(add(printed, fault))
            p0 = stored[fd]
            report = compare_reduced_forms(red.reduced_ode,
                                           add(printed, fault))
            for entry in report.entries:
                cross = add(mul(derived.get(entry.monomial, ZERO), p0),
                            mul(MINUS_ONE, stored.get(entry.monomial, ZERO),
                                d0))
                assert entry.equal == is_zero_exact(cross)
            assert report.all_equal == (fault == ZERO)

    def test_f_and_h_are_the_same_unknown(self):
        # the paper writes section 3.2 in f(r); the fixture loader reads it
        # in h(r), the one unknown the comparison knows
        assert "f(r)" in (PAPER_PRINTS / "case_3_2.txt").read_text()
        stored = paper_print("3.2")
        assert _function_names(stored) == {"h"}
        red = similarity_substitute(
            spec_for_case("2.3"), characteristic_invariants(scaling_of("2.3")))
        assert compare_reduced_forms(red.reduced_ode, stored).all_equal


def _function_names(e) -> set:
    return {n.name for n in subtrees(e) if isinstance(n, Func)}


class TestTheUnknownIsH:
    """No program path carries an f(r) unknown: the comparison and the grid
    oracle know h(r) only."""

    @pytest.mark.parametrize("case", sorted(CLASSIFICATION_CASES))
    @pytest.mark.parametrize("section", ["1", "2.1"])
    def test_data_forms_are_in_h(self, case, section):
        form = load_printed_form(section, spec_for_case(case))
        assert "f" not in _function_names(form)
        assert "h" in _function_names(form)

    @pytest.mark.parametrize("case", sorted(CLASSIFICATION_CASES))
    def test_derived_forms_are_in_h(self, case):
        spec = spec_for_case(case)
        for gen in classify(spec)[:2]:
            red = similarity_substitute(spec, characteristic_invariants(gen))
            assert "f" not in _function_names(red.reduced_ode)
            assert "h" in _function_names(red.reduced_ode)


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
                       g=catalog_g(CoeffTag.ARBITRARY))
        red = similarity_substitute(
            spec, characteristic_invariants(Generator(0, 1, 0)))
        printed = load_printed_form("1", spec)
        assert printed == fderiv(h, r, num(Q(1, 3)))
        assert compare_reduced_forms(red.reduced_ode, printed).all_equal


class TestIdentityCheck:
    PTS = [(0.9, 1.1), (1.4, 0.7), (0.6, 1.8)]

    def test_translation_power_rule_closed_form(self):
        spec = PdeSpec(alpha=num(Q(1, 2)),
                       g=catalog_g(CoeffTag.CONSTANT, k=num(1)))
        red = similarity_substitute(
            spec, characteristic_invariants(Generator(0, 1, 0)))
        dev = reduced_residual_identity_check(spec, red, pow_(r, 2), self.PTS)
        assert dev <= 1e-12
        # both sides equal Gamma(3)/Gamma(3 - a) * t^(2 - a)
        lhs = rl_power_rule(2, 0.5, 1.1)
        assert lhs == pytest.approx(math.gamma(3) / math.gamma(2.5) * 1.1 ** 1.5)

    def test_quarter_alpha_constant_g(self):
        rng = random.Random(4321)
        pts = [(rng.uniform(0.5, 2), rng.uniform(0.5, 2)) for _ in range(20)]
        spec = PdeSpec(alpha=num(Q(1, 4)),
                       g=catalog_g(CoeffTag.CONSTANT, k=num(1)))
        red = similarity_substitute(
            spec, characteristic_invariants(classify(spec)[1]))
        dev = reduced_residual_identity_check(spec, red, r, pts)
        assert dev <= 1e-8

    def test_zero_profile(self):
        spec = PdeSpec(alpha=num(Q(1, 2)),
                       g=catalog_g(CoeffTag.CONSTANT, k=num(1)))
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
        ks = kernel_solution(Q(1, 2))
        assert ks == mul(pow_(T, num(Q(-1, 2))),
                         pow_(gammaf(Q(1, 2)), MINUS_ONE))
        assert rl_partial_t(ks, num(Q(1, 2))) == ZERO

    def test_classical_degeneration(self):
        # at alpha = 1 the kernel of the classical derivative, reached by
        # a translation reduce at --oracle-alpha 1
        assert kernel_solution(1) == num(1)
        with pytest.raises(ReductionError):
            kernel_solution(Q(5, 4))

    @pytest.mark.parametrize("a", [Q(1, 4), Q(1, 3), Q(1, 2), Q(3, 4)])
    def test_residual_is_the_power_rule_image(self, a):
        assert rl_partial_t(kernel_solution(a), num(a)) == ZERO
        # the same kernel under another order is not annihilated
        other = a + Q(1, 8)
        image = rl_partial_t(kernel_solution(a), num(other))
        assert image != ZERO
        want = rl_power_rule(a - 1, other, 1.7) / eval_numeric(gammaf(a))
        assert eval_numeric(image, {"t": 1.7}) == pytest.approx(want, rel=1e-12)

    def test_power_rule_agrees_numerically(self):
        # independent numeric check of the annihilation
        for a in (Q(1, 4), Q(1, 3), Q(1, 2), Q(3, 4)):
            assert rl_power_rule(a - 1, a, 1.7) == 0.0


# ---------------------------------------------------------------------------
# the chain-rule derivation the pair derivation replaced


def _chain_rule_pull_x_factor(e):
    """FD(x^p * F, t, a) -> x^p * FD(F, t, a): x is constant along t."""
    def walk(node):
        if isinstance(node, FDeriv):
            inner = node.expr
            factors = inner.factors if isinstance(inner, Prod) else (inner,)
            x_free = [f for f in factors if "t" not in free_symbols(f)]
            rest = [f for f in factors if "t" in free_symbols(f)]
            if x_free and rest:
                return mul(*x_free, fderiv(mul(*rest), node.var, node.alpha))
            return node
        return rebuild(node, walk)

    return walk(e)


def _chain_rule_rescale_fd_nodes(e):
    """FD(h(t*lam(x)), t, a) -> lam^a * FD(h(r), r, a)."""
    def walk(node):
        if isinstance(node, FDeriv):
            inner = node.expr
            if (isinstance(inner, Func) and len(inner.args) == 1
                    and node.var == T):
                arg = inner.args[0]
                lam = substitute(arg, {"t": 1})
                if ("t" not in free_symbols(lam)
                        and is_zero_exact(add(arg, mul(MINUS_ONE, lam, T)))):
                    new_fd = fderiv(Func(inner.name, (r,), inner.order),
                                    r, node.alpha)
                    return mul(pow_(lam, node.alpha), new_fd)
            return node
        return rebuild(node, walk)

    return walk(e)


def chain_rule_substitute(spec, red):
    """similarity_substitute as it was: build u = x^p h(t*x^q), take the
    t-derivative and the x-derivatives through the chain rule, then rewrite
    every t as r*x^-q."""
    u_sub = mul(pow_(X, red.p), func("h", (red.r_expr,)))
    frac = _chain_rule_rescale_fd_nodes(
        _chain_rule_pull_x_factor(fderiv(u_sub, T, spec.alpha)))
    convect = mul(num(spec.zeta), diff(pow_(u_sub, spec.m), "x", 1))
    disperse = mul(spec.g, diff(pow_(u_sub, spec.n), "x", 3))
    total = substitute(add(frac, convect, disperse),
                       {"t": mul(r, pow_(X, mul(MINUS_ONE, red.q)))})
    s, reduced = _group_x_power(total)
    return replace(red, normalization_power=s, reduced_ode=reduced)


def _derive(derivation, spec, gen):
    """(s, reduced ODE) of one derivation, or the error it raised."""
    try:
        red = derivation(spec, characteristic_invariants(gen))
    except (ReductionError, PdeModelError) as exc:
        return type(exc).__name__, str(exc)
    return red.normalization_power, red.reduced_ode


class TestPairDerivation:
    """The pair derivation in r gives exactly what the chain rule in (x, t)
    gave, for every generator of every case."""

    SHAPES = sorted({(m, n) for m, n, _ in
                     test_symmetry.TestStoredResidual.SHAPES}
                    | {(1, 1), (2, 4)})

    @pytest.mark.parametrize("case", sorted(CLASSIFICATION_CASES))
    def test_equals_the_chain_rule(self, case):
        compared = 0
        for (m, n), zeta in itertools.product(self.SHAPES, (1, -1)):
            spec = CLASSIFICATION_CASES[case].spec(m=m, n=n, zeta=zeta)
            for gen in classify(spec):
                want = _derive(chain_rule_substitute, spec, gen)
                assert _derive(similarity_substitute, spec, gen) == want, \
                    (case, m, n, zeta, gen.as_text_triple())
                compared += 1
        assert compared >= 2 * len(self.SHAPES)


def _h_degree(mono) -> int:
    factors = mono.factors if isinstance(mono, Prod) else (mono,)
    degree = 0
    for f in factors:
        base, exp = (f.base, f.exp) if isinstance(f, Pow) else (f, num(1))
        if isinstance(base, Func) and base.name == "h":
            degree += int(exp.c)
    return degree


class TestZetaFlip:
    """Flipping zeta negates the convection monomials of the reduced ODE
    and nothing else, for (m, n) off the 3m - n - 2 = 0 locus.  The
    convection monomials are those of h-degree m; at m = n the dispersion
    term shares them, so m = n is left out."""

    @given(st.integers(1, 5), st.integers(1, 6),
           st.sampled_from(["generic", "1/2", "1/3"]),
           st.sampled_from(["k", "k*t^b"]))
    @settings(max_examples=25, deadline=None)
    def test_only_convection_changes_sign(self, m, n, alpha, g):
        assume(3 * m - n - 2 != 0 and m != n)
        case = {"k": "1.3", "k*t^b": "1.2"}[g]
        reduced = {}
        for zeta in (1, -1):
            spec = classification_case(case).spec(m=m, n=n, zeta=zeta)
            if alpha != "generic":
                spec = replace(spec, alpha=num(Q(alpha)))
            gens = classify(spec)
            assert len(gens) == 2
            reduced[zeta] = _derive(similarity_substitute, spec, gens[1])
        plus, minus = reduced[1], reduced[-1]
        assert minus[0] == plus[0]
        groups_plus = _reduced_monomials(plus[1])
        groups_minus = _reduced_monomials(minus[1])
        assert groups_plus.keys() == groups_minus.keys()
        flipped = 0
        for mono, coeff in groups_plus.items():
            # the FD monomial has h-degree 0, a dispersion one n != m
            convection = _h_degree(mono) == m
            want = mul(MINUS_ONE, coeff) if convection else coeff
            assert groups_minus[mono] == want, to_text(mono)
            flipped += convection
        assert flipped >= 1


# ---------------------------------------------------------------------------
# the grid oracle against the tree-walk evaluator


def tree_walk_pde_residual(spec, u_expr, points):
    """pde_residual_on_grid as it was: every term walked at every point."""
    alpha = float(spec.alpha.c)
    profile = power_profile(u_expr, ("x", "t"))
    convect = diff(pow_(u_expr, spec.m), "x", 1)
    disperse = diff(pow_(u_expr, spec.n), "x", 3)
    out = []
    for xv, tv in points:
        point = {"x": float(xv), "t": float(tv)}
        value = (_power_rule_sum(profile, "t", alpha, point)
                 + spec.zeta * tree_walk_eval(convect, point))
        if disperse != ZERO:
            value += (tree_walk_eval(spec.g, point)
                      * tree_walk_eval(disperse, point))
        out.append(value)
    return out


def tree_walk_fode_residual(reduced_ode, h_expr, r_points):
    """fode_residual_on_grid as it was: the ODE walked at every point, a
    derivative of h walked at every use."""
    profile = power_profile(h_expr, ("r",))

    def h_eval(rv, order):
        return tree_walk_eval(diff(h_expr, "r", order) if order else h_expr,
                              {"r": rv})

    def fd_handler(node, point):
        total = 0.0
        for coeff, exps in profile:
            total += coeff * rl_power_rule(exps.get("r", Q(0)),
                                           float(node.alpha.c),
                                           point["r"])
        return total

    return [tree_walk_eval(reduced_ode, {"r": float(rv)},
                           funcs={"h": h_eval}, fd_handler=fd_handler)
            for rv in r_points]


class TestCompiledGridResiduals:
    """The compiled grid residuals are bitwise those of the tree walk."""

    PTS = seeded_points(1234, 20)

    @pytest.mark.parametrize("case", ["1.3", "2.2", "3.2", "3.3"])
    def test_bitwise_equal_to_the_tree_walk(self, case):
        spec = classification_case(case).spec(k=1, b=2)
        if case == "1.3":
            spec = replace(spec, alpha=num(Q(1, 4)))
        for gen in classify(spec):
            red = similarity_substitute(spec, characteristic_invariants(gen))
            q = float(eval_numeric(red.q))
            rs = [tv * xv ** q for xv, tv in self.PTS]
            for h_test in (r, mul(r, r), mul(r, r, r)):
                u_expr = mul(pow_(X, red.p),
                             substitute(h_test, {"r": red.r_expr}))
                got = pde_residual_on_grid(spec, u_expr, self.PTS)
                want = tree_walk_pde_residual(spec, u_expr, self.PTS)
                assert [v.hex() for v in got] == [v.hex() for v in want]
                got = fode_residual_on_grid(red.reduced_ode, h_test, rs)
                want = tree_walk_fode_residual(red.reduced_ode, h_test, rs)
                assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_empty_point_lists_evaluate_nothing(self):
        # compiling never fails: a tree no point could evaluate gives []
        unresolvable = add(fderiv(h, r, ALPHA), num(10 ** 400))
        assert fode_residual_on_grid(unresolvable, r, []) == []
        with pytest.raises(EvalError, match="constant out of float range"):
            fode_residual_on_grid(unresolvable, r, [1.0])
        spec = PdeSpec(alpha=num(Q(1, 2)), g=catalog_g(CoeffTag.ARBITRARY))
        assert pde_residual_on_grid(spec, mul(X, T), []) == []
        with pytest.raises(EvalError, match="cannot evaluate function 'g'"):
            pde_residual_on_grid(spec, mul(X, T), [(1.0, 1.0)])

"""Derivative and grouping tests, with independent brute-force oracles."""

import random
from fractions import Fraction as Q

import pytest

from fracsym.calculus import (
    DiffError, diff, jet, parse_jet,
    is_polynomial_in, split_by,
)
from fracsym.expr import (
    ZERO, ONE, MINUS_ONE, add, contains_symbol, eval_numeric, fderiv, func,
    gammaf, mul, num, pow_, substitute, sym,
)

x, t, u, c = sym("x"), sym("t"), sym("u"), sym("c")
alpha, b = sym("alpha"), sym("b")
u_x, u_xx, u_xxx, u_t, u_xt = (sym(n) for n in
                               ("u_x", "u_xx", "u_xxx", "u_t", "u_xt"))


# --- independent oracle: repeated product rule over jet monomials ----------

_RAISE = {"u": "u_x", "u_x": "u_xx", "u_xx": "u_xxx", "u_xxx": "u_xxxx"}


def brute_dx(monomials: dict) -> dict:
    """One total x-derivative of {(sorted jet tuple): coeff}."""
    out: dict = {}
    for mono, coeff in monomials.items():
        for i, name in enumerate(mono):
            raised = tuple(sorted(mono[:i] + (_RAISE[name],) + mono[i + 1:]))
            out[raised] = out.get(raised, 0) + coeff
    return {m: v for m, v in out.items() if v != 0}


def monomials_to_expr(monomials: dict):
    return add(*(mul(num(coeff), *(sym(n) for n in mono))
                 for mono, coeff in monomials.items()))


class TestJetDiff:
    def test_u_cubed_third_derivative_vs_brute_force(self):
        state = {("u", "u", "u"): 1}
        for _ in range(3):
            state = brute_dx(state)
        expected = monomials_to_expr(state)
        got = diff(pow_(u, 3), "x", 3, total=True)
        assert got == expected
        # frozen form: 6 u_x^3 + 18 u u_x u_xx + 3 u^2 u_xxx
        assert got == add(mul(6, pow_(u_x, 3)), mul(18, u, u_x, u_xx),
                          mul(3, pow_(u, 2), u_xxx))

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_power_expansions_vs_brute_force(self, n):
        state = {tuple(["u"] * n): 1}
        for _ in range(3):
            state = brute_dx(state)
        assert diff(pow_(u, n), "x", 3, total=True) == monomials_to_expr(state)

    def test_symbolic_power_rule(self):
        assert diff(pow_(t, b), "t") == mul(b, pow_(t, add(b, MINUS_ONE)))

    def test_constant(self):
        assert diff(c, "x") == ZERO

    def test_linearity_structural(self, rng):
        a = num(Q(3, 7))
        e1 = mul(u, pow_(x, 2))
        e2 = add(pow_(u, 2), mul(t, u))
        lhs = diff(add(mul(a, e1), e2), "x", total=True)
        rhs = add(mul(a, diff(e1, "x", total=True)), diff(e2, "x", total=True))
        assert lhs == rhs

    def test_fd_node_in_own_variable_rejected(self):
        node = fderiv(u, t, alpha)
        with pytest.raises(DiffError):
            diff(node, "t")

    def test_exponent_depending_on_variable_rejected(self):
        with pytest.raises(DiffError):
            diff(pow_(x, t), "t")


class TestTotalDerivativeT:
    def test_no_explicit_t(self):
        assert diff(mul(x, u), "t", total=True) == mul(x, u_t)

    def test_chain_rule(self):
        assert diff(pow_(u, 2), "t", total=True) == mul(2, u, u_t)

    def test_product_with_explicit_t(self):
        assert diff(mul(t, u_x), "t", total=True) == add(u_x, mul(t, u_xt))

    def test_against_finite_differences_along_trajectory(self):
        # u(x, t) = sin(x + t^2); compare D_t e with d/dt of e o trajectory
        traj = func("sin", (add(x, pow_(t, 2)),))
        # every jet u_<x^i t^j> with i, j <= 2 bound to its derivative of traj
        bindings = {}
        for nx in range(3):
            for nt in range(3):
                d = diff(traj, "x", nx) if nx else traj
                d = diff(d, "t", nt) if nt else d
                bindings[jet(nx, nt).name] = d
        exprs = [pow_(u, 2), mul(t, u_x), add(mul(u, u_x), mul(x, u))]
        rng = random.Random(7)
        for e in exprs:
            de = diff(e, "t", total=True)
            de_explicit = substitute(de, bindings)
            e_explicit = substitute(e, bindings)
            for _ in range(10):
                xv = rng.uniform(0.2, 1.5)
                tv = rng.uniform(0.2, 1.5)
                eps = 1e-6
                fd = (eval_numeric(e_explicit, {"x": xv, "t": tv + eps})
                      - eval_numeric(e_explicit, {"x": xv, "t": tv - eps})) \
                    / (2 * eps)
                sym_val = eval_numeric(de_explicit, {"x": xv, "t": tv})
                assert sym_val == pytest.approx(fd, rel=1e-6, abs=1e-6)


def in_jet(f):
    return contains_symbol(f, ("u", "u_x"))


class TestCollect:
    def test_simple_collection(self):
        e = add(mul(2, u, u_x), mul(3, pow_(u, 2)))
        got = split_by(e, in_jet)
        assert got == {mul(u, u_x): num(2), pow_(u, 2): num(3)}

    def test_coefficients_free_of_basis_symbols(self):
        e = add(mul(alpha, u, u_x), mul(b, t, pow_(u, 2)))
        got = split_by(e, in_jet)
        assert got[mul(u, u_x)] == alpha
        assert got[pow_(u, 2)] == mul(b, t)

    def test_exponent_symbols_stay_in_the_coefficient(self):
        # a power joins the monomial whole; a bare exponent symbol does not
        assert split_by(mul(b, pow_(u, b)), in_jet) == {pow_(u, b): b}

    def test_split_by_groups_everything(self):
        e = add(mul(alpha, u), mul(b, u), x)
        groups = split_by(e, lambda f: contains_symbol(f, "u"))
        assert groups[u] == add(alpha, b)
        assert groups[ONE] == x


@pytest.mark.parametrize("e, polynomial", [
    (add(mul(alpha, pow_(x, 3), u), t), True),
    (pow_(add(x, u), 2), True),
    (pow_(alpha, Q(1, 2)), True),
    (func("exp", (alpha,)), True),
    (pow_(x, -1), False),
    (pow_(x, Q(1, 2)), False),
    (pow_(x, alpha), False),
    (pow_(alpha, x), False),
    (mul(alpha, func("exp", (t,))), False),
    (gammaf(add(alpha, x)), False),
    (fderiv(u, t, alpha), False),
])
def test_is_polynomial_in(e, polynomial):
    assert is_polynomial_in(e, ("t", "x", "u")) is polynomial


class TestJetNames:
    def test_jet_naming(self):
        assert jet(2, 1) == sym("u_xxt")
        assert parse_jet("u_xxt") == (2, 1)
        assert parse_jet("u") == (0, 0)
        assert parse_jet("v_x") is None
        assert parse_jet("u_tx") is None

    def test_spatial_cap(self):
        assert jet(5, 0) == sym("u_xxxxx")
        with pytest.raises(DiffError):
            jet(6, 0)

"""Fractional prolongation, invariance residuals, determining equations, and
the symmetry classification as the exact nullspace of the determining system.

The prolongation coefficient on the fractional-derivative coordinate is
built from the Leibniz-expanded form

    eta_a = d^a(eta)/dt^a + (eta_u - a*D_t xi_t) * D^a u - u * d^a(eta_u)/dt^a
            + sum_{m>=1} [C(a,m) d^m(eta_u)/dt^m - C(a,m+1) D_t^{m+1} xi_t] * D^{a-m} u
            - sum_{m>=1} C(a,m) * D^{a-m} u_x * D_t^m xi_x

summed to its own end.  The form is exact for xi_t and xi_x free of u and
of its jets and for eta linear in u and free of the jets (Gazizov,
Kasatkin & Lukashchuk, Physica Scripta T136, 2009): the mu-term of the
fractional prolongation, which the form omits, vanishes only for such an
eta, and on such a generator D_t is the partial d/dt.  Each infinitesimal
is polynomial in t, so the series stops at the first m at which
D_t^(m+1) xi_t, D_t^m xi_x and d^m(eta_u)/dt^m all vanish exactly.
``eta_alpha`` refuses any other generator, and one whose series runs past
``MAX_SERIES_ORDER`` orders, with ``UnsupportedAnsatzError`` instead of
cutting the series.  Each series term stays in eta_a, as its coefficient
times a ``fderiv(u, t, a - m)`` or ``fderiv(u_x, t, a - m)`` node.  D_x is
``diff(..., total=True)``.  The fractional d^a/dt^a acts on the explicit
t-dependence with u held as a t-independent indeterminate, through the
Riemann-Liouville power rule (so it maps a u-independent constant c to
c*t^-a/Gamma(1-a), not to zero).  Under that convention the
two explicit terms cancel exactly for eta = c*u, and every series term
vanishes for the affine/scaling ansatz xi_t = e*t, xi_x = a0 + a1*x,
eta = c*u.

``classify`` derives the basis of any spec and refuses by name a vector
that fails exact re-verification; the case table is the front end's, and
this module imports nothing of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import ClassVar

from .calculus import diff, is_polynomial_in, jet, parse_jet, split_by
from .expr import (
    Expr, Num, Sym, Pow, FDeriv, ExprError,
    add, mul, pow_, num, sym, gammaf, fderiv, as_expr,
    contains_symbol, free_symbols, is_zero_exact, power_of,
    substitute, to_text, ZERO, ONE, MINUS_ONE,
)
from .pde import T, U, X, Generator, PdeSpec

__all__ = [
    "SymmetryError", "UnsupportedAnsatzError",
    "DeterminingSystem",
    "rl_partial_t",
    "eta_alpha", "integer_prolongations", "invariance_residual",
    "determining_system", "classify",
]

# the most Leibniz-series orders eta_alpha sums: an input guard, since a
# generator of t-degree 10^6 would otherwise run 10^6 orders
MAX_SERIES_ORDER = 16

# the ansatz coefficients: '@' is no character of a parsed symbol, so a g
# written by the user cannot name one
_A0 = sym("@a0")
_A1 = sym("@a1")
_E = sym("@e")
_C = sym("@c")
_UNKNOWNS = (_A0, _A1, _E, _C)
# column indices into _UNKNOWNS: the elimination pivots on a1, c, e, a0;
# the basis is read off the free columns as a0, e, c, a1
_PIVOT_ORDER = tuple(map(_UNKNOWNS.index, (_A1, _C, _E, _A0)))
_BASIS_ORDER = tuple(map(_UNKNOWNS.index, (_A0, _E, _C, _A1)))


class SymmetryError(ExprError):
    pass


class UnsupportedAnsatzError(SymmetryError):
    """Infinitesimals outside the polynomial class handled symbolically."""


def _binomial(binom: list, alpha: Expr, m: int) -> Expr:
    """C(alpha, m) from ``binom = [C(alpha, 0), ...]``, which is extended
    only as far as m by C(alpha, k+1) = C(alpha, k) * (alpha - k) / (k + 1)."""
    while len(binom) <= m:
        k = len(binom) - 1
        binom.append(mul(binom[k], add(alpha, num(-k)), num(Q(1, k + 1))))
    return binom[m]


def _gamma_ratio(a: Expr, b: Expr) -> Expr:
    """Gamma(a)/Gamma(b), exactly 0 when b is a nonpositive integer."""
    if isinstance(b, Num) and b.c.denominator == 1 and b.c <= 0:
        return ZERO
    return mul(gammaf(a), pow_(gammaf(b), MINUS_ONE))


def rl_partial_t(e: Expr, alpha) -> Expr:
    """RL derivative of order alpha of the explicit t-dependence of e.

    All non-t symbols (u, x, parameters) ride along as indeterminates;
    each monomial c*t^p maps to c * Gamma(p+1)/Gamma(p+1-alpha) * t^(p-alpha)
    via the power rule.  Requires polynomial (rational-power) t-dependence.
    """
    e = as_expr(e)
    alpha = as_expr(alpha)
    groups = split_by(e, lambda f: contains_symbol(f, "t"))
    out = []
    for mono, coeff in groups.items():
        p = power_of(mono, "t")
        if not isinstance(p, Num):
            raise UnsupportedAnsatzError(
                f"t-dependence {mono} is not a rational power of t")
        p = p.c
        if p <= -1:
            raise UnsupportedAnsatzError(
                f"power-rule domain requires exponent > -1, got {p}")
        ratio = _gamma_ratio(num(p + 1), add(num(p + 1), mul(MINUS_ONE, alpha)))
        out.append(mul(coeff, ratio,
                       pow_(T, add(num(p), mul(MINUS_ONE, alpha)))))
    return add(*out)


def _check_polynomial_gen(gen: Generator):
    """Refuse, naming the component, a generator for which the Leibniz
    form of eta_alpha is not exact (see the module docstring)."""
    for name, e in (("xi_t", gen.xi_t), ("xi_x", gen.xi_x), ("eta", gen.eta)):
        if not is_polynomial_in(e, ("t", "x", "u")):
            raise UnsupportedAnsatzError(
                f"{name} = {to_text(e)} is not polynomial in (t, x, u)")
        jets = sorted(s for s in free_symbols(e)
                      if parse_jet(s) is not None
                      and not (name == "eta" and s == "u"))
        if jets:
            free_of = ("the derivatives of u" if name == "eta"
                       else "u and of its derivatives")
            raise UnsupportedAnsatzError(
                f"{name} = {to_text(e)} names {', '.join(jets)}: the "
                f"fractional prolongation needs {name} free of {free_of}")
    if not is_zero_exact(diff(gen.eta, "u", 2)):
        raise UnsupportedAnsatzError(
            f"eta = {to_text(gen.eta)} is not linear in u: the fractional "
            "prolongation omits its mu-term, which vanishes only for eta "
            "linear in u")


def integer_prolongations(gen: Generator):
    """(eta_x, eta_xx, eta_xxx) by the standard recursion
    eta^(k+1) = D_x eta^(k) - u_{x^k x} D_x xi_x - u_{x^k t} D_x xi_t."""
    dx = lambda e: diff(e, "x", total=True)
    dxi_x = dx(gen.xi_x)
    dxi_t = dx(gen.xi_t)
    current = gen.eta
    out = []
    for k in range(1, 4):
        current = add(dx(current),
                      mul(MINUS_ONE, jet(k, 0), dxi_x),
                      mul(MINUS_ONE, jet(k - 1, 1), dxi_t))
        out.append(current)
    return tuple(out)


def eta_alpha(gen: Generator, alpha) -> Expr:
    """Prolongation coefficient on the D^alpha_t u coordinate, with the
    Leibniz series summed to its end."""
    _check_polynomial_gen(gen)
    alpha = as_expr(alpha)
    binom = [ONE]  # C(alpha, 0), ...; _binomial extends it as the series needs

    eta_u = diff(gen.eta, "u")
    dt_xi_t = diff(gen.xi_t, "t")

    fd_u = fderiv(U, T, alpha)
    head = add(
        rl_partial_t(gen.eta, alpha),
        mul(add(eta_u, mul(MINUS_ONE, alpha, dt_xi_t)), fd_u),
        mul(MINUS_ONE, U, rl_partial_t(eta_u, alpha)),
    )

    tail = []
    dtk_xi_t = dt_xi_t
    dtk_xi_x = gen.xi_x
    dtk_eta_u = eta_u
    for m in range(1, MAX_SERIES_ORDER + 2):
        dtk_xi_t = diff(dtk_xi_t, "t")  # D_t^{m+1} xi_t
        dtk_xi_x = diff(dtk_xi_x, "t")  # D_t^m xi_x
        dtk_eta_u = diff(dtk_eta_u, "t")  # d^m(eta_u)/dt^m
        derivs = (("xi_t", dtk_xi_t), ("xi_x", dtk_xi_x), ("eta", dtk_eta_u))
        live = [name for name, d in derivs if not is_zero_exact(d)]
        if not live:
            break  # every higher derivative is zero too
        if m > MAX_SERIES_ORDER:
            raise UnsupportedAnsatzError(
                f"the Leibniz series of eta_alpha runs past its bound of "
                f"{MAX_SERIES_ORDER} orders: the t-degree of "
                f"{' and '.join(live)} is too high")
        fd_order = add(alpha, num(-m))
        tail.append(mul(add(mul(_binomial(binom, alpha, m), dtk_eta_u),
                            mul(MINUS_ONE, _binomial(binom, alpha, m + 1),
                                dtk_xi_t)),
                        fderiv(U, T, fd_order)))
        tail.append(mul(MINUS_ONE, _binomial(binom, alpha, m), dtk_xi_x,
                        fderiv(jet(1, 0), T, fd_order)))
    return add(head, *tail)


def invariance_residual(spec: PdeSpec, gen: Generator) -> Expr:
    """Apply the prolonged generator to the PDE on its solution set.

    Returns the canonical residual: exactly zero iff gen is a symmetry.
    Surviving D^(alpha-m) obstruction terms stay in the result rather than
    being dropped.
    """
    applied = [eta_alpha(gen, spec.alpha)]
    ex, exx, exxx = integer_prolongations(gen)

    rest = add(mul(num(spec.zeta), diff(pow_(U, spec.m), "x", total=True)),
               mul(spec.g, diff(pow_(U, spec.n), "x", 3, total=True)))

    coords = [
        (T, gen.xi_t), (X, gen.xi_x), (U, gen.eta),
        (jet(1, 0), ex), (jet(2, 0), exx), (jet(3, 0), exxx),
    ]
    for coord, coeff in coords:
        if coeff == ZERO:
            continue
        partial = diff(rest, coord.name)
        if partial != ZERO:
            applied.append(mul(coeff, partial))
    total = add(*applied)

    # restrict to solutions: D^alpha_t u = -(the integer-order part); the
    # residual is linear in D^alpha_t u, a factor of each term that holds it
    fd_u = fderiv(U, T, spec.alpha)
    parts = split_by(total, lambda f: f == fd_u)
    return add(parts.get(ONE, ZERO),
               mul(MINUS_ONE, parts.get(fd_u, ZERO), rest))


# ---------------------------------------------------------------------------
# determining system


@dataclass
class DeterminingSystem:
    """Linear homogeneous system on the ansatz coefficients (a0, a1, e, c)
    of xi_x = a0 + a1*x, xi_t = e*t, eta = c*u, collected from
    ``residual``, the invariance residual of the generic ansatz generator.
    ``rows`` is the
    coefficient matrix of ``equations`` in the order of ``unknowns``."""

    equations: list[Expr]
    rows: list[tuple[Expr, ...]]
    residual: Expr
    unknowns: ClassVar[tuple[Sym, ...]] = _UNKNOWNS

    def nullspace(self) -> list[tuple[Expr, ...]]:
        """Basis (a0, a1, e, c) of the solutions of ``rows``.

        One Gauss-Jordan elimination over Q(alpha, b, k), the parameters
        generic, pivoting on a1, c, e, a0 in turn.  Each free column gives
        one basis vector: a0 first (the translation), then e set to -1
        (the scaling), then c and a1 set to 1."""
        pending = [list(row) for row in self.rows]
        pivots: dict[int, list[Expr]] = {}
        for col in _PIVOT_ORDER:
            hit = next((i for i, row in enumerate(pending)
                        if not is_zero_exact(row[col])), None)
            if hit is None:
                continue
            row = pending.pop(hit)
            inv = pow_(row[col], MINUS_ONE)
            row = [mul(x, inv) for x in row]
            for other in (*pending, *pivots.values()):
                if other[col] != ZERO:
                    factor = mul(MINUS_ONE, other[col])
                    other[:] = [add(x, mul(factor, y))
                                for x, y in zip(other, row)]
            pivots[col] = row
        basis = []
        for free in _BASIS_ORDER:
            if free in pivots:
                continue
            value = MINUS_ONE if _UNKNOWNS[free] is _E else ONE
            coeffs = [ZERO] * len(_UNKNOWNS)
            coeffs[free] = value
            for col, row in pivots.items():
                coeffs[col] = mul(MINUS_ONE, row[free], value)
            basis.append(tuple(coeffs))
        return basis

    def solve(self) -> list[Generator]:
        """Generators of the ``nullspace`` vectors, each re-verified by
        substituting it into the stored residual and deciding zero with
        ``is_zero_exact``; a vector that fails raises ``SymmetryError``
        naming it.

        The coefficients do not depend on (t, x, u), and the prolonged
        generator is linear in the infinitesimals, so the substituted
        residual is the vector's own invariance residual.  The equations
        were collected from that residual, so this check guards the
        elimination against them; the build of the residual itself is
        checked against a fresh ``invariance_residual`` by the test suite,
        not at run time."""
        gens = []
        for a0, a1, e, c in self.nullspace():
            gen = Generator.from_coeffs(e, a0, a1, c)
            if not is_zero_exact(substitute(
                    self.residual, _ansatz_binding(a0, a1, e, c))):
                raise SymmetryError("nullspace vector fails re-verification: "
                                    + "; ".join(gen.as_text_triple()))
            gens.append(gen)
        return gens


def _ansatz_binding(a0, a1, e, c) -> dict:
    return {u.name: as_expr(v) for u, v in zip(_UNKNOWNS, (a0, a1, e, c))}


def determining_system(spec: PdeSpec) -> DeterminingSystem:
    """Build the determining equations for the affine/scaling ansatz by
    collecting the invariance residual over jet monomials and explicit
    t-structure."""
    gen = Generator.from_coeffs(_E, _A0, _A1, _C)
    residual = invariance_residual(spec, gen)

    def is_state_factor(f: Expr) -> bool:
        if isinstance(f, FDeriv):
            return True
        if isinstance(f, Pow):
            return is_state_factor(f.base)
        if isinstance(f, Sym):
            return parse_jet(f.name) is not None
        # opaque g(t) and Gamma(1-alpha) belong to the t-structure side
        return False

    names = tuple(u.name for u in _UNKNOWNS)
    equations: list[Expr] = []
    rows: list[tuple[Expr, ...]] = []
    for _, coeff in split_by(residual, is_state_factor).items():
        t_groups = split_by(coeff, lambda f: contains_symbol(f, "t"))
        for _, eq in t_groups.items():
            if eq == ZERO or eq in equations:
                continue
            row = tuple(diff(eq, u) for u in _UNKNOWNS)
            if any(contains_symbol(entry, names) for entry in row):
                raise SymmetryError(
                    "determining equation is not linear in the ansatz "
                    f"coefficients: {to_text(eq)}")
            equations.append(eq)
            rows.append(row)
    return DeterminingSystem(equations=equations, rows=rows,
                             residual=residual)


# ---------------------------------------------------------------------------
# classification


def classify(spec: PdeSpec) -> list[Generator]:
    """Symmetry-algebra basis of any spec, solved from its determining
    system.

    The basis lists the x-translation first; a t-scaling, when present, is
    normalized to coefficient -1 on t*d/dt.  Which specs the paper's table
    covers is decided by :func:`fracsym.cases.outside_catalog`, not here.
    """
    return determining_system(spec).solve()

"""Fractional prolongation, invariance residuals, determining equations, and
the per-g-form symmetry classification.

The prolongation coefficient on the fractional-derivative coordinate is
built from the Leibniz-expanded form

    eta_a = d^a(eta)/dt^a + (eta_u - a*D_t xi_t) * D^a u - u * d^a(eta_u)/dt^a
            + sum_{m>=1} [C(a,m) d^m(eta_u)/dt^m - C(a,m+1) D_t^{m+1} xi_t] * D^{a-m} u
            - sum_{m>=1} C(a,m) * D^{a-m} u_x * D_t^m xi_x

truncated at a configurable order M.  The fractional d^a/dt^a acts on the
explicit t-dependence with u held as a t-independent indeterminate, through
the Riemann-Liouville power rule (so it maps a u-independent constant c to
c*t^-a/Gamma(1-a), not to zero).  Under that convention the two explicit
terms cancel exactly for eta = c*u, and every series term vanishes for the
affine/scaling ansatz xi_t = e*t, xi_x = a0 + a1*x, eta = c*u.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .cases import alpha_kind
from .calculus import (
    JetContext, diff, is_polynomial_in, split_by, total_derivative_t,
)
from .expr import (
    Expr, Num, Sym, Pow, Func, GammaF, FDeriv, ExprError,
    add, mul, pow_, num, sym, gammaf, fderiv, as_expr,
    contains_symbol, is_zero_exact, replace_node, substitute,
    to_text, ZERO, ONE, MINUS_ONE,
)
from .pde import (
    T, U, X, CoeffTag, Generator, PdeSpec,
)

__all__ = [
    "SymmetryError", "UnsupportedAnsatzError", "OutsideCatalogError",
    "ProlongationResult", "SeriesTerm", "DeterminingSystem",
    "generalized_binomial", "rl_partial_t",
    "eta_alpha", "integer_prolongations", "invariance_residual",
    "determining_system", "classify",
]

DEFAULT_TRUNCATION = 5

_E = sym("_e")
_A0 = sym("_a0")
_A1 = sym("_a1")
_C = sym("_c")


class SymmetryError(ExprError):
    pass


class UnsupportedAnsatzError(SymmetryError):
    """Infinitesimals outside the polynomial class handled symbolically."""


class OutsideCatalogError(SymmetryError):
    """(alpha, g) combination not covered by the classification catalog."""


def _binomial(binom: list, alpha: Expr, m: int) -> Expr:
    """C(alpha, m) from ``binom = [C(alpha, 0), ...]``, which is extended
    only as far as m by C(alpha, k+1) = C(alpha, k) * (alpha - k) / (k + 1)."""
    while len(binom) <= m:
        k = len(binom) - 1
        binom.append(mul(binom[k], add(alpha, num(-k)), num(Q(1, k + 1))))
    return binom[m]


def generalized_binomial(alpha, m: int) -> Expr:
    """C(alpha, m) = prod_{j<m} (alpha - j) / m!  with exact arithmetic."""
    if m < 0:
        raise ValueError("binomial order must be >= 0")
    return _binomial([ONE], as_expr(alpha), m)


def _gamma_ratio(a: Expr, b: Expr) -> Expr:
    """Gamma(a)/Gamma(b), exactly 0 when b is a nonpositive integer."""
    if isinstance(b, Num) and b.value.denominator == 1 and b.value <= 0:
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
        if mono == ONE:
            p = Q(0)
        elif mono == T:
            p = Q(1)
        elif isinstance(mono, Pow) and mono.base == T and isinstance(mono.exp, Num):
            p = mono.exp.value
        else:
            raise UnsupportedAnsatzError(
                f"t-dependence {mono} is not a rational power of t")
        if p <= -1:
            raise UnsupportedAnsatzError(
                f"power-rule domain requires exponent > -1, got {p}")
        ratio = _gamma_ratio(num(p + 1), add(num(p + 1), mul(MINUS_ONE, alpha)))
        out.append(mul(coeff, ratio,
                       pow_(T, add(num(p), mul(MINUS_ONE, alpha)))))
    return add(*out)


@dataclass(frozen=True)
class SeriesTerm:
    """One surviving Leibniz-series term: coeff * D^(alpha-order) target."""

    order: int
    target: str  # "u" or "u_x"
    coeff: Expr


@dataclass(frozen=True)
class ProlongationResult:
    eta_alpha: Expr
    eta_x: Expr
    eta_xx: Expr
    eta_xxx: Expr
    series_truncation: int
    residual_series_terms: tuple[SeriesTerm, ...]


def _check_polynomial_gen(gen: Generator):
    for name, e in (("xi_t", gen.xi_t), ("xi_x", gen.xi_x), ("eta", gen.eta)):
        if not is_polynomial_in(e, ("t", "x", "u")):
            raise UnsupportedAnsatzError(
                f"{name} = {to_text(e)} is not polynomial in (t, x, u)")


def integer_prolongations(gen: Generator, ctx: JetContext | None = None):
    """(eta_x, eta_xx, eta_xxx) by the standard recursion
    eta^(k+1) = D_x eta^(k) - u_{x^k x} D_x xi_x - u_{x^k t} D_x xi_t."""
    ctx = ctx or JetContext()
    dx = lambda e: diff(e, "x", 1, ctx)
    dxi_x = dx(gen.xi_x)
    dxi_t = dx(gen.xi_t)
    current = gen.eta
    out = []
    for k in range(1, 4):
        current = add(dx(current),
                      mul(MINUS_ONE, ctx.jet(k, 0), dxi_x),
                      mul(MINUS_ONE, ctx.jet(k - 1, 1), dxi_t))
        out.append(current)
    return tuple(out)


def eta_alpha(gen: Generator, alpha, M: int = DEFAULT_TRUNCATION,
              ctx: JetContext | None = None) -> ProlongationResult:
    """Prolongation coefficient on the D^alpha_t u coordinate, plus the
    integer prolongations, with the Leibniz series truncated at order M."""
    if M < 1:
        raise ValueError("series truncation must be >= 1")
    ctx = ctx or JetContext()
    _check_polynomial_gen(gen)
    alpha = as_expr(alpha)
    # C(alpha, m) is built only for an m whose derivative is nonzero; the
    # affine ansatz needs none
    binom = [ONE]

    eta_u = diff(gen.eta, "u")
    dt_xi_t = total_derivative_t(gen.xi_t, ctx)

    fd_u = fderiv(U, T, alpha)
    head = add(
        rl_partial_t(gen.eta, alpha),
        mul(add(eta_u, mul(MINUS_ONE, alpha, dt_xi_t)), fd_u),
        mul(MINUS_ONE, U, rl_partial_t(eta_u, alpha)),
    )

    series: list[SeriesTerm] = []
    tail = []
    dtk_xi_t = dt_xi_t
    dtk_xi_x = gen.xi_x
    for m in range(1, M + 1):
        dtk_xi_t = total_derivative_t(dtk_xi_t, ctx)  # D_t^{m+1} xi_t
        dtk_xi_x = total_derivative_t(dtk_xi_x, ctx)  # D_t^m xi_x
        dtk_eta_u = diff(eta_u, "t", m)
        if dtk_eta_u == ZERO and dtk_xi_t == ZERO and dtk_xi_x == ZERO:
            break  # every higher derivative is zero too
        coeff_u = add(
            mul(_binomial(binom, alpha, m), dtk_eta_u)
            if dtk_eta_u != ZERO else ZERO,
            mul(MINUS_ONE, _binomial(binom, alpha, m + 1), dtk_xi_t)
            if dtk_xi_t != ZERO else ZERO,
        )
        if coeff_u != ZERO:
            series.append(SeriesTerm(m, "u", coeff_u))
            tail.append(mul(coeff_u,
                            fderiv(U, T, add(alpha, num(-m)))))
        coeff_ux = (mul(MINUS_ONE, _binomial(binom, alpha, m), dtk_xi_x)
                    if dtk_xi_x != ZERO else ZERO)
        if coeff_ux != ZERO:
            series.append(SeriesTerm(m, "u_x", coeff_ux))
            tail.append(mul(coeff_ux,
                            fderiv(ctx.jet(1, 0), T, add(alpha, num(-m)))))

    ex, exx, exxx = integer_prolongations(gen, ctx)
    return ProlongationResult(
        eta_alpha=add(head, *tail),
        eta_x=ex, eta_xx=exx, eta_xxx=exxx,
        series_truncation=M,
        residual_series_terms=tuple(series),
    )


def invariance_residual(spec: PdeSpec, gen: Generator,
                        M: int = DEFAULT_TRUNCATION) -> Expr:
    """Apply the prolonged generator to the PDE on its solution set.

    Returns the canonical residual: exactly zero iff gen is a symmetry to
    truncation M.  Surviving D^(alpha-m) obstruction terms stay in the
    result rather than being dropped.
    """
    ctx = JetContext()
    prol = eta_alpha(gen, spec.alpha, M, ctx)

    rest = add(mul(num(spec.zeta), diff(pow_(U, spec.m), "x", 1, ctx)),
               mul(spec.g.expr(), diff(pow_(U, spec.n), "x", 3, ctx)))

    applied = [prol.eta_alpha]
    coords = [
        (T, gen.xi_t), (X, gen.xi_x), (U, gen.eta),
        (ctx.jet(1, 0), prol.eta_x),
        (ctx.jet(2, 0), prol.eta_xx),
        (ctx.jet(3, 0), prol.eta_xxx),
    ]
    for coord, coeff in coords:
        if coeff == ZERO:
            continue
        partial = diff(rest, coord.name)
        if partial != ZERO:
            applied.append(mul(coeff, partial))
    total = add(*applied)

    # restrict to solutions: D^alpha_t u = -(the integer-order part)
    fd_u = fderiv(U, T, spec.alpha)
    on_solution = replace_node(total, fd_u, mul(MINUS_ONE, rest))
    return on_solution


# ---------------------------------------------------------------------------
# determining system


@dataclass
class DeterminingSystem:
    """Linear homogeneous system on the ansatz coefficients (a0, a1, e, c)
    of xi_x = a0 + a1*x, xi_t = e*t, eta = c*u, built at Leibniz
    truncation ``truncation``."""

    spec: PdeSpec
    equations: list[Expr]
    unknowns: tuple[Sym, ...] = (_A0, _A1, _E, _C)
    truncation: int = DEFAULT_TRUNCATION

    def is_solution(self, a0, a1, e, c) -> bool:
        binding = {_A0.name: as_expr(a0), _A1.name: as_expr(a1),
                   _E.name: as_expr(e), _C.name: as_expr(c)}
        return all(is_zero_exact(substitute(eq, binding))
                   for eq in self.equations)

    def solve(self) -> list[Generator]:
        """Basis of the solution space within the ansatz, every candidate
        re-verified against the full invariance residual."""
        gens: list[Generator] = []
        if self.is_solution(ONE, ZERO, ZERO, ZERO):
            gens.append(Generator(ZERO, ONE, ZERO))
        scaling = self._solve_scaling()
        if scaling is not None:
            gens.append(scaling)
        verified = []
        for gen in gens:
            if invariance_residual(self.spec, gen, self.truncation) == ZERO:
                verified.append(gen)
        return verified

    def _solve_scaling(self):
        """Solve with e = -1 for (a1, c); None if inconsistent."""
        eqs = [substitute(eq, {_A0.name: ZERO, _E.name: MINUS_ONE})
               for eq in self.equations]
        eqs = [eq for eq in eqs if eq != ZERO]
        a1_val, c_val = _solve_linear_2(eqs, _A1, _C)
        if a1_val is None:
            return None
        check = [substitute(eq, {_A1.name: a1_val, _C.name: c_val})
                 for eq in eqs]
        if not all(is_zero_exact(r) for r in check):
            return None
        return Generator.from_coeffs(MINUS_ONE, ZERO, a1_val, c_val)


def _solve_linear_2(eqs: list[Expr], xsym: Sym, ysym: Sym):
    """Solve a consistent linear system in two unknowns; (None, None) if no
    solution can be isolated or the system is inconsistent."""
    # eliminate y first from some equation with invertible y-coefficient
    for first, second in ((ysym, xsym), (xsym, ysym)):
        sol = _try_elimination(eqs, first, second)
        if sol is not None:
            fv, sv = sol
            if first is ysym:
                return sv, fv
            return fv, sv
    return None, None


def _try_elimination(eqs: list[Expr], v1: Sym, v2: Sym):
    """Express v1 from an equation, substitute, solve the rest for v2."""
    for i, eq in enumerate(eqs):
        c1 = diff(eq, v1)
        if c1 == ZERO or contains_symbol(c1, (v1.name, v2.name)):
            continue
        rest = substitute(eq, {v1.name: ZERO})
        v1_expr_in_v2 = mul(MINUS_ONE, rest, pow_(c1, MINUS_ONE))
        others = [substitute(e2, {v1.name: v1_expr_in_v2})
                  for j, e2 in enumerate(eqs) if j != i]
        others = [e2 for e2 in others if not is_zero_exact(e2)]
        if not others:
            return None  # one-parameter family: not a determined scaling
        v2_val = _solve_single(others, v2)
        if v2_val is None:
            continue
        v1_val = substitute(v1_expr_in_v2, {v2.name: v2_val})
        return v1_val, v2_val
    return None


def _solve_single(eqs: list[Expr], v: Sym):
    """Solve linear equations in one unknown; None if inconsistent or free."""
    candidate = None
    for eq in eqs:
        cv = diff(eq, v)
        if contains_symbol(cv, v.name):
            return None
        if cv == ZERO:
            if not is_zero_exact(eq):
                return None  # inconsistent constant equation
            continue
        rest = substitute(eq, {v.name: ZERO})
        val = mul(MINUS_ONE, rest, pow_(cv, MINUS_ONE))
        if candidate is None:
            candidate = val
        elif not is_zero_exact(add(candidate, mul(MINUS_ONE, val))):
            return None
    return candidate


def determining_system(spec: PdeSpec,
                       M: int = DEFAULT_TRUNCATION) -> DeterminingSystem:
    """Build the determining equations for the affine/scaling ansatz by
    collecting the invariance residual over jet monomials and explicit
    t-structure."""
    gen = Generator.from_coeffs(_E, _A0, _A1, _C)
    residual = invariance_residual(spec, gen, M)

    ctx = JetContext()

    def is_state_factor(f: Expr) -> bool:
        if isinstance(f, FDeriv):
            return True
        if isinstance(f, Pow):
            return is_state_factor(f.base)
        if isinstance(f, Sym):
            return ctx.parse_jet(f.name) is not None
        if isinstance(f, (Func, GammaF)):
            # opaque g(t) and Gamma(1-alpha) belong to the t-structure side
            return False
        return False

    equations: list[Expr] = []
    seen = set()
    for _, coeff in split_by(residual, is_state_factor).items():
        t_groups = split_by(coeff, lambda f: contains_symbol(f, "t"))
        for _, eq in t_groups.items():
            if eq == ZERO:
                continue
            for u_ in (_A0, _A1, _E, _C):
                cu = diff(eq, u_)
                if contains_symbol(cu, ("_a0", "_a1", "_e", "_c")):
                    raise SymmetryError(
                        "determining equation is not linear in the ansatz "
                        f"coefficients: {to_text(eq)}")
            if eq not in seen:
                seen.add(eq)
                equations.append(eq)
    return DeterminingSystem(spec=spec, equations=equations, truncation=M)


# ---------------------------------------------------------------------------
# classification


_X_TRANSLATION = Generator(ZERO, ONE, ZERO)


def classify(spec: PdeSpec, M: int = DEFAULT_TRUNCATION) -> list[Generator]:
    """Symmetry-algebra basis for a catalog (alpha, g) combination.

    The basis lists the x-translation first; a t-scaling, when present, is
    normalized to coefficient -1 on t*d/dt.  The two special g-forms at
    alpha = 1/3 are certified by direct verification of the translation
    (the catalog attaches no further generators to them).
    """
    kind = alpha_kind(spec.alpha)
    if kind == "unsupported":
        raise OutsideCatalogError(
            f"alpha = {to_text(spec.alpha)} is outside the catalog")
    if spec.g.tag in (CoeffTag.SHIFTED_POWER_23, CoeffTag.QUAD_POWER_13):
        if kind != "1/3":
            raise OutsideCatalogError(
                f"g-form {spec.g.tag.value} is cataloged only at alpha = 1/3")
        if invariance_residual(spec, _X_TRANSLATION, M) != ZERO:
            raise SymmetryError(
                "translation verification failed for a catalog form")
        return [_X_TRANSLATION]
    system = determining_system(spec, M)
    return system.solve()

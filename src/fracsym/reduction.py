"""Similarity reductions: invariants by the method of characteristics, the
group-invariant substitution, reduced fractional ODEs, the adjudication
of stored reduced forms against the derivation and the grid oracle, and the
kernel solution that the translation reduction's ODE is checked at.

For a scaling generator e*t d/dt + a1*x d/dx + c*u d/du the invariants are
r = t*x^(-e/a1) and z = u*x^(-c/a1); substituting u = x^p h(r) with
p = c/a1, q = -e/a1 turns the PDE into x^s * R(r, h, h', h'', h''', D^a h).
The derivation never builds h(t*x^q): each term is carried as a pair
(a, F(r)) standing for x^a * F(r), and d/dx acts on the pair by
D_x(x^a F) = x^(a-1) * (a*F + q*r*F').  The time-fractional term crosses
over by the RL scaling identity D^a_t[h(t*x^q)] = x^(q*a) (D^a h)(r), so it
is x^(p + q*alpha) * D^a h(r); only g(t) is rewritten, at t = r*x^-q.

Adjudication policy: the derived reduced ODE is authoritative; stored
(printed) forms are comparison targets whose per-term status is reported,
never silently corrected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction as Q

from .calculus import diff, split_by
from .expr import (
    Expr, Sym, Prod, Pow, Func, FDeriv, ExprError,
    add, mul, pow_, num, sym, func, gammaf, fderiv, as_expr,
    contains_symbol, eval_numeric, is_zero_exact, power_of, substitute,
    to_text,
    ZERO, MINUS_ONE,
)
from .fracnum import (
    fode_residual_on_grid, pde_residual_on_grid, relative_deviation,
)
from .pde import Generator, PdeSpec, T, U, X

__all__ = [
    "ReductionError", "SimilarityReduction", "CoefficientComparison",
    "ComparisonReport",
    "characteristic_invariants", "similarity_substitute",
    "compare_reduced_forms", "reduced_residual_identity_check",
    "kernel_solution", "R_SYM",
]

R_SYM = sym("r")


class ReductionError(ExprError):
    pass


@dataclass
class SimilarityReduction:
    """Invariant pair r = t*x^q, z = u*x^(-p) plus the derived reduction.

    The x-translation is the case p = q = 0: r = t, z = u.
    """

    p: Expr
    q: Expr
    normalization_power: Expr | None = None
    reduced_ode: Expr | None = None

    @property
    def translation_case(self) -> bool:
        return self.p == ZERO and self.q == ZERO

    @property
    def r_expr(self) -> Expr:
        return mul(T, pow_(X, self.q))

    @property
    def z_expr(self) -> Expr:
        return mul(U, pow_(X, mul(MINUS_ONE, self.p)))


def characteristic_invariants(gen: Generator) -> SimilarityReduction:
    """Invariants of dt/xi_t = dx/xi_x = du/eta for the normal-form classes.

    Pure x-translation gives (r, z) = (t, u); a scaling generator gives the
    monomial invariants above.  A translation mixed into a scaling is not a
    case the catalog produces and is rejected.
    """
    nf = gen.normal_form()
    if nf is None:
        raise ReductionError(
            "generator is outside the affine/scaling normal form")
    e, a0, a1, c = nf
    if e == ZERO and a1 == ZERO and c == ZERO:
        return SimilarityReduction(p=ZERO, q=ZERO)
    if a0 != ZERO:
        raise ReductionError(
            "translation component mixed with a scaling is unsupported "
            "(no such reduction case exists)")
    if a1 == ZERO:
        raise ReductionError(
            "scaling without an x-component admits no x-monomial invariants")
    inv_a1 = pow_(a1, MINUS_ONE)
    return SimilarityReduction(
        p=mul(c, inv_a1),
        q=mul(MINUS_ONE, e, inv_a1),
    )


def _group_x_power(e: Expr):
    """Factor e as x^s * R; raises with the offending terms otherwise."""
    groups = split_by(e, lambda f: contains_symbol(f, "x"))
    exponents = []
    for mono in groups:
        expo = power_of(mono, "x")
        if expo is None:
            raise ReductionError(
                f"residual term mixes x irreducibly: {to_text(mono)}")
        exponents.append(expo)
    merged: list[tuple[Expr, list[Expr]]] = []
    for expo, (mono, coeff) in zip(exponents, groups.items()):
        for known, parts in merged:
            if is_zero_exact(add(expo, mul(MINUS_ONE, known))):
                parts.append(coeff)
                break
        else:
            merged.append((expo, [coeff]))
    if len(merged) > 1:
        details = ", ".join(f"x^({to_text(expo)})" for expo, _ in merged)
        raise ReductionError(
            f"residual does not factor as a single x-power: {details}")
    s, parts = merged[0]
    return s, add(*parts)


def _d_x(a: Expr, F: Expr, q: Expr):
    """d/dx of x^a * F(r) at r = t*x^q, as the pair (a - 1, a*F + q*r*F')."""
    return add(a, MINUS_ONE), add(mul(a, F), mul(q, R_SYM, diff(F, "r")))


def similarity_substitute(spec: PdeSpec,
                          red: SimilarityReduction) -> SimilarityReduction:
    """Substitute the group-invariant ansatz u = x^p h(t*x^q) into the PDE.

    Returns a copy of ``red`` carrying the derived reduced ODE (with the
    fractional term's coefficient equal to 1) and the stripped x-power s.
    """
    p, q = red.p, red.q
    h = func("h", (R_SYM,))
    frac = mul(pow_(X, add(p, mul(q, spec.alpha))),
               fderiv(h, R_SYM, spec.alpha))

    a, F = _d_x(mul(num(spec.m), p), pow_(h, spec.m), q)
    convect = mul(num(spec.zeta), pow_(X, a), F)

    a, F = mul(num(spec.n), p), pow_(h, spec.n)
    for _ in range(3):
        a, F = _d_x(a, F, q)
    # g carries the one explicit t: express it through r = t*x^q
    g = substitute(spec.g,
                   {"t": mul(R_SYM, pow_(X, mul(MINUS_ONE, q)))})
    disperse = mul(g, pow_(X, a), F)

    s, reduced = _group_x_power(add(frac, convect, disperse))
    return replace(red, normalization_power=s, reduced_ode=reduced)


# ---------------------------------------------------------------------------
# comparison against stored printed forms


@dataclass(frozen=True)
class CoefficientComparison:
    monomial: Expr
    derived: Expr      # normalized so the FD coefficient matches the target
    printed: Expr
    equal: bool

    def as_record(self) -> dict:
        return {
            "monomial": to_text(self.monomial),
            "derived": to_text(self.derived),
            "printed": to_text(self.printed),
            "equal": self.equal,
        }


@dataclass(frozen=True)
class ComparisonReport:
    entries: tuple[CoefficientComparison, ...]
    all_equal: bool

    def mismatches(self) -> list[CoefficientComparison]:
        return [e for e in self.entries if not e.equal]

    def normalized_derived(self) -> Expr:
        """The derived form rescaled to the target's FD coefficient."""
        return add(*(mul(e.derived, e.monomial) for e in self.entries))


def _reduced_monomials(e: Expr) -> dict:
    """Group a reduced-form expression over its (r, h, FD) monomials."""
    def belongs(f: Expr) -> bool:
        if isinstance(f, FDeriv):
            return True
        if isinstance(f, Pow):
            return belongs(f.base)
        if isinstance(f, Func) and f.name == "h":
            return True
        if isinstance(f, Sym) and f.name == "r":
            return True
        return False

    return split_by(e, belongs)


def _fd_coefficient(groups: dict) -> Expr:
    for mono, coeff in groups.items():
        if isinstance(mono, FDeriv) or (
                isinstance(mono, Prod)
                and any(isinstance(f, FDeriv) for f in mono.factors)):
            return coeff
    raise ReductionError("reduced form carries no fractional-derivative term")


def compare_reduced_forms(derived: Expr, printed: Expr) -> ComparisonReport:
    """Per-monomial coefficient comparison after normalizing both sides to
    the printed fractional-derivative coefficient.

    Equality is decided exactly (cross-multiplied, denominators cleared);
    mismatches are listed, never auto-resolved.
    """
    d_groups = _reduced_monomials(as_expr(derived))
    p_groups = _reduced_monomials(as_expr(printed))
    d0 = _fd_coefficient(d_groups)
    p0 = _fd_coefficient(p_groups)

    monos: list[Expr] = list(d_groups)
    for m in p_groups:
        if m not in d_groups:
            monos.append(m)
    monos.sort(key=lambda m: m._key)

    entries = []
    inv_d0 = pow_(d0, MINUS_ONE)
    for m in monos:
        d_coeff = d_groups.get(m, ZERO)
        p_coeff = p_groups.get(m, ZERO)
        # d/d0 == p/p0  <=>  d*p0/d0 - p == 0 (d0 != 0)
        normalized = mul(d_coeff, p0, inv_d0)
        equal = is_zero_exact(add(normalized, mul(MINUS_ONE, p_coeff)))
        entries.append(CoefficientComparison(
            monomial=m, derived=normalized, printed=p_coeff, equal=equal))
    return ComparisonReport(entries=tuple(entries),
                            all_equal=all(e.equal for e in entries))


# ---------------------------------------------------------------------------
# grid adjudication


def reduced_residual_identity_check(spec: PdeSpec, red: SimilarityReduction,
                                    h_test: Expr, points: list) -> float:
    """Max relative deviation between the PDE residual of u = x^p h(t x^q)
    and x^s * (reduced ODE at r = t x^q), over the given (x, t) points.

    Everything must be numeric (alpha and the g-parameters); h_test is a
    power sum in r with exponents >= 1 so the power rule never hits a
    singular Gamma argument.
    """
    if red.reduced_ode is None:
        raise ReductionError("run similarity_substitute first")
    h_test = as_expr(h_test)

    u_expr = mul(pow_(X, red.p), substitute(h_test, {"r": red.r_expr}))
    lhs = pde_residual_on_grid(spec, u_expr, points)

    q = float(eval_numeric(red.q))
    s = float(eval_numeric(red.normalization_power))
    r_points = [float(tv) * float(xv) ** q for xv, tv in points]
    spowers = [float(xv) ** s for xv, _ in points]
    rhs = fode_residual_on_grid(red.reduced_ode, h_test, r_points)

    worst = 0.0
    for lhs_val, spower, rhs_val in zip(lhs, spowers, rhs):
        worst = max(worst, relative_deviation(lhs_val, spower * rhs_val))
    return worst


# ---------------------------------------------------------------------------
# kernel solution


def kernel_solution(alpha) -> Expr:
    """h(t) = t^(alpha-1) / Gamma(alpha), the RL null-space element of
    order alpha in (0, 1]; at alpha = 1 it is the constant 1, the kernel of
    the classical derivative."""
    alpha = Q(alpha)
    if not 0 < alpha <= 1:
        raise ReductionError("kernel solution needs alpha in (0, 1]")
    return mul(pow_(T, num(alpha - 1)), pow_(gammaf(alpha), MINUS_ONE))

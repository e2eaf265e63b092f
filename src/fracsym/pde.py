"""The time-fractional K(m,n) family: its specification and the exact
scaling-weight homogeneity check behind every scaling symmetry.

The equation is  D^a_t u + zeta*(u^m)_x + g(t)*(u^n)_xxx = 0  on t > 0 with
0 < a <= 1, zeta = +-1 and n != 0.  g is held as the expression written
for it: the opaque g(t), or a member of the closed catalog

    k,  k*t^b,  k*exp(b*t),  k*(t-b)^(2/3),  k*(t^2-b)^(1/3)

with k and b free of t (numbers or symbols).  g names none of the
equation's other variables: x, u and its derivatives, and the reductions'
similarity variable r.  The catalog form's tag is read off the expression
when a spec is built, and :func:`power_law` reads k and b off the
weight-homogeneous forms k and k*t^b.  :func:`term_weights` and
:func:`scaling_invariance_check` take a scaling as its three weights
(w_t, w_x, w_u); any other g-form raises ``PdeModelError`` there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction as Q

from .calculus import diff, parse_jet
from .expr import (
    Expr, Num, Pow, Prod, Func, ExprError,
    add, mul, pow_, num, sym, func, as_expr, contains_symbol, free_symbols,
    is_zero_exact, power_of, to_text, ZERO, ONE, MINUS_ONE,
)
from .parser import parse_expression

__all__ = [
    "CoeffTag", "PdeSpec", "Generator", "PdeModelError",
    "term_weights", "scaling_invariance_check", "power_law",
    "coeff_form_from_text", "T", "X", "U", "ALPHA", "B", "K",
]

T = sym("t")
X = sym("x")
U = sym("u")
ALPHA = sym("alpha")
B = sym("b")
K = sym("k")

# the opaque coefficient of the arbitrary form
_G = func("g", (T,))

_MAX_EXPONENT = 6

# x and the reductions' similarity variable r; u and its jets are read by
# calculus.parse_jet
_VARIABLES = ("x", "r")


class PdeModelError(ExprError):
    pass


class CoeffTag(enum.Enum):
    ARBITRARY = "arbitrary"
    CONSTANT = "constant"
    POWER = "power"
    EXPONENTIAL = "exponential"
    SHIFTED_POWER_23 = "shifted-power-2/3"
    QUAD_POWER_13 = "quad-power-1/3"


def _outside_catalog(text: str) -> PdeModelError:
    return PdeModelError(
        f"coefficient {text!r} is not in the g(t) catalog "
        "(constant, k*t^b, k*exp(b*t), k*(t-b)^(2/3), k*(t^2-b)^(1/3), "
        "or 'arbitrary')")


def coeff_form_from_text(src: str, alpha: Expr) -> Expr:
    """g(t) from its text, with ``alpha`` bound to the spec's order.

    ``"arbitrary"`` (or ``g``, ``g(t)``) selects the opaque g(t);
    any other text must parse to a catalog form.
    """
    text = src.strip()
    if text.lower() in ("arbitrary", "g", "g(t)"):
        return _G
    g = parse_expression(text, {"alpha": alpha})
    if _match_coeff_form(g) is None:
        raise _outside_catalog(src)
    return g


def _split_t_factor(e: Expr):
    """(k-part, t-parts): the product of e's t-free factors, and the list
    of the others."""
    factors = e.factors if isinstance(e, Prod) else (e,)
    t_parts = [f for f in factors if "t" in free_symbols(f)]
    k_parts = [f for f in factors if "t" not in free_symbols(f)]
    kk = mul(*k_parts) if k_parts else ONE
    return kk, t_parts


def power_law(g: Expr):
    """(k, b) with g = k*t^b and k, b free of t (b = 0 for a constant g);
    None when g has no such form."""
    kk, t_parts = _split_t_factor(g)
    if not t_parts:
        return kk, ZERO
    if len(t_parts) == 1:
        b = power_of(t_parts[0], "t")
        if b is not None and not contains_symbol(b, "t"):
            return kk, b
    return None


def _match_coeff_form(e: Expr) -> CoeffTag | None:
    """The catalog tag of a nonzero g, or None outside the catalog."""
    if e == _G:
        return CoeffTag.ARBITRARY
    kk, t_parts = _split_t_factor(e)
    if is_zero_exact(kk) or len(t_parts) > 1:
        return None
    if not t_parts:
        return CoeffTag.CONSTANT
    if power_law(e) is not None:
        return CoeffTag.POWER
    tp = t_parts[0]
    if isinstance(tp, Func) and tp.name == "exp" and tp.order == 0:
        arg = tp.args[0]
        bb = diff(arg, "t")
        if "t" not in free_symbols(bb) and is_zero_exact(
                add(arg, mul(MINUS_ONE, bb, T))):
            return CoeffTag.EXPONENTIAL
        return None
    if isinstance(tp, Pow) and isinstance(tp.exp, Num):
        if tp.exp.c == Q(2, 3):
            bb = add(T, mul(MINUS_ONE, tp.base))
            if "t" not in free_symbols(bb):
                return CoeffTag.SHIFTED_POWER_23
        if tp.exp.c == Q(1, 3):
            bb = add(pow_(T, 2), mul(MINUS_ONE, tp.base))
            if "t" not in free_symbols(bb):
                return CoeffTag.QUAD_POWER_13
    return None


@dataclass(frozen=True)
class PdeSpec:
    """A K(m,n) instance: order alpha, exponents m, n, sign zeta, and g;
    ``tag`` is g's catalog form."""

    alpha: Expr = ALPHA
    m: int = 2
    n: int = 3
    zeta: int = 1
    g: Expr = _G
    tag: CoeffTag = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_expr(self.alpha))
        object.__setattr__(self, "g", as_expr(self.g))
        if is_zero_exact(self.g):
            raise PdeModelError("coefficient k must be nonvanishing")
        named = sorted(name for name in free_symbols(self.g)
                       if name in _VARIABLES
                       or parse_jet(name) is not None)
        if named:
            raise PdeModelError("g(t) may not name the equation's "
                                f"variables: {', '.join(named)}")
        tag = _match_coeff_form(self.g)
        if tag is None:
            raise _outside_catalog(to_text(self.g))
        object.__setattr__(self, "tag", tag)
        if isinstance(self.alpha, Num):
            if not (0 < self.alpha.c <= 1):
                raise PdeModelError("alpha must lie in (0, 1]")
        if self.n == 0:
            raise PdeModelError("n must be nonzero")
        if not (1 <= self.m <= _MAX_EXPONENT and 1 <= self.n <= _MAX_EXPONENT):
            raise PdeModelError(
                f"m, n are restricted to 1..{_MAX_EXPONENT} for the jet "
                "expansion routines")
        if self.zeta not in (1, -1):
            raise PdeModelError("zeta must be +1 or -1")


@dataclass(frozen=True)
class Generator:
    """Infinitesimal generator xi_t d/dt + xi_x d/dx + eta d/du."""

    xi_t: Expr
    xi_x: Expr
    eta: Expr

    def __post_init__(self):
        object.__setattr__(self, "xi_t", as_expr(self.xi_t))
        object.__setattr__(self, "xi_x", as_expr(self.xi_x))
        object.__setattr__(self, "eta", as_expr(self.eta))
        if all(map(is_zero_exact, (self.xi_t, self.xi_x, self.eta))):
            raise PdeModelError("generator must not vanish identically")

    @classmethod
    def from_coeffs(cls, e, a0, a1, c) -> "Generator":
        """Affine/scaling normal form xi_t = e*t, xi_x = a0 + a1*x, eta = c*u."""
        return cls(mul(as_expr(e), T),
                   add(as_expr(a0), mul(as_expr(a1), X)),
                   mul(as_expr(c), U))

    def normal_form(self):
        """(e, a0, a1, c) with xi_t = e*t, xi_x = a0 + a1*x, eta = c*u and
        each part free of (t, x, u), else None.  A part that
        ``is_zero_exact`` decides zero comes back as ``ZERO``."""
        e = diff(self.xi_t, "t")
        a1 = diff(self.xi_x, "x")
        a0 = add(self.xi_x, mul(MINUS_ONE, a1, X))
        c = diff(self.eta, "u")
        parts = tuple(ZERO if is_zero_exact(p) else p for p in (e, a0, a1, c))
        if any(free_symbols(p) & {"t", "x", "u"} for p in parts) \
                or not is_zero_exact(add(self.xi_t, mul(MINUS_ONE, e, T))) \
                or not is_zero_exact(add(self.eta, mul(MINUS_ONE, c, U))):
            return None
        return parts

    def as_text_triple(self):
        return (to_text(self.xi_t), to_text(self.xi_x), to_text(self.eta))

    def proportional_to(self, other: "Generator") -> bool:
        """Projective comparison: equal up to one nonzero scalar multiple,
        decided by the three 2x2 minors (neither generator vanishes)."""
        mine = (self.xi_t, self.xi_x, self.eta)
        theirs = (other.xi_t, other.xi_x, other.eta)
        return all(is_zero_exact(add(mul(mine[i], theirs[j]),
                                     mul(MINUS_ONE, mine[j], theirs[i])))
                   for i, j in ((0, 1), (0, 2), (1, 2)))


def term_weights(spec: PdeSpec, w_t, w_x, w_u) -> list[Expr]:
    """lambda-exponents of the three PDE terms under the scaling
    t -> lam^w_t t, x -> lam^w_x x, u -> lam^w_u u.

    The fractional term scales with w_u - alpha*w_t; each d/dx lowers the
    weight by w_x; g = k*t^b contributes b*w_t.  An exponential or shifted
    g has no weight, and raises ``PdeModelError``.
    """
    law = power_law(spec.g)
    if law is None:
        raise PdeModelError(f"g-form {spec.tag.value} is not "
                            "weight-homogeneous")
    b = law[1]
    frac = add(w_u, mul(MINUS_ONE, spec.alpha, w_t))
    convect = add(mul(num(spec.m), w_u), mul(MINUS_ONE, w_x))
    disperse = add(mul(b, w_t), mul(num(spec.n), w_u), mul(num(-3), w_x))
    return [frac, convect, disperse]


def scaling_invariance_check(spec: PdeSpec, w_t, w_x, w_u) -> bool:
    """True iff all three term weights agree as exact symbolic rationals."""
    weights = term_weights(spec, w_t, w_x, w_u)
    return all(is_zero_exact(add(weights[0], mul(MINUS_ONE, wi)))
               for wi in weights[1:])

"""The time-fractional K(m,n) family: its specification and the exact
scaling-weight homogeneity check behind every scaling symmetry.

The equation is  D^a_t u + zeta*(u^m)_x + g(t)*(u^n)_xxx = 0  on t > 0 with
0 < a <= 1, zeta = +-1, n != 0, and g drawn from a closed catalog of
coefficient forms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction as Q

from .calculus import diff
from .expr import (
    Expr, Num, Pow, Prod, Func, ExprError,
    add, mul, pow_, num, sym, func, as_expr, free_symbols,
    is_zero_exact, to_text, ZERO, ONE, MINUS_ONE,
)

__all__ = [
    "CoeffTag", "CoeffForm", "PdeSpec", "Generator", "ScalingWeights",
    "PdeModelError", "NotWeightHomogeneous",
    "term_weights", "scaling_invariance_check",
    "coeff_form_from_text", "T", "X", "U", "ALPHA", "B", "K",
]

T = sym("t")
X = sym("x")
U = sym("u")
ALPHA = sym("alpha")
B = sym("b")
K = sym("k")

_MAX_EXPONENT = 6


class PdeModelError(ExprError):
    pass


class NotWeightHomogeneous(PdeModelError):
    """g-form has no scaling weight (exponential and shifted forms)."""


class CoeffTag(enum.Enum):
    ARBITRARY = "arbitrary"
    CONSTANT = "constant"
    POWER = "power"
    EXPONENTIAL = "exponential"
    SHIFTED_POWER_23 = "shifted-power-2/3"
    QUAD_POWER_13 = "quad-power-1/3"


@dataclass(frozen=True)
class CoeffForm:
    """One member of the g(t) catalog; k and b may be rationals or symbols."""

    tag: CoeffTag
    k: Expr = K
    b: Expr = B

    def __post_init__(self):
        object.__setattr__(self, "k", as_expr(self.k))
        object.__setattr__(self, "b", as_expr(self.b))
        if isinstance(self.k, Num) and self.k.value == 0:
            raise PdeModelError("coefficient k must be nonvanishing")

    def expr(self) -> Expr:
        """g(t) as an expression; the arbitrary form is an opaque g(t)."""
        t = T
        if self.tag is CoeffTag.ARBITRARY:
            return func("g", (t,))
        if self.tag is CoeffTag.CONSTANT:
            return self.k
        if self.tag is CoeffTag.POWER:
            return mul(self.k, pow_(t, self.b))
        if self.tag is CoeffTag.EXPONENTIAL:
            return mul(self.k, func("exp", (mul(self.b, t),)))
        if self.tag is CoeffTag.SHIFTED_POWER_23:
            return mul(self.k, pow_(add(t, mul(MINUS_ONE, self.b)), Q(2, 3)))
        if self.tag is CoeffTag.QUAD_POWER_13:
            return mul(self.k,
                       pow_(add(pow_(t, 2), mul(MINUS_ONE, self.b)), Q(1, 3)))
        raise PdeModelError(f"unhandled tag {self.tag}")  # pragma: no cover

    @property
    def weight_homogeneous(self) -> bool:
        return self.tag in (CoeffTag.CONSTANT, CoeffTag.POWER)

    def power_exponent(self) -> Expr:
        """b such that g = k * t^b, for the weight-homogeneous forms."""
        if self.tag is CoeffTag.CONSTANT:
            return ZERO
        if self.tag is CoeffTag.POWER:
            return self.b
        raise NotWeightHomogeneous(f"g-form {self.tag.value} is not "
                                   "weight-homogeneous")


def coeff_form_from_text(src: str) -> CoeffForm:
    """Recognize a CoeffForm from an expression string.

    ``"arbitrary"`` selects the opaque form; otherwise the expression is
    matched structurally against the catalog (k and b may be numbers or the
    symbols k, b).
    """
    from .parser import parse_expression

    text = src.strip()
    if text.lower() in ("arbitrary", "g", "g(t)"):
        return CoeffForm(CoeffTag.ARBITRARY)
    e = parse_expression(text)
    form = _match_coeff_form(e)
    if form is None:
        raise PdeModelError(
            f"coefficient {src!r} is not in the g(t) catalog "
            "(constant, k*t^b, k*exp(b*t), k*(t-b)^(2/3), k*(t^2-b)^(1/3), "
            "or 'arbitrary')")
    return form


def _split_t_factor(e: Expr):
    """(k-part, t-part) where k-part is t-free; t-part is a single factor."""
    factors = e.factors if isinstance(e, Prod) else (e,)
    t_parts = [f for f in factors if "t" in free_symbols(f)]
    k_parts = [f for f in factors if "t" not in free_symbols(f)]
    kk = mul(*k_parts) if k_parts else ONE
    return kk, t_parts


def _match_coeff_form(e: Expr):
    kk, t_parts = _split_t_factor(e)
    if isinstance(kk, Num) and kk.value == 0:
        return None
    if not t_parts:
        return CoeffForm(CoeffTag.CONSTANT, k=kk)
    if len(t_parts) != 1:
        return None
    tp = t_parts[0]
    if tp == T:
        return CoeffForm(CoeffTag.POWER, k=kk, b=ONE)
    if isinstance(tp, Pow) and tp.base == T:
        return CoeffForm(CoeffTag.POWER, k=kk, b=tp.exp)
    if isinstance(tp, Func) and tp.name == "exp" and tp.order == 0:
        arg = tp.args[0]
        bb = diff(arg, "t")
        if "t" not in free_symbols(bb) and is_zero_exact(
                add(arg, mul(MINUS_ONE, bb, T))):
            return CoeffForm(CoeffTag.EXPONENTIAL, k=kk, b=bb)
        return None
    if isinstance(tp, Pow) and isinstance(tp.exp, Num):
        if tp.exp.value == Q(2, 3):
            base = tp.base
            bb = add(T, mul(MINUS_ONE, base))
            if "t" not in free_symbols(bb):
                return CoeffForm(CoeffTag.SHIFTED_POWER_23, k=kk, b=bb)
        if tp.exp.value == Q(1, 3):
            base = tp.base
            bb = add(pow_(T, 2), mul(MINUS_ONE, base))
            if "t" not in free_symbols(bb):
                return CoeffForm(CoeffTag.QUAD_POWER_13, k=kk, b=bb)
    return None


@dataclass(frozen=True)
class PdeSpec:
    """A K(m,n) instance: order alpha, exponents m, n, sign zeta, and g."""

    alpha: Expr = ALPHA
    m: int = 2
    n: int = 3
    zeta: int = 1
    g: CoeffForm = CoeffForm(CoeffTag.ARBITRARY)

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_expr(self.alpha))
        if isinstance(self.alpha, Num):
            if not (0 < self.alpha.value <= 1):
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
        if self.xi_t == ZERO and self.xi_x == ZERO and self.eta == ZERO:
            raise PdeModelError("generator must not vanish identically")

    @classmethod
    def from_coeffs(cls, e, a0, a1, c) -> "Generator":
        """Affine/scaling normal form xi_t = e*t, xi_x = a0 + a1*x, eta = c*u."""
        return cls(mul(as_expr(e), T),
                   add(as_expr(a0), mul(as_expr(a1), X)),
                   mul(as_expr(c), U))

    def normal_form(self):
        """(e, a0, a1, c) if the generator is in the affine/scaling class,
        else None."""
        e = diff(self.xi_t, "t")
        if "t" in free_symbols(e) or not is_zero_exact(
                add(self.xi_t, mul(MINUS_ONE, e, T))):
            return None
        a1 = diff(self.xi_x, "x")
        if "x" in free_symbols(a1):
            return None
        a0 = add(self.xi_x, mul(MINUS_ONE, a1, X))
        if "x" in free_symbols(a0) or "t" in free_symbols(a0) \
                or "u" in free_symbols(a0):
            return None
        c = diff(self.eta, "u")
        if "u" in free_symbols(c) or not is_zero_exact(
                add(self.eta, mul(MINUS_ONE, c, U))):
            return None
        for part in (e, a1, c):
            if free_symbols(part) & {"t", "x", "u"}:
                return None
        return (e, a0, a1, c)

    def as_text_triple(self):
        return (to_text(self.xi_t), to_text(self.xi_x), to_text(self.eta))

    def proportional_to(self, other: "Generator") -> bool:
        """Projective comparison: equal up to one nonzero scalar multiple."""
        mine = (self.xi_t, self.xi_x, self.eta)
        theirs = (other.xi_t, other.xi_x, other.eta)
        for i in range(3):
            for j in range(3):
                cross = add(mul(mine[i], theirs[j]),
                            mul(MINUS_ONE, mine[j], theirs[i]))
                if not is_zero_exact(cross):
                    return False
        # rule out the zero-vs-nonzero mismatch: components vanish together
        for a, b_ in zip(mine, theirs):
            if (a == ZERO) != (b_ == ZERO):
                return False
        return True


@dataclass(frozen=True)
class ScalingWeights:
    """Exponents of t -> lam^w_t t, x -> lam^w_x x, u -> lam^w_u u."""

    w_t: Expr
    w_x: Expr
    w_u: Expr

    def __post_init__(self):
        object.__setattr__(self, "w_t", as_expr(self.w_t))
        object.__setattr__(self, "w_x", as_expr(self.w_x))
        object.__setattr__(self, "w_u", as_expr(self.w_u))
        if self.w_t == ZERO and self.w_x == ZERO and self.w_u == ZERO:
            raise PdeModelError("at least one weight must be nonzero")


def term_weights(spec: PdeSpec, w: ScalingWeights) -> list[Expr]:
    """lambda-exponents of the three PDE terms under the scaling.

    The fractional term scales with w_u - alpha*w_t; each d/dx lowers the
    weight by w_x; g = k*t^b contributes b*w_t.
    """
    b = spec.g.power_exponent()  # raises NotWeightHomogeneous otherwise
    frac = add(w.w_u, mul(MINUS_ONE, spec.alpha, w.w_t))
    convect = add(mul(num(spec.m), w.w_u), mul(MINUS_ONE, w.w_x))
    disperse = add(mul(b, w.w_t), mul(num(spec.n), w.w_u),
                   mul(num(-3), w.w_x))
    return [frac, convect, disperse]


def scaling_invariance_check(spec: PdeSpec, w: ScalingWeights) -> bool:
    """True iff all three term weights agree as exact symbolic rationals."""
    weights = term_weights(spec, w)
    return all(is_zero_exact(add(weights[0], mul(MINUS_ONE, wi)))
               for wi in weights[1:])

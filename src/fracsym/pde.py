"""The time-fractional K(m,n) family: its specification and the exact
scaling-weight homogeneity check behind every scaling symmetry.

The equation is  D^a_t u + zeta*(u^m)_x + g(t)*(u^n)_xxx = 0  on t > 0 with
0 < a <= 1, zeta = +-1 and n != 0.  g is any nonzero expression in t and
parameters (numbers or symbols), the opaque g(t), :data:`G`, included.  g
names none of the equation's other variables: x, u and its derivatives,
and the reductions' similarity variable r.  The catalog of the g-forms
that the classification table covers is :mod:`fracsym.cases`'s, not the
model's.  :func:`power_law` reads k and b off the weight-homogeneous
forms k and k*t^b; :func:`term_weights` and :func:`scaling_invariance_check`
take a scaling as its three weights (w_t, w_x, w_u), and any other g
raises ``PdeModelError`` there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import diff, parse_jet, split_by
from .expr import (
    Expr, Num, ExprError,
    add, mul, num, sym, func, as_expr, contains_symbol, free_symbols,
    is_zero_exact, power_of, to_text, ZERO, MINUS_ONE,
)

__all__ = [
    "PdeSpec", "Generator", "PdeModelError",
    "term_weights", "scaling_invariance_check", "power_law",
    "T", "X", "U", "G", "ALPHA", "B", "K",
]

T = sym("t")
X = sym("x")
U = sym("u")
ALPHA = sym("alpha")
B = sym("b")
K = sym("k")

# the opaque coefficient g(t) of the arbitrary form
G = func("g", (T,))

_MAX_EXPONENT = 6

# x and the reductions' similarity variable r; u and its jets are read by
# calculus.parse_jet
_VARIABLES = ("x", "r")


class PdeModelError(ExprError):
    pass


def power_law(g: Expr):
    """(k, b) with g = k*t^b and k, b free of t (b = 0 for a constant g):
    g's terms share one t-part, a power of t; None when g has no such
    form."""
    parts = split_by(g, lambda f: "t" in free_symbols(f))
    if len(parts) != 1:
        return None
    (t_part, kk), = parts.items()
    b = power_of(t_part, "t")
    if b is None or contains_symbol(b, "t"):
        return None
    return kk, b


@dataclass(frozen=True)
class PdeSpec:
    """A K(m,n) instance: order alpha, exponents m, n, sign zeta, and g."""

    alpha: Expr = ALPHA
    m: int = 2
    n: int = 3
    zeta: int = 1
    g: Expr = G

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
    weight by w_x; g = k*t^b contributes b*w_t.  Any other g has no
    weight, and raises ``PdeModelError``.
    """
    law = power_law(spec.g)
    if law is None:
        raise PdeModelError(f"g = {to_text(spec.g)} is not "
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

"""Numerical fractional calculus: the independent oracle for every symbolic
claim.

Division of labor: closed-form power sums are differentiated exactly with
the Riemann-Liouville power rule, its Gamma values from ``math.gamma``; the
Grünwald-Letnikov history sum handles everything else (and cross-checks the
power rule at first order in the grid spacing).  The RL lower terminal is
0 throughout: a :class:`Grid` samples [0, t1] and has no other start.

The GL value is taken at the last grid node only: one extended-precision
dot product of the weights with the reversed history, O(N) in the number
of samples, in NumPy.  The sum always covers the full history from t = 0.

Power sums are sampled with ``np.float_power``, one pass per term.  Its
float64 loop calls the C library's ``pow`` once per element, as Python's
``float ** float`` does, so each sample is bitwise the value of the
per-node Python expression; ``np.power`` is dispatched to SIMD code on
some hosts and differs from ``pow`` in the last bit.

NumPy is imported only inside the GL kernel and the sampler (:class:`Grid`,
:func:`gl_weights`, :func:`gl_rl_derivative`, :func:`sample_power_sum`),
so the symbolic commands, which never reach them, do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import TYPE_CHECKING

from .calculus import diff
from .expr import (
    Expr, Num, Prod, Sum, Func, EvalError, ExprError,
    mul, pow_, as_expr, compile_numeric, eval_numeric, free_symbols,
    power_of, ZERO, ONE,
)
from .pde import PdeSpec

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Grid", "FracDomainError", "UnsupportedProfileError",
    "rl_power_rule", "gl_weights", "gl_rl_derivative",
    "sample_power_sum", "power_profile", "pde_residual_on_grid",
    "fode_residual_on_grid", "GL_BACKEND", "relative_deviation",
]

# the one GL implementation; run reports stamp it
GL_BACKEND = "python"


class FracDomainError(ExprError):
    pass


class UnsupportedProfileError(ExprError):
    """Profile is not a separable power sum; use the GL path instead."""


@dataclass(frozen=True)
class Grid:
    """Uniformly sampled function values on [0, t1]."""

    t1: float
    values: np.ndarray

    def __post_init__(self):
        import numpy as np
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.shape[0] < 2:
            raise FracDomainError("grid needs at least 2 samples")
        if not self.t1 > 0:
            raise FracDomainError("grid requires t1 > 0")

    @property
    def steps(self) -> int:
        return int(self.values.shape[0])

    @property
    def dt(self) -> float:
        return self.t1 / (self.steps - 1)

    @classmethod
    def sample(cls, fn, t1: float, steps: int) -> "Grid":
        import numpy as np
        ts = np.linspace(0.0, t1, steps)
        return cls(t1, np.array([fn(t) for t in ts], dtype=np.float64))


def rl_power_rule(p, alpha: float, t: float) -> float:
    """RL derivative of t^p at t: Gamma(p+1)/Gamma(p+1-alpha) * t^(p-alpha).

    Exactly 0 when p+1-alpha is a nonpositive integer (the 1/Gamma pole);
    in particular p = alpha-1 is annihilated for every t.
    """
    try:
        if not (float(p) > -1.0):
            raise FracDomainError(f"power rule requires p > -1, got {p}")
        shifted_f = float(p) + 1.0 - float(alpha)
        if shifted_f < 1e-12 and abs(shifted_f - round(shifted_f)) < 1e-12:
            return 0.0
        value = (math.gamma(float(p) + 1.0) / math.gamma(shifted_f)
                 * float(t) ** (float(p) - float(alpha)))
    except OverflowError:  # p or the value beyond the float range
        value = math.inf
    if math.isinf(value):  # a float product past the range is inf, silently
        raise FracDomainError(
            f"power rule value overflows a float at t = {t!r}")
    return value


def gl_weights(alpha: float, n: int) -> np.ndarray:
    """First n GL weights via the multiplicative recurrence (no Gamma calls).

    w_0 = 1, w_i = w_{i-1} * (1 - (alpha+1)/i), accumulated in long double
    and rounded to float64.  The ratios and their running product are built
    in place in one long-double array.
    """
    import numpy as np
    ratios = np.arange(1, n, dtype=np.longdouble)
    np.divide(np.longdouble(float(alpha)) + 1.0, ratios, out=ratios)
    np.subtract(1.0, ratios, out=ratios)
    np.cumprod(ratios, out=ratios)
    out = np.ones(n, dtype=np.float64)
    out[1:] = ratios
    return out


def gl_rl_derivative(samples: Grid, alpha: float) -> float:
    """Grünwald-Letnikov approximation of the RL derivative at samples.t1.

    (D^a f)(t_j) ~ dt^-a * sum_{i<=j} w_i f(t_{j-i}), evaluated at the last
    node j = N-1 as one long-double dot product over the full history;
    first-order accurate for smooth f with f(0) = 0.
    """
    if not 0.0 < alpha < 1.0:
        raise FracDomainError("alpha must lie in (0, 1)")
    import numpy as np
    try:
        scale = samples.dt ** (-alpha)
    except OverflowError:
        raise FracDomainError(
            f"GL scale dt^-alpha overflows a float at dt = {samples.dt!r}"
        ) from None
    w = gl_weights(alpha, samples.steps).astype(np.longdouble)
    history = samples.values[::-1].astype(np.longdouble)
    # a Python float product: inf on overflow, and no NumPy warning
    return float(np.float64(np.dot(w, history))) * scale


def sample_power_sum(profile: list, t1: float, steps: int) -> Grid:
    """Sample sum(c * t^p) on [0, t1] from a power_profile in t.

    Each term is one ``np.float_power`` pass over the nodes, scaled by its
    coefficient and added in profile order, so every sample is bitwise
    ``sum(c * float(t) ** p)``: ``float_power`` calls the C library's pow
    per element, as Python's float power does, where ``np.power`` may take
    a SIMD path that is not bitwise equal to it.  A sample beyond the float
    range raises :class:`FracDomainError` naming the first node it reaches.
    """
    import numpy as np
    nodes = np.linspace(0.0, t1, steps)
    values = np.zeros(steps)
    term = np.empty(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        for coeff, exps in profile:
            np.float_power(nodes, float(exps.get("t", Q(0))), out=term)
            term *= coeff
            values += term
    finite = np.isfinite(values)
    if not finite.all():
        at = float(nodes[finite.argmin()])
        raise FracDomainError(f"sampled value overflows a float at t = {at!r}")
    return Grid(t1, values)


# ---------------------------------------------------------------------------
# closed-form residual evaluation


def power_profile(e: Expr, variables: tuple[str, ...]) -> list:
    """Decompose e into [(coeff, {var: exponent})] with Fraction exponents.

    The coefficient may be any expression free of the given variables
    (it is evaluated numerically, so Gamma constants are fine).  Raises
    :class:`UnsupportedProfileError` for anything outside the separable
    power-sum class.
    """
    e = as_expr(e)
    out = []
    terms = e.terms if isinstance(e, Sum) else (e,)
    if e == ZERO:
        return []
    for term in terms:
        factors = term.factors if isinstance(term, Prod) else (term,)
        exps: dict[str, Q] = {}
        coeff_parts = []
        for f in factors:
            hit = free_symbols(f).intersection(variables)
            if not hit:
                coeff_parts.append(f)
                continue
            name = min(hit)
            p = power_of(f, name) if len(hit) == 1 else None
            if not isinstance(p, Num):
                raise UnsupportedProfileError(
                    f"factor {f} is not a pure power of {variables}")
            exps[name] = exps.get(name, Q(0)) + p.c
        try:
            coeff = eval_numeric(mul(*coeff_parts) if coeff_parts else ONE)
        except EvalError as exc:
            raise UnsupportedProfileError(
                f"coefficient of {term} is not numeric: {exc}") from exc
        out.append((coeff, exps))
    return out


def _power_rule_sum(profile, var: str, alpha: float, point: dict) -> float:
    """Power-rule value at ``point`` of D^alpha in ``var`` of a power sum
    from :func:`power_profile`: each term's coefficient times its powers of
    the other variables, times the RL derivative of its power of ``var``."""
    total = 0.0
    for coeff, exps in profile:
        term = coeff
        for name, p in exps.items():
            if name != var:
                term *= float(point[name]) ** float(p)
        total += term * rl_power_rule(exps.get(var, Q(0)), alpha, point[var])
    return total


def _numeric_alpha(spec: PdeSpec) -> float:
    if not isinstance(spec.alpha, Num):
        raise FracDomainError("grid evaluation needs a numeric alpha")
    return float(spec.alpha.c)


def pde_residual_on_grid(spec: PdeSpec, u_closed_form: Expr,
                         points: list) -> list[float]:
    """Residual of the PDE at (x, t) points for an explicit power-sum u.

    The fractional term is evaluated term-by-term with the RL power rule;
    the spatial terms are differentiated symbolically, compiled once and
    evaluated at every point.  g(t) is evaluated only where the dispersion
    term it multiplies is nonzero, so an x-free u needs no values for an
    opaque g.
    """
    alpha = _numeric_alpha(spec)
    u_expr = as_expr(u_closed_form)
    profile = power_profile(u_expr, ("x", "t"))
    for _, exps in profile:
        if not exps.get("t", Q(0)) > -1:
            raise UnsupportedProfileError(
                "time exponents must exceed -1 for the power rule; "
                "use the GL path for other profiles")

    convect = compile_numeric(diff(pow_(u_expr, spec.m), "x", 1))
    disperse_expr = diff(pow_(u_expr, spec.n), "x", 3)
    disperse = compile_numeric(disperse_expr)
    g = compile_numeric(spec.g)

    out = []
    for xv, tv in points:
        point = {"x": float(xv), "t": float(tv)}
        value = (_power_rule_sum(profile, "t", alpha, point)
                 + spec.zeta * convect(point))
        if disperse_expr != ZERO:
            value += g(point) * disperse(point)
        out.append(value)
    return out


def fode_residual_on_grid(reduced_ode: Expr, h_closed_form: Expr,
                          r_points: list) -> list[float]:
    """Evaluate a reduced fractional ODE at r-points for an explicit h(r).

    The single FD(h, r, alpha) node is resolved by the RL power rule applied
    term-by-term to h; integer derivatives of h are symbolic.  The ODE and
    each derivative of h it uses are compiled once.
    """
    h_expr = as_expr(h_closed_form)
    h_profile = power_profile(h_expr, ("r",)) if h_expr != ZERO else []
    h_derivatives: dict = {}

    def h_eval(rv: float, order: int) -> float:
        fn = h_derivatives.get(order)
        if fn is None:
            fn = h_derivatives[order] = compile_numeric(
                diff(h_expr, "r", order) if order else h_expr)
        return fn({"r": rv})

    def fd_handler(node, point):
        if not isinstance(node.alpha, Num):
            raise EvalError("fractional order must be numeric here")
        a = float(node.alpha.c)
        inner = node.expr
        if isinstance(inner, Func) and inner.name == "h" and inner.order == 0:
            return _power_rule_sum(h_profile, "r", a, point)
        raise EvalError(f"cannot resolve FD of {inner}")

    reduced = compile_numeric(reduced_ode, funcs={"h": h_eval},
                              fd_handler=fd_handler)
    return [reduced({"r": float(rv)}) for rv in r_points]


def relative_deviation(a: float, b: float) -> float:
    """Relative when both magnitudes exceed 1e-6, absolute otherwise."""
    scale = max(abs(a), abs(b))
    if scale > 1e-6:
        return abs(a - b) / scale
    return abs(a - b)

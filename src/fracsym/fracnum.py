"""Numerical fractional calculus: the independent oracle for every symbolic
claim.

Division of labor: closed-form power sums are differentiated exactly with
the Riemann-Liouville power rule; the Grünwald-Letnikov history sum handles
everything else (and cross-checks the power rule at first order in the grid
spacing).  The RL lower terminal is fixed at 0 throughout.

The GL value is taken at the last grid node only: one extended-precision
dot product of the weights with the reversed history, O(N) in the number
of samples, in NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import repeat

import numpy as np

from .calculus import diff
from .expr import (
    Expr, Num, Sym, Pow, Prod, Sum, EvalError, ExprError,
    mul, pow_, as_expr, eval_numeric, free_symbols, ZERO, ONE,
)
from .pde import PdeSpec
from .special import gamma_fn

__all__ = [
    "Grid", "FracConfig", "FracDomainError", "UnsupportedProfileError",
    "gamma_fn", "rl_power_rule", "gl_weights", "gl_rl_derivative",
    "sample_power_sum", "power_profile", "pde_residual_on_grid",
    "fode_residual_on_grid", "GL_BACKEND", "REL_TOL_DEFAULT",
    "ABS_TOL_DEFAULT", "relative_deviation",
]

REL_TOL_DEFAULT = 1e-8
ABS_TOL_DEFAULT = 1e-10


# the one GL implementation; run reports stamp it
GL_BACKEND = "python"


class FracDomainError(ExprError):
    pass


class UnsupportedProfileError(ExprError):
    """Profile is not a separable power sum; use the GL path instead."""


@dataclass(frozen=True)
class Grid:
    """Uniformly sampled function values on [t0, t1]."""

    t0: float
    t1: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.shape[0] < 2:
            raise FracDomainError("grid needs at least 2 samples")
        if not self.t1 > self.t0:
            raise FracDomainError("grid requires t1 > t0")

    @property
    def steps(self) -> int:
        return int(self.values.shape[0])

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / (self.steps - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps)

    @classmethod
    def sample(cls, fn, t0: float, t1: float, steps: int) -> "Grid":
        ts = np.linspace(t0, t1, steps)
        return cls(t0, t1, np.array([fn(t) for t in ts], dtype=np.float64))


@dataclass(frozen=True)
class FracConfig:
    alpha: float
    history_start: float = 0.0
    truncation: int | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise FracDomainError("alpha must lie in (0, 1)")
        if self.history_start < 0.0:
            raise FracDomainError("history start must be >= 0")
        if self.truncation is not None and self.truncation < 1:
            raise FracDomainError("truncation window must be >= 1")


def rl_power_rule(p, alpha: float, t: float) -> float:
    """RL derivative of t^p at t: Gamma(p+1)/Gamma(p+1-alpha) * t^(p-alpha).

    Exactly 0 when p+1-alpha is a nonpositive integer (the 1/Gamma pole);
    in particular p = alpha-1 is annihilated for every t.
    """
    exact = isinstance(p, Q) or isinstance(alpha, Q)
    pq = p if isinstance(p, Q) else None
    if not (float(p) > -1.0):
        raise FracDomainError(f"power rule requires p > -1, got {p}")
    if exact and isinstance(p, Q) and isinstance(alpha, Q):
        shifted = p + 1 - alpha
        if shifted.denominator == 1 and shifted <= 0:
            return 0.0
    shifted_f = float(p) + 1.0 - float(alpha)
    if shifted_f < 1e-12 and abs(shifted_f - round(shifted_f)) < 1e-12:
        return 0.0
    return (gamma_fn(float(p) + 1.0) / gamma_fn(shifted_f)
            * float(t) ** (float(p) - float(alpha)))


def gl_weights(alpha: float, n: int) -> np.ndarray:
    """First n GL weights via the multiplicative recurrence (no Gamma calls).

    w_0 = 1, w_i = w_{i-1} * (1 - (alpha+1)/i), accumulated in long double
    and rounded to float64.
    """
    out = np.ones(n, dtype=np.float64)
    ratios = 1.0 - (np.longdouble(float(alpha)) + 1.0) / np.arange(
        1, n, dtype=np.longdouble)
    out[1:] = np.cumprod(ratios)
    return out


def gl_rl_derivative(samples: Grid, cfg: FracConfig) -> float:
    """Grünwald-Letnikov approximation of the RL derivative at samples.t1.

    (D^a f)(t_j) ~ dt^-a * sum_{i<=j} w_i f(t_{j-i}), evaluated at the last
    node j = N-1 as one long-double dot product (the history is windowed to
    cfg.truncation terms when set); first-order accurate for smooth f with
    f(history_start) = 0.  The samples must start at the lower terminal
    (samples.t0 == cfg.history_start).
    """
    if abs(samples.t0 - cfg.history_start) > 1e-12:
        raise FracDomainError(
            "samples must start at the RL lower terminal "
            f"({samples.t0} != {cfg.history_start})")
    n = samples.steps
    m = n if cfg.truncation is None else min(cfg.truncation, n)
    w = gl_weights(cfg.alpha, m).astype(np.longdouble)
    history = samples.values[::-1][:m].astype(np.longdouble)
    value = np.float64(np.dot(w, history))
    return float(value * samples.dt ** (-cfg.alpha))


def sample_power_sum(profile: list, t1: float, steps: int) -> Grid:
    """Sample sum(c * t^p) on [0, t1] from a power_profile in t.

    Each term goes through Python's pow, node by node, so the samples are
    bitwise those of float(t) ** p (NumPy's vectorized power is not).
    """
    nodes = np.linspace(0.0, t1, steps)
    values = np.zeros(steps)
    for coeff, exps in profile:
        p = float(exps.get("t", Q(0)))
        values += coeff * np.fromiter(map(pow, nodes.tolist(), repeat(p)),
                                      float, steps)
    return Grid(0.0, t1, values)


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
            frees = free_symbols(f)
            hit = frees & set(variables)
            if not hit:
                coeff_parts.append(f)
                continue
            if isinstance(f, Sym):
                exps[f.name] = exps.get(f.name, Q(0)) + 1
            elif (isinstance(f, Pow) and isinstance(f.base, Sym)
                    and f.base.name in variables and isinstance(f.exp, Num)):
                name = f.base.name
                exps[name] = exps.get(name, Q(0)) + f.exp.value
            else:
                raise UnsupportedProfileError(
                    f"factor {f} is not a pure power of {variables}")
        try:
            coeff = eval_numeric(mul(*coeff_parts) if coeff_parts else ONE)
        except EvalError as exc:
            raise UnsupportedProfileError(
                f"coefficient of {term} is not numeric: {exc}") from exc
        out.append((coeff, exps))
    return out


def _rl_time_derivative_value(profile, alpha: float, x: float, t: float) -> float:
    total = 0.0
    for coeff, exps in profile:
        p = exps.get("t", Q(0))
        if not p > -1:
            raise UnsupportedProfileError(
                f"time exponent {p} outside the power-rule domain (> -1)")
        xpart = float(x) ** float(exps.get("x", Q(0)))
        total += coeff * xpart * rl_power_rule(p, alpha, t)
    return total


def _numeric_alpha(spec: PdeSpec) -> float:
    if not isinstance(spec.alpha, Num):
        raise FracDomainError("grid evaluation needs a numeric alpha")
    return float(spec.alpha.value)


def pde_residual_on_grid(spec: PdeSpec, u_closed_form: Expr,
                         points: list) -> list[float]:
    """Residual of the PDE at (x, t) points for an explicit power-sum u.

    The fractional term is evaluated term-by-term with the RL power rule;
    the spatial terms are differentiated symbolically and evaluated.
    """
    alpha = _numeric_alpha(spec)
    u_expr = as_expr(u_closed_form)
    profile = power_profile(u_expr, ("x", "t"))
    for _, exps in profile:
        if not exps.get("t", Q(0)) > -1:
            raise UnsupportedProfileError(
                "time exponents must exceed -1 for the power rule; "
                "use the GL path for other profiles")

    convect = diff(pow_(u_expr, spec.m), "x", 1)
    disperse = diff(pow_(u_expr, spec.n), "x", 3)
    g_expr = spec.g.expr()

    out = []
    for xv, tv in points:
        point = {"x": float(xv), "t": float(tv)}
        frac = _rl_time_derivative_value(profile, alpha, xv, tv)
        value = (frac
                 + spec.zeta * eval_numeric(convect, point)
                 + eval_numeric(g_expr, point) * eval_numeric(disperse, point))
        out.append(value)
    return out


def fode_residual_on_grid(reduced_ode: Expr, h_closed_form: Expr,
                          r_points: list) -> list[float]:
    """Evaluate a reduced fractional ODE at r-points for an explicit h(r).

    The single FD(h, r, alpha) node is resolved by the RL power rule applied
    term-by-term to h; integer derivatives of h are symbolic.
    """
    reduced = as_expr(reduced_ode)
    h_expr = as_expr(h_closed_form)
    h_profile = power_profile(h_expr, ("r",)) if h_expr != ZERO else []

    derivative_cache: dict[int, Expr] = {0: h_expr}

    def h_derivative(order: int) -> Expr:
        if order not in derivative_cache:
            derivative_cache[order] = diff(h_expr, "r", order)
        return derivative_cache[order]

    def handler_for(rv: float):
        def fd_handler(node):
            if not isinstance(node.alpha, Num):
                raise EvalError("fractional order must be numeric here")
            a = float(node.alpha.value)
            inner = node.expr
            from .expr import Func
            if isinstance(inner, Func) and inner.name in ("h", "f") \
                    and inner.order == 0:
                total = 0.0
                for coeff, exps in h_profile:
                    p = exps.get("r", Q(0))
                    total += coeff * rl_power_rule(p, a, rv)
                return total
            raise EvalError(f"cannot resolve FD of {inner}")

        def h_eval(xval: float, order: int) -> float:
            return eval_numeric(h_derivative(order), {"r": xval})

        return fd_handler, h_eval

    out = []
    for rv in r_points:
        rv = float(rv)
        fd_handler, h_eval = handler_for(rv)
        value = eval_numeric(
            reduced, {"r": rv},
            funcs={"h": h_eval, "f": h_eval},
            fd_handler=fd_handler)
        out.append(value)
    return out


def relative_deviation(a: float, b: float) -> float:
    """Relative when both magnitudes exceed 1e-6, absolute otherwise."""
    scale = max(abs(a), abs(b))
    if scale > 1e-6:
        return abs(a - b) / scale
    return abs(a - b)

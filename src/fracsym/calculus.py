"""Differentiation and jet coordinates.

``diff`` is one chain-rule walk.  By default it is the partial derivative.
With ``total=True`` it is the total derivative: each jet symbol (u, u_x,
u_xt, ...) at a leaf is raised along the variable, so e.g. d/dx of u^3
expands to 3 u^2 u_x.  :func:`jet` and :func:`parse_jet` own the jet-symbol
names ``u_<x...><t...>``.
"""

from __future__ import annotations

from .expr import (
    Expr, Num, Sym, Sum, Prod, Pow, Func, GammaF, FDeriv,
    ExprError, ZERO, ONE, MINUS_ONE,
    add, mul, pow_, sym, as_expr, children, free_symbols, contains_symbol,
)

__all__ = [
    "DiffError", "jet", "parse_jet", "diff", "split_by", "is_polynomial_in",
]

# the jet coordinates of u(t, x): spatial derivatives up to fifth order
# (the dispersion term needs three), time derivatives up to tenth
_DEPENDENT = "u"
_MAX_X_ORDER = 5
_MAX_T_ORDER = 10


class DiffError(ExprError):
    """Unsupported differentiation (fractional nodes, opaque multi-arg)."""


def jet(nx: int, nt: int) -> Sym:
    """The jet symbol of u differentiated nx times in x and nt times in t."""
    if nx == 0 and nt == 0:
        return sym(_DEPENDENT)
    if nx > _MAX_X_ORDER:
        raise DiffError(f"spatial jet order {nx} exceeds the cap "
                        f"{_MAX_X_ORDER}")
    if nt > _MAX_T_ORDER:
        raise DiffError(f"time jet order {nt} exceeds the cap")
    return sym(f"{_DEPENDENT}_{'x' * nx}{'t' * nt}")


def parse_jet(name: str):
    """(nx, nt) for a jet symbol name, or None."""
    if name == _DEPENDENT:
        return (0, 0)
    prefix = _DEPENDENT + "_"
    if not name.startswith(prefix):
        return None
    tail = name[len(prefix):]
    nx = 0
    while nx < len(tail) and tail[nx] == "x":
        nx += 1
    nt = len(tail) - nx
    if tail[nx:] != "t" * nt or not tail:
        return None
    return (nx, nt)


def _raise_jet(name: str, var: str) -> Sym:
    parsed = parse_jet(name)
    if parsed is None:
        raise DiffError(f"{name!r} is not a jet symbol")
    nx, nt = parsed
    if var == "x":
        return jet(nx + 1, nt)
    if var == "t":
        return jet(nx, nt + 1)
    raise DiffError(f"cannot raise jets along {var!r}")


def _partial(e: Expr, v: str, total: bool, deps: frozenset) -> Expr:
    """de/dv by the sum, product, power and chain rules.

    ``deps`` holds the symbols that vary with v: v itself and, for the
    total derivative, the jet symbols of the expression being
    differentiated.  A jet leaf becomes its jet raised along v, which makes
    the walk the total derivative; an FDeriv node holding no jet symbol is
    then a constant.
    """
    if isinstance(e, Num) or not contains_symbol(e, deps):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.name == v else _raise_jet(e.name, v)
    if isinstance(e, Sum):
        return add(*(_partial(t, v, total, deps) for t in e.terms))
    if isinstance(e, Prod):
        parts = []
        factors = e.factors
        for i, f in enumerate(factors):
            df = _partial(f, v, total, deps)
            if df == ZERO:
                continue
            parts.append(mul(df, *factors[:i], *factors[i + 1:]))
        return add(*parts)
    if isinstance(e, Pow):
        if contains_symbol(e.exp, deps):
            raise DiffError(
                f"exponent depends on {v!r}; logarithmic derivatives are out "
                "of scope")
        db = _partial(e.base, v, total, deps)
        return mul(e.exp, pow_(e.base, add(e.exp, MINUS_ONE)), db)
    if isinstance(e, Func):
        if len(e.args) != 1:
            raise DiffError(
                f"cannot differentiate {e.name}(...) with {len(e.args)} "
                "arguments")
        inner = _partial(e.args[0], v, total, deps)
        if inner == ZERO:
            return ZERO
        return mul(Func(e.name, e.args, e.order + 1), inner)
    if isinstance(e, GammaF):
        raise DiffError("derivative of Gamma (digamma) is out of scope")
    if isinstance(e, FDeriv):
        if total and free_symbols(e) & deps == {v}:
            return ZERO
        if e.var.name == v:
            raise DiffError(
                "cannot differentiate a fractional-derivative node in its "
                "own variable; use the grid numerics")
        raise DiffError(
            "cannot differentiate under a fractional-derivative node")
    raise TypeError(type(e))  # pragma: no cover


def diff(e, v, k: int = 1, total: bool = False) -> Expr:
    """k-th derivative along v; the total derivative when ``total``."""
    if k < 1:
        raise ValueError("derivative order must be >= 1")
    e = as_expr(e)
    name = v.name if isinstance(v, Sym) else str(v)
    for _ in range(k):
        deps = {name}
        if total:
            deps.update(n for n in free_symbols(e) if parse_jet(n) is not None)
        e = _partial(e, name, total, frozenset(deps))
    return e


def is_polynomial_in(e: Expr, names) -> bool:
    """True if e is polynomial in the given symbols (they occur only through
    nonnegative integer powers, never inside functions or exponents)."""
    names = set(names)

    def ok(node: Expr) -> bool:
        if not contains_symbol(node, names):
            return True
        if isinstance(node, Pow):
            # only a base raised to a natural number; a Num exponent is free
            # of the names, so this also rejects names in the exponent
            exp = node.exp
            if not (isinstance(exp, Num) and exp.c.denominator == 1
                    and exp.c >= 0):
                return False
        elif isinstance(node, (Func, GammaF, FDeriv)):
            return False
        return all(ok(c) for c in children(node))

    return ok(e)


def split_by(e: Expr, belongs) -> dict:
    """Group a canonical expression by monomials of selected factors.

    ``belongs(factor)`` decides whether a product factor joins the monomial
    part; the rest joins the coefficient.  Returns {monomial: coefficient}
    with canonical keys (num(1) for the coefficient-only group).
    """
    e = as_expr(e)
    groups: dict[Expr, list] = {}
    terms = e.terms if isinstance(e, Sum) else (e,)
    if e == ZERO:
        return {}
    for t in terms:
        factors = t.factors if isinstance(t, Prod) else (t,)
        mono_parts = []
        coeff_parts = []
        for f in factors:
            if isinstance(f, Num):
                coeff_parts.append(f)
            elif belongs(f):
                mono_parts.append(f)
            else:
                coeff_parts.append(f)
        mono = mul(*mono_parts) if mono_parts else ONE
        coeff = mul(*coeff_parts) if coeff_parts else ONE
        groups.setdefault(mono, []).append(coeff)
    return {mono: add(*parts) for mono, parts in groups.items()}


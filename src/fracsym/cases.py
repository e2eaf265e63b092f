"""The g(t) catalog, the classification cases and the two printed reduced
forms.

The model takes any g(t); the catalog holds the g-forms that the table
covers, the opaque g(t) and k, k*t^b, k*exp(b*t), k*(t-b)^(2/3) and
k*(t^2-b)^(1/3) with k and b free of t, and :func:`coeff_tag` reads a g's
form off the expression.  Classification keys follow the symmetry table
(1.1 .. 3.3).  A case holds its alpha kind and its g-forms as text in the
CLI expression grammar, the one its key presets first.  The printed
reduced forms are named by their paper section: 1 for the translation and
2.1 for the scaling, whose print at generic alpha and g = k*t^b covers every
scaling case of K(2,3) once alpha, b, k and zeta are bound.  They live in
``data/reduced_forms`` in the CLI expression grammar, one expression per
file with '#' comment lines.

:func:`outside_catalog` is the one coverage rule: alpha = 1 is outside the
table, and so is a g-form with no case at the spec's alpha.  The CLI refuses
such a spec with a failing ``classification`` check; the symmetry engine
itself derives a basis for any spec.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction as Q
from importlib import resources

from .calculus import split_by
from .expr import (
    Expr, Func, Num, Pow, Sym, MINUS_ONE, ONE, add, as_expr, contains_symbol,
    free_symbols, is_zero_exact, mul, num, pow_, substitute, to_text,
)
from .parser import parse_expression
from .pde import ALPHA, G, T, PdeModelError, PdeSpec, power_law

__all__ = [
    "CoeffTag", "coeff_tag", "coeff_form_from_text",
    "ClassificationCase", "CLASSIFICATION_CASES", "alpha_kind",
    "classification_case", "spec_for_case", "outside_catalog",
    "parse_printed_form", "load_printed_form",
]


class CoeffTag(enum.Enum):
    ARBITRARY = "arbitrary"
    CONSTANT = "constant"
    POWER = "power"
    EXPONENTIAL = "exponential"
    SHIFTED_POWER_23 = "shifted-power-2/3"
    QUAD_POWER_13 = "quad-power-1/3"


def coeff_tag(g: Expr) -> CoeffTag | None:
    """The catalog tag of a nonzero g, or None outside the catalog: g is
    the opaque g(t), or a t-free k times one t-part."""
    if g == G:
        return CoeffTag.ARBITRARY
    parts = split_by(g, lambda f: "t" in free_symbols(f))
    if len(parts) != 1:
        return None
    (tp, kk), = parts.items()
    if is_zero_exact(kk):
        return None
    if tp == ONE:
        return CoeffTag.CONSTANT
    if power_law(g) is not None:
        return CoeffTag.POWER
    if isinstance(tp, Func) and tp.name == "exp" and tp.order == 0:
        law = power_law(tp.args[0])      # the exponent is b*t
        return CoeffTag.EXPONENTIAL if law and law[1] == ONE else None
    if isinstance(tp, Pow) and isinstance(tp.exp, Num):
        if tp.exp.c == Q(2, 3) and not contains_symbol(
                add(T, mul(MINUS_ONE, tp.base)), "t"):
            return CoeffTag.SHIFTED_POWER_23
        if tp.exp.c == Q(1, 3) and not contains_symbol(
                add(pow_(T, 2), mul(MINUS_ONE, tp.base)), "t"):
            return CoeffTag.QUAD_POWER_13
    return None


def _read_g(src: str, alpha: Expr) -> Expr:
    """:func:`coeff_form_from_text` without its catalog test."""
    text = src.strip()
    if text.lower() in ("arbitrary", "g", "g(t)"):
        return G
    return parse_expression(text, {"alpha": alpha})


def coeff_form_from_text(src: str, alpha: Expr) -> Expr:
    """g(t) from its text, with ``alpha`` bound to the spec's order.

    ``"arbitrary"`` (or ``g``, ``g(t)``) selects the opaque g(t); any
    other text must parse to a catalog form."""
    g = _read_g(src, alpha)
    if coeff_tag(g) is None:
        raise PdeModelError(
            f"coefficient {src!r} is not in the g(t) catalog "
            "(constant, k*t^b, k*exp(b*t), k*(t-b)^(2/3), k*(t^2-b)^(1/3), "
            "or 'arbitrary')")
    return g


@dataclass(frozen=True)
class ClassificationCase:
    key: str
    alpha: str               # "generic" | "1/2" | "1/3", as alpha_kind names it
    g: str                   # the g-form in the CLI expression grammar
    also: tuple[str, ...] = ()   # further g-forms the case covers

    def spec(self, m: int = 2, n: int = 3, zeta: int = 1,
             k=None, b=None) -> PdeSpec:
        """The case's spec, with k and b replaced by the values given."""
        alpha = ALPHA if self.alpha == "generic" else num(Q(self.alpha))
        binding = {name: as_expr(value)
                   for name, value in (("k", k), ("b", b))
                   if value is not None}
        g = substitute(_read_g(self.g, alpha), binding)
        return PdeSpec(alpha=alpha, m=m, n=n, zeta=zeta, g=g)


CLASSIFICATION_CASES: dict[str, ClassificationCase] = {
    case.key: case for case in (
        ClassificationCase("1.1", "generic", "arbitrary"),
        ClassificationCase("1.2", "generic", "k*t^b"),
        ClassificationCase("1.3", "generic", "k"),
        ClassificationCase("2.1", "1/2", "k*exp(b*t)"),
        ClassificationCase("2.2", "1/2", "k*t^b"),
        ClassificationCase("2.3", "1/2", "k"),
        ClassificationCase("3.1", "1/3", "k*(t-b)^(2/3)",
                           also=("k*(t^2-b)^(1/3)", "k*exp(b*t)")),
        ClassificationCase("3.2", "1/3", "k*t^b"),
        ClassificationCase("3.3", "1/3", "k"),
    )
}

# (alpha kind, g-form) -> case key, for every g-form of every row
_CASE_KEYS = {(case.alpha, coeff_tag(_read_g(g, ALPHA))): case.key
              for case in CLASSIFICATION_CASES.values()
              for g in (case.g, *case.also)}


def classification_case(key: str) -> ClassificationCase:
    try:
        return CLASSIFICATION_CASES[key]
    except KeyError:
        raise KeyError(
            f"unknown classification case {key!r}; valid keys: "
            f"{', '.join(sorted(CLASSIFICATION_CASES))}") from None


def spec_for_case(key: str, **kwargs) -> PdeSpec:
    return classification_case(key).spec(**kwargs)


def alpha_kind(alpha: Expr) -> str:
    """Catalog kind of an order alpha: "generic" (a symbol), "1/2", "1/3",
    "rational" (another number in (0, 1)) or "unsupported"."""
    if isinstance(alpha, Sym):
        return "generic"
    if isinstance(alpha, Num):
        if alpha.c == Q(1, 2):
            return "1/2"
        if alpha.c == Q(1, 3):
            return "1/3"
        if 0 < alpha.c < 1:
            return "rational"
    return "unsupported"


def resolve_case_key(spec: PdeSpec) -> str | None:
    """Classification key matching a spec's (alpha, g-form), if any.

    A form not in the table at the spec's alpha falls back to its
    generic-alpha case; an exponential g, which has none, to the
    arbitrary-coefficient case 1.1, as the classification degenerates to
    the translation alone.
    """
    tag = coeff_tag(spec.g)
    hit = (_CASE_KEYS.get((alpha_kind(spec.alpha), tag))
           or _CASE_KEYS.get(("generic", tag)))
    if hit is None and tag is CoeffTag.EXPONENTIAL:
        return "1.1"
    return hit


def outside_catalog(spec: PdeSpec) -> str | None:
    """Why the table does not cover a spec, or None when it does: alpha = 1
    is outside it, and so is a g-form with no case at the spec's alpha."""
    if alpha_kind(spec.alpha) == "unsupported":
        return f"alpha = {to_text(spec.alpha)} is outside the catalog"
    if resolve_case_key(spec) is None:
        tag = coeff_tag(spec.g)
        if tag is None:
            return f"g = {to_text(spec.g)} is outside the catalog"
        return f"g-form {tag.value} is cataloged only at alpha = 1/3"
    return None


def parse_printed_form(text: str,
                       bindings: dict[str, Expr] | None = None) -> Expr:
    """Parse a reduced-form file: one expression, '#' comment lines; each
    name in ``bindings`` parses as its value."""
    lines = [ln.strip() for ln in text.splitlines()]
    exprs = [parse_expression(ln, bindings) for ln in lines
             if ln and not ln.startswith("#")]
    if len(exprs) != 1:
        raise ValueError("a reduced-form file holds exactly one expression")
    return exprs[0]


def load_printed_form(section: str, spec: PdeSpec) -> Expr:
    """The printed reduced ODE of a paper section ("1", the translation, or
    "2.1", the scaling), specialized to the spec's alpha and zeta and, for
    g = k*t^b or a constant g, to its k and b."""
    fname = f"case_{section.replace('.', '_')}.txt"
    text = (resources.files("fracsym.data.reduced_forms") / fname).read_text()
    binding = {"alpha": spec.alpha, "zeta": num(spec.zeta)}
    law = power_law(spec.g)
    if law is not None:
        binding["k"], binding["b"] = law
    return parse_printed_form(text, binding)

"""Catalog of classification cases and the two printed reduced forms.

Classification keys follow the symmetry table (1.1 .. 3.3).  A case holds
its alpha kind and its g as text in the CLI expression grammar; its catalog
tag is the one its parsed spec derives from g.  The printed
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

from dataclasses import dataclass
from fractions import Fraction as Q
from importlib import resources

from .expr import Expr, Num, Sym, as_expr, num, substitute, sym, to_text
from .parser import parse_expression
from .pde import CoeffTag, PdeSpec, coeff_form_from_text, power_law

__all__ = [
    "ClassificationCase", "CLASSIFICATION_CASES", "alpha_kind",
    "classification_case", "spec_for_case", "outside_catalog",
    "parse_printed_form", "load_printed_form",
]

ALPHA = sym("alpha")


@dataclass(frozen=True)
class ClassificationCase:
    key: str
    alpha: str               # "generic" | "1/2" | "1/3", as alpha_kind names it
    g: str                   # the g-form in the CLI expression grammar

    def spec(self, m: int = 2, n: int = 3, zeta: int = 1,
             k=None, b=None) -> PdeSpec:
        """The case's spec, with k and b replaced by the values given."""
        alpha = ALPHA if self.alpha == "generic" else num(Q(self.alpha))
        binding = {name: as_expr(value)
                   for name, value in (("k", k), ("b", b))
                   if value is not None}
        g = substitute(coeff_form_from_text(self.g, alpha), binding)
        return PdeSpec(alpha=alpha, m=m, n=n, zeta=zeta, g=g)


CLASSIFICATION_CASES: dict[str, ClassificationCase] = {
    case.key: case for case in (
        ClassificationCase("1.1", "generic", "arbitrary"),
        ClassificationCase("1.2", "generic", "k*t^b"),
        ClassificationCase("1.3", "generic", "k"),
        ClassificationCase("2.1", "1/2", "k*exp(b*t)"),
        ClassificationCase("2.2", "1/2", "k*t^b"),
        ClassificationCase("2.3", "1/2", "k"),
        ClassificationCase("3.1", "1/3", "k*(t-b)^(2/3)"),
        ClassificationCase("3.2", "1/3", "k*t^b"),
        ClassificationCase("3.3", "1/3", "k"),
    )
}

# (alpha kind, g-form) -> case key: the table, plus the two further
# g-forms that case 3.1 covers at alpha = 1/3
_CASE_KEYS = {(case.alpha, case.spec().tag): case.key
              for case in CLASSIFICATION_CASES.values()}
_CASE_KEYS.update({("1/3", CoeffTag.QUAD_POWER_13): "3.1",
                   ("1/3", CoeffTag.EXPONENTIAL): "3.1"})


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
    tag = spec.tag
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
        return f"g-form {spec.tag.value} is cataloged only at alpha = 1/3"
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

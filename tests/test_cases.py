"""Case-key resolution: every table entry and every fallback, pinned."""

import ast
from fractions import Fraction as Q
from importlib import resources

import pytest

from conftest import catalog_g
from fracsym.cases import (
    CLASSIFICATION_CASES, CoeffTag, alpha_kind, load_printed_form,
    parse_printed_form, resolve_case_key,
)
from fracsym.expr import mul, num, substitute, to_text
from fracsym.pde import ALPHA, PdeSpec, power_law

HALF, THIRD, OTHER = Q(1, 2), Q(1, 3), Q(3, 4)

CASE_KEYS = [
    # the classification table
    (ALPHA, CoeffTag.ARBITRARY, "1.1"),
    (ALPHA, CoeffTag.POWER, "1.2"),
    (ALPHA, CoeffTag.CONSTANT, "1.3"),
    (HALF, CoeffTag.EXPONENTIAL, "2.1"),
    (HALF, CoeffTag.POWER, "2.2"),
    (HALF, CoeffTag.CONSTANT, "2.3"),
    (THIRD, CoeffTag.SHIFTED_POWER_23, "3.1"),
    (THIRD, CoeffTag.QUAD_POWER_13, "3.1"),
    (THIRD, CoeffTag.EXPONENTIAL, "3.1"),
    (THIRD, CoeffTag.POWER, "3.2"),
    (THIRD, CoeffTag.CONSTANT, "3.3"),
    # the fallbacks: translation-only forms, then the power and constant
    # forms at any other alpha, then nothing
    (ALPHA, CoeffTag.EXPONENTIAL, "1.1"),
    (OTHER, CoeffTag.ARBITRARY, "1.1"),
    (OTHER, CoeffTag.POWER, "1.2"),
    (mul(2, ALPHA), CoeffTag.POWER, "1.2"),
    (Q(1), CoeffTag.CONSTANT, "1.3"),
    (HALF, CoeffTag.SHIFTED_POWER_23, None),
    (ALPHA, CoeffTag.QUAD_POWER_13, None),
]


@pytest.mark.parametrize("alpha, tag, key", CASE_KEYS)
def test_resolve_case_key(alpha, tag, key):
    assert resolve_case_key(PdeSpec(alpha=alpha, g=catalog_g(tag))) == key


@pytest.mark.parametrize("alpha, kind", [
    (ALPHA, "generic"), (num(HALF), "1/2"), (num(THIRD), "1/3"),
    (num(OTHER), "rational"), (num(1), "unsupported"),
    (mul(2, ALPHA), "unsupported"),
])
def test_alpha_kind(alpha, kind):
    assert alpha_kind(alpha) == kind


@pytest.mark.parametrize("zeta", [1, -1])
@pytest.mark.parametrize("case", sorted(CLASSIFICATION_CASES))
def test_bound_parse_equals_parse_then_substitute(case, zeta):
    spec = CLASSIFICATION_CASES[case].spec(zeta=zeta)
    binding = {"alpha": spec.alpha, "zeta": num(zeta)}
    law = power_law(spec.g)
    if law is not None:
        binding["k"], binding["b"] = law
    for section in ("1", "2.1"):
        text = (resources.files("fracsym.data.reduced_forms")
                / f"case_{section.replace('.', '_')}.txt").read_text()
        want = substitute(parse_printed_form(text), binding)
        got = load_printed_form(section, spec)
        assert got == want and to_text(got) == to_text(want), section


def _imported_modules(module: str) -> set[str]:
    """The fracsym modules a source file imports, by their short names."""
    src = (resources.files("fracsym") / f"{module}.py").read_text()
    names = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.removeprefix("fracsym."))
            else:   # from . import x
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.removeprefix("fracsym.")
                         for alias in node.names)
    return names


def test_the_engine_imports_no_front_end():
    """The case table is the front end's: the engine derives without it."""
    assert "cases" not in _imported_modules("symmetry")
    assert "cases" not in _imported_modules("reduction")
    assert "symmetry" not in _imported_modules("reduction")

"""Every exported name resolves: a name deleted from a module but still
listed in an ``__all__`` fails here instead of at a star import.  The
engine's modules import none of the front end."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import fracsym

MODULES = ["fracsym"] + [f"fracsym.{info.name}"
                         for info in pkgutil.iter_modules(fracsym.__path__)
                         if not info.ispkg]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing: {missing}"


# the engine, and the modules that read text or know the g(t) catalog
ENGINE = ("expr", "calculus", "pde", "symmetry", "reduction", "fracnum")
FRONT_END = {"parser", "cases", "cli"}


def _package_imports(module_name: str) -> set:
    """The fracsym modules a module's source imports, at any depth."""
    source = pathlib.Path(fracsym.__file__).with_name(f"{module_name}.py")
    found = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"fracsym.{module}".rstrip(".")
            names = [module,
                     *(f"{module}.{alias.name}" for alias in node.names)]
        else:
            continue
        found.update(name.split(".")[1] for name in names
                     if name.startswith("fracsym."))
    return found


@pytest.mark.parametrize("module_name", ENGINE)
def test_the_engine_imports_no_front_end(module_name):
    assert not _package_imports(module_name) & FRONT_END

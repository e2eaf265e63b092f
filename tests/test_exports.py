"""Every exported name resolves: a name deleted from a module but still
listed in an ``__all__`` fails here instead of at a star import."""

import importlib
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

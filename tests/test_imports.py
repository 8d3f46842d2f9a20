"""Each ``ngpr`` module imports first, from a clean module table: no module-level import cycle."""

import importlib
import pkgutil
import sys

import pytest

import ngpr

MODULES = ["ngpr", *(f"ngpr.{info.name}" for info in pkgutil.iter_modules(ngpr.__path__))]


def _ngpr_entries() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "ngpr" or name.startswith("ngpr.")}


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first(name):
    saved = _ngpr_entries()
    for entry in saved:
        del sys.modules[entry]
    try:
        importlib.import_module(name)
    finally:
        # the rest of the suite keeps the module objects (and classes) it imported
        for entry in _ngpr_entries():
            del sys.modules[entry]
        sys.modules.update(saved)


def test_every_module_is_listed():
    assert {"ngpr.cli", "ngpr.gp", "ngpr.sampler", "ngpr.statespace"} <= set(MODULES)

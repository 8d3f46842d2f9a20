"""Each ``ngpr`` module imports first, from a clean module table: no module-level import cycle."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_out_scipy_spatial():
    """The distance code needs no ``scipy.spatial``, whose import is slow."""
    src = str(Path(ngpr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, ngpr.cli; print('scipy.spatial' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_cli_import_loads_no_module_outside_ngpr():
    """Past numpy, scipy's linear algebra and special functions and a few stdlib modules,
    ``import ngpr.cli`` loads only ``ngpr`` itself: a new dependency would slow every run.
    Nor does it load ``ngpr.statespace``, which only Matern fits need."""
    src = str(Path(ngpr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, numpy, scipy.linalg, scipy.special, argparse, csv, json\n"
             "before = set(sys.modules)\n"
             "import ngpr.cli\n"
             "print(sorted(m for m in set(sys.modules) - before\n"
             "             if m != 'ngpr' and not m.startswith('ngpr.')))\n"
             "print('ngpr.statespace' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]", "False"]

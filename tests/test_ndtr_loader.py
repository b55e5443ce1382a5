"""GELU's ``ndtr`` comes from scipy's ufunc module, not the ``scipy.special``
package import, and is the very object ``scipy.special.ndtr`` names."""

import importlib.machinery
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
import scipy.special

from vpfuse import tensor

_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def run_fresh(code: str) -> None:
    proc = subprocess.run([sys.executable, "-c", code], env=_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_importing_vpfuse_leaves_scipy_special_unimported():
    run_fresh("import sys\n"
              "import vpfuse, vpfuse.ablations, vpfuse.checkpoint, vpfuse.cli\n"
              "assert 'scipy.special' not in sys.modules, 'scipy.special was imported'\n")


@pytest.mark.parametrize("first, second", [("vpfuse.tensor", "scipy.special"),
                                           ("scipy.special", "vpfuse.tensor")])
def test_ndtr_is_scipy_special_ndtr_in_either_import_order(first, second):
    run_fresh(f"import {first}\n"
              f"import {second}\n"
              "import scipy.special, vpfuse.tensor\n"
              "assert vpfuse.tensor.ndtr is scipy.special.ndtr\n"
              "assert hasattr(scipy.special, '_special_ufuncs')\n"
              "assert scipy.special.ndtr(0.0) == 0.5\n")


def test_loader_reuses_an_imported_ufunc_module():
    name = "scipy.special._special_ufuncs"
    module = sys.modules[name]
    assert tensor._load_ndtr() is scipy.special.ndtr
    assert sys.modules[name] is module


def test_loader_falls_back_to_the_package_import(monkeypatch):
    # No extension suffix matches: the loader finds no ufunc module file.
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    assert tensor._load_ndtr() is scipy.special.ndtr


def test_loader_falls_back_when_the_ufunc_module_lacks_ndtr(monkeypatch):
    # As in a scipy whose private ufunc module does not hold ``ndtr``.
    name = "scipy.special._special_ufuncs"
    monkeypatch.setitem(sys.modules, name, types.ModuleType(name))
    assert tensor._load_ndtr() is scipy.special.ndtr

"""Every name a module exports in `__all__` must exist.

A function deleted or renamed without its `__all__` entry would only fail
at `from ... import *`, which nothing in the suite runs; this catches it.
"""

import importlib
import pkgutil

import pytest

import ribbonvol

MODULES = sorted(
    {"ribbonvol"} | {info.name for info in pkgutil.walk_packages(
        ribbonvol.__path__, "ribbonvol.")})

EXPORTS = [(name, attr) for name in MODULES
           for attr in getattr(importlib.import_module(name), "__all__", ())]


def test_kernel_modules_declare_exports():
    for name in ("ribbonvol", "ribbonvol.exact", "ribbonvol.exact.surd",
                 "ribbonvol.exact.poly", "ribbonvol.exact.ratfun",
                 "ribbonvol.exact.linalg"):
        assert name in MODULES
        assert importlib.import_module(name).__all__


@pytest.mark.parametrize("module,attr", EXPORTS)
def test_exported_name_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)

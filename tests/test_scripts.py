"""Every script under scripts/, and every module of the checks at scale
under scale/, must import against the current package and tests/ helpers.

Neither is run by the test suite, so a renamed helper would otherwise break
them silently.  Importing executes their module-level imports without
running `main()` or any test.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
SCALE = sorted((ROOT / "scale").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS and SCALE


def _import(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert callable(_import(path, f"script_{path.stem}").main)


@pytest.mark.parametrize("path", SCALE, ids=lambda p: p.name)
def test_scale_module_imports(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    _import(path, f"scale_{path.stem}")

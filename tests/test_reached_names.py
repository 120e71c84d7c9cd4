"""Every name a module exports in `__all__`, and every function or method
defined under `src/` whose name is not a dunder, must be reached by
something other than the tests.

A name passes if it is read (an AST `Name` or `Attribute` in load context)
somewhere in `src/` outside its own definition, if a script in `scripts/`
reads it, if `perfbench/spans.py` binds it, or if it is on `ALLOWED` with a
reason.  Imports and `__all__` entries are not reads.  A name reached only
from tests belongs in `tests/`, as an oracle.

The check is by name, not by binding: a method passes when any read of its
spelling is found, so `Surd.from_json` would pass on the reads of
`RibbonGraph.from_json` and `CellChart.from_json`.  Dunder methods are left
out, since the operators and protocols that call them are not reads.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import ribbonvol

ROOT = Path(__file__).resolve().parent.parent

# The paper's geometry, kept although no command reaches it yet.
ALLOWED = {
    "trirectangle_intercostal": "hyperbolic trigonometry behind criterion 7",
    "intercostal_bound": "hyperbolic trigonometry behind criterion 7",
    "hexagon_angle": "hyperbolic trigonometry behind criterion 7",
    "hexagon_side": "hyperbolic trigonometry behind criterion 7",
    "rib_length_limit": "hyperbolic trigonometry behind criterion 7",
    "vertex_angle_limit": "hyperbolic trigonometry behind criterion 7",
    "limit_length": "multicurve length limit behind criterion 5",
    "limit_differential": "multicurve length limit behind criterion 5",
}


def _reads(path: Path) -> set:
    """Names and attributes read in the file, each outside the function or
    class that defines a name of the same spelling."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in enclosing:
                found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in enclosing:
                found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def _read_in(directory: str) -> set:
    return set().union(*(_reads(p) for p in sorted((ROOT / directory).rglob("*.py"))))


def _defined_in(directory) -> list:
    """The names of the functions and methods defined in the directory,
    nested ones included, without dunders."""
    names = {node.name
             for path in sorted((ROOT / directory).rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return sorted(n for n in names if not (n.startswith("__") and n.endswith("__")))


def _bound_by_spans() -> set:
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {part for _, attr in spans.SPANS + spans.COUNTED for part in attr.split(".")}


MODULES = sorted(
    {"ribbonvol"} | {info.name for info in pkgutil.walk_packages(
        ribbonvol.__path__, "ribbonvol.")})

EXPORTS = sorted({attr for name in MODULES
                  for attr in getattr(importlib.import_module(name), "__all__", ())})

READ_IN_SRC = _read_in("src")
READ_IN_SCRIPTS = _read_in("scripts")
BOUND_BY_SPANS = _bound_by_spans()
DEFINED_IN_SRC = _defined_in("src")


def _reached(name: str) -> bool:
    return (name in READ_IN_SRC or name in READ_IN_SCRIPTS
            or name in BOUND_BY_SPANS or name in ALLOWED)


def test_exports_found():
    assert len(EXPORTS) > 40
    assert set(ALLOWED) <= set(EXPORTS)


@pytest.mark.parametrize("attr", EXPORTS)
def test_exported_name_is_reached(attr):
    assert _reached(attr), (
        f"{attr} is reached only from tests: move it into tests/ as an oracle")


def test_definitions_found():
    assert len(DEFINED_IN_SRC) > 100
    assert {"canonical_form", "_search_pairings", "rec"} <= set(DEFINED_IN_SRC)


@pytest.mark.parametrize("name", DEFINED_IN_SRC)
def test_defined_name_is_reached(name):
    assert _reached(name), (
        f"{name} is reached only from tests: move it into tests/ or delete it")


def test_definitions_skip_dunders_and_include_nested_functions(tmp_path):
    (tmp_path / "m.py").write_text(
        "class C:\n    def __eq__(self, o):\n        return True\n\n"
        "    def f(self):\n        def inner():\n            return 1\n"
        "        return inner()\n", encoding="utf-8")
    assert _defined_in(tmp_path) == ["f", "inner"]


def test_a_name_read_only_in_its_own_definition_is_not_reached(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f(x):\n    return f(x - 1) if x else 0\n\n\n"
                   "def g():\n    return h.f\n", encoding="utf-8")
    assert _reads(src) == {"x", "h", "f"}
    src.write_text("def f(x):\n    return f(x - 1) if x else 0\n", encoding="utf-8")
    assert _reads(src) == {"x"}

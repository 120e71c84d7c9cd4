"""Every name a module exports in `__all__`, and every function or method
defined under `src/` whose name is not a dunder, must be reached from an
entry point of the program.

The entry points are the names read at module level in `src/`, outside
every function and class (the command table `_COMMANDS`, and `main` under
`if __name__ == "__main__"`), every name read in `scripts/`, every name
`perfbench/spans.py` binds, and every name read in the body of a dunder
method, since the operators and protocols that call those are not reads.
A name is reached when an entry point reads it, or when the body of a
function or class of a reached name reads it.  So a chain of functions
that nothing reads is not reached, however its links read each other.  A
read is an AST `Name` or `Attribute` in load context; imports and
`__all__` entries are not reads.  A name reached only from tests belongs
in `tests/`, as an oracle.

The check is by name, not by binding: a method is reached when any read of
its spelling is, and then the bodies of every definition of that spelling
count as reached, so `Surd.from_json` would pass on the reads of
`RibbonGraph.from_json` and `CellChart.from_json`.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import ribbonvol

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _scan(paths) -> tuple:
    """(top, bodies) over the files: the names read at module level, outside
    every function and class, and for each function or class name the names
    read in the definitions of that spelling (decorators, defaults and
    annotations included), each without the definitions nested in it,
    which are entries of their own."""
    top, bodies = set(), {}

    def visit(node, into):
        if isinstance(node, DEFINITIONS):
            into = bodies.setdefault(node.name, set())
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            into.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            into.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, into)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), top)
    return top, bodies


def _entry_points(top: set, bodies: dict, bound=()) -> set:
    """The names read at module level, the names read in dunder bodies, and
    `bound`: the names that scripts read and the span tracer binds."""
    return top.union(bound, *(reads for name, reads in bodies.items() if _is_dunder(name)))


def _closure(roots, bodies: dict) -> set:
    """The roots, the names read in their bodies, the names read in the
    bodies of those, and so on."""
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(bodies.get(name, ()))
    return reached


def _py_files(directory) -> list:
    return sorted((ROOT / directory).rglob("*.py"))


def _defined_in(directory) -> list:
    """The names of the functions and methods defined in the directory,
    nested ones included, without dunders."""
    names = {node.name
             for path in _py_files(directory)
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return sorted(n for n in names if not _is_dunder(n))


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

SRC_TOP, SRC_BODIES = _scan(_py_files("src"))
_SCRIPTS_TOP, _SCRIPTS_BODIES = _scan(_py_files("scripts"))
READ_IN_SCRIPTS = _SCRIPTS_TOP.union(*_SCRIPTS_BODIES.values())
BOUND_BY_SPANS = _bound_by_spans()
REACHED = _closure(_entry_points(SRC_TOP, SRC_BODIES, READ_IN_SCRIPTS | BOUND_BY_SPANS),
                   SRC_BODIES)
DEFINED_IN_SRC = _defined_in("src")


def test_exports_found():
    assert len(EXPORTS) > 40


def test_entry_points_found():
    assert {"_COMMANDS", "main"} <= SRC_TOP
    assert {"enumerate_graphs", "kontsevich_volume"} <= READ_IN_SCRIPTS
    assert {"verify_kcf", "canonical_form"} <= BOUND_BY_SPANS
    assert "_term_texts" in SRC_BODIES["__str__"]


@pytest.mark.parametrize("attr", EXPORTS)
def test_exported_name_is_reached(attr):
    assert attr in REACHED, (
        f"{attr} is reached only from tests: move it into tests/ as an oracle")


def test_definitions_found():
    assert len(DEFINED_IN_SRC) > 100
    assert {"canonical_form", "_search_pairings", "rec"} <= set(DEFINED_IN_SRC)


@pytest.mark.parametrize("name", DEFINED_IN_SRC)
def test_defined_name_is_reached(name):
    assert name in REACHED, (
        f"{name} is reached only from tests: move it into tests/ or delete it")


def test_definitions_skip_dunders_and_include_nested_functions(tmp_path):
    (tmp_path / "m.py").write_text(
        "class C:\n    def __eq__(self, o):\n        return True\n\n"
        "    def f(self):\n        def inner():\n            return 1\n"
        "        return inner()\n", encoding="utf-8")
    assert _defined_in(tmp_path) == ["f", "inner"]


def _reached_in(tmp_path, source: str, bound=()) -> list:
    """The non-dunder functions and classes of `source` that its entry
    points, and the names in `bound`, reach."""
    path = tmp_path / "m.py"
    path.write_text(source, encoding="utf-8")
    top, bodies = _scan([path])
    reached = _closure(_entry_points(top, bodies, bound), bodies)
    return sorted(n for n in bodies if n in reached and not _is_dunder(n))


def test_a_name_read_only_in_its_own_definition_is_not_reached(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f(x):\n    return f(x - 1) if x else 0\n\n\n"
                   "def g():\n    return h.f\n", encoding="utf-8")
    assert _scan([src]) == (set(), {"f": {"f", "x"}, "g": {"h", "f"}})
    assert _reached_in(tmp_path, src.read_text(encoding="utf-8")) == []
    assert _reached_in(tmp_path, "def f(x):\n    return f(x - 1) if x else 0\n") == []


def test_a_chain_that_nothing_reads_is_not_reached(tmp_path):
    chain = "def f():\n    return g()\n\n\ndef g():\n    return 1\n"
    assert _reached_in(tmp_path, chain) == []
    assert _reached_in(tmp_path, chain + "\n\nf()\n") == ["f", "g"]
    assert _reached_in(tmp_path, chain, bound={"g"}) == ["g"]


REACH_CASES = {
    "cycle-that-nothing-reads": (
        "def f():\n    return g()\n\n\ndef g():\n    return f()\n", []),
    "cycle-entered-from-module-level": (
        "def f():\n    return g()\n\n\ndef g():\n    return f()\n\n\ng()\n", ["f", "g"]),
    "read-in-an-unreached-body": (
        "def f():\n    return h.g\n\n\ndef g():\n    return 1\n", []),
    "method-read-as-attribute": (
        "class C:\n    def m(self):\n        return 1\n\n\nC().m()\n", ["C", "m"]),
    "method-read-by-nothing": (
        "class C:\n    def m(self):\n        return 1\n\n\nC()\n", ["C"]),
    "dunder-body-is-an-entry-point": (
        "class C:\n    def __eq__(self, o):\n        return g()\n\n\n"
        "def g():\n    return 1\n", ["g"]),
    "nested-function-of-a-reached-function": (
        "def f():\n    def inner():\n        return 1\n    return inner()\n\n\nf()\n",
        ["f", "inner"]),
    "nested-function-of-an-unreached-function": (
        "def f():\n    def inner():\n        return 1\n    return inner()\n", []),
    "nested-function-its-enclosing-body-never-reads": (
        "def f():\n    def inner():\n        return 1\n    return 2\n\n\nf()\n", ["f"]),
    "decorator-of-a-reached-function": (
        "def deco(fn):\n    return fn\n\n\n@deco\ndef f():\n    return 1\n\n\nf()\n",
        ["deco", "f"]),
    "decorator-of-an-unreached-function": (
        "def deco(fn):\n    return fn\n\n\n@deco\ndef f():\n    return 1\n", []),
    "default-of-a-reached-function": (
        "def g():\n    return 1\n\n\ndef f(key=g):\n    return key()\n\n\nf()\n",
        ["f", "g"]),
    "class-body-of-a-reached-class": (
        "def g():\n    return 1\n\n\nclass C:\n    key = staticmethod(g)\n\n\nC.key()\n",
        ["C", "g"]),
    "class-body-of-an-unreached-class": (
        "def g():\n    return 1\n\n\nclass C:\n    key = staticmethod(g)\n", []),
    "table-at-module-level": (
        "def f():\n    return 1\n\n\nTABLE = {name: f for name in 'ab'}\n", ["f"]),
    "import-and-all-are-not-reads": (
        "from m import f\n\n__all__ = ['f', 'g']\n\n\ndef g():\n    return f()\n", []),
    "one-spelling-reaches-every-definition-of-it": (
        "class A:\n    def m(self):\n        return g()\n\n\n"
        "class B:\n    def m(self):\n        return 1\n\n\n"
        "def g():\n    return 1\n\n\nB().m()\n", ["B", "g", "m"]),
}


@pytest.mark.parametrize("source,reached", REACH_CASES.values(), ids=REACH_CASES)
def test_reach_follows_the_bodies_of_reached_names(tmp_path, source, reached):
    assert _reached_in(tmp_path, source) == reached

"""Every name a module under `src/` imports must be read in that module or
listed in its `__all__`, so that the package's `__init__` re-exports pass.

An import that nothing reads is a dependency the module no longer has; it
is left behind when the code that read it moves out.  A read is an AST
`Name` or `Attribute` in load context, anywhere in the module; imports
inside functions count too, and `from __future__` imports are left out.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FILES = sorted(SRC.rglob("*.py"))


def _unused_imports(path: Path) -> list:
    """The names the file imports that it neither reads nor lists in a
    module-level `__all__`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_an_import_neither_read_nor_exported_is_unused(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from __future__ import annotations\n\nimport os.path\nimport sys\n"
                    "from fractions import Fraction as F\nfrom math import pi, tau\n\n"
                    "__all__ = ['tau']\n\n\ndef f():\n    import json\n"
                    "    return sys.argv, pi\n", encoding="utf-8")
    assert _unused_imports(path) == ["F", "json", "os"]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(SRC)) for p in FILES])
def test_every_import_is_read_or_exported(path):
    assert _unused_imports(path) == [], f"{path.relative_to(SRC)} imports names it never reads"

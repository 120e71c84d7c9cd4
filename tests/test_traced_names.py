"""Every name the benchmark's span tracer binds must exist in the package,
and only three test modules may need the benchmark at all.

`perfbench/spans.py` replaces the functions and methods listed in `SPANS`
and `COUNTED` by (module, attribute); the benchmark's own tests are not part
of this suite, so a renamed or deleted function would otherwise break
`perfbench/run.py --trace 1` silently.  The module is loaded by path, as
the scripts are in `test_scripts.py`.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SPANS_PATH = TESTS.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
TRACED = spans.SPANS + spans.COUNTED


def test_traced_names_found():
    assert len(TRACED) > 30


@pytest.mark.parametrize("module,attr", TRACED)
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        # the tracer replaces the method in the class's own namespace
        assert callable(cls.__dict__[meth])
    else:
        assert callable(getattr(owner, attr))


def _local_imports(path: Path, local: set) -> set:
    """The modules of `local` that the module at `path` imports, anywhere
    in it."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    return imported & local


def test_only_three_test_modules_need_perfbench():
    """The modules under tests/ that mention perfbench, themselves or through
    the closure of the tests-local modules they import (`test_wittencycle`
    imports `test_linalg`), are these three: every other test module runs
    in a copy of the repository without perfbench/."""
    paths = {path.stem: path for path in TESTS.glob("*.py")}
    imports = {name: _local_imports(path, set(paths)) for name, path in paths.items()}
    assert "test_linalg" in imports["test_wittencycle"]
    needing = {name for name, path in paths.items()
               if "perfbench" in path.read_text(encoding="utf-8")}
    while more := {name for name in paths if imports[name] & needing} - needing:
        needing |= more
    assert needing == {"test_cli", "test_reached_names", "test_traced_names"}

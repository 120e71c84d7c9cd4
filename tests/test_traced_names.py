"""Every name the benchmark's span tracer binds must exist in the package.

`perfbench/spans.py` replaces the functions and methods listed in `SPANS`
and `COUNTED` by (module, attribute); the benchmark's own tests are not part
of this suite, so a renamed or deleted function would otherwise break
`perfbench/run.py --trace 1` silently.  The module is loaded by path, as
the scripts are in `test_scripts.py`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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

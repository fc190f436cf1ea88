"""The names that perfbench/spans.py wraps for a traced run are bound.

The tracer sets its wrappers by module attribute and saves the originals
with getattr, so a name that a module no longer binds makes `--trace 1`
raise.  The tracer itself is not entered here: a failure halfway through
its __enter__ would leave wrappers installed for the tests that follow.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [f"{module.__name__}.{name}"
               for _, name, modules in spans.SITES for module in modules
               if not hasattr(module, name)]
    assert missing == []
    assert hasattr(spans.fallback, "adaptive_segment")

"""Every name that bench/tracing.py wraps still exists in eqpower.

The tracer binds layer functions and methods by name from outside the
package; a renamed or deleted one would only show as "untraced bindings" in a
traced benchmark run.  This test reads the tracer's tables without installing
anything.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_tables() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {**tracing.SPANS, **tracing.LEAVES, **tracing.COUNTERS}


def _bound(module_name: str, attr: str) -> bool:
    module = importlib.import_module(module_name)
    if "." in attr:  # a method, looked up on its class as the tracer patches it
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name, None)
        return cls is not None and method in vars(cls)
    return getattr(module, attr, None) is not None


def test_every_traced_binding_resolves_in_eqpower():
    tables = _tracing_tables()
    assert tables
    missing = [f"{metric}: {module}.{attr}" for metric, (module, attr) in tables.items() if not _bound(module, attr)]
    assert missing == []

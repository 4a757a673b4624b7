"""The benchmark's tracer (perfbench/spans.py) wraps drs functions where their
callers look them up, by (module, attribute). A binding that no longer
resolves makes every traced benchmark run fail with an AttributeError, so
each one is checked here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    unresolved = []
    for module_name, attr, _, _ in load_spans().TRACE_POINTS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{module_name}.{attr}")
    assert not unresolved, f"trace points that do not resolve: {unresolved}"

"""Every name a drs module imports is used there, or is bound there for the
benchmark's tracer (perfbench/spans.py wraps functions in the module whose
code looks them up). ``__init__.py`` re-exports its imports and is exempt."""

import ast
from pathlib import Path

from test_trace_points import load_spans

SRC = Path(__file__).resolve().parents[1] / "src" / "drs"


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)


def test_every_import_is_used_or_bound_for_the_tracer():
    bound = {(module, attr.partition(".")[0]) for module, attr, _, _ in load_spans().TRACE_POINTS}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = f"drs.{path.stem}"
        unused += [
            f"{module}.{name}" for name in imported_names(tree)
            if name not in used and (module, name) not in bound
        ]
    assert not unused, f"imported but neither used nor bound by a trace point: {unused}"

"""In-memory trace spans around the public functions of each drs layer.

A span is (name, start, end, parent, op), see FIELDS, with start and end in
integer nanoseconds of ``time.perf_counter_ns``. ``parent`` is the index of the
enclosing span in the same list (-1 for an op's root) and ``op`` numbers
the benchmark operation the span belongs to. The layer of a span is the
first dotted component of its name, so ``learners.generate_ensemble`` is
in the ``learners`` layer.

Spans are recorded by wrapping functions where their callers bind them:
``drs.cli`` and ``drs.bench`` import ``build_region`` and the rest by name,
so the wrapper is installed on those modules, not on the defining one.
Wrappers exist only inside ``Tracer.installed()``; untraced operations run
the original functions.

Spans recorded in worker processes of ``drs bench --jobs N`` stay in those
processes and are not collected.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter


def _members_and_nodes(counts, ensemble):
    counts["trees"] += len(ensemble.members)
    counts["nodes"] += sum(tree.n_nodes for tree in ensemble.members)


def _single_tree(counts, tree):
    counts["trees"] += 1
    counts["nodes"] += tree.n_nodes


def _rows_predicted(counts, matrix):
    counts["predict_rows"] += matrix.shape[1]


def _dws_survivors(counts, result):
    selected = result[1].selected
    counts["dws_kept"] += int(selected.sum())
    counts["dws_offered"] += selected.size


_SELECTION = ("ds_predict", "dw_weights", "dw_predict", "dws_predict")

# (module, attribute, span name, counter fed with the return value).
# Each attribute is wrapped in the module whose code looks it up.
TRACE_POINTS = (
    [
        ("drs.cli", "load_csv", "datasets.load_csv", None),
        ("drs.cli", "normalize_minmax", "datasets.normalize_minmax", None),
        ("drs.bench", "normalize_minmax", "datasets.normalize_minmax", None),
        ("drs.bench", "apply_normalization", "datasets.apply_normalization", None),
        ("drs.bench", "kfold_split", "datasets.kfold_split", None),
        ("drs.cli", "run_benchmark", "bench.run_benchmark", None),
        ("drs.bench", "run_replication", "bench.run_replication", None),
        ("drs.cli", "write_outputs", "bench.write_outputs", None),
        ("drs.cli", "render_table", "bench.render_table", None),
    ]
    + [
        (module, "generate_ensemble", "learners.generate_ensemble", _members_and_nodes)
        for module in ("drs.cli", "drs.bench")
    ]
    + [
        (module, "fit_individual", "learners.fit_individual", _single_tree)
        for module in ("drs.cli", "drs.bench")
    ]
    + [
        ("drs.learners", "Ensemble.predict_all", "learners.predict_all", _rows_predicted),
        ("drs.learners", "bagging_sample", "rng.bagging_sample", None),
        ("drs.learners", "derive_seed", "rng.derive_seed", None),
        ("drs.bench", "derive_seed", "rng.derive_seed", None),
    ]
    + [
        (module, "build_region", "region.build_region", None)
        for module in ("drs.cli", "drs.bench")
    ]
    + [
        (module, "score_all", "measures.score_all", None)
        for module in ("drs.cli", "drs.bench")
    ]
    + [
        (module, fn, f"selection.{fn}", _dws_survivors if fn == "dws_predict" else None)
        for module in ("drs.cli", "drs.bench")
        for fn in _SELECTION
    ]
)


FIELDS = ("name", "start", "end", "parent", "op")


class Tracer:
    """Records spans and exact counts for the operations it is asked to trace.

    ``counts[op]`` holds the calls per span name and, without a layer
    prefix, the trees and nodes fitted, rows predicted and DWS survivors.
    """

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[int, Counter] = {}
        self._open: list[int] = []
        self._op = -1

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent, self._op))
        self._open.append(index)
        return index

    def _end(self, index: int):
        end = time.perf_counter_ns()
        self._open.pop()
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, end, parent, op)

    @contextlib.contextmanager
    def op(self, op_id: int, root: str = "cli.main"):
        """Trace one benchmark operation: every span inside gets ``op_id``."""
        self._op = op_id
        self.counts[op_id] = Counter()
        index = self._begin(root)
        try:
            yield
        finally:
            self._end(index)
            self._op = -1

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            counts = self.counts[self._op]
            counts[name] += 1
            if counter is not None:
                counter(counts, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every trace point for the duration of the block."""
        undo = []
        try:
            for module_name, attr, name, counter in TRACE_POINTS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                undo.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(children.get(i, ()))
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def op_profiles(spans) -> dict[int, dict]:
    """Busy and self seconds per span name and per layer, for each op.

    Busy time is the union of the intervals a name (or a layer) spans, so
    nested spans of one layer are not counted twice; self time is the sum
    of its spans' self times.
    """
    intervals: dict[int, dict[str, list]] = {}
    selves: dict[int, Counter] = {}
    for (name, start, end, _, op), own in zip(spans, self_times(spans)):
        for key in (name, name.split(".", 1)[0]):
            intervals.setdefault(op, {}).setdefault(key, []).append((start, end))
            selves.setdefault(op, Counter())[key] += own
    return {
        op: {
            "busy": {key: covered(iv) / 1e9 for key, iv in by_key.items()},
            "self": {key: ns / 1e9 for key, ns in selves[op].items()},
        }
        for op, by_key in intervals.items()
    }

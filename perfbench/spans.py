"""In-memory span tracer that wraps gkm's public functions from outside.

``Tracer.install()`` replaces each target function with a wrapper that
records a span (id, parent id, name, start, end) and calls the original.
The replacement is made in every loaded ``gkm.*`` module that binds the same
function object, so calls that one gkm module makes into another through an
imported name are seen as well. Nothing in gkm itself is changed, and
``uninstall()`` puts every original back. Spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer (gkm module) -> public callables traced in that layer; "Cls.meth"
# names a method. Kernel and losses functions run inside the step loop and
# are not wrapped: a span per step would dwarf the work it measures.
TARGETS = {
    "data": ["load_libsvm", "hide_labels", "Dataset.dense"],
    "graph": [
        "build_graph",
        "build_fully_connected",
        "build_knn",
        "write_edges",
        "read_edges",
        "FullyConnectedEdges.sample_batch",
        "ExplicitEdges.sample_batch",
        "FullyConnectedEdges.enumerate_edges",
        "ExplicitEdges.enumerate_edges",
    ],
    "optimizer": [
        "train",
        "objective",
        "predict_batch",
        "decision_values",
        "save_model",
        "load_model",
    ],
    "harness": ["evaluate", "solve_reference_optimum", "run_convergence_experiment"],
    "labelprop": ["solve_exact"],
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # reserve the id; filled in on exit
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[span_id] = (span_id, parent, name, start, clock())
                stack.pop()

        return traced

    def install(self) -> "Tracer":
        modules = [m for k, m in sys.modules.items() if k == "gkm" or k.startswith("gkm.")]
        for layer, names in TARGETS.items():
            home = importlib.import_module(f"gkm.{layer}")
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                if owner_name:  # a method: patch it on its class
                    owner = getattr(home, owner_name)
                    self._patch(owner, attr, self._wrap(f"{layer}.{attr}", owner.__dict__[attr]))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        return self

    def extend(self, spans) -> None:
        """Append spans recorded by another process, renumbered after ours."""
        offset = len(self.spans)
        for span_id, parent, name, start, end in spans:
            self.spans.append(
                (span_id + offset, None if parent is None else parent + offset, name, start, end)
            )

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> dict[str, list[float]]:
    """Per span name, the self time of each call: its duration minus the
    time its direct children cover."""
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, list[float]] = defaultdict(list)
    for span_id, _, name, start, end in spans:
        out[name].append(end - start - child_time[span_id])
    return out


def durations(spans) -> dict[str, list[float]]:
    """Per span name, the wall time of each call, children included."""
    out: dict[str, list[float]] = defaultdict(list)
    for _, _, name, start, end in spans:
        out[name].append(end - start)
    return out

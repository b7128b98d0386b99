"""Per-layer spans recorded around hydrocast's public functions, from outside.

Each hydrocast module is a layer. The tracer replaces the module attributes
that callers resolve at call time (and a few methods on model classes) with
wrappers that record a span: name, start, end, parent span and self time
(duration minus the time its child spans cover). Spans stay in memory until
the run ends. Counters are taken at the same boundaries (rows loaded, trees
grown, bytes written), and the time spent counting is kept out of every
span's self time.

A hook whose target no longer exists is skipped with a warning, so a later
refactor of the program degrades the trace instead of breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

KINDS = ("rf", "knn", "svr", "lr", "mlp")
STAGES = ("select", "train", "evaluate", "report")

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = (
    [
        ("dataset.load_csv.s", "s"),
        ("dataset.load_csv.calls", "count"),
        ("dataset.rows_scanned", "count"),
        ("dataset.rows_kept_ratio", "ratio"),
        ("dataset.split.s", "s"),
        ("selection.prune_colinear.s", "s"),
        ("selection.columns_pruned", "count"),
        ("selection.fit_boosted.s", "s"),
        ("selection.boost_stages", "count"),
    ]
    + [(f"cart.fit_tree.{use}.{what}", unit)
       for use in ("boost", "rf")
       for what, unit in (("s", "s"), ("trees", "count"), ("nodes", "count"))]
    + [
        ("cart.nodes_per_s", "1/s"),
        ("cart.predict_batch.s", "s"),
        ("cart.predict_batch.calls", "count"),
    ]
    + [(f"learners.fit_{kind}.s", "s") for kind in KINDS]
    + [(f"learners.predict_batch.{kind}.s", "s") for kind in KINDS]
    + [
        ("learners.model_to_dict.s", "s"),
        ("learners.model_from_dict.s", "s"),
        ("pipeline.artifact_write.s", "s"),
        ("pipeline.artifact_write.bytes", "bytes"),
        ("pipeline.artifact_read.s", "s"),
        ("pipeline.artifact_read.bytes", "bytes"),
    ]
    + [(f"pipeline.stage_{stage}.s", "s") for stage in STAGES]
    + [
        ("pipeline.errors", "count"),
        ("evaluation.render_report.s", "s"),
        ("trace.spans", "count"),
        ("trace.unattributed_s", "s"),
        ("trace.run_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, self seconds)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._line_counts: dict[str, int] = {}
        self.enabled = False

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)

    def wrap(self, name, func, count=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            stack = tracer._stack
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                parent = stack[-1] if stack else None
                tracer.spans[frame[0]] = (
                    name, start, end, parent[0] if parent else -1, end - start - frame[1]
                )
            if count is not None:
                count(tracer, args, result)
            if parent is not None:
                parent[1] += time.perf_counter() - start
            return result

        return traced

    def rows_in(self, path) -> int:
        """Data rows of a CSV file, counted once per path."""
        key = os.fspath(path)
        if key not in self._line_counts:
            with open(key, "rb") as fh:
                self._line_counts[key] = max(sum(1 for _ in fh) - 1, 0)
        return self._line_counts[key]

    def summary(self) -> dict[str, float]:
        """Self time per span name plus the counters of the current pass."""
        out: dict[str, float] = defaultdict(float)
        for name, _start, _end, _parent, self_s in self.spans:
            out[f"{name}.s"] += self_s
        out.update(self.counts)
        out["trace.spans"] = len(self.spans)
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _n, start, end, parent, _s in self.spans if parent == -1)

    def dump(self, path, pass_index: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, self_s) in enumerate(self.spans):
                fh.write(json.dumps({"pass": pass_index, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "self_s": self_s}) + "\n")


def _count_load(tracer, args, result):
    tracer.counts["dataset.load_csv.calls"] += 1
    tracer.counts["dataset.rows_scanned"] += tracer.rows_in(args[0])
    tracer.counts["dataset.rows_returned"] += len(result)


def _count_pruned(tracer, args, result):
    kept, _pairs = result
    tracer.counts["selection.columns_pruned"] += args[0].shape[1] - len(kept)


def _count_stages(tracer, args, result):
    tracer.counts["selection.boost_stages"] += len(result.stages)


def _tree_nodes(tree) -> int:
    if hasattr(tree, "n_leaves"):
        return 2 * tree.n_leaves() - 1
    return len(tree.to_dict()["nodes"])


def _count_tree(use):
    def count(tracer, args, result):
        tracer.counts[f"cart.fit_tree.{use}.trees"] += 1
        tracer.counts[f"cart.fit_tree.{use}.nodes"] += _tree_nodes(result)
    return count


def _count_predict(tracer, args, result):
    tracer.counts["cart.predict_batch.calls"] += 1


def _count_bytes(direction):
    # _write_json(path, payload) and _read_json(path) both take the path first
    def count(tracer, args, result):
        tracer.counts[f"pipeline.artifact_{direction}.bytes"] += os.path.getsize(args[0])
    return count


# (module[:class], attribute, span name, counter). Stage functions are bound
# in both the pipeline and the cli namespace, so both are hooked.
HOOKS = (
    [
        ("hydrocast.pipeline", "load_csv", "dataset.load_csv", _count_load),
        ("hydrocast.pipeline", "split", "dataset.split", None),
        ("hydrocast.selection", "prune_colinear", "selection.prune_colinear", _count_pruned),
        ("hydrocast.selection", "fit_boosted", "selection.fit_boosted", _count_stages),
        ("hydrocast.selection", "fit_tree", "cart.fit_tree.boost", _count_tree("boost")),
        ("hydrocast.learners.forest", "fit_tree", "cart.fit_tree.rf", _count_tree("rf")),
        ("hydrocast.cart:RegressionTree", "predict_batch", "cart.predict_batch", _count_predict),
    ]
    + [("hydrocast.learners", f"fit_{kind}", f"learners.fit_{kind}", None) for kind in KINDS]
    + [
        (f"hydrocast.learners:{cls}", "predict_batch", f"learners.predict_batch.{kind}", None)
        for kind, cls in zip(KINDS, ("RFModel", "KNNModel", "SVRModel", "LRModel", "MLPModel"))
    ]
    + [
        ("hydrocast.pipeline", "model_to_dict", "learners.model_to_dict", None),
        ("hydrocast.pipeline", "model_from_dict", "learners.model_from_dict", None),
        ("hydrocast.pipeline", "_write_json", "pipeline.artifact_write", _count_bytes("write")),
        ("hydrocast.pipeline", "_read_json", "pipeline.artifact_read", _count_bytes("read")),
        ("hydrocast.pipeline", "render_report", "evaluation.render_report", None),
    ]
    + [(module, f"stage_{stage}", f"pipeline.stage_{stage}", None)
       for stage in STAGES for module in ("hydrocast.pipeline", "hydrocast.cli")]
)


def install(tracer: Tracer):
    """Put the tracer's wrappers in place; returns a function that undoes it."""
    undo = []
    for target, attr, name, count in HOOKS:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name, None)
        if owner is None or not hasattr(owner, attr):
            print(f"perfbench: no {target}.{attr} to trace; {name} reads 0", file=sys.stderr)
            continue
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(name, original, count))
        undo.append((owner, attr, original, had_own))

    def uninstall():
        for owner, attr, original, had_own in reversed(undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    return uninstall


def layer_metrics(summary: dict[str, float], run_s: float, untraced_run_s: float,
                  root_s: float) -> dict[str, float]:
    """The LAYER_METRICS values of one traced pass."""
    values = {name: float(summary.get(name, 0.0)) for name, _unit in LAYER_METRICS}
    scanned = summary.get("dataset.rows_scanned", 0.0)
    values["dataset.rows_kept_ratio"] = (
        summary.get("dataset.rows_returned", 0.0) / scanned if scanned else 0.0
    )
    fit_s = values["cart.fit_tree.boost.s"] + values["cart.fit_tree.rf.s"]
    nodes = values["cart.fit_tree.boost.nodes"] + values["cart.fit_tree.rf.nodes"]
    values["cart.nodes_per_s"] = nodes / fit_s if fit_s else 0.0
    values["trace.run_s"] = run_s
    values["trace.unattributed_s"] = run_s - root_s
    values["trace.overhead_s"] = run_s - untraced_run_s
    return values

"""Span tracer for the benchmark's traced run.

The tracer wraps tmeg's functions at the names the package itself looks
them up by: every module global of a ``tmeg`` module that holds a target
function is replaced by one wrapper, and methods are replaced on their
class. ``harness.train`` and ``cli.main`` therefore run unmodified, and
nothing under ``src/`` changes. Untraced runs never install a wrapper.

Spans (name, start, end, parent span, run id) and counts stay in memory
until the run ends; ``derive`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time

import numpy as np

# (span name, defining module, attribute). A dotted attribute is a method.
TARGETS = (
    ("data.generate", "tmeg.data", "generate_synthetic_corpus"),
    ("data.save_corpus", "tmeg.data", "save_corpus"),
    ("data.load_corpus", "tmeg.data", "load_corpus"),
    ("data.save_tasks", "tmeg.data", "save_task_instances"),
    ("data.load_tasks", "tmeg.data", "load_task_instances"),
    ("data.make_instances", "tmeg.harness", "make_instances"),
    ("graph.assemble", "tmeg.graph", "assemble_graph"),
    ("graph.build_nodes", "tmeg.graph", "build_nodes"),
    ("graph.intra_modal", "tmeg.graph", "intra_modal_labels"),
    ("graph.temporal_text", "tmeg.graph", "temporal_text_labels"),
    ("graph.temporal_visual", "tmeg.graph", "temporal_visual_labels"),
    ("graph.inter_modal", "tmeg.graph", "inter_modal_labels"),
    ("graph.edge_based", "tmeg.graph", "derive_edge_based_labels"),
    ("graph.validate", "tmeg.graph", "TmegGraph.validate"),
    ("model.prepare_batch", "tmeg.model", "prepare_batch"),
    ("model.encode_nodes", "tmeg.model", "TmegModel.encode_nodes"),
    ("model.project_modalities", "tmeg.model", "TmegModel.project_modalities"),
    ("model.fusion_stack", "tmeg.model", "TmegModel.fusion_stack"),
    ("model.extract_cls", "tmeg.model", "TmegModel.extract_cls"),
    ("model.assemble_pair", "tmeg.model", "TmegModel.assemble_pair"),
    ("model.score_candidate", "tmeg.model", "TmegModel.score_candidate"),
    ("model.prediction_loss", "tmeg.model", "prediction_loss_batch"),
    ("model.coherence_loss", "tmeg.model", "coherence_loss"),
    ("model.total_loss", "tmeg.model", "total_loss"),
    ("autodiff.backward", "tmeg.optim", "grad_eval"),
    ("optim.adam", "tmeg.optim", "adam_step"),
    ("optim.checkpoint_load", "tmeg.optim", "load_checkpoint"),
    ("optim.checkpoint_save", "tmeg.optim", "save_checkpoint"),
    ("harness.train", "tmeg.harness", "train"),
    ("harness.prepare_instances", "tmeg.harness", "prepare_instances"),
    ("harness.evaluate_prepared", "tmeg.harness", "evaluate_prepared"),
    ("harness.evaluate", "tmeg.harness", "evaluate"),
    ("harness.load_model", "tmeg.harness", "load_model"),
    ("harness.save_model", "tmeg.harness", "save_model"),
    ("cli.main", "tmeg.cli", "main"),
    ("cli.cmd_eval", "tmeg.cli", "cmd_eval"),
)

# metric -> spans whose durations it sums
SUMMED = {
    "data.generate_s": ("data.generate",),
    "data.load_corpus_s": ("data.load_corpus",),
    "data.make_instances_s": ("data.make_instances",),
    "graph.assemble_s": ("graph.assemble",),
    "graph.build_nodes_s": ("graph.build_nodes",),
    "graph.intra_modal_s": ("graph.intra_modal",),
    "graph.temporal_text_s": ("graph.temporal_text",),
    "graph.temporal_visual_s": ("graph.temporal_visual",),
    "graph.inter_modal_s": ("graph.inter_modal",),
    "graph.edge_based_s": ("graph.edge_based",),
    "graph.validate_s": ("graph.validate",),
    "model.prepare_batch_s": ("model.prepare_batch",),
    "model.embed_s": ("model.encode_nodes", "model.project_modalities"),
    "model.fusion_fwd_s": ("model.fusion_stack",),
    "model.scorer_fwd_s": ("model.extract_cls", "model.assemble_pair",
                           "model.score_candidate"),
    "model.loss_s": ("model.prediction_loss", "model.coherence_loss",
                     "model.total_loss"),
    "autodiff.backward_s": ("autodiff.backward",),
    "optim.adam_s": ("optim.adam",),
    "optim.checkpoint_load_s": ("optim.checkpoint_load",),
    "harness.prepare_instances_s": ("harness.prepare_instances",),
}

# layers whose self time (span minus child spans) is reported
SELF_LAYERS = ("data", "graph", "model", "harness", "cli")

# every per-layer metric with its unit, in report order
PER_LAYER = (
    [(name, "s") for name in SUMMED]
    + [("data.instances", "count"),
       ("graph.graphs", "count"),
       ("graph.nodes_mean", "nodes"),
       ("graph.distinct_ratio", "ratio"),
       ("model.batches", "count"),
       ("model.graphs_per_batch", "graphs"),
       ("autodiff.tape_nodes_per_step", "nodes"),
       ("harness.step_ms_p50", "ms"),
       ("harness.step_ms_p90", "ms"),
       ("harness.validate_s", "s")]
    + [(f"{layer}.self_s", "s") for layer in SELF_LAYERS]
    + [("trace.untraced_s", "s"),
       ("trace.traced_s", "s"),
       ("trace.overhead_s", "s"),
       ("trace.hooks_s", "s"),
       ("trace.spans", "count")]
)

# counts that must repeat exactly across traced runs at one seed
EXACT_COUNTS = ("data.instances", "graph.graphs", "graph.distinct_ratio",
                "model.batches", "model.graphs_per_batch",
                "autodiff.tape_nodes_per_step")

HOOK = "trace.hook"


class TraceError(Exception):
    pass


def tape_size(loss) -> int:
    """Autodiff tape nodes reachable from `loss` through parent links."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _graph_key(steps, candidate) -> tuple:
    """Identity of a (document, context, candidate) graph request."""
    return (tuple(img.image_id for s in steps for img in s.images),
            tuple(s.index for s in steps),
            tuple(img.image_id for img in candidate))


class Tracer:
    """Records spans and counts while installed; restores tmeg on uninstall."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, run]
        self.run = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.instances = 0
        self.graphs = 0
        self.nodes = 0
        self.keys: set = set()
        self.batch_sizes: list[int] = []
        self.tape_nodes: list[int] = []

    # ------------------------------------------------------------------
    # recording

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span around the enclosed block."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _hook(self, fn, *args):
        # hook time is a child span, so it never counts as a layer's self time
        span = self._open(HOOK)
        try:
            fn(*args)
        finally:
            self._close(span)

    def _count_instances(self, args, kwargs, result):
        self.instances += len(result)

    def _count_graph(self, args, kwargs, result):
        self.graphs += 1
        self.nodes += result.n_nodes
        steps = args[0] if args else kwargs["steps"]
        candidate = args[1] if len(args) > 1 else kwargs["candidate"]
        self.keys.add(_graph_key(steps, candidate))

    def _count_batch(self, args, kwargs, result):
        self.batch_sizes.append(result.size)

    def _count_tape(self, args, kwargs):
        self.tape_nodes.append(tape_size(args[0] if args else kwargs["loss"]))

    def _wrap(self, name: str, fn):
        pre = self._count_tape if name == "autodiff.backward" else None
        post = {"data.make_instances": self._count_instances,
                "graph.assemble": self._count_graph,
                "model.prepare_batch": self._count_batch}.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                tracer._hook(pre, args, kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if post is not None:
                tracer._hook(post, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # installation

    def install(self):
        """Wrap every target wherever a tmeg module or class holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "tmeg" or n.startswith("tmeg.")) and m is not None]
        try:
            for name, module_name, attr in TARGETS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    if cls is None or meth not in vars(cls):
                        raise TraceError(f"trace target {module_name}.{attr} is gone")
                    orig = vars(cls)[meth]
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig))
                    continue
                orig = getattr(module, attr, None)
                if orig is None:
                    raise TraceError(f"trace target {module_name}.{attr} is gone")
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, key, orig))
                            setattr(mod, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # ------------------------------------------------------------------
    # output

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}))
                fh.write("\n")

    def check_fired(self, expected):
        """Zero-call guard: every expected span must have fired."""
        fired = {s[0] for s in self.spans}
        missing = sorted(set(expected) - fired)
        if missing:
            raise TraceError("expected spans never fired: " + ", ".join(missing))

    def derive(self) -> dict:
        """Per-layer metrics from the recorded spans and counts."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        total: dict[str, float] = {}
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + dur[i]
            if parent >= 0:
                child[parent] += dur[i]

        out = {metric: sum(total.get(n, 0.0) for n in names)
               for metric, names in SUMMED.items()}
        out["data.instances"] = self.instances
        out["graph.graphs"] = self.graphs
        out["graph.nodes_mean"] = self.nodes / self.graphs if self.graphs else 0.0
        out["graph.distinct_ratio"] = (len(self.keys) / self.graphs
                                       if self.graphs else 0.0)
        out["model.batches"] = len(self.batch_sizes)
        out["model.graphs_per_batch"] = (float(np.mean(self.batch_sizes))
                                         if self.batch_sizes else 0.0)
        out["autodiff.tape_nodes_per_step"] = (float(np.mean(self.tape_nodes))
                                               if self.tape_nodes else 0.0)

        # Adam-to-Adam intervals inside an epoch; validation ends an epoch
        steps, prev = [], None
        out["harness.validate_s"] = 0.0
        for i, (name, _, end, parent, _) in enumerate(self.spans):
            if name == "optim.adam":
                if prev is not None:
                    steps.append((end - prev) * 1e3)
                prev = end
            elif (name == "harness.evaluate_prepared" and parent >= 0
                  and self.spans[parent][0] == "harness.train"):
                out["harness.validate_s"] += dur[i]
                prev = None
        if len(steps) >= 2:
            out["harness.step_ms_p50"] = statistics.median(steps)
            out["harness.step_ms_p90"] = statistics.quantiles(
                steps, n=10, method="inclusive")[8]
        else:
            out["harness.step_ms_p50"] = out["harness.step_ms_p90"] = 0.0

        for layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = sum(
                dur[i] - child[i] for i, s in enumerate(self.spans)
                if s[0].startswith(layer + "."))
        out["trace.hooks_s"] = total.get(HOOK, 0.0)
        out["trace.spans"] = len(self.spans)
        return out

"""Spans around the program's public callables, installed from outside.

``Tracer`` replaces each callable in ``WRAPS`` wherever a survformer module
looks it up: the module that defines it and every module that imported the
name directly (``training`` binds ``ctd``, ``km_censoring`` and
``survival_matrix``; ``cli`` binds ``save_checkpoint`` and
``load_checkpoint``). Methods are replaced on their class. Two hooks count
instead of timing: ``Tensor.__init__`` (tensor constructions) and
``GradientTape.__init__`` (nodes per backward tape). Every span records its
name, start, end, parent and the counter values at both ends; spans stay in
memory until ``layer_metrics`` reduces them. Leaving the ``with`` block puts
every original back.
"""

import importlib
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager

INFER_PARENT = "model.predict_hazards"

# (module, attribute path, span name, attrs from (args, result), peak memory)
# ``peak`` is True to scope tracemalloc to every call, or the name of the
# parent span under which to scope it.
WRAPS = [
    ("survformer.data", "read_raw_csv", "data.read_raw_csv", lambda a, r: {"rows": len(r)}, False),
    ("survformer.data", "fit_schema", "data.fit_schema", None, False),
    ("survformer.data", "transform_rows", "data.transform_rows", None, False),
    ("survformer.data", "split", "data.split", None, False),
    ("survformer.data", "build_time_grid", "data.build_time_grid", None, False),
    ("survformer.propensity", "fit", "propensity.fit", None, False),
    ("survformer.propensity", "design_matrix", "propensity.design_matrix", None, False),
    ("survformer.training", "train", "training.train", lambda a, r: {"epochs": len(r[1].epochs)}, False),
    ("survformer.training", "fit_censoring", "training.fit_censoring", None, False),
    ("survformer.training", "evaluate", "training.evaluate", None, False),
    ("survformer.training", "predict", "training.predict", None, False),
    ("survformer.model", "SurvivalTransformer.forward_batch", "model.forward_batch",
     lambda a, r: {"rows": len(a[2])}, INFER_PARENT),
    ("survformer.model", "SurvivalTransformer.predict_hazards", INFER_PARENT, None, False),
    ("survformer.model", "save_checkpoint", "model.save_checkpoint",
     lambda a, r: {"bytes": os.path.getsize(a[0])}, False),
    ("survformer.model", "load_checkpoint", "model.load_checkpoint", None, False),
    ("survformer.losses", "competing_survival_loss", "losses.competing_survival_loss", None, False),
    ("survformer.losses", "mp_loss_tensor", "losses.mp_loss_tensor", None, False),
    ("survformer.losses", "ls_loss_tensor", "losses.ls_loss_tensor", None, False),
    ("survformer.losses", "total_loss_tensor", "losses.total_loss_tensor", None, False),
    ("survformer.autodiff", "backward", "autodiff.backward", None, False),
    ("survformer.optim", "Adam.step", "optim.step", None, False),
    ("survformer.evaluation", "km_censoring", "evaluation.km_censoring", None, False),
    ("survformer.evaluation", "ctd", "evaluation.ctd", lambda a, r: {"pairs": r[1]}, False),
    ("survformer.evaluation", "survival_matrix", "evaluation.survival_matrix", None, False),
    ("survformer.kernels", "ctd_pair_stats", "kernels.ctd_pair_stats", None, True),
]

# Per-layer metrics and their units, in report order.
LAYER_METRICS = {
    "data.read_raw_csv_s": "s",
    "data.fit_schema_s": "s",
    "data.transform_rows_s": "s",
    "data.rows_read": "count",
    "propensity.fit_s": "s",
    "propensity.design_matrix_s": "s",
    "training.train_self_s": "s",
    "training.epochs": "count",
    "training.batches": "count",
    "model.forward_train_s": "s",
    "model.forward_infer_s": "s",
    "model.forward_infer_peak_mb": "MB",
    "model.forward_rows": "count",
    "model.save_checkpoint_s": "s",
    "model.load_checkpoint_s": "s",
    "model.checkpoint_bytes": "bytes",
    "losses.survival_s": "s",
    "losses.aux_s": "s",
    "autodiff.backward_s": "s",
    "autodiff.tape_nodes_per_batch": "count",
    "autodiff.tensors_per_batch": "count",
    "optim.step_s": "s",
    "optim.steps": "count",
    "evaluation.km_censoring_s": "s",
    "evaluation.ctd_s": "s",
    "evaluation.ctd_pairs": "count",
    "evaluation.survival_matrix_s": "s",
    "kernels.ctd_pair_stats_s": "s",
    "kernels.ctd_pair_stats_peak_mb": "MB",
    "cli.self_s": "s",
}

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "autodiff.tape_nodes_per_batch",
    "autodiff.tensors_per_batch",
    "training.batches",
    "model.forward_rows",
    "evaluation.ctd_pairs",
    "data.rows_read",
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "tensors", "nodes", "attrs", "children")

    def __init__(self, name, parent, tensors, nodes):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None
        self.tensors = [tensors, None]
        self.nodes = [nodes, None]
        self.attrs = {}
        self.children = []

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - sum(c.duration for c in self.children)

    def ancestors(self):
        node = self.parent
        while node is not None:
            yield node.name
            node = node.parent


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans = []
        self.tensors = 0
        self.tape_nodes = 0
        self._open = None
        self._restore = []

    def __enter__(self):
        for module, path, name, attrs, peak in WRAPS:
            self._wrap(module, path, name, attrs, peak)
        autodiff = importlib.import_module("survformer.autodiff")
        self._hook(autodiff.Tensor, "__init__", self._count_tensor)
        self._hook(autodiff.GradientTape, "__init__", self._count_tape)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def span(self, name):
        s = self._begin(name)
        try:
            yield s
        finally:
            self._finish(s)

    def _begin(self, name):
        s = Span(name, self._open, self.tensors, self.tape_nodes)
        if self._open is not None:
            self._open.children.append(s)
        self._open = s
        self.spans.append(s)
        return s

    def _finish(self, s):
        s.end = time.perf_counter()
        s.tensors[1] = self.tensors
        s.nodes[1] = self.tape_nodes
        self._open = s.parent

    def _wrap(self, module_name, path, name, attrs, peak):
        module = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        owner = getattr(module, owner_path) if owner_path else module
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            s = tracer._begin(name)
            parent = s.parent.name if s.parent is not None else None
            scoped = (peak is True or peak == parent) and not tracemalloc.is_tracing()
            if scoped:
                tracemalloc.start()
            try:
                result = original(*args, **kwargs)
                if scoped:
                    s.attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                if scoped:
                    tracemalloc.stop()
                tracer._finish(s)
            if attrs is not None:
                s.attrs.update(attrs(args, result))
            return result

        traced.__wrapped__ = original
        if owner_path:
            self._replace(owner, attr, traced)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "survformer" and mod is not None:
                if getattr(mod, attr, None) is original:
                    self._replace(mod, attr, traced)

    def _hook(self, cls, attr, after):
        original = getattr(cls, attr)

        def hooked(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            after(obj)

        self._replace(cls, attr, hooked)

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_tensor(self, _tensor):
        self.tensors += 1

    def _count_tape(self, tape):
        self.tape_nodes += len(tape.nodes)


def layer_metrics(spans):
    """Reduce one traced pipeline's spans to the per-layer metrics."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name, pick=None):
        return sum(s.duration for s in by_name.get(name, []) if pick is None or pick(s))

    def attr_sum(name, key, pick=None):
        return sum(s.attrs[key] for s in by_name.get(name, []) if pick is None or pick(s))

    def under_train(s):
        return "training.train" in s.ancestors()

    def under_infer(s):
        return s.parent is not None and s.parent.name == INFER_PARENT

    trains = by_name.get("training.train", [])
    batches = sum(1 for s in by_name.get("autodiff.backward", []) if under_train(s))
    per_batch = max(batches, 1)
    stage_spans = [s for s in spans if s.parent is None]
    return {
        "data.read_raw_csv_s": total("data.read_raw_csv"),
        "data.fit_schema_s": total("data.fit_schema"),
        "data.transform_rows_s": total("data.transform_rows"),
        "data.rows_read": attr_sum("data.read_raw_csv", "rows"),
        "propensity.fit_s": total("propensity.fit"),
        "propensity.design_matrix_s": total("propensity.design_matrix"),
        "training.train_self_s": sum(s.self_time for s in trains),
        "training.epochs": attr_sum("training.train", "epochs"),
        "training.batches": batches,
        "model.forward_train_s": total("model.forward_batch", under_train),
        "model.forward_infer_s": total("model.forward_batch", under_infer),
        "model.forward_infer_peak_mb": max(
            (s.attrs.get("peak_mb", 0.0) for s in by_name.get("model.forward_batch", []) if under_infer(s)),
            default=0.0,
        ),
        "model.forward_rows": attr_sum("model.forward_batch", "rows"),
        "model.save_checkpoint_s": total("model.save_checkpoint"),
        "model.load_checkpoint_s": total("model.load_checkpoint"),
        "model.checkpoint_bytes": attr_sum("model.save_checkpoint", "bytes"),
        "losses.survival_s": total("losses.competing_survival_loss"),
        "losses.aux_s": sum(
            total(n) for n in ("losses.mp_loss_tensor", "losses.ls_loss_tensor", "losses.total_loss_tensor")
        ),
        "autodiff.backward_s": total("autodiff.backward"),
        "autodiff.tape_nodes_per_batch": sum(s.nodes[1] - s.nodes[0] for s in trains) / per_batch,
        "autodiff.tensors_per_batch": sum(s.tensors[1] - s.tensors[0] for s in trains) / per_batch,
        "optim.step_s": total("optim.step"),
        "optim.steps": len(by_name.get("optim.step", [])),
        "evaluation.km_censoring_s": total("evaluation.km_censoring"),
        "evaluation.ctd_s": total("evaluation.ctd"),
        "evaluation.ctd_pairs": attr_sum("evaluation.ctd", "pairs"),
        "evaluation.survival_matrix_s": total("evaluation.survival_matrix"),
        "kernels.ctd_pair_stats_s": total("kernels.ctd_pair_stats"),
        "kernels.ctd_pair_stats_peak_mb": max(
            (s.attrs.get("peak_mb", 0.0) for s in by_name.get("kernels.ctd_pair_stats", [])), default=0.0
        ),
        "cli.self_s": sum(s.self_time for s in stage_spans),
    }

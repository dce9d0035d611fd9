"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the ``maria`` modules from
outside the program: it swaps module and class attributes for timing
wrappers, records one span per call, and puts every original object back on
``uninstall``. A span is ``(name, tag, start, end, parent, step, phase, n)``:

* ``parent`` is the index of the enclosing span (-1 at the top);
* ``step`` numbers optimizer steps and eval batches; a training step starts
  when the trainer pulls its block from ``batch_iter``, an eval batch when
  ``make_batch`` is called inside ``training.evaluate``;
* ``phase`` is ``setup`` or ``timed``, as set by the caller;
* ``n`` is a work count (instances, bytes, nodes, tensors) or 0.

Counters are spans of zero length. Nothing is written until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from types import ModuleType

from stats import median

NAME, TAG, START, END, PARENT, STEP, PHASE, N = range(8)

# Primitives whose forward calls and backward recipes are timed one by one.
OPS = (
    "matmul", "add", "mul", "slice_last", "concat", "take_rows", "reshape",
    "relu", "sigmoid", "softmax_last", "gumbel_softmax", "argmax_one_hot",
)

STEP_SPANS = {"train": "training.step", "eval": "training.score_batch"}

# span name -> per-step metric summing the span's duration
_STEP_MS = {
    "datagen.batch_iter": "datagen.batch_iter.ms",
    "model.make_batch": "model.make_batch.ms",
    "model.bottom": "model.bottom.fwd_ms",
    "layers.encoder": "layers.encoder.fwd_ms",
    "layers.trigger_attention": "layers.trigger_attention.fwd_ms",
    "layers.embedding": "layers.embedding.fwd_ms",
    "layers.fcn": "layers.fcn.fwd_ms",
    "features.fs": "features.fs.fwd_ms",
    "features.fr": "features.fr.fwd_ms",
    "features.fcm": "features.fcm.fwd_ms",
    "model.mixture": "model.mixture.fwd_ms",
    "model.loss": "model.loss.fwd_ms",
    "autodiff.zero_grads": "autodiff.zero_grads.ms",
    "autodiff.backward": "autodiff.backward.ms",
    "autodiff.truncate": "autodiff.truncate.ms",
    "optim.adam.step": "optim.adam.step_ms",
}
# span name -> per-step metric counting calls
_STEP_CALLS = {"layers.embedding": "layers.embedding.calls", "layers.fcn": "layers.fcn.calls"}
# span name -> per-step metric summing the span's work count
_STEP_COUNTS = {
    "autodiff.nodes": "autodiff.nodes_per_step",
    "autodiff.grad_bytes_alloc": "autodiff.grad_bytes_alloc",
    "autodiff.grad_bytes_zeroed": "autodiff.grad_bytes_zeroed",
    "optim.adam.step": "optim.adam.tensors",
}
# Scenario and shared towers, their coupling weight and the click head.
_TOWER_SPANS = {"model.grouped_towers", "model.coupling"}


def _is_tower(span) -> bool:
    if span[NAME] in _TOWER_SPANS:
        return True
    return span[NAME] == "layers.fcn" and (span[TAG].startswith("towers.") or span[TAG] == "head")


class Tracer:
    def __init__(self):
        # Spans are stored column by column: a list or dict per span would be
        # one more object for the garbage collector to walk, and at about a
        # thousand spans per step that slows the very calls being timed.
        self._name: list[str] = []
        self._tag: list[str] = []
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._step = array("q")
        self._phase: list[str] = []
        self._n = array("q")
        self.step = 0
        self.step_kind: dict[int, str] = {}
        self.phase = "setup"
        self._stack: list[int] = []
        self._context: list[str] = []  # "train" / "eval" inside training.train / training.evaluate
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- recording ------------------------------------------------------------
    def open(self, name: str, tag: str = "", step: int | None = None) -> int:
        idx = len(self._name)
        self._name.append(name)
        self._tag.append(tag)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._step.append(self.step if step is None else step)
        self._phase.append(self.phase)
        self._n.append(0)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def close(self, idx: int, n: int = 0) -> None:
        self._end[idx] = time.perf_counter()
        self._n[idx] = n
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self._name[idx]!r} closed out of order")

    def count(self, name: str, n: int) -> None:
        self.close(self.open(name), n)
        self._end[-1] = self._start[-1]

    def _drop_last(self) -> None:
        for column in (self._name, self._tag, self._start, self._end, self._parent, self._step, self._phase, self._n):
            column.pop()

    def rows(self) -> list[tuple]:
        """Every span as ``(name, tag, start, end, parent, step, phase, n)``."""
        return list(zip(self._name, self._tag, self._start, self._end, self._parent, self._step, self._phase, self._n))

    def _end_step(self) -> None:
        if self._stack and self._name[self._stack[-1]] in STEP_SPANS.values():
            self.close(self._stack[-1])

    # -- patching -------------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``; for a module
        function, also every ``maria`` module attribute bound to it."""
        original = vars(owner)[attr]
        wrapper = make(original)
        targets = [(owner, attr)]
        if isinstance(owner, ModuleType):
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not (mod_name == "maria" or mod_name.startswith("maria.")):
                    continue
                targets.extend((mod, name) for name, value in vars(mod).items() if value is original)
        for target, name in targets:
            setattr(target, name, wrapper)
            self._patches.append((target, name, original))

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)

    def install(self) -> None:
        from maria import autodiff, checkpoint, datagen, features, layers, metrics, model, optim, training

        span = self._span
        self._patch(datagen, "generate", span("datagen.generate", n=lambda a, out: len(out[0].instances)))
        self._patch(datagen, "read_jsonl", span("datagen.read_jsonl", n=lambda a, out: len(out.instances)))
        self._patch(datagen, "batch_iter", self._batch_iter)
        self._patch(training, "train", self._context_span("training.train", "train"))
        self._patch(training, "evaluate", self._context_span("training.evaluate", "eval"))
        self._patch(model, "make_batch", self._make_batch)
        self._patch(model, "bce_loss", span("model.loss"))
        self._patch(model, "_grouped_towers", span("model.grouped_towers"))
        self._patch(model.MariaModel, "_coupling", span("model.coupling"))
        self._patch(model.MariaModel, "forward", span("model.forward"))
        self._patch(model.BaselineModel, "forward", span("model.forward"))
        self._patch(model._MixtureHead, "forward", span("model.mixture"))
        self._patch(model.EncoderBottom, "encode", span("model.bottom"))
        self._patch(layers.EmbeddingTable, "lookup", span("layers.embedding"))
        self._patch(layers.Fcn, "forward", span("layers.fcn", tag=lambda a: a[0].name))
        self._patch(layers.SequenceEncoder, "forward", span("layers.encoder"))
        self._patch(layers, "trigger_attention", span("layers.trigger_attention"))
        self._patch(features.FeatureScaling, "forward", span("features.fs"))
        self._patch(features.FieldRefinement, "forward", span("features.fr"))
        self._patch(features.FieldRefinement, "refine_field", self._refine_field)
        self._patch(features.FieldCorrelation, "forward", span("features.fcm"))
        for op in OPS:
            self._patch(autodiff, op, self._op(op))
        self._patch(autodiff, "backward", self._backward)
        self._patch(autodiff.Graph, "zero_grads", self._zero_grads)
        self._patch(autodiff.Graph, "truncate", self._truncate)
        self._patch(optim.Adam, "step", span("optim.adam.step", n=lambda a, out: len(a[0].params)))
        self._patch(metrics, "auc", span("metrics.auc"))
        self._patch(checkpoint, "save_model", span("checkpoint.save_model", n=lambda a, out: os.path.getsize(a[0])))
        self._patch(checkpoint, "load_model", span("checkpoint.load_model", n=lambda a, out: os.path.getsize(a[0])))

    # -- wrapper factories ------------------------------------------------------
    def _span(self, name: str, tag=None, n=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self.open(name, tag(args) if tag else "")
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if n is not None:
                    self._n[idx] = n(args, out)
                return out

            return wrapper

        return make

    def _context_span(self, name: str, kind: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._context.append(kind)
                idx = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)
                    self._context.pop()

            return wrapper

        return make

    def _batch_iter(self, fn):
        @functools.wraps(fn)
        def batch_iter(*args, **kwargs):
            # In training each pull starts a step. Eval pulls every block up
            # front, so pull j belongs to the j-th eval batch after this point.
            kind = self._context[-1] if self._context else ""
            base = self.step
            source = fn(*args, **kwargs)
            j = 0
            while True:
                if kind == "train":
                    self.step += 1
                    self.step_kind[self.step] = "train"
                    step = self.step
                else:
                    step = base + 1 + j
                idx = self.open("datagen.batch_iter", step=step)
                try:
                    block = next(source)
                except StopIteration:
                    self.close(idx)
                    self._drop_last()  # the pull that found no block is not a step
                    if kind == "train":
                        self.step -= 1
                    return
                except BaseException:
                    self.close(idx)
                    raise
                self.close(idx, len(block))
                yield block
                j += 1

        return batch_iter

    def _make_batch(self, fn):
        @functools.wraps(fn)
        def make_batch(instances, *args, **kwargs):
            kind = self._context[-1] if self._context else ""
            if kind == "eval":
                self.step += 1
                self.step_kind[self.step] = "eval"
            if kind:
                self.open(STEP_SPANS[kind])  # closed by the truncate that ends the step
            idx = self.open("model.make_batch")
            try:
                return fn(instances, *args, **kwargs)
            finally:
                self.close(idx, len(instances))

        return make_batch

    def _refine_field(self, fn):
        @functools.wraps(fn)
        def refine_field(module, field_name, field_value, e_s, mode, trace=None):
            if mode == "eval":
                self.count("features.fr.refiners", len(module.refiners[field_name]))
                self.count("features.fr.selected", 1)
            return fn(module, field_name, field_value, e_s, mode, trace)

        return refine_field

    def _op(self, op: str):
        fwd, bwd = f"autodiff.op.{op}", f"autodiff.op.{op}.bwd"

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self.open(fwd)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                recipe = out._backward
                if recipe is not None:
                    def timed_recipe(g):
                        j = self.open(bwd)
                        try:
                            recipe(g)
                        finally:
                            self.close(j)

                    out._backward = timed_recipe
                return out

            return wrapper

        return make

    def _backward(self, fn):
        @functools.wraps(fn)
        def backward(loss):
            idx = self.open("autodiff.backward")
            try:
                fn(loss)
            finally:
                self.close(idx)
            swept, useful = _useful_nodes(loss)
            self.count("autodiff.backward.swept", swept)
            self.count("autodiff.backward.useful", useful)

        return backward

    def _zero_grads(self, fn):
        @functools.wraps(fn)
        def zero_grads(graph):
            self.count("autodiff.grad_bytes_zeroed", sum(v.grad.nbytes for v in graph.nodes))
            idx = self.open("autodiff.zero_grads")
            try:
                fn(graph)
            finally:
                self.close(idx)

        return zero_grads

    def _truncate(self, fn):
        @functools.wraps(fn)
        def truncate(graph, mark):
            fresh = graph.nodes[mark:]
            self.count("autodiff.nodes", len(fresh))
            self.count("autodiff.grad_bytes_alloc", sum(v.grad.nbytes for v in fresh))
            idx = self.open("autodiff.truncate")
            try:
                fn(graph, mark)
            finally:
                self.close(idx)
            self._end_step()

        return truncate

    # -- output -----------------------------------------------------------------
    def write(self, path) -> None:
        """Gzip'd text: a JSON header line with the step kinds, then one
        tab-separated line per span, times in seconds from tracer creation."""
        t0 = self._t0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write(json.dumps({"fields": ["name", "tag", "start", "end", "parent", "step", "phase", "n"],
                                 "step_kind": self.step_kind}) + "\n")
            fh.writelines(
                f"{name}\t{tag}\t{start - t0:.7f}\t{end - t0:.7f}\t{parent}\t{step}\t{phase}\t{n}\n"
                for name, tag, start, end, parent, step, phase, n in self.rows()
            )


def _useful_nodes(loss) -> tuple[int, int]:
    """Nodes the reverse sweep visits, and how many of them run a recipe
    (the same reachability rule as ``autodiff.backward``)."""
    nodes = loss.graph.nodes
    needed = [False] * (loss.index + 1)
    needed[loss.index] = True
    for i in range(loss.index, -1, -1):
        if needed[i]:
            for p in nodes[i].parents:
                needed[p.index] = True
    useful = sum(
        1 for i in range(loss.index + 1)
        if needed[i] and nodes[i].requires_grad and nodes[i]._backward is not None
    )
    return loss.index + 1, useful


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s[START]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s[END] - s[START]) - covered)
    return out


def layer_metrics(spans, step_kind: dict[int, str], primary: str) -> dict[str, float]:
    """Per-layer metrics from the timed phase: medians per step of the
    ``primary`` kind ("train" or "eval"), plus per-call medians for layers
    that run once per pass. A layer that never ran is absent."""
    timed = [(i, s) for i, s in enumerate(spans) if s[PHASE] == "timed"]
    per_step: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in timed:
        name, dur_ms = s[NAME], (s[END] - s[START]) * 1e3
        acc = per_step[s[STEP]]
        if name.startswith("autodiff.op."):
            if name.endswith(".bwd"):
                acc[name[: -len(".bwd")] + ".bwd_ms"] += dur_ms
            else:
                acc[name + ".fwd_ms"] += dur_ms
                acc[name + ".count"] += 1
        if name in _STEP_MS:
            acc[_STEP_MS[name]] += dur_ms
        if name in _STEP_CALLS:
            acc[_STEP_CALLS[name]] += 1
        if name in _STEP_COUNTS:
            acc[_STEP_COUNTS[name]] += s[N]
        if name in ("autodiff.backward.swept", "autodiff.backward.useful", "features.fr.refiners", "features.fr.selected"):
            acc[name] += s[N]
        if name in STEP_SPANS.values():
            acc["step_ms"] += dur_ms
        if _is_tower(s) and not (s[PARENT] >= 0 and _is_tower(spans[s[PARENT]])):
            acc["model.towers.fwd_ms"] += dur_ms

    def steps_of(kind):
        return [per_step[k] for k in sorted(per_step) if step_kind.get(k) == kind]

    out: dict[str, float] = {}
    primary_steps = steps_of(primary)
    keys = sorted({k for acc in primary_steps for k in acc})
    for key in keys:
        if key in ("step_ms", "autodiff.backward.swept", "autodiff.backward.useful",
                   "features.fr.refiners", "features.fr.selected"):
            continue
        out[key] = median([acc.get(key, 0.0) for acc in primary_steps])
    waits = [
        (acc["datagen.batch_iter.ms"] + acc["model.make_batch.ms"]) / (acc["datagen.batch_iter.ms"] + acc["step_ms"])
        for acc in primary_steps if acc["step_ms"] > 0
    ]
    if waits:
        out["training.data_wait_frac"] = median(waits)
    useful = [acc["autodiff.backward.useful"] / acc["autodiff.backward.swept"]
              for acc in primary_steps if acc["autodiff.backward.swept"]]
    if useful:
        out["autodiff.backward.useful_node_frac"] = median(useful)

    eval_steps = steps_of("eval")
    if eval_steps:
        out["training.score_batch.ms"] = median([acc["step_ms"] for acc in eval_steps])
        computed = sum(acc["features.fr.refiners"] for acc in eval_steps)
        if computed:
            out["features.fr.useful_refiner_frac"] = sum(acc["features.fr.selected"] for acc in eval_steps) / computed

    def per_call(name, phase_filter=True):
        return [(i, s) for i, s in enumerate(spans) if s[NAME] == name and (not phase_filter or s[PHASE] == "timed")]

    gen = per_call("datagen.generate", phase_filter=False)
    if gen:
        out["datagen.generate.us_per_inst"] = median([(s[END] - s[START]) / s[N] * 1e6 for _, s in gen])
    reads = per_call("datagen.read_jsonl")
    if reads:
        out["datagen.read_jsonl.us_per_inst"] = median([(s[END] - s[START]) / s[N] * 1e6 for _, s in reads])
    evals = per_call("training.evaluate")
    if evals:
        out["training.evaluate.ms"] = median([(s[END] - s[START]) * 1e3 for _, s in evals])
        auc_ms: dict[int, float] = {i: 0.0 for i, _ in evals}
        for _, s in timed:
            if s[NAME] == "metrics.auc" and s[PARENT] in auc_ms:
                auc_ms[s[PARENT]] += (s[END] - s[START]) * 1e3
        out["metrics.auc.ms"] = median(list(auc_ms.values()))
    for name in ("checkpoint.save_model", "checkpoint.load_model"):
        calls = per_call(name, phase_filter=False)
        if calls:
            out[f"{name}.ms"] = median([(s[END] - s[START]) * 1e3 for _, s in calls])
            out["checkpoint.bytes"] = median([s[N] for _, s in calls])
    return out


def self_time_table(spans, step_kind: dict[int, str], primary: str) -> dict[str, float]:
    """Median self ms per ``primary`` step for each span name (ops by name)."""
    own = self_times(spans)
    per_step: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, t in zip(spans, own):
        if s[PHASE] == "timed" and step_kind.get(s[STEP]) == primary and s[END] > s[START]:
            per_step[s[STEP]][s[NAME]] += t * 1e3
    steps = list(per_step.values())
    names = sorted({k for acc in steps for k in acc})
    return {k: median([acc.get(k, 0.0) for acc in steps]) for k in names}

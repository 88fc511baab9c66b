"""Per-layer spans recorded from outside the program.

``Tracer.installed()`` swaps every binding of the traced public functions
for a timing wrapper, in every module that imported the function by value,
and puts the originals back on exit.  Each function gets exactly one
wrapper, so a call is counted once whichever module it goes through.
Nothing under ``src/`` changes: with the tracer uninstalled the program
runs its own code.

Spans nest.  A span's self time is its duration minus the time its child
spans cover.  Spans are keyed by context: ``train`` inside
``harness.train``, ``eval`` inside ``harness.evaluate``, ``other``
elsewhere, so that per-step figures count only training steps.
"""
from __future__ import annotations

import contextlib
import functools
import os
import weakref
from collections import Counter, defaultdict
from time import perf_counter_ns

import debiasvqa
from debiasvqa import autodiff, cli, harness, model, objectives, rng, synthbench

MODULES = (debiasvqa, autodiff, model, objectives, harness, synthbench, rng, cli)

TAPE_OPS = ("linear", "embedding_mean", "relu", "multiply", "add",
            "weighted_cross_entropy", "reshape")
COLUMNS = ("tokens", "features", "answers", "qtypes")

# Calls per training step that the model graph fixes: three encoder and
# fusion projections plus two fusion and three question-only MLP layers.
EXPECTED_CALLS_PER_STEP = {"linear": 9, "relu": 4, "multiply": 1, "embedding_mean": 1,
                           "weighted_cross_entropy": 2, "add": 1, "reshape": 0}


class Tracer:
    """Span timings, call counts and byte counts, kept in memory."""

    def __init__(self):
        self.total_ns = defaultdict(int)   # (context, span) -> inclusive ns
        self.self_ns = defaultdict(int)    # (context, span) -> ns minus child spans
        self.calls = Counter()             # (context, span) -> calls
        self.counts = Counter()            # free-form totals (bytes, samples, steps)
        self.nodes_per_step = 0
        self.context = "other"
        self._stack: list[list[int]] = []  # open spans: [ns their child spans took]
        self._open = Counter()             # span name -> open frames of it
        self._seen_columns: dict[int, tuple[weakref.ref, set]] = {}

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, context=None, after=None):
        """A wrapper timing ``fn`` as span ``name``.

        ``name`` may be a callable of the call's arguments.  A call made
        while a span of the same name is open runs untimed, so a nested
        call is not counted twice.  ``after(args, result)`` runs outside
        the span.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            if tracer._open[span]:
                return fn(*args, **kwargs)
            outer = tracer.context
            if context is not None:
                tracer.context = context
            key = (tracer.context, span)
            children = [0]
            tracer._open[span] += 1
            tracer._stack.append(children)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                tracer._stack.pop()
                tracer._open[span] -= 1
                tracer.context = outer
                tracer.total_ns[key] += duration
                tracer.self_ns[key] += duration - children[0]
                tracer.calls[key] += 1
                if tracer._stack:
                    tracer._stack[-1][0] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _tape_op(self, op, fn):
        forward = self.wrap(f"autodiff.{op}.fwd", fn)
        bwd_name = f"autodiff.{op}.bwd"

        def wrapper(*args, **kwargs):
            out = forward(*args, **kwargs)
            if out._backward is not None:
                out._backward = self.wrap(bwd_name, out._backward)
            return out

        return wrapper

    def _backward(self, fn):
        timed = self.wrap("autodiff.backward", fn)

        def backward(root):
            if not self.nodes_per_step and self.context == "train":
                self.nodes_per_step = _count_nodes(root)
            return timed(root)

        return backward

    def _train(self, fn):
        timed = self.wrap("harness.train", fn, context="train")

        def train(split, config, record_hook=None):
            def hook(*args):
                self.counts["steps"] += 1
                if record_hook is not None:
                    record_hook(*args)
            return timed(split, config, record_hook=hook)

        return train

    def _column(self, column, prop):
        timed = self.wrap("synthbench.columns", prop.fget)
        seen = self._seen_columns

        def getter(split):
            entry = seen.get(id(split))
            if entry is None or entry[0]() is not split:
                entry = seen[id(split)] = (weakref.ref(split), set())
                self.counts["column_splits"] += 1
            if column in entry[1]:
                return prop.fget(split)
            entry[1].add(column)
            return timed(split)

        return property(getter)

    def _add_bytes(self, key):
        def after(args, _result):
            self.counts[key] += os.path.getsize(args[1])
            self.counts[key + "_files"] += 1
        return after

    def _add_samples(self, args, _result):
        self.counts["eval_samples"] += len(args[1])

    # -- installation ------------------------------------------------------

    def _plan(self):
        """(owner, attribute, wrapper factory) for everything traced."""
        a, m, o, h, s = autodiff, model, objectives, harness, synthbench

        def span(name, **kwargs):
            return lambda fn: self.wrap(name, fn, **kwargs)

        plan = [(a, op, functools.partial(self._tape_op, op)) for op in TAPE_OPS]
        plan += [(a, fn, span(f"autodiff.{fn}"))
                 for fn in ("softmax", "log_softmax_rows", "cross_entropy_per_sample",
                            "adam_step", "zero_grad")]
        plan.append((a.Tensor, "backward", self._backward))
        plan += [(m, fn, span(f"model.{fn}"))
                 for fn in ("encode_question", "encode_visual", "predict_vqa", "predict_qo",
                            "load_checkpoint")]
        plan += [(m, "save_checkpoint", span("model.save_checkpoint",
                                             after=self._add_bytes("checkpoint_bytes"))),
                 (o, "batch_objective", span("objectives.batch_objective")),
                 (o, "alpha_from_qo", span("objectives.alpha")),
                 (o, "variant_alpha", span("objectives.alpha")),
                 (o, "beta", span("objectives.beta")),
                 (o, "build_prior_table", span("objectives.build_prior_table")),
                 (h, "train", self._train),
                 (h, "evaluate", span("harness.evaluate", context="eval",
                                      after=self._add_samples)),
                 (h, "forward_batch", span("harness.forward_batch")),
                 (h, "epoch_order", span("harness.epoch_order")),
                 (s, "generate_split", span("synthbench.generate_split")),
                 (s, "load_split", span("synthbench.load_split")),
                 (s, "save_split", span("synthbench.save_split",
                                        after=self._add_bytes("split_bytes")))]
        plan += [(s.Split, c, functools.partial(self._column, c)) for c in COLUMNS]
        plan += [(rng, "gaussian", span("rng.gaussian")),
                 (cli, "main", span(lambda args: f"cli.main.{args[0][0]}"))]
        return plan

    @contextlib.contextmanager
    def installed(self):
        """Trace every call made inside the block."""
        restore = []
        try:
            for owner, attr, make in self._plan():
                original = vars(owner).get(attr)
                if original is None:  # gone from the program; its figures read 0
                    continue
                wrapper = make(original)
                if isinstance(owner, type):
                    restore.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in MODULES:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, name, original))
                            setattr(module, name, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # -- read-out ----------------------------------------------------------

    def ns(self, span, context=None, own=False):
        table = self.self_ns if own else self.total_ns
        return sum(v for (ctx, name), v in table.items()
                   if name == span and context in (None, ctx))

    def ncalls(self, span, context=None):
        return sum(v for (ctx, name), v in self.calls.items()
                   if name == span and context in (None, ctx))


def _count_nodes(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def call_count_errors(tracer: Tracer) -> list[str]:
    """Per-step tape-op calls that differ from the model graph."""
    steps = tracer.counts["steps"]
    errors = []
    if not steps:
        return ["no traced training step"]
    for op, per_step in EXPECTED_CALLS_PER_STEP.items():
        got = tracer.ncalls(f"autodiff.{op}.fwd", "train")
        if got != per_step * steps:
            errors.append(f"{op}: {got / steps:g} calls per step, expected {per_step}")
    return errors


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures: per training step, per call, or per split.

    A figure is None where the run never reached the function.
    """
    steps = tracer.counts["steps"]
    out: dict[str, tuple[float, str]] = {}

    def per_step_ms(span, own=False):
        return tracer.ns(span, "train", own) / 1e6 / steps if steps else 0.0

    def per_call_ms(span, own=False):
        calls = tracer.ncalls(span)
        return tracer.ns(span, own=own) / 1e6 / calls if calls else None

    def per_step_calls(span):
        return tracer.ncalls(span, "train") / steps if steps else 0.0

    for op in TAPE_OPS:
        if op != "reshape":
            out[f"autodiff.{op}.fwd_ms"] = (per_step_ms(f"autodiff.{op}.fwd"), "ms")
            out[f"autodiff.{op}.bwd_ms"] = (per_step_ms(f"autodiff.{op}.bwd"), "ms")
        out[f"autodiff.{op}.calls"] = (per_step_calls(f"autodiff.{op}.fwd"), "count")
    out["autodiff.backward.self_ms"] = (per_step_ms("autodiff.backward", own=True), "ms")
    out["autodiff.adam_step_ms"] = (per_step_ms("autodiff.adam_step"), "ms")
    out["autodiff.zero_grad_ms"] = (per_step_ms("autodiff.zero_grad"), "ms")
    for fn in ("softmax", "log_softmax_rows", "cross_entropy_per_sample"):
        out[f"autodiff.{fn}.calls"] = (per_step_calls(f"autodiff.{fn}"), "count")
    out["autodiff.nodes_per_step"] = (tracer.nodes_per_step, "count")

    for fn in ("encode_question", "encode_visual", "predict_vqa", "predict_qo"):
        out[f"model.{fn}_ms"] = (per_step_ms(f"model.{fn}", own=True), "ms")
    out["model.save_checkpoint_ms"] = (per_call_ms("model.save_checkpoint"), "ms")
    out["model.load_checkpoint_ms"] = (per_call_ms("model.load_checkpoint"), "ms")
    files = tracer.counts["checkpoint_bytes_files"]
    out["model.checkpoint_bytes"] = (
        tracer.counts["checkpoint_bytes"] / files if files else None, "bytes")

    out["objectives.batch_objective_ms"] = (per_step_ms("objectives.batch_objective"), "ms")
    out["objectives.batch_objective.self_ms"] = (
        per_step_ms("objectives.batch_objective", own=True), "ms")
    out["objectives.alpha_ms"] = (per_step_ms("objectives.alpha"), "ms")
    out["objectives.beta.calls"] = (per_step_calls("objectives.beta"), "count")
    out["objectives.build_prior_table_ms"] = (per_call_ms("objectives.build_prior_table"), "ms")

    phases = {"forward": ("harness.forward_batch",),
              "objective": ("objectives.batch_objective",),
              "backward": ("autodiff.backward",),
              "adam": ("autodiff.adam_step", "autodiff.zero_grad")}
    for phase, spans in phases.items():
        out[f"harness.step.{phase}_ms"] = (sum(per_step_ms(s) for s in spans), "ms")
    out["harness.step.self_ms"] = (per_step_ms("harness.train", own=True), "ms")
    out["harness.epoch_order_ms"] = (per_call_ms("harness.epoch_order"), "ms")
    out["harness.evaluate_ms"] = (per_call_ms("harness.evaluate"), "ms")
    eval_ns = tracer.ns("harness.evaluate")
    out["harness.evaluate.samples_per_s"] = (
        tracer.counts["eval_samples"] / (eval_ns / 1e9) if eval_ns else 0.0, "1/s")

    for fn in ("generate_split", "save_split", "load_split"):
        out[f"synthbench.{fn}_ms"] = (per_call_ms(f"synthbench.{fn}"), "ms")
    files = tracer.counts["split_bytes_files"]
    out["synthbench.split_bytes"] = (
        tracer.counts["split_bytes"] / files if files else None, "bytes")
    splits = tracer.counts["column_splits"]
    out["synthbench.columns_ms"] = (
        tracer.ns("synthbench.columns") / 1e6 / splits if splits else None, "ms")
    out["rng.gaussian_ms"] = (per_call_ms("rng.gaussian"), "ms")

    for command in ("gen", "train", "eval", "sweep", "report"):
        out[f"cli.main.{command}.self_ms"] = (per_call_ms(f"cli.main.{command}", own=True), "ms")
    return out

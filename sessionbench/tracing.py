"""Spans around the program's layers, recorded from outside the program.

A :class:`Tracer` replaces module attributes that callers look up at call
time (``qisa_lab.model.attention_forward``, ``qisa_lab.tensor.backward``,
a class's method, ...) with wrappers that record a span: name, tag, start,
end and the span that was open when it started.  Spans stay in memory; the
per-layer metrics are sums over them.  A target the program no longer has
is listed in ``Tracer.absent`` and its metrics read 0.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

# A span is a list, for speed: [name, tag, parent index, start, end, count].
NAME, TAG, PARENT, START, END, COUNT = range(6)


def _cache_arg(args, kwargs, position):
    cache = kwargs.get("cache", args[position] if len(args) > position else None)
    return "cached" if cache is not None else "plain"


def _forward_tag(args, kwargs):
    # LanguageModel.forward(self, ids, cache=None, training=False)
    return _cache_arg(args, kwargs, 2)


def _attention_tag(args, kwargs):
    # attention_forward(x, w, mask, cache=None, layer=0)
    return _cache_arg(args, kwargs, 3)


def graph_nodes(loss) -> int:
    """Distinct tensors the loss depends on, by a walk over ``_parents``."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in getattr(stack.pop(), "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _loss_nodes(args, kwargs):
    return graph_nodes(args[0])


@dataclass(frozen=True)
class Target:
    """``module:attr`` or ``module:Class.method`` to wrap under span ``name``."""

    path: str
    name: str
    tag: object = None  # (args, kwargs) -> str
    count: object = None  # (args, kwargs) -> number, taken before the call
    generator: bool = False  # time each next() of a returned generator


TARGETS = (
    Target("qisa_lab.cli:main", "cli"),
    Target("qisa_lab.model:LanguageModel.forward", "forward", tag=_forward_tag),
    Target("qisa_lab.model:attention_forward", "attention", tag=_attention_tag),
    Target("qisa_lab.model:layer_norm", "layer_norm"),
    Target("qisa_lab.model:matmul", "dense"),
    Target("qisa_lab.model:gelu", "dense"),
    Target("qisa_lab.model:LanguageModel.parameter_hash", "parameter_hash"),
    Target("qisa_lab.model:LanguageModel.build_observable_cache", "build_cache"),
    Target("qisa_lab.model:LanguageModel.save", "checkpoint"),
    Target("qisa_lab.model:LanguageModel.load", "checkpoint"),
    Target("qisa_lab.attention:hea_unitary_tensors", "ansatz"),
    Target("qisa_lab.model:hea_unitary_tensors", "ansatz"),
    Target("qisa_lab.attention:batched_quadratic_forms", "quadform"),
    Target("qisa_lab.qsim:save_cache", "cache_io"),
    Target("qisa_lab.qsim:load_cache", "cache_io"),
    Target("qisa_lab.tensor:backward", "backward", count=_loss_nodes),
    Target("qisa_lab.training:Adam.step", "adam"),
    Target("qisa_lab.training:clip_gradients", "clip"),
    Target("qisa_lab.training:evaluate_ce", "eval_ce"),
    Target("qisa_lab.cli:evaluate_ce_with_cache", "eval_ce"),
    Target("qisa_lab.training:_generate_batch", "generate"),
    Target("qisa_lab.training:cer", "edit_distance"),
    Target("qisa_lab.training:wer", "edit_distance"),
    Target("qisa_lab.data:load_corpus", "data.load"),
    Target("qisa_lab.training:batch_iter", "data.batch", generator=True),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name, tag=None, count=0.0) -> list:
        span = [name, tag, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, count]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, tag=None):
        span = self._open(name, tag)
        try:
            yield span
        finally:
            self._close(span)

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            self.wrap(target)

    def wrap(self, target: Target) -> None:
        module_name, _, attr_path = target.path.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(target.path)
            return
        *owner_path, attr = attr_path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None and hasattr(owner, "__dict__") else None
        if raw is None:
            self.absent.append(target.path)
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(raw.__func__, target))
        else:
            wrapped = self._wrapper(raw, target)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def _wrapper(self, fn, target: Target):
        tracer = self

        if target.generator:
            def traced(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    span = tracer._open(target.name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    yield item
        else:
            def traced(*args, **kwargs):
                count = target.count(args, kwargs) if target.count else 0.0
                tag = target.tag(args, kwargs) if target.tag else None
                span = tracer._open(target.name, tag, count)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(span)

        traced.__wrapped__ = fn
        return traced

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: an aggregate over the spans named ``span``.

    ``measure`` is "ms" (summed duration), "self_ms" (summed self time),
    "calls", "count" (summed ``COUNT`` field) or "mean_ms" (duration per
    call).  ``scope`` is "step" (the training phases, divided by the number
    of training steps), "round" (one round of CLI commands) or "session"
    (the whole traced run).  ``tag`` keeps only spans with that tag.
    """

    name: str
    unit: str
    span: str
    measure: str
    scope: str
    tag: str | None = None


LAYER_METRICS = (
    LayerMetric("tensor.backward_ms", "ms", "backward", "ms", "step"),
    LayerMetric("tensor.graph_nodes", "count", "backward", "count", "step"),
    LayerMetric("model.forward_ms", "ms", "forward", "ms", "step"),
    LayerMetric("model.attention_ms", "ms", "attention", "ms", "step"),
    LayerMetric("model.layer_norm_ms", "ms", "layer_norm", "self_ms", "step"),
    LayerMetric("model.dense_ms", "ms", "dense", "self_ms", "step"),
    LayerMetric("attention.train_self_ms", "ms", "attention", "self_ms", "step"),
    LayerMetric("training.adam_ms", "ms", "adam", "ms", "step"),
    LayerMetric("training.clip_ms", "ms", "clip", "ms", "step"),
    LayerMetric("data.batch_ms", "ms", "data.batch", "ms", "step"),
    LayerMetric("model.infer_forward_ms", "ms", "forward", "ms", "round", "plain"),
    LayerMetric("model.cached_forward_ms", "ms", "forward", "ms", "round", "cached"),
    LayerMetric("model.forward_calls", "count", "forward", "calls", "round"),
    LayerMetric("model.parameter_hash_ms", "ms", "parameter_hash", "ms", "round"),
    LayerMetric("model.build_cache_ms", "ms", "build_cache", "ms", "round"),
    LayerMetric("model.checkpoint_ms", "ms", "checkpoint", "ms", "round"),
    LayerMetric("attention.cached_self_ms", "ms", "attention", "self_ms", "round", "cached"),
    LayerMetric("qsim.ansatz_ms", "ms", "ansatz", "ms", "session"),
    LayerMetric("qsim.ansatz_calls", "count", "ansatz", "calls", "session"),
    LayerMetric("qsim.quadform_ms", "ms", "quadform", "ms", "round"),
    LayerMetric("qsim.quadform_calls", "count", "quadform", "calls", "round"),
    LayerMetric("qsim.cache_io_ms", "ms", "cache_io", "ms", "round"),
    LayerMetric("training.eval_ce_self_ms", "ms", "eval_ce", "self_ms", "round"),
    LayerMetric("training.generate_self_ms", "ms", "generate", "self_ms", "round"),
    LayerMetric("metrics.edit_distance_ms", "ms", "edit_distance", "ms", "round"),
    LayerMetric("data.load_ms", "ms", "data.load", "mean_ms", "session"),
    LayerMetric("cli.self_ms", "ms", "cli", "self_ms", "round"),
)

TRAIN_PHASE = "phase.train"
ROUND_PHASE = "phase.round"


def layer_metrics(spans: list[list], train_steps: int) -> dict[str, dict]:
    """Every :data:`LAYER_METRICS` entry from the spans of one traced session.

    The session holds ``phase.train`` spans around training and one
    ``phase.round`` span around the first round of CLI commands.
    """
    selfs = self_times(spans)
    # a span's phase is the name of its outermost ancestor; parents open first
    roots = []
    for i, s in enumerate(spans):
        roots.append(i if s[PARENT] < 0 else roots[s[PARENT]])
    phases = [spans[r][NAME] for r in roots]
    scopes = {"step": TRAIN_PHASE, "round": ROUND_PHASE, "session": None}
    out = {}
    for metric in LAYER_METRICS:
        phase = scopes[metric.scope]
        picked = [i for i, s in enumerate(spans)
                  if s[NAME] == metric.span and (metric.tag is None or s[TAG] == metric.tag)
                  and (phase is None or phases[i] == phase)]
        if metric.measure == "calls":
            value = float(len(picked))
        elif metric.measure == "count":
            value = float(sum(spans[i][COUNT] for i in picked))
        elif metric.measure == "self_ms":
            value = 1e3 * sum(selfs[i] for i in picked)
        else:
            value = 1e3 * sum(spans[i][END] - spans[i][START] for i in picked)
            if metric.measure == "mean_ms":
                value = value / len(picked) if picked else 0.0
        if metric.scope == "step":
            value = value / train_steps if train_steps else 0.0
        out[metric.name] = {"value": value, "unit": metric.unit}
    return out

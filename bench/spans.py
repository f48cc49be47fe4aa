"""In-memory span recorder for the traced benchmark run.

The program itself has no tracing, so the traced run wraps the public
functions of each layer from outside: every ``setkp.*`` module attribute
bound to a target function object is replaced by a wrapper (functions are
imported by name into several modules), and class methods are replaced on
their class. Wrappers are installed only inside ``Tracer.installed()``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _tape_nodes(args, kwargs):
    return len(args[0].nodes)


def _encode_tokens(args, kwargs):
    return len(_arg(args, kwargs, 1, "token_ids"))


def _decode_shape(args, kwargs):
    return tuple(_arg(args, kwargs, 1, "prev_ids").shape)


@dataclass(frozen=True)
class Target:
    span: str  # layer.name, as reported
    module: str
    attr: str  # "func" or "Class.method"
    extra: Callable | None = None  # (args, kwargs) -> value stored on the span


TARGETS = (
    Target("autograd.backward", "setkp.autograd", "Tape.backward", _tape_nodes),
    Target("params.adamw_step", "setkp.params", "AdamW.step"),
    Target("params.save_checkpoint", "setkp.params", "save_checkpoint"),
    Target("params.load_checkpoint", "setkp.params", "load_checkpoint"),
    Target("model.encode", "setkp.model", "Model.encode", _encode_tokens),
    Target("model.kwe_probs", "setkp.model", "Model.kwe_probs"),
    Target("model.control_rows", "setkp.model", "Model.control_rows"),
    Target("model.decode_probs", "setkp.model", "Model.decode_probs", _decode_shape),
    Target("assignment.k_step_predict", "setkp.assignment", "k_step_predict"),
    Target("assignment.assign_groups", "setkp.assignment", "assign_groups"),
    Target("training.tsmt_train", "setkp.training", "tsmt_train"),
    Target("training.predicted_keywords", "setkp.training", "predicted_keywords"),
    Target("training.teacher_arrays", "setkp.training", "teacher_arrays"),
    Target("inference.generate_slots", "setkp.inference", "generate_slots"),
    Target("inference.extract_keywords", "setkp.inference", "extract_keywords"),
    Target("inference.filter_predictions", "setkp.inference", "filter_predictions"),
    Target("inference.document_portrait", "setkp.inference", "document_portrait"),
    Target("metrics.stem_tokens", "setkp.metrics", "stem_tokens"),
    Target("metrics.evaluate", "setkp.metrics", "evaluate"),
    Target("corpus.load_jsonl", "setkp.corpus", "load_jsonl"),
    Target("corpus.tokenize", "setkp.corpus", "tokenize"),
    Target("analysis.run_experiment", "setkp.analysis", "run_experiment"),
)

# span record fields
NAME, START, END, PARENT, CMD, EXTRA = range(6)


class Tracer:
    """Spans are lists [name, start, end, parent index, command id, extra]."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.cmd = 0
        self.missing: list[str] = []  # targets the program no longer has
        self.bindings: dict[str, int] = {}  # span name -> attributes patched

    def _open(self, name: str, extra) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.cmd, extra]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, extra=None):
        rec = self._open(name, extra)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn: Callable, extra: Callable | None) -> Callable:
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            rec = open_(name, extra(args, kwargs) if extra else None)
            try:
                return fn(*args, **kwargs)
            finally:
                close(rec)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every target; restore them on exit."""
        undo: list[tuple[object, str, object]] = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "setkp" or n.startswith("setkp."))]
        try:
            for t in self.targets:
                owner = importlib.import_module(t.module)
                *cls_path, attr = t.attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(t.span)
                    continue
                wrapper = self.wrap(t.span, original, t.extra)
                if cls_path:
                    sites = [owner]
                    names = [attr]
                else:
                    sites, names = [], []
                    for m in modules:
                        for k, v in vars(m).items():
                            if v is original:
                                sites.append(m)
                                names.append(k)
                for site, k in zip(sites, names):
                    undo.append((site, k, getattr(site, k)))
                    setattr(site, k, wrapper)
                self.bindings[t.span] = len(sites)
            yield self
        finally:
            for site, k, v in reversed(undo):
                setattr(site, k, v)

    def write_jsonl(self, path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
                    "parent": s[PARENT], "cmd": s[CMD], "extra": s[EXTRA],
                }) + "\n")


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric == "trace.overhead":
        return "ratio"
    return "count"


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list], iterations: int, e1: int) -> tuple[dict, dict]:
    """Per-layer metrics per measured iteration, plus whole-phase totals.

    ``e1`` is the number of stage-1 epochs of every traced ``train`` run;
    epoch times come from the intervals between consecutive checkpoint
    writes inside one ``tsmt_train`` call.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    extras: dict[str, list] = {}
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + selfs[i]
        if s[EXTRA] is not None:
            extras.setdefault(s[NAME], []).append(s[EXTRA])
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)

    n = max(iterations, 1)
    m: dict[str, float] = {}

    def per_iter(name: str, with_calls: bool = True) -> None:
        if with_calls:
            m[f"{name}.calls"] = calls.get(name, 0) / n
        m[f"{name}.self_s"] = self_s.get(name, 0.0) / n

    per_iter("autograd.backward")
    m["autograd.backward.tape_nodes"] = float(statistics.fmean(extras["autograd.backward"])) \
        if extras.get("autograd.backward") else 0.0
    per_iter("params.adamw_step")
    per_iter("params.save_checkpoint")
    per_iter("params.load_checkpoint")
    per_iter("model.encode")
    m["model.encode.tokens"] = sum(extras.get("model.encode", [])) / n
    per_iter("model.decode_probs")
    shapes = extras.get("model.decode_probs", [])
    m["model.decode_probs.rows"] = sum(a * b for a, b in shapes) / n
    for T in (1, 4, 8):
        durs = [s[END] - s[START] for s in spans
                if s[NAME] == "model.decode_probs" and s[EXTRA][1] == T]
        m[f"model.decode_probs.T{T}.p50_ms"] = _median(durs) * 1e3
    per_iter("model.kwe_probs", with_calls=False)
    per_iter("model.control_rows", with_calls=False)
    per_iter("assignment.k_step_predict")
    per_iter("assignment.assign_groups")

    stage1, stage23 = [], []
    for i, s in enumerate(spans):
        if s[NAME] != "training.tsmt_train":
            continue
        bounds = [s[START]] + [spans[c][END] for c in children.get(i, [])
                               if spans[c][NAME] == "params.save_checkpoint"]
        for epoch, (a, b) in enumerate(zip(bounds, bounds[1:]), start=1):
            (stage1 if epoch <= e1 else stage23).append(b - a)
    m["training.stage1_epoch_s"] = _median(stage1)
    m["training.stage23_epoch_s"] = _median(stage23)
    per_iter("training.predicted_keywords", with_calls=False)
    per_iter("training.teacher_arrays", with_calls=False)
    per_iter("training.tsmt_train", with_calls=False)

    steps = [sum(spans[c][NAME] == "model.decode_probs" for c in children.get(i, []))
             for i, s in enumerate(spans) if s[NAME] == "inference.generate_slots"]
    per_iter("inference.generate_slots")
    m["inference.generate_slots.steps"] = float(statistics.fmean(steps)) if steps else 0.0
    per_iter("inference.extract_keywords", with_calls=False)
    per_iter("inference.filter_predictions", with_calls=False)
    per_iter("inference.document_portrait", with_calls=False)
    per_iter("metrics.stem_tokens")
    per_iter("metrics.evaluate", with_calls=False)
    per_iter("corpus.load_jsonl", with_calls=False)
    m["corpus.tokenize.calls"] = calls.get("corpus.tokenize", 0) / n
    per_iter("analysis.run_experiment", with_calls=False)
    for cmd in ("train", "generate", "eval", "portrait", "analyze"):
        per_iter(f"cli.{cmd}", with_calls=False)
    m["trace.spans"] = len(spans) / n

    totals = {
        "calls": calls,
        "steps_mean": m["inference.generate_slots.steps"],
        "steps_min": min(steps) if steps else 0,
        "steps_max": max(steps) if steps else 0,
    }
    return m, totals

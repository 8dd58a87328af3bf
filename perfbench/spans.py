"""Span tracing around the public functions of the cryptobench modules.

The tracer replaces each public function (the names in a module's
``__all__``) with a wrapper that records a span -- name, start, end,
parent -- in memory.  The modules call one another through module
attributes, so nested calls are traced too and the spans form one tree
per CLI stage, rooted at ``cli.main``.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

MODULES = ("cli", "dataset", "pipeline", "lstm", "svr", "polyreg", "evaluation")

# Functions the per-layer metrics read.  A missing one, or one whose
# arguments or result no longer fit its counter, is recorded as an absent
# hook and its metrics read 0; the run does not fail.
NAMED_HOOKS = (
    "dataset.parse_csv", "dataset.make_windows",
    "pipeline.prepare", "pipeline.run_compare",
    "lstm.epoch_grid", "lstm.adam_step", "lstm.predict_batch",
    "svr.fit", "svr.gram_matrix", "svr.grid_search", "svr.predict_batch",
    "polyreg.degree_sweep", "polyreg.fit",
    "evaluation.compare",
)

# Work counts that must repeat exactly for one commit, seed and config.
EXACT_COUNTS = ("svr.smo_iterations", "svr.capped_fits", "svr.gram_entries",
                "lstm.grad_windows", "lstm.adam_steps")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    counts: dict = field(default_factory=dict)


def _gram_entries(bound, _result):
    x = bound.arguments["X"]
    z = bound.arguments.get("Z")
    return {"entries": len(x) * len(x if z is None else z)}


def _fit_counts(_bound, model):
    return {"n_iter": int(model.n_iter), "capped": int(not model.converged),
            "kkt_violation": float(model.kkt_violation)}


def _grad_windows(bound, _result):
    return {"windows": len(bound.arguments["data"]) * max(bound.arguments["epoch_counts"])}


# Counts taken at the span boundary, from the call's arguments or result.
_COUNTERS = {
    "dataset.parse_csv": lambda _b, series: {"rows": len(series)},
    "lstm.epoch_grid": _grad_windows,
    "lstm.predict_batch": lambda b, _r: {"windows": len(b.arguments["inputs"])},
    "svr.fit": _fit_counts,
    "svr.gram_matrix": _gram_entries,
}


class Tracer:
    """Installs span-recording wrappers; ``restore`` puts the originals back."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()

    def install(self):
        wrapped = set()
        for short in MODULES:
            try:
                module = importlib.import_module(f"cryptobench.{short}")
            except ModuleNotFoundError:
                continue
            # cli exports nothing; its entry point is the root of every stage
            names = ["main"] if short == "cli" else module.__all__
            for name in names:
                fn = getattr(module, name, None)
                if inspect.isfunction(fn):
                    self._wrap(module, name, f"{short}.{name}", fn)
                    wrapped.add(f"{short}.{name}")
        self.absent.update(hook for hook in NAMED_HOOKS if hook not in wrapped)

    def _wrap(self, module, attr, label, fn):
        spans, stack, absent = self.spans, self._stack, self.absent
        counter = _COUNTERS.get(label)
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            span = Span(label, time.perf_counter(), 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter:
                try:
                    span.counts = counter(signature.bind(*args, **kwargs), result)
                except (TypeError, KeyError, AttributeError):
                    absent.add(label)
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, fn))

    def restore(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def write(self, path: Path):
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "counts": span.counts}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``<module>.<metric>`` -> (value, unit)."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict[str, float]] = {}
    max_kkt = 0.0
    for span, own_s in zip(spans, own):
        total[span.name] = total.get(span.name, 0.0) + span.end - span.start
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + own_s
        calls[span.name] = calls.get(span.name, 0) + 1
        bucket = counts.setdefault(span.name, {})
        for key, value in span.counts.items():
            bucket[key] = bucket.get(key, 0) + value
        if span.name == "svr.fit":
            max_kkt = max(max_kkt, span.counts.get("kkt_violation", 0.0))

    def t(name):
        return total.get(name, 0.0)

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    train_self = self_by_name.get("lstm.epoch_grid", 0.0)
    smo_self = self_by_name.get("svr.fit", 0.0)
    grad_windows = c("lstm.epoch_grid", "windows")
    smo_iterations = c("svr.fit", "n_iter")
    m = {
        "lstm.train_self_s": (train_self, "s"),
        "lstm.grad_windows": (grad_windows, "count"),
        "lstm.windows_per_s": (grad_windows / train_self if train_self else 0.0, "1/s"),
        "lstm.adam_step_s": (t("lstm.adam_step"), "s"),
        "lstm.adam_steps": (calls.get("lstm.adam_step", 0), "count"),
        "lstm.predict_batch_s": (t("lstm.predict_batch"), "s"),
        "lstm.windows_predicted": (c("lstm.predict_batch", "windows"), "count"),
        "svr.smo_iterations": (smo_iterations, "count"),
        "svr.capped_fits": (c("svr.fit", "capped"), "count"),
        "svr.max_kkt_violation": (max_kkt, "1"),
        "svr.smo_s": (smo_self, "s"),
        "svr.smo_us_per_iter": (1e6 * smo_self / smo_iterations if smo_iterations else 0.0, "us"),
        "svr.gram_matrix_s": (t("svr.gram_matrix"), "s"),
        "svr.gram_matrix_calls": (calls.get("svr.gram_matrix", 0), "count"),
        "svr.gram_entries": (c("svr.gram_matrix", "entries"), "count"),
        "svr.fits": (calls.get("svr.fit", 0), "count"),
        "svr.fit_s": (t("svr.fit"), "s"),
        "svr.grid_search_s": (t("svr.grid_search"), "s"),
        "svr.predict_batch_s": (t("svr.predict_batch"), "s"),
        "dataset.parse_csv_s": (t("dataset.parse_csv"), "s"),
        "dataset.rows_parsed": (c("dataset.parse_csv", "rows"), "count"),
        "dataset.make_windows_s": (t("dataset.make_windows"), "s"),
        "pipeline.prepare_s": (t("pipeline.prepare"), "s"),
        "pipeline.run_compare_s": (t("pipeline.run_compare"), "s"),
        "polyreg.degree_sweep_s": (t("polyreg.degree_sweep"), "s"),
        "polyreg.fit_calls": (calls.get("polyreg.fit", 0), "count"),
        "evaluation.compare_s": (t("evaluation.compare"), "s"),
    }
    for module in MODULES:
        prefix = module + "."
        m[f"{module}.self_s"] = (
            math.fsum(v for k, v in self_by_name.items() if k.startswith(prefix)), "s")
    return m

"""In-process span recorder for the traced benchmark run.

``Tracer.install`` replaces the public functions of ``rogetkb`` with timing
wrappers at the places the calling modules bind them (``rogetkb.cli``'s
``load_bundle``, ``rogetkb.bundle``'s ``parse_source``, methods such as
``ThesaurusKB.resolve``); no file of the package changes. Each wrapped call
records a span (name, start, end, parent span, operation id). Hot per-call
functions are aggregated instead: one count and one total per operation and
parent span. ``dump`` writes everything out as JSON; ``self_times`` turns a
dump into per-layer self time.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Optional

# (module or class path, attribute, span name); the same span name at two
# bindings measures one layer reached from two callers.
SPANS = (
    ("rogetkb.cli", "load_bundle", "bundle.load"),
    ("rogetkb.bundle", "load_bundle", "bundle.load"),
    ("rogetkb.bundle", "parse_source", "parser.parse"),
    ("rogetkb.cli", "parse_source", "parser.build_parse"),
    ("rogetkb.model:ThesaurusKB", "canonical_source", "model.canonical_source"),
    ("rogetkb.bundle", "load_resource", "lexnet.load_resource"),
    ("rogetkb.cli", "load_resource", "lexnet.load_resource"),
    ("rogetkb.bundle", "build_index", "index.build"),
    ("rogetkb.cli", "write_bundle", "bundle.write"),
    ("rogetkb.cli", "structured_document", "bundle.structured_document"),
    ("rogetkb.cli", "class_coverage", "aligner.class_coverage"),
    ("rogetkb.bundle", "class_coverage", "aligner.class_coverage"),
    ("rogetkb.cli", "pos_distribution", "aligner.pos_distribution"),
    ("rogetkb.bundle", "pos_distribution", "aligner.pos_distribution"),
    ("rogetkb.cli", "common_strings", "aligner.common_strings"),
    ("rogetkb.bundle", "common_strings", "aligner.common_strings"),
    ("rogetkb.cli", "head_coverage", "aligner.head_coverage"),
    ("rogetkb.model:ThesaurusKB", "count_nodes", "model.count_nodes"),
    ("rogetkb.cli", "serialize_kb", "parser.serialize"),
    ("rogetkb.cli", "word_distance", "metrics.word_distance"),
    ("rogetkb.metrics", "word_distance", "metrics.word_distance"),
    ("rogetkb.cli", "label_paragraph", "aligner.label"),
    ("rogetkb.aligner", "label_paragraph", "aligner.label"),
    ("rogetkb.aligner", "build_mini_net", "lexnet.mini_net"),
)

# called many times per operation: counted and summed, not one span each
AGGREGATES = (
    ("rogetkb.model:ThesaurusKB", "resolve", "model.resolve"),
    ("rogetkb.model:ThesaurusKB", "head_address", "model.head_address"),
    ("rogetkb.index:LexicalIndex", "lookup", "index.lookup"),
    ("rogetkb.lexnet:SynsetResource", "all_lemmas", "lexnet.all_lemmas"),
)


def _resolve_owner(path: str) -> Any:
    import importlib

    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _normalize(text: str) -> str:
    return " ".join(text.split()).lower()


class Tracer:
    """Spans of one process. ``op`` is the operation id stamped on every
    span; the caller sets it before each operation."""

    def __init__(self, op: Any = None) -> None:
        self.op = op
        self.spans: list[list] = []  # name, start, end, parent index, op
        self.aggregates: dict[tuple, list] = {}  # (op, name, parent) -> [count, total]
        self.counters: dict[tuple, float] = {}  # (op, name) -> value
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, time.perf_counter(), 0.0, parent, tracer.op]
            tracer.spans.append(record)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _aggregate(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                parent = tracer._stack[-1] if tracer._stack else -1
                slot = tracer.aggregates.setdefault((tracer.op, name, parent), [0, 0.0])
                slot[0] += 1
                slot[1] += elapsed

        return wrapper

    def count(self, name: str, value: float) -> None:
        key = (self.op, name)
        self.counters[key] = self.counters.get(key, 0) + value

    # -- counters read off arguments and results -------------------------------

    def _after(self, name: str) -> Optional[Callable]:
        if name == "parser.parse":
            # load_bundle keeps only result.kb: every diagnostic is discarded
            return lambda args, result: self.count("parser.diagnostics_discarded", len(result.diagnostics))
        if name == "parser.build_parse":
            return lambda args, result: self.count("parser.diagnostics", len(result.diagnostics))
        if name == "metrics.word_distance":
            def pairs(args, result):
                _, idx, word_a, word_b = args[:4]
                a = len(idx.entries.get(_normalize(word_a), ()))
                b = len(idx.entries.get(_normalize(word_b), ()))
                self.count("metrics.sense_pairs", a * b)
            return pairs
        return None

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for path, attr, name in SPANS:
            owner = _resolve_owner(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._span(name, original, self._after(name)))
        for path, attr, name in AGGREGATES:
            owner = _resolve_owner(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._aggregate(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def dump(self, path: str) -> None:
        document = {
            "spans": self.spans,
            "aggregates": [[op, name, parent, c, t] for (op, name, parent), (c, t) in self.aggregates.items()],
            "counters": [[op, name, value] for (op, name), value in self.counters.items()],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def self_times(document: dict) -> dict:
    """Per operation: layer name -> (inclusive seconds, self seconds, calls),
    plus counters and the wall time covered by top-level spans. Self time is
    a span's duration minus what its traced children cover."""
    spans = document["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for op, name, parent, count, total in document["aggregates"]:
        if parent >= 0:
            child_time[parent] += total

    per_op: dict = {}

    def layer(op: Any, name: str) -> list:
        table = per_op.setdefault(op, {"layers": {}, "counters": {}, "top_s": 0.0})
        return table["layers"].setdefault(name, [0.0, 0.0, 0])

    for i, (name, start, end, parent, op) in enumerate(spans):
        slot = layer(op, name)
        slot[0] += end - start
        slot[1] += end - start - child_time[i]
        slot[2] += 1
        if parent < 0:
            per_op[op]["top_s"] += end - start
    for op, name, parent, count, total in document["aggregates"]:
        slot = layer(op, name)
        slot[0] += total
        slot[1] += total
        slot[2] += count
        if parent < 0:
            per_op[op]["top_s"] += total
    for op, name, value in document["counters"]:
        per_op.setdefault(op, {"layers": {}, "counters": {}, "top_s": 0.0})
        counters = per_op[op]["counters"]
        counters[name] = counters.get(name, 0) + value
    return per_op

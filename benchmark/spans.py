"""Spans around flowrec's public functions, for the traced benchmark mode.

The wrappers live here, outside the package: :meth:`Tracer.install` rebinds
each traced name where its caller looks it up (a module global such as
``flowrec.serve.score_candidates``, or a method on its class) and
:meth:`Tracer.uninstall` puts the originals back. A span records its name,
start, end, parent span, operation id and an item count; spans stay in
memory until :meth:`Tracer.dump` writes them out.

``flowrec/__init__.py`` rebinds the attribute ``flowrec.train`` to the
``train`` function, so modules are reached through ``sys.modules``.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from functools import wraps


def _count_candidates(args, kwargs):
    return len(args[1])


# (module, class or None, attribute, span name, item count of one call)
TARGETS = [
    ("flowrec.data", None, "generate_synthetic", "data.generate_synthetic", None),
    ("flowrec.data", None, "read_jsonl", "data.read_jsonl", None),
    ("flowrec.train", None, "backward_batch", "train.backward_batch", None),
    ("flowrec.train", None, "adam_step", "train.adam_step", None),
    ("flowrec.train", None, "evaluate_params", "train.evaluate_params", None),
    ("flowrec.train", "FeatureSource", "article_features", "train.article_features", None),
    ("flowrec.train", "FeatureSource", "profile_embedding", "train.profile_embedding", None),
    # Only the training path's batched calls; encode_article's one-row calls stay untraced.
    ("flowrec.train", None, "encode_attributes_batch", "encode.attributes_forward", None),
    ("flowrec.train", None, "attributes_backward", "encode.attributes_backward", None),
    ("flowrec.train", None, "evaluate_rankings", "metrics.evaluate_rankings", None),
    ("flowrec.encode", "HashedTextEmbedder", "embed", "encode.embed", None),
    ("flowrec.encode", "CachingEmbedder", "embed", "encode.cached_embed", None),
    ("flowrec.model", None, "encode_article", "encode.encode_article", None),
    ("flowrec.serve", None, "encode_article", "encode.encode_article", None),
    ("flowrec.model", None, "score_candidates", "model.score_candidates", _count_candidates),
    ("flowrec.serve", None, "score_candidates", "model.score_candidates", _count_candidates),
    ("flowrec.model", "Scorer", "score", "model.Scorer.score", None),
    ("flowrec.summarize", "ProfileProvider", "profile_text", "summarize.profile_text", None),
    ("flowrec.summarize", "StubCompletionClient", "complete", "summarize.complete", None),
    ("flowrec.serve", None, "rank", "serve.rank", None),
    ("flowrec.serve", "RankService", "handle_rank", "serve.handle_rank", None),
    ("flowrec.serve", None, "precompute", "serve.precompute", None),
    ("flowrec.serve", None, "save_store", "serve.save_store", None),
    ("flowrec.serve", None, "load_store", "serve.load_store", None),
    ("flowrec.checkpoint", None, "save_checkpoint", "checkpoint.save_checkpoint", None),
    ("flowrec.checkpoint", None, "load_checkpoint", "checkpoint.load_checkpoint", None),
]


class Span:
    __slots__ = ("name", "parent", "op", "items", "start", "end", "index")

    def __init__(self, name, parent, op, items):
        self.name = name
        self.parent = parent
        self.op = op
        self.items = items
        self.start = 0.0
        self.end = 0.0
        self.index = -1

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Collects spans from every thread; ``op`` tags spans with the operation id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span = Span(name, stack[-1] if stack else None, tracer.op,
                        count(args, kwargs) if count else 0)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, class_name, attr, name, count in TARGETS:
            importlib.import_module(module_name)
            owner = sys.modules[module_name]
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path, process: str) -> None:
        for i, span in enumerate(self.spans):
            span.index = i
        rows = [[s.name, s.start, s.end, s.parent.index if s.parent else -1, s.op, s.items]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"process": process, "spans": rows}, fh)


def load_spans(path) -> list[Span]:
    """Spans written by :meth:`Tracer.dump`, with parent links restored."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = json.load(fh)["spans"]
    spans: list[Span] = []
    for i, (name, start, end, parent, op, items) in enumerate(rows):
        span = Span(name, spans[parent] if parent >= 0 else None, op, items)
        span.start, span.end, span.index = start, end, i
        spans.append(span)
    return spans

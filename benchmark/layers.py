"""Per-layer metrics from the spans of a traced run.

Spans fall in two pools. *Operation* spans were recorded inside a timed
operation: the in-process ``train()`` calls, or the server's handling of a
timed ``/rank`` request. *Set-up* spans were recorded before the first timed
operation: world generation, and for serving the CLI commands and the server's
start. Per-operation figures are means over traced operations; the set-up
layers of the serving workloads are totals over the set-up. A layer that a
workload never calls reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict


def _p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer_metrics(kind: str, op_spans, setup_spans, n_ops: int, extra: dict) -> dict[str, float]:
    """``extra`` carries what spans cannot show: CLI stage seconds, file sizes,
    the HTTP share of each request, the tracing overhead and unaccounted share."""
    def named(spans, name):
        return [s for s in spans if s.name == name]

    def total_ms(spans, *names):
        return sum(s.ms for s in spans if s.name in names)

    def count(spans, *names):
        return sum(1 for s in spans if s.name in names)

    children = defaultdict(list)
    for s in op_spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)

    per_op = max(n_ops, 1)
    # Frozen-feature work happens inside each train() call, but in the
    # serving workloads it is set-up work done by the CLI commands.
    frozen, frozen_per = (op_spans, per_op) if kind == "train" else (setup_spans, 1)
    backward = named(op_spans, "train.backward_batch")
    adam = named(op_spans, "train.adam_step")
    scores = named(op_spans, "model.score_candidates")
    cached = named(frozen, "encode.cached_embed")
    misses = sum(1 for s in named(frozen, "encode.embed")
                 if s.parent is not None and s.parent.name == "encode.cached_embed")
    features = ("train.article_features", "train.profile_embedding")

    return {
        "train.step_ms_p50": _p50(b.ms + a.ms for b, a in zip(backward, adam)),
        "train.backward_self_ms_p50": _p50(b.ms - sum(c.ms for c in children[id(b)]) for b in backward),
        "train.adam_ms_p50": _p50(s.ms for s in adam),
        "train.features_ms": total_ms(op_spans, *features) / per_op,
        "train.features_calls": count(op_spans, *features) / per_op,
        "train.eval_ms": total_ms(op_spans, "train.evaluate_params") / per_op,
        "encode.embed_calls": count(frozen, "encode.embed") / frozen_per,
        "encode.embed_ms": total_ms(frozen, "encode.embed") / frozen_per,
        "encode.embed_hit_ratio": (len(cached) - misses) / len(cached) if cached else 0.0,
        "encode.attr_fwd_ms_p50": _p50(s.ms for s in named(op_spans, "encode.attributes_forward")),
        "encode.attr_bwd_ms_p50": _p50(s.ms for s in named(op_spans, "encode.attributes_backward")),
        "encode.article_calls": count(frozen, "encode.encode_article") / frozen_per,
        "encode.article_ms": total_ms(frozen, "encode.encode_article") / frozen_per,
        "summarize.profile_calls": count(frozen, "summarize.profile_text") / frozen_per,
        "summarize.completions": count(frozen, "summarize.complete") / frozen_per,
        "summarize.profile_ms": total_ms(frozen, "summarize.profile_text") / frozen_per,
        "model.score_ms_p50": _p50(s.ms for s in scores),
        "model.score_us_per_candidate": (1000.0 * sum(s.ms for s in scores) / sum(s.items for s in scores)
                                         if scores else 0.0),
        "model.scorer_ms": total_ms(op_spans, "model.Scorer.score") / per_op,
        "metrics.evaluate_ms": total_ms(op_spans, "metrics.evaluate_rankings") / per_op,
        "serve.rank_ms_p50": _p50(s.ms for s in named(op_spans, "serve.rank")),
        "serve.http_ms_p50": _p50(extra.get("http_ms", [])),
        "serve.precompute_s": total_ms(setup_spans, "serve.precompute") / 1000.0,
        "serve.save_store_s": total_ms(setup_spans, "serve.save_store") / 1000.0,
        "serve.load_store_s": total_ms(setup_spans, "serve.load_store") / 1000.0,
        "serve.store_mb": extra.get("store_mb", 0.0),
        "checkpoint.save_s": total_ms(setup_spans, "checkpoint.save_checkpoint") / 1000.0,
        "checkpoint.load_s": total_ms(setup_spans, "checkpoint.load_checkpoint") / 1000.0,
        "checkpoint.mb": extra.get("checkpoint_mb", 0.0),
        "cli.synth_s": extra.get("stage_s", {}).get("synth", 0.0),
        "cli.summarize_s": extra.get("stage_s", {}).get("summarize", 0.0),
        "cli.train_s": extra.get("stage_s", {}).get("train", 0.0),
        "cli.precompute_s": extra.get("stage_s", {}).get("precompute", 0.0),
        "cli.serve_ready_s": extra.get("stage_s", {}).get("serve_ready", 0.0),
        "data.generate_s": total_ms(setup_spans, "data.generate_synthetic") / 1000.0,
        "data.read_jsonl_s": total_ms(setup_spans, "data.read_jsonl") / 1000.0,
        "trace.overhead_ms": extra["overhead_ms"],
        "trace.unaccounted_pct": extra["unaccounted_pct"],
    }


def self_time_shares(op_spans) -> dict[str, float]:
    """Each span name's share of the summed self time of all operation spans
    (a span's self time is its duration minus its direct children's)."""
    child_ms = defaultdict(float)
    for s in op_spans:
        if s.parent is not None:
            child_ms[id(s.parent)] += s.ms
    own = defaultdict(float)
    for s in op_spans:
        own[s.name] += s.ms - child_ms[id(s)]
    total = sum(own.values())
    return {name: round(ms / total, 4) for name, ms in sorted(own.items(), key=lambda kv: -kv[1])} if total else {}

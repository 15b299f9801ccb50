"""Impression-grouped ranking metrics and the unique-visitor click rate.

Sums run in explicit rank order with plain Python floats so results are
reproducible to the last bit and directly comparable against brute-force
references. Candidates are ranked by descending score with ties kept in
input order; tie-affected impressions are counted in the report because a
tie-heavy model would otherwise look nondeterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field


def _ranked_labels(scores: list[float], labels: list[int]) -> list[int]:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [labels[i] for i in order]


def _has_ties(scores: list[float]) -> bool:
    return len(set(scores)) < len(scores)


def auc(scores: list[float], labels: list[int]) -> float | None:
    """Probability a random positive outranks a random negative; ties 0.5.

    Returns None when the impression lacks a positive or a negative.
    """
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return None
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def mrr(scores: list[float], labels: list[int]) -> float | None:
    """Mean reciprocal rank over all positives in the impression."""
    ranked = _ranked_labels(scores, labels)
    total, n_pos = 0.0, 0
    for rank, y in enumerate(ranked, start=1):
        if y == 1:
            total += 1.0 / rank
            n_pos += 1
    return total / n_pos if n_pos else None


def ndcg_at(scores: list[float], labels: list[int], k: int) -> float | None:
    """Binary-gain DCG@k over the descending-score order, divided by the
    ideal DCG@k."""
    n_pos = sum(1 for y in labels if y == 1)
    if n_pos == 0:
        return None
    ranked = _ranked_labels(scores, labels)
    dcg = 0.0
    for rank, y in enumerate(ranked[:k], start=1):
        if y == 1:
            dcg += 1.0 / math.log2(rank + 1)
    ideal = 0.0
    for rank in range(1, min(k, n_pos) + 1):
        ideal += 1.0 / math.log2(rank + 1)
    return dcg / ideal


@dataclass
class EvalReport:
    auc: float | None = None
    mrr: float | None = None
    ndcg5: float | None = None
    ndcg10: float | None = None
    n_impressions: int = 0
    n_excluded: int = 0
    n_tie_impressions: int = 0
    global_auc: float | None = None
    ablation_flags: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def evaluate_rankings(rankings: list[tuple[list[float], list[int]]],
                      include_global_auc: bool = False) -> EvalReport:
    """Aggregate per-impression metrics into a report.

    Impressions without both a positive and a negative are excluded from
    every metric (matching the AUC validity rule) and counted. The optional
    global AUC pools all candidates into one ranking instead of averaging
    per impression.
    """
    report = EvalReport()
    aucs: list[float] = []
    mrrs: list[float] = []
    n5s: list[float] = []
    n10s: list[float] = []
    for scores, labels in rankings:
        a = auc(scores, labels)
        if a is None:
            report.n_excluded += 1
            continue
        report.n_impressions += 1
        if _has_ties(scores):
            report.n_tie_impressions += 1
        aucs.append(a)
        mrrs.append(mrr(scores, labels))
        n5s.append(ndcg_at(scores, labels, 5))
        n10s.append(ndcg_at(scores, labels, 10))
    if aucs:
        report.auc = sum(aucs) / len(aucs)
        report.mrr = sum(mrrs) / len(mrrs)
        report.ndcg5 = sum(n5s) / len(n5s)
        report.ndcg10 = sum(n10s) / len(n10s)
    if include_global_auc:
        pooled_scores = [s for scores, _ in rankings for s in scores]
        pooled_labels = [y for _, labels in rankings for y in labels]
        report.global_auc = auc(pooled_scores, pooled_labels)
    return report


# ---------------------------------------------------------------------------
# Serving-log click rate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServingLogRecord:
    day: str          # ISO date
    user_id: str
    visited_homepage: bool
    clicked_any: bool

    def __post_init__(self):
        if self.clicked_any and not self.visited_homepage:
            raise ValueError(f"user {self.user_id} on {self.day} clicked without visiting")


def uvctr(records: list[ServingLogRecord],
          window: tuple[str, str] | None = None) -> float | None:
    """Unique clicking users over unique visiting users inside the window.

    A user visiting on several days counts once. Returns None when the
    window contains no visitors.
    """
    visitors: set[str] = set()
    clickers: set[str] = set()
    for rec in records:
        if window is not None and not (window[0] <= rec.day <= window[1]):
            continue
        if rec.visited_homepage:
            visitors.add(rec.user_id)
        if rec.clicked_any:
            clickers.add(rec.user_id)
    if not visitors:
        return None
    return len(clickers) / len(visitors)

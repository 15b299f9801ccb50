"""Impression-grouped ranking metrics.

Every metric reads one ranking, made by ``_rank``: candidates by descending
score, ties kept in input order. A tie is worth ½ to AUC, and an impression
with any tie is counted in the report because a tie-heavy model would
otherwise look nondeterministic. Sums run in rank order with plain Python
floats (AUC wins are counted as integers) so results are reproducible to the
last bit and directly comparable against brute-force references. The report's
means add with ``math.fsum``, exactly rounded, so they do not depend on how a
Python version's builtin ``sum`` adds floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field


def _rank(scores: list[float], labels: list[int]) -> tuple[list[int], list[list[int]]]:
    """The labels in rank order, and each tie group's ``[positives, negatives]``
    from the best score down."""
    # sorted() is stable with reverse=True too, so equal scores keep input order.
    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    ranked = [labels[i] for i in order]
    groups: list[list[int]] = []
    last = None
    for i, y in zip(order, ranked):
        if scores[i] != last:
            last = scores[i]
            group = [0, 0]
            groups.append(group)
        if y == 1:
            group[0] += 1
        elif y == 0:
            group[1] += 1
    return ranked, groups


def _auc(groups: list[list[int]]) -> float | None:
    twice_wins, n_pos, neg_below = 0, 0, 0
    for p, n in reversed(groups):
        twice_wins += p * (2 * neg_below + n)
        n_pos += p
        neg_below += n
    if not n_pos or not neg_below:
        return None
    # The wins are a multiple of ½ below 2^53, so exact: the pairwise count's bits.
    return twice_wins / 2 / (n_pos * neg_below)


def _mrr(ranked: list[int]) -> float | None:
    total, n_pos = 0.0, 0
    for rank, y in enumerate(ranked, start=1):
        if y == 1:
            total += 1.0 / rank
            n_pos += 1
    return total / n_pos if n_pos else None


def _ndcg_at(ranked: list[int], k: int) -> float | None:
    n_pos = ranked.count(1)
    if n_pos == 0:
        return None
    dcg = 0.0
    for rank, y in enumerate(ranked[:k], start=1):
        if y == 1:
            dcg += 1.0 / math.log2(rank + 1)
    ideal = 0.0
    for rank in range(1, min(k, n_pos) + 1):
        ideal += 1.0 / math.log2(rank + 1)
    return dcg / ideal


def auc(scores: list[float], labels: list[int]) -> float | None:
    """Probability a random positive outranks a random negative; ties 0.5.

    Returns None when the impression lacks a positive or a negative.
    """
    return _auc(_rank(scores, labels)[1])


def mrr(scores: list[float], labels: list[int]) -> float | None:
    """Mean reciprocal rank over all positives in the impression."""
    return _mrr(_rank(scores, labels)[0])


def ndcg_at(scores: list[float], labels: list[int], k: int) -> float | None:
    """Binary-gain DCG@k over the descending-score order, divided by the
    ideal DCG@k."""
    return _ndcg_at(_rank(scores, labels)[0], k)


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
        ranked, groups = _rank(scores, labels)
        a = _auc(groups)
        if a is None:
            report.n_excluded += 1
            continue
        report.n_impressions += 1
        if len(groups) < len(scores):
            report.n_tie_impressions += 1
        aucs.append(a)
        mrrs.append(_mrr(ranked))
        n5s.append(_ndcg_at(ranked, 5))
        n10s.append(_ndcg_at(ranked, 10))
    if aucs:
        report.auc, report.mrr, report.ndcg5, report.ndcg10 = (
            math.fsum(v) / len(v) for v in (aucs, mrrs, n5s, n10s))
    if include_global_auc:
        pooled_scores = [s for scores, _ in rankings for s in scores]
        pooled_labels = [y for _, labels in rankings for y in labels]
        report.global_auc = auc(pooled_scores, pooled_labels)
    return report

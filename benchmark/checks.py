"""Correctness checks for every timed operation, run outside the timed region.

Each check returns a list of problems; an empty list means the output passed.
The references here are the benchmark's own: numpy forward passes written
from the model's definition (candidate-conditioned softmax attention over the
history reps, the projected profile gating the candidate, a sigmoid head) and
AUC by brute-force pairwise counting. Frozen inputs (text embeddings, profile
texts, the store's rep matrix, checkpoint tensors) are taken as given.
"""

from __future__ import annotations

import math

import numpy as np

AUC_TOLERANCE = 1e-9
PROB_TOLERANCE = 1e-9
BN_EPS = 1e-5  # the attribute encoder's batch-norm epsilon, part of the model's definition


# ---------------------------------------------------------------------------
# Reference arithmetic
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                    np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))


def reference_probabilities(tensors: dict[str, np.ndarray], cands: np.ndarray,
                            hist: np.ndarray, profile_emb: np.ndarray) -> np.ndarray:
    """Click probabilities of candidate reps ``cands[n, d]`` for one user.

    Scores every candidate at once: ``softmax(c W Hᵀ) H`` is the instant flow,
    ``(P e + b) * c`` the gated constant flow, and the head reads
    ``[instant | constant | c]``. Covers the model with both flows and the
    gate on, which is every configuration the benchmark trains.
    """
    d = cands.shape[1]
    if hist.shape[0]:
        scores = (cands @ tensors["attn_w"]) @ hist.T
        scores -= scores.max(axis=1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=1, keepdims=True)
        instant = weights @ hist
    else:
        instant = np.zeros_like(cands)
    constant = (tensors["profile_w"] @ profile_emb + tensors["profile_b"]) * cands
    head = tensors["head_w"]
    z = instant @ head[:d] + constant @ head[d:2 * d] + cands @ head[2 * d:] + tensors["head_b"][0]
    return _sigmoid(z)


def reference_article_reps(tensors: dict[str, np.ndarray], attr_names: list[str],
                           attr_idx: np.ndarray, title_emb: np.ndarray,
                           body_emb: np.ndarray) -> np.ndarray:
    """Eval-mode article reps ``[attr | title | body]`` from frozen inputs.

    The attribute path is lookup, concat, linear, batch norm on the running
    statistics, relu, linear; each text slice is an affine projection.
    """
    x = np.concatenate([tensors[f"attr_embed/{name}"][attr_idx[:, k]]
                        for k, name in enumerate(attr_names)], axis=1)
    u = x @ tensors["attr_w1"].T + tensors["attr_b1"]
    u = (u - tensors["bn_mean"]) / np.sqrt(tensors["bn_var"] + BN_EPS)
    u = np.maximum(tensors["bn_gamma"] * u + tensors["bn_beta"], 0.0)
    attr = u @ tensors["attr_w2"].T + tensors["attr_b2"]
    title = title_emb @ tensors["title_w"].T + tensors["title_b"]
    body = body_emb @ tensors["body_w"].T + tensors["body_b"]
    return np.concatenate([attr, title, body], axis=1)


def brute_force_auc(rankings: list[tuple[list[float], list[int]]]) -> float | None:
    """Mean over impressions of the share of (positive, negative) pairs the
    positive wins, ties counting one half; impressions lacking a positive or
    a negative are skipped."""
    per_impression = []
    for scores, labels in rankings:
        pos = [s for s, y in zip(scores, labels) if y == 1]
        neg = [s for s, y in zip(scores, labels) if y == 0]
        if not pos or not neg:
            continue
        wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
        per_impression.append(wins / (len(pos) * len(neg)))
    return sum(per_impression) / len(per_impression) if per_impression else None


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_training(tensors: dict[str, np.ndarray], losses: list[float], steps_run: int,
                   steps: int) -> list[str]:
    """A train() call at a fixed step count: finite tensors, the recipe's step
    count, and a loss that falls from the first half of the steps to the last."""
    problems = [f"tensor {name} is not finite" for name, t in tensors.items()
                if not np.all(np.isfinite(t))]
    if steps_run != steps or len(losses) != steps:
        problems.append(f"ran {steps_run} steps with {len(losses)} losses, recipe is {steps}")
        return problems
    half = max(1, steps // 2)
    first, last = sum(losses[:half]) / half, sum(losses[-half:]) / half
    if not all(math.isfinite(x) for x in losses) or not last < first:
        problems.append(f"loss did not fall: first {first:.6f}, last {last:.6f}")
    return problems


def check_auc(reference_auc: float | None, reported_auc: float | None,
              threshold: float) -> list[str]:
    """The model's validation AUC matches the brute-force one and clears the bar."""
    if reference_auc is None or reported_auc is None:
        return [f"missing AUC (reference {reference_auc}, reported {reported_auc})"]
    problems = []
    if abs(reference_auc - reported_auc) > AUC_TOLERANCE:
        problems.append(f"reported AUC {reported_auc!r} differs from brute force {reference_auc!r}")
    if reference_auc < threshold:
        problems.append(f"AUC {reference_auc:.4f} is below {threshold}")
    return problems


def check_rank_response(status: int, payload, candidates: list[str], top_k: int) -> list[str]:
    """Status 200 and exactly ``top_k`` distinct requested ids, with
    probabilities in (0, 1) in descending order."""
    if status != 200:
        return [f"status {status}: {payload}"]
    try:
        results = payload["results"]
        ids = [r["article_id"] for r in results]
        probs = [r["probability"] for r in results]
    except (KeyError, TypeError) as exc:
        return [f"malformed response: {exc!r}"]
    problems = []
    expected = min(top_k, len(candidates))
    if len(ids) != expected:
        problems.append(f"{len(ids)} results, expected {expected}")
    if len(set(ids)) != len(ids):
        problems.append("duplicate ids in results")
    unknown = set(ids) - set(candidates)
    if unknown:
        problems.append(f"ids not in the request: {sorted(unknown)[:3]}")
    if not all(isinstance(p, float) and 0.0 < p < 1.0 for p in probs):
        problems.append("a probability lies outside (0, 1)")
    if any(a < b for a, b in zip(probs, probs[1:])):
        problems.append("results are not sorted by descending probability")
    return problems


def check_rank_reference(payload, candidates: list[str], reference: np.ndarray) -> list[str]:
    """Returned probabilities equal the reference, and no candidate left out
    of the top list scores above the lowest one kept."""
    ref = dict(zip(candidates, reference.tolist()))
    problems = []
    kept = {}
    for r in payload["results"]:
        want = ref.get(r["article_id"])
        if want is None or abs(r["probability"] - want) > PROB_TOLERANCE:
            problems.append(f"{r['article_id']}: probability {r['probability']!r}, reference {want!r}")
        kept[r["article_id"]] = r["probability"]
    if kept:
        floor = min(kept.values())
        above = [a for a in candidates if a not in kept and ref[a] > floor + PROB_TOLERANCE]
        if above:
            problems.append(f"{len(above)} candidates outside the top list score above it")
    return problems

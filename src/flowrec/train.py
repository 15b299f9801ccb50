"""Click-probability training: mean binary cross-entropy over
(impression, candidate, label) triples, hand-rolled reverse-mode gradients
for every trainable tensor, bias-corrected Adam, and early stopping on
validation AUC.

The frozen text embedder never receives gradients; its outputs, attribute
indices and profile embeddings live in the run's
:class:`~flowrec.encode.FeatureSource` table, which each batch gathers from
and validation reads. ``train()`` reads its impressions once into integers
(:class:`ExampleIndex`): each in-corpus candidate is an example of its
impression's user state, profiles included. Each step builds its batch from
the example ids it takes with numpy alone (:func:`_gather`):
article rows in order of first appearance, and user states,
``(user_id, history)``, padded into one block of candidates ``[S, M, d]``
and history row indices ``[S, L]`` with a mask. The flow scores in
candidate space, so a long history pads ``[S, M, L]`` scores, not an
``[S, L, d]`` key block. A step only composes layers whose forward
and backward live beside each other: the attribute encoder
(:func:`~flowrec.encode.encode_attributes_batch` /
:func:`~flowrec.encode.attributes_backward`), the rep layout
(:func:`~flowrec.encode.article_reps` /
:func:`~flowrec.encode.article_reps_backward`) and the flows
(:func:`~flowrec.model.flow_forward` / :func:`~flowrec.model.flow_backward`),
the same flow arithmetic that evaluation and serving score with. Each
backward returns its tensors' gradients; the step scatters the candidates'
rep gradient into the batch's rows and touches no tensor itself. A central
finite-difference gradient oracle is included so analytic gradients can
always be cross-checked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .data import Article, DataFormatError, Impression, in_corpus, split_by_time
from .encode import (
    FeatureSource,
    article_reps,
    article_reps_backward,
    attributes_backward,
    encode_attributes_batch,
)
from .errors import ConfigError, replacing
from .metrics import evaluate_rankings
from .model import (
    ModelParams,
    Scorer,
    flow_backward,
    flow_forward,
    scatter_add,
    sigmoid,
)

PROB_CLAMP = 1e-7
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingError(RuntimeError):
    """Raised when training hits a non-recoverable numeric problem."""

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump or {}


@dataclass
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 512
    dropout: float = 0.1
    max_steps: int = 600_000
    eval_every: int = 1000
    patience: int = 5
    holdout_fraction: float = 0.05
    log_every: int = 50
    seed: int = 0

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        for name, least in (("batch_size", 1), ("max_steps", 0), ("eval_every", 1), ("patience", 1),
                            ("log_every", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError("holdout_fraction must lie in (0, 1)")


# ---------------------------------------------------------------------------
# The indexed training set
# ---------------------------------------------------------------------------

class ExampleIndex:
    """Training impressions resolved to integers once, so a step gathers its
    batch with numpy alone.

    Each impression's candidates in the table (:func:`~flowrec.data.in_corpus`),
    positives first and otherwise in order, are examples of its user state
    ``(user_id, in-corpus history)``; an impression with none adds no state.
    Rows are those of the :class:`FeatureSource` the index is built with,
    which every batch of it must be run with. Example ``j`` scores article
    ``cand_ids[j]``, row ``cand_row[j]``, against user state ``state[j]``, with
    label ``labels[j]``. User state ``s`` is the key ``state_keys[s]``; its
    history is the rows ``hist_rows[s, :hist_len[s]]``, and its profile is row
    ``profile_row[s]`` of ``FeatureSource.profiles``: every state's profile is
    asked for in one :meth:`FeatureSource.profile_rows` call, here, in order of
    first appearance.
    """

    def __init__(self, impressions: list[Impression], feats: FeatureSource):
        row_of = feats.row_of
        ids: dict[tuple[str, tuple[str, ...]], int] = {}
        state: list[int] = []
        cands: list[tuple[str, int]] = []
        for imp in impressions:
            kept = sorted(in_corpus(row_of, imp.candidates, itemgetter(0)), key=itemgetter(1), reverse=True)
            if kept:
                state += [ids.setdefault((imp.user_id, tuple(in_corpus(row_of, imp.history))), len(ids))] * len(kept)
                cands += kept
        self.cand_ids = [a for a, _ in cands]
        self.state = np.array(state, dtype=np.int64)
        self.labels = np.array([y for _, y in cands], dtype=np.float64)
        self.state_keys = list(ids)
        self.hist_len = np.array([len(h) for _, h in self.state_keys], dtype=np.int64)
        self.hist_rows = np.zeros((len(self.state_keys), self.hist_len.max(initial=0)), dtype=np.int64)
        self.hist_rows[np.arange(self.hist_rows.shape[1]) < self.hist_len[:, None]] = \
            feats.rows([a for _, h in self.state_keys for a in h])
        self.cand_row = feats.rows(self.cand_ids)
        self.profile_row = feats.profile_rows(self.state_keys)


@dataclass(frozen=True)
class IndexedBatch:
    """The examples ``take`` of an :class:`ExampleIndex`, in that order."""

    index: ExampleIndex
    take: np.ndarray

    def triples(self) -> list[tuple[str, str, int]]:
        """``(user_id, candidate_id, label)`` of each example, as a :class:`TrainingError` dump lists them."""
        index = self.index
        return [(index.state_keys[index.state[j]][0], index.cand_ids[j], int(index.labels[j])) for j in self.take]


def _first_seen(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``values`` (non-negative ints) in order of first appearance,
    the position where each first appears, and each value's rank in that order."""
    first = np.full(int(values.max()) + 1, len(values))
    np.minimum.at(first, values, np.arange(len(values)))
    distinct = np.flatnonzero(first < len(values))
    order = np.argsort(first[distinct])
    distinct, lead = distinct[order], first[distinct[order]]
    first[distinct] = np.arange(len(distinct))
    return distinct, lead, first[values]


def _gather(batch: IndexedBatch) -> dict:
    """The integer arrays of one step, from numpy gathers, sorts and counts.

    * ``rows``: the article rows the batch reads, in order of first
      appearance over each example's history followed by its candidate;
      ``cand_rows`` places each example's candidate among them.
    * ``prof_rows``: the profile rows of the batch's user states, in order of
      first appearance.
    * ``hist_idx[S, L]`` and ``mask``: each state's history among ``rows``,
      padded to the longest.
    * ``slots``: example ``j`` is candidate slot ``slots[j]`` of the flat
      ``[S·width]`` block; a state's examples take its slots in batch order.
    """
    index, take = batch.index, batch.take
    states, lead, state_of = _first_seen(index.state[take])
    lens = index.hist_len[states]
    in_hist = np.arange(lens.max()) < lens[:, None]
    # A state's history first appears with its first example, so only that one carries it here.
    seq = np.full((len(take), in_hist.shape[1] + 1), -1, dtype=np.int64)
    seq[lead, :-1] = np.where(in_hist, index.hist_rows[states, :in_hist.shape[1]], -1)
    seq[:, -1] = index.cand_row[take]
    used = seq >= 0
    rows, _, local = _first_seen(seq[used])
    seq[used] = local

    counts = np.bincount(state_of)
    grouped = np.argsort(state_of, kind="stable")
    rank = np.empty_like(grouped)
    rank[grouped] = np.arange(len(take)) - (np.cumsum(counts) - counts)[state_of[grouped]]
    return {
        "rows": rows, "prof_rows": index.profile_row[states], "cand_rows": seq[:, -1],
        "hist_idx": np.where(in_hist, seq[lead, :in_hist.shape[1]], 0), "mask": in_hist,
        "width": int(counts.max()), "slots": state_of * counts.max() + rank,
        "labels": index.labels[take],
    }


# ---------------------------------------------------------------------------
# Forward / backward over a batch
# ---------------------------------------------------------------------------

def _forward(params: ModelParams, batch: IndexedBatch, feats: FeatureSource,
             mode: str, rng: np.random.Generator | None, dropout: float):
    g = _gather(batch)
    rows = g["rows"]
    h_attr, attr_cache = encode_attributes_batch(params, feats.attr_idx[rows], mode=mode, rng=rng,
                                                 dropout=dropout)
    reps = article_reps(params, h_attr, feats.title, feats.body, rows)
    # All user states in one flow call: state s holds its examples in candidate slots
    # s·width + i and its history rows in hist_idx[s, :len(history)], padded by the mask.
    hist_idx, slots, cand_rows, labels = g["hist_idx"], g["slots"], g["cand_rows"], g["labels"]
    cands = np.zeros((len(hist_idx) * g["width"], reps.shape[1]))
    cands[slots] = reps[cand_rows]
    cands = cands.reshape(len(hist_idx), g["width"], reps.shape[1])
    profile_embs = feats.profiles[g["prof_rows"]]
    z, flow = flow_forward(params, cands, reps, hist_idx, profile_embs, g["mask"])

    probs = sigmoid(z.reshape(-1)[slots])
    pc = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = float(np.mean(-(labels * np.log(pc) + (1 - labels) * np.log(1.0 - pc))))
    cache = {
        "rows": rows, "reps": reps, "attr_cache": attr_cache, "profile_embs": profile_embs,
        "labels": labels, "cand_rows": cand_rows, "cands": cands, "hist_idx": hist_idx,
        "slots": slots, "flow": flow,
    }
    return loss, probs, cache


def loss_batch(params: ModelParams, batch: IndexedBatch, feats: FeatureSource,
               mode: str = "train", rng: np.random.Generator | None = None,
               dropout: float = 0.0) -> float:
    """Mean clamped binary cross-entropy of the batch."""
    loss, _, _ = _forward(params, batch, feats, mode, rng, dropout)
    return loss


def backward_batch(params: ModelParams, batch: IndexedBatch,
                   feats: FeatureSource, mode: str = "train", rng: np.random.Generator | None = None,
                   dropout: float = 0.0) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus analytic gradients for every trainable tensor.

    ``batch`` is taken from an :class:`ExampleIndex`, as ``train()`` takes
    each step. Frozen embeddings receive no gradient; attribute vocabulary
    rows that a batch never touches come back exactly zero. A non-finite loss
    or gradient raises :class:`TrainingError` whose dump lists the batch's
    examples as ``(user_id, candidate_id, label)``; a gradient's dump also
    names the tensors.
    """
    loss, probs, cache = _forward(params, batch, feats, mode, rng, dropout)
    if not np.isfinite(loss):
        raise TrainingError("non-finite loss",
                            dump={"loss": loss, "probs": probs.tolist(), "examples": batch.triples()})

    reps, slots = cache["reps"], cache["slots"]
    # cands and flow are dropped once the flow backward has read them, before the peak below.
    cands, flow = cache.pop("cands"), cache.pop("flow")
    # A clamped example sits on a locally flat loss and passes no gradient.
    live = (probs > PROB_CLAMP) & (probs < 1.0 - PROB_CLAMP)
    g_z = np.zeros(cands.shape[:2])  # padded candidate slots pass no gradient
    g_z.reshape(-1)[slots] = np.where(live, (probs - cache["labels"]) / len(probs), 0.0)
    g_cands, g_reps, grads = flow_backward(params, cands, reps, cache["hist_idx"], cache["profile_embs"],
                                           flow, g_z)
    g_cands = g_cands.reshape(-1, reps.shape[1])[slots]
    del cands, flow
    scatter_add(g_reps, cache["cand_rows"], g_cands)
    g_attr, rep_grads = article_reps_backward(params, g_reps, feats.title, feats.body, cache["rows"])
    grads.update(rep_grads)
    grads.update(attributes_backward(params, cache["attr_cache"], g_attr))
    bad = {name: n for name, g in grads.items() if (n := int(np.count_nonzero(~np.isfinite(g))))}
    if bad:
        raise TrainingError(f"non-finite gradient in {', '.join(sorted(bad))}",
                            dump={"loss": loss, "nonfinite_gradients": bad, "examples": batch.triples()})
    return loss, grads


def finite_difference_grads(loss_fn, params: ModelParams, step: float = 1e-4) -> dict[str, np.ndarray]:
    """Central-difference gradients of ``loss_fn()`` w.r.t. the tensors.

    ``loss_fn`` must be a pure function of the current tensor values (use a
    fixed dropout seed). This is the independent oracle for
    :func:`backward_batch`.
    """
    grads: dict[str, np.ndarray] = {}
    for name in params.trainable_names():
        tensor = params.tensors[name]
        grad = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss_fn()
            flat[i] = original - step
            down = loss_fn()
            flat[i] = original
            gflat[i] = (up - down) / (2.0 * step)
        grads[name] = grad
    return grads


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def adam_init(params: ModelParams) -> AdamState:
    names = params.trainable_names()
    return AdamState(
        m={n: np.zeros_like(params.tensors[n]) for n in names},
        v={n: np.zeros_like(params.tensors[n]) for n in names},
    )


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: AdamState,
              lr: float) -> ModelParams:
    """One bias-corrected Adam update, in place."""
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for name, grad in grads.items():
        if name not in state.m:
            raise ConfigError(f"gradient for unknown or frozen tensor {name!r}")
        m = state.m[name]
        v = state.v[name]
        m += (1.0 - ADAM_BETA1) * (grad - m)
        v += (1.0 - ADAM_BETA2) * (grad * grad - v)
        params.tensors[name] -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return params


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class LogRow:
    step: int
    loss: float
    val_auc: float | None = None
    val_mrr: float | None = None
    wall_ms: float = 0.0

    def as_csv(self) -> str:
        fmt = lambda x: "" if x is None else f"{x:.6f}"
        return f"{self.step},{self.loss:.6f},{fmt(self.val_auc)},{fmt(self.val_mrr)},{self.wall_ms:.1f}"


LOG_HEADER = "step,loss,val_auc,val_mrr,wall_ms"


@dataclass
class TrainResult:
    params: ModelParams
    log: list[LogRow] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    best_val_auc: float | None = None
    steps_run: int = 0

    def write_log(self, path) -> None:
        with replacing(path, "w", encoding="utf-8") as fh:
            fh.write(LOG_HEADER + "\n")
            for row in self.log:
                fh.write(row.as_csv() + "\n")


def _scored(row_of: dict, impressions: list[Impression]) -> tuple[list[list[int]], list]:
    """Each impression's labels of its candidates in the corpus, and the profile key
    ``(user_id, history)`` that :meth:`Scorer.score` reads for each impression with one."""
    labels = [[y for _, y in in_corpus(row_of, imp.candidates, itemgetter(0))] for imp in impressions]
    keys = [(imp.user_id, tuple(in_corpus(row_of, imp.history))) for imp, ys in zip(impressions, labels) if ys]
    return labels, keys


def evaluate_params(params: ModelParams, features: FeatureSource, impressions: list[Impression],
                    include_global_auc: bool = False):
    """Eval-path metrics for a parameter snapshot over each impression's candidates in
    the table ``features``. Every profile that scoring reads is asked for in one
    :meth:`FeatureSource.profile_rows` call first."""
    scorer = Scorer(params, features)
    labels, keys = _scored(features.row_of, impressions)
    features.profile_rows(keys)
    return evaluate_rankings([(s.probabilities.tolist(), ys)
                              for s, ys in zip(map(scorer.score, impressions), labels)],
                             include_global_auc=include_global_auc)


def train(params: ModelParams, corpus: dict[str, Article], impressions: list[Impression],
          config: TrainConfig, embedder, profile_provider=None,
          val_impressions: list[Impression] | None = None) -> TrainResult:
    """Optimize the trainable tensors of ``params`` in place; early stopping
    selects the best-validation snapshot.

    Without an explicit validation set the last 5% of impressions by
    timestamp are held out. Early stopping fires after ``patience``
    evaluations without a strict AUC improvement. Every profile the run reads is
    asked for before its first step: the training states' and, if the run will
    validate, those its validation scores. On return ``params`` (also
    ``result.params``) holds the selected snapshot with its ``bn_mean`` and
    ``bn_var``, or the last step if no evaluation gave an AUC; on a
    :class:`TrainingError`, the tensors that the failing step ran with.
    """
    config.validate()
    if val_impressions is None:
        train_impressions, val_impressions = split_by_time(impressions, config.holdout_fraction)
    else:
        train_impressions = impressions

    rng = np.random.default_rng(config.seed)
    feats = FeatureSource(params, corpus, embedder, profile_provider)
    index = ExampleIndex(train_impressions, feats)
    if not len(index.labels):
        raise DataFormatError("training set is empty after filtering")
    if config.max_steps >= config.eval_every and val_impressions:
        feats.profile_rows(_scored(feats.row_of, val_impressions)[1])
    state = adam_init(params)
    result = TrainResult(params=params)
    best = -np.inf
    best_tensors = {}
    bad_evals = 0
    params.version_tag = ""  # cleared once: nothing below calls ensure_version_tag to stamp it
    order = np.arange(len(index.labels))
    cursor = len(order)  # force an initial shuffle
    started = time.perf_counter()

    step = 0
    while step < config.max_steps:
        step += 1
        if cursor + config.batch_size > len(order):
            rng.shuffle(order)
            cursor = 0
        take = order[cursor:cursor + config.batch_size]
        cursor += config.batch_size

        drop_rng = np.random.default_rng([config.seed, step])
        loss, grads = backward_batch(params, IndexedBatch(index, take), feats, mode="train",
                                     rng=drop_rng, dropout=config.dropout)
        adam_step(params, grads, state, config.learning_rate)
        result.losses.append(loss)
        wall = (time.perf_counter() - started) * 1000.0

        if step % config.eval_every == 0 and val_impressions:
            report = evaluate_params(params, feats, val_impressions)
            val_auc = report.auc
            result.log.append(LogRow(step, loss, val_auc, report.mrr, wall))
            if val_auc is not None and val_auc > best:
                best = val_auc
                best_tensors = {k: v.copy() for k, v in params.tensors.items()}
                bad_evals = 0
            else:
                bad_evals += 1
                if bad_evals >= config.patience:
                    break
        elif step % config.log_every == 0:
            result.log.append(LogRow(step, loss, wall_ms=wall))

    result.steps_run = step if config.max_steps else 0
    if best_tensors:
        result.best_val_auc = float(best)
        params.tensors.update(best_tensors)
    return result

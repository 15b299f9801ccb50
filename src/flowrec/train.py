"""Click-probability training: mean binary cross-entropy over
(impression, candidate, label) triples, hand-rolled reverse-mode gradients
for every trainable tensor, bias-corrected Adam, and early stopping on
validation AUC.

The frozen text embedder never receives gradients; its outputs, attribute
indices and profile embeddings live in the run's
:class:`~flowrec.encode.FeatureSource` table, which each batch gathers from
and validation reads. A central finite-difference gradient oracle is
included so analytic gradients can always be cross-checked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import Article, Impression, split_by_time
from .encode import FeatureSource, attributes_backward, encode_attributes_batch
from .errors import ConfigError
from .metrics import evaluate_rankings
from .model import ModelParams, Scorer, sigmoid, softmax

PROB_CLAMP = 1e-7


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
    neg_sample_ratio: int = 0   # 0 = keep every impression negative
    holdout_fraction: float = 0.05
    log_every: int = 50
    seed: int = 0

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.max_steps < 0 or self.eval_every < 1 or self.patience < 1:
            raise ConfigError("max_steps must be >= 0; eval_every and patience >= 1")


@dataclass(frozen=True)
class TrainExample:
    user_id: str
    history: tuple[str, ...]
    candidate_id: str
    label: int


def build_examples(impressions: list[Impression], corpus: dict[str, Article],
                   neg_sample_ratio: int = 0,
                   rng: np.random.Generator | None = None) -> list[TrainExample]:
    """Flatten impressions into training triples.

    History ids missing from the corpus are dropped; candidates missing from
    the corpus are skipped. With ``neg_sample_ratio`` K > 0, each impression
    keeps all positives plus at most K negatives per positive (seeded).
    """
    examples: list[TrainExample] = []
    for imp in impressions:
        history = tuple(a for a in imp.history if a in corpus)
        pos = [(a, y) for a, y in imp.candidates if y == 1 and a in corpus]
        neg = [(a, y) for a, y in imp.candidates if y == 0 and a in corpus]
        if neg_sample_ratio > 0 and pos and len(neg) > neg_sample_ratio * len(pos):
            if rng is None:
                raise ConfigError("negative sampling requires an rng")
            keep = rng.choice(len(neg), size=neg_sample_ratio * len(pos), replace=False)
            neg = [neg[i] for i in sorted(keep)]
        for art_id, y in pos + neg:
            examples.append(TrainExample(imp.user_id, history, art_id, y))
    return examples


# ---------------------------------------------------------------------------
# Forward / backward over a batch
# ---------------------------------------------------------------------------

def _forward(params: ModelParams, batch: list[TrainExample], feats: FeatureSource,
             mode: str, rng: np.random.Generator | None, dropout: float):
    cfg = params.config
    t = params.tensors
    # Rows in order of first appearance in the batch: the GEMMs below see this order.
    ids = list(dict.fromkeys(a for ex in batch for a in (*ex.history, ex.candidate_id)))
    row_of = {a: i for i, a in enumerate(ids)}
    rows = feats.rows(ids)
    title_emb, body_emb, idx = feats.title[rows], feats.body[rows], feats.attr_idx[rows]
    if cfg.constant_flow:
        prof_rows = feats.profile_rows([(ex.user_id, ex.history) for ex in batch])
        e_profs = feats.profiles[prof_rows]

    h_attr, attr_cache = encode_attributes_batch(params, idx, mode=mode, rng=rng, dropout=dropout)
    reps = np.concatenate(
        [h_attr, title_emb @ t["title_w"].T + t["title_b"], body_emb @ t["body_w"].T + t["body_b"]],
        axis=1,
    )

    per_example = []
    probs = np.empty(len(batch))
    losses = np.empty(len(batch))
    for j, ex in enumerate(batch):
        cand_row = row_of[ex.candidate_id]
        hist_rows = np.array([row_of[a] for a in ex.history], dtype=np.int64)
        cand = reps[cand_row]
        parts = []
        ecache: dict = {"cand_row": cand_row, "hist_rows": hist_rows, "label": ex.label}
        if cfg.instant_flow:
            if len(hist_rows):
                hist = reps[hist_rows]
                u = t["attn_w"].T @ cand
                alpha = softmax(hist @ u)
                parts.append(alpha @ hist)
                ecache.update(alpha=alpha, u=u)
            else:
                parts.append(np.zeros(cfg.article_dim))
        if cfg.constant_flow:
            e_prof = e_profs[j]
            q = t["profile_w"] @ e_prof + t["profile_b"]
            parts.append(q * cand if cfg.flow_gate else q)
            ecache.update(q=q, e_prof=e_prof)
        parts.append(cand)
        v = np.concatenate(parts)
        z = float(t["head_w"] @ v + t["head_b"][0])
        p = float(sigmoid(z))
        pc = min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
        losses[j] = -(ex.label * np.log(pc) + (1 - ex.label) * np.log(1.0 - pc))
        probs[j] = p
        ecache["v"] = v
        per_example.append(ecache)

    loss = float(losses.mean())
    cache = {
        "reps": reps, "attr_cache": attr_cache, "title_emb": title_emb,
        "body_emb": body_emb, "per_example": per_example, "probs": probs,
        "batch": batch,
    }
    return loss, probs, cache


def loss_batch(params: ModelParams, batch: list[TrainExample], feats: FeatureSource,
               mode: str = "train", rng: np.random.Generator | None = None,
               dropout: float = 0.0) -> float:
    """Mean clamped binary cross-entropy of the batch."""
    loss, _, _ = _forward(params, batch, feats, mode, rng, dropout)
    return loss


def backward_batch(params: ModelParams, batch: list[TrainExample], feats: FeatureSource,
                   mode: str = "train", rng: np.random.Generator | None = None,
                   dropout: float = 0.0) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus analytic gradients for every trainable tensor.

    Frozen embeddings receive no gradient; attribute vocabulary rows that a
    batch never touches come back exactly zero.
    """
    cfg = params.config
    t = params.tensors
    loss, probs, cache = _forward(params, batch, feats, mode, rng, dropout)
    if not np.isfinite(loss):
        raise TrainingError(
            "non-finite loss",
            dump={
                "loss": loss,
                "probs": probs.tolist(),
                "examples": [(ex.user_id, ex.candidate_id, ex.label) for ex in batch],
            },
        )

    reps = cache["reps"]
    grads: dict[str, np.ndarray] = {
        name: np.zeros_like(t[name]) for name in ("head_w", "head_b")
    }
    if cfg.instant_flow:
        grads["attn_w"] = np.zeros_like(t["attn_w"])
    if cfg.constant_flow:
        grads["profile_w"] = np.zeros_like(t["profile_w"])
        grads["profile_b"] = np.zeros_like(t["profile_b"])
    g_reps = np.zeros_like(reps)

    d = cfg.article_dim
    inv_b = 1.0 / len(batch)
    for j, ecache in enumerate(cache["per_example"]):
        p, y = probs[j], ecache["label"]
        if not PROB_CLAMP < p < 1.0 - PROB_CLAMP:
            continue  # clamped example: locally flat loss
        g_z = (p - y) * inv_b
        v = ecache["v"]
        grads["head_w"] += g_z * v
        grads["head_b"][0] += g_z
        g_v = g_z * t["head_w"]

        cand_row = ecache["cand_row"]
        cand = reps[cand_row]
        off = 0
        if cfg.instant_flow:
            g_ins = g_v[:d]
            off = d
            hist_rows = ecache["hist_rows"]
            if len(hist_rows):
                hist = reps[hist_rows]
                alpha, u = ecache["alpha"], ecache["u"]
                np.add.at(g_reps, hist_rows, np.outer(alpha, g_ins))
                g_alpha = hist @ g_ins
                g_scores = alpha * (g_alpha - alpha @ g_alpha)
                sh = g_scores @ hist
                grads["attn_w"] += np.outer(cand, sh)
                g_reps[cand_row] += t["attn_w"] @ sh
                np.add.at(g_reps, hist_rows, np.outer(g_scores, u))
        if cfg.constant_flow:
            g_cons = g_v[off:off + d]
            off += d
            q, e_prof = ecache["q"], ecache["e_prof"]
            if cfg.flow_gate:
                g_q = g_cons * cand
                g_reps[cand_row] += g_cons * q
            else:
                g_q = g_cons
            grads["profile_w"] += np.outer(g_q, e_prof)
            grads["profile_b"] += g_q
        g_reps[cand_row] += g_v[off:off + d]

    a, p_dim = cfg.attr_out_dim, cfg.text_proj_dim
    g_attr, g_title, g_body = g_reps[:, :a], g_reps[:, a:a + p_dim], g_reps[:, a + p_dim:]
    grads["title_w"] = g_title.T @ cache["title_emb"]
    grads["title_b"] = g_title.sum(axis=0)
    grads["body_w"] = g_body.T @ cache["body_emb"]
    grads["body_b"] = g_body.sum(axis=0)
    grads.update(attributes_backward(params, cache["attr_cache"], g_attr))
    return loss, grads


def finite_difference_grads(loss_fn, params: ModelParams, step: float = 1e-4,
                            names: list[str] | None = None) -> dict[str, np.ndarray]:
    """Central-difference gradients of ``loss_fn()`` w.r.t. the tensors.

    ``loss_fn`` must be a pure function of the current tensor values (use a
    fixed dropout seed). This is the independent oracle for
    :func:`backward_batch`.
    """
    grads: dict[str, np.ndarray] = {}
    for name in names or params.trainable_names():
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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


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
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, grad in grads.items():
        if name not in state.m:
            raise ConfigError(f"gradient for unknown or frozen tensor {name!r}")
        if grad.shape != state.m[name].shape:
            raise ConfigError(f"gradient shape mismatch for {name!r}")
        m = state.m[name]
        v = state.v[name]
        m += (1.0 - b1) * (grad - m)
        v += (1.0 - b2) * (grad * grad - v)
        params.tensors[name] -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(LOG_HEADER + "\n")
            for row in self.log:
                fh.write(row.as_csv() + "\n")


def evaluate_params(params: ModelParams, embedder, corpus: dict[str, Article],
                    impressions: list[Impression], profile_provider=None):
    """Eval-path metrics for a parameter snapshot (``embedder`` as in :class:`Scorer`)."""
    scorer = Scorer(params, embedder, corpus, profile_provider)
    return evaluate_rankings([([s.probability for s in scorer.score(imp)], imp.labels)
                              for imp in impressions])


def train(params: ModelParams, corpus: dict[str, Article], impressions: list[Impression],
          config: TrainConfig, embedder, profile_provider=None,
          val_impressions: list[Impression] | None = None) -> TrainResult:
    """Optimize all trainable tensors; return the best-validation snapshot.

    Without an explicit validation set the last 5% of impressions by
    timestamp are held out. Early stopping fires after ``patience``
    evaluations without a strict AUC improvement.
    """
    config.validate()
    if val_impressions is None:
        train_impressions, val_impressions = split_by_time(impressions, config.holdout_fraction)
    else:
        train_impressions = impressions

    rng = np.random.default_rng(config.seed)
    examples = build_examples(train_impressions, corpus, config.neg_sample_ratio, rng)
    if not examples:
        raise TrainingError("training set is empty after filtering")

    feats = FeatureSource(params, corpus, embedder, profile_provider)
    state = adam_init(params)
    result = TrainResult(params=params)
    best = -np.inf
    best_params = params.copy()
    bad_evals = 0
    order = np.arange(len(examples))
    cursor = len(examples)  # force an initial shuffle
    started = time.perf_counter()

    step = 0
    while step < config.max_steps:
        step += 1
        if cursor + config.batch_size > len(order):
            rng.shuffle(order)
            cursor = 0
        take = order[cursor:cursor + config.batch_size]
        cursor += config.batch_size
        batch = [examples[i] for i in take]

        drop_rng = np.random.default_rng([config.seed, step])
        loss, grads = backward_batch(params, batch, feats, mode="train",
                                     rng=drop_rng, dropout=config.dropout)
        adam_step(params, grads, state, config.learning_rate)
        result.losses.append(loss)
        wall = (time.perf_counter() - started) * 1000.0

        if step % config.eval_every == 0 and val_impressions:
            report = evaluate_params(params, feats, corpus, val_impressions)
            val_auc = report.auc
            result.log.append(LogRow(step, loss, val_auc, report.mrr, wall))
            if val_auc is not None and val_auc > best:
                best = val_auc
                best_params = params.copy()
                bad_evals = 0
            else:
                bad_evals += 1
                if bad_evals >= config.patience:
                    break
        elif step % config.log_every == 0:
            result.log.append(LogRow(step, loss, wall_ms=wall))

    result.steps_run = step if config.max_steps else 0
    if np.isfinite(best):
        result.best_val_auc = float(best)
        result.params = best_params
    else:
        result.params = params
    return result

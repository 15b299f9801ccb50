"""The scoring network: candidate-conditioned attention over the user's
clicked-article representations, a profile-gated view of the candidate, and
a sigmoid click-probability head.

Ablation switches:
  * ``instant_flow``    - attention over history (off: drop that slice)
  * ``constant_flow``   - profile-derived slice (off: drop it)
  * ``flow_gate``       - elementwise product with the candidate (off: use
                          the projected profile embedding ungated)
  * ``use_instruct_u``  - profile text from the completion client (off: raw
                          concatenated titles)
  * ``use_summaries``   - encode summarized bodies (off: raw bodies)

Parity contract between evaluation (:class:`Scorer`) and serving
(``flowrec.serve.rank``), which must give bit-identical probabilities:
  * both build every article rep with the same single-row arithmetic,
    :func:`flowrec.encode.encode_features`, from the same frozen inputs; a
    rep taken from a batched matrix product can differ in the last bits;
  * both score candidates one at a time through :func:`score_candidates`,
    with vector-level operations only, so a probability does not depend on
    how many candidates ride in one call;
  * the frozen inputs come from :class:`flowrec.encode.FeatureSource`, the
    only memo of frozen features.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import Article, Impression
from .encode import FeatureSource, encode_features, init_encoder_tensors, xavier
from .encode import encode_article  # noqa: F401  (traced here by benchmark/spans.py)
from .errors import ConfigError


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - np.max(scores)
    e = np.exp(shifted)
    return e / e.sum()


@dataclass
class ModelConfig:
    attr_names: list[str] = field(default_factory=lambda: ["category"])
    embed_dim: int = 256
    text_proj_dim: int = 128
    attr_embed_dim: int = 16
    attr_hidden_dim: int = 64
    attr_out_dim: int = 64
    batch_norm: bool = True
    dropout: float = 0.1
    instant_flow: bool = True
    constant_flow: bool = True
    flow_gate: bool = True
    use_instruct_u: bool = True
    use_summaries: bool = True

    @property
    def article_dim(self) -> int:
        return self.attr_out_dim + 2 * self.text_proj_dim

    @property
    def user_dim(self) -> int:
        return self.article_dim * (int(self.instant_flow) + int(self.constant_flow))

    def validate(self) -> None:
        if not (self.instant_flow or self.constant_flow):
            raise ConfigError("at least one of instant_flow / constant_flow must stay enabled")
        for name in ("embed_dim", "text_proj_dim", "attr_embed_dim", "attr_hidden_dim", "attr_out_dim"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**raw)

    def ablated(self, **flags) -> "ModelConfig":
        return replace(self, **flags)


# Running statistics ride along in the tensor dict but are never trained.
NON_TRAINABLE = ("bn_mean", "bn_var")


@dataclass
class ModelParams:
    config: ModelConfig
    vocabs: dict[str, dict[str, int]]
    tensors: dict[str, np.ndarray]
    version_tag: str = ""

    def trainable_names(self) -> list[str]:
        return [n for n in self.tensors if n not in NON_TRAINABLE]

    def n_parameters(self) -> int:
        return int(sum(self.tensors[n].size for n in self.trainable_names()))

    def copy(self) -> "ModelParams":
        return ModelParams(
            config=self.config,
            vocabs=self.vocabs,
            tensors={k: v.copy() for k, v in self.tensors.items()},
            version_tag=self.version_tag,
        )

    def validate_shapes(self) -> None:
        cfg = self.config
        d = cfg.article_dim
        head = self.tensors["head_w"]
        expected = cfg.user_dim + d
        if head.shape != (expected,):
            raise ConfigError(f"head expects shape ({expected},) for these flags, got {head.shape}")
        if cfg.instant_flow and self.tensors["attn_w"].shape != (d, d):
            raise ConfigError(f"attention matrix must be ({d}, {d}), got {self.tensors['attn_w'].shape}")
        if cfg.constant_flow and self.tensors["profile_w"].shape != (d, cfg.embed_dim):
            raise ConfigError("profile projection shape does not match embed/article dims")


def init_model_params(config: ModelConfig, vocabs: dict[str, dict[str, int]], seed: int = 0) -> ModelParams:
    """Fresh trainable parameters.

    The attention matrix starts at identity plus small noise so history
    attention begins near cosine similarity; projections and the head are
    Xavier-uniform; attribute tables are small Gaussians.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    tensors = init_encoder_tensors(
        rng, vocabs, config.attr_names, config.attr_embed_dim, config.attr_hidden_dim,
        config.attr_out_dim, config.embed_dim, config.text_proj_dim, config.batch_norm,
    )
    d = config.article_dim
    if config.instant_flow:
        tensors["attn_w"] = np.eye(d) + 0.01 * rng.standard_normal((d, d))
    if config.constant_flow:
        tensors["profile_w"] = xavier(rng, d, config.embed_dim)
        tensors["profile_b"] = np.zeros(d)
    tensors["head_w"] = xavier(rng, 1, config.user_dim + d)[0]
    tensors["head_b"] = np.zeros(1)
    return ModelParams(config=config, vocabs=vocabs, tensors=tensors)


# ---------------------------------------------------------------------------
# Flow computations
# ---------------------------------------------------------------------------

def attention_weights(params: ModelParams, cand_vec: np.ndarray, hist: np.ndarray) -> np.ndarray:
    """Softmax over bilinear scores candidate . W . history_i (max-subtracted)."""
    if hist.shape[0] == 0:
        raise ValueError("attention_weights needs at least one history row")
    scores = hist @ (params.tensors["attn_w"].T @ cand_vec)
    return softmax(scores)


def instant_rep(params: ModelParams, cand_vec: np.ndarray, hist: np.ndarray) -> np.ndarray:
    """Attention-weighted sum of history representations; zero on cold start."""
    if hist.shape[0] == 0:
        return np.zeros(params.config.article_dim)
    return attention_weights(params, cand_vec, hist) @ hist


def constant_rep(params: ModelParams, profile_emb: np.ndarray, cand_vec: np.ndarray) -> np.ndarray:
    """Project the frozen profile embedding, then gate the candidate with it.

    With ``flow_gate`` off the projected profile embedding is returned
    ungated (no dependence on the candidate).
    """
    q = params.tensors["profile_w"] @ profile_emb + params.tensors["profile_b"]
    return q * cand_vec if params.config.flow_gate else q


@dataclass
class ScoredCandidate:
    article_id: str
    probability: float
    attention: np.ndarray  # weights over the history, empty on cold start


def score_candidates(params: ModelParams, article_ids: list[str], cand_vecs: list[np.ndarray],
                     hist: np.ndarray, profile_emb: np.ndarray) -> list[ScoredCandidate]:
    """Score a candidate list against one user state.

    This is the single scoring code path shared by evaluation and serving;
    only vector operations are used so results do not depend on how many
    candidates ride in one call.
    """
    cfg = params.config
    t = params.tensors
    out: list[ScoredCandidate] = []
    for art_id, cand in zip(article_ids, cand_vecs):
        parts = []
        alpha = np.zeros(0)
        if cfg.instant_flow:
            if hist.shape[0] > 0:
                alpha = attention_weights(params, cand, hist)
                parts.append(alpha @ hist)
            else:
                parts.append(np.zeros(cfg.article_dim))
        if cfg.constant_flow:
            parts.append(constant_rep(params, profile_emb, cand))
        parts.append(cand)
        v = np.concatenate(parts)
        if v.shape[0] != t["head_w"].shape[0]:
            raise ConfigError(
                f"head expects input dim {t['head_w'].shape[0]}, got {v.shape[0]}; "
                "checkpoint flags and parameters disagree"
            )
        z = float(t["head_w"] @ v + t["head_b"][0])
        out.append(ScoredCandidate(art_id, float(sigmoid(z)), alpha))
    return out


class Scorer:
    """Evaluation-path scorer; encodes article reps on first use and keeps them.

    ``embedder`` is a text embedder to build a :class:`FeatureSource` from,
    or an existing table: training passes its own to validation.
    """

    def __init__(self, params: ModelParams, embedder, corpus: dict[str, Article],
                 profile_provider=None):
        params.validate_shapes()
        self.params = params
        self.corpus = corpus
        self.features = (embedder if isinstance(embedder, FeatureSource)
                         else FeatureSource(params, corpus, embedder, profile_provider))
        self._reps: dict[str, np.ndarray] = {}

    def rep(self, article_id: str) -> np.ndarray:
        vec = self._reps.get(article_id)
        if vec is None:
            if article_id not in self.corpus:
                raise KeyError(f"unknown article id {article_id!r}")
            vec = encode_features(self.params, *self.features.article_features(article_id))
            self._reps[article_id] = vec
        return vec

    def score(self, impression: Impression) -> list[ScoredCandidate]:
        if not impression.candidates:
            raise ValueError(f"impression {impression.impression_id!r} has no candidates")
        hist_ids = [a for a in impression.history if a in self.corpus]
        hist = np.array([self.rep(a) for a in hist_ids]).reshape(len(hist_ids), self.params.config.article_dim)
        profile = self.features.profile_embedding(impression.user_id, hist_ids)
        ids = [a for a, _ in impression.candidates]
        return score_candidates(self.params, ids, [self.rep(a) for a in ids], hist, profile)

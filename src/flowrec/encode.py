"""Article encoding: a frozen text embedder plus trainable projections and
attribute embeddings.

The text embedder is never updated by training. Two backends exist: a
deterministic hashed bag-of-words (default, fully offline) and a lookup into
a file of precomputed vectors produced by any external sentence encoder.

The final article representation is the concatenation
``[attr_vec | title_vec | body_vec]`` with width ``attr_out_dim +
2 * text_proj_dim``. :class:`FeatureSource` is the run's frozen-feature table.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .data import Article
from .errors import ConfigError
from .text import terms

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class HashedTextEmbedder:
    """Feature-hashing bag of words: deterministic, frozen, L2-normalized.

    Each lowercased non-stopword token lands in the bucket selected by the
    first four bytes of its SHA-256 digest. Empty or stopword-only text maps
    to the zero vector.
    """

    def __init__(self, dim: int = 256):
        if dim <= 0:
            raise ConfigError("embedder dim must be positive")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim)
        for token in terms(text):
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            vec[int.from_bytes(digest[:4], "big") % self.dim] += 1.0
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec


class PrecomputedTextEmbedder:
    """Looks up frozen vectors recorded for exact text strings."""

    def __init__(self, table: dict[str, np.ndarray], dim: int):
        self.table = table
        self.dim = dim

    @classmethod
    def from_file(cls, path) -> "PrecomputedTextEmbedder":
        table, dim = read_embedding_file(path)
        return cls(table, dim)

    def embed(self, text: str) -> np.ndarray:
        if text not in self.table:
            raise KeyError(f"no precomputed embedding for text {text[:50]!r}")
        return self.table[text]


def write_embedding_file(path, table: dict[str, np.ndarray], dim: int) -> None:
    """Binary layout: u32 count, u32 dim, then per record u32 id-length,
    id bytes (UTF-8), float32[dim]; everything little-endian."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", len(table), dim))
        for key, vec in table.items():
            raw = key.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(np.asarray(vec, dtype="<f4").tobytes())

def read_embedding_file(path) -> tuple[dict[str, np.ndarray], int]:
    with open(path, "rb") as fh:
        count, dim = struct.unpack("<II", fh.read(8))
        table: dict[str, np.ndarray] = {}
        for _ in range(count):
            (id_len,) = struct.unpack("<I", fh.read(4))
            key = fh.read(id_len).decode("utf-8")
            vec = np.frombuffer(fh.read(4 * dim), dtype="<f4").astype(np.float64)
            table[key] = vec
    return table, dim


class CachingEmbedder:
    """Memoizes a frozen embedder; safe because outputs never change."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self._memo: dict[str, np.ndarray] = {}

    def embed(self, text: str) -> np.ndarray:
        hit = self._memo.get(text)
        if hit is None:
            hit = self.inner.embed(text)
            self._memo[text] = hit
        return hit


# ---------------------------------------------------------------------------
# Attribute vocabulary and encoder parameters
# ---------------------------------------------------------------------------

UNK_INDEX = 0


def build_vocabs(articles: list[Article], attr_names: list[str]) -> dict[str, dict[str, int]]:
    """Per-attribute token -> index maps; index 0 is reserved for unknowns."""
    vocabs: dict[str, dict[str, int]] = {}
    for name in attr_names:
        tokens = sorted({a.attributes[name] for a in articles if name in a.attributes})
        vocabs[name] = {tok: i + 1 for i, tok in enumerate(tokens)}
    return vocabs


def attr_index_row(vocabs: dict[str, dict[str, int]], attr_names: list[str],
                   attributes: dict[str, str]) -> np.ndarray:
    return np.array(
        [vocabs[name].get(attributes.get(name, ""), UNK_INDEX) for name in attr_names],
        dtype=np.int64,
    )


def xavier(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    """Xavier-uniform ``(fan_out, fan_in)`` matrix drawn from ``rng``."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def init_encoder_tensors(rng: np.random.Generator, vocabs: dict[str, dict[str, int]],
                         attr_names: list[str], attr_embed_dim: int, attr_hidden_dim: int,
                         attr_out_dim: int, embed_dim: int, text_proj_dim: int,
                         batch_norm: bool) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {}
    for name in attr_names:
        tensors[f"attr_embed/{name}"] = 0.1 * rng.standard_normal((len(vocabs[name]) + 1, attr_embed_dim))
    concat_dim = len(attr_names) * attr_embed_dim
    tensors["attr_w1"] = xavier(rng, attr_hidden_dim, concat_dim)
    tensors["attr_b1"] = np.zeros(attr_hidden_dim)
    tensors["attr_w2"] = xavier(rng, attr_out_dim, attr_hidden_dim)
    tensors["attr_b2"] = np.zeros(attr_out_dim)
    if batch_norm:
        tensors["bn_gamma"] = np.ones(attr_hidden_dim)
        tensors["bn_beta"] = np.zeros(attr_hidden_dim)
        tensors["bn_mean"] = np.zeros(attr_hidden_dim)   # running stat, not trained
        tensors["bn_var"] = np.ones(attr_hidden_dim)     # running stat, not trained
    tensors["title_w"] = xavier(rng, text_proj_dim, embed_dim)
    tensors["title_b"] = np.zeros(text_proj_dim)
    tensors["body_w"] = xavier(rng, text_proj_dim, embed_dim)
    tensors["body_b"] = np.zeros(text_proj_dim)
    return tensors


# ---------------------------------------------------------------------------
# Forward / backward pieces
# ---------------------------------------------------------------------------

def encode_attributes_batch(params, idx: np.ndarray, mode: str = "eval",
                            rng: np.random.Generator | None = None,
                            dropout: float = 0.0) -> tuple[np.ndarray, dict]:
    """Lookup -> concat -> linear -> (batch norm) -> relu -> (dropout) -> linear.

    Returns the attribute vectors (n, attr_out_dim) and a cache consumed by
    :func:`attributes_backward`. Batch norm uses batch statistics in train
    mode (and updates the running averages) and running statistics in eval.
    """
    t = params.tensors
    cfg = params.config
    n = idx.shape[0]
    cols = [t[f"attr_embed/{name}"][idx[:, k]] for k, name in enumerate(cfg.attr_names)]
    x = np.concatenate(cols, axis=1) if cols else np.zeros((n, 0))
    u1 = x @ t["attr_w1"].T + t["attr_b1"]

    cache: dict = {"idx": idx, "x": x, "u1": u1, "mode": mode, "dropout": dropout}
    if cfg.batch_norm:
        if mode == "train":
            mu = u1.mean(axis=0)
            var = u1.var(axis=0)
            t["bn_mean"][...] = (1 - BN_MOMENTUM) * t["bn_mean"] + BN_MOMENTUM * mu
            t["bn_var"][...] = (1 - BN_MOMENTUM) * t["bn_var"] + BN_MOMENTUM * var
        else:
            mu, var = t["bn_mean"], t["bn_var"]
        istd = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (u1 - mu) * istd
        y = t["bn_gamma"] * xhat + t["bn_beta"]
        cache.update(xhat=xhat, istd=istd)
    else:
        y = u1
    act = np.maximum(y, 0.0)
    cache["y"] = y

    if mode == "train" and dropout > 0.0:
        if rng is None:
            raise ConfigError("train-mode dropout requires an rng")
        mask = rng.random(act.shape) >= dropout
        act_d = act * mask / (1.0 - dropout)
        cache["mask"] = mask
    else:
        act_d = act
        cache["mask"] = None
    cache["act_d"] = act_d
    return act_d @ t["attr_w2"].T + t["attr_b2"], cache


def attributes_backward(params, cache: dict, grad_out: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the attribute encoder; untouched vocabulary rows stay zero."""
    t = params.tensors
    cfg = params.config
    grads: dict[str, np.ndarray] = {}
    grads["attr_w2"] = grad_out.T @ cache["act_d"]
    grads["attr_b2"] = grad_out.sum(axis=0)
    g_act_d = grad_out @ t["attr_w2"]
    if cache["mask"] is not None:
        g_act = g_act_d * cache["mask"] / (1.0 - cache["dropout"])
    else:
        g_act = g_act_d
    g_y = g_act * (cache["y"] > 0.0)

    if cfg.batch_norm:
        xhat, istd = cache["xhat"], cache["istd"]
        grads["bn_gamma"] = (g_y * xhat).sum(axis=0)
        grads["bn_beta"] = g_y.sum(axis=0)
        g_xhat = g_y * t["bn_gamma"]
        if cache["mode"] == "train":
            n = g_y.shape[0]
            g_u1 = (istd / n) * (n * g_xhat - g_xhat.sum(axis=0) - xhat * (g_xhat * xhat).sum(axis=0))
        else:
            g_u1 = g_xhat * istd
    else:
        g_u1 = g_y

    grads["attr_w1"] = g_u1.T @ cache["x"]
    grads["attr_b1"] = g_u1.sum(axis=0)
    g_x = g_u1 @ t["attr_w1"]
    d = cfg.attr_embed_dim
    for k, name in enumerate(cfg.attr_names):
        g_table = np.zeros_like(t[f"attr_embed/{name}"])
        np.add.at(g_table, cache["idx"][:, k], g_x[:, k * d:(k + 1) * d])
        grads[f"attr_embed/{name}"] = g_table
    return grads


def project_text(params, vec: np.ndarray, which: str) -> np.ndarray:
    """Trainable affine map from the frozen embedding space (title or body)."""
    t = params.tensors
    w, b = t[f"{which}_w"], t[f"{which}_b"]
    if vec.shape[-1] != w.shape[1]:
        raise ConfigError(f"{which} projection expects dim {w.shape[1]}, got {vec.shape[-1]}")
    return vec @ w.T + b


def encode_features(params, title_emb: np.ndarray, body_emb: np.ndarray,
                    idx: np.ndarray) -> np.ndarray:
    """Eval-mode ``[attr_vec | title_vec | body_vec]`` of one article from its frozen features.

    Evaluation and serving both encode through this single-row arithmetic,
    so the same frozen inputs always give the same bits.
    """
    h_a, _ = encode_attributes_batch(params, idx[None, :])
    return np.concatenate([
        h_a[0], project_text(params, title_emb, "title"), project_text(params, body_emb, "body"),
    ])


def encode_article(params, embedder, article: Article) -> np.ndarray:
    """Eval-mode ``[attr_vec | title_vec | body_vec]`` of one article."""
    cfg = params.config
    return encode_features(
        params, embedder.embed(article.title), embedder.embed(article.body_text(cfg.use_summaries)),
        attr_index_row(params.vocabs, cfg.attr_names, article.attributes),
    )


# ---------------------------------------------------------------------------
# Frozen-feature table
# ---------------------------------------------------------------------------

def _reserve(table: np.ndarray, used: int, rows: int) -> np.ndarray:
    """``table``, or a copy of its first ``used`` rows with room for ``rows``.

    Capacity grows by a quarter: amortized O(1) appends, few spare rows in peak memory.
    """
    if rows <= len(table):
        return table
    grown = np.zeros((max(rows, len(table) + len(table) // 4), *table.shape[1:]), dtype=table.dtype)
    grown[:used] = table[:used]
    return grown


class FeatureSource:
    """The frozen-feature table that training, evaluation and precompute read.

    Article ``row_of[article_id]`` holds the text embeddings ``title[r]`` and
    ``body[r]`` and the attribute indices ``attr_idx[r]``; profile
    ``profile_row_of[(user_id, history)]`` holds ``profiles[r]`` and
    ``profile_texts[r]``. A row is computed when first asked for, the only
    time text reaches the embedder, and is written straight into its array;
    arrays may carry spare rows past the last one in use.
    """

    def __init__(self, params, corpus: dict[str, Article], embedder, profile_provider=None):
        cfg = params.config
        self.config = cfg
        self.vocabs = params.vocabs
        self.corpus = corpus
        self.embedder = embedder
        self.profile_provider = profile_provider
        self.row_of: dict[str, int] = {}
        self.title = np.zeros((0, embedder.dim))
        self.body = np.zeros((0, embedder.dim))
        self.attr_idx = np.zeros((0, len(cfg.attr_names)), dtype=np.int64)
        self.profile_row_of: dict[tuple[str, tuple[str, ...]], int] = {}
        self.profiles = np.zeros((1, embedder.dim))
        self.profile_texts = [""]

    def rows(self, article_ids) -> np.ndarray:
        """Table rows of ``article_ids``, adding rows for articles not seen yet."""
        new = [a for a in dict.fromkeys(article_ids) if a not in self.row_of]
        if new:
            cfg, articles = self.config, [self.corpus[a] for a in new]
            n, end = len(self.row_of), len(self.row_of) + len(new)
            self.title, self.body, self.attr_idx = (
                _reserve(t, n, end) for t in (self.title, self.body, self.attr_idx))
            for r, a in enumerate(articles, n):
                self.title[r] = self.embedder.embed(a.title)
                self.body[r] = self.embedder.embed(a.body_text(cfg.use_summaries))
                self.attr_idx[r] = attr_index_row(self.vocabs, cfg.attr_names, a.attributes)
            self.row_of.update(zip(new, range(n, end)))
        return np.array([self.row_of[a] for a in article_ids], dtype=np.int64)

    def article_features(self, article_id: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(title_emb, body_emb, attr_idx)`` of one article."""
        (r,) = self.rows([article_id])
        return self.title[r], self.body[r], self.attr_idx[r]

    def profile_rows(self, keys) -> np.ndarray:
        """Rows of ``profiles`` for ``(user_id, history)`` keys, adding rows for new keys.

        A new key's text is asked of the profile provider once; its embedding
        is the zero vector when the history or the text is empty. With
        constant flow off or no provider, every key reads the zero row 0.
        """
        if not self.config.constant_flow or self.profile_provider is None:
            return np.zeros(len(keys), dtype=np.int64)
        new = [k for k in dict.fromkeys(keys) if k not in self.profile_row_of]
        if new:
            texts = [self.profile_provider.profile_text(u, list(h)) if h else "" for u, h in new]
            n, end = len(self.profile_texts), len(self.profile_texts) + len(new)
            self.profiles = _reserve(self.profiles, n, end)
            for r, text in enumerate(texts, n):
                self.profiles[r] = self.embedder.embed(text) if text else 0.0
            self.profile_texts += texts
            self.profile_row_of.update(zip(new, range(n, end)))
        return np.array([self.profile_row_of[k] for k in keys], dtype=np.int64)

    def profile_embedding(self, user_id: str, history) -> np.ndarray:
        """Frozen profile embedding of one user with the given history."""
        (row,) = self.profile_rows([(user_id, tuple(history))])
        return self.profiles[row]

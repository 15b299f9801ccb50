"""Article encoding: a frozen text embedder plus trainable projections and
attribute embeddings.

The text embedder is never updated by training. Two backends exist: a
deterministic hashed bag-of-words (default, fully offline) and a lookup into
a file of precomputed vectors produced by any external sentence encoder.

The final article representation is the concatenation
``[attr_vec | title_vec | body_vec]`` with width ``attr_out_dim +
2 * text_proj_dim``: :func:`article_reps` lays it out and
:func:`article_reps_backward` splits its gradient. :func:`encode_features` is
the one eval-mode encode, of any number of rows of :class:`FeatureSource`, the
run's frozen-feature table, each row its own product.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .data import Article
from .errors import ConfigError, UnknownIdError, byte_reader, replacing
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
            raise UnknownIdError(f"no precomputed embedding for text {text[:50]!r}")
        return self.table[text]


def write_embedding_file(path, table: dict[str, np.ndarray], dim: int) -> None:
    """Binary layout: u32 count, u32 dim, then per record u32 id-length,
    id bytes (UTF-8), float32[dim]; everything little-endian."""
    with replacing(path) as fh:
        fh.write(struct.pack("<II", len(table), dim))
        for key, vec in table.items():
            raw = key.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(np.asarray(vec, dtype="<f4").tobytes())


def read_embedding_file(path) -> tuple[dict[str, np.ndarray], int]:
    """Table and dim of an embedding file; a file that is cut short or
    garbled raises :class:`ConfigError` naming what could not be read."""
    with open(path, "rb") as fh:
        take = byte_reader(fh, path)
        count, dim = struct.unpack("<II", take(8, "the record count and dim"))
        table: dict[str, np.ndarray] = {}
        for i in range(count):
            (id_len,) = struct.unpack("<I", take(4, f"record {i}'s id length"))
            try:
                key = take(id_len, f"record {i}'s id").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: unreadable id of record {i} ({exc})") from None
            table[key] = np.frombuffer(take(4 * dim, f"record {i}'s vector"), dtype="<f4").astype(np.float64)
        if fh.read(1):
            raise ConfigError(f"{path}: bytes follow the last of its {count} records")
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


# ---------------------------------------------------------------------------
# Forward / backward pieces
# ---------------------------------------------------------------------------

def encode_attributes_batch(params, idx: np.ndarray, mode: str = "eval",
                            rng: np.random.Generator | None = None,
                            dropout: float = 0.0) -> tuple[np.ndarray, dict]:
    """Lookup -> concat -> linear -> (batch norm) -> relu -> (dropout) -> linear.

    Returns the attribute vectors ``[..., attr_out_dim]`` of the indices ``idx[..., k]`` and a
    cache consumed by :func:`attributes_backward`. Batch norm uses batch statistics in train
    mode (and updates the running averages) and running statistics in eval.
    """
    cfg, t = params.config, params.tensors
    cols = [t[f"attr_embed/{name}"][idx[..., k]] for k, name in enumerate(cfg.attr_names)]
    x = np.concatenate(cols, axis=-1) if cols else np.zeros((*idx.shape[:-1], 0))
    u1 = x @ t["attr_w1"].T + t["attr_b1"]

    cache: dict = {"idx": idx, "x": x, "mode": mode, "dropout": dropout, "mask": None}
    if cfg.batch_norm:
        if mode == "train":
            mu, var = u1.mean(axis=0), u1.var(axis=0)
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
        cache["mask"] = rng.random(act.shape) >= dropout
        act = act * cache["mask"] / (1.0 - dropout)
    cache["act_d"] = act
    return act @ t["attr_w2"].T + t["attr_b2"], cache


def attributes_backward(params, cache: dict, grad_out: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the attribute encoder; untouched vocabulary rows stay zero."""
    cfg, t = params.config, params.tensors
    grads = {"attr_w2": grad_out.T @ cache["act_d"], "attr_b2": grad_out.sum(axis=0)}
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


def article_reps(params, h_attr: np.ndarray, title: np.ndarray, body: np.ndarray,
                 rows) -> np.ndarray:
    """``[attr_vec | title_vec | body_vec]`` of the articles ``rows``: their
    attribute vectors ``h_attr`` beside the trainable affine maps of their
    frozen embeddings ``title[rows]`` and ``body[rows]``."""
    t = params.tensors
    return np.concatenate([
        h_attr, title[rows] @ t["title_w"].T + t["title_b"], body[rows] @ t["body_w"].T + t["body_b"],
    ], axis=-1)


def article_reps_backward(params, g_reps: np.ndarray, title: np.ndarray, body: np.ndarray,
                          rows) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backward of :func:`article_reps` for the gradient ``g_reps`` of its output.

    Returns the gradient of ``h_attr`` and those of the text projections. The
    frozen rows are gathered again here, one table at a time, rather than
    kept from the forward.
    """
    a, p = params.config.attr_out_dim, params.config.text_proj_dim
    g_title, g_body = g_reps[:, a:a + p], g_reps[:, a + p:]
    return g_reps[:, :a], {"title_w": g_title.T @ title[rows], "title_b": g_title.sum(axis=0),
                           "body_w": g_body.T @ body[rows], "body_b": g_body.sum(axis=0)}


def encode_features(params, title: np.ndarray, body: np.ndarray, attr_idx: np.ndarray) -> np.ndarray:
    """Eval-mode ``[attr_vec | title_vec | body_vec]`` of the ``n`` articles with frozen
    features ``title[n, e]``, ``body[n, e]`` and ``attr_idx[n, k]``, each row its own product
    of an ``[n, 1, ·]`` stack: a plain ``[n, e]`` GEMM gives a row bits that depend on the
    rows beside it, and a table's rows must keep the bits of a one-row :func:`encode_article`.
    """
    h_a, _ = encode_attributes_batch(params, attr_idx[:, None, :])
    return article_reps(params, h_a, title[:, None, :], body[:, None, :], slice(None))[:, 0]


def encode_article(params, embedder, article: Article) -> np.ndarray:
    """Eval-mode ``[attr_vec | title_vec | body_vec]`` of one article, from a one-row :class:`FeatureSource`."""
    feats = FeatureSource(params, {article.article_id: article}, embedder)
    return encode_features(params, feats.title, feats.body, feats.attr_idx)[0]


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

    Row ``r`` is the corpus's ``r``-th article, ``row_of[article_id]``: its
    text embeddings ``title[r]`` and ``body[r]`` and its attribute indices
    ``attr_idx[r]``, all filled on construction, the only time article text
    reaches the embedder; a text shared by several rows is embedded once,
    and an empty text (a body with no abstract) is the zero row, unembedded.
    Profile ``profile_row_of[(user_id, history)]`` holds ``profiles[r]`` and
    ``profile_texts[r]``, computed when first asked for; the profile rows
    are the run's only profile memo: the profile provider keeps none, so
    each ``(user_id, history)`` reaches it once, here. ``profiles`` may
    carry spare rows past the last one in use. The embedder's width is
    checked here, where frozen text features enter the model.
    """

    def __init__(self, params, corpus: dict[str, Article], embedder, profile_provider=None):
        cfg = params.config
        if embedder.dim != cfg.embed_dim:
            raise ConfigError(f"text embedder dim {embedder.dim} is not the model's embed_dim {cfg.embed_dim}")
        self.config = cfg
        self.embedder = embedder
        self.profile_provider = profile_provider
        self.row_of = {a: r for r, a in enumerate(corpus)}
        self.title = np.zeros((len(corpus), embedder.dim))
        self.body = np.zeros((len(corpus), embedder.dim))
        self.attr_idx = np.zeros((len(corpus), len(cfg.attr_names)), dtype=np.int64)
        slots: dict[str, list[tuple[np.ndarray, int]]] = {}
        for r, a in enumerate(corpus.values()):
            slots.setdefault(a.title, []).append((self.title, r))
            slots.setdefault(a.body_text(cfg.use_summaries), []).append((self.body, r))
            self.attr_idx[r] = attr_index_row(params.vocabs, cfg.attr_names, a.attributes)
        self._embed(slots)
        self.profile_row_of: dict[tuple[str, tuple[str, ...]], int] = {}
        self.profiles = np.zeros((1, embedder.dim))
        self.profile_texts = [""]

    def _embed(self, slots: dict[str, list[tuple[np.ndarray, int]]]) -> None:
        """Write each text's embedding to its ``(table, row)`` slots, the one way text
        reaches the embedder: each distinct text once, and an empty text never, as the zero row."""
        for text, where in slots.items():
            vec = self.embedder.embed(text) if text else 0.0
            for table, r in where:
                table[r] = vec

    def rows(self, article_ids) -> np.ndarray:
        """Table rows of ``article_ids``; an id not in the corpus raises :class:`UnknownIdError`."""
        try:
            return np.array([self.row_of[a] for a in article_ids], dtype=np.int64)
        except KeyError as exc:
            raise UnknownIdError(f"unknown article id {exc.args[0]!r}") from None

    def article_features(self, article_id: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(title_emb, body_emb, attr_idx)`` of one article."""
        (r,) = self.rows([article_id])
        return self.title[r], self.body[r], self.attr_idx[r]

    def profile_rows(self, keys) -> np.ndarray:
        """Rows of ``profiles`` for ``(user_id, history)`` keys, adding rows for new keys.

        A new key's text is asked of the profile provider once, its completion
        profile with ``use_instruct_u`` on and its visited-article text with it
        off; its embedding is the zero vector when the history or the text is
        empty. With constant flow off or no provider, every key reads the zero row 0.
        """
        if not self.config.constant_flow or self.profile_provider is None:
            return np.zeros(len(keys), dtype=np.int64)
        new = [k for k in dict.fromkeys(keys) if k not in self.profile_row_of]
        if new:
            provider = self.profile_provider
            text_of = provider.profile_text if self.config.use_instruct_u else provider.visited_text
            texts = [text_of(u, list(h)) if h else "" for u, h in new]
            n, end = len(self.profile_texts), len(self.profile_texts) + len(new)
            self.profiles = _reserve(self.profiles, n, end)
            slots: dict[str, list[tuple[np.ndarray, int]]] = {}
            for r, text in enumerate(texts, n):
                slots.setdefault(text, []).append((self.profiles, r))
            self._embed(slots)
            self.profile_texts += texts
            self.profile_row_of.update(zip(new, range(n, end)))
        return np.array([self.profile_row_of[k] for k in keys], dtype=np.int64)

    def profile_embedding(self, user_id: str, history) -> np.ndarray:
        """Frozen profile embedding of one user with the given history."""
        (row,) = self.profile_rows([(user_id, tuple(history))])
        return self.profiles[row]

"""The scoring network: candidate-conditioned attention over the user's
clicked-article representations, a profile-gated view of the candidate, and
a sigmoid click-probability head.

Ablation switches:
  * ``instant_flow``    - attention over history (off: drop that slice)
  * ``constant_flow``   - profile-derived slice (off: drop it)
  * ``flow_gate``       - elementwise product with the candidate (off: use
                          the projected profile embedding ungated)
  * ``use_instruct_u``  - profile text from the completion client (off: the
                          newline-joined visited titles, no client needed)
  * ``use_summaries``   - encode summarized bodies (off: raw bodies)

Eval (:class:`Scorer`) and serve (``flowrec.serve.rank``) share one batched
:func:`score_candidates`, a :func:`flow_forward` call with one user state and
no padding, scored against keys ``W·h``. Training makes one :func:`flow_forward`
/ :func:`flow_backward` call per batch, every user state padded into it and
scored from ``c·W``, formed once per candidate slot for both passes; a padded
history slot gets exactly zero attention, so a state's logits match
:func:`score_candidates` on that state alone up to rounding. Both take the
same inputs: candidate reps, history reps with each state's row indices, and
frozen profile embeddings. The forward applies the attention matrix, head
reads and profile queries itself; the backward returns the gradients of the
candidate and history reps and a dict of the flow's tensor gradients, as
``flowrec.encode.attributes_backward`` returns the attribute encoder's.
Parity contract, which gives serving bit-identical probabilities
to evaluation:
  * serving's reps are :attr:`Scorer.reps`, one ``flowrec.encode.encode_features``
    call over the frozen-feature table, saved as they are by
    ``flowrec.serve.precompute``: one row per corpus article, in the table's rows;
  * both pass :func:`score_candidates` the same history rows and the same
    candidate rows in the same order, so every product sees the same
    matrices; bit parity holds for those, not for reordered, regrouped or
    padded rows;
  * each candidate's attention scores, softmax and head read are per-row
    reductions, so a candidate duplicated anywhere in a call gets the same
    bits at every position.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import Article, Impression, in_corpus
from .encode import FeatureSource, encode_features
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
        if not all(type(a) is str for a in self.attr_names):
            raise ConfigError("model config keys ['attr_names'] are not of the types ModelConfig gives them")
        if len(set(self.attr_names)) != len(self.attr_names):
            raise ConfigError(f"attr_names repeats a name: {self.attr_names}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        raw = {k: v for k, v in raw.items() if k != "dropout"}  # unread; older checkpoints carry it
        defaults = cls().to_dict()
        unknown = set(raw) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        mistyped = sorted(k for k, v in raw.items() if type(v) is not type(defaults[k]))
        if mistyped:
            raise ConfigError(f"model config keys {mistyped} are not of the types ModelConfig gives them")
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

    def validate_shapes(self) -> None:
        """Check the config, the vocabs, then every tensor's name and shape
        against :func:`model_layout`; run once, on checkpoint load."""
        self.config.validate()
        for name in dict.fromkeys([*self.config.attr_names, *self.vocabs]):
            vocab = self.vocabs.get(name)
            if not (isinstance(vocab, dict) and all(type(i) is int for i in vocab.values())
                    and set(vocab.values()) == set(range(1, len(vocab) + 1))):
                raise ConfigError(f"vocab {name!r} is missing or does not number its tokens 1..n")
        want = {n: shape for n, (_, shape) in model_layout(self.config, self.vocabs).items()}
        have = {n: t.shape for n, t in self.tensors.items()}
        wrong = [n for n in {**want, **have} if want.get(n) != have.get(n)]
        if wrong:
            raise ConfigError("tensors not as this config and these vocabs lay them out: " + "; ".join(
                f"{n!r} is {have.get(n, 'missing')}, expected {want.get(n, 'no such tensor')}"
                for n in wrong))


def model_layout(config: ModelConfig, vocabs: dict[str, dict[str, int]]) -> dict[str, tuple[str, tuple]]:
    """Every tensor of a model: its initializer and shape, in the order they are drawn.

    The one statement of the layout: :func:`init_model_params` draws from it
    and :meth:`ModelParams.validate_shapes` checks loaded tensors against it.
    """
    h, p, e, d = config.attr_hidden_dim, config.text_proj_dim, config.embed_dim, config.article_dim
    layout = {f"attr_embed/{n}": ("normal", (len(vocabs[n]) + 1, config.attr_embed_dim))
              for n in config.attr_names}
    layout["attr_w1"] = ("xavier", (h, len(config.attr_names) * config.attr_embed_dim))
    layout["attr_b1"] = ("zeros", (h,))
    layout["attr_w2"] = ("xavier", (config.attr_out_dim, h))
    layout["attr_b2"] = ("zeros", (config.attr_out_dim,))
    if config.batch_norm:  # bn_mean and bn_var are running statistics, never trained
        layout.update(bn_gamma=("ones", (h,)), bn_beta=("zeros", (h,)),
                      bn_mean=("zeros", (h,)), bn_var=("ones", (h,)))
    for which in ("title", "body"):
        layout[f"{which}_w"], layout[f"{which}_b"] = ("xavier", (p, e)), ("zeros", (p,))
    if config.instant_flow:
        layout["attn_w"] = ("near_identity", (d, d))
    if config.constant_flow:
        layout["profile_w"], layout["profile_b"] = ("xavier", (d, e)), ("zeros", (d,))
    layout["head_w"], layout["head_b"] = ("xavier", (config.user_dim + d,)), ("zeros", (1,))
    return layout


def xavier(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Xavier-uniform ``(fan_out, fan_in)`` matrix, or ``(fan_in,)`` row, drawn from ``rng``."""
    fan_out, fan_in = shape if len(shape) == 2 else (1, *shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_model_params(config: ModelConfig, vocabs: dict[str, dict[str, int]], seed: int = 0) -> ModelParams:
    """Fresh parameters laid out by :func:`model_layout`.

    The attention matrix starts at identity plus small noise so history
    attention begins near cosine similarity; projections and the head are
    Xavier-uniform; attribute tables are small Gaussians.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    draw = {"normal": lambda s: 0.1 * rng.standard_normal(s), "xavier": lambda s: xavier(rng, s),
            "near_identity": lambda s: np.eye(s[0]) + 0.01 * rng.standard_normal(s),
            "zeros": np.zeros, "ones": np.ones}
    return ModelParams(config=config, vocabs=vocabs, tensors={
        n: draw[kind](shape) for n, (kind, shape) in model_layout(config, vocabs).items()})


# ---------------------------------------------------------------------------
# Flow computations
# ---------------------------------------------------------------------------

# The single-vector forms below define the flows for one candidate; the
# batched flow_forward must agree with them (tests hold it to that).

def attention_weights(params: ModelParams, cand_vec: np.ndarray, hist: np.ndarray) -> np.ndarray:
    """Softmax over bilinear scores candidate . W . history_i (max-subtracted)."""
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


def flow_forward(params: ModelParams, cands: np.ndarray, hist: np.ndarray, hist_idx: np.ndarray,
                 profile_embs: np.ndarray, mask: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """Logits ``z[S, M]`` of ``S`` user states with up to ``M`` candidates each.

    State ``s`` scores the candidate reps ``cands[s, :, :]`` against its
    history, the rows ``hist_idx[s]`` of the reps ``hist[n_rows, d]``, and
    its frozen profile embedding ``profile_embs[s]``. ``mask[S, L]`` marks
    the history slots in use when histories are padded to one length ``L``;
    a padded slot gets exactly zero attention, and a state without history
    attends to nothing. Candidate ``i`` attends over its history rows ``H``
    with ``alpha_i = softmax(c_i·W·Hᵀ)``, and its instant flow reaches the
    head as ``alpha_i·(H·w_instant)``. One unpadded state (``S = 1``, no
    mask), as scoring calls it, is scored in key space: each history row's
    key ``W·h``, and one product per candidate row. Any other call is scored
    in candidate space, in the layout :func:`slot_groups` picks: each slot's
    ``c·W`` once, against gathered history rows or as ``(C·W)·histᵀ`` read at
    each slot's cells, kept for :func:`flow_backward`; no key is formed.
    The profile enters as the query ``q = P·e + b``. Each candidate's scores,
    softmax and head reads are reductions over its own row, and the head is
    read one slice per flow: ``[instant | constant | candidate]``, without
    the slices of disabled flows. Returns the logits and the cache
    :func:`flow_backward` reads; ``cache["alpha"][s, i]`` holds candidate
    ``(s, i)``'s attention weights, empty without history or instant flow.
    """
    cfg, t = params.config, params.tensors
    d = cfg.article_dim
    w = t["head_w"]
    n_states, n_cands = cands.shape[:2]
    w_cand = w[None, -d:]  # one row per state once the gate folds a profile in
    z = np.full((n_states, n_cands), t["head_b"][0])
    cache: dict = {"alpha": np.zeros((n_states, n_cands, 0)), "z_instant": None}
    if cfg.instant_flow and hist_idx.shape[1]:
        if mask is None and n_states == 1:  # key space
            hist_proj = np.empty((len(hist), d + 1))  # [keys | head read] of every history row
            np.matmul(hist, t["attn_w"].T, out=hist_proj[:, :-1])
            np.matmul(hist, w[:d], out=hist_proj[:, -1])
            keys = hist_proj[hist_idx]  # [1, L, d + 1], freed on return
            # One product per candidate row, so a row's bits do not depend on its position.
            scores = np.matmul(cands[:, :, None, :], keys[:, None, :, :-1].swapaxes(-1, -2))[:, :, 0]
            head_reads = keys[:, :, -1]
        else:  # candidate space, in the layout slot_groups picks for both passes
            cw = cache["cw"] = (cands.reshape(-1, d) @ t["attn_w"]).reshape(cands.shape)
            head_reads = cache["head_reads"] = (hist @ w[:d])[hist_idx]
            group = cache["group"] = slot_groups(len(hist), n_states, n_states * n_cands, hist_idx.shape[1], d)
            if group:
                scores = np.empty((n_states, n_cands, hist_idx.shape[1]))
                for lo in range(0, n_states, group):
                    part = slice(lo, lo + group)
                    np.matmul(cw[part], hist[hist_idx[part]].swapaxes(1, 2), out=scores[part])
            else:  # (C·W)·histᵀ, read at each slot's cells
                cells = cache["cells"] = (np.arange(n_states * n_cands).reshape(n_states, n_cands, 1) * len(hist)
                                          + hist_idx[:, None, :])
                scores = (cw.reshape(-1, d) @ hist.T).reshape(-1)[cells]
        valid = True if mask is None else mask[:, None, :]
        top = np.max(scores, axis=-1, keepdims=True, where=valid, initial=-np.inf)
        alpha = np.exp(scores - top, where=valid, out=np.zeros_like(scores))
        np.divide(alpha, alpha.sum(axis=-1, keepdims=True), out=alpha, where=valid)
        cache["alpha"] = alpha
        cache["z_instant"] = np.einsum("sml,sl->sm", alpha, head_reads)
        z += cache["z_instant"]
    if cfg.constant_flow:
        queries = cache["queries"] = profile_embs @ t["profile_w"].T + t["profile_b"]
        w_cons = w[-2 * d:-d]
        if cfg.flow_gate:
            w_cand = w_cand + queries * w_cons  # (q * c)·w_cons folded into the candidate's read
        else:
            z += (queries @ w_cons)[:, None]
    cache["w_cand"] = w_cand
    z += np.einsum("smd,sd->sm", cands, w_cand)
    return z, cache


def flow_backward(params: ModelParams, cands: np.ndarray, hist: np.ndarray, hist_idx: np.ndarray,
                  profile_embs: np.ndarray, cache: dict,
                  g_z: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Backward of :func:`flow_forward`, given its inputs and cache, for the
    loss gradient ``g_z[S, M]`` of its logits.

    A padded candidate slot must carry a zero ``g_z``. Returns the gradients
    of ``cands`` and ``hist`` and those of the flow's tensors: the head, the
    attention matrix with instant flow on, and the profile projection with
    constant flow on. An article twice in one history, or in many states'
    histories, sums its gradients into its row.

    The attention backward works in candidate space: with
    ``U[s, i] = sum_l g_scores[s, i, l] h_{hist_idx[s, l]}`` the score
    ``c·W·h`` passes ``Cᵀ·U`` to ``W`` and ``U·Wᵀ`` to the candidates, and
    each history slot takes ``g_scores[s]ᵀ·(C·W)[s]``: ``2·n·d²`` multiply-adds
    over the ``n`` candidate slots with a nonzero ``g_z``, and no key gradient.
    ``C·W``, the layout and the row layout's cells come from the forward's
    cache, so that forward must have run in candidate space: not one unpadded state.
    """
    cfg, t = params.config, params.tensors
    n_states, n_cands, d = cands.shape
    w, g_w = t["head_w"], np.zeros_like(t["head_w"])
    g_sums = np.einsum("sm,smd->sd", g_z, cands)  # per state: sum_i g_z[s, i] c[s, i]
    g_totals = g_z.sum(axis=1)
    g_w[-d:] = g_sums.sum(axis=0)
    grads = {"head_w": g_w, "head_b": np.array([g_totals.sum()])}
    g_cands = g_z[:, :, None] * cache["w_cand"][:, None, :]
    if cache["z_instant"] is None:
        g_hist = np.zeros_like(hist)
        if cfg.instant_flow:  # no state has history: the attention passes no gradient
            grads["attn_w"] = np.zeros_like(t["attn_w"])
    else:
        alpha, attn_w, cw, hist_len = cache["alpha"], t["attn_w"], cache["cw"], hist_idx.shape[1]
        g_scores = alpha * (g_z[:, :, None] * (cache["head_reads"][:, None, :] - cache["z_instant"][:, :, None]))
        g_heads = np.bincount(hist_idx.ravel(), np.einsum("sm,sml->sl", g_z, alpha).ravel(),
                              minlength=len(hist))
        g_w[:d] = g_heads @ hist
        live = np.flatnonzero(g_z)  # the candidate slots that pass a gradient, padding left out
        if group := cache["group"]:
            g_hist, u = np.outer(g_heads, w[:d]), np.empty_like(cands)
            for lo in range(0, n_states, group):
                part = slice(lo, lo + group)
                slots = hist[hist_idx[part]]
                np.matmul(g_scores[part], slots, out=u[part])
                np.matmul(g_scores[part].swapaxes(1, 2), cw[part], out=slots)  # each slot's gradient
                scatter_add(g_hist, hist_idx[part].ravel(), slots.reshape(-1, d))
            u = u.reshape(-1, d)[live]
        else:  # G[j, r] sums live slot j's score gradients against row r, at the forward's cells
            cells = cache["cells"].reshape(-1, hist_len)[live] - ((live - np.arange(len(live))) * len(hist))[:, None]
            G = np.bincount(cells.ravel(), g_scores.reshape(-1, hist_len)[live].ravel(),
                            minlength=(len(live) + 1) * len(hist)).reshape(len(live) + 1, len(hist))
            G[-1] = g_heads  # the head reads' term rides along as one more slot, reading w_instant
            u = G[:-1] @ hist
            g_hist = G.T @ np.concatenate([cw.reshape(-1, d)[live], w[None, :d]])
        grads["attn_w"] = cands.reshape(-1, d)[live].T @ u
        g_cands.reshape(-1, d)[live] += u @ attn_w.T
    if cfg.constant_flow:
        queries, w_cons = cache["queries"], w[-2 * d:-d]
        if cfg.flow_gate:
            g_w[-2 * d:-d] = np.einsum("sd,sd->d", queries, g_sums)
            g_queries = w_cons * g_sums
        else:
            g_w[-2 * d:-d] = g_totals @ queries
            g_queries = g_totals[:, None] * w_cons
        grads["profile_w"] = g_queries.T @ profile_embs
        grads["profile_b"] = g_queries.sum(axis=0)
    return g_cands, g_hist, grads


def slot_groups(n_rows: int, n_states: int, n_slots: int, hist_len: int, d: int) -> int:
    """The layout of both passes' per-slot work in candidate space, from the
    batch shape alone (``n_slots`` counts padded candidate slots too): 0 for
    row space, else the number of states per group in slot space.

    * row space: the scores are ``(C·W)·histᵀ`` read at each slot's cells, and
      ``G[j, r]`` sums slot ``j``'s score gradients against history row ``r``
      at the same cells; ``U`` is ``G·hist`` and the rows' gradient ``Gᵀ·(C·W)``.
    * slot space: a group of states gathers its slots' reps ``[g, L, d]``,
      takes the scores and ``U`` from them by batched products, writes each
      slot's gradient in their place and sums those into rows through flat
      cell indices. A group holds at most ``n_rows // (2·L)`` states, so the
      gathered block and its cell indices together fit in the size of the
      row gradient.

    The layout with the lower modelled time is taken. The two models were
    fitted to backward timings over 371 shapes (d 32-320, L 5-50, M 1-8,
    S 16-256; numpy 2.4, one OpenBLAS 0.3.31 thread, 2-vCPU x86-64 VM). Timed
    over both passes, on 400 shapes in the same ranges with ragged candidate
    slots and histories, they pick the faster layout for 391 (96 of 100
    held-out); a wrong pick costs at most 0.5 ms, and 1.3 ms (23%) once.
    """
    group = max(1, n_rows // (2 * hist_len))
    row_ns = 9_000 + n_rows * n_slots * (0.091 * d + 1.0)
    slot_ns = 11_000 * -(-n_states // group) + n_states * (4.5 * hist_len * d + 180)
    return group if slot_ns < row_ns else 0


def scatter_add(out: np.ndarray, rows: np.ndarray, vals: np.ndarray) -> None:
    """``out[rows] += vals``, summing rows that repeat (a history may hold an article twice).

    ``np.add.at`` runs over the flat view, where it takes its one-dimensional fast path.
    """
    width = out.shape[1]
    np.add.at(out.reshape(-1), (rows[:, None] * width + np.arange(width)).ravel(), vals.ravel())


@dataclass
class ScoredCandidate:
    article_id: str
    probability: float
    attention: np.ndarray  # weights over the history, empty on cold start


@dataclass(frozen=True, eq=False)
class CandidateScores(Sequence):
    """The scores of one :func:`score_candidates` call, as arrays: ``probabilities[m]``
    and ``attention[m, L]``. A read-only sequence whose item ``i`` is a
    :class:`ScoredCandidate`, built only when asked for; a slice is a ``CandidateScores``."""

    article_ids: list[str]
    probabilities: np.ndarray
    attention: np.ndarray

    def __len__(self) -> int:
        return len(self.article_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CandidateScores(self.article_ids[i], self.probabilities[i], self.attention[i])
        return ScoredCandidate(self.article_ids[i], float(self.probabilities[i]), self.attention[i])


def score_candidates(params: ModelParams, article_ids: list[str], cand_vecs,
                     hist: np.ndarray, profile_emb: np.ndarray) -> CandidateScores:
    """Score candidate reps (a list of vectors or an ``[m, d]`` matrix) against one user state.

    The one scoring call of evaluation and serving: a single :func:`flow_forward`,
    whose fresh arrays hold no view of ``cand_vecs``.
    """
    cands = np.asarray(cand_vecs, dtype=np.float64).reshape(1, len(article_ids), params.config.article_dim)
    z, cache = flow_forward(params, cands, hist, np.arange(len(hist))[None, :], profile_emb[None, :])
    return CandidateScores(article_ids, sigmoid(z[0]), cache["alpha"][0])


class Scorer:
    """Evaluation-path scorer over one rep per corpus article, encoded on construction.

    ``embedder`` is a text embedder to build a :class:`FeatureSource` from,
    or an existing table: training passes its own to validation. ``reps[r]``
    is the eval-mode rep of the table's row ``r``, all from one
    :func:`encode_features` call over the table.
    """

    def __init__(self, params: ModelParams, embedder, corpus: dict[str, Article],
                 profile_provider=None):
        self.params = params
        self.features = feats = (embedder if isinstance(embedder, FeatureSource)
                                 else FeatureSource(params, corpus, embedder, profile_provider))
        self.reps = encode_features(params, feats.title, feats.body, feats.attr_idx)

    def rep(self, article_id: str) -> np.ndarray:
        (row,) = self.features.rows([article_id])
        return self.reps[row]

    def score(self, impression: Impression) -> CandidateScores | list:
        """Scores of the impression's candidates against its history, each id outside the
        corpus dropped (:func:`~flowrec.data.in_corpus`): no known candidate, an empty list."""
        if not impression.candidates:
            raise ValueError(f"impression {impression.impression_id!r} has no candidates")
        feats = self.features
        hist_ids = in_corpus(feats.row_of, impression.history)
        ids = in_corpus(feats.row_of, [a for a, _ in impression.candidates])
        if not ids:
            return []
        profile = feats.profile_embedding(impression.user_id, hist_ids)
        return score_candidates(self.params, ids, self.reps[feats.rows(ids)],
                                self.reps[feats.rows(hist_ids)], profile)

"""Offline precompute plus an online rerank service.

``precompute`` walks the corpus and user list once with a checkpoint and a
:class:`~flowrec.encode.FeatureSource` table, and snapshots one rep row per
article and one profile row per user into a :class:`RepStore`. Reps are
encoded one at a time and ``rank`` scores through the same code as offline
evaluation, so serving probabilities are bit-identical to evaluation ones.

The HTTP layer is a small JSON-over-HTTP server: ``POST /rank`` and
``GET /health``. Store and parameters are immutable after load; request
handling is stateless and thread-safe.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .checkpoint import ensure_version_tag, read_tensor_file, write_tensor_file
from .data import Article
from .encode import FeatureSource, encode_features
from .encode import encode_article  # noqa: F401  (traced here by benchmark/spans.py)
from .errors import ConfigError
from .model import ModelParams, score_candidates


@dataclass
class UserRecord:
    user_id: str
    history: list[str]
    attrs: dict[str, str] = field(default_factory=dict)


@dataclass
class UserEntry:
    history: list[str]
    profile_text: str
    profile_emb: np.ndarray


@dataclass
class RepStore:
    """Reps row-aligned with ``article_ids``; user entries row-aligned with ``profile_embs``."""

    version_tag: str
    article_dim: int
    embed_dim: int
    article_ids: list[str]
    reps: np.ndarray
    users: dict[str, UserEntry]
    profile_embs: np.ndarray
    partial: bool = False
    errors: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.row_of = {a: i for i, a in enumerate(self.article_ids)}


def users_from_impressions(impressions) -> list[UserRecord]:
    """One record per user, carrying the history of their latest impression."""
    latest: dict[str, tuple[int, list[str]]] = {}
    for imp in impressions:
        seen = latest.get(imp.user_id)
        if seen is None or imp.timestamp >= seen[0]:
            latest[imp.user_id] = (imp.timestamp, imp.history)
    return [UserRecord(uid, history) for uid, (_, history) in sorted(latest.items())]


def precompute(params: ModelParams, embedder, corpus: dict[str, Article],
               users: list[UserRecord], profile_provider=None,
               allow_partial: bool = False) -> RepStore:
    """Offline inference pass: encode every article and user in scope.

    Articles missing a required summary become per-item errors; with
    ``allow_partial`` the store is still produced (flagged) without them,
    otherwise the error list is raised as one failure.
    """
    params.validate_shapes()
    cfg = params.config
    feats = FeatureSource(params, corpus, embedder, profile_provider)
    missing = {a for a, art in corpus.items() if cfg.use_summaries and art.body and art.summary is None}
    errors = [f"article {a}: summary required but missing" for a in corpus if a in missing]
    article_ids = [a for a in corpus if a not in missing]
    if errors and not allow_partial:
        raise ConfigError(
            f"precompute failed for {len(errors)} items "
            f"(first: {errors[0]}); pass allow_partial to keep going"
        )
    reps = np.array([encode_features(params, *feats.article_features(a)) for a in article_ids])

    histories = {u.user_id: [a for a in u.history if a in corpus and a not in missing] for u in users}
    prof_rows = feats.profile_rows([(uid, tuple(h)) for uid, h in histories.items()])
    profile_embs = feats.profiles[prof_rows]
    return RepStore(
        version_tag=ensure_version_tag(params),
        article_dim=cfg.article_dim,
        embed_dim=cfg.embed_dim,
        article_ids=article_ids,
        reps=reps.reshape(len(article_ids), cfg.article_dim),
        users={
            uid: UserEntry(h, feats.profile_texts[r], profile_embs[i])
            for i, ((uid, h), r) in enumerate(zip(histories.items(), prof_rows))
        },
        profile_embs=profile_embs,
        partial=bool(errors),
        errors=errors,
    )


def save_store(path, store: RepStore) -> None:
    header = {
        "kind": "repstore",
        "format_version": 1,
        "version_tag": store.version_tag,
        "article_dim": store.article_dim,
        "embed_dim": store.embed_dim,
        "article_ids": store.article_ids,
        "users": {
            uid: {"history": e.history, "profile_text": e.profile_text}
            for uid, e in store.users.items()
        },
        "partial": store.partial,
        "errors": store.errors,
    }
    tensors = {}
    if store.article_ids:
        tensors["article_reps"] = store.reps
    if store.users:
        tensors["profile_embs"] = store.profile_embs
    write_tensor_file(path, header, tensors)


def load_store(path) -> RepStore:
    header, tensors = read_tensor_file(path)
    if header.get("kind") != "repstore":
        raise ConfigError(f"{path} is not a rep store")
    article_dim, embed_dim = int(header["article_dim"]), int(header["embed_dim"])
    ids, user_meta = header["article_ids"], header["users"]
    embs = tensors["profile_embs"] if user_meta else np.zeros((0, embed_dim))
    return RepStore(
        version_tag=header["version_tag"],
        article_dim=article_dim,
        embed_dim=embed_dim,
        article_ids=list(ids),
        reps=tensors["article_reps"] if ids else np.zeros((0, article_dim)),
        users={
            uid: UserEntry(list(meta["history"]), meta["profile_text"], embs[i])
            for i, (uid, meta) in enumerate(user_meta.items())
        },
        profile_embs=embs,
        partial=bool(header.get("partial", False)),
        errors=list(header.get("errors", [])),
    )


# ---------------------------------------------------------------------------
# Reranking
# ---------------------------------------------------------------------------

@dataclass
class RankRequest:
    user_id: str
    candidate_ids: list[str]
    top_k: int | None = None


@dataclass
class RankResponse:
    results: list[tuple[str, float]]  # ordered by probability, descending
    model_version: str
    latency_ms: float

    def to_dict(self) -> dict:
        return {
            "results": [{"article_id": a, "probability": p} for a, p in self.results],
            "model_version": self.model_version,
            "latency_ms": self.latency_ms,
        }


def rank(request: RankRequest, store: RepStore, params: ModelParams) -> RankResponse:
    """Score and order a candidate list for one user.

    Unknown users fall back to a cold start (empty history, zero profile);
    unknown candidate ids are a request-level error. The store must carry
    the version tag of the loaded checkpoint.
    """
    started = time.perf_counter()
    if store.version_tag != ensure_version_tag(params):
        raise ConfigError(
            f"rep store version {store.version_tag[:12]} does not match "
            f"checkpoint version {params.version_tag[:12]}"
        )
    if not request.candidate_ids:
        raise ValueError("rank request has no candidates")
    missing = [a for a in request.candidate_ids if a not in store.row_of]
    if missing:
        raise KeyError(f"unknown candidate id(s): {', '.join(missing)}")

    entry = store.users.get(request.user_id)
    if entry is None:
        hist_rows = []
        profile = np.zeros(store.embed_dim)
    else:
        hist_rows = [store.row_of[a] for a in entry.history if a in store.row_of]
        profile = entry.profile_emb
    cand_vecs = [store.reps[store.row_of[a]] for a in request.candidate_ids]  # views, no copy
    scored = score_candidates(params, request.candidate_ids, cand_vecs, store.reps[hist_rows], profile)
    order = sorted(range(len(scored)), key=lambda i: (-scored[i].probability, i))
    if request.top_k is not None:
        order = order[: max(request.top_k, 0)]
    results = [(scored[i].article_id, scored[i].probability) for i in order]
    latency = (time.perf_counter() - started) * 1000.0
    return RankResponse(results=results, model_version=store.version_tag, latency_ms=latency)


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------

class RankService:
    """Immutable bundle of store + params behind the HTTP handler."""

    def __init__(self, store: RepStore, params: ModelParams):
        if store.version_tag != ensure_version_tag(params):
            raise ConfigError("rep store was built from a different checkpoint version")
        self.store = store
        self.params = params

    def handle_rank(self, payload) -> dict:
        """Rank one decoded ``POST /rank`` body; a malformed body raises ValueError."""
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        candidates = payload.get("candidates")
        if not (isinstance(candidates, list) and candidates
                and all(isinstance(a, str) for a in candidates)):
            raise ValueError("candidates must be a non-empty list of strings")
        top_k = payload.get("top_k")
        if top_k is not None and (isinstance(top_k, bool) or not isinstance(top_k, int) or top_k < 0):
            raise ValueError("top_k must be a non-negative integer")
        return rank(RankRequest(str(payload.get("user_id", "")), candidates, top_k),
                    self.store, self.params).to_dict()

    def handle_health(self) -> dict:
        return {"status": "ok", "model_version": self.store.version_tag}


class _Handler(BaseHTTPRequestHandler):
    service: RankService  # injected by create_server

    def _reply(self, status: int, payload: dict) -> None:
        raw = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def do_GET(self):  # noqa: N802 (http.server API)
        if self.path == "/health":
            self._reply(200, self.service.handle_health())
        else:
            self._reply(404, {"error": f"unknown path {self.path}"})

    def do_POST(self):  # noqa: N802
        if self.path != "/rank":
            self._reply(404, {"error": f"unknown path {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
            self._reply(200, self.service.handle_rank(payload))
        except (KeyError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            self._reply(500, {"error": f"internal error: {exc}"})

    def log_message(self, fmt, *args):  # silence default stderr chatter
        pass


def create_server(store: RepStore, params: ModelParams, host: str = "127.0.0.1",
                  port: int = 8080) -> ThreadingHTTPServer:
    service = RankService(store, params)
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)


def serve_in_thread(store: RepStore, params: ModelParams, host: str = "127.0.0.1",
                    port: int = 0) -> tuple[ThreadingHTTPServer, threading.Thread]:
    """Start the service on a background thread (port 0 picks a free port)."""
    server = create_server(store, params, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread

"""Offline precompute plus an online rerank service.

``precompute`` saves a checkpoint's :attr:`~flowrec.model.Scorer.reps` as
they are, one row per corpus article in corpus order, with one profile row
per user from the same :class:`~flowrec.model.Scorer`'s table, so serving
reps are evaluation reps by construction; an article without a summary is
encoded from its raw body, as in every other stage
(:meth:`~flowrec.data.Article.body_text`). ``rank`` hands the same history
and candidate rows to the same batched
:func:`~flowrec.model.score_candidates` as offline evaluation, so serving
probabilities are bit-identical to evaluation ones.

The HTTP layer is a small JSON-over-HTTP server: ``POST /rank`` and
``GET /health``. Store and parameters are immutable after load; request
handling is thread-safe, and the one thing requests share is a list of idle
candidate blocks, taken and given back under a lock.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .checkpoint import FORMAT_VERSION, ensure_version_tag, read_artifact, write_tensor_file
from .data import Article, Impression, in_corpus
from .encode import encode_article  # noqa: F401  (traced here by benchmark/spans.py)
from .errors import ConfigError, UnknownIdError
from .model import ModelParams, Scorer, score_candidates


# The largest POST body read. A 1000-candidate /rank body is about 12 KB, so
# this is far above any real request; a longer one gets 413 unread.
MAX_BODY_BYTES = 1 << 20
# The most candidates one /rank request may score; more get 400. A body under
# MAX_BODY_BYTES can repeat a short id over 100,000 times, and every request's
# candidate block stays in the idle list for the server's life.
MAX_CANDIDATES = 10_000


@dataclass
class UserRecord:
    user_id: str
    history: list[str]


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

    def __post_init__(self):
        self.row_of = {a: i for i, a in enumerate(self.article_ids)}


def latest_impressions(impressions) -> dict[str, Impression]:
    """Each user's latest impression; of two with one timestamp, the one listed later."""
    return {imp.user_id: imp for imp in sorted(impressions, key=lambda i: i.timestamp)}  # a stable sort


def users_from_impressions(impressions) -> list[UserRecord]:
    """One record per user, carrying the history of their latest impression."""
    return [UserRecord(uid, imp.history) for uid, imp in sorted(latest_impressions(impressions).items())]


def precompute(params: ModelParams, embedder, corpus: dict[str, Article],
               users: list[UserRecord], profile_provider=None) -> RepStore:
    """Offline inference pass over every corpus article and each user's in-corpus history:
    the reps are :attr:`Scorer.reps` as they are, each profile is from its table."""
    scorer = Scorer(params, embedder, corpus, profile_provider)
    cfg, feats = params.config, scorer.features
    histories = {u.user_id: in_corpus(corpus, u.history) for u in users}
    prof_rows = feats.profile_rows([(uid, tuple(h)) for uid, h in histories.items()])
    profile_embs = feats.profiles[prof_rows]
    return RepStore(
        version_tag=ensure_version_tag(params),
        article_dim=cfg.article_dim,
        embed_dim=cfg.embed_dim,
        article_ids=list(corpus),
        reps=scorer.reps,
        users={
            uid: UserEntry(h, feats.profile_texts[r], profile_embs[i])
            for i, ((uid, h), r) in enumerate(zip(histories.items(), prof_rows))
        },
        profile_embs=profile_embs,
    )


def save_store(path, store: RepStore) -> None:
    header = {
        "kind": "repstore",
        "format_version": FORMAT_VERSION,
        "version_tag": store.version_tag,
        "article_dim": store.article_dim,
        "embed_dim": store.embed_dim,
        "article_ids": store.article_ids,
        "users": {
            uid: {"history": e.history, "profile_text": e.profile_text}
            for uid, e in store.users.items()
        },
    }
    tensors = {}
    if store.article_ids:
        tensors["article_reps"] = store.reps
    if store.users:
        tensors["profile_embs"] = store.profile_embs
    write_tensor_file(path, header, tensors)


STORE_KEYS = {"version_tag": str, "article_dim": int, "embed_dim": int, "article_ids": list, "users": dict}


def load_store(path) -> RepStore:
    """A saved :class:`RepStore`; a header or tensor not as :func:`save_store` writes it is a ConfigError.
    Its article ids are distinct and every history names one of them, so :func:`rank` needs no filter."""
    header, tensors = read_artifact(path, "repstore", STORE_KEYS)
    article_dim, embed_dim = header["article_dim"], header["embed_dim"]
    ids, user_meta = header["article_ids"], header["users"]
    users_ok = all(isinstance(m, dict) and isinstance(m.get("history"), list)
                   and isinstance(m.get("profile_text"), str) for m in user_meta.values())
    if not (users_ok and all(isinstance(a, str) for a in [*ids, *(
            a for m in user_meta.values() for a in m["history"])])):
        raise ConfigError(f"{path}: header 'article_ids' or 'users' is not as a rep store writes it")
    stored = set(ids)
    if len(stored) != len(ids):
        raise ConfigError(f"{path}: header 'article_ids' repeats an id")
    if not all(stored.issuperset(m["history"]) for m in user_meta.values()):
        raise ConfigError(f"{path}: a history in header 'users' names an article not in 'article_ids'")
    shapes = {"article_reps": (len(ids), article_dim), "profile_embs": (len(user_meta), embed_dim)}
    for name, shape in shapes.items():
        if shape[0] and (name not in tensors or tensors[name].shape != shape):
            raise ConfigError(f"{path}: tensor {name!r} is missing or not of shape {list(shape)}")
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


# Candidate blocks not in use, shared by every handler thread.
_idle_blocks: list[np.ndarray] = []
_idle_lock = threading.Lock()


@contextmanager
def _candidate_block(reps: np.ndarray, rows: list[int]):
    """``reps[rows]`` in a block reused across requests.

    The block is a request's one large array. Allocated per request, it
    either takes fresh page faults every time (a map of its own) or stays in
    the handler thread's malloc arena after the request (the server starts a
    thread per connection). Reused, it is faulted in once. It goes back to the
    idle list once the request is scored, so the list holds one block per
    request that was ever in flight at the same time, each as large as the
    largest request that used it.
    """
    size = len(rows) * reps.shape[1]
    with _idle_lock:
        buf = _idle_blocks.pop() if _idle_blocks else None
    if buf is None or buf.size < size or buf.dtype != reps.dtype:
        buf = np.empty(size, dtype=reps.dtype)
    try:
        # mode="clip" writes straight into the block; the default "raise" takes a buffered copy.
        yield np.take(reps, rows, axis=0, out=buf[:size].reshape(len(rows), reps.shape[1]), mode="clip")
    finally:
        with _idle_lock:
            _idle_blocks.append(buf)


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
        raise UnknownIdError(f"unknown candidate id(s): {', '.join(missing)}")

    entry = store.users.get(request.user_id)
    if entry is None:
        hist_rows = []
        profile = np.zeros(store.embed_dim)
    else:
        hist_rows = [store.row_of[a] for a in entry.history]
        profile = entry.profile_emb
    with _candidate_block(store.reps, [store.row_of[a] for a in request.candidate_ids]) as cands:
        # The scored candidates keep no view of the block.
        scored = score_candidates(params, request.candidate_ids, cands, store.reps[hist_rows], profile)
    # Stable: equal probabilities keep request order.
    order = np.argsort([-s.probability for s in scored], kind="stable").tolist()
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
        if len(candidates) > MAX_CANDIDATES:
            raise ValueError(f"candidates may hold at most {MAX_CANDIDATES} ids, not {len(candidates)}")
        top_k = payload.get("top_k")
        if top_k is not None and (isinstance(top_k, bool) or not isinstance(top_k, int) or top_k < 0):
            raise ValueError("top_k must be a non-negative integer")
        return rank(RankRequest(str(payload.get("user_id", "")), candidates, top_k),
                    self.store, self.params).to_dict()

    def handle_health(self) -> dict:
        store = self.store
        return {"status": "ok", "model_version": store.version_tag,
                "n_articles": len(store.article_ids), "n_users": len(store.users)}


class _Handler(BaseHTTPRequestHandler):
    service: RankService  # injected by create_server
    # Keep-alive: one connection carries many requests, so every request's
    # body is read in full before the reply, or the connection is closed.
    protocol_version = "HTTP/1.1"
    # A reply goes out as headers, then body; with Nagle's algorithm the body
    # would wait on a reused connection for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    def handle(self):
        try:
            super().handle()
        except ConnectionError:  # the client hung up before its reply was sent: nothing to report
            pass

    def _reply(self, status: int, payload: dict) -> None:
        raw = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(raw)

    def do_GET(self):  # noqa: N802 (http.server API)
        if self.path == "/health":
            self._reply(200, self.service.handle_health())
        else:
            self._reply(404, {"error": f"unknown path {self.path}"})

    def do_POST(self):  # noqa: N802
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or "Transfer-Encoding" in self.headers:
            # The body's end is unknown, so the connection cannot carry another request.
            self.close_connection = True
            self._reply(400, {"error": "a POST body needs a non-negative integer Content-Length"})
            return
        if length > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry another request.
            self.close_connection = True
            self._reply(413, {"error": f"a POST body may hold at most {MAX_BODY_BYTES} bytes, not {length}"})
            return
        body = self.rfile.read(length)
        if self.path != "/rank":
            self._reply(404, {"error": f"unknown path {self.path}"})
            return
        try:
            payload = json.loads(body.decode("utf-8"))
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
    # A short poll: shutdown() waits for serve_forever's next poll (0.5 s by default).
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return server, thread

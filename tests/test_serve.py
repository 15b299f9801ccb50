import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
import traceback
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowrec
from conftest import container_cuts, make_impression
from flowrec.checkpoint import (
    checkpoint_header,
    content_digest,
    load_checkpoint,
    read_tensor_file,
    save_checkpoint,
    write_tensor_file,
)
from flowrec.data import SyntheticSpec, generate_synthetic
from flowrec.encode import HashedTextEmbedder, build_vocabs, encode_article
from flowrec.errors import ConfigError, UnknownIdError
from flowrec.model import ModelConfig, Scorer, init_model_params
from flowrec.serve import (
    MAX_BODY_BYTES,
    MAX_CANDIDATES,
    RankRequest,
    RankService,
    UserRecord,
    load_store,
    precompute,
    rank,
    save_store,
    serve_in_thread,
    users_from_impressions,
)
from flowrec.summarize import TEMPLATES, ProfileProvider, StubCompletionClient, summarize_corpus
from flowrec.train import evaluate_params

# Measured on the reference machine: p95 ~73 ms for 1,000 candidates at the
# default dims; pinned with 2x slack.
P95_BUDGET_MS = 150.0


def small_world(seed=3, n_articles=40):
    ds = generate_synthetic(SyntheticSpec(n_users=8, n_articles=n_articles, n_impressions=60,
                                          topic_count=4, seed=seed))
    cfg = ModelConfig(attr_names=["category", "engagement"], embed_dim=32, text_proj_dim=8,
                      attr_embed_dim=4, attr_hidden_dim=8, attr_out_dim=4,
                      use_summaries=False)
    vocabs = build_vocabs(ds.articles, cfg.attr_names)
    params = init_model_params(cfg, vocabs, seed=seed)
    embedder = HashedTextEmbedder(cfg.embed_dim)
    provider = ProfileProvider(ds.corpus, TEMPLATES["user_profile_mind"], StubCompletionClient())
    return ds, params, embedder, provider


class TestPrecompute:
    def test_empty_corpus_keeps_version_tag(self):
        _, params, embedder, _ = small_world()
        store = precompute(params, embedder, {}, [])
        assert store.article_ids == []
        assert store.version_tag == params.version_tag != ""

    def test_recompute_is_identical(self, tmp_path):
        ds, params, embedder, provider = small_world()
        users = users_from_impressions(ds.impressions)
        a_path, b_path = tmp_path / "a.bin", tmp_path / "b.bin"
        save_store(a_path, precompute(params, embedder, ds.corpus, users, provider))
        save_store(b_path, precompute(params, embedder, ds.corpus, users, provider))
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_store_entry_matches_direct_encoding(self):
        ds, params, embedder, provider = small_world()
        store = precompute(params, embedder, ds.corpus, [])
        for art_id, art in ds.corpus.items():
            assert np.array_equal(store.reps[store.row_of[art_id]], encode_article(params, embedder, art))

    def test_missing_summary_is_encoded_from_the_body(self):
        # summarize tolerates a failed completion; precompute keeps that article,
        # encoded from its raw body as evaluation encodes it.
        ds, params, embedder, provider = small_world()
        params = init_model_params(params.config.ablated(use_summaries=True), params.vocabs, seed=3)
        summaries, _ = summarize_corpus(ds.articles, TEMPLATES["article_summary_mind"], StubCompletionClient())
        users = users_from_impressions(ds.impressions)
        user = next(u for u in users if u.history)
        unsummarized = user.history[-1]
        for art in ds.articles:
            art.summary = None if art.article_id == unsummarized else summaries[art.article_id]
        store = precompute(params, embedder, ds.corpus, users, provider)
        assert store.article_ids == list(ds.corpus)
        assert store.users[user.user_id].history == user.history

        ids = [unsummarized] + [a.article_id for a in ds.articles[:6] if a.article_id != unsummarized]
        imp = make_impression("p", user=user.user_id, history=user.history, candidates=[(a, 0) for a in ids])
        offline = {s.article_id: s.probability for s in Scorer(params, embedder, ds.corpus, provider).score(imp)}
        assert dict(rank(RankRequest(user.user_id, ids), store, params).results) == offline  # bit-identical

    def test_users_from_impressions_latest_history(self):
        imps = [make_impression("i1", user="u", history=["a"], timestamp=1),
                make_impression("i2", user="u", history=["b", "c"], timestamp=9),
                make_impression("i3", user="v", history=[], timestamp=2)]
        users = users_from_impressions(imps)
        assert users == [UserRecord("u", ["b", "c"]), UserRecord("v", [])]


class TestStoreFile:
    def test_round_trip_is_bit_exact(self, tmp_path):
        ds, params, embedder, provider = small_world()
        store = precompute(params, embedder, ds.corpus, users_from_impressions(ds.impressions),
                           provider)
        path = tmp_path / "store.bin"
        save_store(path, store)
        loaded = load_store(path)
        assert loaded.version_tag == store.version_tag
        assert loaded.article_ids == store.article_ids
        assert np.array_equal(loaded.reps, store.reps)
        for uid in store.users:
            assert loaded.users[uid].history == store.users[uid].history
            assert loaded.users[uid].profile_text == store.users[uid].profile_text
            assert np.array_equal(loaded.users[uid].profile_emb, store.users[uid].profile_emb)

    @pytest.mark.parametrize("part", ["magic", "header length", "header", "tensor name",
                                      "tensor shape", "tensor data", "last bytes"])
    def test_truncated_store_is_config_error(self, tmp_path, part):
        ds, params, embedder, provider = small_world()
        path = tmp_path / "store.bin"
        save_store(path, precompute(params, embedder, ds.corpus, users_from_impressions(ds.impressions),
                                    provider))
        raw = path.read_bytes()
        path.write_bytes(raw[:container_cuts(raw)[part]])
        with pytest.raises(ConfigError, match=r"is truncated: .* needs \d+ bytes"):
            load_store(path)

    @pytest.mark.parametrize("garble,message", [
        (lambda h, t: ({k: v for k, v in h.items() if k != "format_version"}, t), "format version None"),
        (lambda h, t: ({k: v for k, v in h.items() if k != "article_dim"}, t), "'article_dim' is missing"),
        (lambda h, t: ({**h, "article_dim": "8"}, t), "'article_dim' is missing or not int"),
        (lambda h, t: ({**h, "embed_dim": True}, t), "'embed_dim' is missing or not int"),
        (lambda h, t: ({k: v for k, v in h.items() if k != "version_tag"}, t), "'version_tag' is missing"),
        (lambda h, t: ({**h, "users": []}, t), "'users' is missing or not dict"),
        (lambda h, t: ({**h, "article_ids": [1] * len(h["article_ids"])}, t), "'article_ids' or 'users'"),
        (lambda h, t: ({**h, "users": {u: {"history": m["history"]} for u, m in h["users"].items()}}, t),
         "'article_ids' or 'users'"),
        (lambda h, t: (h, {"profile_embs": t["profile_embs"]}), "'article_reps' is missing"),
        (lambda h, t: (h, {**t, "article_reps": t["article_reps"][1:]}), r"'article_reps' .* shape \[40, "),
        (lambda h, t: (h, {"article_reps": t["article_reps"]}), "'profile_embs' is missing"),
        (lambda h, t: (h, {**t, "profile_embs": t["profile_embs"][:, :-1]}),
         r"'profile_embs' .* shape \[8, 32\]"),
        (lambda h, t: ({**h, "users": {u: {**m, "history": [[1]]} for u, m in h["users"].items()}}, t),
         "'article_ids' or 'users'"),
        (lambda h, t: ({**h, "article_ids": h["article_ids"][:-1] + h["article_ids"][:1]}, t),
         "'article_ids' repeats an id"),
        (lambda h, t: ({**h, "users": {u: {**m, "history": [*m["history"], "ghost"]} for u, m in h["users"].items()}},
                       t), "'users' names an article not in 'article_ids'"),
        (lambda h, t: ({**h, "kind": "checkpoint"}, t), "is not a repstore file"),
    ], ids=["no-format-version", "no-article-dim", "article-dim-a-string", "embed-dim-a-bool",
            "no-version-tag", "users-a-list", "ids-not-strings", "user-without-profile-text",
            "no-article-reps", "reps-row-short", "no-profile-embs", "profile-embs-column-short",
            "history-entry-a-list", "id-repeated", "history-id-not-stored", "kind-checkpoint"])
    def test_garbled_store_is_config_error_naming_the_file(self, tmp_path, garble, message):
        ds, params, embedder, provider = small_world()
        path = tmp_path / "store.bin"
        save_store(path, precompute(params, embedder, ds.corpus, users_from_impressions(ds.impressions),
                                    provider))
        write_tensor_file(path, *garble(*read_tensor_file(path)))
        with pytest.raises(ConfigError, match=message) as err:
            load_store(path)
        assert str(path) in str(err.value)


# Loads the artifact at argv[2], changes its content and saves it over the same path,
# killing its own process with SIGKILL once the new file holds its first tensor.
KILLED_WRITER = """
import glob, os, signal, sys
from flowrec import checkpoint
from flowrec.checkpoint import load_checkpoint, save_checkpoint
from flowrec.serve import load_store, save_store

kind, path = sys.argv[1:]
serialize, in_temp = checkpoint._tensor_bytes, []

def dying(name, array):
    if glob.glob(os.path.join(os.path.dirname(path), ".*.tmp")):
        if in_temp:
            os.kill(os.getpid(), signal.SIGKILL)
        in_temp.append(name)
    return serialize(name, array)

checkpoint._tensor_bytes = dying
if kind == "checkpoint":
    params = load_checkpoint(path)
    params.tensors = {name: t + 1.0 for name, t in params.tensors.items()}
    params.version_tag = ""
    save_checkpoint(path, params)
else:
    store = load_store(path)
    store.reps = store.reps + 1.0
    save_store(path, store)
"""


class TestKilledWriter:
    @pytest.mark.parametrize("kind", ["checkpoint", "store"])
    def test_killed_save_leaves_the_previous_artifact(self, tmp_path, kind):
        ds, params, embedder, provider = small_world()
        path = tmp_path / f"{kind}.bin"
        if kind == "checkpoint":
            save, load, arrays = save_checkpoint, load_checkpoint, lambda p: p.tensors
            save(path, params)
        else:
            save, load, arrays = save_store, load_store, lambda s: {"reps": s.reps, "profiles": s.profile_embs}
            save(path, precompute(params, embedder, ds.corpus, users_from_impressions(ds.impressions), provider))
        before, old = path.read_bytes(), load(path)
        src = os.path.dirname(os.path.dirname(flowrec.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", KILLED_WRITER, kind, str(path)], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert len([p for p in os.listdir(tmp_path) if p.endswith(".tmp")]) == 1  # killed inside the write

        assert path.read_bytes() == before
        loaded = load(path)
        assert loaded.version_tag == old.version_tag
        assert all(np.array_equal(a, arrays(old)[name]) for name, a in arrays(loaded).items())
        # The leftover temporary file is in no later writer's or reader's way.
        if kind == "checkpoint":
            loaded.tensors = {name: t + 1.0 for name, t in loaded.tensors.items()}
            loaded.version_tag = ""
        else:
            loaded.reps = loaded.reps + 1.0
        save(path, loaded)
        assert path.read_bytes() != before
        load(path)


class TestRank:
    def _ready(self, tmp_path=None):
        ds, params, embedder, provider = small_world()
        store = precompute(params, embedder, ds.corpus, users_from_impressions(ds.impressions),
                           provider)
        return ds, params, embedder, provider, store

    def test_top_k_one(self):
        ds, params, _, _, store = self._ready()
        ids = [a.article_id for a in ds.articles[:5]]
        resp = rank(RankRequest(ds.impressions[0].user_id, ids, top_k=1), store, params)
        assert len(resp.results) == 1
        full = rank(RankRequest(ds.impressions[0].user_id, ids), store, params)
        assert resp.results[0] == full.results[0]
        probs = [p for _, p in full.results]
        assert probs == sorted(probs, reverse=True)

    def test_parity_with_evaluation_path(self):
        ds, params, embedder, provider, store = self._ready()
        scorer = Scorer(params, embedder, ds.corpus, provider)
        users = {u.user_id: u for u in users_from_impressions(ds.impressions)}
        for uid, user in list(users.items())[:5]:
            ids = [a.article_id for a in ds.articles[:7]]
            imp = make_impression("parity", user=uid, history=user.history,
                                  candidates=[(a, 0) for a in ids])
            offline = {s.article_id: s.probability for s in scorer.score(imp)}
            online = dict(rank(RankRequest(uid, ids), store, params).results)
            assert online == offline  # bit-identical

    def test_reused_candidate_block_keeps_results(self):
        # rank gathers candidates into a block reused across requests: a block
        # left over from a longer request, or in use by another thread, must
        # not leak into a result.
        ds, params, _, _, store = self._ready()
        users = sorted(store.users)
        ids = [a.article_id for a in ds.articles]
        requests = [RankRequest(users[i % len(users)], ids[i:] + ids[:i][: i % 3]) for i in range(12)]
        expected = [rank(r, store, params).results for r in requests]
        assert [rank(r, store, params).results for r in reversed(requests)] == expected[::-1]
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                assert [r.results for r in pool.map(lambda r: rank(r, store, params), requests)] == expected

    def test_unknown_candidate_named(self):
        ds, params, _, _, store = self._ready()
        with pytest.raises(KeyError, match="ghost-article"):
            rank(RankRequest("u0", ["ghost-article"]), store, params)

    def test_unknown_candidate_is_unknown_id_error(self):
        ds, params, _, _, store = self._ready()
        with pytest.raises(UnknownIdError):
            rank(RankRequest("u0", [ds.articles[0].article_id, "ghost-article"]), store, params)

    def test_unknown_user_cold_start(self):
        ds, params, _, _, store = self._ready()
        ids = [ds.articles[0].article_id]
        resp = rank(RankRequest("never-seen-user", ids), store, params)
        assert 0.0 < resp.results[0][1] < 1.0

    def test_version_mismatch_rejected(self):
        ds, params, _, _, store = self._ready()
        store.version_tag = "0" * 64
        with pytest.raises(ConfigError, match="version"):
            rank(RankRequest("u0", [ds.articles[0].article_id]), store, params)

    def test_empty_candidates_rejected(self):
        ds, params, _, _, store = self._ready()
        with pytest.raises(ValueError):
            rank(RankRequest("u0", []), store, params)


class TestOlderCheckpoint:
    def test_model_dropout_key_loads_and_serves_under_the_stored_tag(self, tmp_path):
        """Checkpoints once carried an unread ``dropout`` in their model config.
        Such a file still loads, and evaluates and ranks under the tag stored in
        it, with the scores of the same tensors saved without the key."""
        ds, params, embedder, provider = small_world()
        new_path, old_path = tmp_path / "new.ckpt", tmp_path / "old.ckpt"
        save_checkpoint(new_path, params)
        header = checkpoint_header(params)
        header["config"]["dropout"] = 0.1
        stored = {name: t.astype(np.float32) for name, t in params.tensors.items()}
        header["version_tag"] = old_tag = content_digest(header, stored)
        write_tensor_file(old_path, header, stored)

        old, new = load_checkpoint(old_path), load_checkpoint(new_path)
        assert old.version_tag == old_tag != new.version_tag
        assert old.config == new.config
        old_report = evaluate_params(old, embedder, ds.corpus, ds.impressions, provider)
        assert old_report.to_json() == evaluate_params(new, embedder, ds.corpus, ds.impressions,
                                                       provider).to_json()

        users = users_from_impressions(ds.impressions)
        save_store(tmp_path / "old.store", precompute(old, embedder, ds.corpus, users, provider))
        old_store = load_store(tmp_path / "old.store")
        assert old_store.version_tag == old_tag
        new_store = precompute(new, embedder, ds.corpus, users, provider)
        ids = [a.article_id for a in ds.articles[:7]]
        for uid in sorted(old_store.users)[:3]:
            old_resp = rank(RankRequest(uid, ids), old_store, old)
            assert old_resp.model_version == old_tag
            assert old_resp.results == rank(RankRequest(uid, ids), new_store, new).results


class TestHttp:
    def test_health_and_rank_round_trip(self):
        ds, params, embedder, provider = small_world()
        store = precompute(params, embedder, ds.corpus, users_from_impressions(ds.impressions),
                           provider)
        server, _ = serve_in_thread(store, params)
        try:
            port = server.server_address[1]
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/health") as resp:
                health = json.loads(resp.read())
            assert health == {"status": "ok", "model_version": store.version_tag, "n_articles": len(ds.articles),
                              "n_users": len(users_from_impressions(ds.impressions))}

            uid = ds.impressions[0].user_id
            ids = [a.article_id for a in ds.articles[:4]]
            body = json.dumps({"user_id": uid, "candidates": ids, "top_k": 2}).encode()
            req = urllib.request.Request(f"http://127.0.0.1:{port}/rank", data=body,
                                         headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req) as resp:
                payload = json.loads(resp.read())
            assert len(payload["results"]) == 2
            assert payload["model_version"] == store.version_tag

            direct = rank(RankRequest(uid, ids, top_k=2), store, params)
            wire = [(r["article_id"], r["probability"]) for r in payload["results"]]
            assert wire == direct.results  # JSON round-trips float64 exactly
        finally:
            server.shutdown()
            server.server_close()

    def test_unknown_candidate_is_400(self):
        ds, params, embedder, provider = small_world()
        store = precompute(params, embedder, ds.corpus, [], provider)
        server, _ = serve_in_thread(store, params)
        try:
            port = server.server_address[1]
            body = json.dumps({"user_id": "u", "candidates": ["nope"]}).encode()
            req = urllib.request.Request(f"http://127.0.0.1:{port}/rank", data=body)
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req)
            assert err.value.code == 400
            assert "nope" in json.loads(err.value.read())["error"]
        finally:
            server.shutdown()
            server.server_close()

    def test_server_rejects_mismatched_store(self):
        ds, params, embedder, provider = small_world()
        store = precompute(params, embedder, ds.corpus, [], provider)
        store.version_tag = "f" * 64
        with pytest.raises(ConfigError):
            serve_in_thread(store, params)


def post_rank(port, raw: bytes) -> tuple[int, dict]:
    req = urllib.request.Request(f"http://127.0.0.1:{port}/rank", data=raw)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


@pytest.fixture(scope="module")
def served():
    ds, params, embedder, provider = small_world()
    store = precompute(params, embedder, ds.corpus, users_from_impressions(ds.impressions),
                       provider)
    server, _ = serve_in_thread(store, params)
    yield ds, RankService(store, params), server.server_address[1]
    server.shutdown()
    server.server_close()


# Each body once reached rank() unchecked: a 500 (TypeError, AttributeError),
# ids split into characters, or `true` taken as top_k=1.
MALFORMED = {
    "top_k_string": (lambda ids: {"candidates": ids, "top_k": "2"}, "top_k must be"),
    "list_body": (lambda ids: ids, "must be a JSON object"),
    "candidates_string": (lambda ids: {"candidates": ids[0]}, "list of strings"),
    "top_k_true": (lambda ids: {"candidates": ids, "top_k": True}, "top_k must be"),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=10,
)


class TestRankValidation:
    @pytest.mark.parametrize("name", MALFORMED)
    def test_handle_rank_rejects(self, served, name):
        ds, service, _ = served
        make_body, message = MALFORMED[name]
        with pytest.raises(ValueError, match=message):
            service.handle_rank(make_body([a.article_id for a in ds.articles[:3]]))

    @pytest.mark.parametrize("name", MALFORMED)
    def test_http_is_400(self, served, name):
        ds, _, port = served
        make_body, message = MALFORMED[name]
        body = make_body([a.article_id for a in ds.articles[:3]])
        status, payload = post_rank(port, json.dumps(body).encode())
        assert status == 400
        assert message in payload["error"]

    def test_deeply_nested_body_is_400(self, served):
        _, _, port = served
        status, _ = post_rank(port, b"[" * 100_000)
        assert status == 400

    def test_keep_alive_connection_carries_rank_and_404(self, served):
        ds, _, port = served
        body = json.dumps({"user_id": ds.impressions[0].user_id,
                           "candidates": [a.article_id for a in ds.articles[:4]]}).encode()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            replies, socks = [], []
            for path in ("/rank", "/nowhere", "/rank"):
                conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                payload = json.loads(resp.read())
                replies.append((resp.status, resp.version, "results" in payload))
                socks.append(conn.sock)
        finally:
            conn.close()
        assert replies == [(200, 11, True), (404, 11, False), (200, 11, True)]
        assert socks[0] is not None and socks.count(socks[0]) == 3  # one connection for all three

    def test_keep_alive_replies_are_not_held_back(self, served):
        """A reply goes out as headers, then body. Under Nagle's algorithm the body
        waits on a reused connection for the client's delayed ACK, about 40 ms."""
        ds, _, port = served
        body = json.dumps({"user_id": ds.impressions[0].user_id,
                           "candidates": [a.article_id for a in ds.articles]}).encode()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            times = []
            for _ in range(15):
                t0 = time.perf_counter()
                conn.request("POST", "/rank", body=body, headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                resp.read()
                times.append((time.perf_counter() - t0) * 1000.0)
                assert resp.status == 200
        finally:
            conn.close()
        assert np.median(times) < 20.0, f"median {np.median(times):.1f} ms on one connection"

    def test_unreadable_content_length_is_400_and_closes(self, served):
        _, _, port = served
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.putrequest("POST", "/rank")
            conn.putheader("Content-Length", "many")
            conn.endheaders()
            resp = conn.getresponse()
            resp.read()
        finally:
            conn.close()
        assert resp.status == 400
        assert resp.getheader("Connection") == "close"

    def test_over_long_body_is_413_before_it_is_read(self, served):
        _, _, port = served
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.putrequest("POST", "/rank")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()  # headers only: the reply cannot wait for the body
            resp = conn.getresponse()
            payload = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 413
        assert resp.getheader("Connection") == "close"
        assert str(MAX_BODY_BYTES) in payload["error"]

    def test_candidates_over_the_cap_are_400(self, served):
        ds, _, port = served
        ids = [a.article_id for a in ds.articles]
        at_cap = [ids[i % len(ids)] for i in range(MAX_CANDIDATES)]
        status, payload = post_rank(port, json.dumps({"candidates": at_cap}).encode())
        assert status == 200
        assert len(payload["results"]) == MAX_CANDIDATES
        status, payload = post_rank(port, json.dumps({"candidates": at_cap + ids[:1]}).encode())
        assert status == 400
        assert str(MAX_CANDIDATES) in payload["error"]

    def test_arbitrary_json_bodies_get_200_or_400(self, served):
        ds, _, port = served
        ids = [a.article_id for a in ds.articles[:6]]
        users = sorted({imp.user_id for imp in ds.impressions})
        bodies = JSON_VALUES | st.fixed_dictionaries({}, optional={
            "user_id": JSON_VALUES | st.sampled_from(users),
            "candidates": JSON_VALUES | st.lists(st.sampled_from(ids) | st.text(max_size=3),
                                                 max_size=5),
            "top_k": JSON_VALUES,
        })

        @settings(max_examples=200, deadline=None, database=None)
        @given(bodies)
        def check(body):
            status, _ = post_rank(port, json.dumps(body).encode())
            assert status in (200, 400)

        check()

    def test_arbitrary_headers_and_lengths_get_no_500(self, served):
        """Requests whose ``Content-Length`` is absent, negative, not an integer, huge,
        shorter than the body or longer than the bytes sent (the client then closes its
        write side), with or without ``Transfer-Encoding``, on any path, then a second
        request on the same connection when it stays open, or a hang-up before the
        reply: no reply is a 500, no handler raises (a server prints such a traceback
        to stderr from ``handle_error``), and ``GET /health`` answers afterwards."""
        ds, service, _ = served
        server, _ = serve_in_thread(service.store, service.params)
        raised = []
        server.handle_error = lambda request, address: raised.append(traceback.format_exc())
        port = server.server_address[1]
        body = json.dumps({"user_id": ds.impressions[0].user_id,
                           "candidates": [a.article_id for a in ds.articles[:3]]}).encode()
        lengths = st.one_of(
            st.none(), st.just(str(len(body))), st.integers(max_value=-1).map(str),
            st.sampled_from(["many", "1.5", "", "0x10", "1e3", " 7", "+3", "--1"]),
            st.integers(MAX_BODY_BYTES + 1, 10 ** 30).map(str),
            st.integers(1, 64).map(lambda extra: str(len(body) + extra)),
            st.integers(0, len(body) - 1).map(str),
        )
        paths = st.sampled_from(["/rank", "/health", "/", "//rank", "/rank?top_k=1", "/rank/../rank"]) | \
            st.text("abc/%?.#-_0", max_size=8).map(lambda tail: "/" + tail)

        def reply(sock) -> http.client.HTTPResponse:
            resp = http.client.HTTPResponse(sock)
            resp.begin()
            resp.read()
            return resp

        @settings(max_examples=50, deadline=None, database=None)
        @given(lengths, st.none() | st.sampled_from(["chunked", "gzip, chunked", "identity"]), paths,
               st.sampled_from(["read", "reuse", "hang up"]))
        def check(length, encoding, path, then):
            headers = [f"POST {path} HTTP/1.1", "Host: 127.0.0.1"]
            headers += [] if length is None else [f"Content-Length: {length}"]
            headers += [] if encoding is None else [f"Transfer-Encoding: {encoding}"]
            try:
                declared = int(length)
            except (TypeError, ValueError):
                declared = None
            # A body the server would wait for past the bytes sent ends with the write side closed.
            short = encoding is None and declared is not None and len(body) < declared <= MAX_BODY_BYTES
            statuses = []
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.sendall("\r\n".join(headers).encode() + b"\r\n\r\n" + (body if length else b""))
                if short:
                    sock.shutdown(socket.SHUT_WR)
                if then == "hang up":
                    return
                first = reply(sock)
                statuses.append(first.status)
                if then == "reuse" and not short and not first.will_close:
                    sock.sendall(b"GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
                    statuses.append(reply(sock).status)
            assert 500 not in statuses
            assert raised == []
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/health", timeout=10) as resp:
                assert resp.status == 200

        try:
            check()
            time.sleep(0.2)  # the last hang-ups' handlers finish
            assert raised == []
        finally:
            server.shutdown()
            server.server_close()


@pytest.mark.slow
class TestLatency:
    def test_thousand_candidate_p95(self):
        ds = generate_synthetic(SyntheticSpec(n_users=10, n_articles=1000, n_impressions=40,
                                              topic_count=8, seed=1))
        cfg = ModelConfig(attr_names=["category", "engagement"], use_summaries=False)
        vocabs = build_vocabs(ds.articles, cfg.attr_names)
        params = init_model_params(cfg, vocabs, seed=0)
        embedder = HashedTextEmbedder(cfg.embed_dim)
        provider = ProfileProvider(ds.corpus, TEMPLATES["user_profile_mind"],
                                   StubCompletionClient())
        store = precompute(params, embedder, ds.corpus,
                           users_from_impressions(ds.impressions), provider)
        ids = [a.article_id for a in ds.articles]
        latencies = []
        for trial in range(25):
            uid = ds.impressions[trial % len(ds.impressions)].user_id
            t0 = time.perf_counter()
            rank(RankRequest(uid, ids), store, params)
            latencies.append((time.perf_counter() - t0) * 1000.0)
        p95 = float(np.percentile(latencies, 95))
        assert p95 < P95_BUDGET_MS, f"p95 {p95:.1f} ms over budget"

import json
import time
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_impression
from flowrec.data import SyntheticSpec, generate_synthetic
from flowrec.encode import HashedTextEmbedder, build_vocabs, encode_article
from flowrec.errors import ConfigError
from flowrec.model import ModelConfig, Scorer, init_model_params
from flowrec.serve import (
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
from flowrec.summarize import TEMPLATES, ProfileProvider, StubCompletionClient

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
        art_id = ds.articles[7].article_id
        direct = encode_article(params, embedder, ds.corpus[art_id])
        assert np.array_equal(store.reps[store.row_of[art_id]], direct)

    def test_missing_summary_is_item_error(self):
        ds, params, embedder, _ = small_world()
        params.config = params.config.ablated(use_summaries=True)
        with pytest.raises(ConfigError):
            precompute(params, embedder, ds.corpus, [])
        store = precompute(params, embedder, ds.corpus, [], allow_partial=True)
        assert store.partial
        assert len(store.errors) == len(ds.corpus)
        assert store.article_ids == []

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

    def test_unknown_candidate_named(self):
        ds, params, _, _, store = self._ready()
        with pytest.raises(KeyError, match="ghost-article"):
            rank(RankRequest("u0", ["ghost-article"]), store, params)

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
            assert health == {"status": "ok", "model_version": store.version_tag}

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

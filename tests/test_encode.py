import hashlib
import math

import numpy as np
import pytest

from conftest import TOY_CONFIG, make_article
from flowrec.encode import (
    FeatureSource,
    HashedTextEmbedder,
    PrecomputedTextEmbedder,
    article_reps,
    attr_index_row,
    build_vocabs,
    encode_article,
    encode_attributes_batch,
    read_embedding_file,
    write_embedding_file,
)
from flowrec.errors import ConfigError, UnknownIdError
from flowrec.model import ModelConfig, init_model_params
from flowrec.summarize import TEMPLATES, ProfileProvider, StubCompletionClient


class TestHashedEmbedder:
    def test_empty_text_is_zero(self):
        assert not HashedTextEmbedder(8).embed("").any()

    def test_stopword_only_text_is_zero(self):
        assert not HashedTextEmbedder(8).embed("the and of").any()

    def test_deterministic(self):
        emb = HashedTextEmbedder(32)
        assert np.array_equal(emb.embed("Foo bar baz"), emb.embed("Foo bar baz"))

    def test_exact_bucket_pattern_against_reference_hash(self):
        # Independent oracle: recompute the bucket of each token straight
        # from hashlib and build the expected normalized vector by hand.
        dim = 8
        expected = [0.0] * dim
        for token in ("foo", "bar"):
            digest = hashlib.sha256(token.encode()).digest()
            expected[int.from_bytes(digest[:4], "big") % dim] += 1.0
        norm = math.sqrt(sum(v * v for v in expected))
        expected = [v / norm for v in expected]
        got = HashedTextEmbedder(dim).embed("foo bar")
        assert np.allclose(got, expected, atol=0, rtol=0)

    def test_l2_normalized(self):
        vec = HashedTextEmbedder(64).embed("several words of real text appear here")
        assert math.isclose(float(np.linalg.norm(vec)), 1.0, rel_tol=1e-12)

    def test_case_insensitive(self):
        emb = HashedTextEmbedder(16)
        assert np.array_equal(emb.embed("Rust Compiler"), emb.embed("rust compiler"))


class TestPrecomputedEmbedder:
    def test_file_round_trip(self, tmp_path):
        table = {"hello": np.arange(4, dtype=np.float64),
                 "unicode snörkel": np.array([0.5, -1.0, 2.25, 0.0])}
        path = tmp_path / "embs.bin"
        write_embedding_file(path, table, 4)
        loaded, dim = read_embedding_file(path)
        assert dim == 4
        for key in table:
            assert np.allclose(loaded[key], table[key])

    def test_missing_id_errors(self, tmp_path):
        path = tmp_path / "embs.bin"
        write_embedding_file(path, {"known": np.zeros(2)}, 2)
        emb = PrecomputedTextEmbedder.from_file(path)
        with pytest.raises(KeyError):
            emb.embed("unknown text")


class TestEmbeddingFileDamage:
    """Two records, ``hello`` and ``bye``, of four floats each: bytes 0-8 hold the
    count and dim, 8-12 ``hello``'s id length, 12-17 its id, 17-33 its vector,
    33-37 ``bye``'s id length, 37-40 its id and 40-56 its vector."""

    @pytest.fixture
    def raw(self, tmp_path):
        path = tmp_path / "embs.bin"
        write_embedding_file(path, {"hello": np.arange(4.0), "bye": np.ones(4)}, 4)
        return path.read_bytes()

    @pytest.mark.parametrize("cut,what", [
        (5, "the record count and dim"), (10, "record 0's id length"), (14, "record 0's id"),
        (22, "record 0's vector"), (35, "record 1's id length"), (38, "record 1's id"),
        (48, "record 1's vector"),  # on a float boundary: two of the four floats are left
    ])
    def test_cut_inside_each_part_is_config_error(self, tmp_path, raw, cut, what):
        assert len(raw) == 56
        path = tmp_path / "cut.bin"
        path.write_bytes(raw[:cut])
        with pytest.raises(ConfigError, match=f"truncated: {what} needs"):
            read_embedding_file(path)

    @pytest.mark.parametrize("garble,message", [
        (lambda b: b[:12] + b"\xff" + b[13:], "unreadable id of record 0"),
        (lambda b: b"\x01" + b[1:], "bytes follow the last of its 1 records"),
        (lambda b: b + b"\x00", "bytes follow the last of its 2 records"),
        (lambda b: b[:4] + b"\xff\xff\x00\x00" + b[8:], "record 0's vector needs 262140 bytes"),
    ])
    def test_garbled_file_is_config_error(self, tmp_path, raw, garble, message):
        path = tmp_path / "garbled.bin"
        path.write_bytes(garble(raw))
        with pytest.raises(ConfigError, match=message):
            read_embedding_file(path)


class TestFeatureSourceProfiles:
    def test_each_key_asked_once_and_each_text_embedded_once(self, toy_params, toy_corpus):
        asked, embedded = [], []
        provider = ProfileProvider(toy_corpus, TEMPLATES["user_profile_mind"], StubCompletionClient())
        ask = provider.profile_text
        provider.profile_text = lambda user, history: asked.append((user, tuple(history))) or ask(user, history)

        class CountingEmbedder(HashedTextEmbedder):
            def embed(self, text):
                embedded.append(text)
                return super().embed(text)

        feats = FeatureSource(toy_params, toy_corpus, CountingEmbedder(toy_params.config.embed_dim), provider)
        embedded.clear()  # construction embeds the article texts; only profile texts are counted here
        keys = [("u1", ("a1", "a2")), ("u2", ("a1", "a2")), ("u1", ("a1", "a2", "a3"))]
        first = feats.profile_rows(keys)
        again = feats.profile_rows([keys[2], ("u3", ("a4",)), keys[0], keys[2], ("u4", ())])
        profile = feats.profile_embedding("u2", ["a1", "a2"])
        feats.profile_embedding("u3", ("a4",))

        assert asked == [*keys, ("u3", ("a4",))]  # an empty history is not asked at all
        assert provider.client.calls == 4
        # u1 and u2 clicked the same titles, so their profile texts are one text
        assert len(embedded) == len(set(embedded)) == 3
        assert list(again[[0, 2, 3]]) == [first[2], first[0], first[2]]
        assert np.array_equal(profile, feats.profiles[first[1]])
        assert np.array_equal(feats.profiles[first[0]], feats.profiles[first[1]])

    def test_instruct_off_profiles_are_the_visited_titles(self, toy_params, toy_corpus):
        class RefusingClient:
            def complete(self, template_name, prompt, context):
                raise AssertionError("the completion client was asked")

        params = init_model_params(toy_params.config.ablated(use_instruct_u=False), toy_params.vocabs, seed=5)
        provider = ProfileProvider(toy_corpus, TEMPLATES["user_profile_mind"], RefusingClient())
        embedder = HashedTextEmbedder(TOY_CONFIG["embed_dim"])
        feats = FeatureSource(params, toy_corpus, embedder, provider)
        rows = feats.profile_rows([("u1", ("a1", "a2")), ("u2", ("a3", "ghost")), ("u3", ())])
        assert [feats.profile_texts[r] for r in rows] == ["alpha news\nbeta news", "gamma news", ""]
        assert np.array_equal(feats.profiles[rows[0]], embedder.embed("alpha news\nbeta news"))
        assert not feats.profiles[rows[2]].any()


class CountingEmbedder(HashedTextEmbedder):
    def __init__(self, dim):
        super().__init__(dim)
        self.seen = []

    def embed(self, text):
        self.seen.append(text)
        return super().embed(text)


class TestFeatureSourceArticles:
    def test_rows_follow_corpus_order(self, toy_params, toy_corpus):
        embedder = HashedTextEmbedder(TOY_CONFIG["embed_dim"])
        feats = FeatureSource(toy_params, toy_corpus, embedder)
        assert list(feats.row_of) == list(toy_corpus)
        assert feats.rows(["a3", "a1", "a3"]).tolist() == [2, 0, 2]
        for r, art in enumerate(toy_corpus.values()):
            assert np.array_equal(feats.title[r], embedder.embed(art.title))
            assert np.array_equal(feats.body[r], embedder.embed(art.body))
            assert feats.attr_idx[r].tolist() == attr_index_row(toy_params.vocabs, ["category"],
                                                                art.attributes).tolist()

    def test_each_article_text_embedded_once_on_construction(self, toy_params, toy_corpus):
        # a5 shares its title with a1, and its body is a2's title
        corpus = {**toy_corpus, "a5": make_article("a5", title="alpha news", body="beta news", category="x")}
        embedder = CountingEmbedder(TOY_CONFIG["embed_dim"])
        feats = FeatureSource(toy_params, corpus, embedder)
        texts = {t for a in corpus.values() for t in (a.title, a.body)}
        assert sorted(embedder.seen) == sorted(texts)
        feats.rows(list(corpus))
        for art_id in corpus:
            feats.article_features(art_id)
        assert len(embedder.seen) == len(texts)

    def test_unknown_id_is_named(self, toy_params, toy_corpus):
        feats = FeatureSource(toy_params, toy_corpus, HashedTextEmbedder(TOY_CONFIG["embed_dim"]))
        with pytest.raises(UnknownIdError, match="'ghost'"):
            feats.rows(["a1", "ghost"])


def projected(params, vec, which):
    """The ``which`` slice of :func:`article_reps` of one article whose title and body embed as ``vec``."""
    a, p = params.config.attr_out_dim, params.config.text_proj_dim
    rep = article_reps(params, np.zeros((1, a)), vec[None, :], vec[None, :], [0])[0]
    return rep[a:a + p] if which == "title" else rep[a + p:]


class TestProjection:
    def test_zero_weights_zero_output(self, toy_params):
        toy_params.tensors["title_w"][...] = 0.0
        toy_params.tensors["title_b"][...] = 0.0
        out = projected(toy_params, np.ones(TOY_CONFIG["embed_dim"]), "title")
        assert not out.any()

    def test_identity_projection_passes_through(self, toy_corpus):
        cfg = ModelConfig(**{**TOY_CONFIG, "embed_dim": 3, "text_proj_dim": 3})
        vocabs = build_vocabs(list(toy_corpus.values()), cfg.attr_names)
        params = init_model_params(cfg, vocabs, seed=0)
        params.tensors["body_w"] = np.eye(3)
        params.tensors["body_b"] = np.zeros(3)
        vec = np.array([0.25, -1.5, 3.0])
        assert np.array_equal(projected(params, vec, "body"), vec)

    def test_random_projection_matches_dense_oracle(self, toy_params):
        rng = np.random.default_rng(3)
        w = rng.normal(size=toy_params.tensors["title_w"].shape)
        b = rng.normal(size=toy_params.tensors["title_b"].shape)
        toy_params.tensors["title_w"], toy_params.tensors["title_b"] = w, b
        vec = rng.normal(size=TOY_CONFIG["embed_dim"])
        # independent evaluation with explicit loops
        expected = [sum(w[i][j] * vec[j] for j in range(len(vec))) + b[i]
                    for i in range(w.shape[0])]
        assert np.allclose(projected(toy_params, vec, "title"), expected, rtol=1e-12)

    def test_dimension_mismatch_rejected(self, toy_params, toy_corpus):
        """An embedder of the wrong width is stopped where it enters: the feature table."""
        with pytest.raises(ConfigError, match="dim 6 is not the model's embed_dim 5"):
            FeatureSource(toy_params, toy_corpus, HashedTextEmbedder(TOY_CONFIG["embed_dim"] + 1))


class TestAttributeEncoder:
    def test_unknown_token_maps_to_unk(self, toy_params):
        row = attr_index_row(toy_params.vocabs, ["category"], {"category": "never-seen"})
        assert row.tolist() == [0]

    def test_all_unk_with_zero_tables_is_mlp_of_zero(self, toy_params):
        t = toy_params.tensors
        t["attr_embed/category"][...] = 0.0
        idx = np.zeros((1, 1), dtype=np.int64)
        out, _ = encode_attributes_batch(toy_params, idx)
        hidden = np.maximum(t["attr_b1"], 0.0)
        expected = hidden @ t["attr_w2"].T + t["attr_b2"]
        assert np.allclose(out[0], expected, rtol=1e-12)

    def test_dropout_train_varies_eval_does_not(self, toy_corpus):
        cfg = ModelConfig(**TOY_CONFIG)
        vocabs = build_vocabs(list(toy_corpus.values()), cfg.attr_names)
        params = init_model_params(cfg, vocabs, seed=1)
        idx = attr_index_row(vocabs, ["category"], {"category": "x"})[None, :]
        train_a, _ = encode_attributes_batch(params, idx, mode="train",
                                             rng=np.random.default_rng(1), dropout=0.5)
        train_b, _ = encode_attributes_batch(params, idx, mode="train",
                                             rng=np.random.default_rng(2), dropout=0.5)
        assert not np.array_equal(train_a, train_b)
        eval_a, _ = encode_attributes_batch(params, idx)
        eval_b, _ = encode_attributes_batch(params, idx)
        assert np.array_equal(eval_a, eval_b)

    def test_known_weights_forward_oracle(self, toy_params):
        # One hidden layer evaluated by hand: relu(W1 x + b1) @ W2.T + b2.
        t = toy_params.tensors
        t["attr_embed/category"] = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
        t["attr_w1"] = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
        t["attr_b1"] = np.array([0.1, -0.2, 0.0])
        t["attr_w2"] = np.array([[1.0, 1.0, 1.0], [2.0, 0.0, -1.0]])
        t["attr_b2"] = np.array([0.0, 0.5])
        idx = np.array([[2]])
        out, _ = encode_attributes_batch(toy_params, idx)
        x = [3.0, -1.0]
        hidden = [max(0.0, 1.0 * 3.0 + 0.1), max(0.0, -1.0 - 0.2), max(0.0, 3.0 + 1.0)]
        expected = [hidden[0] + hidden[1] + hidden[2] + 0.0,
                    2.0 * hidden[0] - hidden[2] + 0.5]
        assert np.allclose(out[0], expected, rtol=1e-12)

    def test_batch_norm_train_standardizes_batch(self, toy_corpus):
        cfg = ModelConfig(**{**TOY_CONFIG, "batch_norm": True})
        vocabs = build_vocabs(list(toy_corpus.values()), cfg.attr_names)
        params = init_model_params(cfg, vocabs, seed=2)
        idx = np.array([[0], [1], [2], [3]])
        _, cache = encode_attributes_batch(params, idx, mode="train")
        assert np.allclose(cache["xhat"].mean(axis=0), 0.0, atol=1e-9)
        # variance of xhat is var/(var + eps), slightly under 1 for small activations
        assert np.all(cache["xhat"].var(axis=0) <= 1.0 + 1e-12)
        assert np.allclose(cache["xhat"].var(axis=0), 1.0, atol=2e-2)


class TestEncodeArticle:
    def test_zero_params_give_zero_rep(self, toy_params):
        for name in toy_params.tensors:
            toy_params.tensors[name][...] = 0.0
        article = make_article("a1", category="x")
        rep = encode_article(toy_params, HashedTextEmbedder(TOY_CONFIG["embed_dim"]), article)
        assert rep.shape == (TOY_CONFIG["attr_out_dim"] + 2 * TOY_CONFIG["text_proj_dim"],)
        assert not rep.any()

    def test_summary_flag_changes_only_body_slice(self, toy_corpus):
        vocabs = build_vocabs(list(toy_corpus.values()), ["category"])
        embedder = HashedTextEmbedder(TOY_CONFIG["embed_dim"])
        article = make_article("a1", title="same title", body="long original body words.",
                               category="x")
        article.summary = "short summary."
        with_summary = encode_article(
            init_model_params(ModelConfig(**TOY_CONFIG, use_summaries=True), vocabs, seed=4),
            embedder, article)
        without = encode_article(
            init_model_params(ModelConfig(**TOY_CONFIG, use_summaries=False), vocabs, seed=4),
            embedder, article)
        body = TOY_CONFIG["attr_out_dim"] + TOY_CONFIG["text_proj_dim"]
        assert np.array_equal(with_summary[:body], without[:body])
        assert not np.array_equal(with_summary[body:], without[body:])

    def test_rep_equals_independently_computed_pieces(self, toy_params):
        rng = np.random.default_rng(8)
        for name in ("title_w", "title_b", "body_w", "body_b"):
            toy_params.tensors[name] = rng.normal(size=toy_params.tensors[name].shape)
        embedder = HashedTextEmbedder(TOY_CONFIG["embed_dim"])
        article = make_article("a9", title="alpha beta", body="gamma delta epsilon.", category="y")
        rep = encode_article(toy_params, embedder, article)

        idx = attr_index_row(toy_params.vocabs, ["category"], article.attributes)[None, :]
        attr_expected, _ = encode_attributes_batch(toy_params, idx)
        t = toy_params.tensors
        title_expected = embedder.embed("alpha beta") @ t["title_w"].T + t["title_b"]
        body_expected = embedder.embed("gamma delta epsilon.") @ t["body_w"].T + t["body_b"]
        assert np.array_equal(rep,
                              np.concatenate([attr_expected[0], title_expected, body_expected]))

    def test_title_perturbation_leaves_other_slices(self, toy_params):
        embedder = HashedTextEmbedder(TOY_CONFIG["embed_dim"])
        a = encode_article(toy_params, embedder,
                           make_article("a", title="solar panels offshore", category="x"))
        b = encode_article(toy_params, embedder,
                           make_article("a", title="quantum entanglement measured", category="x"))
        title = slice(TOY_CONFIG["attr_out_dim"], TOY_CONFIG["attr_out_dim"] + TOY_CONFIG["text_proj_dim"])
        assert np.array_equal(a[:title.start], b[:title.start])
        assert np.array_equal(a[title.stop:], b[title.stop:])
        assert not np.array_equal(a[title], b[title])

    def test_dimension_algebra(self, toy_corpus):
        for a_dim, p_dim in ((2, 3), (4, 5), (1, 1)):
            cfg = ModelConfig(**{**TOY_CONFIG, "attr_out_dim": a_dim, "text_proj_dim": p_dim})
            vocabs = build_vocabs(list(toy_corpus.values()), cfg.attr_names)
            params = init_model_params(cfg, vocabs, seed=0)
            rep = encode_article(params, HashedTextEmbedder(cfg.embed_dim),
                                 make_article("a", category="x"))
            assert rep.shape == (a_dim + 2 * p_dim,)

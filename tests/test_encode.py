import hashlib
import math

import numpy as np
import pytest

from conftest import TOY_CONFIG, make_article
from flowrec.encode import (
    HashedTextEmbedder,
    PrecomputedTextEmbedder,
    attr_index_row,
    build_vocabs,
    encode_article,
    encode_attributes_batch,
    project_text,
    read_embedding_file,
    write_embedding_file,
)
from flowrec.errors import ConfigError
from flowrec.model import ModelConfig, init_model_params


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


class TestProjection:
    def test_zero_weights_zero_output(self, toy_params):
        toy_params.tensors["title_w"][...] = 0.0
        toy_params.tensors["title_b"][...] = 0.0
        out = project_text(toy_params, np.ones(TOY_CONFIG["embed_dim"]), "title")
        assert not out.any()

    def test_identity_projection_passes_through(self, toy_corpus):
        cfg = ModelConfig(**{**TOY_CONFIG, "embed_dim": 3, "text_proj_dim": 3})
        vocabs = build_vocabs(list(toy_corpus.values()), cfg.attr_names)
        params = init_model_params(cfg, vocabs, seed=0)
        params.tensors["body_w"] = np.eye(3)
        params.tensors["body_b"] = np.zeros(3)
        vec = np.array([0.25, -1.5, 3.0])
        assert np.array_equal(project_text(params, vec, "body"), vec)

    def test_random_projection_matches_dense_oracle(self, toy_params):
        rng = np.random.default_rng(3)
        w = rng.normal(size=toy_params.tensors["title_w"].shape)
        b = rng.normal(size=toy_params.tensors["title_b"].shape)
        toy_params.tensors["title_w"], toy_params.tensors["title_b"] = w, b
        vec = rng.normal(size=TOY_CONFIG["embed_dim"])
        # independent evaluation with explicit loops
        expected = [sum(w[i][j] * vec[j] for j in range(len(vec))) + b[i]
                    for i in range(w.shape[0])]
        assert np.allclose(project_text(toy_params, vec, "title"), expected, rtol=1e-12)

    def test_dimension_mismatch_rejected(self, toy_params):
        with pytest.raises(ConfigError):
            project_text(toy_params, np.zeros(TOY_CONFIG["embed_dim"] + 1), "title")


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
        cfg = ModelConfig(**{**TOY_CONFIG, "dropout": 0.5})
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
        title_expected = project_text(toy_params, embedder.embed("alpha beta"), "title")
        body_expected = project_text(toy_params, embedder.embed("gamma delta epsilon."), "body")
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

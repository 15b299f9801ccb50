import math
import struct
import warnings

import numpy as np
import pytest

from conftest import TOY_CONFIG, container_cuts, make_article, make_impression
from flowrec import checkpoint, encode
from flowrec.checkpoint import load_checkpoint, save_checkpoint
from flowrec.encode import FeatureSource, HashedTextEmbedder, build_vocabs
from flowrec.errors import ConfigError, UnknownIdError
from flowrec.model import (
    ModelConfig,
    ModelParams,
    ScoredCandidate,
    Scorer,
    attention_weights,
    constant_rep,
    flow_backward,
    flow_forward,
    init_model_params,
    instant_rep,
    score_candidates,
    slot_groups,
)
from flowrec.summarize import TEMPLATES, ProfileProvider, StubCompletionClient


def two_dim_params(head=None):
    """Hand-set parameters over 2-dim article reps (no encoder involved)."""
    cfg = ModelConfig(attr_names=[], embed_dim=2, text_proj_dim=1, attr_embed_dim=1,
                      attr_hidden_dim=1, attr_out_dim=0, batch_norm=False)
    tensors = {
        "attn_w": np.eye(2),
        "profile_w": np.eye(2),
        "profile_b": np.array([0.1, -0.1]),
        "head_w": np.array(head if head is not None else [0.5, -0.25, 1.0, 0.75, -0.5, 0.25]),
        "head_b": np.array([0.1]),
    }
    return ModelParams(config=cfg, vocabs={}, tensors=tensors)


class TestAttention:
    def test_identity_w_two_items(self):
        params = two_dim_params()
        alpha = attention_weights(params, np.array([1.0, 0.0]),
                                  np.array([[1.0, 0.0], [0.0, 1.0]]))
        # scores [1, 0] -> softmax = [e/(1+e), 1/(1+e)]
        assert np.allclose(alpha, [0.73105858, 0.26894142], atol=1e-8)

    def test_identical_history_uniform(self):
        params = two_dim_params()
        hist = np.tile([0.3, -0.7], (5, 1))
        alpha = attention_weights(params, np.array([1.0, 2.0]), hist)
        assert np.allclose(alpha, 0.2, atol=1e-12)

    def test_zero_w_uniform(self):
        params = two_dim_params()
        params.tensors["attn_w"] = np.zeros((2, 2))
        hist = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, -3.0]])
        alpha = attention_weights(params, np.array([1.0, 2.0]), hist)
        assert np.allclose(alpha, 1.0 / 3.0, atol=1e-12)

    def test_sums_to_one_nonnegative(self):
        rng = np.random.default_rng(2)
        params = two_dim_params()
        params.tensors["attn_w"] = rng.normal(size=(2, 2))
        for m in (1, 2, 7):
            alpha = attention_weights(params, rng.normal(size=2), rng.normal(size=(m, 2)))
            assert math.isclose(float(alpha.sum()), 1.0, abs_tol=1e-6)
            assert np.all(alpha >= 0.0)

    def test_stable_under_large_scores(self):
        params = two_dim_params()
        params.tensors["attn_w"] = 500.0 * np.eye(2)
        alpha = attention_weights(params, np.array([30.0, 0.0]),
                                  np.array([[30.0, 0.0], [0.0, 30.0]]))
        assert np.isfinite(alpha).all()
        assert math.isclose(float(alpha.sum()), 1.0, abs_tol=1e-9)


class TestInstantRep:
    def test_weighted_sum_example(self):
        params = two_dim_params()
        # identical history rows give alpha = [0.5, 0.5]
        hist = np.array([[2.0, 0.0], [0.0, 2.0]])
        params.tensors["attn_w"] = np.zeros((2, 2))
        assert np.allclose(instant_rep(params, np.array([1.0, 1.0]), hist), [1.0, 1.0])

    def test_single_item_history_passthrough(self):
        params = two_dim_params()
        hist = np.array([[0.4, -2.5]])
        out = instant_rep(params, np.array([3.0, 1.0]), hist)
        assert np.array_equal(out, hist[0])

    def test_empty_history_gives_zero(self):
        params = two_dim_params()
        out = instant_rep(params, np.array([1.0, 1.0]), np.zeros((0, 2)))
        assert np.array_equal(out, np.zeros(2))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        params = two_dim_params()
        params.tensors["attn_w"] = rng.normal(size=(2, 2))
        cand = rng.normal(size=2)
        hist = rng.normal(size=(4, 2))
        alpha = attention_weights(params, cand, hist)
        expected = [sum(alpha[i] * hist[i][d] for i in range(4)) for d in range(2)]
        assert np.allclose(instant_rep(params, cand, hist), expected, rtol=1e-12)

    def test_permutation_leaves_rep_unchanged(self):
        rng = np.random.default_rng(6)
        params = two_dim_params()
        params.tensors["attn_w"] = rng.normal(size=(2, 2))
        cand = rng.normal(size=2)
        hist = rng.normal(size=(6, 2))
        perm = rng.permutation(6)
        alpha = attention_weights(params, cand, hist)
        alpha_perm = attention_weights(params, cand, hist[perm])
        assert np.allclose(alpha_perm, alpha[perm], rtol=1e-12)
        assert np.allclose(instant_rep(params, cand, hist),
                           instant_rep(params, cand, hist[perm]), rtol=1e-12)


class TestConstantRep:
    def test_elementwise_gate(self):
        params = two_dim_params()
        params.tensors["profile_b"] = np.zeros(2)
        out = constant_rep(params, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.allclose(out, [3.0, 8.0], rtol=1e-12)

    def test_zero_profile_closes_gate(self):
        params = two_dim_params()
        params.tensors["profile_b"] = np.zeros(2)
        out = constant_rep(params, np.zeros(2), np.array([5.0, -1.0]))
        assert not out.any()

    def test_gate_off_returns_projection_ungated(self):
        gated = two_dim_params()
        gated.tensors["profile_b"] = np.zeros(2)
        ungated = two_dim_params()
        ungated.tensors["profile_b"] = np.zeros(2)
        ungated.config = ungated.config.ablated(flow_gate=False)
        profile, cand = np.array([1.5, -2.0]), np.array([2.0, 3.0])
        assert np.allclose(constant_rep(gated, profile, cand),
                           constant_rep(ungated, profile, cand) * cand, rtol=1e-12)


class TestScore:
    def test_hand_evaluated_forward(self):
        params = two_dim_params()
        cand = np.array([1.0, 2.0])
        hist = np.array([[1.0, 0.0], [0.0, 1.0]])
        profile = np.array([2.0, 3.0])
        (scored,) = score_candidates(params, ["c"], [cand], hist, profile)

        # independent hand evaluation with plain floats
        s = [1.0 * 1.0 + 0.0 * 2.0, 0.0 * 1.0 + 1.0 * 2.0]
        m = max(s)
        e = [math.exp(x - m) for x in s]
        alpha = [x / sum(e) for x in e]
        h_ins = [alpha[0] * 1.0, alpha[1] * 1.0]
        q = [2.0 + 0.1, 3.0 - 0.1]
        h_cons = [q[0] * 1.0, q[1] * 2.0]
        v = h_ins + h_cons + [1.0, 2.0]
        w = [0.5, -0.25, 1.0, 0.75, -0.5, 0.25]
        z = sum(wi * vi for wi, vi in zip(w, v)) + 0.1
        expected = 1.0 / (1.0 + math.exp(-z))
        assert math.isclose(scored.probability, expected, rel_tol=1e-12)
        assert np.allclose(scored.attention, alpha, rtol=1e-12)

    def test_zero_head_gives_half(self):
        params = two_dim_params(head=[0.0] * 6)
        params.tensors["head_b"] = np.zeros(1)
        scored = score_candidates(params, ["a", "b"],
                                  [np.array([1.0, 2.0]), np.array([-3.0, 0.5])],
                                  np.array([[1.0, 1.0]]), np.array([0.3, 0.4]))
        assert all(s.probability == 0.5 for s in scored)

    def test_duplicate_candidates_identical(self):
        params = two_dim_params()
        cand = np.array([0.2, -0.4])
        scored = score_candidates(params, ["x", "x"], [cand, cand.copy()],
                                  np.array([[1.0, 0.0]]), np.array([1.0, 1.0]))
        assert scored[0].probability == scored[1].probability

    def test_probability_complement(self):
        params = two_dim_params()
        (scored,) = score_candidates(params, ["c"], [np.array([3.0, -1.0])],
                                     np.zeros((0, 2)), np.array([0.5, 0.5]))
        assert 0.0 < scored.probability < 1.0
        assert (1.0 - scored.probability) + scored.probability == 1.0

    def test_head_shape_mismatch_rejected(self, tmp_path):
        """A head of the wrong length is stopped where it enters: on checkpoint load."""
        params = init_model_params(ModelConfig(**TOY_CONFIG), {"category": {"x": 1}}, seed=0)
        params.tensors["head_w"] = params.tensors["head_w"][:-1]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        with pytest.raises(ConfigError, match=r"'head_w' is \(23,\), expected \(24,\)") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)


def paper_params(seed=0, **flags):
    """Paper-default dims (article dim 320, embed dim 256) with random weights."""
    cfg = ModelConfig(attr_names=["category"], **flags)
    return init_model_params(cfg, {"category": {"x": 1}}, seed=seed)


def oracle_scores(params, cands, hist, profile):
    """Per-candidate probabilities and attention from the single-vector flow helpers."""
    cfg, t = params.config, params.tensors
    probs, alphas = [], []
    for cand in cands:
        parts = [instant_rep(params, cand, hist)] if cfg.instant_flow else []
        if cfg.constant_flow:
            parts.append(constant_rep(params, profile, cand))
        z = t["head_w"] @ np.concatenate(parts + [cand]) + t["head_b"][0]
        probs.append(1.0 / (1.0 + math.exp(-z)))
        alphas.append(attention_weights(params, cand, hist) if cfg.instant_flow and len(hist)
                      else np.zeros(0))
    return np.array(probs), alphas


class TestBatchedScorer:
    FLAGS = [{}, {"flow_gate": False}, {"constant_flow": False}, {"instant_flow": False}]

    @pytest.mark.parametrize("n_hist", [50, 0])
    @pytest.mark.parametrize("flags", FLAGS)
    def test_thousand_candidates_match_single_vector_helpers(self, flags, n_hist):
        params = paper_params(seed=4, **flags)
        rng = np.random.default_rng(8)
        d = params.config.article_dim
        cands = 0.1 * rng.normal(size=(1000, d))
        hist = 0.1 * rng.normal(size=(n_hist, d))
        profile = rng.normal(size=params.config.embed_dim)
        profile /= np.linalg.norm(profile)
        scored = score_candidates(params, [f"c{i}" for i in range(1000)], cands, hist, profile)
        probs, alphas = oracle_scores(params, cands, hist, profile)
        np.testing.assert_allclose([s.probability for s in scored], probs, rtol=1e-12, atol=0)
        for s, alpha in zip(scored, alphas):
            assert s.attention.shape == alpha.shape
            np.testing.assert_allclose(s.attention, alpha, rtol=1e-12, atol=0)

    def test_duplicated_candidate_bit_identical_at_any_position(self):
        rng = np.random.default_rng(12)
        models = [paper_params(seed=1, **flags) for flags in self.FLAGS]
        d = models[0].config.article_dim
        for trial in range(200):
            params = models[trial % len(models)]
            m = int(rng.integers(2, 1001))
            cands = 0.1 * rng.normal(size=(m, d))
            hist = 0.1 * rng.normal(size=(int(rng.integers(0, 51)), d))
            # Random rows plus the first and the last, where blocked kernels take edge paths.
            spots = np.unique(np.concatenate([[0, m - 1], rng.choice(m, size=min(m, 6), replace=False)]))
            cands[spots] = cands[spots[0]]
            scored = score_candidates(params, [str(i) for i in range(m)], cands, hist,
                                      rng.normal(size=params.config.embed_dim))
            first = scored[spots[0]]
            for i in spots[1:]:
                assert scored[i].probability == first.probability, f"trial {trial}, rows {spots}"
                assert np.array_equal(scored[i].attention, first.attention)


class TestCandidateScores:
    """score_candidates' arrays read as the eager list of ScoredCandidate built from them."""

    @staticmethod
    def same(a, b):
        return (a.article_id == b.article_id and type(a.probability) is float and a.probability == b.probability
                and a.attention.shape == b.attention.shape and np.array_equal(a.attention, b.attention))

    @pytest.mark.parametrize("n_hist", [9, 0])
    def test_reads_as_the_eager_list(self, n_hist):
        params = paper_params(seed=2)
        rng = np.random.default_rng(5)
        d = params.config.article_dim
        scores = score_candidates(params, [f"c{i}" for i in range(7)], 0.1 * rng.normal(size=(7, d)),
                                  0.1 * rng.normal(size=(n_hist, d)), rng.normal(size=params.config.embed_dim))
        assert scores.probabilities.shape == (7,) and scores.attention.shape == (7, n_hist)
        eager = [ScoredCandidate(a, p, alpha) for a, p, alpha in
                 zip(scores.article_ids, scores.probabilities.tolist(), scores.attention)]
        assert len(scores) == 7
        for i in range(-7, 7):
            assert self.same(scores[i], eager[i])
        for part in [slice(None, 3), slice(2, -1), slice(None, None, -2), slice(10, 20)]:
            assert len(scores[part]) == len(eager[part])
            assert all(map(self.same, scores[part], eager[part]))
        assert len(list(scores)) == 7 and all(map(self.same, scores, eager))
        first, *middle, last = scores
        assert self.same(first, eager[0]) and self.same(last, eager[-1]) and len(middle) == 5
        for i in (7, -8):
            with pytest.raises(IndexError):
                scores[i]


class TestFlowBackward:
    """Both layouts of flow_backward's attention sums give the per-slot gradients."""

    # (rows, states, candidate slots per state, history, states per slot group; 0 = row space)
    @pytest.mark.parametrize("n_rows,n_states,n_cands,hist_len,group", [
        (10, 4, 2, 5, 0),     # few rows shared by the states
        (40, 8, 64, 5, 4),    # many candidates per state: two groups of four states
    ], ids=["row space", "slot space"])
    def test_matches_per_slot_reference(self, n_rows, n_states, n_cands, hist_len, group):
        rng = np.random.default_rng(3)
        d = 6
        cfg = ModelConfig(attr_out_dim=2, text_proj_dim=2, constant_flow=False)
        params = ModelParams(config=cfg, vocabs={}, tensors={
            "attn_w": rng.normal(size=(d, d)), "head_w": rng.normal(size=2 * d), "head_b": np.zeros(1)})
        hist = rng.normal(size=(n_rows, d))
        hist_idx = rng.integers(0, n_rows, size=(n_states, hist_len))
        hist_idx[0, 1] = hist_idx[0, 3] = hist_idx[-1, 0]  # one row twice in a history and in two
        mask = np.ones(hist_idx.shape, dtype=bool)
        mask[1, 3:] = False  # a padded history
        hist_idx[1, 3:] = 0
        cands = rng.normal(size=(n_states, n_cands, d))
        g_z = rng.normal(size=(n_states, n_cands))
        g_z[2, 1:] = 0.0  # padded candidate slots
        assert slot_groups(n_rows, n_states, np.count_nonzero(g_z), hist_len, d) == group
        profile_embs = np.zeros((n_states, 0))  # constant flow is off
        _, cache = flow_forward(params, cands, hist, hist_idx, profile_embs, mask)
        g_cands, g_hist, grads = flow_backward(params, cands, hist, hist_idx, profile_embs, cache, g_z)

        W, w_ins, w_cand = params.tensors["attn_w"], params.tensors["head_w"][:d], params.tensors["head_w"][d:]
        want_w, want_cands, want_hist = np.zeros((d, d)), np.zeros_like(cands), np.zeros_like(hist)
        for s in range(n_states):
            used = [int(r) for r, m in zip(hist_idx[s], mask[s]) if m]
            for i in range(n_cands):
                c, alpha = cands[s, i], cache["alpha"][s, i]
                z_ins = sum(alpha[slot] * (hist[r] @ w_ins) for slot, r in enumerate(used))
                want_cands[s, i] += g_z[s, i] * w_cand
                for slot, r in enumerate(used):
                    g_score = g_z[s, i] * alpha[slot] * (hist[r] @ w_ins - z_ins)
                    want_w += g_score * np.outer(c, hist[r])
                    want_cands[s, i] += g_score * (W @ hist[r])
                    want_hist[r] += g_score * (c @ W) + g_z[s, i] * alpha[slot] * w_ins
        np.testing.assert_allclose(grads["attn_w"], want_w, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(g_cands, want_cands, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(g_hist, want_hist, rtol=1e-12, atol=1e-12)


class TestAblationShapes:
    def base(self, **flags):
        cfg = ModelConfig(**TOY_CONFIG, **flags)
        arts = [make_article("a1", category="x"), make_article("a2", category="y")]
        vocabs = build_vocabs(arts, cfg.attr_names)
        return init_model_params(cfg, vocabs, seed=0)

    def test_user_dim_shrinks_per_flow(self):
        full = self.base()
        no_instant = self.base(instant_flow=False)
        no_constant = self.base(constant_flow=False)
        d = full.config.article_dim
        assert full.config.user_dim == 2 * d
        assert no_instant.config.user_dim == d
        assert no_constant.config.user_dim == d
        assert no_instant.n_parameters() < full.n_parameters()
        assert no_constant.n_parameters() < full.n_parameters()

    def test_both_flows_off_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(**TOY_CONFIG, instant_flow=False, constant_flow=False).validate()

    def test_repeated_attr_names_rejected(self):
        # Both columns would share one embedding table, whose gradient the
        # backward would then overwrite instead of sum.
        cfg = ModelConfig(**{**TOY_CONFIG, "attr_names": ["category", "category"]})
        with pytest.raises(ConfigError, match="attr_names repeats"):
            cfg.validate()
        with pytest.raises(ConfigError, match="attr_names repeats"):
            init_model_params(cfg, {"category": {"x": 1}}, seed=0)

    def test_stale_head_rejected_on_validate(self):
        params = self.base()
        params.config = params.config.ablated(instant_flow=False)
        with pytest.raises(ConfigError):
            params.validate_shapes()


class TestScorer:
    def _scorer(self, toy_corpus, **flags):
        cfg = ModelConfig(**{**TOY_CONFIG, **flags} if flags else TOY_CONFIG)
        vocabs = build_vocabs(list(toy_corpus.values()), cfg.attr_names)
        params = init_model_params(cfg, vocabs, seed=3)
        provider = ProfileProvider(toy_corpus, TEMPLATES["user_profile_mind"],
                                   StubCompletionClient())
        return Scorer(params, HashedTextEmbedder(cfg.embed_dim), toy_corpus, provider)

    def test_eval_mode_bit_deterministic(self, toy_corpus):
        imp = make_impression("i1", history=["a1", "a2"],
                              candidates=[("a3", 1), ("a4", 0)])
        a = self._scorer(toy_corpus).score(imp)
        b = self._scorer(toy_corpus).score(imp)
        assert [s.probability for s in a] == [s.probability for s in b]

    def test_cold_start_empty_history(self, toy_corpus):
        imp = make_impression("i1", history=[], candidates=[("a1", 1)])
        (scored,) = self._scorer(toy_corpus).score(imp)
        assert 0.0 < scored.probability < 1.0
        assert scored.attention.size == 0

    def test_unknown_article_is_unknown_id_error(self, toy_corpus):
        with pytest.raises(UnknownIdError, match="ghost"):
            self._scorer(toy_corpus).rep("ghost")

    def test_unknown_ids_are_dropped(self, toy_corpus):
        scorer = self._scorer(toy_corpus)
        ghostly = scorer.score(make_impression("i1", history=["a1", "ghost"],
                                               candidates=[("a2", 1), ("ghost", 0), ("a3", 0)]))
        known = scorer.score(make_impression("i1", history=["a1"], candidates=[("a2", 1), ("a3", 0)]))
        assert [(s.article_id, s.probability) for s in ghostly] == [(s.article_id, s.probability) for s in known]
        assert scorer.score(make_impression("i2", candidates=[("ghost", 1)])) == []

    def test_no_candidates_rejected(self, toy_corpus):
        imp = make_impression("i1", candidates=[])
        with pytest.raises(ValueError):
            self._scorer(toy_corpus).score(imp)

    @pytest.mark.parametrize("n_articles", [1, 4, 37])
    def test_reps_are_one_encode_call(self, toy_corpus, monkeypatch, n_articles):
        """The reps of a prebuilt table are encoded in one call, not one per article."""
        corpus = {f"n{i}": make_article(f"n{i}", title=f"title {i}", body=f"body {i % 3}.",
                                        category="xyz"[i % 3]) for i in range(n_articles)}
        cfg = ModelConfig(**TOY_CONFIG)
        params = init_model_params(cfg, build_vocabs(list(corpus.values()), cfg.attr_names), seed=3)
        feats = FeatureSource(params, corpus, HashedTextEmbedder(cfg.embed_dim))
        real, calls = encode.encode_attributes_batch, []
        monkeypatch.setattr(encode, "encode_attributes_batch",
                            lambda *args, **kwargs: calls.append(args[1].shape) or real(*args, **kwargs))
        reps = Scorer(params, feats, corpus).reps
        assert len(calls) == 1
        assert reps.shape == (n_articles, cfg.article_dim)


class TestCheckpoint:
    def test_round_trip_preserves_scores(self, tmp_path, toy_corpus):
        cfg = ModelConfig(**TOY_CONFIG)
        vocabs = build_vocabs(list(toy_corpus.values()), cfg.attr_names)
        params = init_model_params(cfg, vocabs, seed=9)
        path = tmp_path / "model.ckpt"
        tag = save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.version_tag == tag
        assert loaded.config == params.config
        assert loaded.vocabs == params.vocabs

        imp = make_impression("i", history=["a1"], candidates=[("a2", 1), ("a3", 0)])
        embedder = HashedTextEmbedder(cfg.embed_dim)
        provider = ProfileProvider(toy_corpus, TEMPLATES["user_profile_mind"], StubCompletionClient())
        once = [s.probability for s in Scorer(loaded, embedder, toy_corpus, provider).score(imp)]
        twice = [s.probability for s in Scorer(load_checkpoint(path), embedder, toy_corpus,
                                               provider).score(imp)]
        assert once == twice

    def test_saved_tensors_load_bit_equal(self, tmp_path, toy_corpus):
        cfg = ModelConfig(**TOY_CONFIG)
        params = init_model_params(cfg, build_vocabs(list(toy_corpus.values()), cfg.attr_names), seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.version_tag == params.version_tag
        assert list(loaded.tensors) == list(params.tensors)
        for name, tensor in params.tensors.items():
            assert loaded.tensors[name].dtype == np.float64
            assert loaded.tensors[name].tobytes() == tensor.tobytes(), name

    def test_same_params_same_tag(self, tmp_path, toy_corpus):
        cfg = ModelConfig(**TOY_CONFIG)
        vocabs = build_vocabs(list(toy_corpus.values()), cfg.attr_names)
        params = init_model_params(cfg, vocabs, seed=9)
        tag_a = save_checkpoint(tmp_path / "a.ckpt", params)
        tag_b = save_checkpoint(tmp_path / "b.ckpt", params)
        assert tag_a == tag_b
        other = init_model_params(cfg, vocabs, seed=10)
        assert save_checkpoint(tmp_path / "c.ckpt", other) != tag_a

    def test_tampered_flags_rejected(self, tmp_path, toy_corpus):
        cfg = ModelConfig(**TOY_CONFIG)
        vocabs = build_vocabs(list(toy_corpus.values()), cfg.attr_names)
        params = init_model_params(cfg, vocabs, seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        loaded.config = loaded.config.ablated(instant_flow=False)
        with pytest.raises(ConfigError):
            loaded.validate_shapes()

    @pytest.mark.parametrize("part", ["magic", "header length", "header", "tensor name",
                                      "tensor shape", "tensor data", "last bytes"])
    def test_truncated_checkpoint_is_config_error(self, tmp_path, toy_corpus, part):
        cfg = ModelConfig(**TOY_CONFIG)
        params = init_model_params(cfg, build_vocabs(list(toy_corpus.values()), cfg.attr_names), seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        path.write_bytes(raw[:container_cuts(raw)[part]])
        with pytest.raises(ConfigError, match=r"is truncated: .* needs \d+ bytes"):
            load_checkpoint(path)

    def test_garbled_shape_is_config_error(self, tmp_path, toy_corpus):
        cfg = ModelConfig(**TOY_CONFIG)
        params = init_model_params(cfg, build_vocabs(list(toy_corpus.values()), cfg.attr_names), seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        raw = bytearray(path.read_bytes())
        at = container_cuts(bytes(raw))["tensor shape"] - 2  # the first tensor's first dim
        assert raw[at - 1] == 2  # two dims whose u32 product wraps a signed 64-bit count
        raw[at:at + 8] = b"\xff" * 8
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError, match=r"tensor .*'s data needs \d+ bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("garble,message", [
        (lambda h: {"kind": "checkpoint", "format_version": 1}, "header key 'config' is missing"),
        (lambda h: {**h, "config": [1]}, "'config' is missing or not dict"),
        (lambda h: {**h, "config": {**h["config"], "heads": 2}}, "unknown model config keys"),
        (lambda h: {k: v for k, v in h.items() if k != "vocabs"}, "'vocabs' is missing"),
        (lambda h: {**h, "vocabs": [1]}, "'vocabs' is missing or not dict"),
        (lambda h: {**h, "vocabs": {"category": {"x": 1.5}}}, "vocab 'category' .* tokens 1..n"),
        (lambda h: {**h, "format_version": 2}, "unsupported checkpoint format version 2"),
        (lambda h: {**h, "version_tag": 7}, "'version_tag' is missing or not str"),
        (lambda h: {**h, "config": {**h["config"], "embed_dim": "5"}}, r"keys \['embed_dim'\] are not"),
        (lambda h: {**h, "config": {**h["config"], "attr_names": [["category"]]}}, r"\['attr_names'\]"),
        (lambda h: {**h, "vocabs": {}}, "vocab 'category' is missing"),
        (lambda h: {**h, "vocabs": {"category": {"x": 1, "y": 1}}}, "vocab 'category' .* tokens 1..n"),
    ], ids=["kind-and-version-only", "config-a-list", "unknown-config-key", "no-vocabs",
            "vocabs-a-list", "index-not-an-integer", "format-version-2", "version-tag-a-number",
            "config-dim-a-string", "attr-name-a-list", "attr-without-vocab", "index-repeated"])
    def test_garbled_header_is_config_error_naming_the_file(self, tmp_path, toy_corpus, garble, message):
        cfg = ModelConfig(**TOY_CONFIG)
        params = init_model_params(cfg, build_vocabs(list(toy_corpus.values()), cfg.attr_names), seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        header, tensors = checkpoint.read_tensor_file(path)
        checkpoint.write_tensor_file(path, garble(header), tensors)
        with pytest.raises(ConfigError, match=message) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_every_prefix_and_bit_flip_is_config_error_or_loads_equal(self, tmp_path, toy_corpus):
        """Every prefix of a checkpoint, and 3,000 seeded single-bit flips of it, either
        raise a ConfigError naming the file or load equal to the original."""
        cfg = ModelConfig(**TOY_CONFIG)
        params = init_model_params(cfg, build_vocabs(list(toy_corpus.values()), cfg.attr_names), seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        original = load_checkpoint(path)
        garbled = {f"first {n} bytes": raw[:n] for n in range(len(raw))}
        for bit in np.random.default_rng(0).integers(8 * len(raw), size=3000).tolist():
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            garbled[f"bit {bit} flipped"] = bytes(flipped)
        for what, data in garbled.items():
            path.write_bytes(data)
            try:
                loaded = load_checkpoint(path)
            except ConfigError as exc:
                assert str(path) in str(exc), what
                continue
            except Exception as exc:
                pytest.fail(f"{what}: {type(exc).__name__}: {exc}")
            assert (loaded.version_tag, loaded.config, loaded.vocabs) == (
                original.version_tag, original.config, original.vocabs), what
            assert all(np.array_equal(loaded.tensors[n], t) for n, t in original.tensors.items()), what

    def test_flipped_tensor_byte_is_config_error_naming_the_file(self, tmp_path, toy_corpus):
        cfg = ModelConfig(**TOY_CONFIG)
        params = init_model_params(cfg, build_vocabs(list(toy_corpus.values()), cfg.attr_names), seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01  # the last float64's sign-and-exponent byte: still finite, of the right shape
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError, match="does not match its version_tag") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_signalling_nan_is_config_error_without_a_warning(self, tmp_path, toy_corpus):
        """The last stored number made a signalling NaN: in a float64 checkpoint as
        written today, and in a float32 one as written before."""
        cfg = ModelConfig(**TOY_CONFIG)
        params = init_model_params(cfg, build_vocabs(list(toy_corpus.values()), cfg.attr_names), seed=9)
        f64_path, f32_path = tmp_path / "f64.ckpt", tmp_path / "f32.ckpt"
        save_checkpoint(f64_path, params)
        header = checkpoint.checkpoint_header(params)
        stored = {name: t.astype(np.float32) for name, t in params.tensors.items()}
        header["version_tag"] = checkpoint.content_digest(header, stored)
        checkpoint.write_tensor_file(f32_path, header, stored)
        for path, snan in ((f64_path, struct.pack("<Q", 0x7FF4000000000000)),
                           (f32_path, struct.pack("<I", 0x7FA00000))):
            raw = bytearray(path.read_bytes())
            raw[-len(snan):] = snan
            path.write_bytes(bytes(raw))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigError, match="does not match its version_tag") as err:
                    load_checkpoint(path)
            assert str(path) in str(err.value)

    def test_edited_header_is_config_error_naming_the_file(self, tmp_path, toy_corpus):
        """A flag that changes no tensor's shape, edited in place, still changes the content."""
        cfg = ModelConfig(**TOY_CONFIG)
        params = init_model_params(cfg, build_vocabs(list(toy_corpus.values()), cfg.attr_names), seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        header, tensors = checkpoint.read_tensor_file(path)
        header["config"]["use_summaries"] = not header["config"]["use_summaries"]
        checkpoint.write_tensor_file(path, header, tensors)
        with pytest.raises(ConfigError, match="does not match its version_tag") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_failed_write_leaves_previous_file(self, tmp_path, toy_corpus, monkeypatch):
        cfg = ModelConfig(**TOY_CONFIG)
        params = init_model_params(cfg, build_vocabs(list(toy_corpus.values()), cfg.attr_names), seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        before = path.read_bytes()
        real, written = checkpoint._tensor_bytes, []

        def fail_on_second(name, array):
            written.append(name)
            if len(written) == 2:
                raise OSError("disk full")
            return real(name, array)

        monkeypatch.setattr(checkpoint, "_tensor_bytes", fail_on_second)
        with pytest.raises(OSError, match="disk full"):
            checkpoint.write_tensor_file(path, {"kind": "checkpoint"},
                                         {n: t + 1.0 for n, t in params.tensors.items()})
        assert len(written) == 2
        assert path.read_bytes() == before
        assert load_checkpoint(path).version_tag == params.version_tag
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

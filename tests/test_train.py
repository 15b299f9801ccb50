import hashlib
import math
import sys
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from conftest import TOY_CONFIG
from flowrec.checkpoint import (
    checkpoint_header,
    content_digest,
    ensure_version_tag,
    load_checkpoint,
    save_checkpoint,
)
from flowrec.data import DataFormatError, Impression, SyntheticSpec, generate_synthetic, split_by_time
from flowrec.encode import HashedTextEmbedder, build_vocabs
from flowrec.metrics import evaluate_rankings
from flowrec.model import ModelConfig, Scorer, init_model_params, score_candidates, slot_groups
from flowrec.summarize import TEMPLATES, CompletionError, ProfileProvider, StubCompletionClient
from flowrec.train import (
    ExampleIndex,
    FeatureSource,
    IndexedBatch,
    TrainConfig,
    TrainingError,
    _forward,
    _gather,
    adam_init,
    adam_step,
    backward_batch,
    evaluate_params,
    finite_difference_grads,
    loss_batch,
    train,
)


class Example(NamedTuple):
    user_id: str
    history: tuple[str, ...]
    candidate_id: str
    label: int


def reference_examples(impressions, corpus) -> list[Example]:
    """The Python reference for what impressions contribute to training: each
    candidate in the corpus, positives first, with the user and the history's
    ids in the corpus."""
    return [Example(imp.user_id, tuple(a for a in imp.history if a in corpus), a, y) for imp in impressions
            for a, y in sorted([c for c in imp.candidates if c[0] in corpus], key=lambda c: -c[1])]


def as_impressions(examples) -> list[Impression]:
    """One impression of one candidate per example, in order."""
    return [Impression(f"x{j}", ex.user_id, 0, list(ex.history), [(ex.candidate_id, ex.label)])
            for j, ex in enumerate(examples)]


def indexed(examples, feats) -> IndexedBatch:
    """The examples as one batch, in order, of an index of their own."""
    return IndexedBatch(ExampleIndex(as_impressions(examples), feats), np.arange(len(examples)))


def toy_setup(seed=3, flags=None, batch_norm=False, dropout=0.0):
    ds = generate_synthetic(SyntheticSpec(n_users=4, n_articles=12, n_impressions=6,
                                          topic_count=3, seed=seed, history_length=3,
                                          candidates_per_impression=3))
    corpus = ds.corpus
    cfg = ModelConfig(attr_names=["category", "engagement"], embed_dim=5, text_proj_dim=3,
                      attr_embed_dim=2, attr_hidden_dim=3, attr_out_dim=2,
                      batch_norm=batch_norm, **(flags or {}))
    vocabs = build_vocabs(ds.articles, cfg.attr_names)
    params = init_model_params(cfg, vocabs, seed=11)
    provider = ProfileProvider(corpus, TEMPLATES["user_profile_mind"], StubCompletionClient())
    feats = FeatureSource(params, corpus, HashedTextEmbedder(cfg.embed_dim), provider)
    examples = reference_examples(ds.impressions, corpus)[:5]
    examples.append(Example("u0", (), examples[0].candidate_id, 1))  # cold start
    return ds, params, feats, examples


def assert_matches_central_difference(params, feats, batch, dropout, mode="train"):
    """Analytic gradients of every trainable tensor agree with the finite-difference oracle."""
    batch = indexed(batch, feats)

    def loss_fn():
        return loss_batch(params, batch, feats, mode=mode,
                          rng=np.random.default_rng(99), dropout=dropout)

    _, grads = backward_batch(params, batch, feats, mode=mode,
                              rng=np.random.default_rng(99), dropout=dropout)
    fd = finite_difference_grads(loss_fn, params)
    assert set(grads) == set(params.trainable_names())
    for name in params.trainable_names():
        denom = np.maximum(1e-6, np.maximum(np.abs(grads[name]), np.abs(fd[name])))
        rel = np.abs(grads[name] - fd[name]) / denom
        assert rel.max() < 1e-4, f"{name}: rel err {rel.max():.2e}"


class TestLoss:
    def test_half_probability_is_ln2(self):
        _, params, feats, examples = toy_setup()
        params.tensors["head_w"][...] = 0.0
        params.tensors["head_b"][...] = 0.0
        loss = loss_batch(params, indexed(examples[:1], feats), feats, mode="eval")
        assert math.isclose(loss, math.log(2.0), rel_tol=1e-12)

    def test_clamp_edge(self):
        # saturate the head so p -> 1; clamped CE is about 1e-7 for y=1
        _, params, feats, examples = toy_setup()
        positive = [ex for ex in examples if ex.label == 1][:1]
        params.tensors["head_w"][...] = 0.0
        params.tensors["head_b"][...] = 80.0
        loss = loss_batch(params, indexed(positive, feats), feats, mode="eval")
        assert math.isclose(loss, -math.log(1.0 - 1e-7), rel_tol=1e-3)
        assert loss < 2e-7

    def test_mean_of_per_example_losses(self):
        _, params, feats, examples = toy_setup()
        batch = examples[:4]
        total = sum(loss_batch(params, indexed([ex], feats), feats, mode="eval") for ex in batch)
        batched = loss_batch(params, indexed(batch, feats), feats, mode="eval")
        assert math.isclose(batched, total / 4.0, rel_tol=1e-12)

    def test_nonfinite_loss_aborts_with_dump(self):
        _, params, feats, examples = toy_setup()
        params.tensors["head_w"][...] = np.nan
        with pytest.raises(TrainingError) as err:
            backward_batch(params, indexed(examples[:2], feats), feats, mode="eval")
        assert "examples" in err.value.dump

    def test_nonfinite_gradient_aborts_with_dump(self):
        _, params, feats, examples = toy_setup()
        # An infinite profile bias saturates every gated logit: every probability clamps,
        # so the loss stays finite while inf * 0 reaches the constant-flow head gradient.
        params.tensors["profile_b"][params.config.attr_out_dim] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(TrainingError, match="non-finite gradient") as err:
            batch = indexed(examples, feats)
            assert np.isfinite(loss_batch(params, batch, feats, mode="eval"))
            backward_batch(params, batch, feats, mode="eval")
        bad = err.value.dump["nonfinite_gradients"]
        assert "head_w" in bad and all(n > 0 for n in bad.values())
        assert "examples" in err.value.dump


class TestGradients:
    @pytest.mark.parametrize("batch_norm,dropout,flags", [
        (False, 0.0, {}),
        (True, 0.1, {}),
        (True, 0.0, {"flow_gate": False}),
        (False, 0.1, {"constant_flow": False}),
        (False, 0.0, {"instant_flow": False}),
        (False, 0.0, {"use_instruct_u": False}),
    ])
    def test_analytic_matches_central_difference(self, batch_norm, dropout, flags):
        _, params, feats, examples = toy_setup(batch_norm=batch_norm, dropout=dropout,
                                               flags=flags)
        assert_matches_central_difference(params, feats, examples, dropout)

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_eval_mode_batch_norm_matches_central_difference(self, dropout):
        """Batch norm on its running statistics, away from their initial 0 and 1;
        in eval mode a configured dropout drops nothing, forward or backward."""
        _, params, feats, examples = toy_setup(batch_norm=True)
        rng = np.random.default_rng(5)
        params.tensors["bn_mean"][...] = rng.normal(size=3)
        params.tensors["bn_var"][...] = rng.uniform(0.5, 2.0, size=3)
        assert_matches_central_difference(params, feats, examples, dropout, mode="eval")

    def test_untouched_attribute_rows_zero(self):
        ds, params, feats, examples = toy_setup()
        _, grads = backward_batch(params, indexed(examples[:2], feats), feats, mode="eval")
        touched = set()
        for ex in examples[:2]:
            for art_id in (*ex.history, ex.candidate_id):
                row = feats.article_features(art_id)[2]
                touched.add(int(row[0]))
        table = grads["attr_embed/category"]
        for row_idx in range(table.shape[0]):
            if row_idx not in touched:
                assert not table[row_idx].any()

    def test_saturated_example_contributes_zero(self):
        _, params, feats, examples = toy_setup()
        positive = [ex for ex in examples if ex.label == 1][:1]
        params.tensors["head_w"][...] = 0.0
        params.tensors["head_b"][...] = 80.0  # p clamps to 1 - 1e-7
        _, grads = backward_batch(params, indexed(positive, feats), feats, mode="eval")
        assert all(not g.any() for g in grads.values())

    def test_frozen_embedder_gets_no_gradient(self):
        _, params, feats, examples = toy_setup()
        _, grads = backward_batch(params, indexed(examples, feats), feats, mode="eval")
        assert all(not name.startswith("embed") for name in grads)
        assert set(grads) <= set(params.trainable_names())


class TestGroupedBackward:
    """One flow call per (user, history); its gradients reach every row they should."""

    @pytest.mark.parametrize("batch_norm,dropout,flags", [
        (False, 0.0, {}),
        (False, 0.0, {"flow_gate": False}),
        (True, 0.1, {}),
        (False, 0.0, {"instant_flow": False}),
        (False, 0.0, {"constant_flow": False}),
    ])
    def test_edge_case_batch_matches_central_difference(self, batch_norm, dropout, flags):
        ds, params, feats, _ = toy_setup(batch_norm=batch_norm, dropout=dropout, flags=flags)
        a = [art.article_id for art in ds.articles]
        shared = (a[0], a[1], a[2])
        batch = [
            Example("u1", shared, a[3], 1),  # three candidates share one user state
            Example("u1", shared, a[4], 0),
            Example("u1", shared, a[5], 0),
            Example("u2", (), a[3], 0),  # empty history
            Example("u3", (a[6], a[7], a[6]), a[8], 1),  # an article twice in one history
            Example("u0", (a[9], a[10]), a[9], 1),  # a candidate inside its own history
        ]
        assert_matches_central_difference(params, feats, batch, dropout)


def padded_state_batch(ds):
    """One batch whose user states have histories of 0, 1, 3 and 12 rows (one
    of them holding an article twice) and 1 to 6 candidates each, interleaved."""
    a = [art.article_id for art in ds.articles]
    states = [("u0", (), 2), ("u1", (a[5],), 6), ("u2", (a[1], a[2], a[1]), 1),
              ("u3", tuple(a[:12]), 4)]
    per_state = [[Example(user, history, a[(3 * k + j) % 12], (k + j) % 2)
                  for j in range(count)] for k, (user, history, count) in enumerate(states)]
    batch = []
    while any(per_state):
        batch.extend(group.pop() for group in per_state if group)
    return batch


def assert_logits_match_per_state_scoring(params, feats, batch):
    """Each user state's probabilities in the batch agree with score_candidates on
    that state alone, and its padded history slots get no attention; returns the cache."""
    _, probs, cache = _forward(params, indexed(batch, feats), feats, "eval", None, 0.0)
    reps, alpha = cache["reps"], cache["flow"]["alpha"]
    # Rep rows follow first appearance in the batch; states too.
    row_of = {a: i for i, a in enumerate(dict.fromkeys(
        a for ex in batch for a in (*ex.history, ex.candidate_id)))}
    states = list(dict.fromkeys((ex.user_id, ex.history) for ex in batch))
    for s, (user, history) in enumerate(states):
        js = [j for j, ex in enumerate(batch) if (ex.user_id, ex.history) == (user, history)]
        cand_ids = [batch[j].candidate_id for j in js]
        scored = score_candidates(params, cand_ids, reps[[row_of[a] for a in cand_ids]],
                                  reps[[row_of[a] for a in history]],
                                  feats.profile_embedding(user, history))
        np.testing.assert_allclose(probs[js], scored.probabilities, rtol=1e-12, atol=0)
        assert not alpha[s, :, len(history):].any()  # padded history slots get no attention
    return cache


class TestStateBatchedFlow:
    """All user states of a batch go through one padded flow call."""

    @pytest.mark.parametrize("flags", [{}, {"flow_gate": False}, {"constant_flow": False},
                                       {"instant_flow": False}])
    def test_logits_match_per_state_scoring(self, flags):
        ds, params, feats, _ = toy_setup(batch_norm=True, dropout=0.1, flags=flags)
        alpha = assert_logits_match_per_state_scoring(params, feats, padded_state_batch(ds))["flow"]["alpha"]
        assert alpha.shape[0] == 4 and alpha.shape[2] == (0 if flags.get("instant_flow") is False else 12)

    @pytest.mark.parametrize("batch_norm,dropout,flags", [
        (False, 0.0, {}),
        (True, 0.1, {"flow_gate": False}),
    ])
    def test_padded_batch_matches_central_difference(self, batch_norm, dropout, flags):
        ds, params, feats, _ = toy_setup(batch_norm=batch_norm, dropout=dropout, flags=flags)
        assert_matches_central_difference(params, feats, padded_state_batch(ds), dropout)


def sixty_article_setup(batch_norm=False):
    """A toy model over a 60-article world."""
    ds = generate_synthetic(SyntheticSpec(n_users=4, n_articles=60, n_impressions=6, topic_count=3,
                                          seed=3, history_length=3, candidates_per_impression=3))
    cfg = ModelConfig(attr_names=["category", "engagement"], embed_dim=5, text_proj_dim=3,
                      attr_embed_dim=2, attr_hidden_dim=3, attr_out_dim=2, batch_norm=batch_norm)
    params = init_model_params(cfg, build_vocabs(ds.articles, cfg.attr_names), seed=11)
    provider = ProfileProvider(ds.corpus, TEMPLATES["user_profile_mind"], StubCompletionClient())
    return ds, params, FeatureSource(params, ds.corpus, HashedTextEmbedder(cfg.embed_dim), provider)


def test_slot_layout_in_two_groups_matches_central_difference():
    """11 user states of 24 candidates over 60 rows: the attention backward takes
    the slot layout, in two groups of states."""
    ds, params, feats = sixty_article_setup()
    a = [art.article_id for art in ds.articles]
    histories = [tuple(a[3 * k:3 * k + 3]) for k in range(10)] + [(a[0], a[5], a[0])]  # shared, repeated
    batch = [Example(f"u{k}", history, a[(7 * k + j) % 60], (k + j) % 2)
             for k, history in enumerate(histories) for j in range(24)]
    _, _, cache = _forward(params, indexed(batch, feats), feats, "eval", None, 0.0)
    n_states, width, d = cache["cands"].shape
    assert (len(cache["reps"]), n_states, width) == (60, 11, 24)
    assert slot_groups(len(cache["reps"]), n_states, len(batch), cache["hist_idx"].shape[1], d) == 10  # 2 groups
    assert_matches_central_difference(params, feats, batch, 0.0)


def ragged_slot_batch(ds):
    """11 user states over 60 rows, with 0 to 5 history rows (one holding a row
    twice) and 1 to 24 candidates each."""
    a = [art.article_id for art in ds.articles]
    histories = [tuple(a[5 * k:5 * k + k % 6]) for k in range(10)] + [(a[0], a[5], a[0])]
    widths = [24] + [1 + 5 * k % 23 for k in range(1, 11)]
    return [Example(f"u{k}", history, a[(7 * k + j) % 60], (k + j) % 2)
            for k, (history, width) in enumerate(zip(histories, widths)) for j in range(width)]


@pytest.mark.parametrize("make_batch,groups", [(ragged_slot_batch, 2), (padded_state_batch, 0)],
                         ids=["slot layout", "row layout"])
def test_ragged_batch_matches_central_difference(make_batch, groups):
    """Ragged user states, with padded history and candidate slots and states
    without history, through each layout of the flow (0 groups: row layout)."""
    ds, params, feats = sixty_article_setup(batch_norm=True)
    batch = make_batch(ds)
    cache = assert_logits_match_per_state_scoring(params, feats, batch)
    n_states, width = cache["cands"].shape[:2]
    assert n_states * width > len(batch) and len({len(ex.history) for ex in batch}) > 2
    assert any(not ex.history for ex in batch) and any(len(set(ex.history)) < len(ex.history) for ex in batch)
    group = cache["flow"]["group"]
    assert (group and -(-n_states // group)) == groups
    assert_matches_central_difference(params, feats, batch, 0.1)


def index_world(ds):
    """The toy world's impressions plus one-candidate impressions of a user state
    without history and of one whose history holds an article twice (and a
    candidate from inside it); and their examples."""
    a = [art.article_id for art in ds.articles]
    impressions = ds.impressions + as_impressions(
        [Example("u2", (), a[j], j % 2) for j in (3, 4, 5)]
        + [Example("u3", (a[6], a[7], a[6]), a[j], (j + 1) % 2) for j in (8, 9, 6)])
    return impressions, reference_examples(impressions, ds.corpus)


def shuffled_batches(n, count=8, seed=5):
    rng = np.random.default_rng(seed)
    return [rng.permutation(n)[:rng.integers(1, n + 1)] for _ in range(count)]


def first_batch(ds, config):
    """train()'s first batch: the first batch_size examples of its seeded shuffle."""
    examples = reference_examples(split_by_time(ds.impressions, config.holdout_fraction)[0], ds.corpus)
    order = np.arange(len(examples))
    np.random.default_rng(config.seed).shuffle(order)
    return [examples[j] for j in order[:config.batch_size]]


class TestExampleIndex:
    """train() resolves its impressions to integers once and gathers each batch from them."""

    def test_index_matches_the_reference_over_impressions(self):
        ds, params, feats, _ = toy_setup()
        a = [art.article_id for art in ds.articles]
        impressions = ds.impressions + [
            Impression("out", "u1", 0, [a[0], "gone", a[1]], [("gone", 1), (a[2], 0), ("lost", 0), (a[3], 1)]),
            Impression("none", "u9", 0, [a[4]], [("gone", 1), ("lost", 0)]),  # no candidate in the table
            Impression("again", "u1", 0, [a[0], a[1]], [(a[5], 0), (a[6], 1)]),  # the state of "out"
            Impression("cold", "u2", 0, [], [(a[7], 0), (a[8], 1), (a[9], 1)]),
        ]
        asked = []
        rows = feats.profile_rows
        feats.profile_rows = lambda keys: asked.append(list(keys)) or rows(keys)
        index = ExampleIndex(impressions, feats)
        want = reference_examples(impressions, ds.corpus)
        assert want[-7:] == [Example("u1", (a[0], a[1]), a[3], 1), Example("u1", (a[0], a[1]), a[2], 0),
                             Example("u1", (a[0], a[1]), a[6], 1), Example("u1", (a[0], a[1]), a[5], 0),
                             Example("u2", (), a[8], 1), Example("u2", (), a[9], 1), Example("u2", (), a[7], 0)]
        states = list(dict.fromkeys((ex.user_id, ex.history) for ex in want))
        assert asked == [states] and index.state_keys == states
        assert all(user != "u9" for user, _ in states)
        assert index.state.tolist() == [states.index((ex.user_id, ex.history)) for ex in want]
        assert index.cand_ids == [ex.candidate_id for ex in want]
        assert index.labels.dtype == np.float64 and index.labels.tolist() == [ex.label for ex in want]
        assert index.cand_row.tolist() == [feats.row_of[ex.candidate_id] for ex in want]
        assert index.hist_len.tolist() == [len(h) for _, h in states]
        assert index.hist_rows.shape == (len(states), max(len(h) for _, h in states))
        for s, (_, history) in enumerate(states):
            assert index.hist_rows[s].tolist() == [feats.row_of[h] for h in history] + [0] * (
                index.hist_rows.shape[1] - len(history))
        assert np.array_equal(index.profile_row, rows(states))

    def test_batch_arrays_match_first_appearance(self):
        ds, params, feats, _ = toy_setup()
        impressions, examples = index_world(ds)
        assert any(not ex.history for ex in examples)
        assert any(len(set(ex.history)) < len(ex.history) for ex in examples)
        index = ExampleIndex(impressions, feats)
        for take in shuffled_batches(len(examples)):
            batch = [examples[j] for j in take]
            g = _gather(IndexedBatch(index, take))
            # The reference builds every array with Python containers, example by example.
            ids = list(dict.fromkeys(a for ex in batch for a in (*ex.history, ex.candidate_id)))
            states = list(dict.fromkeys((ex.user_id, ex.history) for ex in batch))
            assert np.array_equal(g["rows"], feats.rows(ids))
            assert np.array_equal(g["prof_rows"], feats.profile_rows(states))
            assert np.array_equal(g["cand_rows"], [ids.index(ex.candidate_id) for ex in batch])
            assert np.array_equal(g["labels"], [ex.label for ex in batch])
            width = max(len(h) for _, h in states)
            assert g["hist_idx"].shape == g["mask"].shape == (len(states), width)
            for s, (_, history) in enumerate(states):
                assert g["mask"][s].tolist() == [True] * len(history) + [False] * (width - len(history))
                assert g["hist_idx"][s, :len(history)].tolist() == [ids.index(a) for a in history]
                members = [j for j, ex in enumerate(batch) if (ex.user_id, ex.history) == states[s]]
                assert g["slots"][members].tolist() == [s * g["width"] + i for i in range(len(members))]
            assert g["width"] == max(sum(1 for ex in batch if (ex.user_id, ex.history) == k) for k in states)

    @pytest.mark.parametrize("batch_norm,dropout,flags", [
        (False, 0.0, {}),
        (False, 0.0, {"flow_gate": False}),
        (False, 0.0, {"constant_flow": False}),
        (False, 0.0, {"instant_flow": False}),
        (True, 0.1, {}),
    ])
    def test_index_path_is_bit_identical_to_list_path(self, batch_norm, dropout, flags):
        ds, params, feats, _ = toy_setup(batch_norm=batch_norm, dropout=dropout, flags=flags)
        impressions, examples = index_world(ds)
        index = ExampleIndex(impressions, feats)
        for step, take in enumerate(shuffled_batches(len(examples))):
            got_loss, got = backward_batch(params, IndexedBatch(index, take), feats,
                                           rng=np.random.default_rng(step), dropout=dropout)
            want_loss, want = backward_batch(params, indexed([examples[j] for j in take], feats), feats,
                                             rng=np.random.default_rng(step), dropout=dropout)
            assert got_loss == want_loss
            assert got.keys() == want.keys()
            for name in want:
                assert np.array_equal(got[name], want[name]), name

    def test_every_state_profile_is_asked_for_once_before_the_first_step(self, monkeypatch):
        ds = quick_dataset()
        params, embedder, provider = quick_model(ds)
        events = []
        ask = provider.profile_text
        provider.profile_text = lambda user, history: events.append((user, tuple(history))) or ask(user, history)
        step = backward_batch
        monkeypatch.setattr(sys.modules["flowrec.train"], "backward_batch",
                            lambda *args, **kwargs: events.append("step") or step(*args, **kwargs))
        config = TrainConfig(learning_rate=0.01, batch_size=16, max_steps=3, seed=3)
        train(params, ds.corpus, ds.impressions, config, embedder, provider)
        examples = reference_examples(split_by_time(ds.impressions, config.holdout_fraction)[0], ds.corpus)
        expected = list(dict.fromkeys((ex.user_id, ex.history) for ex in examples if ex.history))
        assert len(expected) > len({(ex.user_id, ex.history) for ex in first_batch(ds, config)})
        assert events == expected + ["step"] * 3
        assert provider.client.calls == len(expected)

    def test_a_failed_profile_ends_training_before_its_first_step(self, monkeypatch):
        ds = quick_dataset()
        params, embedder, provider = quick_model(ds)
        client, complete = provider.client, provider.client.complete

        def failing(template_name, prompt, context):
            if client.calls == 30:
                raise CompletionError("the 31st completion fails")
            return complete(template_name, prompt, context)

        client.complete = failing
        steps = []
        step = backward_batch
        monkeypatch.setattr(sys.modules["flowrec.train"], "backward_batch",
                            lambda *args, **kwargs: steps.append(1) or step(*args, **kwargs))
        with pytest.raises(CompletionError, match="31st"):
            train(params, ds.corpus, ds.impressions,
                  TrainConfig(learning_rate=0.01, batch_size=16, max_steps=20, seed=3), embedder, provider)
        assert steps == []

    def test_a_failed_validation_profile_ends_training_before_its_first_step(self, monkeypatch):
        ds = quick_dataset()
        params, embedder, provider = quick_model(ds)
        train_part, val = split_by_time(ds.impressions, EARLY_STOP.holdout_fraction)
        trained = {(ex.user_id, ex.history) for ex in reference_examples(train_part, ds.corpus)}
        key = next((imp.user_id, tuple(imp.history)) for imp in val
                   if imp.history and (imp.user_id, tuple(imp.history)) not in trained)
        ask = provider.profile_text

        def failing(user, history):
            if (user, tuple(history)) == key:
                raise CompletionError("the validation profile fails")
            return ask(user, history)

        provider.profile_text = failing
        steps = []
        step = backward_batch
        monkeypatch.setattr(sys.modules["flowrec.train"], "backward_batch",
                            lambda *args, **kwargs: steps.append(1) or step(*args, **kwargs))
        with pytest.raises(CompletionError, match="validation profile"):
            train(params, ds.corpus, ds.impressions, EARLY_STOP, embedder, provider)
        assert steps == []

    def test_training_error_dump_names_the_batch_examples(self):
        ds = quick_dataset()
        params, embedder, provider = quick_model(ds)
        params.tensors["profile_b"][params.config.attr_out_dim] = np.inf
        config = TrainConfig(learning_rate=0.01, batch_size=16, max_steps=5, seed=4)
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(TrainingError, match="non-finite") as err:
            train(params, ds.corpus, ds.impressions, config, embedder, provider)
        first = first_batch(ds, config)
        assert err.value.dump["examples"] == [(ex.user_id, ex.candidate_id, ex.label) for ex in first]


def test_package_train_is_the_function_and_the_module_stays_importable():
    from flowrec import train as train_function

    assert train_function is train
    assert sys.modules["flowrec.train"].TrainConfig is TrainConfig


# tracemalloc peak, in bytes, of one backward_batch at this shape with the flow scored in
# candidate space, its batch indexed before the traced step as train() indexes before its first
# (20,623,435 B; numpy 2.4, 2-vCPU x86-64 VM). The same step that also indexed its batch read
# 20,712,243 B; with that indexing inside, a forward that gathered a padded [S, L, d + 1] key
# block over every user state read 23.68 MB here, and one flow call per user state 20.18 MB.
PAPER_SHAPE_PEAK = 20.63e6


def test_backward_peak_memory_at_paper_shape():
    """One backward_batch at the benchmark's train-paper shape: paper dims,
    86 user states with 50 history rows each, 512 examples over 1434 rows."""
    ds = generate_synthetic(SyntheticSpec(n_users=200, n_articles=1500, n_impressions=90, topic_count=8,
                                          seed=1, click_rule="planted-bilinear", history_length=50))
    cfg = ModelConfig(attr_names=["category", "engagement"], embed_dim=256, text_proj_dim=128,
                      attr_embed_dim=16, attr_hidden_dim=64, attr_out_dim=64)
    params = init_model_params(cfg, build_vocabs(ds.articles, cfg.attr_names), seed=1)
    provider = ProfileProvider(ds.corpus, TEMPLATES["user_profile_mind"], StubCompletionClient())
    feats = FeatureSource(params, ds.corpus, HashedTextEmbedder(cfg.embed_dim), provider)
    examples = reference_examples(ds.impressions, ds.corpus)[:512]
    assert len({(ex.user_id, ex.history) for ex in examples}) == 86
    assert {len(ex.history) for ex in examples} == {50}
    batch = indexed(examples, feats)  # before the traced step, as train() indexes before its first
    backward_batch(params, batch, feats, rng=np.random.default_rng(0), dropout=0.1)  # an untraced first step
    tracemalloc.start()
    try:
        backward_batch(params, batch, feats, rng=np.random.default_rng(0), dropout=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(feats.row_of) == 1500
    assert peak <= PAPER_SHAPE_PEAK, f"peak {peak / 1e6:.2f} MB"


# tracemalloc peak, in bytes, of one backward_batch at this shape with the flow scored in
# candidate space, in three groups of states, its batch indexed before the traced step
# (62,417,635 B; numpy 2.4, 2-vCPU x86-64 VM). The same step that also indexed its batch read
# 62,556,123 B; with that indexing inside, a forward that gathered a padded [S, L, d + 1] key
# block read 65.94 MB here, and one that also summed a row-space key gradient in the backward
# 70.38 MB.
STATE_PER_EXAMPLE_PEAK = 62.42e6


def test_backward_peak_memory_with_a_state_per_example():
    """One backward_batch at paper dims where each of 160 examples is its own
    user state, with 50 history rows each over 5900 rows."""
    ds = generate_synthetic(SyntheticSpec(n_users=160, n_articles=12_000, n_impressions=160, topic_count=8,
                                          seed=1, click_rule="planted-bilinear", history_length=50,
                                          candidates_per_impression=1))
    cfg = ModelConfig(attr_names=["category", "engagement"], embed_dim=256, text_proj_dim=128,
                      attr_embed_dim=16, attr_hidden_dim=64, attr_out_dim=64)
    params = init_model_params(cfg, build_vocabs(ds.articles, cfg.attr_names), seed=1)
    provider = ProfileProvider(ds.corpus, TEMPLATES["user_profile_mind"], StubCompletionClient())
    feats = FeatureSource(params, ds.corpus, HashedTextEmbedder(cfg.embed_dim), provider)
    examples = reference_examples(ds.impressions, ds.corpus)
    assert len({(ex.user_id, ex.history) for ex in examples}) == len(examples) == 160
    batch = indexed(examples, feats)  # before the traced step, as train() indexes before its first
    backward_batch(params, batch, feats, rng=np.random.default_rng(0), dropout=0.1)  # an untraced first step
    tracemalloc.start()
    try:
        backward_batch(params, batch, feats, rng=np.random.default_rng(0), dropout=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(feats.row_of) == 12_000
    assert peak <= STATE_PER_EXAMPLE_PEAK, f"peak {peak / 1e6:.2f} MB"


# tracemalloc peaks, in bytes, of the two batches below, each indexed before the traced step
# (numpy 2.4, 2-vCPU x86-64 VM): 19,363,563 B with every history 20 rows long and 22,870,859 B
# with one of 400. Steps that also indexed their batch read 19,425,283 B and 23,421,987 B; with
# that indexing inside, a forward that padded every state's keys to the longest history read
# 21.37 MB and 179.60 MB.
def test_one_long_history_costs_little_memory():
    """A skewed batch costs at most 25% more memory than a uniform one: one
    backward_batch at paper dims over a 2,000-article world, 160 one-example user
    states of 20 history rows each, against the same batch with one history of 400."""
    ds = generate_synthetic(SyntheticSpec(n_users=160, n_articles=2000, n_impressions=160, topic_count=8,
                                          seed=1, click_rule="planted-bilinear", history_length=20,
                                          candidates_per_impression=1))
    cfg = ModelConfig(attr_names=["category", "engagement"], embed_dim=256, text_proj_dim=128,
                      attr_embed_dim=16, attr_hidden_dim=64, attr_out_dim=64)
    params = init_model_params(cfg, build_vocabs(ds.articles, cfg.attr_names), seed=1)
    provider = ProfileProvider(ds.corpus, TEMPLATES["user_profile_mind"], StubCompletionClient())
    feats = FeatureSource(params, ds.corpus, HashedTextEmbedder(cfg.embed_dim), provider)
    uniform = reference_examples(ds.impressions, ds.corpus)
    assert len({(ex.user_id, ex.history) for ex in uniform}) == len(uniform) == 160
    assert {len(ex.history) for ex in uniform} == {20}
    last = uniform[-1]
    skewed = uniform[:-1] + [Example(last.user_id, tuple(a.article_id for a in ds.articles[:400]),
                                     last.candidate_id, last.label)]
    peaks = []
    for examples in (uniform, skewed):
        batch = indexed(examples, feats)  # before the traced step, as train() indexes before its first
        backward_batch(params, batch, feats, rng=np.random.default_rng(0), dropout=0.1)  # an untraced first step
        tracemalloc.start()
        try:
            backward_batch(params, batch, feats, rng=np.random.default_rng(0), dropout=0.1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], f"peaks {peaks[0] / 1e6:.2f} and {peaks[1] / 1e6:.2f} MB"


class TestAdam:
    def test_first_step_magnitude(self):
        # bias correction makes the first update ~lr * g / (|g| + eps)
        cfg = ModelConfig(**TOY_CONFIG)
        params = init_model_params(cfg, {"category": {"x": 1}}, seed=0)
        state = adam_init(params)
        before = params.tensors["head_b"].copy()
        grads = {"head_b": np.array([0.3])}
        adam_step(params, grads, state, lr=1e-5)
        delta = params.tensors["head_b"][0] - before[0]
        expected = -1e-5 * 0.3 / (math.sqrt(0.09) + 1e-8)
        assert math.isclose(delta, expected, rel_tol=1e-9)
        assert math.isclose(delta, -1e-5, rel_tol=1e-6)

    def test_zero_gradient_no_change(self):
        cfg = ModelConfig(**TOY_CONFIG)
        params = init_model_params(cfg, {"category": {"x": 1}}, seed=0)
        state = adam_init(params)
        before = {k: v.copy() for k, v in params.tensors.items()}
        adam_step(params, {k: np.zeros_like(v) for k, v in params.tensors.items()
                           if k in state.m}, state, lr=0.1)
        for name in state.m:
            assert np.array_equal(params.tensors[name], before[name])

    def test_matches_reference_trajectory(self):
        # independent scalar Adam oracle over a fixed gradient sequence
        rng = np.random.default_rng(0)
        gs = rng.normal(size=6)
        cfg = ModelConfig(**TOY_CONFIG)
        params = init_model_params(cfg, {"category": {"x": 1}}, seed=0)
        params.tensors["head_b"][...] = 1.0
        state = adam_init(params)
        for g in gs:
            adam_step(params, {"head_b": np.array([g])}, state, lr=0.01)

        theta, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate(gs, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9 ** t)
            vhat = v / (1 - 0.999 ** t)
            theta -= 0.01 * mhat / (math.sqrt(vhat) + 1e-8)
        assert math.isclose(params.tensors["head_b"][0], theta, rel_tol=1e-12)

    def test_rejects_unknown_tensor(self):
        cfg = ModelConfig(**TOY_CONFIG)
        params = init_model_params(cfg, {"category": {"x": 1}}, seed=0)
        state = adam_init(params)
        from flowrec.errors import ConfigError
        with pytest.raises(ConfigError):
            adam_step(params, {"bn_mean": np.zeros(3)}, state, lr=0.1)


def quick_dataset(seed=7):
    return generate_synthetic(SyntheticSpec(n_users=10, n_articles=40, n_impressions=120,
                                            topic_count=4, seed=seed,
                                            click_rule="topic-affinity"))


def quick_model(ds, seed=0):
    cfg = ModelConfig(attr_names=["category"], embed_dim=32, text_proj_dim=8,
                      attr_embed_dim=4, attr_hidden_dim=8, attr_out_dim=4,
                      batch_norm=True)
    vocabs = build_vocabs(ds.articles, cfg.attr_names)
    params = init_model_params(cfg, vocabs, seed=seed)
    embedder = HashedTextEmbedder(cfg.embed_dim)
    provider = ProfileProvider(ds.corpus, TEMPLATES["user_profile_mind"], StubCompletionClient())
    return params, embedder, provider


def record_steps(monkeypatch) -> list[dict[str, np.ndarray]]:
    """Every training step's tensors, copied right after its Adam update."""
    steps = []

    def recording(params, grads, state, lr):
        adam_step(params, grads, state, lr)
        steps.append({k: v.copy() for k, v in params.tensors.items()})
        return params

    monkeypatch.setattr(sys.modules["flowrec.train"], "adam_step", recording)
    return steps


def holds(params, tensors) -> bool:
    return params.tensors.keys() == tensors.keys() and all(
        np.array_equal(params.tensors[k], v) for k, v in tensors.items())


EARLY_STOP = TrainConfig(learning_rate=0.01, batch_size=16, max_steps=200, eval_every=20, patience=3)


class TestTrainLoop:
    def test_zero_steps_returns_init(self):
        ds = quick_dataset()
        params, embedder, provider = quick_model(ds)
        before = {k: v.copy() for k, v in params.tensors.items()}
        result = train(params, ds.corpus, ds.impressions,
                       TrainConfig(max_steps=0, learning_rate=0.01), embedder, provider)
        assert result.steps_run == 0
        for name, tensor in result.params.tensors.items():
            assert np.array_equal(tensor, before[name])

    def test_patience_one_degenerate_labels_stops_first_eval(self):
        ds = quick_dataset()
        # constant labels: AUC undefined on every impression
        for imp in ds.impressions:
            imp.candidates = [(a, 1) for a, _ in imp.candidates]
        params, embedder, provider = quick_model(ds)
        config = TrainConfig(learning_rate=0.01, batch_size=16, max_steps=500,
                             eval_every=10, patience=1, dropout=0.0)
        result = train(params, ds.corpus, ds.impressions, config, embedder, provider)
        assert result.steps_run == 10
        assert result.best_val_auc is None

    def test_empty_training_set_rejected(self):
        ds = quick_dataset()
        params, embedder, provider = quick_model(ds)
        with pytest.raises(DataFormatError, match="training set is empty"):
            train(params, {}, ds.impressions, TrainConfig(max_steps=5), embedder, provider)

    def test_loss_decreases_on_planted_task(self):
        ds = generate_synthetic(SyntheticSpec(n_users=20, n_articles=80, n_impressions=400,
                                              topic_count=4, seed=7,
                                              click_rule="topic-affinity"))
        params, embedder, provider = quick_model(ds)
        config = TrainConfig(learning_rate=0.01, batch_size=32, max_steps=1000,
                             eval_every=10_000, dropout=0.1, seed=7)
        result = train(params, ds.corpus, ds.impressions, config, embedder, provider)
        first = float(np.mean(result.losses[:100]))
        last = float(np.mean(result.losses[-100:]))
        assert last < first

    def test_frozen_embedder_unchanged_by_training(self):
        ds = quick_dataset()
        params, embedder, provider = quick_model(ds)
        texts = [a.title for a in ds.articles][:10]
        before = hashlib.sha256(b"".join(embedder.embed(t).tobytes() for t in texts)).hexdigest()
        train(params, ds.corpus, ds.impressions,
              TrainConfig(learning_rate=0.01, batch_size=16, max_steps=50, eval_every=25),
              embedder, provider)
        after = hashlib.sha256(b"".join(embedder.embed(t).tobytes() for t in texts)).hexdigest()
        assert before == after

    def test_seeded_determinism_identical_checkpoints(self, tmp_path):
        ds = quick_dataset()
        config = TrainConfig(learning_rate=0.01, batch_size=16, max_steps=60,
                             eval_every=20, dropout=0.1, seed=5)
        digests = []
        for run in range(2):
            params, embedder, provider = quick_model(ds, seed=1)
            result = train(params, ds.corpus, ds.impressions, config, embedder, provider)
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(path, result.params)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_training_a_loaded_checkpoint_clears_its_tag(self, tmp_path):
        ds = quick_dataset()
        params, embedder, provider = quick_model(ds)
        old_tag = save_checkpoint(tmp_path / "m.ckpt", params)
        result = train(load_checkpoint(tmp_path / "m.ckpt"), ds.corpus, ds.impressions,
                       TrainConfig(learning_rate=0.01, batch_size=16, max_steps=3), embedder, provider)
        trained = result.params
        digest = content_digest(checkpoint_header(trained), trained.tensors)
        assert ensure_version_tag(trained) == digest != old_tag

    def test_the_params_passed_in_end_as_the_selected_snapshot(self, monkeypatch):
        ds = quick_dataset()
        params, embedder, provider = quick_model(ds)
        steps = record_steps(monkeypatch)
        result = train(params, ds.corpus, ds.impressions, EARLY_STOP, embedder, provider)
        assert result.params is params
        best_step = next(row.step for row in result.log if row.val_auc == result.best_val_auc)
        assert best_step < result.steps_run < EARLY_STOP.max_steps  # stopped early, past the best
        assert holds(params, steps[best_step - 1]) and not holds(params, steps[-1])
        _, val = split_by_time(ds.impressions, EARLY_STOP.holdout_fraction)
        features = FeatureSource(params, ds.corpus, embedder, provider)
        assert evaluate_params(params, features, val).auc == result.best_val_auc

    def test_a_run_without_validation_ends_at_its_last_step(self, monkeypatch):
        ds = quick_dataset()
        params, embedder, provider = quick_model(ds)
        steps = record_steps(monkeypatch)
        result = train(params, ds.corpus, ds.impressions, EARLY_STOP, embedder, provider,
                       val_impressions=[])
        assert result.params is params and result.best_val_auc is None
        assert result.steps_run == len(steps) == EARLY_STOP.max_steps
        assert holds(params, steps[-1])

    def test_an_explicit_validation_set_is_read_and_nothing_is_held_out(self, monkeypatch):
        ds = quick_dataset()
        params, embedder, provider = quick_model(ds)
        trained_on = []

        def spy(impressions, feats):
            trained_on.extend(impressions)
            return ExampleIndex(impressions, feats)

        monkeypatch.setattr(sys.modules["flowrec.train"], "ExampleIndex", spy)
        val = sorted(ds.impressions, key=lambda imp: imp.timestamp)[:20]  # the earliest, not the default holdout
        result = train(params, ds.corpus, ds.impressions, EARLY_STOP, embedder, provider,
                       val_impressions=val)
        assert trained_on == ds.impressions
        assert result.best_val_auc is not None
        features = FeatureSource(params, ds.corpus, embedder, provider)
        assert evaluate_params(params, features, val).auc == result.best_val_auc
        _, holdout = split_by_time(ds.impressions, EARLY_STOP.holdout_fraction)
        assert evaluate_params(params, features, holdout).auc != result.best_val_auc

    def test_log_csv_format(self, tmp_path):
        ds = quick_dataset()
        params, embedder, provider = quick_model(ds)
        result = train(params, ds.corpus, ds.impressions,
                       TrainConfig(learning_rate=0.01, batch_size=16, max_steps=40,
                                   eval_every=20), embedder, provider)
        path = tmp_path / "log.csv"
        result.write_log(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss,val_auc,val_mrr,wall_ms"
        assert len(lines) > 1
        # rows at eval steps carry a validation AUC
        eval_rows = [l for l in lines[1:] if l.split(",")[2]]
        assert eval_rows


class TestEvaluateParams:
    def test_profiles_are_asked_for_in_one_call_before_scoring(self, monkeypatch):
        ds = quick_dataset()
        params, embedder, provider = quick_model(ds)
        known = ds.articles[0].article_id
        impressions = ds.impressions[:30] + [
            Impression("none-known", "nobody", 0, [known], [("not-in-corpus", 1)]),
            Impression("some-known", "u1", 0, ["not-in-corpus", known], [(known, 1), ("not-in-corpus", 0)]),
        ]
        asked = []
        ask = provider.profile_text
        provider.profile_text = lambda user, history: asked.append((user, tuple(history))) or ask(user, history)
        # The reference scores impression by impression, each asking for its own profile when scored.
        scorer = Scorer(params, FeatureSource(params, ds.corpus, embedder, provider))
        want = evaluate_rankings([(s.probabilities.tolist(),
                                   [y for a, y in imp.candidates if a in ds.corpus])
                                  for s, imp in zip(map(scorer.score, impressions), impressions)])
        want_asked = asked[:]
        assert ("u1", (known,)) in want_asked and all(u != "nobody" for u, _ in want_asked)

        asked.clear()
        added = []
        rows = FeatureSource.profile_rows

        def counting(self, keys):
            before = len(self.profile_row_of)
            out = rows(self, keys)
            added.append(len(self.profile_row_of) - before)
            return out

        monkeypatch.setattr(FeatureSource, "profile_rows", counting)
        report = evaluate_params(params, FeatureSource(params, ds.corpus, embedder, provider), impressions)
        assert [n for n in added if n] == [len(want_asked)]
        assert asked == want_asked
        assert report.to_json() == want.to_json()

    def test_report_counts(self):
        ds = quick_dataset()
        params, embedder, provider = quick_model(ds)
        report = evaluate_params(params, FeatureSource(params, ds.corpus, embedder, provider), ds.impressions)
        assert report.n_impressions + report.n_excluded == len(ds.impressions)
        if report.auc is not None:
            assert 0.0 <= report.auc <= 1.0

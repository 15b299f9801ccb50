"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Training-based criteria
use desk-scale configurations whose reference results are recorded next to
each assertion.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

from flowrec.checkpoint import load_checkpoint, save_checkpoint
from flowrec.data import Article, Impression, SyntheticSpec, generate_synthetic
from flowrec.encode import HashedTextEmbedder, build_vocabs
from flowrec.metrics import auc, mrr, ndcg_at
from flowrec.model import (
    ModelConfig,
    ModelParams,
    Scorer,
    attention_weights,
    init_model_params,
    instant_rep,
)
from flowrec.serve import RankRequest, precompute, rank, users_from_impressions
from flowrec.summarize import (
    TEMPLATES,
    ProfileProvider,
    ReplayCompletionClient,
    StubCompletionClient,
    completion_key,
    prompt_sha,
    summarize_corpus,
)
from flowrec.text import word_count
from flowrec.train import (
    ExampleIndex,
    FeatureSource,
    IndexedBatch,
    TrainConfig,
    backward_batch,
    evaluate_params,
    finite_difference_grads,
    loss_batch,
    train,
)


def report(criterion: str):
    print(f"\n[acceptance] {criterion}: PASS")


# ---------------------------------------------------------------------------
# 1. Gradient suite
# ---------------------------------------------------------------------------

class TestCriterion1Gradients:
    def test_every_trainable_tensor_matches_finite_differences(self):
        started = time.perf_counter()
        ds = generate_synthetic(SyntheticSpec(n_users=4, n_articles=12, n_impressions=6,
                                              topic_count=3, seed=3, history_length=3,
                                              candidates_per_impression=3))
        corpus = ds.corpus
        variants = [
            dict(batch_norm=False, dropout=0.0),
            dict(batch_norm=True, dropout=0.1),
            dict(batch_norm=True, dropout=0.0, flow_gate=False),
            dict(batch_norm=False, dropout=0.1, constant_flow=False),
            dict(batch_norm=False, dropout=0.0, instant_flow=False),
        ]
        for variant in variants:
            dropout = variant.pop("dropout", 0.0)
            # D = 2 + 2*3 = 8, history length <= 3
            cfg = ModelConfig(attr_names=["category", "engagement"], embed_dim=5,
                              text_proj_dim=3, attr_embed_dim=2, attr_hidden_dim=3,
                              attr_out_dim=2, **variant)
            vocabs = build_vocabs(ds.articles, cfg.attr_names)
            params = init_model_params(cfg, vocabs, seed=11)
            provider = ProfileProvider(corpus, TEMPLATES["user_profile_mind"],
                                       StubCompletionClient())
            feats = FeatureSource(params, corpus, HashedTextEmbedder(cfg.embed_dim), provider)
            # The world's first five examples, then a cold start on the first one's candidate.
            first = sorted(ds.impressions[0].candidates, key=lambda c: -c[1])[0][0]
            index = ExampleIndex(ds.impressions + [Impression("cold", "u0", 0, [], [(first, 1)])], feats)
            examples = IndexedBatch(index, np.array([0, 1, 2, 3, 4, len(index.labels) - 1]))

            def loss_fn():
                return loss_batch(params, examples, feats, mode="train",
                                  rng=np.random.default_rng(99), dropout=dropout)

            _, grads = backward_batch(params, examples, feats, mode="train",
                                      rng=np.random.default_rng(99), dropout=dropout)
            fd = finite_difference_grads(loss_fn, params)
            assert set(grads) == set(params.trainable_names())
            for name in params.trainable_names():
                a, f = grads[name], fd[name]
                rel = np.abs(a - f) / np.maximum(1e-6, np.maximum(np.abs(a), np.abs(f)))
                assert rel.max() < 1e-4, f"{variant}: {name} rel err {rel.max():.2e}"
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"gradient suite took {elapsed:.1f}s"
        report(f"criterion 1 (gradient suite, {len(variants)} variants, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Metric oracles
# ---------------------------------------------------------------------------

class TestCriterion2MetricOracles:
    @staticmethod
    def _auc_pairs(scores, labels):
        pairs = [(p, n) for p, yp in zip(scores, labels) if yp == 1
                 for n, yn in zip(scores, labels) if yn == 0]
        if not pairs:
            return None
        return sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in pairs) / len(pairs)

    @staticmethod
    def _sorted(scores):
        return sorted(range(len(scores)), key=lambda i: (-scores[i], i))

    def _mrr_ref(self, scores, labels):
        order = self._sorted(scores)
        hits = [(r, i) for r, i in enumerate(order, start=1) if labels[i] == 1]
        return sum(1.0 / r for r, _ in hits) / len(hits) if hits else None

    def _ndcg_ref(self, scores, labels, k):
        if sum(labels) == 0:
            return None
        order = self._sorted(scores)
        dcg = sum(1.0 / math.log2(r + 1) for r, i in enumerate(order[:k], start=1)
                  if labels[i] == 1)
        ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, sum(labels)) + 1))
        return dcg / ideal

    def test_exact_oracle_equivalence_and_monotone_invariance(self):
        rng = np.random.default_rng(20240214)
        transforms = [lambda s: 3.0 * s + 1.0, np.expm1, np.arctan]
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            scores = [float(s) for s in rng.random(n)]
            if rng.random() < 0.25:
                scores[0] = scores[-1]  # exercise the tie rule
            labels = [int(y) for y in rng.integers(0, 2, size=n)]

            assert auc(scores, labels) == self._auc_pairs(scores, labels)
            assert mrr(scores, labels) == self._mrr_ref(scores, labels)
            assert ndcg_at(scores, labels, 5) == self._ndcg_ref(scores, labels, 5)
            assert ndcg_at(scores, labels, 10) == self._ndcg_ref(scores, labels, 10)

            base = (auc(scores, labels), mrr(scores, labels),
                    ndcg_at(scores, labels, 5), ndcg_at(scores, labels, 10))
            for f in transforms:
                mapped = [float(f(s)) for s in scores]
                same = (auc(mapped, labels), mrr(mapped, labels),
                        ndcg_at(mapped, labels, 5), ndcg_at(mapped, labels, 10))
                assert same == base
        report("criterion 2 (metric oracles + monotone invariance, 1000 impressions)")


# ---------------------------------------------------------------------------
# 3. Attention invariants
# ---------------------------------------------------------------------------

class TestCriterion3AttentionInvariants:
    def test_attention_properties(self):
        rng = np.random.default_rng(31)
        d = 6
        cfg = ModelConfig(attr_names=[], embed_dim=4, text_proj_dim=1, attr_embed_dim=1,
                          attr_hidden_dim=1, attr_out_dim=4, batch_norm=False)
        params = ModelParams(config=cfg, vocabs={}, tensors={"attn_w": np.eye(d)})
        for trial in range(200):
            params.tensors["attn_w"] = rng.normal(size=(d, d))
            cand = rng.normal(size=d)
            m = int(rng.integers(1, 9))
            hist = rng.normal(size=(m, d))

            alpha = attention_weights(params, cand, hist)
            assert abs(float(alpha.sum()) - 1.0) <= 1e-6
            assert np.all(alpha >= 0.0) and np.all(alpha <= 1.0)

            same = np.tile(hist[0], (m, 1))
            assert np.allclose(attention_weights(params, cand, same), 1.0 / m, atol=1e-12)

            single = attention_weights(params, cand, hist[:1])
            assert np.array_equal(single, np.array([1.0]))

            perm = rng.permutation(m)
            assert np.allclose(attention_weights(params, cand, hist[perm]), alpha[perm],
                               rtol=1e-10, atol=1e-12)
            assert np.allclose(instant_rep(params, cand, hist[perm]),
                               instant_rep(params, cand, hist), rtol=1e-10, atol=1e-12)
        report("criterion 3 (attention invariants, 200 random instances)")


# ---------------------------------------------------------------------------
# 4. Planted-signal recovery
# ---------------------------------------------------------------------------

def planted_world():
    spec = SyntheticSpec(n_users=50, n_articles=200, n_impressions=2500, topic_count=8,
                         seed=7, click_rule="planted-bilinear")
    ds = generate_synthetic(spec)
    cfg = ModelConfig(attr_names=["category", "engagement"], embed_dim=96, text_proj_dim=32,
                      attr_embed_dim=8, attr_hidden_dim=32, attr_out_dim=16,
                      batch_norm=True)
    vocabs = build_vocabs(ds.articles, cfg.attr_names)
    embedder = HashedTextEmbedder(cfg.embed_dim)
    provider = ProfileProvider(ds.corpus, TEMPLATES["user_profile_mind"],
                               StubCompletionClient(profile_top_n=4))
    return ds, cfg, vocabs, embedder, provider


@pytest.mark.slow
class TestCriterion4PlantedRecovery:
    def test_training_recovers_planted_rule(self):
        ds, cfg, vocabs, embedder, provider = planted_world()

        random_init = init_model_params(cfg, vocabs, seed=0)
        chance = evaluate_params(random_init, FeatureSource(random_init, ds.corpus, embedder, provider),
                                 ds.impressions)
        assert abs(chance.auc - 0.5) <= 0.03, f"random init AUC {chance.auc:.4f}"

        params = init_model_params(cfg, vocabs, seed=7)
        config = TrainConfig(learning_rate=0.005, batch_size=128, dropout=0.1,
                             max_steps=1200, eval_every=100, patience=8,
                             holdout_fraction=0.08, seed=7)
        started = time.perf_counter()
        result = train(params, ds.corpus, ds.impressions, config, embedder, provider)
        elapsed = time.perf_counter() - started

        # reference run: best val AUC 0.9315 at <= 1200 steps in ~29 s
        assert result.steps_run <= 2000
        assert elapsed < 60.0, f"training took {elapsed:.1f}s"
        assert result.best_val_auc >= 0.90, f"best val AUC {result.best_val_auc:.4f}"
        report(f"criterion 4 (planted recovery: AUC {result.best_val_auc:.4f} "
               f"in {result.steps_run} steps / {elapsed:.0f}s; chance {chance.auc:.4f})")


# ---------------------------------------------------------------------------
# 5. Ablation direction
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestCriterion5AblationDirection:
    @staticmethod
    def _run(seed: int, flags: dict) -> float:
        spec = SyntheticSpec(n_users=60, n_articles=150, n_impressions=1600, topic_count=8,
                             seed=seed, click_rule="flow-mix")
        ds = generate_synthetic(spec)
        cfg = ModelConfig(attr_names=["category", "engagement"], embed_dim=96,
                          text_proj_dim=32, attr_embed_dim=8, attr_hidden_dim=32,
                          attr_out_dim=16, batch_norm=True, **flags)
        vocabs = build_vocabs(ds.articles, cfg.attr_names)
        params = init_model_params(cfg, vocabs, seed=seed)
        embedder = HashedTextEmbedder(cfg.embed_dim)
        provider = None
        if cfg.constant_flow:
            provider = ProfileProvider(ds.corpus, TEMPLATES["user_profile_ata"],
                                       StubCompletionClient(profile_top_n=3),
                                       user_attrs=ds.truth["user_attrs"])
        config = TrainConfig(learning_rate=0.006, batch_size=96, dropout=0.1, max_steps=700,
                             eval_every=100, patience=7, holdout_fraction=0.1, seed=seed)
        return train(params, ds.corpus, ds.impressions, config, embedder, provider).best_val_auc

    def test_full_model_beats_each_single_flow(self):
        seeds = [100, 101, 102, 103, 104]
        full = float(np.mean([self._run(s, {}) for s in seeds]))
        no_instant = float(np.mean([self._run(s, {"instant_flow": False}) for s in seeds]))
        no_constant = float(np.mean([self._run(s, {"constant_flow": False}) for s in seeds]))
        # reference run: full 0.791, w/o instant 0.747, w/o constant 0.713
        assert full - no_instant >= 0.01, f"gap vs w/o instant {full - no_instant:.4f}"
        assert full - no_constant >= 0.01, f"gap vs w/o constant {full - no_constant:.4f}"
        report(f"criterion 5 (ablations over {len(seeds)} seeds: full {full:.3f}, "
               f"w/o instant {no_instant:.3f}, w/o constant {no_constant:.3f})")


# ---------------------------------------------------------------------------
# 6. Online/offline parity
# ---------------------------------------------------------------------------

class TestCriterion6Parity:
    def test_hundred_random_requests_bit_identical(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n_users=12, n_articles=60, n_impressions=80,
                                              topic_count=4, seed=21))
        cfg = ModelConfig(attr_names=["category", "engagement"], embed_dim=32,
                          text_proj_dim=8, attr_embed_dim=4, attr_hidden_dim=8,
                          attr_out_dim=4, use_summaries=False)
        vocabs = build_vocabs(ds.articles, cfg.attr_names)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_model_params(cfg, vocabs, seed=21))

        serving_params = load_checkpoint(path)
        eval_params = load_checkpoint(path)  # independent load, same file
        embedder = HashedTextEmbedder(cfg.embed_dim)
        provider = ProfileProvider(ds.corpus, TEMPLATES["user_profile_mind"],
                                   StubCompletionClient())
        store = precompute(serving_params, FeatureSource(serving_params, ds.corpus, embedder, provider),
                           users_from_impressions(ds.impressions))
        eval_provider = ProfileProvider(ds.corpus, TEMPLATES["user_profile_mind"], StubCompletionClient())
        scorer = Scorer(eval_params, FeatureSource(eval_params, ds.corpus, HashedTextEmbedder(cfg.embed_dim),
                                                   eval_provider))

        rng = np.random.default_rng(6)
        ids = [a.article_id for a in ds.articles]
        users = users_from_impressions(ds.impressions)
        for _ in range(100):
            user = users[int(rng.integers(0, len(users)))]
            cands = [ids[i] for i in rng.choice(len(ids), size=int(rng.integers(2, 11)),
                                                replace=False)]
            online = dict(rank(RankRequest(user.user_id, cands), store, serving_params).results)
            imp = Impression("parity", user.user_id, 0, user.history,
                             [(c, 0) for c in cands])
            scored = scorer.score(imp)
            offline = dict(zip(scored.article_ids, scored.probabilities.tolist()))
            assert online == offline  # exact float equality
        report("criterion 6 (online/offline parity, 100 requests bit-identical)")


# ---------------------------------------------------------------------------
# 7. Summarization length contract
# ---------------------------------------------------------------------------

class TestCriterion7SummaryBudget:
    BUDGET = 260   # words; long-article corpora average ~3,900 words per body

    def test_replay_corpus_average_within_20pct(self, tmp_path):
        rng = np.random.default_rng(77)
        template = TEMPLATES["article_summary_ata"]
        articles = []
        fixture_lines = []
        for i in range(24):
            n_body = int(rng.normal(3902, 300))
            body = " ".join(f"w{i}_{j}" for j in range(n_body)) + "."
            article = Article(article_id=f"a{i}", title=f"Long article {i}", body=body)
            articles.append(article)
            # recorded completion: jittered around the configured budget
            n_summary = int(self.BUDGET * rng.uniform(0.85, 1.15))
            completion = " ".join(f"s{i}_{j}" for j in range(n_summary))
            prompt = template.render({"article_title": article.title, "article_body": body})
            fixture_lines.append(json.dumps({
                "key": completion_key(template.name, prompt),
                "prompt_sha": prompt_sha(prompt),
                "completion": completion,
            }))
        fixture = tmp_path / "recorded.jsonl"
        fixture.write_text("\n".join(fixture_lines) + "\n")

        client = ReplayCompletionClient(fixture)
        summaries, errors = summarize_corpus(articles, template, client)
        assert not errors
        mean_body = float(np.mean([word_count(a.body) for a in articles]))
        mean_summary = float(np.mean([word_count(s) for s in summaries.values()]))
        assert abs(mean_summary - self.BUDGET) <= 0.2 * self.BUDGET
        assert mean_summary < mean_body / 5.0
        report(f"criterion 7 (summary budget: corpus mean {mean_summary:.0f} words "
               f"vs budget {self.BUDGET}, bodies {mean_body:.0f})")


# ---------------------------------------------------------------------------
# 8. End-to-end smoke via the CLI
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestCriterion8EndToEnd:
    SETTINGS = [
        "dims.embed_dim=48", "dims.text_proj_dim=12", "dims.attr_embed_dim=4",
        "dims.attr_hidden_dim=12", "dims.attr_out_dim=8",
        "train.max_steps=500", "train.batch_size=32", "train.eval_every=100",
        "train.learning_rate=0.01", 'attrs=["category", "engagement"]',
    ]

    # SHA-256 of the pipeline's artifacts (train_log.csv without its wall_ms column), taken
    # under the numpy and BLAS build named here. A change that moves one updates it and says
    # in CHANGES.md which artifact moved and why.
    PINNED_UNDER = ("2.4.6", "scipy-openblas", "0.3.31.188.0")
    PINS = {
        "dataset.jsonl": "ed44050d6b5541be6c7095d30cdbd5cc9876be1e67f44385ca38cc86cfd83a32",
        "checkpoint.bin": "0b24561459a255e81e356f9a98021c5701df91257740842ac0fa32085b280bc4",
        "eval_report.json": "e78b4d7cc39f297ac9969c2a3ce6ffa555f836e6fb56f52031fc599ad75205d3",
        "store.bin": "cff14ca025fd3338ad874244e9e3f4614268381bddb4b99a63a34673bb15e87f",
        "train_log.csv": "5a604f19f970d3a6c36e67c3602ba42c379d3a21c28014bf3cc8a415eb8fdc24",
    }
    # One BLAS thread: training's bits at larger dims depend on the thread count.
    ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}

    def _cli(self, *argv):
        cmd = [sys.executable, "-m", "flowrec", *map(str, argv)]
        for item in self.SETTINGS if argv[0] != "ingest" else ():  # ingest reads no run config
            cmd.extend(["--set", item])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=240, env=self.ENV)
        assert proc.returncode == 0, f"{argv[0]} failed: {proc.stderr}"
        return proc.stdout

    def test_pipeline_under_five_minutes(self, tmp_path):
        started = time.perf_counter()
        out = tmp_path / "run"
        self._cli("synth", "--rule", "topic-affinity", "--users", 20, "--articles", 80,
                  "--impressions", 400, "--seed", 13, "--out", out)
        self._cli("ingest", "--format", "jsonl", "--input", out / "dataset.jsonl",
                  "--out", out)
        self._cli("summarize", "--data", out / "dataset.jsonl", "--out", out)
        self._cli("train", "--data", out / "dataset.jsonl", "--out", out)
        self._cli("eval", "--data", out / "dataset.jsonl",
                  "--checkpoint", out / "checkpoint.bin", "--out", out)
        report_payload = json.loads((out / "eval_report.json").read_text())
        assert report_payload["auc"] is not None
        self._cli("precompute", "--data", out / "dataset.jsonl",
                  "--checkpoint", out / "checkpoint.bin", "--out", out)
        pins = self._check_pins(out)

        server = subprocess.Popen(
            [sys.executable, "-m", "flowrec", "serve", "--checkpoint", out / "checkpoint.bin",
             "--store", out / "store.bin", "--port", "0"],
            stdout=subprocess.PIPE, text=True)
        try:
            banner = server.stdout.readline()
            port = int(banner.rsplit(":", 1)[1].split(" ")[0])
            dataset = (out / "dataset.jsonl").read_text().splitlines()
            imp = next(json.loads(l) for l in dataset if '"impression"' in l)
            body = json.dumps({"user_id": imp["user"],
                               "candidates": [c[0] for c in imp["candidates"]],
                               "top_k": 3}).encode()
            req = urllib.request.Request(f"http://127.0.0.1:{port}/rank", data=body)
            with urllib.request.urlopen(req, timeout=10) as resp:
                ranked = json.loads(resp.read())
            assert len(ranked["results"]) == 3
            probs = [r["probability"] for r in ranked["results"]]
            assert probs == sorted(probs, reverse=True)
        finally:
            server.terminate()
            server.wait(timeout=10)

        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"end-to-end smoke took {elapsed:.0f}s"
        report(f"criterion 8 (end-to-end smoke in {elapsed:.0f}s; {pins})")

    def _check_pins(self, out) -> str:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        seen = (np.__version__, blas["name"], blas["version"])
        if seen != self.PINNED_UNDER:
            return f"digests not compared: pinned under numpy/BLAS {self.PINNED_UNDER}, run under {seen}"
        digests = {}
        for name in self.PINS:
            data = (out / name).read_bytes()
            if name == "train_log.csv":
                data = b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in data.splitlines())
            digests[name] = hashlib.sha256(data).hexdigest()
        assert digests == self.PINS
        return f"{len(digests)} artifact digests match their pins"

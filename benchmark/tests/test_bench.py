"""Fast tests of the benchmark itself: every workload end to end at toy size,
and every check rejecting a deliberately corrupted output.

    PYTHONPATH=src python -m pytest -q benchmark/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from flowrec.data import Article
from flowrec.encode import HashedTextEmbedder, build_vocabs, encode_article
from flowrec.metrics import evaluate_rankings
from flowrec.model import ModelConfig, init_model_params, score_candidates

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY_DIMS = dict(embed_dim=16, text_proj_dim=8, attr_embed_dim=4, attr_hidden_dim=8, attr_out_dim=8)

TOY = {
    # 12 impressions leave 11 after the holdout: 66 examples for a batch of 64.
    "train-paper": replace(workloads.TRAIN_PAPER, users=20, articles=60, impressions=12,
                           history=8, dims=TOY_DIMS, batch=64, learning_rate=0.01),
    # Seed 7 clears the AUC bar at the first validation, step 100.
    "recover-desk": replace(workloads.RECOVER_DESK, steps=100),
    "serve-long": replace(workloads.SERVE_LONG, users=20, articles=60, impressions=30,
                          settings=tuple(f"dims.{k}={v}" for k, v in TOY_DIMS.items()),
                          candidates=40, top_k=10, warmup=2, verify_share=1.0),
}


@pytest.mark.parametrize("name", sorted(TOY))
@pytest.mark.parametrize("traced", [False, True])
def test_workload_runs_end_to_end_at_toy_size(name, traced, tmp_path):
    w = workloads.make(name, 7, TOY[name])
    try:
        ops, values, _ = (run.measure_traced if traced else run.measure)(w, 0.2, tmp_path)
    finally:
        w.close()
    assert [op["problems"] for op in ops if op["problems"]] == []
    correct, attempted, failed = run.tally(ops)
    assert correct and attempted >= 1 and failed == 0
    listed = SPEC["per_layer" if traced else "end_to_end"]
    assert set(values) == {m["name"] for m in listed}
    if not traced:
        assert all(v > 0 for v in values.values())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.RECIPES)
    assert SPEC["command"] == ["python3", "benchmark/run.py"]


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "train-paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# References agree with the program on honest inputs
# ---------------------------------------------------------------------------

def _toy_model(seed=3):
    rng = np.random.default_rng(seed)
    arts = [Article(f"a{i}", f"title {i} topic{i % 3}", f"body words {i} more{i % 4}.",
                    attributes={"category": f"c{i % 3}", "engagement": f"e{i % 2}"})
            for i in range(12)]
    cfg = ModelConfig(attr_names=list(workloads.ATTRS), **TOY_DIMS)
    params = init_model_params(cfg, build_vocabs(arts, cfg.attr_names), seed=seed)
    for name in ("bn_mean", "bn_var"):
        params.tensors[name] = np.abs(params.tensors[name] + rng.normal(size=params.tensors[name].shape))
    return arts, params, rng


def test_reference_forward_matches_the_program():
    arts, params, rng = _toy_model()
    embedder = HashedTextEmbedder(params.config.embed_dim)
    reps = np.stack([encode_article(params, embedder, a).full for a in arts])
    idx = np.array([[params.vocabs[n].get(a.attributes[n], 0) for n in workloads.ATTRS] for a in arts])
    ref_reps = checks.reference_article_reps(
        params.tensors, workloads.ATTRS, idx, np.stack([embedder.embed(a.title) for a in arts]),
        np.stack([embedder.embed(a.body) for a in arts]))
    np.testing.assert_allclose(ref_reps, reps, rtol=0, atol=1e-12)

    profile = rng.normal(size=params.config.embed_dim)
    for n_hist in (0, 5):
        scored = score_candidates(params, [a.article_id for a in arts], list(reps),
                                  reps[:n_hist], profile)
        ref = checks.reference_probabilities(params.tensors, reps, reps[:n_hist], profile)
        np.testing.assert_allclose(ref, [s.probability for s in scored], rtol=0, atol=1e-12)


def test_brute_force_auc_matches_the_program_with_ties():
    rng = np.random.default_rng(0)
    rankings = [(rng.integers(0, 4, size=7).astype(float).tolist(), rng.integers(0, 2, size=7).tolist())
                for _ in range(30)]
    assert checks.brute_force_auc(rankings) == pytest.approx(evaluate_rankings(rankings).auc, abs=1e-12)


# ---------------------------------------------------------------------------
# Each check rejects a corrupted output
# ---------------------------------------------------------------------------

CANDS = ["a1", "a2", "a3", "a4"]
REF = np.array([0.2, 0.7, 0.4, 0.9])


def _response(pairs):
    return {"results": [{"article_id": a, "probability": p} for a, p in pairs]}


def _good():
    return _response([("a4", 0.9), ("a2", 0.7), ("a3", 0.4)])


def test_good_rank_response_passes():
    assert checks.check_rank_response(200, _good(), CANDS, 3) == []
    assert checks.check_rank_reference(_good(), CANDS, REF) == []


@pytest.mark.parametrize("bad", [
    _response([("a4", 0.9), ("a2", 0.7)]),                      # dropped id
    _response([("a4", 0.9), ("a2", 0.7), ("a2", 0.7)]),         # duplicated id
    _response([("a2", 0.7), ("a4", 0.9), ("a3", 0.4)]),         # mis-sorted
    _response([("a4", 1.0), ("a2", 0.7), ("a3", 0.4)]),         # probability not inside (0, 1)
    _response([("a4", 0.9), ("zz", 0.7), ("a3", 0.4)]),         # id not in the request
])
def test_rank_response_check_rejects_corruption(bad):
    assert checks.check_rank_response(200, bad, CANDS, 3)


def test_rank_response_check_rejects_an_error_status():
    assert checks.check_rank_response(500, {"error": "internal"}, CANDS, 3)


@pytest.mark.parametrize("bad", [
    _response([("a4", 0.9 + 1e-6), ("a2", 0.7), ("a3", 0.4)]),  # perturbed probability
    _response([("a4", 0.9), ("a3", 0.4), ("a1", 0.2)]),         # a higher candidate left out
])
def test_rank_reference_check_rejects_corruption(bad):
    assert checks.check_rank_reference(bad, CANDS, REF)


def test_auc_check_rejects_an_auc_off_by_one_pair():
    rankings = [([0.9, 0.3, 0.5, 0.1], [1, 0, 1, 0]), ([0.2, 0.8, 0.6], [1, 0, 0])]
    auc = checks.brute_force_auc(rankings)
    assert checks.check_auc(auc, auc, 0.5) == []
    one_pair = 1.0 / (2 * 2) / len(rankings)
    assert checks.check_auc(auc, auc + one_pair, 0.5)
    flipped = [([0.9, 0.3, 0.5, 0.6], [1, 0, 1, 0]), rankings[1]]
    assert checks.brute_force_auc(flipped) == pytest.approx(auc - one_pair)
    assert checks.check_auc(auc, auc, 0.99)


def test_training_check_rejects_corruption():
    tensors = {"w": np.ones(3)}
    assert checks.check_training(tensors, [0.7, 0.6, 0.5, 0.4], 4, 4) == []
    assert checks.check_training(tensors, [0.7, 0.6, 0.65, 0.7], 4, 4)
    assert checks.check_training(tensors, [0.7, 0.6, 0.5], 3, 4)
    assert checks.check_training({"w": np.array([1.0, np.nan])}, [0.7, 0.6, 0.5, 0.4], 4, 4)

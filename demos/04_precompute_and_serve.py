#!/usr/bin/env python3
"""The offline/online split: precompute representations once, then rerank
candidate lists through a small HTTP service.

The store snapshots article representations and user profile embeddings
under the checkpoint's version tag; the rank endpoint then runs exactly the
same arithmetic as offline evaluation, so probabilities agree bit for bit.
"""

import json
import tempfile
import urllib.request
from pathlib import Path

from flowrec.checkpoint import load_checkpoint, save_checkpoint
from flowrec.data import SyntheticSpec, generate_synthetic
from flowrec.encode import FeatureSource, HashedTextEmbedder, build_vocabs
from flowrec.model import ModelConfig, init_model_params
from flowrec.serve import (
    RankRequest,
    load_store,
    precompute,
    rank,
    save_store,
    serve_in_thread,
    users_from_impressions,
)
from flowrec.summarize import TEMPLATES, ProfileProvider, StubCompletionClient

dataset = generate_synthetic(SyntheticSpec(n_users=10, n_articles=60, n_impressions=100,
                                           topic_count=5, seed=5))
config = ModelConfig(attr_names=["category", "engagement"], embed_dim=48, text_proj_dim=12,
                     attr_embed_dim=4, attr_hidden_dim=12, attr_out_dim=8,
                     use_summaries=False)
vocabs = build_vocabs(dataset.articles, config.attr_names)

embedder = HashedTextEmbedder(config.embed_dim)
provider = ProfileProvider(dataset.corpus, TEMPLATES["user_profile_mind"],
                           StubCompletionClient())
# Both files are read back in full, so the directory can go once they are loaded.
with tempfile.TemporaryDirectory(prefix="flowrec-demo-") as tmp:
    workdir = Path(tmp)
    save_checkpoint(workdir / "model.ckpt", init_model_params(config, vocabs, seed=5))
    params = load_checkpoint(workdir / "model.ckpt")
    print(f"checkpoint version: {params.version_tag[:16]}...")
    store = precompute(params, FeatureSource(params, dataset.corpus, embedder, provider),
                       users_from_impressions(dataset.impressions))
    save_store(workdir / "store.bin", store)
    store = load_store(workdir / "store.bin")
print(f"store: {len(store.article_ids)} article reps, {len(store.users)} user entries")

user_id = dataset.impressions[0].user_id
candidates = [a.article_id for a in dataset.articles[:8]]
response = rank(RankRequest(user_id, candidates, top_k=3), store, params)
print(f"\ntop 3 for {user_id} (direct call, {response.latency_ms:.2f} ms):")
for art_id, prob in response.results:
    print(f"  {art_id}: p(click) = {prob:.4f}")

server, _ = serve_in_thread(store, params)
port = server.server_address[1]
try:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/health") as resp:
        print(f"\nGET /health -> {json.loads(resp.read())}")
    body = json.dumps({"user_id": user_id, "candidates": candidates, "top_k": 3}).encode()
    request = urllib.request.Request(f"http://127.0.0.1:{port}/rank", data=body)
    with urllib.request.urlopen(request) as resp:
        wire = json.loads(resp.read())
    print("POST /rank ->")
    for row in wire["results"]:
        print(f"  {row['article_id']}: p(click) = {row['probability']:.4f}")
    identical = [(r["article_id"], r["probability"]) for r in wire["results"]] == response.results
    print(f"\nHTTP results identical to the direct call: {identical}")
finally:
    server.shutdown()
    server.server_close()

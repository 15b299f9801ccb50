#!/usr/bin/env python3
"""Train the scoring network on a synthetic corpus with a planted click rule
and watch it recover the signal.

A random-initialized model sits at chance AUC; a couple of hundred Adam
steps later the planted preference is clearly recovered. The ablated model
without the profile-gated flow learns visibly less on the same data.
"""

import time

from flowrec.data import SyntheticSpec, generate_synthetic
from flowrec.encode import FeatureSource, HashedTextEmbedder, build_vocabs
from flowrec.model import ModelConfig, init_model_params
from flowrec.summarize import TEMPLATES, ProfileProvider, StubCompletionClient
from flowrec.train import TrainConfig, evaluate_params, train

spec = SyntheticSpec(n_users=30, n_articles=120, n_impressions=1200, topic_count=6,
                     seed=17, click_rule="planted-bilinear")
dataset = generate_synthetic(spec)
print(f"synthetic corpus: {spec.n_articles} articles, {spec.n_impressions} impressions, "
      f"rule={spec.click_rule}")

config = ModelConfig(attr_names=["category", "engagement"], embed_dim=64, text_proj_dim=16,
                     attr_embed_dim=8, attr_hidden_dim=16, attr_out_dim=8)
vocabs = build_vocabs(dataset.articles, config.attr_names)
embedder = HashedTextEmbedder(config.embed_dim)
provider = ProfileProvider(dataset.corpus, TEMPLATES["user_profile_mind"],
                           StubCompletionClient(profile_top_n=4))

params = init_model_params(config, vocabs, seed=17)
features = FeatureSource(params, dataset.corpus, embedder, provider)
before = evaluate_params(params, features, dataset.impressions)
print(f"random init: AUC {before.auc:.3f} (chance)")

train_config = TrainConfig(learning_rate=0.01, batch_size=64, max_steps=600,
                           eval_every=100, patience=6, seed=17)
started = time.perf_counter()
result = train(params, dataset.corpus, dataset.impressions, train_config, embedder, provider)
print(f"trained {result.steps_run} steps in {time.perf_counter() - started:.1f}s")
for row in result.log:
    if row.val_auc is not None:
        print(f"  step {row.step:4d}  loss {row.loss:.3f}  val AUC {row.val_auc:.3f}")
print(f"best validation AUC: {result.best_val_auc:.3f}\n")

# Same data, no constant flow: the stable-preference part of the signal is
# much harder to reach through attention alone.
ablated_cfg = config.ablated(constant_flow=False)
ablated = init_model_params(ablated_cfg, vocabs, seed=17)
ablated_result = train(ablated, dataset.corpus, dataset.impressions, train_config,
                       embedder, None)
print(f"w/o constant flow: best validation AUC {ablated_result.best_val_auc:.3f} "
      f"(full model: {result.best_val_auc:.3f})")

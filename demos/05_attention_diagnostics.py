#!/usr/bin/env python3
"""Look inside the model: which history articles does a candidate attend to,
and how similar are the two user representations to each history step?

Attention weights are per candidate (the candidate is the attention query),
so a topical candidate concentrates its weight on same-topic history items
while an off-topic one spreads out.
"""

import numpy as np

from flowrec.data import SyntheticSpec, generate_synthetic
from flowrec.encode import FeatureSource, HashedTextEmbedder, build_vocabs
from flowrec.model import ModelConfig, Scorer, constant_rep, init_model_params, instant_rep
from flowrec.summarize import TEMPLATES, ProfileProvider, StubCompletionClient
from flowrec.train import TrainConfig, train

dataset = generate_synthetic(SyntheticSpec(n_users=20, n_articles=100, n_impressions=800,
                                           topic_count=5, seed=23,
                                           click_rule="topic-affinity"))
config = ModelConfig(attr_names=["category", "engagement"], embed_dim=64, text_proj_dim=16,
                     attr_embed_dim=8, attr_hidden_dim=16, attr_out_dim=8)
vocabs = build_vocabs(dataset.articles, config.attr_names)
embedder = HashedTextEmbedder(config.embed_dim)
provider = ProfileProvider(dataset.corpus, TEMPLATES["user_profile_mind"],
                           StubCompletionClient(profile_top_n=3))

params = init_model_params(config, vocabs, seed=23)
result = train(params, dataset.corpus, dataset.impressions,
               TrainConfig(learning_rate=0.01, batch_size=64, max_steps=400, eval_every=200),
               embedder, provider)
params = result.params

impression = max(dataset.impressions, key=lambda i: len(i.history))
scorer = Scorer(params, FeatureSource(params, dataset.corpus, embedder, provider))
scored = scorer.score(impression)

hist_ids = impression.history
hist = np.stack([scorer.rep(a) for a in hist_ids])
profile = scorer.features.profile_embedding(impression.user_id, hist_ids)


def cosine(x, y):
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    return float(x @ y / (nx * ny)) if nx and ny else 0.0


topic = lambda art_id: dataset.corpus[art_id].attributes["category"]
print(f"user {impression.user_id}, history topics: {[topic(a) for a in hist_ids]}\n")

for cand_id, prob, attention in list(zip(scored.article_ids, scored.probabilities, scored.attention))[:3]:
    cand_vec = scorer.rep(cand_id)
    h_ins = instant_rep(params, cand_vec, hist)
    h_cons = constant_rep(params, profile, cand_vec)
    print(f"candidate {cand_id} ({topic(cand_id)}): p(click) = {prob:.3f}")
    print(f"  attention over history (sums to {attention.sum():.6f}):")
    for step, art_id in enumerate(hist_ids):
        bar = "#" * int(round(40 * attention[step]))
        print(f"    step {step:2d} {topic(art_id):8s} alpha={attention[step]:.3f} "
              f"cos(instant)={cosine(hist[step], h_ins):+.2f} "
              f"cos(constant)={cosine(hist[step], h_cons):+.2f} {bar}")
    print()

#!/usr/bin/env python3
"""Condensed article bodies and user profile sentences, fully offline.

The stub completion client is deterministic: summaries are the title plus
the leading sentences cut to a word budget, and profiles list the most
frequent title tokens. A persistent cache guarantees each distinct prompt is
completed at most once, across process restarts too.
"""

import tempfile
from pathlib import Path

from flowrec.data import Article
from flowrec.summarize import (
    TEMPLATES,
    ProfileProvider,
    StubCompletionClient,
    SummaryCache,
    summarize_article,
    summarize_user,
)
from flowrec.text import word_count

body = (
    "The borrow checker ruled the roost for a decade. "
    "Now a new generation of analyzers claims the same guarantees with less annotation. "
    "We benchmark five of them on a production code base. "
    "The results are mixed but the trend is unmistakable. "
    "Tooling improves faster than the language itself."
)
article = Article("a1", title="Static analysis grows up", body=body,
                  attributes={"category": "tech"})

with tempfile.TemporaryDirectory(prefix="flowrec-demo-") as workdir:
    cache = SummaryCache(Path(workdir) / "summary_cache.jsonl")
    client = StubCompletionClient(summary_budget=24, lead_sentences=2)

    summary = summarize_article(article, TEMPLATES["article_summary_mind"], client, cache)
    print(f"body: {word_count(body)} words -> summary: {word_count(summary)} words")
    print(f"  {summary}\n")

    summary_again = summarize_article(article, TEMPLATES["article_summary_mind"], client, cache)
    print(f"second call hit the cache (client calls: {client.calls}), identical: "
          f"{summary == summary_again}")
    print(f"cache file: {cache.path} (removed with its directory)\n")

# Profile text for a user's click history. The provider keeps no memo: in
# training, evaluation and precompute the frozen-feature table asks it once
# per (user, history), and a summary cache keeps completions across runs.
history = [
    Article("h1", title="rust compiler diagnostics deep dive"),
    Article("h2", title="incremental compiler architecture notes"),
    Article("h3", title="rust macro hygiene explained"),
]
profile = summarize_user(history, {}, TEMPLATES["user_profile_mind"], client)
print(f"profile sentence: {profile}")

corpus = {a.article_id: a for a in history}
provider = ProfileProvider(corpus, TEMPLATES["user_profile_ata"],
                           StubCompletionClient(),
                           user_attrs={"u1": {"position": "compiler engineer",
                                              "organization": "tools team",
                                              "skill": "llvm"}})
print(f"attribute-aware profile: {provider.profile_text('u1', ['h1', 'h2', 'h3'])}")

"""flowrec: article recommendation from user viewing flows.

A candidate article is scored against a user by (a) attending over the
representations of previously clicked articles and (b) gating the candidate
with an embedded textual profile of the user's stable interests. Articles
are encoded from frozen text embeddings plus trainable projections and
attribute embeddings; training is hand-rolled gradient descent with Adam.
"""

from .data import (
    Article,
    Impression,
    SyntheticSpec,
    generate_synthetic,
    parse_jsonl,
    parse_mind_behaviors,
    parse_mind_news,
)
from .encode import HashedTextEmbedder, PrecomputedTextEmbedder, encode_article
from .metrics import EvalReport, auc, evaluate_rankings, mrr, ndcg_at, uvctr
from .model import (
    ModelConfig,
    ModelParams,
    ScoredCandidate,
    Scorer,
    attention_weights,
    constant_rep,
    init_model_params,
    instant_rep,
    score_candidates,
)
from .serve import RankRequest, RankResponse, RepStore, precompute, rank
from .summarize import (
    TEMPLATES,
    ProfileProvider,
    ReplayCompletionClient,
    StubCompletionClient,
    SummaryCache,
    summarize_article,
    summarize_user,
)
from .train import (
    AdamState,
    TrainConfig,
    adam_init,
    adam_step,
    backward_batch,
    finite_difference_grads,
    loss_batch,
    train,
)

__version__ = "0.1.0"

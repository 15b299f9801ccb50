"""flowrec: article recommendation from user viewing flows.

A candidate article is scored against a user by (a) attending over the
representations of previously clicked articles and (b) gating the candidate
with an embedded textual profile of the user's stable interests. Articles
are encoded from frozen text embeddings plus trainable projections and
attribute embeddings; training is hand-rolled gradient descent with Adam.

The package re-exports the function :func:`flowrec.train.train` as
``flowrec.train``. That attribute shadows the submodule of the same name, so
``flowrec.train`` is the function and ``from flowrec import train`` gives the
function. Names of the module come from ``from flowrec.train import ...``,
and the module object itself from ``sys.modules["flowrec.train"]``;
``import flowrec.train as m`` binds ``m`` to the function.
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
from .encode import FeatureSource, HashedTextEmbedder, PrecomputedTextEmbedder, encode_article
from .metrics import EvalReport, auc, evaluate_rankings, mrr, ndcg_at
from .model import (
    CandidateScores,
    ModelConfig,
    ModelParams,
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

"""Multi-persona collaborative filtering with item-conditioned attention,
leave-one-out ranking evaluation and taste-distribution reporting."""

from .corpus import (
    Interactions,
    RatingFormat,
    SamplingTable,
    Split,
    build_sampling_table,
    load_ratings,
    split_leave_one_out,
)
from .model import (
    AttentionTrace,
    ModelConfig,
    PersonaModel,
    attend,
    init_model,
    load_checkpoint,
    model_scorer,
    save_checkpoint,
    score_all_items,
)
from .ranking import RankingProtocol, RankingReport, evaluate, top_k_recommendations
from .taste import (
    TasteSpace,
    TddReport,
    build_taste_space,
    hellinger,
    js_divergence,
    taste_distribution,
    tdd_report,
)
from .trainer import EpochRecord, LossBreakdown, LossConfig, train

__all__ = [
    "AttentionTrace",
    "EpochRecord",
    "Interactions",
    "LossBreakdown",
    "LossConfig",
    "ModelConfig",
    "PersonaModel",
    "RankingProtocol",
    "RankingReport",
    "RatingFormat",
    "SamplingTable",
    "Split",
    "TasteSpace",
    "TddReport",
    "attend",
    "build_sampling_table",
    "build_taste_space",
    "evaluate",
    "hellinger",
    "init_model",
    "js_divergence",
    "load_checkpoint",
    "load_ratings",
    "model_scorer",
    "save_checkpoint",
    "score_all_items",
    "split_leave_one_out",
    "taste_distribution",
    "tdd_report",
    "top_k_recommendations",
    "train",
]

"""Bias quantification and data augmentation for conversational recommendation corpora."""

from .corpus import (
    Corpus,
    CorpusError,
    Dialogue,
    ItemCatalog,
    LoadSummary,
    Turn,
    load_corpus,
    save_corpus,
    segment_corpus,
    segment_episodes,
)
from .popularity import PopularityTable, ThresholdPolicy, build_popularity, popular_item_ratio
from .metrics import (
    BiasReport,
    RankedRun,
    RunEntry,
    Skipped,
    cross_episode_popularity,
    evaluate_run,
    initial_item_coverage,
    intent_oriented_popularity,
    popularity_bias,
    popularity_coverage,
    rank_metrics,
    ranking_utility,
)
from .augment import (
    AugmentationPlan,
    SyntheticPool,
    audit_plan,
    longtail_report,
    once_aug,
    pop_nudge,
    weighted_sample_without_replacement,
)
from .synthgen import (
    HttpChatBackend,
    OfflineTemplateBackend,
    PromptTemplate,
    build_pool,
    parse_generated,
    render_prompt,
)

__version__ = "0.1.0"

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
)
from .popularity import PopularityTable, ThresholdPolicy, build_popularity, popular_item_ratio
from .metrics import BiasReport, RankedRun, RunEntry, evaluate_run
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
    parse_generated_record,
    render_prompt,
)

__version__ = "0.1.0"

"""Bias quantification and data augmentation for conversational recommendation corpora.

Each public name is imported from its module the first time it is used
(PEP 562), so importing the package, or one module of it, loads only what
that use needs: ``crs_bias.cli`` starts without numpy.
"""

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("CorpusError", "ThresholdPolicy"), "records"),
    **dict.fromkeys((
        "Corpus", "Dialogue", "ItemCatalog", "LoadSummary", "Turn", "load_corpus", "save_corpus",
        "segment_corpus",
    ), "corpus"),
    **dict.fromkeys(("PopularityTable", "build_popularity", "popular_item_ratio"), "popularity"),
    **dict.fromkeys(("BiasReport", "RankedRun", "RunEntry", "evaluate_run"), "metrics"),
    **dict.fromkeys((
        "AugmentationPlan", "SyntheticPool", "audit_plan", "longtail_report", "once_aug",
        "pop_nudge", "weighted_sample_without_replacement",
    ), "augment"),
    **dict.fromkeys((
        "HttpChatBackend", "OfflineTemplateBackend", "PromptTemplate", "build_pool",
        "parse_generated_record", "render_prompt",
    ), "synthgen"),
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later uses skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Item interaction frequencies, normalized popularity scores, and the popular set.

Frequencies are counted over the training split only: bias is a property of
what the model is exposed to during training. Within a turn, an item counts
once even if it appears both as a mention and as a target. Scores are
max-normalized so the most frequent item has popularity 1.0 and unseen items
have 0.0, keeping values comparable across datasets of different size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .corpus import TRAIN, Corpus, ItemCatalog, ItemIndex, write_json_lines

DEFAULT_MIN_COUNT = 5


@dataclass(frozen=True)
class ThresholdPolicy:
    """Which items count as "popular".

    ``count_threshold``: items with strictly more than ``min_count``
    training interactions. ``quantile``: the top ``top_fraction`` of the
    catalog by frequency; items tied with the boundary frequency are all
    included, so the set may slightly exceed the nominal fraction.
    """

    kind: str
    min_count: int | None = None
    top_fraction: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "count_threshold":
            if self.min_count is None or self.min_count < 1:
                raise ValueError("count_threshold requires min_count >= 1")
        elif self.kind == "quantile":
            if self.top_fraction is None or not (0.0 < self.top_fraction <= 1.0):
                raise ValueError("quantile requires top_fraction in (0, 1]")
        else:
            raise ValueError(f"unknown threshold policy kind {self.kind!r}")

    @classmethod
    def count_threshold(cls, min_count: int = DEFAULT_MIN_COUNT) -> "ThresholdPolicy":
        return cls(kind="count_threshold", min_count=min_count)

    @classmethod
    def quantile(cls, top_fraction: float) -> "ThresholdPolicy":
        return cls(kind="quantile", top_fraction=top_fraction)


@dataclass(frozen=True)
class PopularityTable:
    """Per-item frequency, normalized popularity, and the popular-item set."""

    freq: dict[str, int]
    pop: dict[str, float]
    popular_set: frozenset[str]
    eta_policy: ThresholdPolicy

    def pop_of(self, item_id: str) -> float:
        """Normalized popularity; 0.0 for items never seen in training."""
        return self.pop.get(item_id, 0.0)

    def freq_array(self, index: ItemIndex) -> np.ndarray:
        """Training frequency per interned id; 0 for ids outside the table."""
        return np.array([self.freq.get(i, 0) for i in index.ids])

    def arrays(self, index: ItemIndex) -> tuple[np.ndarray, np.ndarray]:
        """``pop`` values and the ``is_popular`` mask, one slot per interned id."""
        pop = np.array([self.pop_of(i) for i in index.ids], dtype=np.float64)
        popular = np.array([i in self.popular_set for i in index.ids], dtype=bool)
        return pop, popular


def train_counts(corpus: Corpus) -> np.ndarray:
    """Per-catalog-item interaction counts over the training split, in
    catalog order: an item counts once per turn that touches it."""
    columns = corpus.columns
    turns, codes = columns.touches
    in_train = (columns.split == TRAIN)[columns.turn_dialogue[turns]]
    n_catalog = len(corpus.catalog)
    codes = codes[in_train]
    return np.bincount(codes[codes < n_catalog], minlength=n_catalog)


def train_frequencies(corpus: Corpus) -> dict[str, int]:
    """``train_counts`` keyed by item id, in catalog order."""
    return dict(zip(corpus.catalog.items, train_counts(corpus).tolist()))


def item_coverage(freq: Mapping[str, int]) -> float:
    """Fraction of the catalog (the keys of ``freq``) with frequency > 0."""
    return sum(1 for f in freq.values() if f > 0) / len(freq)


def _popular_items(
    item_ids: Iterable[str], counts: np.ndarray, policy: ThresholdPolicy
) -> frozenset[str]:
    if policy.kind == "count_threshold":
        assert policy.min_count is not None
        popular = counts > policy.min_count
    else:
        assert policy.top_fraction is not None
        n_top = max(1, math.ceil(policy.top_fraction * len(counts) - 1e-9))
        popular = counts >= np.sort(counts)[len(counts) - n_top]
    return frozenset(compress(item_ids, popular.tolist()))


def build_popularity(corpus: Corpus, policy: ThresholdPolicy) -> PopularityTable:
    """Count training-split interactions and derive popularity scores.

    Only catalog items are tabulated; unknown mentions are the loader's
    concern. An empty training split yields an all-zero table with an empty
    popular set (under a count threshold).
    """
    counts = train_counts(corpus)
    item_ids = corpus.catalog.items
    freq = dict(zip(item_ids, counts.tolist()))
    max_freq = int(counts.max(initial=0))
    if max_freq == 0:
        # no training interactions at all: all-zero table, nothing is popular
        pop = dict.fromkeys(freq, 0.0)
        popular: frozenset[str] = frozenset()
    else:
        # int64 / int64 divides the exact doubles, as Python's int / int does below 2**53
        pop = dict(zip(item_ids, (counts / max_freq).tolist()))
        popular = _popular_items(item_ids, counts, policy)
    return PopularityTable(freq=freq, pop=pop, popular_set=popular, eta_policy=policy)


def popular_item_ratio(table: PopularityTable, catalog: ItemCatalog) -> float:
    """Fraction of the catalog inside the popular set."""
    return len(table.popular_set) / len(catalog)


def save_table(table: PopularityTable, path: str | Path) -> None:
    """Export one record per item: item_id, freq, pop, is_popular."""
    write_json_lines(path, (
        {"item_id": i, "freq": f, "pop": table.pop[i], "is_popular": i in table.popular_set}
        for i, f in table.freq.items()
    ))

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
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .corpus import Corpus, ItemCatalog, write_json_lines


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
    def count_threshold(cls, min_count: int = 5) -> "ThresholdPolicy":
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

    def arrays(self, index: "ItemIndex") -> tuple[np.ndarray, np.ndarray]:
        """``pop`` values and the ``is_popular`` mask, one slot per interned id."""
        pop = np.array([self.pop_of(i) for i in index.ids], dtype=np.float64)
        popular = np.array([i in self.popular_set for i in index.ids], dtype=bool)
        return pop, popular


class ItemIndex:
    """Dense integer ids for item ids: catalog items first, in catalog order;
    ids outside the catalog are appended in the order they are first seen."""

    def __init__(self, catalog_ids: Iterable[str] = ()):
        self.ids: list[str] = list(catalog_ids)
        self.code: dict[str, int] = {item_id: n for n, item_id in enumerate(self.ids)}

    def __len__(self) -> int:
        return len(self.ids)

    def intern(self, item_id: str) -> int:
        code = self.code.get(item_id)
        if code is None:
            code = self.code[item_id] = len(self.ids)
            self.ids.append(item_id)
        return code


def train_frequencies(corpus: Corpus) -> dict[str, int]:
    """Per-catalog-item interaction counts over the training split, in
    catalog order; an item counts once per turn that touches it."""
    freq: dict[str, int] = {item_id: 0 for item_id in corpus.catalog.items}
    for dialogue in corpus.split("train"):
        for _, _, mentioned, targets in dialogue.turns:
            if mentioned or targets:
                for item_id in dict.fromkeys(mentioned + targets):
                    if item_id in freq:
                        freq[item_id] += 1
    return freq


def item_coverage(freq: Mapping[str, int]) -> float:
    """Fraction of the catalog (the keys of ``freq``) with frequency > 0."""
    return sum(1 for f in freq.values() if f > 0) / len(freq)


def _popular_items(freq: dict[str, int], policy: ThresholdPolicy) -> frozenset[str]:
    if policy.kind == "count_threshold":
        assert policy.min_count is not None
        return frozenset(i for i, f in freq.items() if f > policy.min_count)
    assert policy.top_fraction is not None
    n = len(freq)
    if n == 0:
        return frozenset()
    n_top = max(1, math.ceil(policy.top_fraction * n - 1e-9))
    boundary = sorted(freq.values(), reverse=True)[n_top - 1]
    return frozenset(i for i, f in freq.items() if f >= boundary)


def build_popularity(corpus: Corpus, policy: ThresholdPolicy) -> PopularityTable:
    """Count training-split interactions and derive popularity scores.

    Only catalog items are tabulated; unknown mentions are the loader's
    concern. An empty training split yields an all-zero table with an empty
    popular set (under a count threshold).
    """
    freq = train_frequencies(corpus)
    max_freq = max(freq.values(), default=0)
    if max_freq == 0:
        # no training interactions at all: all-zero table, nothing is popular
        pop = {item_id: 0.0 for item_id in freq}
        popular: frozenset[str] = frozenset()
    else:
        pop = {item_id: f / max_freq for item_id, f in freq.items()}
        popular = _popular_items(freq, policy)
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

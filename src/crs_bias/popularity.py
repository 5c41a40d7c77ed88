"""Item interaction frequencies, normalized popularity scores, and the popular set.

Frequencies are counted over the training split only: bias is a property of
what the model is exposed to during training. Within a turn, an item counts
once even if it appears both as a mention and as a target. Scores are
max-normalized so the most frequent item has popularity 1.0 and unseen items
have 0.0, keeping values comparable across datasets of different size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .corpus import TRAIN, Corpus, ItemIndex, _encode
from .records import ThresholdPolicy, write_lines
from .records import DEFAULT_MIN_COUNT  # re-exported: defined in records


@dataclass(frozen=True, eq=False)
class PopularityTable:
    """Training frequency (``counts``, int64) and the ``popular`` mask per
    catalog item, in catalog order; ``pop = counts / max(counts)`` (all zeros
    when nothing was counted) is derived from them."""

    items: ItemIndex
    counts: np.ndarray
    popular: np.ndarray
    pop: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        top = self.counts.max(initial=0)
        # int64 / int64 divides the exact doubles, as Python's int / int does below 2**53
        object.__setattr__(self, "pop", self.counts / top if top else np.zeros(len(self.counts)))

    @property
    def popular_set(self) -> frozenset[str]:
        """The ids of the popular items."""
        return frozenset(compress(self.items.ids, self.popular.tolist()))

    def pop_of(self, item_id: str) -> float:
        """Normalized popularity; 0.0 for items outside the catalog."""
        code = self.items.code.get(item_id)
        return 0.0 if code is None else float(self.pop[code])

    def gather(self, index: ItemIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``counts``, ``pop`` and ``popular`` per interned id, from one code
        lookup per id, each with one trailing slot that code -1 (padding)
        reads: ids outside the catalog, and that slot, read 0, 0.0 and False."""
        codes = np.fromiter(map(self.items.code.get, index.ids, repeat(-1)), np.intp, len(index))
        known = np.flatnonzero(codes >= 0)
        codes = codes[known]
        columns = []
        for values in (self.counts, self.pop, self.popular):
            column = np.zeros(len(index) + 1, dtype=values.dtype)
            column[known] = values[codes]
            columns.append(column)
        return tuple(columns)


def train_counts(corpus: Corpus) -> np.ndarray:
    """Per-catalog-item interaction counts over the training split, in
    catalog order: an item counts once per turn that touches it. Only the
    training turns' catalog items are sorted into distinct pairs."""
    columns = corpus.columns
    in_train = np.repeat(columns.split == TRAIN, np.diff(columns.turn_offsets))  # per turn
    n_catalog = len(corpus.catalog)
    _, codes = columns.touches(lambda turns, codes: in_train[turns] & (codes < n_catalog))
    return np.bincount(codes, minlength=n_catalog)


def item_coverage(counts: np.ndarray) -> float:
    """Fraction of the catalog (one count per item) with frequency > 0."""
    return int(np.count_nonzero(counts)) / len(counts)


def _popular_items(counts: np.ndarray, policy: ThresholdPolicy) -> np.ndarray:
    """The popular mask over ``counts``; all False when nothing was counted."""
    if policy.kind == "count_threshold":  # ThresholdPolicy checks its own fields
        return counts > policy.min_count
    n_top = max(1, math.ceil(policy.top_fraction * len(counts) - 1e-9))
    # with nothing counted, every count would tie with a boundary of 0
    return (counts >= np.sort(counts)[len(counts) - n_top]) & counts.any()


def build_popularity(corpus: Corpus, policy: ThresholdPolicy) -> PopularityTable:
    """Count training-split interactions and derive popularity scores.

    Only catalog items are tabulated; unknown mentions are the loader's
    concern. An empty training split yields an all-zero table with an empty
    popular set, under either policy.
    """
    counts = train_counts(corpus)
    popular = _popular_items(counts, policy)
    return PopularityTable(ItemIndex(corpus.catalog.items), counts, popular)


def popular_item_ratio(table: PopularityTable) -> float:
    """Fraction of the catalog inside the popular set."""
    return int(np.count_nonzero(table.popular)) / len(table.popular)


def save_table(table: PopularityTable, path: str | Path) -> None:
    """Export one record per catalog item: item_id, freq, pop, is_popular.
    Each line is the text of ``_ENCODER.encode`` of that record, assembled
    from the arrays as ``corpus.dialogue_lines`` assembles dialogues."""
    flags = ("false", "true")
    rows = zip(map(_encode, table.items.ids), table.counts.tolist(),
               map(float.__repr__, table.pop.tolist()), table.popular.tolist())
    write_lines(path, (
        f'{{"item_id": {i}, "freq": {f}, "pop": {p}, "is_popular": {flags[b]}}}' for i, f, p, b in rows
    ))

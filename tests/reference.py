"""Per-entry reference definitions of the paper's metrics, the tests' oracle.

Each function scores one ranked list or one run entry, straight from the
paper's definition: popularity bias, cross-episode popularity (CEP),
intent-oriented popularity (UIOP), Hit/NDCG/MRR, and initial item coverage
over a corpus. ``crs_bias.metrics.evaluate_run`` is the package's one scoring
path; it scores whole runs column-wise, and the tests hold its columns equal
to these functions bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Sequence

from crs_bias.corpus import Corpus
from crs_bias.metrics import DEFAULT_CUTOFFS, RunEntry, _check_scoring, _rank_discount
from crs_bias.popularity import ItemIndex, PopularityTable, item_coverage, train_counts


@dataclass(frozen=True)
class Skipped:
    """Marker result for an entry a metric cannot score, with the reason why."""

    reason: str


# ---------------------------------------------------------------------------
# corpus-level coverage


def initial_item_coverage(corpus: Corpus) -> float:
    """Catalog items with a training interaction / catalog size."""
    return item_coverage(train_counts(corpus))


# ---------------------------------------------------------------------------
# popularity-oriented scores (per ranked list)


def ranking_utility(
    ranked: Sequence[str],
    popular_set: frozenset[str] | set[str],
    log_base: float = math.e,
) -> float:
    """Position-discounted count of popular items: sum of 1/(log(rank)+1)."""
    _check_scoring(log_base=log_base)
    return fsum(
        1.0 / _rank_discount(rank, log_base)
        for rank, item_id in enumerate(ranked, start=1)
        if item_id in popular_set
    )


def popularity_coverage(ranked: Sequence[str], popular_set: frozenset[str] | set[str]) -> float:
    """Fraction of the ranked list drawn from the popular set (0 for an empty list)."""
    if not ranked:
        return 0.0
    return sum(1 for item_id in ranked if item_id in popular_set) / len(ranked)


def popularity_bias(
    ranked: Sequence[str],
    popular_set: frozenset[str] | set[str],
    log_base: float = math.e,
) -> float:
    """Ranking utility times popularity coverage."""
    return ranking_utility(ranked, popular_set, log_base) * popularity_coverage(ranked, popular_set)


def pearson(x: Sequence[int], y: Sequence[int]) -> float:
    """Pearson correlation of two integer sequences, 0.0 when either side
    has zero variance. Its sums are exact integers; only the last steps,
    ``float(n) / sqrt(float(dx) * float(dy))``, round."""
    k = len(x)
    if k != len(y):
        raise ValueError("pearson requires sequences of equal length")
    if k < 2:
        raise ValueError("pearson requires at least 2 points")
    sum_x, sum_y = sum(x), sum(y)
    n = k * sum(a * b for a, b in zip(x, y)) - sum_x * sum_y
    dx = k * sum(a * a for a in x) - sum_x * sum_x
    dy = k * sum(b * b for b in y) - sum_y * sum_y
    if dx == 0 or dy == 0:
        return 0.0
    # clamp rounding spill so |rho| <= 1 holds exactly
    return max(-1.0, min(1.0, float(n) / math.sqrt(float(dx) * float(dy))))


def cross_episode_popularity(
    current: RunEntry,
    previous_episode_entries: Sequence[RunEntry],
    table: PopularityTable,
    log_base: float = math.e,
) -> float | Skipped:
    """Popularity bias of the current list, scaled by |Pearson| between its
    popularity profile and the previous episode's final recommendations.

    Profiles are the items' training frequencies, which Pearson cannot tell
    from their max-normalized popularities, aligned by rank position and
    truncated to the shorter list; the comparator is the previous episode's
    last recommendation turn. First-episode entries and truncations shorter
    than 2 are skipped; zero-variance profiles correlate as 0.
    """
    _check_scoring(log_base=log_base)
    if current.episode_index == 0:
        return Skipped("first_episode")
    if not previous_episode_entries:
        return Skipped("no_previous_episode")
    if not current.ranked_item_ids:
        return Skipped("empty_ranked_list")
    previous = max(previous_episode_entries, key=lambda e: e.turn_index)
    length = min(len(current.ranked_item_ids), len(previous.ranked_item_ids))
    if length < 2:
        return Skipped("insufficient_overlap")
    # a ranked list holds no id twice, so it indexes its own frequencies
    cur_freqs = table.gather(ItemIndex(current.ranked_item_ids[:length]))[0][:length].tolist()
    prev_freqs = table.gather(ItemIndex(previous.ranked_item_ids[:length]))[0][:length].tolist()
    rho = pearson(cur_freqs, prev_freqs)
    return popularity_bias(current.ranked_item_ids, table.popular_set, log_base) * abs(rho)


def intent_oriented_popularity(
    entry: RunEntry,
    table: PopularityTable,
    log_base: float = math.e,
) -> float | Skipped:
    """Gap between target popularity and the list's popularity bias,
    |pop(target) - pi*P|, averaged when a turn has several targets."""
    _check_scoring(log_base=log_base)
    if not entry.target_item_ids:
        return Skipped("no_targets")
    if not entry.ranked_item_ids:
        return Skipped("empty_ranked_list")
    bias = popularity_bias(entry.ranked_item_ids, table.popular_set, log_base)
    gaps = [abs(table.pop_of(t) - bias) for t in entry.target_item_ids]
    return fsum(gaps) / len(gaps)


# ---------------------------------------------------------------------------
# rank-accuracy metrics


def rank_metrics(
    entry: RunEntry,
    cutoffs: Sequence[int] = DEFAULT_CUTOFFS,
) -> dict[str, float] | Skipped:
    """Hit, NDCG (binary relevance, log2 discount) and MRR at each cutoff.

    NDCG normalizes by the full ideal ranking (all targets at the top,
    untruncated), so the normalizer does not change with the cutoff and all
    three metrics are monotone non-decreasing in k.
    """
    _check_scoring(cutoffs)
    targets = set(entry.target_item_ids)
    if not targets:
        return Skipped("no_targets")
    idcg = fsum(1.0 / math.log2(rank + 1) for rank in range(1, len(targets) + 1))
    out: dict[str, float] = {}
    for k in cutoffs:
        top = entry.ranked_item_ids[:k]
        hit_ranks = [rank for rank, item_id in enumerate(top, start=1) if item_id in targets]
        dcg = fsum(1.0 / math.log2(rank + 1) for rank in hit_ranks)
        out[f"hit@{k}"] = 1.0 if hit_ranks else 0.0
        out[f"ndcg@{k}"] = dcg / idcg
        out[f"mrr@{k}"] = 1.0 / hit_ranks[0] if hit_ranks else 0.0
    return out

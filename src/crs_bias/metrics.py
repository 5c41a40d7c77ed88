"""Bias and rank-accuracy metrics over ranked recommendation runs.

A run pairs each evaluated (dialogue, turn) with the model's ranked item
list and the ground-truth targets. This module scores:

* initial item coverage — fraction of the catalog that training dialogues touch;
* popularity bias — position-discounted popular-item utility times the
  popular fraction of the list;
* cross-episode popularity — popularity bias scaled by how strongly the
  list's popularity profile correlates with the previous episode's final
  recommendations (|Pearson|);
* intent-oriented popularity gap — |pop(target) - popularity bias| averaged
  over targets;
* Hit/NDCG/MRR at configurable cutoffs.

Entries that a metric cannot score (no targets, first episode, empty list,
...) are skipped and the skip reasons are disclosed in the report; means and
standard deviations cover the scored entries only.

The per-entry functions are the reference definitions. ``evaluate_run``
scores a whole run column-wise over interned item codes and reproduces them
bit for bit.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from math import fsum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, CorpusError, parse_id, read_json_lines, write_json_lines
from .popularity import ItemIndex, PopularityTable, item_coverage, train_frequencies

DEFAULT_CUTOFFS = (10, 50)
# run-file turn and episode indices are stored as int64
_INDEX_LIMIT = 2**63


@dataclass(frozen=True)
class Skipped:
    """Marker result for an entry a metric cannot score, with the reason why."""

    reason: str


@dataclass(frozen=True)
class RunEntry:
    """One evaluated recommendation turn of a model run."""

    dialogue_id: str
    turn_index: int
    episode_index: int
    ranked_item_ids: tuple[str, ...]
    target_item_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.ranked_item_ids)) != len(self.ranked_item_ids):
            raise CorpusError(
                f"run entry ({self.dialogue_id!r}, turn {self.turn_index}): "
                f"ranked list contains duplicate item ids"
            )


@dataclass(frozen=True, eq=False)
class RunColumns(Sequence[RunEntry]):
    """A run stored column-wise over interned item ids.

    ``ranks`` is an (entries x longest list, at least 1) int32 matrix of
    item codes, padded with -1 past each row's ``lengths``. Entry ``i``'s
    targets are ``target_codes[target_offsets[i]:target_offsets[i + 1]]``.
    Indexing builds the ``RunEntry`` on demand.
    """

    items: ItemIndex
    dialogue_ids: list[str]
    dialogue_codes: np.ndarray
    turn_index: np.ndarray
    episode_index: np.ndarray
    ranks: np.ndarray
    lengths: np.ndarray
    target_codes: np.ndarray
    target_offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int) -> RunEntry:  # type: ignore[override]
        i = range(len(self))[i]
        ids = self.items.ids
        targets = self.target_codes[self.target_offsets[i] : self.target_offsets[i + 1]]
        return RunEntry(
            dialogue_id=self.dialogue_ids[self.dialogue_codes[i]],
            turn_index=int(self.turn_index[i]),
            episode_index=int(self.episode_index[i]),
            ranked_item_ids=tuple(ids[c] for c in self.ranks[i, : self.lengths[i]].tolist()),
            target_item_ids=tuple(ids[c] for c in targets.tolist()),
        )


class _RunBuilder:
    """Appends entries straight into compact columns, interning ids as it goes."""

    def __init__(self, items: ItemIndex):
        self.items = items
        self.dialogue_ids: list[str] = []
        self._dialogue_code: dict[str, int] = {}
        self._keys: set[tuple[int, int]] = set()
        self.dialogue_codes = array("q")
        self.turn_index = array("q")
        self.episode_index = array("q")
        self.lengths = array("q")
        self.ranked = array("i")
        self.targets = array("i")
        self.target_offsets = array("q", [0])

    def _codes(self, item_ids: Sequence[str], what: str) -> list[int]:
        try:
            return list(map(self.items.code.__getitem__, item_ids))
        except (KeyError, TypeError):  # an id seen for the first time, or not a string
            return [self.items.intern(parse_id(i, what)) for i in item_ids]

    def add(
        self,
        dialogue_id: str,
        turn_index: int,
        episode_index: int,
        ranked: Sequence[str],
        targets: Sequence[str],
    ) -> None:
        dialogue = self._dialogue_code.get(dialogue_id)
        if dialogue is None:
            dialogue = self._dialogue_code[dialogue_id] = len(self.dialogue_ids)
            self.dialogue_ids.append(dialogue_id)
        key = (dialogue, turn_index)
        if key in self._keys:
            raise CorpusError(f"duplicate run entry ({dialogue_id!r}, turn {turn_index})")
        ranked_codes = self._codes(ranked, "'ranked' item")
        if len(set(ranked_codes)) != len(ranked_codes):
            raise CorpusError(
                f"run entry ({dialogue_id!r}, turn {turn_index}): "
                f"ranked list contains duplicate item ids"
            )
        self.targets.fromlist(self._codes(targets, "'targets' item"))
        self._keys.add(key)
        self.dialogue_codes.append(dialogue)
        self.turn_index.append(turn_index)
        self.episode_index.append(episode_index)
        self.lengths.append(len(ranked_codes))
        self.ranked.fromlist(ranked_codes)
        self.target_offsets.append(len(self.targets))

    def finish(self) -> RunColumns:
        lengths = np.array(self.lengths, dtype=np.int64)
        width = int(lengths.max(initial=1))  # at least one (padding) column
        ranks = np.full((len(lengths), width), -1, dtype=np.int32)
        ranks[np.arange(width) < lengths[:, None]] = np.array(self.ranked, dtype=np.int32)
        return RunColumns(
            items=self.items,
            dialogue_ids=self.dialogue_ids,
            dialogue_codes=np.array(self.dialogue_codes, dtype=np.int64),
            turn_index=np.array(self.turn_index, dtype=np.int64),
            episode_index=np.array(self.episode_index, dtype=np.int64),
            ranks=ranks,
            lengths=lengths,
            target_codes=np.array(self.targets, dtype=np.int32),
            target_offsets=np.array(self.target_offsets, dtype=np.int64),
        )


@dataclass(frozen=True)
class RankedRun:
    """A model's ranked lists for a set of recommendation turns.

    ``entries`` is a sequence of ``RunEntry``: a tuple, or the
    ``RunColumns`` that ``load_run`` builds.
    """

    model_name: str
    entries: Sequence[RunEntry]
    cutoffs: tuple[int, ...] = DEFAULT_CUTOFFS


def _array(value, key: str) -> list:
    if type(value) is not list:
        raise CorpusError(f"{key!r} must be an array of item ids, got {value!r}")
    return value


def _index(value, key: str) -> int:
    if type(value) is not int or not 0 <= value < _INDEX_LIMIT:
        raise CorpusError(f"{key!r} must be a non-negative 64-bit integer, got {value!r}")
    return value


def load_run(
    path: str | Path,
    model_name: str | None = None,
    cutoffs: Sequence[int] = DEFAULT_CUTOFFS,
    items: ItemIndex | None = None,
) -> RankedRun:
    """Read a run file: one record per line with dialogue_id, turn_index,
    episode_index, ranked, targets.

    Each line is interned into ``items`` (a fresh index when None) and
    appended to the run's columns as it is read. Any malformed line, and a
    second entry for the same (dialogue_id, turn_index), raises
    ``CorpusError`` naming ``path:line``.
    """
    path = Path(path)
    builder = _RunBuilder(items if items is not None else ItemIndex())
    for lineno, record in read_json_lines(path):
        try:
            builder.add(
                parse_id(record["dialogue_id"], "'dialogue_id'"),
                _index(record["turn_index"], "turn_index"),
                _index(record["episode_index"], "episode_index"),
                _array(record["ranked"], "ranked"),
                _array(record["targets"], "targets"),
            )
        except KeyError as exc:
            raise CorpusError(f"{path}:{lineno}: run record missing {exc.args[0]!r}") from exc
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from exc
    return RankedRun(
        model_name=model_name or path.stem,
        entries=builder.finish(),
        cutoffs=tuple(cutoffs),
    )


# ---------------------------------------------------------------------------
# corpus-level coverage


def initial_item_coverage(corpus: Corpus) -> float:
    """Catalog items with a training interaction / catalog size."""
    return item_coverage(train_frequencies(corpus))


# ---------------------------------------------------------------------------
# popularity-oriented scores (per ranked list)


def _rank_discount(rank: int, log_base: float) -> float:
    # rank is 1-based; the top item always contributes 1/(log(1)+1) = 1.
    return math.log(rank) / math.log(log_base) + 1.0


def ranking_utility(
    ranked: Sequence[str],
    popular_set: frozenset[str] | set[str],
    log_base: float = math.e,
) -> float:
    """Position-discounted count of popular items: sum of 1/(log(rank)+1)."""
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


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation, defined as 0.0 when either side has zero variance."""
    n = len(x)
    if n != len(y):
        raise ValueError("pearson requires sequences of equal length")
    if n < 2:
        raise ValueError("pearson requires at least 2 points")
    mean_x = fsum(x) / n
    mean_y = fsum(y) / n
    sxy = fsum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    sxx = fsum((a - mean_x) ** 2 for a in x)
    syy = fsum((b - mean_y) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    # clamp rounding spill so |rho| <= 1 holds exactly
    return max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))


def cross_episode_popularity(
    current: RunEntry,
    previous_episode_entries: Sequence[RunEntry],
    table: PopularityTable,
    log_base: float = math.e,
) -> float | Skipped:
    """Popularity bias of the current list, scaled by |Pearson| between its
    popularity profile and the previous episode's final recommendations.

    Popularity vectors are aligned by rank position and truncated to the
    shorter list; the comparator is the previous episode's last
    recommendation turn. First-episode entries and truncations shorter than
    2 are skipped; zero-variance profiles correlate as 0.
    """
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
    cur_pops = [table.pop_of(i) for i in current.ranked_item_ids[:length]]
    prev_pops = [table.pop_of(i) for i in previous.ranked_item_ids[:length]]
    rho = pearson(cur_pops, prev_pops)
    return popularity_bias(current.ranked_item_ids, table.popular_set, log_base) * abs(rho)


def intent_oriented_popularity(
    entry: RunEntry,
    table: PopularityTable,
    log_base: float = math.e,
) -> float | Skipped:
    """Gap between target popularity and the list's popularity bias,
    |pop(target) - pi*P|, averaged when a turn has several targets."""
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


# ---------------------------------------------------------------------------
# run-level evaluation


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std: float
    n: int
    n_skipped: int
    skip_reasons: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class BiasReport:
    """Per-metric mean/std over scored entries, with skip accounting."""

    model_name: str
    n_entries: int
    metrics: dict[str, MetricSummary]

    def to_records(self) -> list[dict]:
        return [
            {
                "model": self.model_name,
                "metric": name,
                "mean": summary.mean,
                "std": summary.std,
                "n": summary.n,
                "n_skipped": summary.n_skipped,
                "skip_reasons": summary.skip_reasons,
            }
            for name, summary in self.metrics.items()
        ]


def _validate_join(model_name: str, run: RunColumns, corpus: Corpus) -> None:
    """Each entry names a corpus dialogue and turn, and the turn's episode, if any."""
    columns = corpus.columns
    # each entry's corpus row; row -1, an unknown dialogue, reads a trailing 0 turns
    rows = np.array([columns.row_of.get(d, -1) for d in run.dialogue_ids], dtype=np.int64)
    rows, turn = rows[run.dialogue_codes], run.turn_index
    joined = (turn >= 0) & (turn < np.append(np.diff(columns.turn_offsets), 0)[rows])
    episodes = np.full(len(run), -1, dtype=np.int64)
    episodes[joined] = columns.episodes[columns.turn_offsets[rows[joined]] + turn[joined]]
    problems: set[str] = set()
    for entry in np.flatnonzero(~joined | ((episodes >= 0) & (episodes != run.episode_index))):
        dialogue_id, turn_index = run.dialogue_ids[run.dialogue_codes[entry]], turn[entry]
        if rows[entry] < 0:
            problems.add(f"unknown dialogue {dialogue_id!r}")
        elif not joined[entry]:
            problems.add(f"dialogue {dialogue_id!r}: turn_index {turn_index} out of range")
        else:
            problems.add(
                f"dialogue {dialogue_id!r} turn {turn_index}: episode_index "
                f"{run.episode_index[entry]} does not match corpus segmentation ({episodes[entry]})"
            )
    if problems:
        shown = "; ".join(sorted(problems)[:20])
        raise CorpusError(f"run {model_name!r} does not join against corpus: {shown}")


def _run_columns(run: RankedRun, corpus: Corpus) -> RunColumns:
    if isinstance(run.entries, RunColumns):
        return run.entries
    builder = _RunBuilder(ItemIndex(corpus.catalog.items))
    for entry in run.entries:
        try:
            builder.add(
                entry.dialogue_id,
                entry.turn_index,
                entry.episode_index,
                entry.ranked_item_ids,
                entry.target_item_ids,
            )
        except CorpusError as exc:
            raise CorpusError(f"run {run.model_name!r}: {exc}") from exc
    return builder.finish()


def _exact_row_sums(mask: np.ndarray, terms: Sequence[float]) -> np.ndarray:
    """``fsum(terms[j] for j if mask[row, j])`` for every row, bit for bit.

    Finite doubles are integer multiples of ``2**-scale`` for a scale taken
    from their exponents. When those integers' total fits int64, each row
    sum is an exact integer sum, and one correctly rounded int-to-float
    conversion gives the correctly rounded result that ``fsum`` returns.
    Otherwise every row is summed with ``fsum``.
    """
    terms = list(terms[: mask.shape[1]])
    exponents = [math.frexp(t)[1] for t in terms if t != 0.0]
    if exponents and all(map(math.isfinite, terms)) and min(exponents) > -900:
        scale = 53 - min(exponents)
        if max(exponents) + scale <= 62:
            scaled = [int(math.ldexp(t, scale)) for t in terms]
            if sum(map(abs, scaled)) < 2**63:
                sums = (mask * np.array(scaled, dtype=np.int64)).sum(axis=1)
                return np.ldexp(sums.astype(np.float64), -scale)
    return np.array(
        [fsum(t for t, used in zip(terms, row) if used) for row in mask.tolist()],
        dtype=np.float64,
    )


# skip-reason codes; 0 means scored
_REASONS = (
    None,
    "first_episode",
    "no_previous_episode",
    "no_targets",
    "empty_ranked_list",
    "insufficient_overlap",
)
_FIRST_EPISODE, _NO_PREVIOUS, _NO_TARGETS, _EMPTY, _OVERLAP = range(1, 6)
_PEARSON_BLOCK = 512


def _previous_rows(run: RunColumns) -> np.ndarray:
    """Per entry, the row of the highest-turn entry of (dialogue, episode - 1),
    or -1 when that episode has no entries."""
    dialogue, episode = run.dialogue_codes, run.episode_index
    if not len(dialogue):
        return np.zeros(0, dtype=np.int64)
    order = np.lexsort((run.turn_index, episode, dialogue))
    d, e = dialogue[order], episode[order]
    starts = np.r_[True, (d[1:] != d[:-1]) | (e[1:] != e[:-1])]
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(starts) - 1
    # each group's last row has its highest turn; (dialogue, turn) is unique, so no ties
    last_row = order[np.r_[starts[1:], True]]
    # groups are sorted by (dialogue, episode): (d, e - 1) can only be the group just before (d, e)
    before = np.maximum(group - 1, 0)
    found = (group > 0) & (d[starts][before] == dialogue) & (e[starts][before] == episode - 1)
    return np.where(found, last_row[before], -1)


def _pearson_rows(x: np.ndarray, y: np.ndarray, length: np.ndarray) -> np.ndarray:
    """``pearson(x[i, :length[i]], y[i, :length[i]])`` for every row, bit for bit.

    Deviations and products are elementwise (IEEE, as on Python floats);
    sums stay per-row ``fsum`` over zero-padded rows (exact zeros leave
    ``fsum`` unchanged), and squares use Python's ``** 2``, which calls libm
    ``pow`` and is not always ``d * d``. Rows go in blocks so the Python
    lists stay short-lived.
    """
    inside = np.arange(x.shape[1]) < length[:, None]
    rho = np.zeros(len(length))
    for start in range(0, len(length), _PEARSON_BLOCK):
        rows = slice(start, start + _PEARSON_BLOCK)
        mask, n = inside[rows], length[rows]
        x_rows, y_rows = np.where(mask, x[rows], 0.0), np.where(mask, y[rows], 0.0)
        mean_x = np.array([fsum(row) for row in x_rows.tolist()]) / n
        mean_y = np.array([fsum(row) for row in y_rows.tolist()]) / n
        dx = np.where(mask, x_rows - mean_x[:, None], 0.0)
        dy = np.where(mask, y_rows - mean_y[:, None], 0.0)
        sxy = np.array([fsum(row) for row in (dx * dy).tolist()])
        sxx = np.array([fsum([d ** 2 for d in row]) for row in dx.tolist()])
        syy = np.array([fsum([d ** 2 for d in row]) for row in dy.tolist()])
        varied = (sxx != 0.0) & (syy != 0.0)
        if (varied & (sxx * syy == 0.0)).any():
            raise ZeroDivisionError("float division by zero")  # as pearson, on an underflowed product
        block = rho[rows]
        block[varied] = np.clip(sxy[varied] / np.sqrt(sxx[varied] * syy[varied]), -1.0, 1.0)
    return rho


def _score_columns(
    run: RunColumns,
    table: PopularityTable,
    cutoffs: tuple[int, ...],
    log_base: float,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Every metric for every entry: ``name -> (values, skip-reason codes)``.

    Each column equals the per-entry oracle functions above bit for bit.
    Padding slots (code -1) read the last slot of ``pop``/``popular``, an
    extra unpopular item with popularity 0.
    """
    pop, popular = table.arrays(run.items)
    pop, popular = np.append(pop, 0.0), np.append(popular, False)
    ranks, lengths = run.ranks, run.lengths
    n, width = ranks.shape
    rows = np.arange(n)
    empty = lengths == 0

    is_popular = popular[ranks]
    utility = _exact_row_sums(
        is_popular, [1.0 / _rank_discount(rank, log_base) for rank in range(1, width + 1)]
    )
    coverage = np.zeros(n)
    np.divide(is_popular.sum(axis=1), lengths, out=coverage, where=~empty)
    bias = utility * coverage
    scores = {"pop_bias": (bias, np.where(empty, _EMPTY, 0))}

    # cross-episode popularity, with the oracle's skip order
    previous = _previous_rows(run)
    overlap = np.minimum(lengths, lengths[previous])
    cep_reason = np.select(
        [run.episode_index == 0, previous < 0, empty, overlap < 2],
        [_FIRST_EPISODE, _NO_PREVIOUS, _EMPTY, _OVERLAP],
        0,
    )
    scored = np.flatnonzero(cep_reason == 0)
    cep = np.zeros(n)
    rho = _pearson_rows(pop[ranks[scored]], pop[ranks[previous[scored]]], overlap[scored])
    cep[scored] = bias[scored] * np.abs(rho)
    scores["cep"] = (cep, cep_reason)

    # intent-oriented popularity: mean |pop(target) - bias| over the raw targets
    offsets = run.target_offsets
    n_targets = np.diff(offsets)
    target_row = np.repeat(rows, n_targets)
    gaps = np.abs(pop[run.target_codes] - bias[target_row]).tolist()
    bounds = offsets.tolist()
    uiop = np.array(
        [fsum(gaps[a:b]) / (b - a) if b > a else 0.0 for a, b in zip(bounds, bounds[1:])]
    )
    no_targets = n_targets == 0
    scores["uiop"] = (uiop, np.select([no_targets, empty], [_NO_TARGETS, _EMPTY], 0))

    # rank metrics over the distinct targets
    pairs = np.unique(target_row * len(pop) + run.target_codes)
    pair_row, pair_code = np.divmod(pairs, len(pop))
    match = ranks[pair_row] == pair_code[:, None]
    found = match.any(axis=1)
    hit = np.zeros((n, width), dtype=bool)
    hit[pair_row[found], match[found].argmax(axis=1)] = True
    n_distinct = np.bincount(pair_row, minlength=n)
    depth = max(width, int(n_distinct.max(initial=0)))
    log2_terms = [1.0 / math.log2(rank + 1) for rank in range(1, depth + 1)]
    idcg = _exact_row_sums(np.arange(depth) < n_distinct[:, None], log2_terms)
    idcg[no_targets] = 1.0
    any_hit, first_hit = hit.any(axis=1), hit.argmax(axis=1)
    rank_reason = np.where(no_targets, _NO_TARGETS, 0)
    for k in cutoffs:
        top = hit[:, :k]
        scores[f"hit@{k}"] = (top.any(axis=1).astype(np.float64), rank_reason)
        scores[f"ndcg@{k}"] = (_exact_row_sums(top, log2_terms) / idcg, rank_reason)
        mrr = np.where(any_hit & (first_hit < k), 1.0 / (first_hit + 1), 0.0)
        scores[f"mrr@{k}"] = (mrr, rank_reason)
    return scores


def _metric_order(cutoffs: tuple[int, ...]) -> list[str]:
    order = ["pop_bias", "cep", "uiop"]
    for prefix in ("hit", "ndcg", "mrr"):
        order.extend(f"{prefix}@{k}" for k in cutoffs)
    return order


def evaluate_run(
    run: RankedRun,
    corpus: Corpus,
    table: PopularityTable,
    *,
    log_base: float = math.e,
) -> BiasReport:
    """Score every entry and aggregate mean/std per metric.

    Scoring is column-wise over the run's interned item codes and equals the
    per-entry functions above bit for bit; aggregation runs in entry order
    with exact (fsum) summation. Metrics with zero scored entries are omitted
    from the report rather than reported as 0.
    """
    columns = _run_columns(run, corpus)
    _validate_join(run.model_name, columns, corpus)
    scores = _score_columns(columns, table, run.cutoffs, log_base)

    metrics: dict[str, MetricSummary] = {}
    for name in _metric_order(run.cutoffs):
        column, reasons = scores[name]
        values = column[reasons == 0].tolist()
        if not values:
            continue
        skipped = np.flatnonzero(reasons)
        codes, first = np.unique(reasons[skipped], return_index=True)
        counts = np.bincount(reasons[skipped])
        skip_reasons = {
            _REASONS[code]: int(counts[code]) for code in codes[np.argsort(first)].tolist()
        }
        mean = fsum(values) / len(values)
        std = math.sqrt(fsum((v - mean) ** 2 for v in values) / len(values))
        metrics[name] = MetricSummary(
            mean=mean,
            std=std,
            n=len(values),
            n_skipped=len(skipped),
            skip_reasons=skip_reasons,
        )
    return BiasReport(model_name=run.model_name, n_entries=len(columns), metrics=metrics)


# ---------------------------------------------------------------------------
# report rendering


def save_report(report: BiasReport, path: str | Path) -> None:
    encoder = json.JSONEncoder(ensure_ascii=False, sort_keys=True)
    write_json_lines(path, report.to_records(), encoder)


_REPORT_FIELDS = (
    ("model", (str,)),
    ("metric", (str,)),
    ("mean", (int, float)),
    ("std", (int, float)),
    ("n", (int,)),
    ("n_skipped", (int,)),
)


def load_report_records(path: str | Path) -> list[dict]:
    """Read a ``save_report`` file; a malformed line, a record missing a
    field (or holding the wrong type) or a ``mean`` or ``std`` that does not
    convert to a float raises ``CorpusError`` with path:line."""
    path = Path(path)
    records: list[dict] = []
    for lineno, record in read_json_lines(path):
        for key, types in _REPORT_FIELDS:
            if key not in record:
                raise CorpusError(f"{path}:{lineno}: report record missing {key!r}")
            if type(record[key]) not in types:
                raise CorpusError(f"{path}:{lineno}: report field {key!r} has {record[key]!r}")
        for key in ("mean", "std"):
            try:
                float(record[key])
            except OverflowError:
                raise CorpusError(
                    f"{path}:{lineno}: report field {key!r} does not fit a float"
                ) from None
        if type(record.get("skip_reasons", {})) is not dict:
            raise CorpusError(f"{path}:{lineno}: report field 'skip_reasons' is not an object")
        records.append(record)
    return records


def format_report_table(reports: Iterable[BiasReport]) -> str:
    """Aligned-column text table: one row per (model, metric)."""
    rows = [("model", "metric", "mean", "std", "n", "skipped")]
    for report in reports:
        for name, summary in report.metrics.items():
            rows.append(
                (
                    report.model_name,
                    name,
                    f"{summary.mean:.4f}",
                    f"{summary.std:.4f}",
                    str(summary.n),
                    str(summary.n_skipped),
                )
            )
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)

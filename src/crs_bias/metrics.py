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

The per-entry functions are the reference definitions. ``load_run`` fills a
run's columns through the loader harness the corpus store uses
(``corpus.fill_checked``): records are checked a run of 256 at a time, one
pass per rule, and a run that breaks a rule is checked again record by
record, so the error names the first bad line. ``evaluate_run`` scores a
whole run column-wise over interned item codes and reproduces the reference
functions bit for bit: row sums are exact as two fixed-point limbs (``fsum``
where the terms do not fit), and CEP's per-row Pearson statistics are
computed once per distinct (row, overlap), however many entries share it.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from itertools import compress, repeat
from math import fsum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, CorpusError, fill_checked, parse_id, read_json_lines, write_json_lines
from .corpus import _all_of, _offsets, _sorted_distinct, _transpose
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
    ``lines[i]`` is the entry's line in the run file ``path``, or its
    position in the tuple it was built from when ``path`` is None.
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
    lines: np.ndarray
    path: Path | None = None

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


_RUN_FIELDS = ("dialogue_id", "turn_index", "episode_index", "ranked", "targets")


class _RunBuilder:
    """Appends run-file records straight into compact columns, a checked run
    of records at a time (see ``corpus.fill_checked``), interning ids as it
    goes."""

    def __init__(self, items: ItemIndex):
        self.items = items
        self._dialogue_code: dict[str, int] = {}
        self._keys: set[tuple[int, int]] = set()
        self.lines = array("q")
        self.dialogue_codes = array("q")
        self.turn_index = array("q")
        self.episode_index = array("q")
        self.lengths = array("q")
        self.ranked = [np.zeros(0, dtype=np.int32)]  # one array per run
        self.n_targets = array("q")
        self.targets = array("i")

    def add_records(self, run: list[tuple[int, dict]]) -> bool:
        """Append a run of numbered run-file records if every one is valid,
        checking each rule once over the whole run; False, with nothing
        appended, if any check fails (new ids may have been interned)."""
        if not run:
            return True
        try:
            lines, records = zip(*run)
            ids, turns, episodes, ranked, targets = _transpose(records, _RUN_FIELDS)
            if not _all_of(ids, str):
                ids = [parse_id(i, "") for i in ids]
            if not (_all_of(turns, int) and _all_of(episodes, int)
                    and _all_of(ranked, list) and _all_of(targets, list)):
                return False
            if (np.array((turns, episodes), dtype=np.int64) < 0).any():  # OverflowError past int64
                return False
            code = self._dialogue_code
            dialogues = [code.setdefault(d, len(code)) for d in ids]
            keys = set(zip(dialogues, turns))
            if len(keys) != len(records) or not self._keys.isdisjoint(keys):
                return False
            ranked_codes, target_codes = self.items.intern_lists(ranked, targets)
            ranked_codes = np.array(ranked_codes, dtype=np.int32)
            lengths = list(map(len, ranked))
            # one sort finds every ranked list that names an item twice
            owned = np.repeat(np.arange(len(records), dtype=np.int64) * len(self.items), lengths)
            if len(_sorted_distinct(owned + ranked_codes)) < len(ranked_codes):
                return False
        except (KeyError, TypeError, CorpusError, OverflowError):
            return False
        self._keys |= keys
        self.lines.fromlist(list(lines))
        self.dialogue_codes.fromlist(dialogues)
        self.turn_index.fromlist(turns)
        self.episode_index.fromlist(episodes)
        self.lengths.fromlist(lengths)
        self.ranked.append(ranked_codes)
        self.n_targets.fromlist(list(map(len, targets)))
        self.targets.fromlist(target_codes)
        return True

    def check_record(self, record: dict) -> None:
        """Raise ``CorpusError`` naming the first field of a run-file record
        that breaks a rule, checked in field order; append nothing."""
        try:
            dialogue_id = parse_id(record["dialogue_id"], "'dialogue_id'")
            for key in ("turn_index", "episode_index"):
                value = record[key]
                if type(value) is not int or not 0 <= value < _INDEX_LIMIT:
                    raise CorpusError(
                        f"{key!r} must be a non-negative 64-bit integer, got {value!r}"
                    )
            for key in ("ranked", "targets"):
                if type(record[key]) is not list:
                    raise CorpusError(f"{key!r} must be an array of item ids, got {record[key]!r}")
        except KeyError as exc:
            raise CorpusError(f"run record missing {exc.args[0]!r}") from None
        turn_index = record["turn_index"]
        if (self._dialogue_code.get(dialogue_id), turn_index) in self._keys:
            raise CorpusError(f"duplicate run entry ({dialogue_id!r}, turn {turn_index})")
        ranked = [parse_id(item_id, "'ranked' item") for item_id in record["ranked"]]
        if len(set(ranked)) != len(ranked):
            raise CorpusError(
                f"run entry ({dialogue_id!r}, turn {turn_index}): "
                f"ranked list contains duplicate item ids"
            )
        for item_id in record["targets"]:
            parse_id(item_id, "'targets' item")

    def finish(self, path: Path | None) -> RunColumns:
        lengths = np.array(self.lengths, dtype=np.int64)
        width = int(lengths.max(initial=1))  # at least one (padding) column
        ranks = np.full((len(lengths), width), -1, dtype=np.int32)
        ranks[np.arange(width) < lengths[:, None]] = np.concatenate(self.ranked)
        return RunColumns(
            items=self.items,
            dialogue_ids=list(self._dialogue_code),
            dialogue_codes=np.array(self.dialogue_codes, dtype=np.int64),
            turn_index=np.array(self.turn_index, dtype=np.int64),
            episode_index=np.array(self.episode_index, dtype=np.int64),
            ranks=ranks,
            lengths=lengths,
            target_codes=np.array(self.targets, dtype=np.int32),
            target_offsets=_offsets(self.n_targets),
            lines=np.array(self.lines, dtype=np.int64),
            path=path,
        )


def _load_columns(
    numbered: Iterable[tuple[int, dict]], items: ItemIndex, path: Path | None = None
) -> RunColumns:
    builder = _RunBuilder(items)
    fill_checked(builder, numbered, path)
    return builder.finish(path)


@dataclass(frozen=True)
class RankedRun:
    """A model's ranked lists for a set of recommendation turns.

    ``entries`` is a sequence of ``RunEntry``: a tuple, or the
    ``RunColumns`` that ``load_run`` builds.
    """

    model_name: str
    entries: Sequence[RunEntry]


def load_run(path: str | Path, items: ItemIndex | None = None) -> RankedRun:
    """Read a run file, named for the model by its stem: one record per line
    with dialogue_id, turn_index, episode_index, ranked, targets.

    Lines are checked and appended to the run's columns a run of records at
    a time, their ids interned into ``items`` (a fresh index when None) in
    reading order. Any malformed line, and a second entry for the same
    (dialogue_id, turn_index), raises ``CorpusError`` naming ``path:line``.
    """
    path = Path(path)
    items = items if items is not None else ItemIndex()
    return RankedRun(path.stem, _load_columns(read_json_lines(path), items, path))


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
    """Each entry names a corpus dialogue and turn, and the turn's episode, if
    any; the error for a run file names the line of its first such entry."""
    columns = corpus.columns
    # each entry's corpus row; row -1, an unknown dialogue, reads a trailing 0 turns
    rows = np.array([columns.row_of.get(d, -1) for d in run.dialogue_ids], dtype=np.int64)
    rows, turn = rows[run.dialogue_codes], run.turn_index
    joined = (turn >= 0) & (turn < np.append(np.diff(columns.turn_offsets), 0)[rows])
    episodes = np.full(len(run), -1, dtype=np.int64)
    episodes[joined] = columns.episodes[columns.turn_offsets[rows[joined]] + turn[joined]]
    problems: set[str] = set()
    bad = np.flatnonzero(~joined | ((episodes >= 0) & (episodes != run.episode_index)))
    for entry in bad:
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
        where = "" if run.path is None else f"{run.path}:{run.lines[bad[0]]}: "
        raise CorpusError(f"{where}run {model_name!r} does not join against corpus: {shown}")


def _run_columns(run: RankedRun, corpus: Corpus) -> RunColumns:
    if isinstance(run.entries, RunColumns):
        return run.entries
    records = (
        (n, {
            "dialogue_id": e.dialogue_id, "turn_index": e.turn_index,
            "episode_index": e.episode_index, "ranked": list(e.ranked_item_ids),
            "targets": list(e.target_item_ids),
        })
        for n, e in enumerate(run.entries)
    )
    try:
        return _load_columns(records, ItemIndex(corpus.catalog.items))
    except CorpusError as exc:
        raise CorpusError(f"run {run.model_name!r}: {exc}") from None


# rows summed, and Pearson rows scored, per block
_ROW_BLOCK = 512
# bits in the low limb of a fixed-point term
_LIMB = 31


def _fixed_point(terms: np.ndarray, width: int) -> tuple[np.ndarray, int] | None:
    """``(limbs, scale)``: per term, integer-valued doubles ``(high, low)``
    with ``term == (high * 2**31 + low) * 2**-scale`` and ``0 <= low <
    2**31``, when the high limbs, and the low limbs, of any ``width`` terms
    sum below ``2**53`` in magnitude, so every partial sum of them is an
    exact double; else None.

    A finite double is an integer multiple of ``2**(exponent - 53)``, so
    ``scale`` from the smallest exponent makes every term an integer.
    """
    if not np.isfinite(terms).all():
        return None
    exponents = np.frexp(terms[terms != 0.0])[1].tolist() or [0]
    low_exponent, high_exponent = min(exponents), max(exponents)
    scale = 53 - low_exponent
    # |term| < 2**high_exponent, so |high| <= 2**(high_exponent + scale - _LIMB)
    # and a sum of width terms stays below 2**(high_exponent + bits), finite
    bits = width.bit_length()
    if (low_exponent <= -900 or high_exponent + bits > 1023
            or max(high_exponent + scale - _LIMB, _LIMB) + bits > 53):
        return None
    scaled = np.ldexp(terms, scale)  # exact integers
    high = np.floor(np.ldexp(scaled, -_LIMB))
    return np.stack((high, scaled - np.ldexp(high, _LIMB)), axis=1), scale


def _exact_row_sums(
    mask: np.ndarray, terms: Sequence[float], codes: np.ndarray | None = None
) -> np.ndarray:
    """Per row, ``fsum`` of ``terms[j]`` for every ``j`` with ``mask[row, j]``,
    or of ``terms[codes[row, j]]`` when ``codes`` is given, bit for bit.

    Terms are summed as two fixed-point limbs (``_fixed_point``), whose
    partial sums are exact in any order, so a matrix product sums them; then
    adding the high sum times ``2**31`` to the low sum rounds once, to the
    correctly rounded sum that ``fsum`` returns. Terms out of the limbs'
    range are summed with ``fsum``, row by row. Rows go in blocks of
    ``_ROW_BLOCK``.
    """
    width = mask.shape[1]
    terms = np.asarray(terms, dtype=np.float64)
    if codes is None:
        terms = terms[:width]
    fixed = _fixed_point(terms, width)
    sums = np.empty(len(mask))
    for start in range(0, len(mask), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        used = mask[rows]
        if fixed is None:
            values = np.broadcast_to(terms, used.shape) if codes is None else terms[codes[rows]]
            pairs = zip(values.tolist(), used.tolist())
            sums[rows] = [fsum(compress(row, row_used)) for row, row_used in pairs]
            continue
        limbs, scale = fixed
        if codes is None:
            high, low = (used @ limbs).T
        else:
            high, low = (np.einsum("rj,rj->r", limb[codes[rows]], used) for limb in limbs.T)
        sums[rows] = np.ldexp(np.ldexp(high, _LIMB) + low, -scale)
    return sums


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


def _pearson_rows(
    pop: np.ndarray, ranks: np.ndarray, x_rows: np.ndarray, y_rows: np.ndarray, length: np.ndarray
) -> np.ndarray:
    """``pearson(pop[ranks[x, :k]], pop[ranks[y, :k]])`` for every ``(x, y, k)``
    of ``x_rows``, ``y_rows`` and ``length``, bit for bit.

    The statistics of one side depend only on its (row, k), so each distinct
    (row, k) of either side gets them once: its mean, from exact row sums,
    and the ``fsum`` of its squared deviations, zero-padded to the width of
    ``ranks`` (exact zeros leave ``fsum`` unchanged) and squared with
    Python's ``** 2``, which calls libm ``pow`` and is not always ``d * d``.
    Only the ``fsum`` of the products is per pair. Deviations and products
    are elementwise (IEEE, as on Python floats); rows go in blocks so the
    Python lists stay short-lived.
    """
    n, width = len(length), ranks.shape[1]
    columns = np.arange(width)

    def deviations(codes: np.ndarray, k: np.ndarray, mean: np.ndarray) -> np.ndarray:
        return np.where(columns < k[:, None], pop[codes] - mean[:, None], 0.0)

    keys = np.concatenate((x_rows, y_rows)) * (width + 1) + np.concatenate((length, length))
    distinct, side = np.unique(keys, return_inverse=True)
    rows, k = np.divmod(distinct, width + 1)
    codes = ranks[rows]
    mean = _exact_row_sums(columns < k[:, None], pop, codes) / k
    squares = np.empty(len(distinct))
    for start in range(0, len(distinct), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        dev = deviations(codes[block], k[block], mean[block])
        squares[block] = [fsum(map(pow, row, repeat(2))) for row in dev.tolist()]

    x, y = side[:n], side[n:]
    sxx, syy = squares[x], squares[y]
    sxy = np.empty(n)
    for start in range(0, n, _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        dx = deviations(ranks[x_rows[block]], length[block], mean[x[block]])
        dy = deviations(ranks[y_rows[block]], length[block], mean[y[block]])
        sxy[block] = [fsum(row) for row in (dx * dy).tolist()]
    rho = np.zeros(n)
    varied = (sxx != 0.0) & (syy != 0.0)
    if (varied & (sxx * syy == 0.0)).any():
        raise ZeroDivisionError("float division by zero")  # as pearson, on an underflowed product
    rho[varied] = np.clip(sxy[varied] / np.sqrt(sxx[varied] * syy[varied]), -1.0, 1.0)
    return rho


def _score_columns(
    run: RunColumns,
    table: PopularityTable,
    cutoffs: Sequence[int],
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
    rho = _pearson_rows(pop, ranks, scored, previous[scored], overlap[scored])
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
    pairs = _sorted_distinct(target_row * len(pop) + run.target_codes)
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


def _metric_order(cutoffs: Sequence[int]) -> list[str]:
    order = ["pop_bias", "cep", "uiop"]
    for prefix in ("hit", "ndcg", "mrr"):
        order.extend(f"{prefix}@{k}" for k in cutoffs)
    return order


def evaluate_run(
    run: RankedRun,
    corpus: Corpus,
    table: PopularityTable,
    *,
    cutoffs: Sequence[int] = DEFAULT_CUTOFFS,
    log_base: float = math.e,
) -> BiasReport:
    """Score every entry and aggregate mean/std per metric, with Hit, NDCG
    and MRR at each of ``cutoffs``.

    Scoring is column-wise over the run's interned item codes and equals the
    per-entry functions above bit for bit; aggregation runs in entry order
    with exact (fsum) summation. Metrics with zero scored entries are omitted
    from the report rather than reported as 0.
    """
    columns = _run_columns(run, corpus)
    _validate_join(run.model_name, columns, corpus)
    scores = _score_columns(columns, table, cutoffs, log_base)

    metrics: dict[str, MetricSummary] = {}
    for name in _metric_order(cutoffs):
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

"""Bias and rank-accuracy metrics over ranked recommendation runs.

A run pairs each evaluated (dialogue, turn) with the model's ranked item
list and the ground-truth targets. This module scores:

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

``load_run`` fills a run's columns through the loader harness the corpus
store uses (``corpus.fill_checked``): ``_RunBuilder.add_records`` writes each
rule once and checks 256 records at a time; a run that breaks a rule is added
again record by record, so the error names the first bad line.
``evaluate_run`` is the one scoring path: it scores a whole run column-wise
over interned item codes. The per-entry definitions it reproduces bit for
bit live in the test suite (``tests/reference.py``); each sum they take with
``fsum`` is here an exact integer sum, rounded once (rank discounts at the
finest one's power-of-two scale; CEP's Pearson sums over integer training
frequencies).
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

from .corpus import Corpus, fill_checked, _all_of, _check_distinct, _column, _first_failing
from .corpus import _id_arrays, _offsets, _sorted_distinct
from .popularity import ItemIndex, PopularityTable
from .records import DEFAULT_CUTOFFS, REPORT_FORMAT, CorpusError, parse_id, read_json_lines
from .records import write_json_lines
from .records import format_report_table, load_report_records  # re-exported: defined in records

# run-file turn and episode indices are stored as int64
_INDEX_LIMIT = 2**63


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
            raise _repeated_ranked_id(self.dialogue_id, self.turn_index)


def _repeated_ranked_id(dialogue_id: str, turn_index: int) -> CorpusError:
    return CorpusError(f"run entry ({dialogue_id!r}, turn {turn_index}): "
                       f"ranked list contains duplicate item ids")


@dataclass(frozen=True, eq=False)
class RunColumns:
    """A run stored column-wise over interned item ids.

    ``ranks`` is an (entries x longest list, at least 1) int32 matrix of
    item codes, padded with -1 past each row's ``lengths``. Entry ``i``'s
    targets are ``target_codes[target_offsets[i]:target_offsets[i + 1]]``.
    ``lines[i]`` is the entry's line in the run file ``path``, or its
    position among the entries it was built from when ``path`` is None.
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


def _index_column(records, key: str) -> list[int]:
    """Each run record's ``key``, a non-negative 64-bit integer."""
    values = _column(records, key, "run record")
    bad = _first_failing(values, lambda v: _all_of(v, int) and 0 <= min(v, default=0)
                         and max(v, default=0) < _INDEX_LIMIT)
    if bad < len(values):
        raise CorpusError(f"{key!r} must be a non-negative 64-bit integer, got {values[bad]!r}")
    return values


class _RunBuilder:
    """Appends run-file records straight into compact columns, a checked run
    of records at a time (see ``corpus.fill_checked``), interning ids as it
    goes."""

    def __init__(self, items: ItemIndex):
        self.items = items
        self._dialogue_code: dict[str, int] = {}
        self._keys: set[tuple[str, int]] = set()
        self.lines = array("q")
        self.dialogue_codes = array("q")
        self.turn_index = array("q")
        self.episode_index = array("q")
        self.lengths = array("q")
        self.ranked = [np.zeros(0, dtype=np.int32)]  # one array per run
        self.n_targets = array("q")
        self.targets = array("i")

    def add_records(self, run: list[tuple[int, dict]]) -> None:
        """Append numbered run-file records as ``_ColumnsBuilder`` does; for one
        record: fields in order, a repeated entry, ranked ids, a repeat, targets."""
        lines, records = zip(*run)
        ids = _column(records, "dialogue_id", "run record")
        if not _all_of(ids, str):
            ids = [parse_id(i, "'dialogue_id'") for i in ids]
        turns, episodes = (_index_column(records, key) for key in ("turn_index", "episode_index"))
        ranked = _id_arrays(_column(records, "ranked", "run record"), "'ranked'")
        targets = _id_arrays(_column(records, "targets", "run record"), "'targets'")
        keys = list(zip(ids, turns))
        _check_distinct(keys, self._keys, "duplicate run entry ({0[0]!r}, turn {0[1]})")
        lengths, labels = list(map(len, ranked)), ("'ranked'", "'targets'")
        try:
            codes = self.items.intern_lists(ranked, targets, labels)
        except CorpusError:  # a bad or repeated ranked id comes before a bad target
            ranked_only = self.items.intern_lists(ranked, [[]] * len(ranked), labels)[0]
            self._check_ranked(ids, turns, lengths, ranked_only)
            raise
        ranked_codes = np.array(codes[0], dtype=np.int32)
        self._check_ranked(ids, turns, lengths, ranked_codes)
        code = self._dialogue_code
        self._keys.update(keys)
        self.lines.fromlist(list(lines))
        self.dialogue_codes.fromlist([code.setdefault(d, len(code)) for d in ids])
        self.turn_index.fromlist(turns)
        self.episode_index.fromlist(episodes)
        self.lengths.fromlist(lengths)
        self.ranked.append(ranked_codes)
        self.n_targets.fromlist(list(map(len, targets)))
        self.targets.fromlist(codes[1])

    def _check_ranked(self, ids: list, turns: list, lengths: list, codes) -> None:
        """``CorpusError`` for the first ranked list (``lengths`` of ``codes``) with a repeat."""
        n = len(self.items)
        keys = np.sort(np.repeat(np.arange(len(lengths), dtype=np.int64) * n, lengths) + codes)
        repeated = keys[1:][keys[1:] == keys[:-1]]
        if repeated.size:
            raise _repeated_ranked_id(ids[repeated[0] // n], turns[repeated[0] // n])

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
    """A model's ranked lists for a set of recommendation turns, in the
    ``RunColumns`` that ``load_run`` or ``from_entries`` builds."""

    model_name: str
    entries: RunColumns

    def __post_init__(self) -> None:
        if not isinstance(self.entries, RunColumns):
            raise TypeError(f"run {self.model_name!r}: entries must be RunColumns, not "
                            f"{type(self.entries).__name__}; see RankedRun.from_entries")

    @classmethod
    def from_entries(cls, model_name: str, entries: Iterable[RunEntry]) -> "RankedRun":
        """The run of ``RunEntry`` objects, checked as a run file's records
        are and interned into a fresh ``ItemIndex``; an error names the run."""
        records = enumerate(
            {"dialogue_id": e.dialogue_id, "turn_index": e.turn_index,
             "episode_index": e.episode_index, "ranked": list(e.ranked_item_ids),
             "targets": list(e.target_item_ids)}
            for e in entries
        )
        try:
            return cls(model_name, _load_columns(records, ItemIndex()))
        except CorpusError as exc:
            raise CorpusError(f"run {model_name!r}: {exc}") from None


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
# scoring settings and the rank discount


def _check_scoring(cutoffs: Sequence[int] = (), log_base: float = math.e) -> None:
    """Raise ``ValueError`` naming a cutoff below 1 or a ``log_base`` outside
    (1, inf), where the rank discount log_b(r) + 1 would drop below 1.
    ``evaluate_run`` calls it before it scores anything."""
    for k in cutoffs:
        if k < 1:
            raise ValueError(f"cutoff must be >= 1, got {k!r}")
    if not 1 < log_base < math.inf:
        raise ValueError(f"log_base must be greater than 1, got {log_base!r}")


def _rank_discount(rank: int, log_base: float) -> float:
    # rank is 1-based; the top item always contributes 1/(log(1)+1) = 1.
    return math.log(rank) / math.log(log_base) + 1.0


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
                "report_format": REPORT_FORMAT,
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


# rows summed, and Pearson rows scored, per block, so that no call holds an
# (entries x width) matrix of integers
_ROW_BLOCK = 512


def _sum_dtype(count: int, largest: int) -> type:
    """``np.int64`` when any ``count`` integers of magnitude at most
    ``largest`` sum below ``2**63`` in magnitude, else ``object`` (Python ints)."""
    return np.int64 if count * largest < 2**63 else object


def _exact_row_sums(mask: np.ndarray, terms: Sequence[float]) -> np.ndarray:
    """Per row, ``fsum`` of ``terms[j]`` for every ``j`` with ``mask[row, j]``,
    bit for bit, in blocks of ``_ROW_BLOCK`` rows.

    The terms are integers at the finest term's power-of-two scale, and each
    exact integer row sum (``_sum_dtype``) divided by the scale rounds once:
    an int64 sum on its conversion to a double, which a scale below
    ``2**1022`` divides exactly; a Python int by ``int / int``, which rounds
    correctly and raises ``OverflowError`` where ``fsum`` does.
    """
    width = mask.shape[1]
    ratios = [float(term).as_integer_ratio() for term in terms[:width]]
    scale = max((d for _, d in ratios), default=1)
    ints = [n * (scale // d) for n, d in ratios]
    dtype = _sum_dtype(width, max(map(abs, ints), default=0)) if scale < 2**1022 else object
    ints, divisor = np.array(ints, dtype=dtype), float(scale) if dtype is np.int64 else scale
    sums = np.empty(len(mask))
    for start in range(0, len(mask), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        sums[rows] = (mask[rows] @ ints) / divisor
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
    freq: np.ndarray, ranks: np.ndarray, x_rows: np.ndarray, y_rows: np.ndarray, length: np.ndarray
) -> np.ndarray:
    """Pearson's rho of ``freq[ranks[x, :k]]`` and ``freq[ranks[y, :k]]`` for
    every ``(x, y, k)`` of ``x_rows``, ``y_rows`` and ``length``, 0.0 when
    either side has zero variance, bit for bit as the reference ``pearson``
    (``tests/reference.py``) gives it.

    Exact integer sums N = k*sum(xy) - sum(x)*sum(y), Dx and Dy, each of
    ``width`` terms up to ``width * max(freq)**2`` (frequencies are counts,
    never negative), in int64 or Python ints by ``_sum_dtype``; only
    ``float(N) / sqrt(float(Dx) * float(Dy))``, clipped to [-1, 1], rounds.
    Rows go in blocks."""
    width = ranks.shape[1]
    dtype = _sum_dtype(width, width * int(freq.max(initial=0)) ** 2)
    freq, columns = freq.astype(dtype), np.arange(width)
    rho = np.zeros(len(length))
    for start in range(0, len(length), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        k = length[block].astype(dtype)
        used = columns < k[:, None]
        x = np.where(used, freq[ranks[x_rows[block]]], 0)
        y = np.where(used, freq[ranks[y_rows[block]]], 0)
        sum_x, sum_y = x.sum(axis=1), y.sum(axis=1)
        n = (k * (x * y).sum(axis=1) - sum_x * sum_y).astype(np.float64)
        dx = (k * (x * x).sum(axis=1) - sum_x * sum_x).astype(np.float64)
        dy = (k * (y * y).sum(axis=1) - sum_y * sum_y).astype(np.float64)
        varied = (dx != 0.0) & (dy != 0.0)
        rho[block][varied] = np.clip(n[varied] / np.sqrt(dx[varied] * dy[varied]), -1.0, 1.0)
    return rho


def _score_columns(
    run: RunColumns,
    table: PopularityTable,
    cutoffs: Sequence[int],
    log_base: float,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Every metric for every entry: ``name -> (values, skip-reason codes)``.

    Each column equals the per-entry reference functions of the test suite
    (``tests/reference.py``) bit for bit, skip reasons and their order
    included.
    Padding slots (code -1) read the trailing slot of ``freq``/``pop``/``popular``
    (see ``PopularityTable.gather``), an unpopular item with frequency 0.
    """
    freq, pop, popular = table.gather(run.items)
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

    # cross-episode popularity, with the reference's skip order
    previous = _previous_rows(run)
    overlap = np.minimum(lengths, lengths[previous])
    cep_reason = np.select(
        [run.episode_index == 0, previous < 0, empty, overlap < 2],
        [_FIRST_EPISODE, _NO_PREVIOUS, _EMPTY, _OVERLAP],
        0,
    )
    scored = np.flatnonzero(cep_reason == 0)
    cep = np.zeros(n)
    rho = _pearson_rows(freq, ranks, scored, previous[scored], overlap[scored])
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

    Scoring is column-wise over the run's interned item codes (see
    ``_score_columns``); aggregation runs in entry order
    with exact (fsum) summation. Metrics with zero scored entries are omitted
    from the report rather than reported as 0. A cutoff below 1 or a
    ``log_base`` outside (1, inf) raises ``ValueError``.
    """
    _check_scoring(cutoffs, log_base)
    columns = run.entries
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
        metrics[name] = MetricSummary(mean, std, len(values), len(skipped), skip_reasons)
    return BiasReport(model_name=run.model_name, metrics=metrics)


# ---------------------------------------------------------------------------
# report files, read and rendered by ``records`` (``load_report_records``,
# ``format_report_table``)


def save_report(report: BiasReport, path: str | Path) -> None:
    encoder = json.JSONEncoder(ensure_ascii=False, sort_keys=True)
    write_json_lines(path, report.to_records(), encoder)

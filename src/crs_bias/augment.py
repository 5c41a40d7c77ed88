"""Training-corpus augmentation with synthetic recommendation dialogues.

Two strategies:

* ``once_aug`` — append the entire synthetic pool to the training split once.
* ``pop_nudge`` — walk the training data in seeded shuffled batches; for each
  anchor dialogue, sample up to k synthetic dialogues whose item is no more
  popular than the anchor's most popular item, weighting draws by item
  popularity. The result is a deterministic plan (batch -> anchor -> sampled
  synthetic ids) that trainers can consume batch-by-batch or as a flat corpus.

Plans are bitwise reproducible: batch order comes from one seeded shuffle and
every (batch, anchor) pair gets its own RNG stream derived from
(seed, batch_index, anchor_position), so generating batches in parallel
cannot change the output. Sequential draws also make sampled sets grow as
prefixes in k, which keeps post-augmentation coverage monotone in k for a
fixed seed.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right, insort
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .corpus import SYNTHETIC, Corpus, CorpusError, Dialogue, DialogueColumns, ItemIndex
from .corpus import load_dialogues, read_json_lines, write_json_lines
from .popularity import PopularityTable, item_coverage, train_counts

# stream tags keep the shuffle RNG disjoint from per-anchor sampling RNGs
_STREAM_SHUFFLE = 0
_STREAM_ANCHOR = 1

# the plan format save_plan writes; load_plan also reads version 1
PLAN_FORMAT_VERSION = 2


class AugmentError(ValueError):
    """Invalid augmentation input (bad pool, inconsistent plan, ...)."""


class AuditError(RuntimeError):
    """A generated plan violates the popularity filter invariant."""


@dataclass(frozen=True, eq=False)
class SyntheticPool:
    """Generated single-item dialogues available as augmentation material, in a
    ``DialogueColumns`` store; dialogue ``d`` recommends item ``item_codes[d]``."""

    columns: DialogueColumns
    item_codes: np.ndarray

    @classmethod
    def from_columns(cls, columns: DialogueColumns, path: Path | None = None) -> "SyntheticPool":
        """Validate that each dialogue is synthetic and touches exactly one
        item; the error for the first that does not is prefixed by its
        ``path:line`` when ``path``, the file the store was read from, is
        given."""
        rows, codes = columns.dialogue_items
        n_items = np.bincount(rows, minlength=len(columns))
        synthetic = columns.provenance == SYNTHETIC
        bad = np.flatnonzero(~synthetic | (n_items != 1))
        if bad.size:
            row = int(bad[0])
            where = "" if path is None else f"{path}:{columns.lines[row]}: "
            dialogue = f"{where}pool dialogue {columns.dialogue_ids[row]!r}"
            if not synthetic[row]:
                raise AugmentError(f"{dialogue} is not synthetic")
            raise AugmentError(
                f"{dialogue} mentions {n_items[row]} distinct items; exactly one is required"
            )
        return cls(columns=columns, item_codes=codes)

    @classmethod
    def from_dialogues(
        cls, dialogues: Sequence[Dialogue], items: ItemIndex | None = None
    ) -> "SyntheticPool":
        """The pool of ``Dialogue`` objects, validated as ``from_columns`` does;
        item ids are interned into ``items`` (a fresh index when None)."""
        try:
            columns = DialogueColumns.from_dialogues(dialogues, items)
        except CorpusError as exc:  # a repeated dialogue_id
            raise AugmentError(f"pool contains {exc}") from None
        return cls.from_columns(columns)

    @cached_property
    def item_of(self) -> dict[str, str]:
        """dialogue_id -> the item it recommends."""
        ids = self.columns.items.ids
        return dict(zip(self.columns.dialogue_ids, map(ids.__getitem__, self.item_codes.tolist())))

    @property
    def dialogues(self) -> tuple[Dialogue, ...]:  # built on each access, not kept
        return tuple(self.columns.iter_dialogues())

    @cached_property
    def digest(self) -> str:
        """``pool_digest`` of this pool, computed on first use."""
        return pool_digest(self)

    def __len__(self) -> int:
        return len(self.columns)


def load_pool(path: str | Path, items: ItemIndex | None = None) -> SyntheticPool:
    """Read a pool file; its item ids go into ``items`` (a new index if None).
    A dialogue that breaks a pool rule is named with its ``path:line``."""
    path = Path(path)
    return SyntheticPool.from_columns(load_dialogues(path, items), path)


def pool_digest(pool: SyntheticPool) -> str:
    """Content digest of (dialogue_id, item_id) pairs, order-independent."""
    digest = hashlib.sha256()
    for dialogue_id in sorted(pool.item_of):
        digest.update(f"{dialogue_id}\t{pool.item_of[dialogue_id]}\n".encode("utf-8"))
    return digest.hexdigest()


def anchor_popularity(dialogue: Dialogue, table: PopularityTable) -> float:
    """Popularity of a training dialogue: the max over its items' scores."""
    columns = DialogueColumns.from_dialogues([dialogue])
    return float(columns.dialogue_max(table.arrays(columns.items)[0])[0])


# ---------------------------------------------------------------------------
# once_aug


def once_aug(train: Corpus, pool: SyntheticPool) -> Corpus:
    """Append every pool dialogue to the training split; other splits untouched."""
    return train.appended(pool.columns, np.arange(len(pool)))


# ---------------------------------------------------------------------------
# weighted sampling


def _weight_prefix(weights) -> tuple[list[int], list[int]]:
    """Validated integer weights and their cumulative sums, as lists: a
    draw's searches are ``bisect`` calls, far cheaper than numpy calls."""
    weights = np.asarray(weights)
    if weights.size and weights.dtype.kind not in "iu":
        raise AugmentError("weights must be integers")
    if (weights < 0).any():
        raise AugmentError("weights must be non-negative")
    if sum(weights.tolist()) >= 2**53:
        raise AugmentError("total weight must be below 2**53")
    weights = weights.astype(np.int64)
    return weights.tolist(), np.cumsum(weights).tolist()


def _draw(
    prefix: list[int], weights: list[int], cut: int, k: int, rng: np.random.Generator
) -> list[int]:
    """Indices of up to k draws without replacement from ``weights[:cut]``.

    A draw takes one variate u and hits the first live index whose live
    cumulative weight exceeds ``min(floor(u * total), total - 1)``; once the
    live weight is zero, it takes live position ``rng.integers(live)``. The
    hit is one search on ``prefix``, repeated past each drawn index at or
    below it with that index's weight added to the target, so a draw is
    O(k log n) and exact for totals below 2**53.
    """
    removed: list[int] = []  # drawn indices, sorted
    chosen: list[int] = []
    total = prefix[cut - 1] if cut else 0
    for _ in range(min(k, cut)):
        if total > 0:
            target = min(int(rng.random() * total), total - 1)
            index = bisect_right(prefix, target)
            for r in removed:
                if r > index:
                    break
                target += weights[r]
                index = bisect_right(prefix, target)
        else:
            # live position -> index: step past the removed indices
            index = int(rng.integers(cut - len(removed)))
            for r in removed:
                if r > index:
                    break
                index += 1
        insort(removed, index)
        chosen.append(index)
        total -= weights[index]
    return chosen


def weighted_sample_without_replacement(
    candidates: Sequence,
    weights: Sequence[int],
    k: int,
    rng: np.random.Generator,
) -> list:
    """Draw up to k distinct candidates, each draw proportional to the
    remaining integer weights; once all remaining weight is zero, draws are
    uniform.

    Each draw consumes exactly one RNG variate, so the first j draws of a
    k-draw run equal the draws of a j-draw run on the same stream.
    """
    if len(candidates) != len(weights):
        raise AugmentError("candidates and weights must have equal length")
    weights, prefix = _weight_prefix(weights)
    return [candidates[i] for i in _draw(prefix, weights, len(candidates), k, rng)]


# ---------------------------------------------------------------------------
# pop_nudge plans


@dataclass(frozen=True)
class PlanBatch:
    """One training batch: its anchors and the ids sampled per anchor."""

    index: int
    anchor_ids: tuple[str, ...]
    samples: dict[str, tuple[str, ...]]

    def appended_ids(self) -> tuple[str, ...]:
        """Batch-level appendage: per-anchor samples deduplicated in order."""
        seen: dict[str, None] = {}
        for anchor_id in self.anchor_ids:
            for synthetic_id in self.samples.get(anchor_id, ()):
                seen.setdefault(synthetic_id, None)
        return tuple(seen)


@dataclass(frozen=True)
class AugmentationPlan:
    seed: int
    k: int
    batch_size: int
    strategy: str
    pool_digest: str
    batches: tuple[PlanBatch, ...]
    n_anchors_without_candidates: int = 0
    n_anchors_truncated: int = 0
    # 1: float-popularity draws; 2: exact integer-frequency draws
    format_version: int = PLAN_FORMAT_VERSION

    def appended_ids(self) -> tuple[str, ...]:
        """All synthetic ids the plan appends, deduplicated across batches."""
        seen: dict[str, None] = {}
        for batch in self.batches:
            for synthetic_id in batch.appended_ids():
                seen.setdefault(synthetic_id, None)
        return tuple(seen)


def pop_nudge(
    train: Corpus,
    pool: SyntheticPool,
    table: PopularityTable,
    k: int,
    batch_size: int,
    seed: int,
) -> AugmentationPlan:
    """Build a deterministic batch-by-batch augmentation plan.

    Per anchor dialogue, the candidate set is every pool dialogue whose item
    is at most as popular as the anchor; k candidates are drawn with weights
    proportional to their item's training frequency, which is proportional to
    its popularity (uniform once only zero-weight candidates remain). Anchors
    with no candidates contribute nothing and are counted; anchors with fewer
    than k candidates take them all. The pool's total frequency must be below
    2**53, so that every draw is exact.
    """
    if k < 1:
        raise AugmentError("k must be >= 1")
    if batch_size < 1:
        raise AugmentError("batch_size must be >= 1")
    if len(pool) == 0:
        raise AugmentError("synthetic pool is empty")
    if seed < 0:
        raise AugmentError("seed must be a non-negative integer")

    train_rows = train.split_rows("train")
    order = np.random.default_rng(
        np.random.SeedSequence((seed, _STREAM_SHUFFLE))
    ).permutation(len(train_rows))
    shuffled = train_rows[order]

    # canonical candidate order: by (item frequency, dialogue_id); a sorted
    # prefix then gives each anchor its candidate set via one search. With
    # pop = freq / max_freq this is the popularity order, and frequencies
    # weight the draws exactly as popularities would
    ranked_pool = sorted(zip(
        table.freq_array(pool.columns.items)[pool.item_codes].tolist(), pool.columns.dialogue_ids
    ))
    pool_freqs, pool_ids = zip(*ranked_pool)
    weights, prefix = _weight_prefix(pool_freqs)
    anchor_freqs = train.columns.dialogue_max(table.freq_array(train.columns.items))
    cuts = np.searchsorted(np.asarray(pool_freqs), anchor_freqs[shuffled], side="right").tolist()

    batches: list[PlanBatch] = []
    for batch_index, start in enumerate(range(0, len(shuffled), batch_size)):
        batch = slice(start, start + batch_size)
        anchor_ids = tuple(map(train.columns.dialogue_ids.__getitem__, shuffled[batch].tolist()))
        samples: dict[str, tuple[str, ...]] = {}
        for anchor_position, (anchor_id, cut) in enumerate(zip(anchor_ids, cuts[batch])):
            if cut == 0:
                samples[anchor_id] = ()
                continue
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, _STREAM_ANCHOR, batch_index, anchor_position))
            )
            samples[anchor_id] = tuple(pool_ids[i] for i in _draw(prefix, weights, cut, k, rng))
        batches.append(PlanBatch(index=batch_index, anchor_ids=anchor_ids, samples=samples))
    return AugmentationPlan(
        seed=seed,
        k=k,
        batch_size=batch_size,
        strategy="pop_nudge",
        pool_digest=pool.digest,
        batches=tuple(batches),
        n_anchors_without_candidates=cuts.count(0),
        n_anchors_truncated=sum(0 < cut < k for cut in cuts),
    )


# ---------------------------------------------------------------------------
# materialization


@dataclass(frozen=True)
class MaterializedBatch:
    index: int
    anchors: tuple[Dialogue, ...]
    appended: tuple[Dialogue, ...]


def _check_plan_references(plan: AugmentationPlan, train: Corpus, pool: SyntheticPool) -> None:
    """Every anchor is a training dialogue, every sample a pool dialogue,
    and the pool is the one the plan was drawn from."""
    train_ids = set(map(train.columns.dialogue_ids.__getitem__, train.split_rows("train").tolist()))
    pool_row = pool.columns.row_of
    for batch in plan.batches:
        for anchor_id in batch.anchor_ids:
            if anchor_id not in train_ids:
                raise AugmentError(f"plan references unknown training dialogue {anchor_id!r}")
        for sampled in batch.samples.values():
            for synthetic_id in sampled:
                if synthetic_id not in pool_row:
                    raise AugmentError(f"plan references unknown pool dialogue {synthetic_id!r}")
    if plan.pool_digest != pool.digest:
        raise AugmentError(f"plan was drawn from another pool (pool_digest {plan.pool_digest!r})")


def iter_batches(
    plan: AugmentationPlan, train: Corpus, pool: SyntheticPool
) -> Iterator[MaterializedBatch]:
    """Replay the plan batch by batch, for trainers that consume batches.

    References are validated up front, before the first batch is yielded.
    """
    _check_plan_references(plan, train, pool)
    train_by_id = train.by_id()
    pool_by_id = dict(zip(pool.columns.dialogue_ids, pool.dialogues))

    def generate() -> Iterator[MaterializedBatch]:
        for batch in plan.batches:
            yield MaterializedBatch(
                index=batch.index,
                anchors=tuple(train_by_id[a] for a in batch.anchor_ids),
                appended=tuple(
                    replace(pool_by_id[s], split="train", provenance="synthetic")
                    for s in batch.appended_ids()
                ),
            )

    return generate()


def materialize_flat(plan: AugmentationPlan, train: Corpus, pool: SyntheticPool) -> Corpus:
    """Union every appended synthetic dialogue into the training split once."""
    _check_plan_references(plan, train, pool)
    pool_row = pool.columns.row_of
    rows = np.array([pool_row[s] for s in plan.appended_ids()], dtype=np.int64)
    return train.appended(pool.columns, rows)


def audit_plan(
    plan: AugmentationPlan,
    train: Corpus,
    pool: SyntheticPool,
    table: PopularityTable,
) -> list[str]:
    """Independent filter check: every appended item must be at most as
    popular as its anchor. Returns a list of violations (empty = pass)."""
    violations: list[str] = []
    anchor_pops = train.columns.dialogue_max(table.arrays(train.columns.items)[0])
    anchor_pop_of = dict(zip(train.columns.dialogue_ids, anchor_pops.tolist()))
    item_pops = table.arrays(pool.columns.items)[0][pool.item_codes]
    item_pop_of = dict(zip(pool.columns.dialogue_ids, item_pops.tolist()))
    for batch in plan.batches:
        for anchor_id, sampled in batch.samples.items():
            anchor_pop = anchor_pop_of.get(anchor_id)
            if anchor_pop is None:
                violations.append(f"batch {batch.index}: unknown anchor {anchor_id!r}")
                continue
            if len(set(sampled)) != len(sampled):
                violations.append(f"batch {batch.index}: anchor {anchor_id!r} has duplicate samples")
            if len(sampled) > plan.k:
                violations.append(
                    f"batch {batch.index}: anchor {anchor_id!r} has {len(sampled)} samples > k"
                )
            for synthetic_id in sampled:
                item_pop = item_pop_of.get(synthetic_id)
                if item_pop is None:
                    violations.append(
                        f"batch {batch.index}: sample {synthetic_id!r} is not in the pool"
                    )
                elif item_pop > anchor_pop:
                    violations.append(
                        f"batch {batch.index}: anchor {anchor_id!r} (pop {anchor_pop:.6f}) "
                        f"was augmented with {synthetic_id!r} (item pop {item_pop:.6f})"
                    )
    return violations


# ---------------------------------------------------------------------------
# plan files


# header field -> (type, default); a field without a default is required
_PLAN_HEADER = {
    "seed": (int, None),
    "k": (int, None),
    "batch_size": (int, None),
    "strategy": (str, None),
    "pool_digest": (str, None),
    "n_anchors_without_candidates": (int, 0),
    "n_anchors_truncated": (int, 0),
    "format_version": (int, 1),
}


def save_plan(plan: AugmentationPlan, path: str | Path) -> None:
    header = {"record": "header", **{key: getattr(plan, key) for key in _PLAN_HEADER}}
    batches = [
        {
            "record": "batch",
            "index": batch.index,
            "anchors": list(batch.anchor_ids),
            "samples": {a: list(s) for a, s in batch.samples.items()},
        }
        for batch in plan.batches
    ]
    write_json_lines(path, [header, *batches], json.JSONEncoder(sort_keys=True))


def _plan_field(record: dict, key: str, kind: type, default=None):
    if key not in record:
        if default is None:
            raise AugmentError(f"plan record missing {key!r}")
        return default
    value = record[key]
    if type(value) is not kind:
        raise AugmentError(f"plan field {key!r} has {value!r}")
    return value


def _plan_ids(value, key: str) -> tuple[str, ...]:
    if type(value) is not list or any(type(i) is not str for i in value):
        raise AugmentError(f"plan field {key!r} must be an array of ids, got {value!r}")
    return tuple(value)


def _plan_batch(record: dict) -> PlanBatch:
    return PlanBatch(
        index=_plan_field(record, "index", int),
        anchor_ids=_plan_ids(_plan_field(record, "anchors", list), "anchors"),
        samples={
            anchor: _plan_ids(ids, f"samples[{anchor!r}]")
            for anchor, ids in _plan_field(record, "samples", dict).items()
        },
    )


def load_plan(path: str | Path) -> AugmentationPlan:
    """Read a ``save_plan`` file; a header without ``format_version`` is
    version 1. A line that is not a JSON object raises ``CorpusError``; a
    second header, an unknown record, a missing or mistyped field, an
    unknown format version and a repeated batch index raise
    ``AugmentError``. Both name ``path:line``."""
    path = Path(path)
    header: dict | None = None
    batches: dict[int, PlanBatch] = {}
    for lineno, record in read_json_lines(path):
        try:
            kind = record.get("record")
            if kind == "header":
                if header is not None:
                    raise AugmentError("second header record")
                header = {key: _plan_field(record, key, *spec) for key, spec in _PLAN_HEADER.items()}
                if header["format_version"] not in (1, PLAN_FORMAT_VERSION):
                    raise AugmentError(f"unsupported plan format_version {header['format_version']}")
            elif kind == "batch":
                batch = _plan_batch(record)
                if batch.index in batches:
                    raise AugmentError(f"second batch with index {batch.index}")
                batches[batch.index] = batch
            else:
                raise AugmentError("unknown plan record")
        except AugmentError as exc:
            raise AugmentError(f"{path}:{lineno}: {exc}") from None
    if header is None:
        raise AugmentError(f"{path}: plan file has no header record")
    return AugmentationPlan(**header, batches=tuple(batches[i] for i in sorted(batches)))


# ---------------------------------------------------------------------------
# distribution reporting


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the average of their ranks."""
    a = np.asarray(values)
    order = np.argsort(a, kind="mergesort")
    ordered = a[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    dense = np.empty(len(a), dtype=np.intp)
    dense[order] = np.cumsum(first)
    bounds = np.r_[np.flatnonzero(first), len(a)]
    return 0.5 * (bounds[dense] + bounds[dense - 1] + 1)


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties; NaN when
    either input is constant. Matches ``scipy.stats.spearmanr`` bit-for-bit:
    the ranks go through ``corrcoef`` as two columns, as scipy passes them."""
    if len(x) < 2:
        return float("nan")
    ranks = np.column_stack((_average_ranks(x), _average_ranks(y)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.corrcoef(ranks, rowvar=False)[1, 0])


@dataclass(frozen=True)
class LongtailReport:
    """Frequency-distribution comparison between two corpora (same catalog)."""

    freq_before: dict[str, int]
    freq_after: dict[str, int]
    rank_correlation: float
    coverage_before: float
    coverage_after: float
    n_items_gained: int
    max_frequency_drop: int
    curve_before: tuple[int, ...]
    curve_after: tuple[int, ...]


def longtail_report(before: Corpus, after: Corpus) -> LongtailReport:
    if set(before.catalog.items) != set(after.catalog.items):
        raise AugmentError("longtail_report requires corpora over the same catalog")
    x = train_counts(before)
    freq_before = dict(zip(before.catalog.items, x.tolist()))
    freq_after = dict(zip(after.catalog.items, train_counts(after).tolist()))
    y = np.array(list(map(freq_after.__getitem__, freq_before)), dtype=np.int64)
    return LongtailReport(
        freq_before=freq_before,
        freq_after=freq_after,
        rank_correlation=1.0 if np.array_equal(x, y) else spearman(x, y),
        coverage_before=item_coverage(freq_before),
        coverage_after=item_coverage(freq_after),
        n_items_gained=int(np.count_nonzero((x == 0) & (y > 0))),
        max_frequency_drop=int((x - y).max()),  # the catalog is never empty
        curve_before=tuple(np.sort(x)[::-1].tolist()),
        curve_after=tuple(np.sort(y)[::-1].tolist()),
    )

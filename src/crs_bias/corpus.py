"""Data model and file I/O for conversational recommendation corpora.

A corpus is a catalog of recommendable items plus a set of multi-turn
dialogues. Dialogues carry per-turn item mentions (the ``@<item_id>`` token
convention inside utterance text, with the authoritative id list in each
turn record) and per-turn ground-truth target items. Dialogues can be
segmented into "episodes": spans that end when a recommendation is accepted,
i.e. when a turn carries a non-empty target list.

In memory, dialogues live in one ``DialogueColumns`` store: arrays per
dialogue and per turn, with every item id interned into one ``ItemIndex``.
Every store is filled one way, from corpus-file records checked in runs
(``fill_checked``, which fills run files' columns too), and written one
way, one JSON line per dialogue assembled from column slices
(``dialogue_lines``). The per-turn work (unknown mentions, segmentation,
and the frequency and join passes of the other modules) is array work over
the store. ``Turn`` and ``Dialogue`` objects are built only when a caller
asks for them.

File formats (UTF-8, one JSON object per line):

* corpus file — ``{"dialogue_id", "split", "turns": [{"speaker", "text",
  "items", "targets"}], "episodes"?, "provenance"?}``
* catalog file — ``{"item_id", "name"}``

Ids (``dialogue_id``, ``item_id`` and the entries of ``items`` and
``targets``) are strings; an integer is read as its decimal string. Text
fields are strings and ``episodes`` is an array of integers. Every line
that breaks a rule raises ``CorpusError`` naming ``path:line``.
"""

from __future__ import annotations

import gc
import json
import os
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, chain
from operator import itemgetter, sub
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

# a column stores each of these as its position in the tuple
SPEAKER_NAMES = ("seeker", "recommender")
SPLIT_NAMES = ("train", "valid", "test")
PROVENANCE_NAMES = ("original", "synthetic")
SPEAKERS = frozenset(SPEAKER_NAMES)
SPLITS = frozenset(SPLIT_NAMES)
EPISODE_POLICIES = frozenset({"explicit", "accept_boundary"})

_SPEAKER_CODE = {name: code for code, name in enumerate(SPEAKER_NAMES)}
_SPLIT_CODE = {name: code for code, name in enumerate(SPLIT_NAMES)}
_PROVENANCE_CODE = {name: code for code, name in enumerate(PROVENANCE_NAMES)}
TRAIN = _SPLIT_CODE["train"]
SYNTHETIC = _PROVENANCE_CODE["synthetic"]


class CorpusError(ValueError):
    """Malformed corpus input or a violated corpus invariant."""


def mention_token(item_id: str) -> str:
    """Token used to mark an item mention inside utterance text."""
    return f"@{item_id}"


@dataclass(frozen=True)
class ItemCatalog:
    """The full item universe: item_id -> display name."""

    items: dict[str, str]

    def __post_init__(self) -> None:
        if not self.items:
            raise CorpusError("catalog is empty")
        for item_id in self.items:
            if not item_id:
                raise CorpusError("catalog contains an empty item_id")

    def __contains__(self, item_id: str) -> bool:
        return item_id in self.items

    def __len__(self) -> int:
        return len(self.items)

    def name_of(self, item_id: str) -> str:
        return self.items[item_id]


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

    def intern_lists(self, firsts: list[list], seconds: list[list]) -> tuple[list[int], list[int]]:
        """The codes of all ids of ``firsts`` and of all ids of ``seconds``,
        two lists of id lists over the same entries. New ids are interned in
        reading order: an entry's ``firsts`` ids, then its ``seconds`` ids.
        An integer id reads as its decimal string; any other non-string
        raises ``CorpusError``, or ``TypeError`` if it is unhashable."""
        code_of = self.code.get
        ids = (list(chain.from_iterable(firsts)), list(chain.from_iterable(seconds)))
        codes = (list(map(code_of, ids[0])), list(map(code_of, ids[1])))
        missing: list[tuple[int, int, int]] = []  # (entry, kind, position) of a new id or an int
        for kind, lists in enumerate((firsts, seconds)):
            if None in codes[kind]:
                ends = list(accumulate(map(len, lists)))
                positions = [j for j, code in enumerate(codes[kind]) if code is None]
                missing += [(bisect_right(ends, j), kind, j) for j in positions]
        for _, kind, j in sorted(missing):
            codes[kind][j] = self.intern(parse_id(ids[kind][j], ""))
        return codes


class _TurnFields(NamedTuple):
    speaker: str
    text: str
    mentioned_item_ids: tuple[str, ...] = ()
    target_item_ids: tuple[str, ...] = ()


class Turn(_TurnFields):
    """One utterance: who spoke, the text, and item ids mentioned/accepted.

    An immutable named tuple, the cheapest object to build that keeps the
    field names.
    """

    __slots__ = ()

    def __new__(
        cls,
        speaker: str,
        text: str,
        mentioned_item_ids: tuple[str, ...] = (),
        target_item_ids: tuple[str, ...] = (),
    ) -> "Turn":
        if type(speaker) is not str or speaker not in SPEAKERS:
            raise CorpusError(f"unknown speaker {speaker!r}")
        return tuple.__new__(cls, (speaker, text, mentioned_item_ids, target_item_ids))

    def item_ids(self) -> tuple[str, ...]:
        """Unique item ids touched by this turn (mentions first, then targets)."""
        return tuple(dict.fromkeys(self.mentioned_item_ids + self.target_item_ids))


def _dialogue_codes(dialogue_id: str, n_turns: int, split, provenance, episodes) -> tuple[int, int]:
    """The split and provenance codes of a dialogue's fields; ``CorpusError``
    if they break a rule. ``episodes`` is None or a sequence of integers."""
    if not dialogue_id:
        raise CorpusError("dialogue_id must be non-empty")
    if not n_turns:
        raise CorpusError(f"dialogue {dialogue_id!r} has no turns")
    split_code = _SPLIT_CODE.get(split) if type(split) is str else None
    if split_code is None:
        raise CorpusError(f"dialogue {dialogue_id!r}: unknown split {split!r}")
    provenance_code = _PROVENANCE_CODE.get(provenance) if type(provenance) is str else None
    if provenance_code is None:
        raise CorpusError(f"dialogue {dialogue_id!r}: unknown provenance {provenance!r}")
    if episodes is not None:
        if len(episodes) != n_turns:
            raise CorpusError(
                f"dialogue {dialogue_id!r}: {len(episodes)} episode indices for {n_turns} turns"
            )
        if episodes[0] != 0:
            raise CorpusError(f"dialogue {dialogue_id!r}: episodes must start at 0")
        if not {0, 1}.issuperset(map(sub, episodes[1:], episodes)):
            raise CorpusError(
                f"dialogue {dialogue_id!r}: episode indices must be "
                f"non-decreasing with steps of at most 1"
            )
    return split_code, provenance_code


@dataclass(frozen=True)
class Dialogue:
    """A multi-turn conversation, optionally segmented into episodes.

    ``episode_index_per_turn`` is None until segmentation assigns indices
    (or the source file provides them). When present it must start at 0 and
    only ever step by +1.
    """

    dialogue_id: str
    turns: tuple[Turn, ...]
    split: str = "train"
    episode_index_per_turn: tuple[int, ...] | None = None
    provenance: str = "original"

    def __post_init__(self) -> None:
        _dialogue_codes(
            self.dialogue_id, len(self.turns), self.split, self.provenance,
            self.episode_index_per_turn,
        )

    def item_ids(self) -> tuple[str, ...]:
        """Unique item ids across all turns, in first-appearance order."""
        return tuple(dict.fromkeys(
            [i for t in self.turns for i in t.mentioned_item_ids + t.target_item_ids]
        ))

    def n_episodes(self) -> int:
        if self.episode_index_per_turn is None:
            raise CorpusError(f"dialogue {self.dialogue_id!r} has no episode indices")
        return self.episode_index_per_turn[-1] + 1


# corpus records loaded and checked together
_RUN_LENGTH = 256


def _transpose(rows: list, keys) -> list[list]:
    """``[[row[key] for row in rows] for key in keys]``, one pass per key."""
    return [list(map(itemgetter(key), rows)) for key in keys]


def _all_of(values, kind: type) -> bool:
    """Whether every value is exactly of type ``kind`` (so a bool is no int)."""
    return {kind}.issuperset(map(type, values))


def _episode_column(episodes: list, n_turns: list[int]) -> list[int] | None:
    """The episode indices of a run of records, one per turn and -1 for the
    turns of a record without them; None if any record's indices break a
    rule of ``_dialogue_codes``. ``episodes`` holds each record's field."""
    given = [e for e in episodes if e is not None]
    if not _all_of(given, list):
        return None
    lengths = list(map(len, given))
    if lengths != [n for e, n in zip(episodes, n_turns) if e is not None]:
        return None
    flat = list(chain.from_iterable(given))
    if not _all_of(flat, int):
        return None
    starts = _offsets(lengths)[:-1]
    values = np.array(flat, dtype=np.int64)  # OverflowError past int64
    steps = np.diff(values)
    steps[starts[1:] - 1] = 0  # from one record to the next
    if values[starts].any() or ((steps != 0) & (steps != 1)).any():
        return None
    if len(given) < len(episodes):
        parts = iter(given)
        flat = []
        for e, n in zip(episodes, n_turns):
            flat += [-1] * n if e is None else next(parts)
    return flat


def _offsets(lengths) -> np.ndarray:
    """CSR offsets: 0, then the running total of ``lengths``."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _owners(offsets: np.ndarray) -> np.ndarray:
    """For each entry of a CSR array, the index of the row that holds it."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, sorted. One sort and an adjacent
    difference: plain ``np.unique`` hashes, which is slower here, and imports
    ``numpy.ma`` on first use."""
    keys = np.sort(keys)
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    return keys[distinct]


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, e) for s, e in zip(starts, ends)])``."""
    lengths = ends - starts
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


@dataclass(frozen=True, eq=False)
class DialogueColumns:
    """Dialogues stored column-wise, every item id interned into ``items``.

    Per dialogue ``d``: ``dialogue_ids[d]``, its ``split`` and
    ``provenance`` codes (positions in ``SPLIT_NAMES`` and
    ``PROVENANCE_NAMES``), and its turns ``turn_offsets[d]:turn_offsets[d + 1]``.
    Per turn ``t``: the ``speaker`` code, ``texts[t]``, ``episodes[t]`` (-1
    in a dialogue without episode indices), and the record's raw ``items``
    and ``targets`` lists, in order and with any repeats, as the codes
    ``mention_codes[mention_offsets[t]:mention_offsets[t + 1]]`` and
    ``target_codes[target_offsets[t]:target_offsets[t + 1]]``. ``lines[d]``
    is the number dialogue ``d``'s record was filled with (``fill_checked``):
    in a store read from a file, its line there.
    """

    items: ItemIndex
    dialogue_ids: list[str]
    split: np.ndarray
    provenance: np.ndarray
    turn_offsets: np.ndarray
    speaker: np.ndarray
    texts: list[str]
    episodes: np.ndarray
    mention_offsets: np.ndarray
    mention_codes: np.ndarray
    target_offsets: np.ndarray
    target_codes: np.ndarray
    lines: np.ndarray

    @classmethod
    def from_records(
        cls,
        numbered: Iterable[tuple[int, dict]],
        items: ItemIndex | None = None,
        path: Path | None = None,
    ) -> "DialogueColumns":
        """The store of ``(number, record)`` pairs of corpus-file records, item
        ids interned into ``items`` (a fresh index when None); see
        ``fill_checked`` for ``path`` and the errors."""
        builder = _ColumnsBuilder(items if items is not None else ItemIndex())
        fill_checked(builder, numbered, path)
        return builder.finish()

    @classmethod
    def from_dialogues(
        cls, dialogues: Iterable[Dialogue], items: ItemIndex | None = None
    ) -> "DialogueColumns":
        """The store of ``Dialogue`` objects, filled from their records."""
        return cls.from_records(enumerate(map(dialogue_to_record, dialogues)), items)

    def __len__(self) -> int:
        return len(self.dialogue_ids)

    @cached_property
    def row_of(self) -> dict[str, int]:
        """dialogue_id -> row."""
        return {dialogue_id: row for row, dialogue_id in enumerate(self.dialogue_ids)}

    @cached_property
    def turn_dialogue(self) -> np.ndarray:
        """The row of each turn's dialogue."""
        return _owners(self.turn_offsets)

    @cached_property
    def touches(self) -> tuple[np.ndarray, np.ndarray]:
        """``(turn, code)`` of each distinct item a turn mentions or targets,
        sorted by turn, then code: a turn touches an item once, however often
        it names it."""
        return self._distinct(
            np.concatenate((_owners(self.mention_offsets), _owners(self.target_offsets)))
        )

    @cached_property
    def dialogue_items(self) -> tuple[np.ndarray, np.ndarray]:
        """``(row, code)`` of each distinct item a dialogue touches, sorted by
        row, then code."""
        return self._distinct(np.concatenate((
            self.turn_dialogue[_owners(self.mention_offsets)],
            self.turn_dialogue[_owners(self.target_offsets)],
        )))

    def _distinct(self, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct ``(owner, code)`` pairs, sorted, of every mention and
        then every target; ``owners`` holds each one's owner in that order."""
        n_codes = len(self.items)
        codes = np.concatenate((self.mention_codes, self.target_codes))
        return np.divmod(_sorted_distinct(owners * n_codes + codes), n_codes)

    def dialogue_max(self, values: np.ndarray) -> np.ndarray:
        """Per dialogue, the largest ``values[code]`` over its items, or 0 for
        a dialogue without items; ``values`` is non-negative."""
        rows, codes = self.dialogue_items
        out = np.zeros(len(self), dtype=values.dtype)
        if codes.size:
            starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
            out[rows[starts]] = np.maximum.reduceat(values[codes], starts)
        return out

    def segmented(self, policy: str) -> "DialogueColumns":
        """These dialogues with episode indices assigned by ``policy`` (see
        ``segment_corpus``)."""
        if policy not in EPISODE_POLICIES:
            raise CorpusError(f"unknown episode policy {policy!r}")
        starts = self.turn_offsets[:-1]
        if policy == "explicit":
            missing = np.flatnonzero(self.episodes[starts] < 0)
            if missing.size:
                raise CorpusError(
                    f"dialogue {self.dialogue_ids[missing[0]]!r}: explicit episode policy "
                    f"requires episode indices in the input"
                )
            return self
        accepted = np.diff(self.target_offsets) > 0
        closed = np.cumsum(accepted) - accepted  # accepted turns before each turn
        segmented = replace(
            self, episodes=closed - np.repeat(closed[starts], np.diff(self.turn_offsets))
        )
        # episodes change no dialogue, turn or item: share what was derived from those
        for name in ("row_of", "turn_dialogue", "touches", "dialogue_items"):
            if name in self.__dict__:
                segmented.__dict__[name] = self.__dict__[name]
        return segmented

    def iter_dialogues(self, rows: Iterable[int] | None = None) -> Iterator[Dialogue]:
        """A ``Dialogue`` per dialogue of ``rows`` (all, in order, by default),
        each built as it is asked for."""
        speakers = list(map(SPEAKER_NAMES.__getitem__, self.speaker.tolist()))
        texts = self.texts
        mentions = self._id_lists(self.mention_offsets, self.mention_codes)
        targets = self._id_lists(self.target_offsets, self.target_codes)
        episodes = self.episodes.tolist()
        offsets = self.turn_offsets.tolist()
        splits = self.split.tolist()
        provenances = self.provenance.tolist()
        for row in range(len(self)) if rows is None else rows:
            first, end = offsets[row], offsets[row + 1]
            yield Dialogue(
                self.dialogue_ids[row],
                tuple(map(
                    Turn, speakers[first:end], texts[first:end], mentions[first:end],
                    targets[first:end],
                )),
                SPLIT_NAMES[splits[row]],
                tuple(episodes[first:end]) if episodes[first] >= 0 else None,
                PROVENANCE_NAMES[provenances[row]],
            )

    def _id_lists(self, offsets: np.ndarray, codes: np.ndarray) -> list[tuple[str, ...]]:
        """Per turn, the tuple of item ids of a CSR pair. Tuples of strings,
        unlike lists, drop out of the collector's passes."""
        ids = tuple(map(self.items.ids.__getitem__, codes.tolist()))
        lists: list[tuple[str, ...]] = [()] * (len(offsets) - 1)
        bounds = offsets.tolist()
        for turn in np.flatnonzero(np.diff(offsets)).tolist():
            lists[turn] = ids[bounds[turn] : bounds[turn + 1]]
        return lists

    def take(self, rows) -> "DialogueColumns":
        """Dialogues ``rows`` of this store, in that order, sharing its ``items``."""
        rows = np.asarray(rows, dtype=np.int64)
        turns = _ranges(self.turn_offsets[rows], self.turn_offsets[rows + 1])

        def gather(offsets: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            starts, ends = offsets[turns], offsets[turns + 1]
            return _offsets(ends - starts), codes[_ranges(starts, ends)]

        mention_offsets, mention_codes = gather(self.mention_offsets, self.mention_codes)
        target_offsets, target_codes = gather(self.target_offsets, self.target_codes)
        return DialogueColumns(
            items=self.items,
            dialogue_ids=[self.dialogue_ids[row] for row in rows.tolist()],
            split=self.split[rows],
            provenance=self.provenance[rows],
            turn_offsets=_offsets(self.turn_offsets[rows + 1] - self.turn_offsets[rows]),
            speaker=self.speaker[turns],
            texts=[self.texts[t] for t in turns.tolist()],
            episodes=self.episodes[turns],
            mention_offsets=mention_offsets,
            mention_codes=mention_codes,
            target_offsets=target_offsets,
            target_codes=target_codes,
            lines=self.lines[rows],
        )


def fill_checked(builder, numbered: Iterable[tuple[int, dict]], path: Path | None = None) -> None:
    """Append ``(number, record)`` pairs to ``builder`` in checked runs of
    ``_RUN_LENGTH``.

    ``builder.add_records(run)`` appends a whole run of pairs if every record
    is valid, checking each rule once over the run, and returns False,
    appending nothing, otherwise. A failed run is checked again record by
    record with ``builder.check_record``, and the first bad record raises
    ``CorpusError``, prefixed by ``path:number`` when ``path``, the file
    the numbers are lines of, is given. An error that ``numbered`` itself
    raises comes after the records before it are checked. The cyclic
    collector is paused meanwhile (and the caller's setting restored):
    young-generation passes would only walk each run of records again and
    again, and the columns are a few dozen objects.
    """
    run: list[tuple[int, dict]] = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for pair in numbered:
            run.append(pair)
            if len(run) == _RUN_LENGTH:
                checked, run = run, []
                _add_run(builder, checked, path)
    except CorpusError:
        _add_run(builder, run, path)
        raise
    else:
        _add_run(builder, run, path)
    finally:
        if enabled:
            gc.enable()


def _add_run(builder, run: list[tuple[int, dict]], path: Path | None) -> None:
    if builder.add_records(run):
        return
    for number, record in run:
        try:
            builder.check_record(record)
            if not builder.add_records([(number, record)]):  # the two checks agree: not reached
                raise CorpusError("record fails a whole-run check")
        except CorpusError as exc:
            where = "" if path is None else f"{path}:{number}: "
            raise CorpusError(f"{where}{exc}") from None


class _ColumnsBuilder:
    """Appends validated dialogues straight into growing columns, interning
    item ids into ``items`` as it goes."""

    def __init__(self, items: ItemIndex):
        self.items = items
        self._seen: set[str] = set()
        self.lines = array("q")
        self.dialogue_ids: list[str] = []
        self.split = array("b")
        self.provenance = array("b")
        self.n_turns = array("q")
        self.speaker = array("b")
        self.texts: list[str] = []
        self.episodes = array("q")
        self.n_mentions = array("q")
        self.mention_codes = array("i")
        self.n_targets = array("q")
        self.target_codes = array("i")

    def add_records(self, run: list[tuple[int, dict]]) -> bool:
        """Append a run of numbered corpus-file records if every one is valid,
        checking each rule once over the whole run; False, with nothing
        appended, if any check fails (new item ids may have been interned).
        ``check_record`` then names the first bad field."""
        records = [record for _, record in run]
        if not records:
            return True
        try:
            ids = [parse_id(record["dialogue_id"], "") for record in records]
            splits = list(map(_SPLIT_CODE.__getitem__, map(itemgetter("split"), records)))
            provenances = list(map(_PROVENANCE_CODE.__getitem__, (
                record.get("provenance", "original") for record in records
            )))
            turns = [record["turns"] for record in records]
            if not (_all_of(turns, list) and all(turns) and all(ids)):
                return False
            n_turns = list(map(len, turns))
            speakers, texts, mentioned, targets = _transpose(
                list(chain.from_iterable(turns)), ("speaker", "text", "items", "targets")
            )
            speakers = list(map(_SPEAKER_CODE.__getitem__, speakers))
            if not (_all_of(texts, str) and _all_of(mentioned, list) and _all_of(targets, list)):
                return False
            episodes = _episode_column([record.get("episodes") for record in records], n_turns)
            codes = self.items.intern_lists(mentioned, targets)
        except (KeyError, TypeError, CorpusError, OverflowError):
            return False
        if episodes is None or len(set(ids)) != len(ids) or not self._seen.isdisjoint(ids):
            return False
        self.lines.fromlist([number for number, _ in run])
        self._append(
            ids, splits, provenances, n_turns, speakers, texts, episodes, mentioned, targets, *codes
        )
        return True

    def _append(
        self, ids, splits, provenances, n_turns, speakers, texts, episodes,
        mentioned, targets, mention_codes, target_codes,
    ) -> None:
        """Append checked columns: ``mentioned`` and ``targets`` hold each
        turn's ids, the codes all of them in order."""
        self._seen.update(ids)
        self.dialogue_ids += ids
        self.split.fromlist(splits)
        self.provenance.fromlist(provenances)
        self.n_turns.fromlist(n_turns)
        self.speaker.fromlist(speakers)
        self.texts += texts
        self.episodes.fromlist(episodes)
        self.n_mentions.fromlist(list(map(len, mentioned)))
        self.mention_codes.fromlist(mention_codes)
        self.n_targets.fromlist(list(map(len, targets)))
        self.target_codes.fromlist(target_codes)

    def check_record(self, record: dict) -> None:
        """Raise ``CorpusError`` naming the first field of a corpus-file
        record that breaks a rule, checked in field order; append nothing."""
        try:
            dialogue_id = parse_id(record["dialogue_id"], "'dialogue_id'")
            split = record["split"]
            turns = record["turns"]
        except KeyError as exc:
            raise CorpusError(f"record missing {exc.args[0]!r}") from None
        if type(turns) is not list or not turns:
            raise CorpusError("'turns' must be a non-empty array")
        episodes = record.get("episodes")
        if episodes is not None and (type(episodes) is not list or not _all_of(episodes, int)):
            raise CorpusError(f"'episodes' must be an array of integers, got {episodes!r}")
        for turn in turns:
            if type(turn) is not dict:
                raise CorpusError(f"turn is not an object: {turn!r}")
            try:
                speaker = turn["speaker"]
                text = turn["text"]
                mentioned = turn["items"]
                targets = turn["targets"]
            except KeyError as exc:
                raise CorpusError(f"turn record missing {exc.args[0]!r}") from None
            if type(text) is not str:
                raise CorpusError(f"turn 'text' must be a string, got {text!r}")
            for key, ids in (("items", mentioned), ("targets", targets)):
                if type(ids) is not list:
                    raise CorpusError(f"turn {key!r} must be an array of item ids, got {ids!r}")
                for item_id in ids:
                    parse_id(item_id, f"turn {key!r} item")
            if type(speaker) is not str or speaker not in SPEAKERS:
                raise CorpusError(f"unknown speaker {speaker!r}")
        provenance = record.get("provenance", "original")
        _dialogue_codes(dialogue_id, len(turns), split, provenance, episodes)
        if dialogue_id in self._seen:
            raise CorpusError(f"duplicate dialogue_id {dialogue_id!r}")

    def finish(self) -> DialogueColumns:
        return DialogueColumns(
            items=self.items,
            dialogue_ids=self.dialogue_ids,
            split=np.array(self.split, dtype=np.int8),
            provenance=np.array(self.provenance, dtype=np.int8),
            turn_offsets=_offsets(self.n_turns),
            speaker=np.array(self.speaker, dtype=np.int8),
            texts=self.texts,
            episodes=np.array(self.episodes, dtype=np.int64),
            mention_offsets=_offsets(self.n_mentions),
            mention_codes=np.array(self.mention_codes, dtype=np.int32),
            target_offsets=_offsets(self.n_targets),
            target_codes=np.array(self.target_codes, dtype=np.int32),
            lines=np.array(self.lines, dtype=np.int64),
        )


class Corpus:
    """A catalog plus its dialogues, held in one ``DialogueColumns`` store
    whose ``items`` index starts with the catalog, in catalog order.

    ``Corpus(catalog, dialogues)`` fills the store from ``Dialogue``
    objects; ``dialogues``, ``split`` and ``by_id`` build objects from the
    store when called. Treat a corpus as immutable: it is safe to share
    across readers.
    """

    def __init__(self, catalog: ItemCatalog, dialogues: Iterable[Dialogue] = ()):
        self.catalog = catalog
        self.columns = DialogueColumns.from_dialogues(dialogues, ItemIndex(catalog.items))

    @classmethod
    def from_columns(cls, catalog: ItemCatalog, columns: DialogueColumns) -> "Corpus":
        corpus = cls.__new__(cls)
        corpus.catalog = catalog
        corpus.columns = columns
        return corpus

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.catalog == other.catalog and self.dialogues == other.dialogues

    __hash__ = None  # type: ignore[assignment]

    @property
    def dialogues(self) -> tuple[Dialogue, ...]:
        """The dialogues as objects, built on each access and not kept."""
        return tuple(self.columns.iter_dialogues())

    def split_rows(self, name: str) -> np.ndarray:
        """Rows of the dialogues in split ``name``, in corpus order."""
        if name not in SPLITS:
            raise CorpusError(f"unknown split {name!r}")
        return np.flatnonzero(self.columns.split == _SPLIT_CODE[name])

    def split(self, name: str) -> tuple[Dialogue, ...]:
        return tuple(self.columns.iter_dialogues(self.split_rows(name).tolist()))

    def by_id(self) -> dict[str, Dialogue]:
        return dict(zip(self.columns.dialogue_ids, self.dialogues))

    def appended(self, source: DialogueColumns, rows: np.ndarray) -> "Corpus":
        """This corpus plus dialogues ``rows`` of ``source``, in that order,
        as synthetic training dialogues; a dialogue_id already in the corpus
        raises ``CorpusError``."""
        base = self.columns
        added = source.take(rows)
        if not base.row_of.keys().isdisjoint(added.dialogue_ids):
            clash = next(i for i in added.dialogue_ids if i in base.row_of)
            raise CorpusError(f"duplicate dialogue_id {clash!r}")
        mention_codes, target_codes = added.mention_codes, added.target_codes
        if source.items is not base.items:
            used = _sorted_distinct(np.concatenate((mention_codes, target_codes)))
            remap = np.zeros(len(source.items), dtype=np.int32)
            remap[used] = [base.items.intern(source.items.ids[c]) for c in used.tolist()]
            mention_codes, target_codes = remap[mention_codes], remap[target_codes]

        def joined(offsets: np.ndarray, more: np.ndarray) -> np.ndarray:
            return np.concatenate((offsets, offsets[-1] + more[1:]))

        columns = DialogueColumns(
            items=base.items,
            dialogue_ids=base.dialogue_ids + added.dialogue_ids,
            split=np.concatenate((base.split, np.full(len(added), TRAIN, np.int8))),
            provenance=np.concatenate((base.provenance, np.full(len(added), SYNTHETIC, np.int8))),
            turn_offsets=joined(base.turn_offsets, added.turn_offsets),
            speaker=np.concatenate((base.speaker, added.speaker)),
            texts=base.texts + added.texts,
            episodes=np.concatenate((base.episodes, added.episodes)),
            mention_offsets=joined(base.mention_offsets, added.mention_offsets),
            mention_codes=np.concatenate((base.mention_codes, mention_codes)),
            target_offsets=joined(base.target_offsets, added.target_offsets),
            target_codes=np.concatenate((base.target_codes, target_codes)),
            lines=np.concatenate((base.lines, added.lines)),
        )
        return Corpus.from_columns(self.catalog, columns)


@dataclass
class LoadSummary:
    """What the loader saw: sizes plus unknown-mention accounting.

    Unknown item ids (mentions or targets absent from the catalog) are kept
    in the loaded dialogues and reported here, never silently dropped. An id
    counts once per turn that touches it.
    """

    n_dialogues: int = 0
    n_turns: int = 0
    dialogues_per_split: Counter = field(default_factory=Counter)
    n_unknown_mentions: int = 0
    unknown_item_ids: Counter = field(default_factory=Counter)


# ---------------------------------------------------------------------------
# line-delimited I/O


def _has_lone_surrogate(record) -> bool:
    """Whether a decoded record holds text that cannot be written as UTF-8."""
    try:
        json.dumps(record, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


_scan_once = json.JSONDecoder().scan_once


def _decode_line(text: str):
    """``json.loads(text)``: one scanner call when the value starts the line
    and only JSON whitespace follows it, else ``json.loads`` itself, which
    also words every error."""
    try:
        value, end = _scan_once(text, 0)
    except (StopIteration, ValueError):
        return json.loads(text)
    if text[end:].strip(" \t\n\r"):
        return json.loads(text)
    return value


def read_json_lines(path: Path) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line. Lines are decoded
    one at a time, so a bad byte, malformed JSON, a lone surrogate escape
    or a non-object record raises ``CorpusError`` naming its own
    ``path:line``."""
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():  # a line read from a file is never empty
                continue
            try:
                record = _decode_line(line.decode("utf-8"))
            except ValueError as exc:  # bad UTF-8, bad JSON, or an int too long to convert
                message = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                raise CorpusError(f"{path}:{lineno}: malformed record: {message}") from exc
            # only a \u escape can produce a surrogate (the decoder joins valid pairs)
            if b"\\u" in line and _has_lone_surrogate(record):
                raise CorpusError(f"{path}:{lineno}: malformed record: lone surrogate escape")
            if type(record) is not dict:
                raise CorpusError(f"{path}:{lineno}: record is not an object")
            yield lineno, record


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each string plus a newline to ``.<name>.<pid>.tmp`` beside
    ``path``, then rename it over ``path``: an error or an interrupt while
    writing leaves the old file (or none) and no temp file behind. An
    ``OSError`` creating the temp file or renaming it names ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fh = tmp.open("w", encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            fh.writelines(line + "\n" for line in lines)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        tmp.unlink(missing_ok=True)


# built once: json.dumps with options builds a new encoder per call. Records
# are trees, so the encoder skips its circular-reference bookkeeping
_ENCODER = json.JSONEncoder(ensure_ascii=False, check_circular=False)


def write_json_lines(path: str | Path, records: Iterable, encoder=_ENCODER) -> None:
    """``write_lines`` of one JSON record per line, each encoded by ``encoder``."""
    write_lines(path, map(encoder.encode, records))


def parse_id(value, what: str) -> str:
    """An id field: a string, or an integer read as its decimal string."""
    if type(value) is str:
        return value
    if type(value) is int:
        return str(value)
    raise CorpusError(f"{what} must be a string or an integer, got {value!r}")


def load_catalog(path: str | Path) -> ItemCatalog:
    path = Path(path)
    items: dict[str, str] = {}
    for lineno, record in read_json_lines(path):
        try:
            item_id = parse_id(record["item_id"], "'item_id'")
            name = record["name"]
            if type(name) is not str:
                raise CorpusError(f"'name' must be a string, got {name!r}")
        except KeyError as exc:
            raise CorpusError(f"{path}:{lineno}: catalog record missing {exc.args[0]!r}") from None
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from None
        if not item_id:
            raise CorpusError(f"{path}:{lineno}: empty item_id")
        if item_id in items:
            raise CorpusError(f"{path}:{lineno}: duplicate item_id {item_id!r}")
        items[item_id] = name
    if not items:
        raise CorpusError(f"{path}: catalog is empty")
    return ItemCatalog(items)


def dialogue_to_record(dialogue: Dialogue) -> dict:
    record: dict = {
        "dialogue_id": dialogue.dialogue_id,
        "split": dialogue.split,
        "provenance": dialogue.provenance,
        "turns": [
            {"speaker": speaker, "text": text, "items": list(mentioned), "targets": list(targets)}
            for speaker, text, mentioned, targets in dialogue.turns
        ],
    }
    if dialogue.episode_index_per_turn is not None:
        record["episodes"] = list(dialogue.episode_index_per_turn)
    return record


def load_dialogues(path: str | Path, items: ItemIndex | None = None) -> DialogueColumns:
    """Read a corpus or pool file into columns, interning its item ids into
    ``items`` (a fresh index when None); a malformed line or a repeated
    dialogue_id raises ``CorpusError`` naming ``path:line``, the first such
    line in the file."""
    path = Path(path)
    return DialogueColumns.from_records(read_json_lines(path), items, path)


def load_corpus(corpus_path: str | Path, catalog_path: str | Path) -> tuple[Corpus, LoadSummary]:
    """Load and validate a corpus; unknown mentions are counted, not dropped."""
    catalog = load_catalog(catalog_path)
    columns = load_dialogues(corpus_path, ItemIndex(catalog.items))
    n_catalog = len(catalog)
    _, codes = columns.touches
    unknown = np.bincount(codes[codes >= n_catalog] - n_catalog)
    unknown_ids = columns.items.ids[n_catalog:]
    per_split = np.bincount(columns.split, minlength=len(SPLIT_NAMES)).tolist()
    summary = LoadSummary(
        n_dialogues=len(columns),
        n_turns=len(columns.texts),
        dialogues_per_split=Counter({s: n for s, n in zip(SPLIT_NAMES, per_split) if n}),
        n_unknown_mentions=int(unknown.sum()),
        # codes past the catalog are in first-appearance order
        unknown_item_ids=Counter(
            {unknown_ids[c]: n for c, n in enumerate(unknown.tolist()) if n}
        ),
    )
    return Corpus.from_columns(catalog, columns), summary


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus one record per dialogue, straight from its columns."""
    write_lines(path, dialogue_lines(corpus.columns))


def save_dialogues(dialogues: Iterable[Dialogue], path: str | Path) -> None:
    write_lines(path, dialogue_lines(DialogueColumns.from_dialogues(dialogues)))


# what the C encoder escapes strings with when ensure_ascii is off, as in _ENCODER
_encode = json.encoder.encode_basestring


def dialogue_lines(columns: DialogueColumns) -> Iterator[str]:
    """Per dialogue, the text of ``_ENCODER.encode(dialogue_to_record(row))``,
    assembled from column slices a run of dialogues at a time: each text and
    each item id (once per code) is escaped as the encoder escapes it."""
    ids = list(map(_encode, columns.items.ids))
    alone = np.array([f"[{i}]" for i in ids] + ["[]"], dtype=object)  # code -1: none
    speakers = [f'{{"speaker": {_encode(name)}, "text": ' for name in SPEAKER_NAMES]
    fields = [  # split code * len(PROVENANCE_NAMES) + provenance code
        f', "split": {_encode(split)}, "provenance": {_encode(provenance)}, "turns": ['
        for split in SPLIT_NAMES for provenance in PROVENANCE_NAMES
    ]
    kinds = (columns.split.astype(np.int64) * len(PROVENANCE_NAMES) + columns.provenance).tolist()
    offsets = columns.turn_offsets.tolist()
    for start in range(0, len(columns), _RUN_LENGTH):
        stop = min(start + _RUN_LENGTH, len(columns))
        lo, hi = offsets[start], offsets[stop]
        turns = [
            f'{speaker}{text}, "items": {mentions}, "targets": {targets}}}'
            for speaker, text, mentions, targets in zip(
                map(speakers.__getitem__, columns.speaker[lo:hi].tolist()),
                map(_encode, columns.texts[lo:hi]),
                _json_arrays(columns.mention_offsets[lo : hi + 1], columns.mention_codes, ids, alone),
                _json_arrays(columns.target_offsets[lo : hi + 1], columns.target_codes, ids, alone),
            )
        ]
        episodes = columns.episodes[lo:hi].tolist()
        numbers = list(map(str, episodes))
        dialogue_ids = map(_encode, columns.dialogue_ids[start:stop])
        for row, dialogue_id in enumerate(dialogue_ids, start):
            first, end = offsets[row] - lo, offsets[row + 1] - lo
            yield _dialogue_line(
                dialogue_id, fields[kinds[row]], turns[first:end],
                numbers[first:end] if episodes[first] >= 0 else None,
            )


def _json_arrays(offsets: np.ndarray, codes: np.ndarray, ids: list[str], alone) -> list[str]:
    """Per turn of a slice of CSR ``offsets``, the JSON array of its item ids:
    ``ids[c]`` is the JSON string of code ``c``, ``alone[c]`` the array of it
    alone and ``alone[-1]`` the empty array."""
    counts = np.diff(offsets)
    first = np.full(len(counts), -1, dtype=np.int64)
    some = counts > 0
    first[some] = codes[offsets[:-1][some]]
    arrays = alone[first]
    for turn in np.flatnonzero(counts > 1).tolist():
        many = codes[offsets[turn] : offsets[turn + 1]].tolist()
        arrays[turn] = "[" + ", ".join(map(ids.__getitem__, many)) + "]"
    return arrays.tolist()


def _dialogue_line(dialogue_id: str, fields: str, turns: list[str], episodes: list[str] | None) -> str:
    """One dialogue's JSON line from its JSON parts."""
    line = '{"dialogue_id": ' + dialogue_id + fields + ", ".join(turns) + "]"
    return line + "}" if episodes is None else line + ', "episodes": [' + ", ".join(episodes) + "]}"


def save_catalog(catalog: ItemCatalog, path: str | Path) -> None:
    write_json_lines(path, ({"item_id": i, "name": name} for i, name in catalog.items.items()))


# ---------------------------------------------------------------------------
# episode segmentation


def segment_episodes(dialogue: Dialogue, policy: str = "accept_boundary") -> Dialogue:
    """Assign episode indices to one dialogue (see ``segment_corpus``)."""
    (segmented,) = DialogueColumns.from_dialogues([dialogue]).segmented(policy).iter_dialogues()
    return segmented


def segment_corpus(corpus: Corpus, policy: str = "accept_boundary") -> Corpus:
    """Assign episode indices to every dialogue.

    ``explicit`` keeps indices already present on the dialogues (and errors
    if a dialogue has none). ``accept_boundary`` starts a new episode on the
    turn following any turn with a non-empty target list: accepting a
    recommendation closes the episode.
    """
    return Corpus.from_columns(corpus.catalog, corpus.columns.segmented(policy))

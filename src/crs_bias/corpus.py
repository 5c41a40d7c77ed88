"""Data model and file I/O for conversational recommendation corpora.

A corpus is a catalog of recommendable items plus a set of multi-turn
dialogues. Dialogues carry per-turn item mentions (the ``@<item_id>`` token
convention inside utterance text, with the authoritative id list in each
turn record) and per-turn ground-truth target items. Dialogues can be
segmented into "episodes": spans that end when a recommendation is accepted,
i.e. when a turn carries a non-empty target list.

In memory, dialogues live in one ``DialogueColumns`` store: arrays per
dialogue and per turn, with every item id interned into one ``ItemIndex``.
Every store is filled one way, from corpus-file records checked in runs by
the one ``add_records`` that writes their rules (``fill_checked``, which
fills run files' columns too), and written one way, one JSON line per
dialogue assembled from column slices (``dialogue_lines``). The per-turn
work (unknown mentions, segmentation, and the frequency and join passes of
the other modules) is array work over the store. ``Turn`` and ``Dialogue``
objects are an input type, checked as records when a store is filled from
them; the accessors that build them back (``Corpus.dialogues`` and
``by_id``) are kept for the benchmark's counters.

File formats (UTF-8, one JSON object per line):

* corpus file — ``{"dialogue_id", "split", "turns": [{"speaker", "text",
  "items", "targets"}], "episodes"?, "provenance"?}``
* catalog file — ``{"item_id", "name"}``

Ids (``dialogue_id``, ``item_id`` and the entries of ``items`` and
``targets``) are strings; an integer is read as its decimal string. Text
fields are strings and ``episodes`` is an array of integers. Every line
that breaks a rule raises ``CorpusError`` naming ``path:line``.

A column snapshot of a corpus or pool file (``write_snapshot``,
``read_snapshot``), wherever its writer puts it (``<file>.cols`` beside a
pool, ``snapshot_path``), holds the store that loading the file gives:

* one JSON header line, ``{"snapshot_format": 2, "source_sha256": <hex
  sha256 of the file's bytes>, "arrays": [[name, dtype, length], ...]}``;
* the arrays ``split``, ``provenance``, ``turn_offsets``, ``speaker``,
  ``text_offsets``, ``text_bytes``, ``episodes``, ``mention_offsets``,
  ``mention_codes``, ``target_offsets``, ``target_codes`` and ``lines``,
  little-endian, in that order (the turn texts are ``text_bytes``, their
  UTF-8, cut at the byte offsets ``text_offsets``);
* for ``dialogue_ids`` and ``item_ids`` (the ids a fresh index holds after
  the load, in its order), each string's size in UTF-8 bytes (``<i8``),
  then the UTF-8 bytes of them all;
* the sha256 of every byte before it.

A snapshot that does not match its file, or of another format, is ignored,
and the file is read.
"""

from __future__ import annotations

import codecs
import gc
import hashlib
import json
import os
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .records import EPISODE_POLICIES, CorpusError, _replacing, parse_id, read_json_lines
from .records import write_json_lines, write_lines
from .records import _ENCODER  # re-exported: defined in records

# a column stores each of these as its position in the tuple
SPEAKER_NAMES = ("seeker", "recommender")
SPLIT_NAMES = ("train", "valid", "test")
PROVENANCE_NAMES = ("original", "synthetic")
SPLITS = frozenset(SPLIT_NAMES)

_SPEAKER_CODE = {name: code for code, name in enumerate(SPEAKER_NAMES)}
_SPLIT_CODE = {name: code for code, name in enumerate(SPLIT_NAMES)}
_PROVENANCE_CODE = {name: code for code, name in enumerate(PROVENANCE_NAMES)}
TRAIN = _SPLIT_CODE["train"]
SYNTHETIC = _PROVENANCE_CODE["synthetic"]


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
            _check_item_id(item_id)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self.items

    def __len__(self) -> int:
        return len(self.items)

    def name_of(self, item_id: str) -> str:
        return self.items[item_id]


def _check_item_id(item_id: str) -> None:
    if not item_id:
        raise CorpusError("empty item_id")


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

    def intern_lists(self, firsts: list, seconds: list, labels: tuple) -> tuple[list, list]:
        """The codes of all ids of ``firsts`` and of all ids of ``seconds``, two
        lists of id lists over the same entries, named ``labels`` in errors. New
        ids are interned in reading order (an entry's ``firsts``, then its
        ``seconds``); an integer id reads as its decimal string. The first list
        that is not an array, or id neither a string nor an integer, raises."""
        code_of = self.code.get
        # faults: (entry, kind, position) of each new, integer or bad id, and
        # (position -1) of the first list of its kind that is not an array
        lists, ids, codes, faults = (firsts, seconds), [], [], []
        for kind in (0, 1):
            arrays = lists[kind][: _first_not(lists[kind], list)]
            if len(arrays) < len(lists[kind]):
                faults.append((len(arrays), kind, -1))
            ids.append(list(chain.from_iterable(arrays)))
            try:
                codes.append(list(map(code_of, ids[kind])))
            except TypeError:  # an unhashable id
                codes.append([code_of(i) if isinstance(i, str) else None for i in ids[kind]])
            if None in codes[kind]:
                ends = list(accumulate(map(len, arrays)))
                positions = [j for j, code in enumerate(codes[kind]) if code is None]
                faults += [(bisect_right(ends, j), kind, j) for j in positions]
        for entry, kind, j in sorted(faults):
            if j < 0:
                _id_arrays([lists[kind][entry]], labels[kind])  # raises
            codes[kind][j] = self.intern(parse_id(ids[kind][j], f"{labels[kind]} item"))
        return codes[0], codes[1]


class Turn(NamedTuple):
    """One utterance: who spoke, the text, and item ids mentioned/accepted.

    An immutable named tuple, the cheapest object to build that keeps the
    field names. Its values are checked when it enters a store.
    """

    speaker: str
    text: str
    mentioned_item_ids: tuple[str, ...] = ()
    target_item_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class Dialogue:
    """A multi-turn conversation, optionally segmented into episodes.

    ``episode_index_per_turn`` is None for a dialogue without episode
    indices. When present it must start at 0 and only ever step by +1.
    """

    dialogue_id: str
    turns: tuple[Turn, ...]
    split: str = "train"
    episode_index_per_turn: tuple[int, ...] | None = None
    provenance: str = "original"

    def item_ids(self) -> tuple[str, ...]:
        """Unique item ids across all turns, in first-appearance order."""
        return tuple(dict.fromkeys(
            [i for t in self.turns for i in t.mentioned_item_ids + t.target_item_ids]
        ))


# corpus records loaded and checked together
_RUN_LENGTH = 256


def _all_of(values, kind: type) -> bool:
    """Whether every value is exactly of type ``kind`` (so a bool is no int)."""
    return {kind}.issuperset(map(type, values))


def _first_failing(values: list, valid) -> int:
    """The first ``n`` with ``valid([values[n]])`` false; ``len(values)`` if ``valid(values)``."""
    if valid(values):
        return len(values)
    return next(n for n, value in enumerate(values) if not valid([value]))


def _first_not(values: list, kind: type) -> int:
    """The position of the first value not exactly of type ``kind``."""
    return _first_failing(values, lambda column: _all_of(column, kind))


def _column(records, key: str, what: str) -> list:
    """Each record's ``key``; ``CorpusError`` naming ``what`` if one has none."""
    try:
        return list(map(itemgetter(key), records))
    except KeyError:
        raise CorpusError(f"{what} missing {key!r}") from None


def _id_arrays(lists: list, label: str) -> list:
    """``lists``, checked; ``CorpusError`` for the first that is not an array."""
    bad = _first_not(lists, list)
    if bad < len(lists):
        raise CorpusError(f"{label} must be an array of item ids, got {lists[bad]!r}")
    return lists


def _codes(names: list, code: dict, message) -> list[int]:
    """``code[name]`` per name; ``CorpusError(message(n))`` at the first unknown name ``n``."""
    try:
        return list(map(code.__getitem__, names))
    except (KeyError, TypeError):  # an unknown name, or an unhashable one
        bad = next(n for n, x in enumerate(names) if not (isinstance(x, str) and x in code))
        raise CorpusError(message(bad)) from None


def _check_distinct(keys: list, seen, message: str) -> None:
    """``CorpusError(message.format(key))`` for the first key in ``seen`` or repeated."""
    earlier: set = set()
    for key in keys:
        if key in seen or key in earlier:
            raise CorpusError(message.format(key))
        earlier.add(key)


_DUPLICATE_ID = "duplicate dialogue_id {!r}"


def _episode_column(dialogue_ids: list[str], episodes: list, n_turns: list[int]) -> list[int]:
    """The episode indices of a run of records, -1 for a record without them;
    ``CorpusError`` naming a record whose indices break a rule."""
    for row, e in enumerate(episodes):
        if e is not None and len(e) != n_turns[row]:
            raise CorpusError(f"dialogue {dialogue_ids[row]!r}: {len(e)} episode indices "
                              f"for {n_turns[row]} turns")
    column = list(chain(*([-1] * n if e is None else e for e, n in zip(episodes, n_turns))))
    try:
        values = np.array(column, dtype=np.int64)
    except OverflowError:  # a value past int64 breaks a rule below; Python ints name it
        values = np.array(column, dtype=object)
    starts = _offsets(n_turns)[:-1]
    steps = np.diff(values)
    steps[starts[1:] - 1] = 0  # from one record to the next
    given = np.array([e is not None for e in episodes])
    for rows, rule in (
        (np.flatnonzero(given & (values[starts] != 0)), "episodes must start at 0"),
        (np.searchsorted(starts, np.flatnonzero((steps != 0) & (steps != 1)), "right") - 1,
         "episode indices must be non-decreasing with steps of at most 1"),
    ):
        if rows.size:
            raise CorpusError(f"dialogue {dialogue_ids[rows[0]]!r}: {rule}")
    return column


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


def _distinct_pairs(owners: np.ndarray, codes: np.ndarray, n_codes: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``(owner, code)`` pairs, sorted, of codes below ``n_codes``."""
    return np.divmod(_sorted_distinct(owners * n_codes + codes), n_codes)


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, e) for s, e in zip(starts, ends)])``."""
    lengths = ends - starts
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


def _encoded(texts: list[str]) -> tuple[bytes, list[int]]:
    """The UTF-8 of ``texts`` joined, and each text's size in bytes: its
    length when the run is ASCII. ``UnicodeEncodeError`` for a lone surrogate."""
    joined = "".join(texts)
    if joined.isascii():
        return joined.encode("ascii"), list(map(len, texts))
    parts = [text.encode() for text in texts]
    return b"".join(parts), list(map(len, parts))


def _encodes(texts: list[str]) -> bool:
    """Whether ``texts`` can be written as UTF-8."""
    try:
        _encoded(texts)
    except UnicodeEncodeError:
        return False
    return True


def _decoded(data: bytes, cuts: list[int]) -> list[str]:
    """The strings of the UTF-8 ``data`` between successive byte offsets
    ``cuts``: when ``data`` is ASCII, slices of it decoded once."""
    if data.isascii():  # a byte per character
        text = data.decode("ascii")
        return list(map(text.__getitem__, map(slice, cuts[:-1], cuts[1:])))
    return [data[start:end].decode() for start, end in zip(cuts[:-1], cuts[1:])]


@dataclass(frozen=True, eq=False)
class DialogueColumns:
    """Dialogues stored column-wise, every item id interned into ``items``.

    Per dialogue ``d``: ``dialogue_ids[d]``, its ``split`` and
    ``provenance`` codes (positions in ``SPLIT_NAMES`` and
    ``PROVENANCE_NAMES``), and its turns ``turn_offsets[d]:turn_offsets[d + 1]``.
    Per turn ``t``: the ``speaker`` code, its text as the UTF-8 bytes
    ``text_bytes[text_offsets[t]:text_offsets[t + 1]]`` (decoded only by a
    writer, ``turn_texts``), ``episodes[t]`` (-1 in a dialogue without
    episode indices), and the record's raw ``items`` and ``targets`` lists,
    in order and with any repeats, as the codes
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
    text_offsets: np.ndarray
    text_bytes: np.ndarray
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

    def touches(self, keep) -> tuple[np.ndarray, np.ndarray]:
        """``(turn, code)`` of each distinct item a turn mentions or targets,
        of the mentions and targets ``keep(turns, codes)`` picks (a mask over
        the turn and code of each), sorted by turn, then code: a turn touches
        an item once, however often it names it. Built on each call and not
        kept, so only the pairs asked for are sorted and none outlive it."""
        turns, codes = self._entries()
        kept = keep(turns, codes)
        turns, codes = turns[kept], codes[kept]  # the rest is freed before the sort
        return _distinct_pairs(turns, codes, len(self.items))

    @cached_property
    def dialogue_items(self) -> tuple[np.ndarray, np.ndarray]:
        """``(row, code)`` of each distinct item a dialogue touches, sorted by
        row, then code."""
        turns, codes = self._entries()
        return _distinct_pairs(self.turn_dialogue[turns], codes, len(self.items))

    def _entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The turn and the code of every mention, then of every target."""
        return (np.concatenate((_owners(self.mention_offsets), _owners(self.target_offsets))),
                np.concatenate((self.mention_codes, self.target_codes)))

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
        episodes = closed - np.repeat(closed[starts], np.diff(self.turn_offsets))
        return replace(self, episodes=episodes)

    def turn_texts(self, lo: int, hi: int) -> list[str]:
        """The texts of turns ``lo:hi``, decoded: the one place a text
        becomes a ``str``, called by the writers for the turns they write."""
        bounds = self.text_offsets[lo : hi + 1]
        data = self.text_bytes[bounds[0] : bounds[-1]].tobytes()
        return _decoded(data, (bounds - bounds[0]).tolist())

    def iter_dialogues(self) -> Iterator[Dialogue]:
        """A ``Dialogue`` per dialogue, in order, each built as it is asked for."""
        speakers = list(map(SPEAKER_NAMES.__getitem__, self.speaker.tolist()))
        texts = self.turn_texts(0, len(self.speaker))
        mentions = self._id_lists(self.mention_offsets, self.mention_codes)
        targets = self._id_lists(self.target_offsets, self.target_codes)
        episodes = self.episodes.tolist()
        offsets = self.turn_offsets.tolist()
        splits = self.split.tolist()
        provenances = self.provenance.tolist()
        for row in range(len(self)):
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
        firsts, ends = self.turn_offsets[rows], self.turn_offsets[rows + 1]
        turns = _ranges(firsts, ends)
        # one byte slice per dialogue: an index per byte would be 8 times the text
        slices = map(slice, self.text_offsets[firsts].tolist(), self.text_offsets[ends].tolist())
        text_bytes = np.concatenate([np.empty(0, np.uint8), *map(self.text_bytes.__getitem__, slices)])

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
            turn_offsets=_offsets(ends - firsts),
            speaker=self.speaker[turns],
            text_offsets=_offsets(self.text_offsets[turns + 1] - self.text_offsets[turns]),
            text_bytes=text_bytes,
            episodes=self.episodes[turns],
            mention_offsets=mention_offsets,
            mention_codes=mention_codes,
            target_offsets=target_offsets,
            target_codes=target_codes,
            lines=self.lines[rows],
        )

    def as_synthetic_training(self) -> "DialogueColumns":
        """These dialogues relabelled as synthetic training dialogues."""
        n = len(self)
        split, provenance = np.full(n, TRAIN, np.int8), np.full(n, SYNTHETIC, np.int8)
        return replace(self, split=split, provenance=provenance)


def fill_checked(builder, numbered: Iterable[tuple[int, dict]], path: Path | None = None) -> None:
    """Append ``(number, record)`` pairs to ``builder`` in runs of
    ``_RUN_LENGTH``, each checked by ``builder.add_records``, the one place
    a record's rules are written. A run that fails is added again record by
    record; the first record that fails alone raises its error, prefixed by
    ``path:number`` when ``path`` (the file of those line numbers) is given.
    An error ``numbered`` raises comes after the records read before it are
    checked. The cyclic collector is paused meanwhile (and then restored):
    young-generation passes would only walk each run again and again."""
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
    if not run:
        return
    try:
        builder.add_records(run)
    except CorpusError:
        for number, record in run:
            try:
                builder.add_records([(number, record)])
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
        self.text_sizes = array("q")  # in UTF-8 bytes
        self.text_bytes = bytearray()
        self.episodes = array("q")
        self.n_mentions = array("q")
        self.mention_codes = array("i")
        self.n_targets = array("q")
        self.target_codes = array("i")

    def add_records(self, run: list[tuple[int, dict]]) -> None:
        """Append a run of numbered corpus-file records, checking each rule
        once over the run; a broken rule raises ``CorpusError`` and appends
        nothing (new item ids may have been interned). For one record, the
        error names its first fault: fields in order, turns, then values."""
        lines, records = zip(*run)
        ids = _column(records, "dialogue_id", "record")
        if not _all_of(ids, str):
            ids = [parse_id(i, "'dialogue_id'") for i in ids]
        splits = _column(records, "split", "record")
        turn_lists = _column(records, "turns", "record")
        if not (_all_of(turn_lists, list) and all(turn_lists)):
            raise CorpusError("'turns' must be a non-empty array")
        episodes = [record.get("episodes") for record in records]
        given = [e for e in episodes if e is not None]
        bad = _first_failing(given, lambda e: _all_of(e, list) and _all_of(chain(*e), int))
        if bad < len(given):
            raise CorpusError(f"'episodes' must be an array of integers, got {given[bad]!r}")
        turns = list(chain.from_iterable(turn_lists))
        try:
            columns = self._turn_columns(turns)
        except CorpusError:
            for turn in turns:  # the first turn that breaks a rule names it
                self._turn_columns([turn])
            raise
        if "" in ids:
            raise CorpusError("dialogue_id must be non-empty")
        split_codes = _codes(splits, _SPLIT_CODE, lambda n: (
            f"dialogue {ids[n]!r}: unknown split {splits[n]!r}"))
        provenances = [record.get("provenance", "original") for record in records]
        provenance_codes = _codes(provenances, _PROVENANCE_CODE, lambda n: (
            f"dialogue {ids[n]!r}: unknown provenance {provenances[n]!r}"))
        n_turns = list(map(len, turn_lists))
        episodes = _episode_column(ids, episodes, n_turns) if given else [-1] * len(turns)
        _check_distinct(ids, self._seen, _DUPLICATE_ID)
        self._seen.update(ids)
        self.lines.fromlist(list(lines))
        self.dialogue_ids += ids
        self.split.fromlist(split_codes)
        self.provenance.fromlist(provenance_codes)
        self.n_turns.fromlist(n_turns)
        self.episodes.fromlist(episodes)
        speakers, (text_bytes, text_sizes), mentioned, targets, mention_codes, target_codes = columns
        self.speaker.fromlist(speakers)
        self.text_bytes += text_bytes
        self.text_sizes.fromlist(text_sizes)
        self.n_mentions.fromlist(list(map(len, mentioned)))
        self.mention_codes.fromlist(mention_codes)
        self.n_targets.fromlist(list(map(len, targets)))
        self.target_codes.fromlist(target_codes)

    def _turn_columns(self, turns: list) -> tuple:
        """The speaker codes, UTF-8 texts (``_encoded``), id lists and item
        codes of turn records; ``CorpusError`` for a broken rule, in the order
        one turn's are checked."""
        bad = _first_not(turns, dict)
        if bad < len(turns):
            raise CorpusError(f"turn is not an object: {turns[bad]!r}")
        keys = ("speaker", "text", "items", "targets")
        speakers, texts, mentioned, targets = (_column(turns, key, "turn record") for key in keys)
        bad = _first_not(texts, str)
        if bad < len(texts):
            raise CorpusError(f"turn 'text' must be a string, got {texts[bad]!r}")
        try:
            encoded = _encoded(texts)
        except UnicodeEncodeError:  # a lone surrogate, which UTF-8 cannot hold
            bad = _first_failing(texts, _encodes)
            raise CorpusError(f"turn 'text' must hold no lone surrogate, got {texts[bad]!r}") from None
        codes = self.items.intern_lists(mentioned, targets, ("turn 'items'", "turn 'targets'"))
        return (_codes(speakers, _SPEAKER_CODE, lambda n: f"unknown speaker {speakers[n]!r}"),
                encoded, mentioned, targets, *codes)

    def finish(self) -> DialogueColumns:
        return DialogueColumns(
            items=self.items,
            dialogue_ids=self.dialogue_ids,
            split=np.array(self.split, dtype=np.int8),
            provenance=np.array(self.provenance, dtype=np.int8),
            turn_offsets=_offsets(self.n_turns),
            speaker=np.array(self.speaker, dtype=np.int8),
            text_offsets=_offsets(self.text_sizes),
            text_bytes=np.frombuffer(self.text_bytes, np.uint8),
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
    objects; ``dialogues`` and ``by_id`` build objects from the store when
    called. Treat a corpus as immutable: it is safe to share across readers.
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
        """The same catalog, and the same dialogues as written to a file."""
        if not isinstance(other, Corpus):
            return NotImplemented
        if self.catalog != other.catalog:
            return False
        return list(dialogue_lines(self.columns)) == list(dialogue_lines(other.columns))

    __hash__ = None  # type: ignore[assignment]

    @property
    def dialogues(self) -> tuple[Dialogue, ...]:
        """The dialogues as objects, built on each access and not kept; kept
        for the benchmark's counters, as is ``by_id``."""
        return tuple(self.columns.iter_dialogues())

    def split_rows(self, name: str) -> np.ndarray:
        """Rows of the dialogues in split ``name``, in corpus order."""
        if name not in SPLITS:
            raise CorpusError(f"unknown split {name!r}")
        return np.flatnonzero(self.columns.split == _SPLIT_CODE[name])

    def by_id(self) -> dict[str, Dialogue]:
        return dict(zip(self.columns.dialogue_ids, self.dialogues))

    def appended(self, source: DialogueColumns, rows: np.ndarray) -> "Corpus":
        """This corpus plus dialogues ``rows`` of ``source``, in that order,
        as synthetic training dialogues; a dialogue_id already in the corpus,
        or a row taken twice, raises ``CorpusError``."""
        base = self.columns
        added = source.take(rows).as_synthetic_training()
        _check_distinct(added.dialogue_ids, base.row_of.keys(), _DUPLICATE_ID)
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
            split=np.concatenate((base.split, added.split)),
            provenance=np.concatenate((base.provenance, added.provenance)),
            turn_offsets=joined(base.turn_offsets, added.turn_offsets),
            speaker=np.concatenate((base.speaker, added.speaker)),
            text_offsets=joined(base.text_offsets, added.text_offsets),
            text_bytes=np.concatenate((base.text_bytes, added.text_bytes)),
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
    # the sha256 of the corpus file's bytes as they were parsed; None when
    # the dialogues were read from a column snapshot instead
    source_sha256: str | None = None


# ---------------------------------------------------------------------------
# corpus and catalog files, read and written through ``records``'
# line-delimited I/O


def load_catalog(path: str | Path) -> ItemCatalog:
    """The catalog in ``path``; a line that breaks a rule raises
    ``CorpusError`` naming ``path:line``, an empty catalog naming ``path``."""
    path = Path(path)
    items: dict[str, str] = {}
    for lineno, record in read_json_lines(path):
        try:
            item_id = parse_id(record["item_id"], "'item_id'")
            name = record["name"]
            if type(name) is not str:
                raise CorpusError(f"'name' must be a string, got {name!r}")
            _check_item_id(item_id)
        except KeyError as exc:
            raise CorpusError(f"{path}:{lineno}: catalog record missing {exc.args[0]!r}") from None
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from None
        if item_id in items:
            raise CorpusError(f"{path}:{lineno}: duplicate item_id {item_id!r}")
        items[item_id] = name
    try:
        return ItemCatalog(items)
    except CorpusError as exc:  # every line passed: only the empty-catalog rule is left
        raise CorpusError(f"{path}: {exc}") from None


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


def load_dialogues(path: str | Path, items: ItemIndex | None = None, digest=None) -> DialogueColumns:
    """Read a corpus or pool file into columns, interning its item ids into
    ``items`` (a fresh index when None); a malformed line or a repeated
    dialogue_id raises ``CorpusError`` naming ``path:line``, the first such
    line in the file. The file's bytes are fed to ``digest`` when given."""
    path = Path(path)
    return DialogueColumns.from_records(read_json_lines(path, digest), items, path)


def load_corpus(
    corpus_path: str | Path, catalog_path: str | Path, snapshot: str | Path | None = None
) -> tuple[Corpus, LoadSummary]:
    """Load and validate a corpus; unknown mentions are counted, not dropped.
    The column snapshot at ``snapshot``, when given, is read in place of the
    corpus file while the two match (``read_snapshot``); otherwise the file
    is parsed, and its sha256 goes into the summary."""
    catalog = load_catalog(catalog_path)
    items = ItemIndex(catalog.items)
    columns = digest = None
    if snapshot is not None:
        columns = read_snapshot(snapshot, corpus_path, items)
    if columns is None:
        digest = hashlib.sha256()
        columns = load_dialogues(corpus_path, items, digest)
    n_catalog = len(catalog)
    _, codes = columns.touches(lambda turns, codes: codes >= n_catalog)
    unknown = np.bincount(codes - n_catalog)
    unknown_ids = columns.items.ids[n_catalog:]
    per_split = np.bincount(columns.split, minlength=len(SPLIT_NAMES)).tolist()
    summary = LoadSummary(
        n_dialogues=len(columns),
        n_turns=len(columns.speaker),
        dialogues_per_split=Counter({s: n for s, n in zip(SPLIT_NAMES, per_split) if n}),
        n_unknown_mentions=int(unknown.sum()),
        # codes past the catalog are in first-appearance order
        unknown_item_ids=Counter(
            {unknown_ids[c]: n for c, n in enumerate(unknown.tolist()) if n}
        ),
        source_sha256=None if digest is None else digest.hexdigest(),
    )
    return Corpus.from_columns(catalog, columns), summary


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus one record per dialogue, straight from its columns."""
    write_lines(path, dialogue_lines(corpus.columns))


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
                map(_encode, columns.turn_texts(lo, hi)),
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
# column snapshots

SNAPSHOT_FORMAT = 2
# the array columns of a snapshot, in body order, each with its little-endian dtype
_SNAPSHOT_ARRAYS = [
    ("split", "|i1"), ("provenance", "|i1"), ("turn_offsets", "<i8"), ("speaker", "|i1"),
    ("text_offsets", "<i8"), ("text_bytes", "|u1"), ("episodes", "<i8"),
    ("mention_offsets", "<i8"), ("mention_codes", "<i4"), ("target_offsets", "<i8"),
    ("target_codes", "<i4"), ("lines", "<i8"),
]
# the string tables, after the arrays: each as its strings' sizes in UTF-8
# bytes, then the UTF-8 bytes of them all
_SNAPSHOT_STRINGS = ("dialogue_ids", "item_ids")
_SNAPSHOT_LAYOUT = _SNAPSHOT_ARRAYS + [
    (f"{name}{part}", dtype) for name in _SNAPSHOT_STRINGS
    for part, dtype in ((".lengths", "<i8"), (".utf8", "|u1"))
]
_SNAPSHOT_CHUNK = 1 << 16  # bytes hashed or checked as UTF-8 at a time
_HEADER_LIMIT = 1 << 16


def snapshot_path(path: str | Path) -> Path:
    """The column snapshot of the JSON-lines file ``path``: ``<path>.cols``."""
    path = Path(path)
    return path.with_name(path.name + ".cols")


def _sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(_SNAPSHOT_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def _interning_order(columns: DialogueColumns) -> np.ndarray:
    """The distinct codes of ``columns``, in the order a fresh index interns
    them when their file is loaded: by turn, a turn's mentions before its
    targets, each list in order (``ItemIndex.intern_lists``)."""
    mentions, targets = columns.mention_offsets, columns.target_offsets
    n_mentions, n_targets = len(columns.mention_codes), len(columns.target_codes)
    # each code in reading order: a mention follows the targets of earlier
    # turns too, a target every mention of its own turn and earlier ones
    seen = np.empty(n_mentions + n_targets, dtype=np.int32)
    seen[np.arange(n_mentions) + targets[_owners(mentions)]] = columns.mention_codes
    seen[np.arange(n_targets) + mentions[_owners(targets) + 1]] = columns.target_codes
    first = np.full(len(columns.items), len(seen))  # each code's first position
    np.minimum.at(first, seen, np.arange(len(seen)))
    used = np.flatnonzero(first < len(seen))
    return used[np.argsort(first[used])]


def write_snapshot(snapshot: str | Path, columns: DialogueColumns, source_sha256: str) -> None:
    """Write the column snapshot ``snapshot`` (through ``_replacing``, a
    chunk at a time) of ``columns``, the store loaded from a JSON-lines file
    whose bytes have the sha256 ``source_sha256``: ``columns.lines`` number
    that file's lines, and item ids go in the order a fresh index interns
    them when the file is loaded, so ``read_snapshot`` gives the store
    ``load_dialogues`` reads. See ``read_snapshot`` for the layout."""
    order = _interning_order(columns)
    recode = np.zeros(len(columns.items), dtype=np.int32)
    recode[order] = np.arange(len(order), dtype=np.int32)
    loaded = {
        **{name: getattr(columns, name) for name, _ in _SNAPSHOT_ARRAYS},
        "mention_codes": recode[columns.mention_codes],
        "target_codes": recode[columns.target_codes],
    }
    arrays = [np.ascontiguousarray(loaded[name], dtype) for name, dtype in _SNAPSHOT_ARRAYS]
    tables = [list(map(str.encode, strings))
              for strings in (columns.dialogue_ids, [columns.items.ids[c] for c in order.tolist()])]
    sizes = [len(a) for a in arrays]
    for encoded in tables:
        sizes += [len(encoded), sum(map(len, encoded))]
    header = {
        "snapshot_format": SNAPSHOT_FORMAT,
        "source_sha256": source_sha256,
        "arrays": [[name, dtype, n] for (name, dtype), n in zip(_SNAPSHOT_LAYOUT, sizes)],
    }
    digest = hashlib.sha256()
    with _replacing(snapshot, binary=True) as fh:
        def write(data) -> None:
            digest.update(data)
            fh.write(data)

        write(json.dumps(header).encode("ascii") + b"\n")
        for values in arrays:
            write(values)
        for encoded in tables:
            write(np.fromiter(map(len, encoded), "<i8", len(encoded)))
            write(b"".join(encoded))
        fh.write(digest.digest())


def read_snapshot(
    snapshot: str | Path, source: str | Path, items: ItemIndex | None = None
) -> DialogueColumns | None:
    """The store in the column snapshot ``snapshot`` of the file ``source``,
    equal to ``load_dialogues(source, items)``: its item ids are interned
    into ``items`` (a fresh index when None) in the order that load interns
    them. None, with ``items`` untouched, when there is no snapshot or it
    does not match ``source``.

    A snapshot is one JSON header line, ``{"snapshot_format", "source_sha256",
    "arrays": [[name, dtype, length], ...]}``, then the body: the twelve
    array columns (``_SNAPSHOT_ARRAYS``, the turn texts among them as UTF-8
    bytes and their byte offsets) as little-endian arrays; per string table
    (dialogue ids, item ids) the size in UTF-8 bytes of each string, then the
    UTF-8 bytes of them all; last, the sha256 of every byte before it. A
    snapshot does not match when its format or layout is another, its
    ``source_sha256`` is not the sha256 of ``source``'s bytes, its size or
    its digest is off, or its columns break a store invariant (offsets, item
    codes, split, speaker or provenance codes, text bytes that are not UTF-8
    or a text offset inside a character). No text is decoded."""
    try:
        with Path(snapshot).open("rb") as fh:
            columns = _read_snapshot(fh, Path(source))
    except (OSError, ValueError):  # missing or unreadable, or no match
        return None
    items = ItemIndex() if items is None else items
    ids = columns.pop("item_ids")
    remap = np.fromiter(map(items.intern, ids), np.int32, len(ids))
    columns["mention_codes"] = remap[columns["mention_codes"]]
    columns["target_codes"] = remap[columns["target_codes"]]
    return DialogueColumns(items=items, **columns)


def _read_snapshot(fh: IO[bytes], source: Path) -> dict:
    """The columns of the open snapshot of ``source``, item codes indexing
    ``item_ids``; ``ValueError`` when it does not match ``source``."""
    line = fh.readline(_HEADER_LIMIT)
    sha256, sizes = _snapshot_header(line)
    digest = hashlib.sha256(line)
    body = sum(np.dtype(dtype).itemsize * n for (_, dtype), n in zip(_SNAPSHOT_LAYOUT, sizes))
    if os.fstat(fh.fileno()).st_size != len(line) + body + digest.digest_size:
        raise ValueError("wrong size")
    if sha256 != _sha256_of(source):
        raise ValueError("a snapshot of another file")
    size_of = dict(zip(map(itemgetter(0), _SNAPSHOT_LAYOUT), sizes))
    columns = {name: _read_array(fh, digest, np.dtype(dtype), size_of[name])
               for name, dtype in _SNAPSHOT_ARRAYS}
    for name in _SNAPSHOT_STRINGS:
        sizes = _read_array(fh, digest, np.dtype("<i8"), size_of[f"{name}.lengths"])
        columns[name] = _read_strings(fh, digest, size_of[f"{name}.utf8"], sizes)
    if fh.read() != digest.digest():
        raise ValueError("digest differs")
    if not _store_invariants(columns):
        raise ValueError("columns break a store invariant")
    return columns


def _snapshot_header(line: bytes) -> tuple[str, list[int]]:
    """The source sha256 and the array lengths of a snapshot's header line;
    ``ValueError`` for another format or layout."""
    try:
        header = json.loads(line)
        layout = [(name, dtype) for name, dtype, _ in header["arrays"]]
        sizes = [n for _, _, n in header["arrays"]]
        version, source = header["snapshot_format"], header["source_sha256"]
    except (KeyError, TypeError) as exc:  # JSON, but not a header
        raise ValueError("not a snapshot header") from exc
    if version != SNAPSHOT_FORMAT or layout != _SNAPSHOT_LAYOUT:
        raise ValueError("another snapshot format")
    if not all(type(n) is int and n >= 0 for n in sizes):
        raise ValueError("a length is not a count")
    return source, sizes


def _read_array(fh: IO[bytes], digest, dtype: np.dtype, n: int) -> np.ndarray:
    values = np.empty(n, dtype)
    if fh.readinto(values.view(np.uint8)) != values.nbytes:
        raise ValueError("truncated")
    digest.update(values)
    return values.astype(dtype.newbyteorder("="), copy=False)


def _read_strings(fh: IO[bytes], digest, n_bytes: int, sizes: np.ndarray) -> list[str]:
    """The strings of ``n_bytes`` of UTF-8, cut at their byte ``sizes``."""
    if (sizes < 0).any() or sizes.sum() != n_bytes:
        raise ValueError("sizes differ from the bytes")
    data = fh.read(n_bytes)
    if len(data) != n_bytes:
        raise ValueError("truncated")
    digest.update(data)
    return _decoded(data, _offsets(sizes).tolist())  # UnicodeDecodeError is a ValueError


def _is_utf8(data: np.ndarray, offsets: np.ndarray) -> bool:
    """Whether ``data`` is UTF-8, checked a chunk at a time with no text
    decoded whole, and none of the ``offsets`` into it falls inside a
    character (at a continuation byte)."""
    if not data.size or data.max() < 0x80:  # ASCII
        return True
    if ((data[offsets[offsets < data.size]] & 0xC0) == 0x80).any():
        return False
    decode = codecs.getincrementaldecoder("utf-8")().decode
    try:
        for start in range(0, data.size, _SNAPSHOT_CHUNK):
            stop = start + _SNAPSHOT_CHUNK
            decode(data[start:stop].tobytes(), final=stop >= data.size)
    except UnicodeDecodeError:
        return False
    return True


def _store_invariants(columns: dict) -> bool:
    """Whether snapshot columns hold together as a store: lengths, CSR
    offsets (every dialogue with a turn), UTF-8 text bytes cut between
    characters, item codes, and split, speaker and provenance codes."""
    n, n_turns = len(columns["dialogue_ids"]), len(columns["speaker"])
    sizes = {"split": n, "provenance": n, "lines": n, "turn_offsets": n + 1,
             "text_offsets": n_turns + 1, "episodes": n_turns, "mention_offsets": n_turns + 1,
             "target_offsets": n_turns + 1}

    def offsets(name: str, total: int, least_step: int) -> bool:
        values = columns[name]
        steps = np.diff(values)
        return values[0] == 0 and values[-1] == total and bool((steps >= least_step).all())

    def within(name: str, limit: int) -> bool:
        values = columns[name]
        return not values.size or (values.min() >= 0 and values.max() < limit)

    n_ids = len(columns["item_ids"])
    return (
        all(len(columns[name]) == size for name, size in sizes.items())
        and offsets("turn_offsets", n_turns, 1)
        and offsets("text_offsets", len(columns["text_bytes"]), 0)
        and _is_utf8(columns["text_bytes"], columns["text_offsets"])
        and offsets("mention_offsets", len(columns["mention_codes"]), 0)
        and offsets("target_offsets", len(columns["target_codes"]), 0)
        and within("mention_codes", n_ids) and within("target_codes", n_ids)
        and within("split", len(SPLIT_NAMES)) and within("provenance", len(PROVENANCE_NAMES))
        and within("speaker", len(SPEAKER_NAMES))
        and len(set(columns["item_ids"])) == n_ids
    )


# ---------------------------------------------------------------------------
# episode segmentation


def segment_corpus(corpus: Corpus, policy: str = "accept_boundary") -> Corpus:
    """Assign episode indices to every dialogue.

    ``explicit`` keeps indices already present on the dialogues (and errors
    if a dialogue has none). ``accept_boundary`` starts a new episode on the
    turn following any turn with a non-empty target list: accepting a
    recommendation closes the episode.
    """
    return Corpus.from_columns(corpus.catalog, corpus.columns.segmented(policy))

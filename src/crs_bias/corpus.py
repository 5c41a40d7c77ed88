"""Data model and file I/O for conversational recommendation corpora.

A corpus is a catalog of recommendable items plus a set of multi-turn
dialogues. Dialogues carry per-turn item mentions (the ``@<item_id>`` token
convention inside utterance text, with the authoritative id list in each
turn record) and per-turn ground-truth target items. Dialogues can be
segmented into "episodes": spans that end when a recommendation is accepted,
i.e. when a turn carries a non-empty target list.

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
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

SPEAKERS = frozenset({"seeker", "recommender"})
SPLITS = frozenset({"train", "valid", "test"})
PROVENANCES = frozenset({"original", "synthetic"})
EPISODE_POLICIES = frozenset({"explicit", "accept_boundary"})


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


class _TurnFields(NamedTuple):
    speaker: str
    text: str
    mentioned_item_ids: tuple[str, ...] = ()
    target_item_ids: tuple[str, ...] = ()


class Turn(_TurnFields):
    """One utterance: who spoke, the text, and item ids mentioned/accepted.

    An immutable named tuple: a corpus holds one per utterance (about 180k
    at ReDial scale), and a tuple is the cheapest object to build that
    keeps the field names.
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
        if not self.dialogue_id:
            raise CorpusError("dialogue_id must be non-empty")
        if not self.turns:
            raise CorpusError(f"dialogue {self.dialogue_id!r} has no turns")
        if type(self.split) is not str or self.split not in SPLITS:
            raise CorpusError(f"dialogue {self.dialogue_id!r}: unknown split {self.split!r}")
        if type(self.provenance) is not str or self.provenance not in PROVENANCES:
            raise CorpusError(
                f"dialogue {self.dialogue_id!r}: unknown provenance {self.provenance!r}"
            )
        episodes = self.episode_index_per_turn
        if episodes is not None:
            if len(episodes) != len(self.turns):
                raise CorpusError(
                    f"dialogue {self.dialogue_id!r}: {len(episodes)} episode indices "
                    f"for {len(self.turns)} turns"
                )
            if episodes[0] != 0:
                raise CorpusError(f"dialogue {self.dialogue_id!r}: episodes must start at 0")
            for prev, cur in zip(episodes, episodes[1:]):
                if cur - prev not in (0, 1):
                    raise CorpusError(
                        f"dialogue {self.dialogue_id!r}: episode indices must be "
                        f"non-decreasing with steps of at most 1"
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


@dataclass(frozen=True)
class Corpus:
    """An immutable catalog + dialogue collection, safe to share across readers."""

    catalog: ItemCatalog
    dialogues: tuple[Dialogue, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for d in self.dialogues:
            if d.dialogue_id in seen:
                raise CorpusError(f"duplicate dialogue_id {d.dialogue_id!r}")
            seen.add(d.dialogue_id)

    def split(self, name: str) -> tuple[Dialogue, ...]:
        if name not in SPLITS:
            raise CorpusError(f"unknown split {name!r}")
        return tuple(d for d in self.dialogues if d.split == name)

    def by_id(self) -> dict[str, Dialogue]:
        return {d.dialogue_id: d for d in self.dialogues}


@dataclass
class LoadSummary:
    """What the loader saw: sizes plus unknown-mention accounting.

    Unknown item ids (mentions or targets absent from the catalog) are kept
    in the loaded dialogues and reported here, never silently dropped.
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


def read_json_lines(path: Path) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line. Lines are decoded
    one at a time, so a bad byte, malformed JSON, a lone surrogate escape
    or a non-object record raises ``CorpusError`` naming its own
    ``path:line``."""
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
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
    writing leaves the old file (or none) and no temp file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# built once: json.dumps with options builds a new encoder per call
_ENCODER = json.JSONEncoder(ensure_ascii=False)


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


def _item_ids(value, key: str) -> tuple[str, ...]:
    if type(value) is not list:
        raise CorpusError(f"turn {key!r} must be an array of item ids, got {value!r}")
    ids = tuple(value)
    for item_id in ids:
        if type(item_id) is not str:
            return tuple(parse_id(i, f"turn {key!r} item") for i in ids)
    return ids


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


def _turn_from_record(record) -> Turn:
    if type(record) is not dict:
        raise CorpusError(f"turn is not an object: {record!r}")
    try:
        speaker = record["speaker"]
        text = record["text"]
        items = record["items"]
        targets = record["targets"]
    except KeyError as exc:
        raise CorpusError(f"turn record missing {exc.args[0]!r}") from None
    if type(text) is not str:
        raise CorpusError(f"turn 'text' must be a string, got {text!r}")
    return Turn(speaker, text, _item_ids(items, "items"), _item_ids(targets, "targets"))


def dialogue_from_record(record: dict, where: str = "<record>") -> Dialogue:
    """Validate one corpus record; every error names ``where``."""
    try:
        try:
            dialogue_id = parse_id(record["dialogue_id"], "'dialogue_id'")
            split = record["split"]
            turns = record["turns"]
        except KeyError as exc:
            raise CorpusError(f"record missing {exc.args[0]!r}") from None
        if type(turns) is not list or not turns:
            raise CorpusError("'turns' must be a non-empty array")
        episodes = record.get("episodes")
        if episodes is not None:
            if type(episodes) is not list or any(type(e) is not int for e in episodes):
                raise CorpusError(f"'episodes' must be an array of integers, got {episodes!r}")
            episodes = tuple(episodes)
        return Dialogue(
            dialogue_id=dialogue_id,
            turns=tuple(map(_turn_from_record, turns)),
            split=split,
            episode_index_per_turn=episodes,
            provenance=record.get("provenance", "original"),
        )
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from None


def dialogue_to_record(dialogue: Dialogue) -> dict:
    record: dict = {
        "dialogue_id": dialogue.dialogue_id,
        "split": dialogue.split,
        "provenance": dialogue.provenance,
        "turns": [
            {
                "speaker": t.speaker,
                "text": t.text,
                "items": list(t.mentioned_item_ids),
                "targets": list(t.target_item_ids),
            }
            for t in dialogue.turns
        ],
    }
    if dialogue.episode_index_per_turn is not None:
        record["episodes"] = list(dialogue.episode_index_per_turn)
    return record


def load_dialogues(path: str | Path) -> list[Dialogue]:
    """Read a corpus or pool file; a malformed line or a repeated
    dialogue_id raises ``CorpusError`` naming ``path:line``.

    The cyclic garbage collector is paused while the dialogues are built
    (and the caller's setting restored after): they hold no reference
    cycles and are freed by reference counting, so its passes over the
    growing heap would only walk them again and again.
    """
    path = Path(path)
    enabled = gc.isenabled()
    gc.disable()
    dialogues: list[Dialogue] = []
    seen: set[str] = set()
    try:
        for lineno, record in read_json_lines(path):
            dialogue = dialogue_from_record(record, f"{path}:{lineno}")
            if dialogue.dialogue_id in seen:
                raise CorpusError(f"{path}:{lineno}: duplicate dialogue_id {dialogue.dialogue_id!r}")
            seen.add(dialogue.dialogue_id)
            dialogues.append(dialogue)
    finally:
        if enabled:
            gc.enable()
    return dialogues


def load_corpus(corpus_path: str | Path, catalog_path: str | Path) -> tuple[Corpus, LoadSummary]:
    """Load and validate a corpus; unknown mentions are counted, not dropped."""
    catalog = load_catalog(catalog_path)
    dialogues = load_dialogues(corpus_path)
    corpus = Corpus(catalog=catalog, dialogues=tuple(dialogues))

    known = catalog.items
    unknown: Counter = Counter()
    for d in dialogues:
        for _, _, mentioned, targets in d.turns:
            if mentioned or targets:
                for item_id in dict.fromkeys(mentioned + targets):
                    if item_id not in known:
                        unknown[item_id] += 1
    summary = LoadSummary(
        n_dialogues=len(dialogues),
        n_turns=sum(len(d.turns) for d in dialogues),
        dialogues_per_split=Counter(d.split for d in dialogues),
        n_unknown_mentions=sum(unknown.values()),
        unknown_item_ids=unknown,
    )
    return corpus, summary


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    save_dialogues(corpus.dialogues, path)


def save_dialogues(dialogues: Iterable[Dialogue], path: str | Path) -> None:
    write_json_lines(path, map(dialogue_to_record, dialogues))


def save_catalog(catalog: ItemCatalog, path: str | Path) -> None:
    write_json_lines(path, ({"item_id": i, "name": name} for i, name in catalog.items.items()))


# ---------------------------------------------------------------------------
# episode segmentation


def segment_episodes(dialogue: Dialogue, policy: str = "accept_boundary") -> Dialogue:
    """Assign episode indices to a dialogue.

    ``explicit`` keeps indices already present on the dialogue (and errors if
    they are missing). ``accept_boundary`` starts a new episode on the turn
    following any turn with a non-empty target list: accepting a
    recommendation closes the episode.
    """
    if policy not in EPISODE_POLICIES:
        raise CorpusError(f"unknown episode policy {policy!r}")
    if policy == "explicit":
        if dialogue.episode_index_per_turn is None:
            raise CorpusError(
                f"dialogue {dialogue.dialogue_id!r}: explicit episode policy "
                f"requires episode indices in the input"
            )
        return dialogue

    indices: list[int] = []
    episode = 0
    for turn in dialogue.turns:
        indices.append(episode)
        if turn.target_item_ids:
            episode += 1
    return replace(dialogue, episode_index_per_turn=tuple(indices))


def segment_corpus(corpus: Corpus, policy: str = "accept_boundary") -> Corpus:
    return Corpus(
        catalog=corpus.catalog,
        dialogues=tuple(segment_episodes(d, policy) for d in corpus.dialogues),
    )

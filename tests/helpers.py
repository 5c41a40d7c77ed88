"""Shared corpus/pool builders for the test suite.

The "standard fixture" is a deterministic 500-train-dialogue corpus over a
120-item catalog: mentions follow a long-tail (Zipf-like) distribution over
the first 80 items, the remaining 40 never appear in training data, and a
block of "niche" dialogues only touches the unpopular end. The pool covers
the whole catalog with one single-mention synthetic dialogue per item.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from math import fsum

import numpy as np

from crs_bias.augment import SyntheticPool
from crs_bias.corpus import (
    Corpus, CorpusError, Dialogue, DialogueColumns, ItemCatalog, Turn, dialogue_lines,
    mention_token, parse_id, read_json_lines,
)
from crs_bias.metrics import (
    DEFAULT_CUTOFFS,
    BiasReport,
    MetricSummary,
    RankedRun,
    RunEntry,
)
from crs_bias.popularity import ItemIndex, PopularityTable

from reference import (
    Skipped,
    cross_episode_popularity,
    intent_oriented_popularity,
    popularity_bias,
    rank_metrics,
)

CATALOG_SIZE = 120
MENTIONED_ITEMS = 80
NICHE_BAND = (60, 80)  # item ranks only the niche dialogues draw from
N_TRAIN_NATURAL = 435
N_TRAIN_NICHE = 50
N_TRAIN_CHAT = 15  # dialogues without any item mention (pure chitchat)
N_VALID = 30
N_TEST = 30
FIXTURE_SEED = 7


def item_id(i: int) -> str:
    return f"m{i:03d}"


def standard_catalog() -> ItemCatalog:
    return ItemCatalog({item_id(i): f"Movie {i:03d}" for i in range(CATALOG_SIZE)})


def count_table(counts: dict[str, int], popular=()) -> PopularityTable:
    """A popularity table over the keys of ``counts``, in their order, with
    those training frequencies and the popular set the caller chooses."""
    return PopularityTable(
        ItemIndex(counts),
        np.array(list(counts.values())),
        np.array([i in popular for i in counts], dtype=bool),
    )


def store_records(columns) -> list[dict]:
    """A ``DialogueColumns`` store as the records of the file it writes."""
    return [json.loads(line) for line in dialogue_lines(columns)]


def assert_same_store(got: DialogueColumns, expected: DialogueColumns) -> None:
    """Every column of two stores is equal, arrays in dtype too, and so are
    their indexes' ids and codes."""
    assert got.items.ids == expected.items.ids
    assert got.items.code == expected.items.code
    for column in dataclasses.fields(DialogueColumns):
        mine, theirs = getattr(got, column.name), getattr(expected, column.name)
        if isinstance(theirs, np.ndarray):
            assert mine.dtype == theirs.dtype, column.name
            assert mine.tolist() == theirs.tolist(), column.name
        elif column.name != "items":
            assert type(mine) is list and mine == theirs, column.name


def segmented_dialogue(dialogue_id: str, turns, split: str = "train") -> Dialogue:
    """A dialogue with the ``accept_boundary`` episode indices: a turn with
    targets closes its episode."""
    episodes, episode = [], 0
    for turn in turns:
        episodes.append(episode)
        episode += bool(turn.target_item_ids)
    return Dialogue(dialogue_id, tuple(turns), split=split, episode_index_per_turn=tuple(episodes))


def make_dialogue(
    dialogue_id: str,
    items: list[str],
    split: str = "train",
    two_episodes: bool = False,
) -> Dialogue:
    """A small dialogue mentioning ``items``, accepting the first as target."""
    turns = [
        Turn("seeker", "Can you recommend something to watch?"),
        Turn(
            "recommender",
            "You could try " + " or ".join(mention_token(i) for i in items) + ".",
            mentioned_item_ids=tuple(items),
            target_item_ids=(items[0],),
        ),
    ]
    if two_episodes and len(items) > 1:
        turns += [
            Turn("seeker", "Anything else along those lines?"),
            Turn(
                "recommender",
                f"Also {mention_token(items[-1])}.",
                mentioned_item_ids=(items[-1],),
                target_item_ids=(items[-1],),
            ),
        ]
    return segmented_dialogue(dialogue_id, turns, split=split)


def build_standard_corpus(seed: int = FIXTURE_SEED) -> Corpus:
    rng = np.random.default_rng(seed)
    weights = 1.0 / (np.arange(1, MENTIONED_ITEMS + 1) ** 1.1)
    weights /= weights.sum()
    niche_lo, niche_hi = NICHE_BAND

    dialogues: list[Dialogue] = []

    def natural(name: str, split: str) -> Dialogue:
        n_items = int(rng.integers(1, 4))
        picks = rng.choice(MENTIONED_ITEMS, size=n_items, replace=False, p=weights)
        items = [item_id(int(i)) for i in picks]
        return make_dialogue(name, items, split=split, two_episodes=rng.random() < 0.3)

    for n in range(N_TRAIN_NATURAL):
        dialogues.append(natural(f"train-{n:04d}", "train"))
    for n in range(N_TRAIN_NICHE):
        n_items = int(rng.integers(1, 3))
        picks = rng.choice(np.arange(niche_lo, niche_hi), size=n_items, replace=False)
        items = [item_id(int(i)) for i in picks]
        dialogues.append(make_dialogue(f"niche-{n:04d}", items, split="train"))
    for n in range(N_TRAIN_CHAT):
        dialogues.append(segmented_dialogue(
            f"chat-{n:04d}",
            (
                Turn("seeker", "Watched anything fun lately?"),
                Turn("recommender", "Plenty! What mood are you in?"),
            ),
        ))
    for n in range(N_VALID):
        dialogues.append(natural(f"valid-{n:04d}", "valid"))
    for n in range(N_TEST):
        dialogues.append(natural(f"test-{n:04d}", "test"))

    return Corpus(catalog=standard_catalog(), dialogues=tuple(dialogues))


def single_mention_pool(catalog: ItemCatalog) -> SyntheticPool:
    """One synthetic dialogue per catalog item, mentioning the item once."""
    dialogues = []
    for iid, name in catalog.items.items():
        dialogues.append(
            Dialogue(
                dialogue_id=f"syn-{iid}",
                turns=(
                    Turn("seeker", "What should I watch tonight?"),
                    Turn(
                        "recommender",
                        f"I suggest {mention_token(iid)} — it suits your taste.",
                        mentioned_item_ids=(iid,),
                        target_item_ids=(iid,),
                    ),
                ),
                split="train",
                episode_index_per_turn=(0, 0),
                provenance="synthetic",
            )
        )
    return SyntheticPool.from_dialogues(dialogues)


def reference_sample(weights: list[int], k: int, rng) -> list[int]:
    """Indices of up to k integer-weighted draws without replacement, by a
    plain O(n) scan per draw: the target is ``min(int(u * total), total - 1)``
    for one variate u, the hit is the first live index whose running weight
    exceeds it, and a zero total draws live position ``rng.integers(live)``."""
    live = list(range(len(weights)))
    chosen = []
    for _ in range(min(k, len(live))):
        total = sum(weights[i] for i in live)
        if total > 0:
            target = min(int(rng.random() * total), total - 1)
            running = 0
            for position, index in enumerate(live):
                running += weights[index]
                if running > target:
                    break
        else:
            position = int(rng.integers(len(live)))
        chosen.append(live.pop(position))
    return chosen


def freq_fixture_corpus() -> Corpus:
    """4-item corpus with training mention frequencies a:10, b:5, c:2, d:0."""
    catalog = ItemCatalog({"a": "Alpha", "b": "Beta", "c": "Gamma", "d": "Delta"})
    dialogues = []
    counter = 0
    for iid, count in (("a", 10), ("b", 5), ("c", 2)):
        for _ in range(count):
            dialogues.append(make_dialogue(f"d{counter:03d}", [iid]))
            counter += 1
    return Corpus(catalog=catalog, dialogues=tuple(dialogues))


def scalar_report(
    model_name: str, entries, table: PopularityTable, log_base: float = math.e, *,
    cutoffs=DEFAULT_CUTOFFS,
) -> BiasReport:
    """``evaluate_run``'s report on the run of ``RunEntry`` objects
    ``entries``, computed entry by entry from the reference metric functions
    and aggregated in entry order with ``fsum``."""
    previous_by_key: dict[tuple[str, int], list] = {}
    for entry in entries:
        previous_by_key.setdefault((entry.dialogue_id, entry.episode_index), []).append(entry)
    names = ["pop_bias", "cep", "uiop"]
    names += [f"{prefix}@{k}" for prefix in ("hit", "ndcg", "mrr") for k in cutoffs]
    per_entry = []
    for entry in entries:
        ranked = entry.ranked_item_ids
        previous = previous_by_key.get((entry.dialogue_id, entry.episode_index - 1), [])
        scores = {
            "pop_bias": popularity_bias(ranked, table.popular_set, log_base)
            if ranked else Skipped("empty_ranked_list"),
            "cep": cross_episode_popularity(entry, previous, table, log_base),
            "uiop": intent_oriented_popularity(entry, table, log_base),
        }
        accuracy = rank_metrics(entry, cutoffs)
        for name in names[3:]:
            scores[name] = accuracy if isinstance(accuracy, Skipped) else accuracy[name]
        per_entry.append(scores)
    metrics = {}
    for name in names:
        values = [s[name] for s in per_entry if not isinstance(s[name], Skipped)]
        reasons: dict[str, int] = {}
        for s in per_entry:
            if isinstance(s[name], Skipped):
                reasons[s[name].reason] = reasons.get(s[name].reason, 0) + 1
        if values:
            mean = fsum(values) / len(values)
            std = math.sqrt(fsum((v - mean) ** 2 for v in values) / len(values))
            metrics[name] = MetricSummary(mean, std, len(values), sum(reasons.values()), reasons)
    return BiasReport(model_name=model_name, metrics=metrics)


def standard_run(corpus: Corpus, seed: int = 2024) -> RankedRun:
    """A seeded run over every recommender turn of ``corpus``: ragged lists of
    0-15 items (some outside the catalog) and the turn's targets, built from
    ``RunEntry`` objects."""
    rng = np.random.default_rng(seed)
    items = list(corpus.catalog.items) + [f"x{n}" for n in range(5)]
    entries = []
    for record in store_records(corpus.columns):
        for turn_index, turn in enumerate(record["turns"]):
            if turn["speaker"] != "recommender":
                continue
            size = int(rng.integers(0, 16))
            ranked = tuple(str(i) for i in rng.choice(items, size=size, replace=False))
            entries.append(RunEntry(
                record["dialogue_id"], turn_index, record["episodes"][turn_index],
                ranked, tuple(turn["targets"]),
            ))
    return RankedRun.from_entries("standard", entries)


def file_entries(path) -> list[RunEntry]:
    """The ``RunEntry`` of each record of a run file, ids read as strings."""
    return [
        RunEntry(str(r["dialogue_id"]), r["turn_index"], r["episode_index"],
                 tuple(map(str, r["ranked"])), tuple(map(str, r["targets"])))
        for _, r in read_json_lines(path)
    ]


class FakeResponse:
    """A chat-completion reply as ``requests.post`` would return it; ``body``,
    when given, is the reply's whole JSON text instead."""

    def __init__(self, status_code=200, content="User: hi\nSystem: watch Alien.", headers=None,
                 body=None):
        self.status_code = status_code
        self._content = content
        self.headers = headers or {}
        self._body = body

    def json(self):
        if self._body is not None:
            return json.loads(self._body)
        return {"choices": [{"message": {"content": self._content}}]}


# replies whose choices[0].message.content is not a string
MALFORMED_REPLIES = [
    "[]",
    '{"choices": "x"}',
    '{"choices": [{"message": {"content": 5}}]}',
    '{"choices": [{"message": {"content": ["a"]}}]}',
]
# a reply whose completion holds a lone surrogate, escaped as \ud800
SURROGATE_REPLY = json.dumps(
    {"choices": [{"message": {"content": "User: hi\nSystem: watch Alien \ud800"}}]}
)


# ---------------------------------------------------------------------------
# per-dialogue reference loops for the columnar passes, over raw corpus
# records (ids may be integers, read as their decimal strings)


def record_touches(turn: dict) -> list[str]:
    """The distinct item ids a turn record mentions or targets, in order."""
    return list(dict.fromkeys(str(i) for i in turn["items"] + turn["targets"]))


def reference_train_frequencies(catalog_ids, records) -> dict[str, int]:
    freq = {item_id: 0 for item_id in catalog_ids}
    for record in records:
        if record["split"] == "train":
            for turn in record["turns"]:
                for item_id in record_touches(turn):
                    if item_id in freq:
                        freq[item_id] += 1
    return freq


def reference_unknown(catalog_ids, records) -> Counter:
    unknown: Counter = Counter()
    for record in records:
        for turn in record["turns"]:
            for item_id in record_touches(turn):
                if item_id not in catalog_ids:
                    unknown[item_id] += 1
    return unknown


def reference_accept_boundary(record) -> list[int]:
    episodes, episode = [], 0
    for turn in record["turns"]:
        episodes.append(episode)
        if turn["targets"]:
            episode += 1
    return episodes


def written_record(record) -> dict:
    """A corpus-file record as a store writes it back: ids as strings, the
    default provenance filled in, fields in the writer's order."""
    turns = [
        {"speaker": t["speaker"], "text": t["text"], "items": [str(i) for i in t["items"]],
         "targets": [str(i) for i in t["targets"]]}
        for t in record["turns"]
    ]
    written = {"dialogue_id": str(record["dialogue_id"]), "split": record["split"],
               "provenance": record.get("provenance", "original"), "turns": turns}
    if record.get("episodes") is not None:
        written["episodes"] = list(record["episodes"])
    return written


def reference_dialogue_max(record, values: dict):
    """The largest ``values.get(item, 0)`` over a dialogue's items, 0 if none."""
    return max(
        (values.get(i, 0) for turn in record["turns"] for i in record_touches(turn)), default=0
    )


def reference_pool_item(record) -> str | None:
    """The one item a pool record recommends, or None if it has not exactly one."""
    items = dict.fromkeys(i for turn in record["turns"] for i in record_touches(turn))
    return next(iter(items)) if len(items) == 1 else None


def reference_item_codes(catalog_ids, mentioned, targets):
    """Per turn, intern its mentions and then its targets, one id at a time:
    ``((mention codes, target codes), index ids)``."""
    ids = list(catalog_ids)
    code = {item: n for n, item in enumerate(ids)}

    def intern(item) -> int:
        item = str(item)
        if item not in code:
            code[item] = len(ids)
            ids.append(item)
        return code[item]

    mention_codes: list[int] = []
    target_codes: list[int] = []
    for turn_mentions, turn_targets in zip(mentioned, targets):
        mention_codes += [intern(i) for i in turn_mentions]
        target_codes += [intern(i) for i in turn_targets]
    return (mention_codes, target_codes), ids



# ---------------------------------------------------------------------------
# per-record reference for run loading: one record at a time, each id interned
# as it is read, the first rule a record breaks raising ``CorpusError``


def reference_run_columns(numbered, items, where) -> dict:
    """The columns of ``(number, record)`` run-file pairs, as plain lists;
    ``items`` is the ``ItemIndex`` ids are interned into and ``where(number)``
    prefixes an error."""
    dialogue_ids: list[str] = []
    dialogue_code: dict[str, int] = {}
    keys: set[tuple[int, int]] = set()
    out: dict[str, list] = {name: [] for name in (
        "lines", "dialogue_codes", "turn_index", "episode_index", "ranked", "targets"
    )}

    def index(value, key: str) -> int:
        if type(value) is not int or not 0 <= value < 2**63:
            raise CorpusError(f"{key!r} must be a non-negative 64-bit integer, got {value!r}")
        return value

    def array_of_ids(value, key: str) -> list:
        if type(value) is not list:
            raise CorpusError(f"{key!r} must be an array of item ids, got {value!r}")
        return value

    for number, record in numbered:
        try:
            try:
                dialogue_id = parse_id(record["dialogue_id"], "'dialogue_id'")
                turn_index = index(record["turn_index"], "turn_index")
                episode_index = index(record["episode_index"], "episode_index")
                ranked = array_of_ids(record["ranked"], "ranked")
                targets = array_of_ids(record["targets"], "targets")
            except KeyError as exc:
                raise CorpusError(f"run record missing {exc.args[0]!r}") from None
            if dialogue_id not in dialogue_code:
                dialogue_code[dialogue_id] = len(dialogue_ids)
                dialogue_ids.append(dialogue_id)
            key = (dialogue_code[dialogue_id], turn_index)
            if key in keys:
                raise CorpusError(f"duplicate run entry ({dialogue_id!r}, turn {turn_index})")
            ranked_codes = [items.intern(parse_id(i, "'ranked' item")) for i in ranked]
            if len(set(ranked_codes)) != len(ranked_codes):
                raise CorpusError(
                    f"run entry ({dialogue_id!r}, turn {turn_index}): "
                    f"ranked list contains duplicate item ids"
                )
            target_codes = [items.intern(parse_id(i, "'targets' item")) for i in targets]
        except CorpusError as exc:
            raise CorpusError(f"{where(number)}{exc}") from None
        keys.add(key)
        for name, value in zip(out, (number, key[0], turn_index, episode_index,
                                     ranked_codes, target_codes)):
            out[name].append(value)
    return dict(out, dialogue_ids=dialogue_ids, item_ids=list(items.ids))


def run_records(columns) -> list[dict]:
    """A ``RunColumns`` as run-file records, each id read back through its index."""
    lists = run_columns_lists(columns)
    ids, dialogue_ids = lists["item_ids"], lists["dialogue_ids"]
    return [
        {"dialogue_id": dialogue_ids[d], "turn_index": t, "episode_index": e,
         "ranked": [ids[c] for c in ranked], "targets": [ids[c] for c in targets]}
        for d, t, e, ranked, targets in zip(
            lists["dialogue_codes"], lists["turn_index"], lists["episode_index"],
            lists["ranked"], lists["targets"],
        )
    ]


def run_columns_lists(columns) -> dict:
    """A ``RunColumns`` as the plain lists of ``reference_run_columns``."""
    offsets = columns.target_offsets.tolist()
    targets = columns.target_codes.tolist()
    return {
        "lines": columns.lines.tolist(),
        "dialogue_codes": columns.dialogue_codes.tolist(),
        "turn_index": columns.turn_index.tolist(),
        "episode_index": columns.episode_index.tolist(),
        "ranked": [row[:n] for row, n in zip(columns.ranks.tolist(), columns.lengths.tolist())],
        "targets": [targets[a:b] for a, b in zip(offsets, offsets[1:])],
        "dialogue_ids": list(columns.dialogue_ids),
        "item_ids": list(columns.items.ids),
    }

"""Seeded paper-scale inputs for the benchmark workloads.

``build(spec, seed, root)`` writes a catalog, a corpus, one or more run files
and a config into ``root`` and returns what the generator knows about them
(training frequencies, expected statistics, run contents), so the output
checks never have to trust the program under test.

Inputs depend only on (workload spec, seed): the same seed gives
byte-identical files. Every random draw comes from its own numpy stream
derived from ``(seed, stream tag)``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_EVAL_DIALOGUES = 1_001  # per valid and test split
TURNS_RANGE = (16, 21)  # turns per dialogue, uniform in [16, 20]: about 18
ZIPF_EXPONENT = 1.1
UNKNOWN_RATE = 0.01
N_UNKNOWN_IDS = 500
ACCEPT_RATE = 0.35  # chance that a recommender turn with a mention closes an episode
RANKED_LENGTH = 50
TARGET_IN_LIST_RATE = 0.3
MIN_COUNT = 5  # popularity.eta count threshold written into the config
K = 5
BATCH_SIZE = 32

# one stream per component keeps each part stable when another part changes
_STREAM_CATALOG = 0
_STREAM_CORPUS = 1
_STREAM_RUN = 2

# Titles are drawn from this list without filtering: short one-word titles
# such as "Up" or "It" occur in the offline generator's own sentences, as
# they would in real text.
WORDS = (
    "Up", "It", "Her", "Us", "Go", "Heat", "Sure", "Jaws", "Hi", "Love", "Time",
    "Night", "Day", "Dark", "Light", "Star", "River", "City", "Road", "King",
    "Queen", "Ghost", "Storm", "Fire", "Ice", "Stone", "Glass", "Iron", "Gold",
    "Silver", "Blue", "Red", "Black", "White", "Green", "Lost", "Last", "First",
    "Long", "Short", "Quiet", "Wild", "Little", "Big", "Old", "New", "Secret",
    "Hidden", "Broken", "Final", "Silent", "Golden", "Frozen", "Burning",
    "Falling", "Rising", "Empty", "Perfect", "Strange", "Lonely", "Happy",
    "Summer", "Winter", "Spring", "Autumn", "Morning", "Evening", "Midnight",
    "Ocean", "Mountain", "Desert", "Forest", "Island", "Garden", "House",
    "Room", "Door", "Window", "Bridge", "Tower", "Castle", "Train", "Ship",
    "Dream", "Memory", "Promise", "Journey", "Story", "Song", "Dance", "Game",
    "War", "Peace", "Heart", "Soul", "Mind", "Eye", "Hand", "Blood", "Bone",
    "Shadow", "Mirror", "Letter", "Friend", "Stranger", "Brother", "Sister",
    "Mother", "Father", "Child", "Doctor", "Hunter", "Thief", "Spy", "Soldier",
    "Driver", "Dancer", "Singer", "Writer", "Angel", "Devil", "Saint", "Wolf",
    "Bird", "Horse", "Dog", "Cat", "Tiger", "Dragon", "Rose", "Moon", "Sun",
    "Sky", "Rain", "Snow", "Wind", "Thunder", "Echo", "Signal", "Code",
    "Escape", "Return", "Rescue", "Chase", "Run", "Fall", "Rise", "Edge",
    "Line", "Point", "Circle", "Home", "Away", "Again", "Forever",
    "Tonight", "Tomorrow", "Yesterday", "Alone", "Together", "Inside", "Outside",
    "Upon", "Sound", "Girl", "Boy", "Man", "Woman", "People", "World",
)
CONNECTORS = ("of", "the", "and", "in", "at", "for", "on")

SEEKER_LINES = (
    "I am looking for something to watch tonight.",
    "Can you suggest a film like the last one?",
    "I did not enjoy that one much, to be honest.",
    "Something light would be nice this time.",
    "My friends keep talking about old classics.",
    "I have seen a few of those already.",
)
RECOMMENDER_LINES = (
    "You might enjoy",
    "Have you tried",
    "People with your taste often like",
    "A good pick could be",
    "I would suggest",
    "Consider watching",
)


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: catalog size, strategy and run files."""

    name: str
    n_items: int
    n_train: int
    id_prefix: str
    strategy: str
    rankers: tuple[str, ...]
    why: str


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "redial-popnudge", 6_924, 8_004, "m", "pop_nudge", ("popular",),
            "ReDial scale: every layer does a comparable share of the work",
        ),
        WorkloadSpec(
            "tgredial-popnudge", 33_834, 4_004, "t", "pop_nudge", ("popular",),
            "TG-ReDial catalog: a 5x larger pool makes the PopNudge sampler dominate augment",
        ),
        WorkloadSpec(
            "redial-onceaug-multirun", 6_924, 8_004, "m", "once_aug", ("popular", "uniform", "mixed"),
            "no sampler; largest corpus write and three run files to score",
        ),
    )
}


@dataclass
class Workload:
    """Generated files plus the facts the generator knows about them."""

    spec: WorkloadSpec
    seed: int
    root: Path
    config: Path
    catalog: Path
    corpus: Path
    runs: list[Path]
    item_ids: list[str]
    train_freq: np.ndarray  # per catalog item, training interactions (once per turn)
    split_counts: dict[str, int]
    n_unknown_mentions: int
    runs_ranked: dict[str, np.ndarray] = field(default_factory=dict)  # model -> (entries, 50) item index
    runs_targets: dict[str, list[tuple[int, ...]]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def output_dir(self) -> Path:
        return self.root / "out"

    @property
    def pool(self) -> Path:
        return self.output_dir / "pool.jsonl"

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def expected_iic(self) -> float:
        return int(np.count_nonzero(self.train_freq)) / self.n_items

    def expected_popular_ratio(self) -> float:
        return int(np.count_nonzero(self.train_freq > MIN_COUNT)) / self.n_items


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def _zipf_cdf(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** ZIPF_EXPONENT
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _titles(rng: np.random.Generator, n: int) -> list[str]:
    n_words = rng.choice(4, size=n, p=(0.15, 0.45, 0.3, 0.1)) + 1
    words = rng.integers(len(WORDS), size=(n, 4)).tolist()
    connect = (rng.random(n) < 0.5).tolist()
    connector = rng.integers(len(CONNECTORS), size=n).tolist()
    titles = []
    for count, picks, join, c in zip(n_words.tolist(), words, connect, connector):
        title = [WORDS[i] for i in picks[:count]]
        if count >= 3 and join:
            title.insert(1, CONNECTORS[c])
        titles.append(" ".join(title))
    return titles


def _write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def build(spec: WorkloadSpec, seed: int, root: Path) -> Workload:
    root.mkdir(parents=True, exist_ok=True)
    n = spec.n_items
    item_ids = [f"{spec.id_prefix}{i:05d}" for i in range(n)]

    catalog_rng = _rng(seed, _STREAM_CATALOG)
    titles = _titles(catalog_rng, n)
    # Zipf rank r maps to a seeded catalog position, so popularity is not
    # aligned with catalog order
    rank_to_item = catalog_rng.permutation(n)
    catalog_path = root / "catalog.jsonl"
    _write_jsonl(catalog_path, ({"item_id": i, "name": t} for i, t in zip(item_ids, titles)))

    corpus_path = root / "corpus.jsonl"
    train_freq, split_counts, n_unknown, recommender_turns = _write_corpus(
        spec, seed, corpus_path, item_ids, rank_to_item
    )

    workload = Workload(
        spec=spec, seed=seed, root=root, config=root / "config.yaml",
        catalog=catalog_path, corpus=corpus_path, runs=[], item_ids=item_ids,
        train_freq=train_freq, split_counts=split_counts, n_unknown_mentions=n_unknown,
    )
    run_rng = _rng(seed, _STREAM_RUN)
    cdf = _zipf_cdf(n)
    for ranker in spec.rankers:
        model = f"{ranker}_ranker"
        ranked, targets = _write_run(
            run_rng, root / f"{model}.jsonl", ranker, cdf, rank_to_item, item_ids, recommender_turns
        )
        workload.runs.append(root / f"{model}.jsonl")
        workload.runs_ranked[model] = ranked
        workload.runs_targets[model] = targets

    _write_config(workload)
    for path in [catalog_path, corpus_path, *workload.runs, workload.config]:
        workload.digests[path.name] = sha256_of(path)
    return workload


def _write_corpus(spec, seed, path, item_ids, rank_to_item):
    """Write the corpus; return train frequencies, split sizes, unknown
    mention count and the recommender turns of valid/test dialogues."""
    rng = _rng(seed, _STREAM_CORPUS)
    n = len(item_ids)
    sizes = {"train": spec.n_train, "valid": N_EVAL_DIALOGUES, "test": N_EVAL_DIALOGUES}
    splits = [s for s, count in sizes.items() for _ in range(count)]
    splits = [splits[i] for i in rng.permutation(len(splits))]
    n_turns = rng.integers(*TURNS_RANGE, size=len(splits)).tolist()
    total_turns = sum(n_turns)
    n_mentions = rng.integers(0, 3, size=total_turns)
    accept = (rng.random(total_turns) < ACCEPT_RATE).tolist()
    line_pick = rng.integers(len(SEEKER_LINES), size=total_turns).tolist()
    mention_ends = np.cumsum(n_mentions).tolist()
    total = mention_ends[-1]
    # catalog index per mention draw, -1 for an id outside the catalog
    known = rank_to_item[np.minimum(np.searchsorted(_zipf_cdf(n), rng.random(total), side="right"), n - 1)]
    unknown = rng.random(total) < UNKNOWN_RATE
    drawn = np.where(unknown, -1 - rng.integers(N_UNKNOWN_IDS, size=total), known).tolist()

    train_freq = np.zeros(n, dtype=np.int64)
    split_counts = {s: 0 for s in sizes}
    n_unknown = 0
    # (dialogue_id, turn_index, episode_index, targets) for valid/test recommender turns
    recommender_turns: list[tuple[str, int, int, tuple[str, ...]]] = []

    turn_no = 0
    with path.open("w", encoding="utf-8") as fh:
        for d, (split, length) in enumerate(zip(splits, n_turns)):
            dialogue_id = f"d{d:05d}"
            split_counts[split] += 1
            turns = []
            episode = 0
            for t in range(length):
                start = mention_ends[turn_no - 1] if turn_no else 0
                picks = list(dict.fromkeys(drawn[start:mention_ends[turn_no]]))
                mentions = [item_ids[i] if i >= 0 else f"unk{-1 - i:04d}" for i in picks]
                speaker = "seeker" if t % 2 == 0 else "recommender"
                targets = mentions[:1] if speaker == "recommender" and accept[turn_no] else []
                bank = SEEKER_LINES if speaker == "seeker" else RECOMMENDER_LINES
                text = bank[line_pick[turn_no]]
                if mentions:
                    text += " " + " and ".join("@" + m for m in mentions)
                turns.append({"speaker": speaker, "text": text, "items": mentions, "targets": targets})
                for i in picks:
                    if i < 0:
                        n_unknown += 1
                    elif split == "train":
                        train_freq[i] += 1
                if speaker == "recommender" and split != "train":
                    recommender_turns.append((dialogue_id, t, episode, tuple(targets)))
                if targets:
                    episode += 1
                turn_no += 1
            fh.write(json.dumps(
                {"dialogue_id": dialogue_id, "split": split, "turns": turns}, ensure_ascii=False
            ) + "\n")
    return train_freq, split_counts, n_unknown, recommender_turns


def _write_run(rng, path, ranker, cdf, rank_to_item, item_ids, recommender_turns):
    """One ranked list of RANKED_LENGTH distinct catalog items per
    recommender turn; the accepted target is placed in the list sometimes."""
    n = len(item_ids)
    index_of = {iid: i for i, iid in enumerate(item_ids)}
    share_popular = {"popular": 1.0, "uniform": 0.0, "mixed": 0.5}[ranker]
    n_entries = len(recommender_turns)
    n_draws = 4 * RANKED_LENGTH
    zipf = rank_to_item[np.minimum(np.searchsorted(cdf, rng.random((n_entries, n_draws))), n - 1)]
    uniform = rng.integers(n, size=(n_entries, n_draws))
    draws = np.where(rng.random((n_entries, n_draws)) < share_popular, zipf, uniform)
    place = rng.random(n_entries) < TARGET_IN_LIST_RATE
    place_at = rng.integers(RANKED_LENGTH, size=n_entries)

    ranked = np.empty((n_entries, RANKED_LENGTH), dtype=np.int64)
    targets_out: list[tuple[int, ...]] = []
    with path.open("w", encoding="utf-8") as fh:
        for e, (dialogue_id, turn_index, episode, targets) in enumerate(recommender_turns):
            row = list(dict.fromkeys(draws[e].tolist()))
            if len(row) < RANKED_LENGTH:
                # top up deterministically from the stream when the head repeats
                present = set(row)
                row += [int(i) for i in rng.permutation(n) if int(i) not in present]
            target_index = index_of.get(targets[0]) if targets else None
            if target_index is not None and place[e]:
                if target_index in row:
                    row.remove(target_index)
                row.insert(int(place_at[e]), target_index)
            row = row[:RANKED_LENGTH]
            ranked[e] = row
            targets_out.append(tuple(index_of.get(t, -1) for t in targets))
            fh.write(json.dumps({
                "dialogue_id": dialogue_id,
                "turn_index": turn_index,
                "episode_index": episode,
                "ranked": [item_ids[i] for i in row],
                "targets": list(targets),
            }) + "\n")
    return ranked, targets_out


def _write_config(workload: Workload) -> None:
    spec = workload.spec
    runs = "".join(f"    - {p.name}\n" for p in workload.runs)
    workload.config.write_text(
        "paths:\n"
        f"  corpus: {workload.corpus.name}\n"
        f"  catalog: {workload.catalog.name}\n"
        "  pool: out/pool.jsonl\n"
        "  runs:\n"
        f"{runs}"
        "  output_dir: out\n"
        "popularity:\n"
        f"  eta: {{kind: count_threshold, min_count: {MIN_COUNT}}}\n"
        "episodes:\n"
        "  policy: accept_boundary\n"
        "metrics:\n"
        "  cutoffs: [10, 50]\n"
        "  n_workers: 1\n"
        "augment:\n"
        f"  strategy: {spec.strategy}\n"
        f"  k: {K}\n"
        f"  batch_size: {BATCH_SIZE}\n"
        "generation:\n"
        "  backend: offline_template\n"
        "  language: en\n"
        "  concurrency: 1\n"
        f"seed: {workload.seed}\n",
        encoding="utf-8",
    )

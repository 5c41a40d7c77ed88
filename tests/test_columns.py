"""The columnar passes against per-dialogue reference loops (tests/helpers.py)
on random corpora: integer and unknown ids, ids repeated within a turn,
mention/target overlap and turns without items."""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crs_bias import corpus as corpus_module
from crs_bias.augment import AugmentError, load_pool, longtail_report, once_aug
from crs_bias.corpus import (
    _ENCODER,
    CorpusError,
    ItemIndex,
    dialogue_lines,
    load_corpus,
    load_dialogues,
    read_snapshot,
    save_corpus,
    segment_corpus,
    write_lines,
    write_snapshot,
)
from crs_bias.popularity import train_counts

from helpers import (
    assert_same_store,
    reference_accept_boundary,
    reference_dialogue_max,
    reference_item_codes,
    reference_pool_item,
    reference_train_frequencies,
    reference_unknown,
    written_record,
)

# "7" is in the catalog and may be written as the integer 7; 12, "zz" and "x9" are not
CATALOG_IDS = ["m1", "m2", "m3", "7"]
ITEM_IDS = st.sampled_from(["m1", "m2", "m3", "7", 7, 12, "zz", "x9"])

turns = st.lists(
    st.fixed_dictionaries({
        "speaker": st.sampled_from(["seeker", "recommender"]),
        "text": st.text(max_size=4),
        "items": st.lists(ITEM_IDS, max_size=4),
        "targets": st.lists(ITEM_IDS, max_size=3),
    }),
    min_size=1,
    max_size=6,
)


@st.composite
def corpus_records(draw, prefix: str = "d", splits=("train", "valid", "test")):
    n = draw(st.integers(0, 6))
    return [
        {"dialogue_id": f"{prefix}{i}", "split": draw(st.sampled_from(splits)),
         "turns": draw(turns)}
        for i in range(n)
    ]


def _write(path: Path, records) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def _load(root: Path, records):
    catalog = _write(root / "catalog.jsonl", [{"item_id": i, "name": i} for i in CATALOG_IDS])
    return load_corpus(_write(root / "corpus.jsonl", records), catalog)


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as patch:
        yield patch


@settings(max_examples=150, deadline=None)
@given(records=corpus_records())
def test_load_summary_and_train_frequencies_match_loops(records):
    with tempfile.TemporaryDirectory() as tmp:
        corpus, summary = _load(Path(tmp), records)
    unknown = reference_unknown(CATALOG_IDS, records)
    assert summary.n_unknown_mentions == sum(unknown.values())
    assert summary.unknown_item_ids == unknown
    assert list(summary.unknown_item_ids) == list(unknown)  # first-appearance order
    assert summary.n_turns == sum(len(r["turns"]) for r in records)
    reference = reference_train_frequencies(CATALOG_IDS, records)
    assert train_counts(corpus).tolist() == [reference[i] for i in CATALOG_IDS]


@settings(max_examples=150, deadline=None)
@given(records=corpus_records())
def test_accept_boundary_episodes_match_loop(records):
    with tempfile.TemporaryDirectory() as tmp:
        corpus, _ = _load(Path(tmp), records)
    segmented = segment_corpus(corpus, "accept_boundary")
    assert segmented.columns.episodes.tolist() == [
        episode for r in records for episode in reference_accept_boundary(r)
    ]


@settings(max_examples=150, deadline=None)
@given(records=corpus_records(), data=st.data())
def test_anchor_maxima_match_loop(records, data):
    with tempfile.TemporaryDirectory() as tmp:
        corpus, _ = _load(Path(tmp), records)
    ids = corpus.columns.items.ids
    freq = {i: data.draw(st.integers(0, 9)) for i in CATALOG_IDS}
    values = np.array([freq.get(i, 0) for i in ids], dtype=np.int64)
    got = corpus.columns.dialogue_max(values)
    assert got.tolist() == [reference_dialogue_max(r, freq) for r in records]


@settings(max_examples=100, deadline=None)
@given(records=corpus_records(), pool_records=corpus_records(prefix="s", splits=("test",)))
def test_longtail_frequencies_match_loop(records, pool_records):
    pool_records = [r for r in pool_records if reference_pool_item(r) is not None]
    for record in pool_records:
        record["provenance"] = "synthetic"
    with tempfile.TemporaryDirectory() as tmp:
        corpus, _ = _load(Path(tmp), records)
        pool = load_pool(_write(Path(tmp) / "pool.jsonl", pool_records))
    report = longtail_report(corpus, once_aug(corpus, pool))
    appended = [{**r, "split": "train"} for r in pool_records]
    assert dict(zip(CATALOG_IDS, report.counts_before.tolist())) == (
        reference_train_frequencies(CATALOG_IDS, records))
    assert dict(zip(CATALOG_IDS, report.counts_after.tolist())) == (
        reference_train_frequencies(CATALOG_IDS, records + appended))


@settings(max_examples=150, deadline=None)
@given(pool_records=corpus_records(prefix="s"))
def test_pool_one_item_rule_matches_loop(pool_records):
    for record in pool_records:
        record["provenance"] = "synthetic"
    expected = {r["dialogue_id"]: reference_pool_item(r) for r in pool_records}
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "pool.jsonl", pool_records)
        if None in expected.values():
            first = next(i for i, item in expected.items() if item is None)
            with pytest.raises(AugmentError, match=f"pool dialogue '{first}' .* exactly one"):
                load_pool(path)
        else:
            assert load_pool(path).item_of == expected


@settings(max_examples=100, deadline=None)
@given(records=corpus_records(), pool_records=corpus_records(prefix="s"))
def test_streamed_save_equals_the_encoded_records(records, pool_records):
    pool_records = [r for r in pool_records if reference_pool_item(r) is not None]
    for record in pool_records:
        record["provenance"] = "synthetic"
    segmented = [dict(r, episodes=reference_accept_boundary(r)) for r in records]
    appended = [dict(r, split="train") for r in pool_records]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        corpus, _ = _load(root, records)
        pool = load_pool(_write(root / "pool.jsonl", pool_records))
        for saved, expected in (
            (corpus, records),
            (segment_corpus(corpus), segmented),
            (once_aug(corpus, pool), records + appended),
        ):
            save_corpus(saved, root / "streamed.jsonl")
            assert (root / "streamed.jsonl").read_bytes() == "".join(
                _ENCODER.encode(written_record(r)) + "\n" for r in expected
            ).encode("utf-8")


BAD_FIELDS = st.sampled_from([
    ("speaker", "narrator"), ("speaker", 5), ("text", 7), ("items", "m1"),
    ("items", [1.5]), ("targets", [True]), ("targets", [["m1"]]), ("items", None),
])
BAD_RECORDS = st.sampled_from([
    ("split", "dev"), ("split", []), ("provenance", {}), ("episodes", [1]),
    ("episodes", [0, 2, 2, 2, 2, 2]), ("episodes", "x"), ("episodes", [0] * 7),
    ("episodes", [0, 2**70, 0, 0, 0, 0]), ("turns", []), ("turns", [5]), ("dialogue_id", ""),
    ("dialogue_id", 1.5), ("dialogue_id", "d0"),
])


@settings(max_examples=150, deadline=None)
@given(records=corpus_records(), data=st.data())
def test_runs_report_what_records_one_by_one_report(records, data, monkeypatch_module):
    """Checking records in runs reports the same first error, or loads the
    same columns, as checking each record on its own."""
    for record in records:
        if data.draw(st.booleans()):
            record["episodes"] = [0] * len(record["turns"])
        if data.draw(st.integers(0, 9)) == 0:
            key, value = data.draw(BAD_RECORDS)
            record[key] = value
        for turn in record["turns"] if type(record["turns"]) is list else ():
            if type(turn) is dict and data.draw(st.integers(0, 19)) == 0:
                key, value = data.draw(BAD_FIELDS)
                turn[key] = value
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "corpus.jsonl", records)
        for run_length in (1, 3, 256):
            monkeypatch_module.setattr(corpus_module, "_RUN_LENGTH", run_length)
            try:
                columns = corpus_module.load_dialogues(path)
                outcomes.append(
                    list(dialogue_lines(columns)) + [columns.items.ids, columns.lines.tolist()]
                )
            except CorpusError as exc:
                outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1] == outcomes[2]


@settings(max_examples=150, deadline=None)
@given(records=corpus_records(), data=st.data())
def test_item_codes_match_a_per_record_loop(records, data):
    """New ids, integer ids and repeats, in mentions and targets, get the
    codes and the index order of interning each turn's mentions, then its
    targets, over runs that share one index."""
    turns = [turn for record in records for turn in record["turns"]]
    mentioned = [turn["items"] for turn in turns]
    targets = [turn["targets"] for turn in turns]
    cut = data.draw(st.integers(0, len(turns)))
    items = ItemIndex(CATALOG_IDS)
    first = items.intern_lists(mentioned[:cut], targets[:cut], ("items", "targets"))
    second = items.intern_lists(mentioned[cut:], targets[cut:], ("items", "targets"))
    codes, ids = reference_item_codes(CATALOG_IDS, mentioned, targets)
    assert (list(first[0]) + list(second[0]), list(first[1]) + list(second[1])) == codes
    assert items.ids == ids


# quotes, backslashes, control characters, line separators and non-BMP text;
# lone surrogates cannot be written as UTF-8, by either writer
WRITER_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\\x00\x1f\x7f\u2028\U0001F600'),
    max_size=6,
)
WRITER_IDS = st.sampled_from(["m1", "7", 7, 12, 'q"', "b\\s", "\u2028", "\U0001F600", "é", ""])


@st.composite
def writer_records(draw):
    records = []
    for n in range(draw(st.integers(0, 5))):
        turns = draw(st.lists(st.fixed_dictionaries({
            "speaker": st.sampled_from(["seeker", "recommender"]),
            "text": WRITER_TEXT,
            "items": st.lists(WRITER_IDS, max_size=3),
            "targets": st.lists(WRITER_IDS, max_size=2),
        }), min_size=1, max_size=4))
        record = {
            "dialogue_id": draw(WRITER_TEXT) + str(n),  # the digit keeps ids distinct
            "split": draw(st.sampled_from(["train", "valid", "test"])),
            "turns": turns,
        }
        if draw(st.booleans()):
            record["provenance"] = draw(st.sampled_from(["original", "synthetic"]))
        if draw(st.booleans()):
            steps = draw(st.lists(st.integers(0, 1), min_size=len(turns) - 1, max_size=len(turns) - 1))
            record["episodes"] = [sum(steps[:t]) for t in range(len(turns))]
        records.append(record)
    return records


@settings(max_examples=200, deadline=None)
@given(records=writer_records(), data=st.data())
def test_dialogue_lines_equal_the_json_encoder(records, data):
    columns = corpus_module.DialogueColumns.from_records(enumerate(records), ItemIndex(["m1", "7"]))
    order = data.draw(st.permutations(range(len(columns))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "_RUN_LENGTH", data.draw(st.sampled_from([1, 2, 256])))
        for store, rows in ((columns, range(len(records))), (columns.take(order), order)):
            written = "".join(line + "\n" for line in dialogue_lines(store)).encode("utf-8")
            expected = "".join(
                _ENCODER.encode(written_record(records[row])) + "\n" for row in rows
            ).encode("utf-8")
            assert written == expected



@settings(max_examples=300, deadline=None)
@given(texts=st.lists(st.text(st.characters(blacklist_categories=("Cs",))), min_size=1, max_size=6),
       data=st.data())
def test_turn_texts_decode_the_texts_stored(texts, data):
    # ASCII runs, multi-byte and astral characters, empty texts
    turns = [{"speaker": "seeker", "text": text, "items": [], "targets": []} for text in texts]
    columns = corpus_module.DialogueColumns.from_records(
        [(1, {"dialogue_id": "d", "split": "train", "turns": turns})]
    )
    assert columns.text_bytes.tobytes() == "".join(texts).encode("utf-8")
    assert np.diff(columns.text_offsets).tolist() == [len(text.encode("utf-8")) for text in texts]
    lo = data.draw(st.integers(0, len(texts)))
    hi = data.draw(st.integers(lo, len(texts)))
    assert columns.turn_texts(lo, hi) == texts[lo:hi]


def _snapshot_equals_the_json_load(root: Path, path: Path, columns, sha256: str, known) -> None:
    """``read_snapshot`` of the snapshot of ``columns`` equals
    ``load_dialogues(path)`` column for column, into a fresh index and into
    one that already holds ``known``."""
    snapshot = root / "corpus.cols"
    write_snapshot(snapshot, columns, sha256)
    for items in (None, known):
        got = read_snapshot(snapshot, path, None if items is None else ItemIndex(items))
        assert got is not None
        expected = load_dialogues(path, None if items is None else ItemIndex(items))
        assert_same_store(got, expected)


def _small_chunks(data, monkeypatch_module) -> None:
    """Small chunks cut multi-byte characters apart."""
    monkeypatch_module.setattr(corpus_module, "_SNAPSHOT_CHUNK", data.draw(st.sampled_from([1, 3, 4096])))


@settings(max_examples=100, deadline=None)
@given(records=corpus_records(), data=st.data())
def test_snapshot_reads_what_the_written_file_loads(records, data, monkeypatch_module):
    # as build_pool's store does, the written store's index holds an id no
    # dialogue touches, its rows are in another order than the lines they
    # were read from, and the file's sha256 is taken as it is written
    _small_chunks(data, monkeypatch_module)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            loaded = load_dialogues(_write(root / "records.jsonl", records), ItemIndex(["unused"]))
            store = loaded.take(data.draw(st.permutations(range(len(records)))))
            store = replace(store, lines=np.arange(1, len(store) + 1))
            path, digest = root / "pool.jsonl", hashlib.sha256()
            write_lines(path, dialogue_lines(store), digest)
            assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
            known = data.draw(st.lists(st.sampled_from(["m2", "zz", "12", "other"]), unique=True))
            _snapshot_equals_the_json_load(root, path, store, digest.hexdigest(), known)
    finally:
        monkeypatch_module.undo()


@settings(max_examples=100, deadline=None)
@given(records=writer_records(), data=st.data())
def test_snapshot_reads_what_a_corpus_file_loads(records, data, monkeypatch_module):
    # a hand-written corpus file: blank lines between records, integer and
    # unknown ids, records with and without episodes, ASCII or UTF-8 text.
    # Its store keeps the file's line numbers, which the snapshot holds
    _small_chunks(data, monkeypatch_module)
    ensure_ascii = data.draw(st.booleans())
    blank = st.lists(st.sampled_from(["", " ", "\t", " \r"]), max_size=2)
    text = "".join(
        "".join(line + "\n" for line in data.draw(blank)) + json.dumps(r, ensure_ascii=ensure_ascii) + "\n"
        for r in records
    ) + "".join(line + "\n" for line in data.draw(blank))
    try:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            path = root / "corpus.jsonl"
            path.write_text(text, encoding="utf-8")
            digest = hashlib.sha256()
            loaded = load_dialogues(path, ItemIndex(CATALOG_IDS), digest)
            assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
            known = data.draw(st.sampled_from([[], ["m1", "7"], ["zz", "12", "m1"]]))
            _snapshot_equals_the_json_load(root, path, loaded, digest.hexdigest(), known)
    finally:
        monkeypatch_module.undo()

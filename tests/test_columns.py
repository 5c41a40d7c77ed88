"""The columnar passes against per-dialogue reference loops (tests/helpers.py)
on random corpora: integer and unknown ids, ids repeated within a turn,
mention/target overlap and turns without items."""

from __future__ import annotations

import json
import tempfile
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
    dialogue_to_record,
    load_corpus,
    save_corpus,
    save_dialogues,
    segment_corpus,
)
from crs_bias.popularity import train_frequencies

from helpers import (
    reference_accept_boundary,
    reference_dialogue_max,
    reference_item_codes,
    reference_pool_item,
    reference_train_frequencies,
    reference_unknown,
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
    assert train_frequencies(corpus) == reference_train_frequencies(CATALOG_IDS, records)


@settings(max_examples=150, deadline=None)
@given(records=corpus_records())
def test_accept_boundary_episodes_match_loop(records):
    with tempfile.TemporaryDirectory() as tmp:
        corpus, _ = _load(Path(tmp), records)
    segmented = segment_corpus(corpus, "accept_boundary")
    assert [list(d.episode_index_per_turn) for d in segmented.dialogues] == [
        reference_accept_boundary(r) for r in records
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
    assert report.freq_before == reference_train_frequencies(CATALOG_IDS, records)
    assert report.freq_after == reference_train_frequencies(CATALOG_IDS, records + appended)


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
def test_streamed_save_equals_saving_the_objects(records, pool_records):
    pool_records = [r for r in pool_records if reference_pool_item(r) is not None]
    for record in pool_records:
        record["provenance"] = "synthetic"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        corpus, _ = _load(root, records)
        pool = load_pool(_write(root / "pool.jsonl", pool_records))
        for n, saved in enumerate((corpus, segment_corpus(corpus), once_aug(corpus, pool))):
            save_corpus(saved, root / f"streamed{n}.jsonl")
            save_dialogues(saved.dialogues, root / f"objects{n}.jsonl")
            streamed = (root / f"streamed{n}.jsonl").read_bytes()
            assert streamed == (root / f"objects{n}.jsonl").read_bytes()


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
                outcomes.append(list(columns.iter_dialogues()) + [columns.items.ids])
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
    builder = corpus_module._ColumnsBuilder(ItemIndex(CATALOG_IDS))
    first = builder._item_codes(mentioned[:cut], targets[:cut])
    second = builder._item_codes(mentioned[cut:], targets[cut:])
    codes, ids = reference_item_codes(CATALOG_IDS, mentioned, targets)
    assert (list(first[0]) + list(second[0]), list(first[1]) + list(second[1])) == codes
    assert builder.items.ids == ids


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
        for store in (columns, columns.take(order)):
            written = "".join(line + "\n" for line in dialogue_lines(store)).encode("utf-8")
            expected = "".join(
                _ENCODER.encode(dialogue_to_record(row)) + "\n" for row in store.iter_dialogues()
            ).encode("utf-8")
            assert written == expected


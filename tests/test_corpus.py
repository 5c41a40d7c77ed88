from __future__ import annotations

import gc
import hashlib
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crs_bias.corpus import (
    Corpus,
    CorpusError,
    Dialogue,
    ItemCatalog,
    Turn,
    dialogue_to_record,
    load_catalog,
    load_corpus,
    load_dialogues,
    mention_token,
    save_catalog,
    save_corpus,
    segment_corpus,
    segment_episodes,
    write_json_lines,
    write_lines,
)

from helpers import make_dialogue


def _dialogue(targets_on: set[int], n_turns: int) -> Dialogue:
    turns = tuple(
        Turn(
            speaker="seeker" if i % 2 == 0 else "recommender",
            text=f"turn {i}",
            target_item_ids=("m1",) if i in targets_on else (),
        )
        for i in range(n_turns)
    )
    return Dialogue("d", turns)


class TestLoading:
    def test_small_fixture_loads_clean(self, data_dir):
        corpus, summary = load_corpus(data_dir / "corpus_small.jsonl", data_dir / "catalog_small.jsonl")
        assert len(corpus.dialogues) == 3
        assert summary.n_dialogues == 3
        assert summary.n_unknown_mentions == 0
        assert summary.dialogues_per_split == {"train": 2, "test": 1}

    def test_unknown_mention_is_reported_not_dropped(self, data_dir):
        corpus, summary = load_corpus(data_dir / "corpus_unknown.jsonl", data_dir / "catalog_small.jsonl")
        assert summary.n_unknown_mentions == 1
        assert summary.unknown_item_ids == {"m999": 1}
        # the mention stays on the turn
        d1 = corpus.by_id()["d1"]
        assert "m999" in d1.turns[1].mentioned_item_ids

    def test_truncated_record_names_line_number(self, data_dir):
        with pytest.raises(CorpusError, match=r"corpus_truncated\.jsonl:2"):
            load_corpus(data_dir / "corpus_truncated.jsonl", data_dir / "catalog_small.jsonl")

    def test_duplicate_dialogue_id_rejected(self, tmp_path, data_dir):
        record = {
            "dialogue_id": "dup",
            "split": "train",
            "turns": [{"speaker": "seeker", "text": "hi", "items": [], "targets": []}],
        }
        path = tmp_path / "dup.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(CorpusError, match="duplicate dialogue_id"):
            load_corpus(path, data_dir / "catalog_small.jsonl")

    def test_empty_catalog_rejected(self, tmp_path, data_dir):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(CorpusError, match="empty"):
            load_catalog(path)

    def test_missing_turn_field_names_line(self, tmp_path, data_dir):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({
            "dialogue_id": "d", "split": "train",
            "turns": [{"speaker": "seeker", "text": "hi", "items": []}],
        }) + "\n")
        with pytest.raises(CorpusError, match=r"bad\.jsonl:1.*targets"):
            load_corpus(path, data_dir / "catalog_small.jsonl")

    def test_roundtrip_is_identical(self, data_dir, tmp_path):
        corpus, _ = load_corpus(data_dir / "corpus_small.jsonl", data_dir / "catalog_small.jsonl")
        out = tmp_path / "again.jsonl"
        save_corpus(corpus, out)
        reloaded, _ = load_corpus(out, data_dir / "catalog_small.jsonl")
        assert reloaded == corpus

    @settings(max_examples=50)
    @given(data=st.data())
    def test_roundtrip_property_on_random_corpora(self, data, tmp_path_factory):
        item_ids = ["m1", "m2", "m3"]
        texts = st.text(
            st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            max_size=30,
        )
        n_dialogues = data.draw(st.integers(1, 4))
        dialogues = []
        for n in range(n_dialogues):
            turns = tuple(
                Turn(
                    speaker=data.draw(st.sampled_from(["seeker", "recommender"])),
                    text=data.draw(texts),
                    mentioned_item_ids=tuple(
                        data.draw(st.lists(st.sampled_from(item_ids), max_size=2))
                    ),
                    target_item_ids=tuple(
                        data.draw(st.lists(st.sampled_from(item_ids), max_size=1))
                    ),
                )
                for _ in range(data.draw(st.integers(1, 4)))
            )
            dialogue = Dialogue(
                f"d{n}", turns, split=data.draw(st.sampled_from(["train", "valid", "test"]))
            )
            if data.draw(st.booleans()):
                dialogue = segment_episodes(dialogue, "accept_boundary")
            dialogues.append(dialogue)
        corpus = Corpus(ItemCatalog({i: i.upper() for i in item_ids}), tuple(dialogues))

        tmp = tmp_path_factory.mktemp("roundtrip")
        save_corpus(corpus, tmp / "c.jsonl")
        save_catalog(corpus.catalog, tmp / "cat.jsonl")
        reloaded, _ = load_corpus(tmp / "c.jsonl", tmp / "cat.jsonl")
        assert reloaded == corpus


GOOD_TURN = '{"speaker": "seeker", "text": "hi", "items": [], "targets": []}'


def _line(turns: str = f"[{GOOD_TURN}]", extra: str = "") -> str:
    return f'{{"dialogue_id": "dx", "split": "train", "turns": {turns}{extra}}}'


class TestInputBoundary:
    """Each malformed corpus line raises CorpusError naming its path:line."""

    @pytest.mark.parametrize(
        "line, message",
        [
            (_line("[5]"), "turn is not an object"),
            (_line('["x"]'), "turn is not an object"),
            (_line(extra=', "episodes": ["x"]'), "'episodes' must be an array of integers"),
            (_line(extra=', "episodes": 5'), "'episodes' must be an array of integers"),
            (_line(extra=', "episodes": [true]'), "'episodes' must be an array of integers"),
            (_line(extra=', "episodes": [0.0]'), "'episodes' must be an array of integers"),
            (_line(GOOD_TURN.replace('"seeker"', "5").join("[]")), "unknown speaker 5"),
            (_line(GOOD_TURN.replace('"seeker"', '["seeker"]').join("[]")), "unknown speaker"),
            (_line(GOOD_TURN.replace('"items": []', '"items": "ab"').join("[]")),
             "'items' must be an array of item ids"),
            (_line(GOOD_TURN.replace('"targets": []', '"targets": [1.5]').join("[]")),
             "'targets' item must be a string or an integer"),
            (_line(GOOD_TURN.replace('"items": []', '"items": [true]').join("[]")),
             "'items' item must be a string or an integer"),
            (_line(GOOD_TURN.replace('"hi"', "7").join("[]")), "'text' must be a string"),
            (_line(GOOD_TURN.replace('"hi"', "null").join("[]")), "'text' must be a string"),
            ('{"dialogue_id": ["d"], "split": "train", "turns": [' + GOOD_TURN + "]}",
             "'dialogue_id' must be a string or an integer"),
            (_line().replace('"train"', "[]"), "unknown split"),
            (_line(extra=', "provenance": {}'), "unknown provenance"),
            (_line("[]"), "'turns' must be a non-empty array"),
            (_line('{"a": 1}'), "'turns' must be a non-empty array"),
            ('{"dialogue_id": "d1", "split": "train", "turns": [' + GOOD_TURN + "]}",
             "duplicate dialogue_id 'd1'"),
            ("[1, 2]", "record is not an object"),
        ],
    )
    def test_bad_line_names_path_and_line(self, tmp_path, data_dir, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text((data_dir / "corpus_small.jsonl").read_text() + line + "\n")
        with pytest.raises(CorpusError, match=r"bad\.jsonl:4: .*" + re.escape(message)):
            load_corpus(path, data_dir / "catalog_small.jsonl")

    def test_bad_utf8_byte_names_path_and_line(self, tmp_path, data_dir):
        path = tmp_path / "bad.jsonl"
        bad_line = _line().replace("dx", "d\xff").encode("latin-1")
        path.write_bytes((data_dir / "corpus_small.jsonl").read_bytes() + bad_line + b"\n")
        with pytest.raises(CorpusError, match=r"bad\.jsonl:4: malformed record"):
            load_corpus(path, data_dir / "catalog_small.jsonl")

    def test_integer_ids_read_as_strings(self, tmp_path, data_dir):
        path = tmp_path / "ints.jsonl"
        path.write_text(
            '{"dialogue_id": 12, "split": "train", "turns": [{"speaker": "recommender", '
            '"text": "@7", "items": ["m1", 7], "targets": [7]}], "episodes": [0]}\n'
        )
        corpus, summary = load_corpus(path, data_dir / "catalog_small.jsonl")
        (dialogue,) = corpus.dialogues
        assert dialogue.dialogue_id == "12"
        assert dialogue.turns[0] == Turn("recommender", "@7", ("m1", "7"), ("7",))
        assert summary.unknown_item_ids == {"7": 1}

    @pytest.mark.parametrize(
        "lines, message",
        [
            (['{"item_id": "7", "name": "A"}', '{"item_id": 7, "name": "B"}'], ":2: duplicate item_id '7'"),
            (['{"item_id": ["7"], "name": "A"}'], ":1: 'item_id' must be a string or an integer"),
            (['{"item_id": true, "name": "A"}'], ":1: 'item_id' must be a string or an integer"),
            (['{"item_id": "7", "name": 7}'], ":1: 'name' must be a string"),
            (['{"item_id": "", "name": "A"}'], ":1: empty item_id"),
            (['{"item_id": "7"}'], ":1: catalog record missing 'name'"),
        ],
    )
    def test_bad_catalog_line_names_path_and_line(self, tmp_path, lines, message):
        path = tmp_path / "cat.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusError, match=re.escape(f"cat.jsonl{message}")):
            load_catalog(path)

    def test_integer_catalog_ids_read_as_strings(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text('{"item_id": 7, "name": "A"}\n{"item_id": "8", "name": "B"}\n')
        assert load_catalog(path).items == {"7": "A", "8": "B"}


class TestLoaderState:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_load_dialogues_restores_gc_state(self, tmp_path, data_dir, enabled):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(_line("[5]") + "\n")
        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            assert len(load_dialogues(data_dir / "corpus_small.jsonl")) == 3
            assert gc.isenabled() is enabled
            with pytest.raises(CorpusError):
                load_dialogues(bad)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_save_of_loaded_small_fixture_is_pinned(self, tmp_path, data_dir):
        # as written after loading with the text-mode reader the per-line reader replaced
        corpus, _ = load_corpus(data_dir / "corpus_small.jsonl", data_dir / "catalog_small.jsonl")
        save_corpus(corpus, tmp_path / "saved.jsonl")
        digest = hashlib.sha256((tmp_path / "saved.jsonl").read_bytes()).hexdigest()
        assert digest == "b4aa9ed25c2a095eba64009a3fa26fc00fa9198e59a1706f727389ed34f6229d"


class TestTurn:
    def test_positional_and_keyword_construction_agree(self):
        positional = Turn("recommender", "@a @b", ("a", "b"), ("b",))
        keyword = Turn(
            speaker="recommender", text="@a @b", mentioned_item_ids=("a", "b"), target_item_ids=("b",)
        )
        assert positional == keyword
        assert positional.speaker == "recommender" and positional.target_item_ids == ("b",)
        assert Turn("seeker", "hi").mentioned_item_ids == ()

    def test_item_ids_unique_in_first_appearance_order(self):
        assert Turn("recommender", "", ("b", "a", "b"), ("c", "a")).item_ids() == ("b", "a", "c")
        assert Dialogue(
            "d", (Turn("seeker", "", ("b",)), Turn("recommender", "", ("a", "b"), ("c",)))
        ).item_ids() == ("b", "a", "c")

    def test_turn_is_immutable(self):
        turn = Turn("seeker", "hi")
        with pytest.raises(AttributeError):
            turn.text = "bye"


class TestInvariants:
    def test_dialogue_requires_turns(self):
        with pytest.raises(CorpusError, match="no turns"):
            Dialogue("d", ())

    def test_unknown_speaker_rejected(self):
        with pytest.raises(CorpusError, match="speaker"):
            Turn(speaker="narrator", text="...")

    def test_episode_indices_must_start_at_zero(self):
        with pytest.raises(CorpusError, match="start at 0"):
            _d = Dialogue("d", (Turn("seeker", "a"),), episode_index_per_turn=(1,))

    @pytest.mark.parametrize("indices", [(0, 2), (0, -1)])
    def test_episode_indices_must_step_by_at_most_one(self, indices):
        turns = (Turn("seeker", "a"), Turn("recommender", "b"))
        with pytest.raises(CorpusError, match="non-decreasing"):
            Dialogue("d", turns, episode_index_per_turn=indices)

    def test_corpus_rejects_duplicate_ids(self):
        catalog = ItemCatalog({"m1": "One"})
        d = Dialogue("same", (Turn("seeker", "hi"),))
        with pytest.raises(CorpusError, match="duplicate"):
            Corpus(catalog, (d, d))

    def test_mention_token(self):
        assert mention_token("m42") == "@m42"


class TestSegmentation:
    def test_single_boundary(self):
        d = segment_episodes(_dialogue({1}, 4), "accept_boundary")
        assert d.episode_index_per_turn == (0, 0, 1, 1)

    def test_no_targets_single_episode(self):
        d = segment_episodes(_dialogue(set(), 4), "accept_boundary")
        assert d.episode_index_per_turn == (0, 0, 0, 0)

    def test_two_boundaries_in_five_turns(self):
        d = segment_episodes(_dialogue({1, 3}, 5), "accept_boundary")
        assert d.episode_index_per_turn == (0, 0, 1, 1, 2)

    def test_explicit_preserves_input(self):
        # indices that accept_boundary would NOT produce must survive untouched
        original = Dialogue(
            "d",
            (Turn("seeker", "a"), Turn("recommender", "b")),
            episode_index_per_turn=(0, 1),
        )
        assert segment_episodes(original, "explicit") == original

    def test_explicit_requires_indices(self):
        with pytest.raises(CorpusError, match="explicit"):
            segment_episodes(_dialogue(set(), 3), "explicit")

    def test_explicit_is_idempotent_after_accept_boundary(self):
        first = segment_episodes(_dialogue({0, 2}, 5), "accept_boundary")
        assert segment_episodes(first, "explicit") == first
        assert segment_episodes(first, "accept_boundary") == first

    def test_unknown_policy(self):
        with pytest.raises(CorpusError, match="policy"):
            segment_episodes(_dialogue(set(), 2), "majority_vote")

    @settings(max_examples=200)
    @given(
        n_turns=st.integers(min_value=1, max_value=12),
        targets=st.sets(st.integers(min_value=0, max_value=11)),
    )
    def test_episode_count_matches_boundaries_before_last_turn(self, n_turns, targets):
        targets = {t for t in targets if t < n_turns}
        d = segment_episodes(_dialogue(targets, n_turns), "accept_boundary")
        expected = 1 + sum(1 for t in targets if t < n_turns - 1)
        assert d.n_episodes() == expected

    def test_segment_corpus_applies_to_all(self, data_dir):
        corpus, _ = load_corpus(data_dir / "corpus_small.jsonl", data_dir / "catalog_small.jsonl")
        segmented = segment_corpus(corpus, "accept_boundary")
        assert all(d.episode_index_per_turn is not None for d in segmented.dialogues)
        # the fixture's explicit indices already follow the boundary rule
        assert segmented == corpus


class TestRecords:
    def test_record_contains_expected_fields(self):
        d = make_dialogue("d9", ["m1", "m2"])
        record = dialogue_to_record(d)
        assert record["dialogue_id"] == "d9"
        assert record["split"] == "train"
        assert record["provenance"] == "original"
        assert record["turns"][1]["items"] == ["m1", "m2"]
        assert record["turns"][1]["targets"] == ["m1"]
        assert record["episodes"] == [0, 0]


class TestWriters:
    def test_lines_end_in_newlines_and_records_keep_non_ascii(self, tmp_path):
        write_lines(tmp_path / "a.txt", ["x", "y\nz"])
        assert (tmp_path / "a.txt").read_bytes() == b"x\ny\nz\n"
        write_json_lines(tmp_path / "b.jsonl", [{"b": "é", "a": 1}, []])
        assert (tmp_path / "b.jsonl").read_bytes() == '{"b": "é", "a": 1}\n[]\n'.encode()
        write_json_lines(tmp_path / "c.jsonl", [{"b": "é", "a": 1}], json.JSONEncoder(sort_keys=True))
        assert (tmp_path / "c.jsonl").read_bytes() == b'{"a": 1, "b": "\\u00e9"}\n'

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_error_midway_keeps_previous_file(self, tmp_path, error):
        path = tmp_path / "out.jsonl"
        write_json_lines(path, [{"n": 0}, {"n": 1}])
        before = path.read_bytes()

        def records():
            yield {"n": 2}
            raise error("stop")

        with pytest.raises(error):
            write_json_lines(path, records())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]

    def test_temp_file_error_names_the_destination(self, tmp_path):
        path = tmp_path / "missing" / "out.txt"
        with pytest.raises(FileNotFoundError) as error:
            write_lines(path, ["x"])
        assert error.value.filename == str(path)
        assert ".tmp" not in str(error.value)

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(TypeError):
            write_json_lines(tmp_path / "out.jsonl", [{"n": object()}])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_output_mode_follows_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_lines(tmp_path / "out.txt", ["x"])
        finally:
            os.umask(old)
        assert (tmp_path / "out.txt").stat().st_mode & 0o777 == 0o666 & ~umask

    def test_symlink_is_replaced_not_written_through(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        write_lines(link, ["new"])
        assert not link.is_symlink()
        assert link.read_text() == "new\n"
        assert target.read_text() == "old\n"

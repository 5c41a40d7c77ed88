from __future__ import annotations

import hashlib
import json
import re
import time

import numpy as np
import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crs_bias import synthgen
from crs_bias.augment import load_pool
from crs_bias.corpus import segment_episodes
from crs_bias.synthgen import (
    BackendAuthError,
    BackendError,
    BackendTimeoutError,
    DialogueRejected,
    EmptyCompletionError,
    GenerationRecord,
    HttpChatBackend,
    OfflineTemplateBackend,
    PromptTemplate,
    SkippedItem,
    build_pool,
    builtin_template,
    derived_seeds,
    load_template,
    parse_generated,
    render_prompt,
)

from helpers import FakeResponse

TEMPLATE = PromptTemplate(
    template_id="t-test",
    language="en",
    body="Recommend {item_name} in a short conversation.",
    system_preamble="You write dialogues.",
)

ITEMS = [(f"m{i}", name) for i, name in enumerate(
    ["Inception", "Alien", "Heat", "Up", "Her", "Jaws"]
)]

# three items per title, the first named by the bare title: one-word titles
# that also occur in the offline generator's sentences, non-ASCII, JSON escapes
PIN_TITLES = (
    "Up", "It", "Sure", "Perfect", "Enjoy", "Heat", "Amélie", "千与千寻",
    'Say "Hi"', "Back\\Slash", "Blade Runner", "Léon: The Professional",
)
PIN_ITEMS = [
    (f"p{i}", PIN_TITLES[i // 3 % len(PIN_TITLES)] + ("" if i % 3 == 0 else f" {i}"))
    for i in range(360)
]

SEEDS = st.integers(0, 2**64 - 1)
# catalog names that stay on one line and are not blank
NAMES = st.text(
    st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029",
    ),
    min_size=1,
    max_size=12,
).filter(str.strip)


class TestTemplates:
    def test_render_substitutes_placeholder(self):
        assert render_prompt(TEMPLATE, "Inception") == (
            "Recommend Inception in a short conversation."
        )

    def test_special_characters_survive(self):
        name = 'Movies & "Quotes": 100% {weird}'
        assert name in render_prompt(TEMPLATE, name)

    def test_two_placeholders_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            PromptTemplate("t", "en", "{item_name} and {item_name}")

    def test_missing_placeholder_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            PromptTemplate("t", "en", "no slot here")

    def test_empty_item_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            render_prompt(TEMPLATE, "")

    def test_builtin_templates_load(self):
        for language in ("en", "zh"):
            template = builtin_template(language)
            assert template.language == language
            assert template.body.count("{item_name}") == 1
            assert template.system_preamble

    def test_template_file_roundtrip(self, tmp_path):
        path = tmp_path / "custom.txt"
        path.write_text("my_template en\npreamble line\n---\nbody with {item_name}\n")
        template = load_template(path)
        assert template.template_id == "my_template"
        assert template.system_preamble == "preamble line"
        assert template.body == "body with {item_name}"

    def test_template_file_without_preamble(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("plain zh\n只推荐 {item_name}。\n")
        template = load_template(path)
        assert template.system_preamble == ""
        assert template.language == "zh"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("badheader\n{item_name}\n")
        with pytest.raises(ValueError, match="header"):
            load_template(path)


class TestOfflineBackend:
    def test_deterministic(self):
        backend = OfflineTemplateBackend()
        a = backend.generate(TEMPLATE, "m1", "Inception", seed=99)
        b = backend.generate(TEMPLATE, "m1", "Inception", seed=99)
        assert a == b

    def test_seed_changes_output(self):
        backend = OfflineTemplateBackend()
        outputs = {backend.generate(TEMPLATE, "m1", "Inception", seed=s) for s in range(10)}
        assert len(outputs) > 1

    def test_always_mentions_item_name(self):
        backend = OfflineTemplateBackend()
        for seed in range(25):
            raw = backend.generate(TEMPLATE, "m1", "Blade Runner", seed=seed)
            assert "Blade Runner" in raw
            assert raw.splitlines()[0].startswith("User:")

    def test_generate_dialogue_dispatch(self):
        raw = OfflineTemplateBackend().generate(TEMPLATE, "m1", "Up", seed=1)
        assert "Up" in raw

    @settings(max_examples=100, deadline=None)
    @given(name=NAMES, seed=SEEDS)
    def test_generate_equals_one_row_batch(self, name, seed):
        backend = OfflineTemplateBackend()
        assert backend.generate(TEMPLATE, "m1", name, seed) == (
            backend.generate_batch(TEMPLATE, [("m1", name)], [seed])[0]
        )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seeds=st.lists(SEEDS, min_size=1, max_size=12))
    def test_batch_rows_do_not_depend_on_the_rest_of_the_batch(self, data, seeds):
        items = [(f"m{i}", ITEMS[i % len(ITEMS)][1]) for i in range(len(seeds))]
        backend = OfflineTemplateBackend()
        full = backend.generate_batch(TEMPLATE, items, np.array(seeds, dtype=np.uint64))
        rows = data.draw(st.lists(st.sampled_from(range(len(seeds))), max_size=12))
        subset = backend.generate_batch(
            TEMPLATE, [items[r] for r in rows], np.array([seeds[r] for r in rows], dtype=np.uint64)
        )
        assert subset == [full[r] for r in rows]

    @settings(max_examples=300, deadline=None)
    @given(name=NAMES, seed=SEEDS)
    def test_every_offline_text_is_accepted(self, name, seed):
        raw = OfflineTemplateBackend().generate(TEMPLATE, "m1", name, seed)
        assert any(line.startswith("System: ") and name in line for line in raw.splitlines())
        dialogue = parse_generated(raw, "m1", name)
        assert [t for turn in dialogue.turns for t in turn.target_item_ids] == ["m1"]

    def test_every_bank_line_is_drawn(self):
        texts = OfflineTemplateBackend().generate_batch(
            TEMPLATE, [("m1", "Heat")] * 2000, derived_seeds(3, np.arange(2000), 1)[:, 0]
        )
        lines = {line for text in texts for line in text.splitlines()}
        for bank, speaker in (
            (synthgen._OPENERS, "User"), (synthgen._SUGGESTIONS, "System"),
            (synthgen._FOLLOWUPS, "User"), (synthgen._DETAILS, "System"),
            (synthgen._ACCEPTS, "User"), (synthgen._CLOSERS, "System"),
        ):
            for entry in bank:
                assert f"{speaker}: " + entry.format(name="Heat") in lines
        # the follow-up question is asked with probability 0.6
        asked = sum(len(text.splitlines()) == 6 for text in texts)
        assert 0.55 < asked / len(texts) < 0.65

    def test_batch_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 items for 1 seeds"):
            OfflineTemplateBackend().generate_batch(TEMPLATE, ITEMS[:2], [1])


class TestParsing:
    def test_two_line_example(self):
        raw = "User: something to watch?\nSystem: you would love Inception."
        dialogue = parse_generated(raw, "m7", "Inception")
        assert len(dialogue.turns) == 2
        assert dialogue.turns[0].speaker == "seeker"
        assert dialogue.turns[1].speaker == "recommender"
        assert dialogue.turns[1].mentioned_item_ids == ("m7",)
        assert dialogue.turns[1].target_item_ids == ("m7",)
        assert "@m7" in dialogue.turns[1].text
        assert dialogue.provenance == "synthetic"

    def test_alternating_six_lines(self):
        raw = "\n".join(
            [
                "User: hi",
                "System: hello, maybe Heat?",
                "User: what else",
                "System: Heat really",
                "User: ok",
                "System: enjoy Heat",
            ]
        )
        dialogue = parse_generated(raw, "m2", "Heat")
        assert [t.speaker for t in dialogue.turns] == [
            "seeker", "recommender", "seeker", "recommender", "seeker", "recommender",
        ]

    def test_target_on_final_recommender_mention(self):
        raw = "\n".join(
            [
                "System: I suggest Alien.",
                "User: tell me more about Alien",
                "System: it is intense.",
                "User: fine",
            ]
        )
        dialogue = parse_generated(raw, "m9", "Alien")
        assert dialogue.turns[0].target_item_ids == ("m9",)
        assert dialogue.turns[1].target_item_ids == ()

    def test_seeker_recommender_prefixes(self):
        raw = "Seeker: anything good?\nRecommender: watch Her tonight."
        dialogue = parse_generated(raw, "m5", "Her")
        assert dialogue.turns[0].speaker == "seeker"
        assert dialogue.turns[1].speaker == "recommender"

    def test_continuation_lines_join_previous_turn(self):
        raw = "User: hi\nSystem: watch Jaws,\nit is a classic."
        dialogue = parse_generated(raw, "m3", "Jaws")
        assert len(dialogue.turns) == 2
        assert "classic" in dialogue.turns[1].text

    def test_leading_chatter_dropped(self):
        raw = "Sure! Here is a conversation:\nUser: hi\nSystem: try Up."
        dialogue = parse_generated(raw, "m4", "Up")
        assert len(dialogue.turns) == 2

    def test_item_name_missing_rejected(self):
        with pytest.raises(DialogueRejected) as err:
            parse_generated("User: hi\nSystem: watch something", "m1", "Inception")
        assert err.value.reason == "item_name_not_found"

    def test_no_speaker_prefixes_rejected(self):
        with pytest.raises(DialogueRejected) as err:
            parse_generated("a story about Inception with no speakers", "m1", "Inception")
        assert err.value.reason == "no_speaker_prefixes"

    def test_item_only_mentioned_by_seeker_rejected(self):
        raw = "User: I loved Alien\nSystem: noted."
        with pytest.raises(DialogueRejected) as err:
            parse_generated(raw, "m9", "Alien")
        assert err.value.reason == "item_not_recommended"

    def test_empty_text_rejected(self):
        with pytest.raises(DialogueRejected):
            parse_generated("   \n  ", "m1", "Inception")

    @pytest.mark.parametrize("word", ["Upon", "Up_", "Up2", "CheckUp", "_Up", "2Up", "Upé"])
    def test_en_name_inside_a_word_not_tagged(self, word):
        with pytest.raises(DialogueRejected) as err:
            parse_generated(f"User: hi\nSystem: watch {word} tonight", "m4", "Up")
        assert err.value.reason == "item_name_not_found"

    @pytest.mark.parametrize("line, tagged", [
        ("System: watch Up.", "watch @m4."),
        ("System: watch (Up) tonight", "watch (@m4) tonight"),
        ("System: Up is great", "@m4 is great"),
        ("System: you will like Up", "you will like @m4"),
        ("System: Up, Up! not Upon or Up2; Up", "@m4, @m4! not Upon or Up2; @m4"),
    ])
    def test_en_name_tagged_at_word_boundaries(self, line, tagged):
        dialogue = parse_generated("User: hi\n" + line, "m4", "Up")
        assert dialogue.turns[1].text == tagged
        assert dialogue.turns[1].target_item_ids == ("m4",)

    @pytest.mark.parametrize("name", ["(500) Days", "Up!", "...And Justice", "Léon: The Pro"])
    def test_en_name_with_edge_punctuation_tagged(self, name):
        dialogue = parse_generated(f"User: hi\nSystem: try {name} now", "m4", name)
        assert dialogue.turns[1].text == "try @m4 now"

    def test_zh_name_tagged_inside_running_text(self):
        raw = "User: 有什么推荐吗\nSystem: 我推荐千与千寻给你"
        dialogue = parse_generated(raw, "m8", "千与千寻", language="zh")
        assert dialogue.turns[1].text == "我推荐@m8给你"
        # the en rule sees Chinese characters as word characters
        with pytest.raises(DialogueRejected):
            parse_generated(raw, "m8", "千与千寻", language="en")

    def test_empty_name_rejected(self):
        with pytest.raises(DialogueRejected) as err:
            parse_generated("User: hi\nSystem: watch this", "m1", "")
        assert err.value.reason == "item_name_not_found"

    @pytest.mark.parametrize("name", [" ", "\t\n", "\u3000"])
    def test_blank_name_rejected(self, name):
        with pytest.raises(DialogueRejected) as err:
            parse_generated(f"User: hi\nSystem: You could try {name};", "m1", name)
        assert err.value.reason == "item_name_not_found"

    def test_unknown_language_rejected(self):
        with pytest.raises(ValueError, match="language"):
            parse_generated("User: hi\nSystem: Up", "m4", "Up", language="fr")

    @settings(max_examples=500, deadline=None)
    @given(
        text=st.text("Up_2 .(é\u0301\u00b2-", max_size=16),
        name=st.text("Up_2 .(é\u0301\u00b2-", min_size=1, max_size=4),
    )
    def test_word_tagging_equals_the_regex_rule(self, text, name):
        pattern = re.compile(r"(?<!\w)" + re.escape(name) + r"(?!\w)")
        expected, count = pattern.subn(lambda match: "@m4", text)
        assert synthgen._tag_words(text, name, "@m4") == (expected if count else None)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["User: ", "System: ", "Seeker: ", "Recommender: ", ""]),
            st.sampled_from(["hi", "watch Up", "Up again?", "no thanks", "", "Upside"]),
        ),
        min_size=1,
        max_size=8,
    ))
    def test_episodes_equal_accept_boundary_segmentation(self, lines):
        raw = "\n".join(prefix + text for prefix, text in lines)
        try:
            dialogue = parse_generated(raw, "m4", "Up")
        except DialogueRejected:
            return
        assert dialogue.episode_index_per_turn == (
            segment_episodes(dialogue, "accept_boundary").episode_index_per_turn
        )


def _answer(item_name: str) -> str:
    return f"User: hi\nSystem: watch {item_name}"


class ScriptedBackend:
    """Rejects the rows ``reject(item_id, attempt)`` names, with a text that
    has no speaker prefixes, and records every batch it is sent."""

    def __init__(self, reject=lambda item_id, attempt: False):
        self.reject = reject
        self.calls: list[tuple[list[tuple[str, str]], list[int]]] = []

    def generate_batch(self, template, items, seeds):
        attempt = len(self.calls)
        self.calls.append((list(items), [int(s) for s in seeds]))
        return [
            "no speakers at all" if self.reject(item_id, attempt) else _answer(item_name)
            for item_id, item_name in items
        ]


class TestBuildPool:
    def test_offline_pool_of_six(self, tmp_path):
        pool, record = build_pool(
            OfflineTemplateBackend(), TEMPLATE, ITEMS, seed=5, output_path=tmp_path / "pool.jsonl"
        )
        assert len(pool) == 6
        assert record == GenerationRecord(skipped=(), attempts=6, rejected={})
        assert sorted(pool.item_of.values()) == sorted(i for i, _ in ITEMS)

    def test_pool_roundtrips_through_corpus_schema(self, tmp_path):
        path = tmp_path / "pool.jsonl"
        pool, _ = build_pool(OfflineTemplateBackend(), TEMPLATE, ITEMS, seed=5, output_path=path)
        reloaded = load_pool(path)
        assert reloaded.dialogues == pool.dialogues
        assert reloaded.item_of == pool.item_of

    def test_pure_function_of_inputs(self):
        first, _ = build_pool(OfflineTemplateBackend(), TEMPLATE, ITEMS, seed=5)
        second, _ = build_pool(OfflineTemplateBackend(), TEMPLATE, ITEMS, seed=5)
        assert first.dialogues == second.dialogues

    def _http_pool(self, monkeypatch, concurrency):
        monkeypatch.setenv("CRSBIAS_LLM_TOKEN", "t")
        names = [name for _, name in ITEMS]

        def fake_post(url, json=None, headers=None, timeout=None):
            name = json["messages"][1]["content"].removeprefix("Recommend ").removesuffix(
                " in a short conversation."
            )
            # later items answer sooner, so threads finish out of item order
            time.sleep(0.002 * (len(names) - names.index(name)))
            return FakeResponse(content=_answer(name))

        monkeypatch.setattr(requests, "post", fake_post)
        backend = HttpChatBackend("https://llm.example/v1", "chat-1", concurrency=concurrency)
        return build_pool(backend, TEMPLATE, ITEMS, seed=5)

    def test_concurrency_does_not_change_output(self, monkeypatch):
        serial, serial_record = self._http_pool(monkeypatch, concurrency=1)
        parallel, parallel_record = self._http_pool(monkeypatch, concurrency=4)
        assert serial.dialogues == parallel.dialogues
        assert [d.item_ids() for d in serial.dialogues] == [(i,) for i, _ in ITEMS]
        assert serial_record == parallel_record

    def test_serial_build_constructs_no_executor(self, monkeypatch):
        constructed = []
        real = synthgen.ThreadPoolExecutor

        def recording(max_workers):
            constructed.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(synthgen, "ThreadPoolExecutor", recording)
        serial, _ = self._http_pool(monkeypatch, concurrency=1)
        assert constructed == []
        parallel, _ = self._http_pool(monkeypatch, concurrency=4)
        assert constructed == [4]
        assert serial.dialogues == parallel.dialogues

    def test_offline_backend_constructs_no_executor(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the offline backend must not build a thread pool")

        monkeypatch.setattr(synthgen, "ThreadPoolExecutor", forbidden)
        pool, _ = build_pool(OfflineTemplateBackend(), TEMPLATE, ITEMS, seed=5)
        assert len(pool) == len(ITEMS)

    def test_rejected_item_skipped_and_logged(self):
        backend = ScriptedBackend(reject=lambda item_id, attempt: item_id == "m2")
        pool, record = build_pool(backend, TEMPLATE, ITEMS, seed=5)
        assert len(pool) == 5
        assert record == GenerationRecord(
            skipped=(SkippedItem(item_id="m2", reason="no_speaker_prefixes"),),
            attempts=8,
            rejected={"no_speaker_prefixes": 3},
        )

    def test_record_counts_attempts_and_rejections_per_reason(self):
        class TwoRejectedOnce:
            def generate_batch(self, template, items, seeds):
                first_round = len(items) == len(ITEMS)
                return [
                    "no speakers" if first_round and item_id == "m1"
                    else "User: hi\nSystem: nothing named" if first_round and item_id == "m4"
                    else _answer(item_name)
                    for item_id, item_name in items
                ]

        pool, record = build_pool(TwoRejectedOnce(), TEMPLATE, ITEMS, seed=5)
        assert len(pool) == 6
        assert record == GenerationRecord(
            skipped=(),
            attempts=8,
            rejected={"item_name_not_found": 1, "no_speaker_prefixes": 1},
        )

    @settings(max_examples=100, deadline=None)
    @given(rejects=st.lists(
        st.lists(st.booleans(), min_size=3, max_size=3), min_size=1, max_size=len(ITEMS)
    ))
    def test_round_sends_only_rejected_items_with_their_attempt_seeds(self, rejects):
        items = ITEMS[:len(rejects)]
        index_of = {item_id: index for index, (item_id, _) in enumerate(items)}
        backend = ScriptedBackend(reject=lambda item_id, a: rejects[index_of[item_id]][a])
        seeds = derived_seeds(5, np.arange(len(items)), 3)
        expected_calls = []
        pending = list(range(len(items)))
        for attempt in range(3):
            if pending:
                expected_calls.append(
                    ([items[i] for i in pending], [int(seeds[i, attempt]) for i in pending])
                )
            pending = [i for i in pending if rejects[i][attempt]]
        if len(pending) == len(items):
            with pytest.raises(BackendError, match="no synthetic dialogues"):
                build_pool(backend, TEMPLATE, items, seed=5)
        else:
            pool, record = build_pool(backend, TEMPLATE, items, seed=5)
            assert [d.item_ids() for d in pool.dialogues] == [
                (item_id,) for index, (item_id, _) in enumerate(items) if index not in pending
            ]
            assert record.skipped == tuple(
                SkippedItem(items[i][0], "no_speaker_prefixes") for i in pending
            )
            assert record.attempts == sum(len(call[0]) for call in expected_calls)
        assert backend.calls == expected_calls

    def test_zero_accepted_is_error(self):
        backend = ScriptedBackend(reject=lambda item_id, attempt: True)
        with pytest.raises(BackendError, match="no synthetic dialogues"):
            build_pool(backend, TEMPLATE, ITEMS, seed=5)

    def test_retry_uses_fresh_seed(self):
        calls: dict[str, list[int]] = {}

        class FlakyFirstAttempt:
            inner = OfflineTemplateBackend()

            def generate_batch(self, template, items, seeds):
                texts = self.inner.generate_batch(template, items, seeds)
                for (item_id, _), seed in zip(items, seeds):
                    calls.setdefault(item_id, []).append(int(seed))
                return [
                    "unparseable" if len(calls[item_id]) == 1 else text
                    for (item_id, _), text in zip(items, texts)
                ]

        pool, record = build_pool(FlakyFirstAttempt(), TEMPLATE, ITEMS[:2], seed=5)
        assert len(pool) == 2 and not record.skipped
        for seeds in calls.values():
            assert len(seeds) == 2 and seeds[0] != seeds[1]

    def test_pool_tags_by_template_language(self):
        class Chinese:
            def generate_batch(self, template, items, seeds):
                return [f"User: 有什么推荐\nSystem: 我推荐{name}给你" for _, name in items]

        items = [("z1", "千与千寻")]
        zh = PromptTemplate("t-zh", "zh", "推荐 {item_name}。")
        pool, _ = build_pool(Chinese(), zh, items, seed=5)
        assert pool.dialogues[0].turns[1].text == "我推荐@z1给你"
        with pytest.raises(BackendError, match="no synthetic dialogues"):
            build_pool(Chinese(), TEMPLATE, items, seed=5)

    def test_pool_file_is_pinned(self, tmp_path):
        # pool format 3: attempt seeds from the splitmix64 key chain, every
        # row drawn by splitmix64 from its attempt seed, en names tagged at
        # word boundaries; the pool must stay byte-identical until the format
        # changes again
        path = tmp_path / "pool.jsonl"
        pool, record = build_pool(
            OfflineTemplateBackend(), builtin_template("en"), PIN_ITEMS, seed=5, output_path=path
        )
        assert len(pool) == len(PIN_ITEMS) and not record.skipped
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a00f08e7a5f992aeeaf344ed626e3a090f7eaf4785da0d91567ac5ec5b0a041c"
        )

    def test_no_seed_sequence_per_item(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("build_pool must not build a SeedSequence")

        backend = ScriptedBackend()
        monkeypatch.setattr(np.random, "SeedSequence", forbidden)
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        pool, _ = build_pool(backend, TEMPLATE, ITEMS, seed=5)
        offline, _ = build_pool(OfflineTemplateBackend(), TEMPLATE, ITEMS, seed=5)
        monkeypatch.undo()
        assert len(pool) == len(offline) == len(ITEMS)
        assert backend.calls[0][1] == derived_seeds(5, np.arange(len(ITEMS)), 1)[:, 0].tolist()

    def test_blank_name_skipped_before_any_round(self):
        items = [("m1", " "), ("m2", "Heat")]
        backend = ScriptedBackend()
        pool, record = build_pool(backend, TEMPLATE, items, seed=5)
        assert [d.item_ids() for d in pool.dialogues] == [("m2",)]
        assert [name for batch, _ in backend.calls for _, name in batch] == ["Heat"]
        assert record.skipped == (SkippedItem("m1", "item_name_not_found"),)

    def test_blank_name_skipped_by_offline_backend(self):
        pool, record = build_pool(
            OfflineTemplateBackend(), builtin_template("en"), [("m1", " "), ("m2", "Heat")], seed=5
        )
        assert list(pool.item_of.values()) == ["m2"]
        assert record.skipped == (SkippedItem("m1", "item_name_not_found"),)

    def test_empty_name_skipped_before_any_round(self):
        items = [("e0", ""), *ITEMS[:3], ("e1", "")]
        backend = ScriptedBackend(reject=lambda item_id, attempt: item_id == "m1")
        pool, record = build_pool(backend, TEMPLATE, items, seed=5)
        assert [d.item_ids() for d in pool.dialogues] == [("m0",), ("m2",)]
        assert all(name for batch, _ in backend.calls for _, name in batch)
        assert record == GenerationRecord(
            skipped=(
                SkippedItem("e0", "item_name_not_found"),
                SkippedItem("m1", "no_speaker_prefixes"),
                SkippedItem("e1", "item_name_not_found"),
            ),
            attempts=5,
            rejected={"no_speaker_prefixes": 3},
        )


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**192),
    indices=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8, unique=True),
    n_attempts=st.integers(1, 5),
    data=st.data(),
)
def test_derived_seed_rows_equal_the_full_matrix_rows(seed, indices, n_attempts, data):
    index_array = np.array(indices, dtype=np.uint64)
    full = derived_seeds(seed, index_array, n_attempts)
    assert full.shape == (len(indices), n_attempts) and full.dtype == np.uint64
    rows = data.draw(st.lists(st.sampled_from(range(len(indices))), unique=True))
    subset = derived_seeds(seed, np.array([indices[r] for r in rows], dtype=np.uint64), n_attempts)
    assert subset.shape == (len(rows), n_attempts) and subset.dtype == np.uint64
    assert subset.tolist() == full[rows].tolist()
    # fewer attempts give the leading columns of the same rows
    assert derived_seeds(seed, index_array, 1).tolist() == full[:, :1].tolist()


def _splitmix64_word(state: int) -> int:
    """splitmix64's output word for ``state``, in Python integers."""
    z = (state + 0x9E3779B97F4A7C15) % 2**64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
    return z ^ z >> 31


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**192),
    indices=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    n_attempts=st.integers(1, 4),
)
def test_derived_seeds_follow_the_splitmix64_key_chain(seed, indices, n_attempts):
    raw = seed.to_bytes(8 * max(1, -(-seed.bit_length() // 64)), "big")
    key = 0
    for start in range(0, len(raw), 8):  # the seed's 64-bit words, most significant first
        key = _splitmix64_word((key + int.from_bytes(raw[start:start + 8], "big")) % 2**64)
    expected = [
        [_splitmix64_word((_splitmix64_word((key + index) % 2**64) + a) % 2**64)
         for a in range(n_attempts)]
        for index in indices
    ]
    seeds = derived_seeds(seed, np.array(indices, dtype=np.uint64), n_attempts)
    assert seeds.tolist() == expected


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**192), index=st.integers(0, 2**64 - 1))
@example(seed=0, index=0)
@example(seed=2**64 - 1, index=2**64 - 1)
@example(seed=2**128 - 1, index=1)
def test_derived_seeds_tell_seed_from_seed_plus_2_64(seed, index):
    indices = np.array([index], dtype=np.uint64)
    assert (derived_seeds(seed, indices, 3) != derived_seeds(seed + 2**64, indices, 3)).all()


def test_derived_seeds_have_no_repeats_at_tgredial_scale():
    seeds = derived_seeds(1, np.arange(33_834), 3)
    assert len(np.unique(seeds)) == seeds.size == 33_834 * 3


def test_derived_seeds_reject_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        derived_seeds(-1, np.arange(2), 1)


class TestHttpBackend:
    def _backend(self, **kwargs):
        return HttpChatBackend(
            base_url="https://llm.example/v1", model="chat-1",
            backoff_base=0.0, **kwargs,
        )

    def test_missing_token_is_auth_error_before_any_request(self, monkeypatch):
        monkeypatch.delenv("CRSBIAS_LLM_TOKEN", raising=False)

        def explode(*args, **kwargs):  # pragma: no cover - must not be reached
            raise AssertionError("no request should be sent")

        monkeypatch.setattr(requests, "post", explode)
        with pytest.raises(BackendAuthError, match="CRSBIAS_LLM_TOKEN"):
            self._backend().generate(TEMPLATE, "m1", "Alien", seed=0)

    def test_success_returns_completion(self, monkeypatch):
        monkeypatch.setenv("CRSBIAS_LLM_TOKEN", "sekrit")
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, payload=json, headers=headers, timeout=timeout)
            return FakeResponse()

        monkeypatch.setattr(requests, "post", fake_post)
        text = self._backend().generate(TEMPLATE, "m1", "Alien", seed=0)
        assert "Alien" in text
        assert seen["url"] == "https://llm.example/v1/chat/completions"
        assert seen["payload"]["model"] == "chat-1"
        assert seen["payload"]["messages"][0]["role"] == "system"
        assert "Alien" in seen["payload"]["messages"][1]["content"]
        assert seen["headers"]["Authorization"] == "Bearer sekrit"

    def test_unauthorized_not_retried(self, monkeypatch):
        monkeypatch.setenv("CRSBIAS_LLM_TOKEN", "bad")
        calls = []

        def fake_post(*args, **kwargs):
            calls.append(1)
            return FakeResponse(status_code=401)

        monkeypatch.setattr(requests, "post", fake_post)
        with pytest.raises(BackendAuthError):
            self._backend().generate(TEMPLATE, "m1", "Alien", seed=0)
        assert len(calls) == 1

    def test_timeouts_retried_then_raised(self, monkeypatch):
        monkeypatch.setenv("CRSBIAS_LLM_TOKEN", "t")
        calls = []

        def fake_post(*args, **kwargs):
            calls.append(1)
            raise requests.Timeout("too slow")

        monkeypatch.setattr(requests, "post", fake_post)
        with pytest.raises(BackendTimeoutError):
            self._backend(max_attempts=3).generate(TEMPLATE, "m1", "Alien", seed=0)
        assert len(calls) == 3

    def test_server_errors_retried(self, monkeypatch):
        monkeypatch.setenv("CRSBIAS_LLM_TOKEN", "t")
        responses = [FakeResponse(status_code=503), FakeResponse()]

        def fake_post(*args, **kwargs):
            return responses.pop(0)

        monkeypatch.setattr(requests, "post", fake_post)
        text = self._backend(max_attempts=2).generate(TEMPLATE, "m1", "Alien", seed=0)
        assert "Alien" in text

    @pytest.mark.parametrize(
        "error", [requests.exceptions.MissingSchema, requests.exceptions.InvalidURL,
                  requests.exceptions.InvalidSchema, requests.RequestException],
    )
    def test_other_request_errors_are_typed_and_not_retried(self, monkeypatch, error):
        monkeypatch.setenv("CRSBIAS_LLM_TOKEN", "t")
        calls = []

        def fake_post(*args, **kwargs):
            calls.append(1)
            raise error("bad request")

        monkeypatch.setattr(requests, "post", fake_post)
        with pytest.raises(BackendError, match=f"request failed: {error.__name__}") as raised:
            self._backend(max_attempts=3).generate(TEMPLATE, "m1", "Alien", seed=0)
        assert not isinstance(raised.value, BackendTimeoutError)
        assert len(calls) == 1

    def test_empty_completion_is_typed_error(self, monkeypatch):
        monkeypatch.setenv("CRSBIAS_LLM_TOKEN", "t")
        monkeypatch.setattr(
            requests, "post", lambda *a, **k: FakeResponse(content="   ")
        )
        with pytest.raises(EmptyCompletionError):
            self._backend().generate(TEMPLATE, "m1", "Alien", seed=0)

    def test_client_error_is_typed_error(self, monkeypatch):
        monkeypatch.setenv("CRSBIAS_LLM_TOKEN", "t")
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(status_code=404))
        with pytest.raises(BackendError, match="404"):
            self._backend().generate(TEMPLATE, "m1", "Alien", seed=0)

    def _scripted(self, monkeypatch, responses):
        """Serve ``responses`` in order to ``requests.post``; return the sleeps."""
        monkeypatch.setenv("CRSBIAS_LLM_TOKEN", "t")
        sleeps: list[float] = []
        monkeypatch.setattr(requests, "post", lambda *a, **k: responses.pop(0))
        monkeypatch.setattr(synthgen.time, "sleep", sleeps.append)
        return sleeps

    def test_retry_after_seconds_honoured_on_429_and_503(self, monkeypatch):
        sleeps = self._scripted(monkeypatch, [
            FakeResponse(status_code=429, headers={"Retry-After": "7"}),
            FakeResponse(status_code=503, headers={"Retry-After": "0.5"}),
            FakeResponse(),
        ])
        backend = HttpChatBackend("https://llm.example/v1", "chat-1", max_attempts=3)
        assert "Alien" in backend.generate(TEMPLATE, "m1", "Alien", seed=0)
        assert sleeps == [7.0, 0.5]

    def test_retry_after_ignored_when_not_seconds_or_not_429_503(self, monkeypatch):
        sleeps = self._scripted(monkeypatch, [
            FakeResponse(status_code=500, headers={"Retry-After": "30"}),
            FakeResponse(status_code=429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
            FakeResponse(status_code=503, headers={"Retry-After": "-4"}),
            FakeResponse(),
        ])
        backend = HttpChatBackend(
            "https://llm.example/v1", "chat-1", max_attempts=4, backoff_base=2.0
        )
        assert "Alien" in backend.generate(TEMPLATE, "m1", "Alien", seed=0)
        # jittered backoff: between half and all of 2 * 2 ** (n - 1) seconds
        assert len(sleeps) == 3
        for n, slept in enumerate(sleeps, start=1):
            assert 2.0 * 2 ** (n - 1) / 2 <= slept <= 2.0 * 2 ** (n - 1)

    def test_backoff_is_jittered(self, monkeypatch):
        sleeps = self._scripted(monkeypatch, [FakeResponse(status_code=502)] * 40)
        backend = HttpChatBackend(
            "https://llm.example/v1", "chat-1", max_attempts=40, backoff_base=1e-9
        )
        with pytest.raises(BackendError, match="502"):
            backend.generate(TEMPLATE, "m1", "Alien", seed=0)
        assert len(sleeps) == 39
        delays = [1e-9 * 2 ** n for n in range(39)]
        assert all(d / 2 <= slept <= d for slept, d in zip(sleeps, delays))
        assert sleeps != delays


class TestOfflineEndToEnd:
    def test_offline_pool_parses_and_validates(self):
        pool, _ = build_pool(OfflineTemplateBackend(), TEMPLATE, ITEMS, seed=11)
        for dialogue in pool.dialogues:
            assert dialogue.provenance == "synthetic"
            assert dialogue.episode_index_per_turn is not None
            targets = [t for turn in dialogue.turns for t in turn.target_item_ids]
            assert len(targets) == 1

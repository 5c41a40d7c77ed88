from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
import requests
from hypothesis import given, settings
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


class TestBuildPool:
    def test_offline_pool_of_six(self, tmp_path):
        pool, skipped = build_pool(
            OfflineTemplateBackend(), TEMPLATE, ITEMS, seed=5, output_path=tmp_path / "pool.jsonl"
        )
        assert len(pool) == 6
        assert skipped == []
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

    def test_concurrency_does_not_change_output(self):
        serial, _ = build_pool(OfflineTemplateBackend(), TEMPLATE, ITEMS, seed=5, concurrency=1)
        parallel, _ = build_pool(OfflineTemplateBackend(), TEMPLATE, ITEMS, seed=5, concurrency=4)
        assert serial.dialogues == parallel.dialogues

    def test_rejected_item_skipped_and_logged(self):
        class BrokenForOne:
            inner = OfflineTemplateBackend()

            def generate(self, template, item_id, item_name, seed):
                if item_id == "m2":
                    return "no speakers at all"
                return self.inner.generate(template, item_id, item_name, seed)

        pool, skipped = build_pool(BrokenForOne(), TEMPLATE, ITEMS, seed=5)
        assert len(pool) == 5
        assert skipped == [SkippedItem(item_id="m2", reason="no_speaker_prefixes")]

    def test_zero_accepted_is_error(self):
        class AlwaysBroken:
            def generate(self, template, item_id, item_name, seed):
                return "garbage"

        with pytest.raises(BackendError, match="no synthetic dialogues"):
            build_pool(AlwaysBroken(), TEMPLATE, ITEMS, seed=5)

    def test_retry_uses_fresh_seed(self):
        calls: dict[str, list[int]] = {}

        class FlakyFirstAttempt:
            inner = OfflineTemplateBackend()

            def generate(self, template, item_id, item_name, seed):
                calls.setdefault(item_id, []).append(seed)
                if len(calls[item_id]) == 1:
                    return "unparseable"
                return self.inner.generate(template, item_id, item_name, seed)

        pool, skipped = build_pool(FlakyFirstAttempt(), TEMPLATE, ITEMS[:2], seed=5)
        assert len(pool) == 2 and not skipped
        for seeds in calls.values():
            assert len(seeds) == 2 and seeds[0] != seeds[1]

    def test_pool_file_is_pinned(self, tmp_path):
        # computed with one np.random.SeedSequence per attempt and a second
        # Dialogue build for the episodes; the pool must stay byte-identical
        path = tmp_path / "pool.jsonl"
        pool, skipped = build_pool(
            OfflineTemplateBackend(), builtin_template("en"), PIN_ITEMS, seed=5, output_path=path
        )
        assert len(pool) == len(PIN_ITEMS) and not skipped
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "16fafe2c8541a1a36bca484112be4ec27750220dc54688b809c90d6242b1aed1"
        )

    def test_serial_build_constructs_no_executor(self, monkeypatch):
        constructed = []
        real = synthgen.ThreadPoolExecutor

        def recording(max_workers):
            constructed.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(synthgen, "ThreadPoolExecutor", recording)
        serial, _ = build_pool(OfflineTemplateBackend(), TEMPLATE, ITEMS, seed=5, concurrency=1)
        assert constructed == []
        parallel, _ = build_pool(OfflineTemplateBackend(), TEMPLATE, ITEMS, seed=5, concurrency=3)
        assert constructed == [3]
        assert serial.dialogues == parallel.dialogues

    def test_no_seed_sequence_per_item(self, monkeypatch):
        seen = []

        class RecordingBackend:
            def generate(self, template, item_id, item_name, seed):
                seen.append(seed)
                return f"User: hi\nSystem: watch {item_name}"

        def forbidden(*args, **kwargs):
            raise AssertionError("build_pool must not build a SeedSequence")

        monkeypatch.setattr(np.random, "SeedSequence", forbidden)
        pool, _ = build_pool(RecordingBackend(), TEMPLATE, ITEMS, seed=5)
        monkeypatch.undo()
        assert len(pool) == len(ITEMS)
        assert seen == [
            int(np.random.SeedSequence((5, index, 0)).generate_state(1, np.uint64)[0])
            for index in range(len(ITEMS))
        ]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**128),
    indices=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    n_attempts=st.integers(1, 5),
)
def test_derived_seeds_equal_seed_sequence(seed, indices, n_attempts):
    seeds = derived_seeds(seed, np.array(indices, dtype=np.uint64), n_attempts)
    assert seeds.shape == (len(indices), n_attempts) and seeds.dtype == np.uint64
    for row, index in enumerate(indices):
        for attempt in range(n_attempts):
            expected = np.random.SeedSequence((seed, index, attempt)).generate_state(1, np.uint64)
            assert seeds[row, attempt] == expected[0]


def test_derived_seeds_reject_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        derived_seeds(-1, np.arange(2), 1)


class _FakeResponse:
    def __init__(self, status_code=200, content="User: hi\nSystem: watch Alien.", headers=None):
        self.status_code = status_code
        self._content = content
        self.headers = headers or {}

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


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
            return _FakeResponse()

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
            return _FakeResponse(status_code=401)

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
        responses = [_FakeResponse(status_code=503), _FakeResponse()]

        def fake_post(*args, **kwargs):
            return responses.pop(0)

        monkeypatch.setattr(requests, "post", fake_post)
        text = self._backend(max_attempts=2).generate(TEMPLATE, "m1", "Alien", seed=0)
        assert "Alien" in text

    def test_empty_completion_is_typed_error(self, monkeypatch):
        monkeypatch.setenv("CRSBIAS_LLM_TOKEN", "t")
        monkeypatch.setattr(
            requests, "post", lambda *a, **k: _FakeResponse(content="   ")
        )
        with pytest.raises(EmptyCompletionError):
            self._backend().generate(TEMPLATE, "m1", "Alien", seed=0)

    def test_client_error_is_typed_error(self, monkeypatch):
        monkeypatch.setenv("CRSBIAS_LLM_TOKEN", "t")
        monkeypatch.setattr(requests, "post", lambda *a, **k: _FakeResponse(status_code=404))
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
            _FakeResponse(status_code=429, headers={"Retry-After": "7"}),
            _FakeResponse(status_code=503, headers={"Retry-After": "0.5"}),
            _FakeResponse(),
        ])
        backend = HttpChatBackend("https://llm.example/v1", "chat-1", max_attempts=3)
        assert "Alien" in backend.generate(TEMPLATE, "m1", "Alien", seed=0)
        assert sleeps == [7.0, 0.5]

    def test_retry_after_ignored_when_not_seconds_or_not_429_503(self, monkeypatch):
        sleeps = self._scripted(monkeypatch, [
            _FakeResponse(status_code=500, headers={"Retry-After": "30"}),
            _FakeResponse(status_code=429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
            _FakeResponse(status_code=503, headers={"Retry-After": "-4"}),
            _FakeResponse(),
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
        sleeps = self._scripted(monkeypatch, [_FakeResponse(status_code=502)] * 40)
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

"""Synthetic recommendation dialogue generation and reformatting.

A prompt template plus an item name goes to a text-generation backend; the
raw completion is parsed back into a corpus-file record (speaker-prefixed
lines, item-name matches replaced with ``@<item_id>`` mention tokens, the
final recommender mention tagged as the accepted target). ``build_pool``
streams the records into the pool's column store, checked as a pool file's
lines are, and writes the pool file from the store.

Backends take whole batches (``generate_batch``). Two exist: an HTTP
chat-completion client (configurable endpoint/model, token from an
environment variable, retries with jittered exponential backoff that honour
``Retry-After``, optional request threads) and an offline generator whose
every row is a pure function of (template, item name, seed), so the whole
pipeline runs deterministic and network-free.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Iterator, Protocol, Sequence

import numpy as np

from .corpus import (
    ItemIndex,
    _ColumnsBuilder,
    dialogue_lines,
    fill_checked,
    mention_token,
    snapshot_path,
    write_snapshot,
)
from .augment import SyntheticPool
from .records import HTTP_BACKEND, LANGUAGES, OFFLINE_BACKEND, AugmentError, BackendError
from .records import CorpusError, write_lines

# Version of the pool bytes that (template, items, seed) give with the offline
# backend, recorded in generation_log.json. Format 3: attempt seeds come from
# a splitmix64 key chain over (seed, item index, attempt), each row's choices
# from splitmix64 over its attempt seed, and ``en`` names are tagged only at
# word boundaries.
POOL_FORMAT = 3
PLACEHOLDER = "{item_name}"

_SPEAKER_PREFIXES = {
    "user": "seeker",
    "seeker": "seeker",
    "system": "recommender",
    "recommender": "recommender",
}


class BackendAuthError(BackendError):
    pass


class BackendTimeoutError(BackendError):
    pass


class EmptyCompletionError(BackendError):
    pass


class DialogueRejected(ValueError):
    """Raw generated text cannot be reformatted into a usable dialogue."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# prompt templates


@dataclass(frozen=True)
class PromptTemplate:
    """A generation prompt with a single ``{item_name}`` slot."""

    template_id: str
    language: str
    body: str
    system_preamble: str = ""

    def __post_init__(self) -> None:
        if self.language not in LANGUAGES:
            raise ValueError(f"unsupported template language {self.language!r}")
        if self.body.count(PLACEHOLDER) != 1:
            raise ValueError(
                f"template body must contain exactly one {PLACEHOLDER} placeholder "
                f"(found {self.body.count(PLACEHOLDER)})"
            )


def load_template(path: str | Path) -> PromptTemplate:
    """Read a template file: a one-line header ``<template_id> <language>``,
    then an optional system preamble, ended by the first line that is
    exactly ``---``, then the body."""
    text = Path(path).read_text(encoding="utf-8")
    if not text:
        raise ValueError("empty template file")
    # text mode ends lines at \n, \r\n and \r alone, all read as \n; a form
    # feed or U+2028 stays inside its line, as in parse_generated_record
    header, *rest = text.split("\n")
    fields = header.split()
    if len(fields) != 2:
        raise ValueError(f"header must be '<template_id> <language>', got {header!r}")
    preamble: list[str] = []
    if "---" in rest:
        cut = rest.index("---")
        preamble, rest = rest[:cut], rest[cut + 1 :]
    return PromptTemplate(
        template_id=fields[0],
        language=fields[1],
        body="\n".join(rest).strip(),
        system_preamble="\n".join(preamble).strip(),
    )


def builtin_template(language: str = "en") -> PromptTemplate:
    """Bundled template for the given language."""
    filename = {"en": "redial_en.txt", "zh": "tgredial_zh.txt"}.get(language)
    if filename is None:
        raise ValueError(f"no builtin template for language {language!r}")
    ref = resources.files("crs_bias") / "templates" / filename
    with resources.as_file(ref) as path:
        return load_template(path)


def render_prompt(template: PromptTemplate, item_name: str) -> str:
    """Substitute the item name into the template body; no other mutation."""
    if not item_name:
        raise ValueError("item name must be non-empty")
    return template.body.replace(PLACEHOLDER, item_name)


# ---------------------------------------------------------------------------
# backends


class GenerationBackend(Protocol):
    def generate_batch(
        self, template: PromptTemplate, items: Sequence[tuple[str, str]], seeds: Sequence[int]
    ) -> list[str]:
        """One raw completion per ``(item_id, item_name)``, in item order,
        the row for ``items[r]`` drawn with ``seeds[r]``."""
        ...


_OPENERS = (
    "Hi! I'm in the mood for something new to watch tonight.",
    "Hello, could you recommend a good movie for the weekend?",
    "Hey, any suggestions? I just finished my last series.",
    "Hi there, I want to watch something tonight but can't decide.",
)
_SUGGESTIONS = (
    "Of course! Have you seen {name}? I think it would be a great fit for you.",
    "Sure — I'd suggest {name}. It has been very well received.",
    "Happy to help! {name} comes to mind, it is one of my favourites.",
    "You could try {name}; viewers with your taste tend to love it.",
)
_FOLLOWUPS = (
    "I haven't seen that one yet. What is it about?",
    "Not yet — is it any good?",
    "That's new to me. Why do you recommend it?",
)
_DETAILS = (
    "It tells a gripping story and the pacing never lets up.",
    "Critics praise the cast, and the ending really stays with you.",
    "It balances humour and tension better than most in its genre.",
)
_ACCEPTS = (
    "Sounds great, I'll watch it tonight. Thanks!",
    "Perfect, that's exactly what I was looking for.",
    "Alright, you convinced me — adding it to my list.",
)
_CLOSERS = (
    "Enjoy {name}! Let me know how you liked it.",
    "Great choice — have fun watching {name}!",
    "I hope {name} makes your evening, enjoy!",
)
# a row asks the follow-up question when its 5-way draw is below 3: p = 0.6
_ASK_BUCKETS = 5
_ASK_BELOW = 3
# one 16-bit field per choice: opener, suggestion, ask, follow-up, detail,
# accept, closer
_CHOICE_SIZES = (
    len(_OPENERS), len(_SUGGESTIONS), _ASK_BUCKETS, len(_FOLLOWUPS), len(_DETAILS),
    len(_ACCEPTS), len(_CLOSERS),
)

_U64 = np.uint64
_GOLDEN_GAMMA = _U64(0x9E3779B97F4A7C15)


def _splitmix64(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One splitmix64 step on a uint64 column: (next state, output word).
    Array arithmetic wraps mod 2**64 without overflow warnings."""
    state = state + _GOLDEN_GAMMA
    z = (state ^ (state >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return state, z ^ (z >> _U64(31))


def _choices(seeds: Sequence[int], sizes: Sequence[int]) -> list[list[int]]:
    """Column ``c`` holds each row's draw from ``range(sizes[c])``.

    Row ``r`` depends only on ``seeds[r]``: splitmix64 from that seed gives
    four 16-bit fields per word, and field ``f`` maps to ``(f * size) >> 16``
    (multiply-shift, so each choice is uniform to within ``size / 2**16``).
    """
    state = np.asarray(seeds, dtype=np.uint64)
    fields: list[np.ndarray] = []
    while len(fields) < len(sizes):
        state, word = _splitmix64(state)
        fields += [(word >> _U64(shift)) & _U64(0xFFFF) for shift in (0, 16, 32, 48)]
    return [((field * _U64(size)) >> _U64(16)).tolist() for field, size in zip(fields, sizes)]


class OfflineTemplateBackend:
    """Deterministic local generator: same (template, item name, seed) -> same text.

    Emits a short "User:"/"System:" conversation that always names the item
    in a System line, so the parser can tag the mention and the target. A
    batch draws every row's choices in a few numpy calls; each row depends
    only on its own item name and seed, never on the rest of the batch.
    """

    kind = OFFLINE_BACKEND

    def generate_batch(
        self, template: PromptTemplate, items: Sequence[tuple[str, str]], seeds: Sequence[int]
    ) -> list[str]:
        if len(items) != len(seeds):
            raise ValueError(f"{len(items)} items for {len(seeds)} seeds")
        texts = []
        for (_, name), opener, suggestion, ask, followup, detail, accept, closer in zip(
            items, *_choices(seeds, _CHOICE_SIZES)
        ):
            lines = [
                "User: " + _OPENERS[opener],
                "System: " + _SUGGESTIONS[suggestion].format(name=name),
            ]
            if ask < _ASK_BELOW:
                lines.append("User: " + _FOLLOWUPS[followup])
                lines.append("System: " + _DETAILS[detail])
            lines.append("User: " + _ACCEPTS[accept])
            lines.append("System: " + _CLOSERS[closer].format(name=name))
            texts.append("\n".join(lines))
        return texts

    def generate(self, template: PromptTemplate, item_id: str, item_name: str, seed: int) -> str:
        """One row of ``generate_batch``; the benchmark's tracer wraps it."""
        return self.generate_batch(template, [(item_id, item_name)], [seed])[0]


class HttpChatBackend:
    """Chat-completion HTTP client with exponential-backoff retries.

    The auth token is read from an environment variable (default
    ``CRSBIAS_LLM_TOKEN``) and never logged. Transient failures (timeouts,
    connection errors, 429/5xx) are retried up to ``max_attempts`` times;
    any other ``requests`` error (a malformed URL, say) is a ``BackendError``
    at once.
    Before retry ``n`` the client sleeps a random time between half and all
    of ``backoff_base * 2 ** (n - 1)`` seconds, or, after a 429 or 503 that
    carries a ``Retry-After`` header in seconds, exactly that long.

    A batch sends its requests from ``concurrency`` threads, or one after
    another in the calling thread when ``concurrency`` is 1; the texts come
    back in item order either way. The row seeds are not sent, so the
    completions are not reproducible from the seed.
    """

    kind = HTTP_BACKEND

    def __init__(
        self,
        base_url: str,
        model: str,
        token_env: str = "CRSBIAS_LLM_TOKEN",
        timeout: float = 30.0,
        max_attempts: int = 3,
        backoff_base: float = 1.0,
        concurrency: int = 1,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.token_env = token_env
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.concurrency = concurrency

    def generate_batch(
        self, template: PromptTemplate, items: Sequence[tuple[str, str]], seeds: Sequence[int]
    ) -> list[str]:
        if len(items) != len(seeds):
            raise ValueError(f"{len(items)} items for {len(seeds)} seeds")

        def one(job: tuple[tuple[str, str], int]) -> str:
            (item_id, item_name), seed = job
            return self.generate(template, item_id, item_name, int(seed))

        jobs = zip(items, seeds)
        if self.concurrency <= 1:
            return list(map(one, jobs))
        with ThreadPoolExecutor(max_workers=self.concurrency) as executor:
            return list(executor.map(one, jobs))

    def generate(self, template: PromptTemplate, item_id: str, item_name: str, seed: int) -> str:
        import requests  # only the HTTP backend pays for the import

        token = os.environ.get(self.token_env)
        if not token:
            raise BackendAuthError(f"auth token not found in environment variable {self.token_env}")
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": template.system_preamble},
                {"role": "user", "content": render_prompt(template, item_name)},
            ],
        }
        headers = {"Authorization": f"Bearer {token}"}
        url = f"{self.base_url}/chat/completions"

        last_error: BackendError | None = None
        for attempt in range(1, self.max_attempts + 1):
            retry_after: float | None = None
            try:
                response = requests.post(url, json=payload, headers=headers, timeout=self.timeout)
            except (requests.Timeout, requests.ConnectionError) as exc:
                last_error = BackendTimeoutError(f"request failed: {exc.__class__.__name__}")
            except requests.RequestException as exc:  # a bad URL or request: retrying cannot help
                raise BackendError(f"request failed: {exc.__class__.__name__}") from exc
            else:
                if response.status_code in (401, 403):
                    raise BackendAuthError(f"backend rejected credentials ({response.status_code})")
                if response.status_code == 429 or response.status_code >= 500:
                    last_error = BackendError(f"transient backend error {response.status_code}")
                    if response.status_code in (429, 503):
                        retry_after = _retry_after_seconds(response.headers.get("Retry-After"))
                elif response.status_code != 200:
                    raise BackendError(f"backend error {response.status_code}")
                else:
                    try:
                        text = response.json()["choices"][0]["message"]["content"]
                    except (KeyError, IndexError, TypeError, ValueError) as exc:
                        raise BackendError(f"malformed backend response: {exc}") from exc
                    if text is None or type(text) is str and not text.strip():
                        raise EmptyCompletionError("backend returned an empty completion")
                    if type(text) is not str:
                        raise BackendError(f"malformed backend response: content {text!r}")
                    return text
            if attempt < self.max_attempts:
                if retry_after is None:
                    # exponential backoff with jitter, so that clients that
                    # failed together do not all retry at the same moment
                    delay = self.backoff_base * 2 ** (attempt - 1)
                    retry_after = random.uniform(delay / 2, delay)
                time.sleep(retry_after)
        assert last_error is not None
        raise last_error


def _retry_after_seconds(value: str | None) -> float | None:
    """A ``Retry-After`` header given in seconds; None if absent or a date."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if 0 <= seconds < math.inf else None


# ---------------------------------------------------------------------------
# reformatting


def _tag_words(text: str, name: str, token: str) -> str | None:
    """``text`` with every occurrence of ``name`` that no word character
    touches on either side replaced by ``token``; None if there is none.
    A word character is one of ``re``'s Unicode ``\\w``: alphanumeric or
    ``_``. The neighbours are read from ``text`` as given."""
    pieces: list[str] = []
    start = 0
    at = text.find(name)
    while at >= 0:
        end = at + len(name)
        # one-character slices, empty at either end of the text
        before, after = text[at - 1:at], text[end:end + 1]
        if before.isalnum() or before == "_" or after.isalnum() or after == "_":
            at = text.find(name, at + 1)
            continue
        pieces += (text[start:at], token)
        start = end
        at = text.find(name, end)
    if not pieces:
        return None
    pieces.append(text[start:])
    return "".join(pieces)


def _tag_substrings(text: str, name: str, token: str) -> str | None:
    """``text`` with every occurrence of ``name`` replaced by ``token``
    (Chinese has no spaces between words); None if there is none."""
    return text.replace(name, token) if name in text else None


_TAGGERS = {"en": _tag_words, "zh": _tag_substrings}


def parse_generated_record(
    raw: str,
    item_id: str,
    item_name: str,
    dialogue_id: str | None = None,
    *,
    language: str = "en",
) -> dict:
    """Reformat raw generated text into a corpus-file record (a synthetic
    ``train`` dialogue, ``dialogue_id`` or ``syn-<item_id>``).

    Lines starting with "User:"/"Seeker:" become seeker turns and
    "System:"/"Recommender:" recommender turns; unprefixed lines continue the
    previous turn. Item-name matches are replaced with the mention token: in
    ``en`` only where neither neighbouring character is a word character
    (so "Up" is not found in "Upon"), in ``zh`` wherever the name occurs. The
    final recommender turn naming the item carries it as the target. Text
    that is blank, holds a lone surrogate (it cannot be written as UTF-8),
    has no speaker prefixes or no item mention, or where no recommender
    turn names the item is rejected. Episode indices follow the
    ``accept_boundary`` policy: the target turn ends episode 0.
    """
    tag = _TAGGERS.get(language)
    if tag is None:
        raise ValueError(f"unsupported language {language!r}")
    if not raw.strip():
        raise DialogueRejected("empty_text")
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate: the pool file could not hold it
        raise DialogueRejected("invalid_text") from None
    turns: list[tuple[str, list[str]]] = []
    # only \r\n, \r and \n end a line: str.splitlines also splits at form
    # feeds, U+0085 and U+2028, which an item name may hold
    for line in raw.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        line = line.strip()
        if not line:
            continue
        prefix, sep, rest = line.partition(":")
        speaker = _SPEAKER_PREFIXES.get(prefix.strip().lower()) if sep else None
        if speaker is not None:
            turns.append((speaker, [rest.strip()]))
        elif turns:
            turns[-1][1].append(line)
        # unprefixed leading lines (model preamble chatter) are dropped
    if not turns:
        raise DialogueRejected("no_speaker_prefixes")
    if not item_name.strip():
        # an empty name "occurs" everywhere and a blank one names nothing
        raise DialogueRejected("item_name_not_found")

    token = mention_token(item_id)
    resolved: list[dict] = []
    named = False
    target: int | None = None  # the last recommender turn naming the item
    for index, (speaker, pieces) in enumerate(turns):
        text = " ".join(pieces)
        mentions: list[str] = []
        tagged = tag(text, item_name, token)
        if tagged is not None:
            text = tagged
            mentions = [item_id]
            named = True
            if speaker == "recommender":
                target = index
        resolved.append({"speaker": speaker, "text": text, "items": mentions, "targets": []})

    if not named:
        raise DialogueRejected("item_name_not_found")
    if target is None:
        raise DialogueRejected("item_not_recommended")
    resolved[target]["targets"] = [item_id]
    # the accept_boundary segmentation: the target turn closes episode 0
    return {
        "dialogue_id": dialogue_id or f"syn-{item_id}",
        "split": "train",
        "provenance": "synthetic",
        "turns": resolved,
        "episodes": [0] * (target + 1) + [1] * (len(resolved) - target - 1),
    }


# ---------------------------------------------------------------------------
# pool building


@dataclass(frozen=True)
class SkippedItem:
    item_id: str
    reason: str


@dataclass(frozen=True)
class GenerationRecord:
    """What ``build_pool`` asked of its backend and what it did not accept."""

    skipped: tuple[SkippedItem, ...]
    attempts: int  # backend rows requested over all rounds
    rejected: dict[str, int]  # rejected rows per reason over all rounds


def derived_seeds(seed: int, indices: np.ndarray, n_attempts: int) -> np.ndarray:
    """Per-(item, attempt) seeds as a ``(len(indices), n_attempts)`` uint64 matrix.

    A splitmix64 key chain: from state 0, each step adds a value to the state
    and keeps splitmix64's output word. The steps fold in the seed's 64-bit
    words, most significant first, then ``indices[r]``, then the attempt
    ``a``, so ``out[r, a]`` depends only on (seed, indices[r], a). With the
    low word folded last, ``seed`` and ``seed + 2**64`` reach it from
    different states.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key = np.zeros(1, dtype=np.uint64)
    for shift in reversed(range(0, max(seed.bit_length(), 1), 64)):
        key = _splitmix64(key + _U64((seed >> shift) % 2**64))[1]
    rows = _splitmix64(key + np.asarray(indices, dtype=np.uint64))[1]
    return _splitmix64(rows[:, None] + np.arange(n_attempts, dtype=np.uint64))[1]


def build_pool(
    backend: GenerationBackend,
    template: PromptTemplate,
    items: Sequence[tuple[str, str]],
    seed: int,
    output_path: str | Path | None = None,
    *,
    max_attempts: int = 3,
) -> tuple[SyntheticPool, GenerationRecord]:
    """Generate one accepted dialogue per (item_id, name), in rounds.

    Round ``a`` sends every item still without an accepted dialogue to
    ``backend.generate_batch`` with its seed ``derived_seeds(seed, ...)[index,
    a]``, which depends only on (seed, item index, attempt), so the pool is
    reproducible whatever the backend batches or threads. Items whose name is
    empty after ``strip()`` are skipped as ``item_name_not_found`` before any round, so no
    backend is sent them; items rejected in all ``max_attempts`` rounds are
    skipped with their last reason. The pool and the skipped items keep item
    order.

    Each round's records stream into the pool's column store in checked runs;
    they and the round's raw completions are dropped once filled. The pool
    file is written from the store, and then its column snapshot
    (``corpus.write_snapshot``), which ``load_pool`` reads in place of the
    file while the two match. A repeated item id raises ``AugmentError``.
    """
    seeds = derived_seeds(seed, np.arange(len(items)), max_attempts)
    builder = _ColumnsBuilder(ItemIndex(i for i, _ in items))
    stored: list[int] = []  # the item index of each row of the store
    # an empty or blank name can be neither prompted for nor tagged
    last_reason = {
        i: "item_name_not_found" for i, (_, name) in enumerate(items) if not name.strip()
    }
    rejected: Counter[str] = Counter()
    attempts = 0
    pending = [index for index in range(len(items)) if index not in last_reason]

    def parsed(indices: list[int], texts: list[str]) -> Iterator[tuple[int, dict]]:
        for index, raw in zip(indices, texts, strict=True):
            try:
                record = parse_generated_record(raw, *items[index], language=template.language)
            except DialogueRejected as exc:
                last_reason[index] = exc.reason
                rejected[exc.reason] += 1
                continue
            stored.append(index)
            yield index, record

    for attempt in range(max_attempts):
        if not pending:
            break
        batch = backend.generate_batch(template, [items[i] for i in pending], seeds[pending, attempt])
        attempts += len(pending)
        n_stored = len(stored)
        try:
            fill_checked(builder, parsed(pending, batch))
        except CorpusError as exc:  # a repeated dialogue_id
            raise AugmentError(f"pool contains {exc}") from None
        del batch  # the round's raw completions, filled into the store
        accepted = set(stored[n_stored:])
        pending = [index for index in pending if index not in accepted]

    if not stored:
        raise BackendError("no synthetic dialogues were accepted")
    columns = builder.finish()
    if stored != sorted(stored):  # rows accepted on a retry go back into item order
        columns = columns.take(np.argsort(stored))
    # rows are numbered as the lines of the pool file written from them
    columns = replace(columns, lines=np.arange(1, len(columns) + 1))
    synthetic_pool = SyntheticPool.from_columns(columns)
    if output_path is not None:
        digest = hashlib.sha256()
        write_lines(output_path, dialogue_lines(columns), digest)
        write_snapshot(snapshot_path(output_path), columns, digest.hexdigest())
    accepted = set(stored)
    record = GenerationRecord(
        skipped=tuple(
            SkippedItem(item_id, last_reason.get(i, "no_attempts"))
            for i, (item_id, _) in enumerate(items)
            if i not in accepted
        ),
        attempts=attempts,
        rejected=dict(rejected),
    )
    return synthetic_pool, record

"""Synthetic recommendation dialogue generation and reformatting.

A prompt template plus an item name goes to a text-generation backend; the
raw completion is parsed back into the corpus schema (speaker-prefixed lines,
exact item-name matches replaced with ``@<item_id>`` mention tokens, the
final recommender mention tagged as the accepted target).

Two backends: an HTTP chat-completion client (configurable endpoint/model,
token from an environment variable, retries with jittered exponential
backoff that honour ``Retry-After``) and an offline generator that is a
pure function of (template, item, seed) so the whole pipeline runs
deterministic and network-free.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .corpus import Dialogue, Turn, mention_token, save_dialogues
from .augment import SyntheticPool

LANGUAGES = frozenset({"en", "zh"})
PLACEHOLDER = "{item_name}"

_SPEAKER_PREFIXES = {
    "user": "seeker",
    "seeker": "seeker",
    "system": "recommender",
    "recommender": "recommender",
}


class BackendError(RuntimeError):
    """Text-generation backend failure."""


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
    then an optional system preamble separated from the body by a ``---`` line."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty template file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: header must be '<template_id> <language>'")
    rest = "\n".join(lines[1:])
    if "\n---\n" in rest or rest.startswith("---\n"):
        preamble, _, body = rest.partition("---")
        body = body.lstrip("\n")
    else:
        preamble, body = "", rest
    return PromptTemplate(
        template_id=header[0],
        language=header[1],
        body=body.strip(),
        system_preamble=preamble.strip(),
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
    def generate(self, template: PromptTemplate, item_id: str, item_name: str, seed: int) -> str:
        ...


def _item_key(item_id: str) -> int:
    return int.from_bytes(hashlib.sha256(item_id.encode("utf-8")).digest()[:8], "big")


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


class OfflineTemplateBackend:
    """Deterministic local generator: same (template, item, seed) -> same text.

    Emits a short "User:"/"System:" conversation that always names the item
    in a System line, so the parser can tag the mention and the target.
    """

    kind = "offline_template"

    def generate(self, template: PromptTemplate, item_id: str, item_name: str, seed: int) -> str:
        rng = np.random.default_rng(np.random.SeedSequence((seed, _item_key(item_id))))

        def pick(bank: tuple[str, ...]) -> str:
            return bank[int(rng.integers(len(bank)))]

        lines = [
            "User: " + pick(_OPENERS),
            "System: " + pick(_SUGGESTIONS).format(name=item_name),
        ]
        if rng.random() < 0.6:
            lines.append("User: " + pick(_FOLLOWUPS))
            lines.append("System: " + pick(_DETAILS))
        lines.append("User: " + pick(_ACCEPTS))
        lines.append("System: " + pick(_CLOSERS).format(name=item_name))
        return "\n".join(lines)


class HttpChatBackend:
    """Chat-completion HTTP client with exponential-backoff retries.

    The auth token is read from an environment variable (default
    ``CRSBIAS_LLM_TOKEN``) and never logged. Transient failures (timeouts,
    connection errors, 429/5xx) are retried up to ``max_attempts`` times.
    Before retry ``n`` the client sleeps a random time between half and all
    of ``backoff_base * 2 ** (n - 1)`` seconds, or, after a 429 or 503 that
    carries a ``Retry-After`` header in seconds, exactly that long.
    """

    kind = "http_chat"

    def __init__(
        self,
        base_url: str,
        model: str,
        token_env: str = "CRSBIAS_LLM_TOKEN",
        timeout: float = 30.0,
        max_attempts: int = 3,
        backoff_base: float = 1.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.token_env = token_env
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base

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
                    except (KeyError, IndexError, ValueError) as exc:
                        raise BackendError(f"malformed backend response: {exc}") from exc
                    if not text or not text.strip():
                        raise EmptyCompletionError("backend returned an empty completion")
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


def parse_generated(
    raw: str,
    item_id: str,
    item_name: str,
    dialogue_id: str | None = None,
) -> Dialogue:
    """Reformat raw generated text into a corpus-schema dialogue.

    Lines starting with "User:"/"Seeker:" become seeker turns and
    "System:"/"Recommender:" recommender turns; unprefixed lines continue the
    previous turn. Exact item-name matches are replaced with the mention
    token, and the final recommender turn naming the item carries it as the
    target. Text without speaker prefixes, without any item mention, or
    where no recommender turn names the item is rejected. Episode indices
    follow the ``accept_boundary`` policy: the target turn ends episode 0.
    """
    if not raw.strip():
        raise DialogueRejected("empty_text")
    turns: list[tuple[str, list[str]]] = []
    for line in raw.splitlines():
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

    token = mention_token(item_id)
    mention = (item_id,)
    resolved: list[tuple[str, str, tuple[str, ...]]] = []
    named = False
    target: int | None = None  # the last recommender turn naming the item
    for index, (speaker, pieces) in enumerate(turns):
        text = " ".join(pieces)
        mentions: tuple[str, ...] = ()
        if item_name in text:
            text = text.replace(item_name, token)
            mentions = mention
            named = True
            if speaker == "recommender":
                target = index
        resolved.append((speaker, text, mentions))

    if not named:
        raise DialogueRejected("item_name_not_found")
    if target is None:
        raise DialogueRejected("item_not_recommended")

    built = tuple([
        Turn(speaker, text, mentions, mention if index == target else ())
        for index, (speaker, text, mentions) in enumerate(resolved)
    ])
    # the accept_boundary segmentation: the target turn closes episode 0
    episodes = (0,) * (target + 1) + (1,) * (len(built) - target - 1)
    return Dialogue(
        dialogue_id=dialogue_id or f"syn-{item_id}",
        turns=built,
        split="train",
        episode_index_per_turn=episodes,
        provenance="synthetic",
    )


# ---------------------------------------------------------------------------
# pool building


@dataclass(frozen=True)
class SkippedItem:
    item_id: str
    reason: str


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's entropy words for a non-negative int: little-endian, 0 -> [0]."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(init: int, mult: int):
    """SeedSequence's hash: XOR with a running constant, multiply by the next
    one, fold the high half down. Applied element-wise to uint32 arrays."""
    hash_const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def derived_seeds(seed: int, indices: np.ndarray, n_attempts: int) -> np.ndarray:
    """Per-(item, attempt) seeds as a ``(len(indices), n_attempts)`` uint64 matrix.

    ``out[r, a]`` equals ``np.random.SeedSequence((seed, indices[r], a))
    .generate_state(1, np.uint64)[0]``: SeedSequence's ``mix_entropy`` and
    ``generate_state`` run on whole columns instead of once per item.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    seed_words = _uint32_words(seed)
    indices = np.asarray(indices, dtype=np.uint64)
    attempts = np.arange(n_attempts, dtype=np.uint32)
    out = np.empty((len(indices), n_attempts), dtype=np.uint64)
    wide = indices > _MASK32  # an index of two entropy words
    for rows, n_index_words in ((~wide, 1), (wide, 2)):
        if not rows.any():
            continue
        index = indices[rows, None]
        entropy = seed_words + [index & _MASK32, index >> 32][:n_index_words] + [attempts[None]]
        # 2-d words broadcast to (rows, attempts); arrays, not numpy scalars,
        # wrap mod 2**32 without overflow warnings
        words = [np.array(w, dtype=np.uint32, ndmin=2) for w in entropy]
        words += [np.zeros((1, 1), dtype=np.uint32)] * (_POOL_SIZE - len(words))
        hashmix = _hashmix(_INIT_A, _MULT_A)
        pool = [hashmix(w) for w in words[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in words[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], hashmix(word))
        # generate_state(1, np.uint64): two uint32 words, little-endian
        hashmix = _hashmix(_INIT_B, _MULT_B)
        low, high = (hashmix(word).astype(np.uint64) for word in pool[:2])
        out[rows] = low | (high << np.uint64(32))
    return out


def build_pool(
    backend: GenerationBackend,
    template: PromptTemplate,
    items: Sequence[tuple[str, str]],
    seed: int,
    output_path: str | Path | None = None,
    *,
    max_attempts: int = 3,
    concurrency: int = 1,
) -> tuple[SyntheticPool, list[SkippedItem]]:
    """Generate one accepted dialogue per (item_id, name).

    Rejected generations are retried with fresh derived seeds up to
    ``max_attempts`` times, then logged as skipped. With ``concurrency``
    above 1, backend requests run on that many threads (worth it only for
    a backend that waits on the network); otherwise items are generated in
    the calling thread. Outputs keep item order regardless of completion
    order, and each attempt's seed depends only on (seed, item index,
    attempt), so the pool is reproducible.
    """

    seeds = derived_seeds(seed, np.arange(len(items)), max_attempts).tolist()

    def generate_one(job: tuple[int, tuple[str, str]]) -> Dialogue | SkippedItem:
        index, (item_id, item_name) = job
        reason = "no_attempts"
        for derived in seeds[index]:
            raw = backend.generate(template, item_id, item_name, derived)
            try:
                return parse_generated(raw, item_id, item_name)
            except DialogueRejected as exc:
                reason = exc.reason
        return SkippedItem(item_id=item_id, reason=reason)

    if concurrency <= 1:
        results = list(map(generate_one, enumerate(items)))
    else:
        with ThreadPoolExecutor(max_workers=concurrency) as executor:
            results = list(executor.map(generate_one, enumerate(items)))

    accepted = [r for r in results if isinstance(r, Dialogue)]
    skipped = [r for r in results if isinstance(r, SkippedItem)]
    if not accepted:
        raise BackendError("no synthetic dialogues were accepted")
    synthetic_pool = SyntheticPool.from_dialogues(accepted)
    if output_path is not None:
        save_dialogues(synthetic_pool.dialogues, output_path)
    return synthetic_pool, skipped

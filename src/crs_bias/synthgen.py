"""Synthetic recommendation dialogue generation and reformatting.

A prompt template plus an item name goes to a text-generation backend; the
raw completion is parsed back into the corpus schema (speaker-prefixed lines,
exact item-name matches replaced with ``@<item_id>`` mention tokens, the
final recommender mention tagged as the accepted target).

Two backends: an HTTP chat-completion client (configurable endpoint/model,
token from an environment variable, exponential-backoff retries) and an
offline generator that is a pure function of (template, item, seed) so the
whole pipeline runs deterministic and network-free.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .corpus import Dialogue, Turn, mention_token, save_dialogues, segment_episodes
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
            try:
                response = requests.post(url, json=payload, headers=headers, timeout=self.timeout)
            except (requests.Timeout, requests.ConnectionError) as exc:
                last_error = BackendTimeoutError(f"request failed: {exc.__class__.__name__}")
            else:
                if response.status_code in (401, 403):
                    raise BackendAuthError(f"backend rejected credentials ({response.status_code})")
                if response.status_code == 429 or response.status_code >= 500:
                    last_error = BackendError(f"transient backend error {response.status_code}")
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
                time.sleep(self.backoff_base * 2 ** (attempt - 1))
        assert last_error is not None
        raise last_error


# ---------------------------------------------------------------------------
# reformatting


def _split_speaker_line(line: str) -> tuple[str, str] | None:
    prefix, sep, rest = line.partition(":")
    if not sep:
        return None
    speaker = _SPEAKER_PREFIXES.get(prefix.strip().lower())
    if speaker is None:
        return None
    return speaker, rest.strip()


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
    where no recommender turn names the item is rejected.
    """
    if not raw.strip():
        raise DialogueRejected("empty_text")
    turns: list[tuple[str, list[str]]] = []
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        parsed = _split_speaker_line(line)
        if parsed is not None:
            speaker, text = parsed
            turns.append((speaker, [text]))
        elif turns:
            turns[-1][1].append(line)
        # unprefixed leading lines (model preamble chatter) are dropped
    if not turns:
        raise DialogueRejected("no_speaker_prefixes")

    token = mention_token(item_id)
    built: list[Turn] = []
    last_recommender_mention: int | None = None
    for index, (speaker, pieces) in enumerate(turns):
        text = " ".join(pieces)
        mentions: tuple[str, ...] = ()
        if item_name in text:
            text = text.replace(item_name, token)
            mentions = (item_id,)
            if speaker == "recommender":
                last_recommender_mention = index
        built.append(Turn(speaker=speaker, text=text, mentioned_item_ids=mentions))

    if not any(t.mentioned_item_ids for t in built):
        raise DialogueRejected("item_name_not_found")
    if last_recommender_mention is None:
        raise DialogueRejected("item_not_recommended")

    built[last_recommender_mention] = Turn(
        speaker="recommender",
        text=built[last_recommender_mention].text,
        mentioned_item_ids=built[last_recommender_mention].mentioned_item_ids,
        target_item_ids=(item_id,),
    )
    dialogue = Dialogue(
        dialogue_id=dialogue_id or f"syn-{item_id}",
        turns=tuple(built),
        split="train",
        provenance="synthetic",
    )
    return segment_episodes(dialogue, "accept_boundary")


# ---------------------------------------------------------------------------
# pool building


@dataclass(frozen=True)
class SkippedItem:
    item_id: str
    reason: str


def build_pool(
    backend: GenerationBackend,
    template: PromptTemplate,
    items: Sequence[tuple[str, str]],
    seed: int,
    output_path: str | Path | None = None,
    *,
    max_attempts: int = 3,
    concurrency: int = 4,
) -> tuple[SyntheticPool, list[SkippedItem]]:
    """Generate one accepted dialogue per (item_id, name).

    Rejected generations are retried with fresh derived seeds up to
    ``max_attempts`` times, then logged as skipped. Backend requests may run
    on up to ``concurrency`` threads; outputs keep item order regardless of
    completion order, and each item's seed depends only on (seed, item
    index), so the pool is reproducible.
    """

    def generate_one(job: tuple[int, tuple[str, str]]) -> Dialogue | SkippedItem:
        index, (item_id, item_name) = job
        reason = "no_attempts"
        for attempt in range(max_attempts):
            derived = int(
                np.random.SeedSequence((seed, index, attempt)).generate_state(1, np.uint64)[0]
            )
            raw = backend.generate(template, item_id, item_name, derived)
            try:
                return parse_generated(raw, item_id, item_name)
            except DialogueRejected as exc:
                reason = exc.reason
        return SkippedItem(item_id=item_id, reason=reason)

    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        results = list(pool.map(generate_one, enumerate(items)))

    accepted = [r for r in results if isinstance(r, Dialogue)]
    skipped = [r for r in results if isinstance(r, SkippedItem)]
    if not accepted:
        raise BackendError("no synthetic dialogues were accepted")
    synthetic_pool = SyntheticPool.from_dialogues(accepted)
    if output_path is not None:
        save_dialogues(synthetic_pool.dialogues, output_path)
    return synthetic_pool, skipped

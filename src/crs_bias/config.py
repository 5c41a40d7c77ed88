"""Declarative run configuration for the command-line tools.

One YAML file describes paths, the popularity threshold, metric settings and
augmentation/generation parameters; command-line flags override individual
fields. Relative paths are resolved against the config file's directory.
Each key is declared once, by ``_key`` on the field it sets; loading, flag
overrides and the config echo all walk those declarations.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import Field, asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Any, Callable, Collection, Iterator, Mapping

import yaml

from .corpus import EPISODE_POLICIES, CorpusError, parse_id
from .metrics import DEFAULT_CUTOFFS
from .popularity import DEFAULT_MIN_COUNT, ThresholdPolicy
from .synthgen import LANGUAGES, HttpChatBackend, OfflineTemplateBackend


class ConfigError(ValueError):
    """Invalid or missing configuration, named by field."""


STRATEGIES = ("once_aug", "pop_nudge")
_BACKENDS = frozenset({OfflineTemplateBackend.kind, HttpChatBackend.kind})
# accepted from older configs and ignored: scoring is columnar
_IGNORED_KEYS = frozenset({("metrics", "n_workers")})
_REDACT_SUFFIXES = ("token", "secret", "password", "api_key")


def _parse_number(value: Any, name: str, expected: str = "a number") -> float:
    """A YAML int or float (not a bool or string); an int past the float
    range reads as infinity."""
    if type(value) not in (int, float):
        raise ConfigError(f"{name} must be {expected}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _parse_log_base(value: Any, name: str) -> float:
    if value in (None, "e", "natural"):
        return math.e
    base = _parse_number(value, name, "'e', 'natural' or a number")
    # the rank discount log_b(r) + 1 must stay >= 1 for every rank r >= 1
    if not 1 < base < math.inf:
        raise ConfigError(f"{name} must be greater than 1, got {value!r}")
    return base


def _parse_int(value: Any, name: str, minimum: int, optional: bool = False) -> int | None:
    """A YAML integer (not a bool, float or string) of at least ``minimum``,
    or null when ``optional``."""
    if value is None and optional:
        return None
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _parse_cutoffs(value: Any, name: str) -> tuple[int, ...]:
    if type(value) is not list or not value:
        raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
    return tuple(_parse_int(k, name, 1) for k in value)


def _parse_timeout(value: Any, name: str) -> float:
    """A YAML int or float (not a bool or string), finite and > 0."""
    timeout = _parse_number(value, name)
    if not 0 < timeout < math.inf:
        raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
    return timeout


def _parse_string(value: Any, name: str, optional: bool = False) -> str | None:
    """A non-empty YAML string, or null when ``optional``."""
    if value is None and optional:
        return None
    if type(value) is not str or not value:
        expected = "null or a non-empty string" if optional else "a non-empty string"
        raise ConfigError(f"{name} must be {expected}, got {value!r}")
    return value


def _parse_choice(value: Any, name: str, choices: Collection[str]) -> str:
    if type(value) is not str or value not in choices:
        raise ConfigError(f"{name} must be one of {sorted(choices)}, got {value!r}")
    return value


def _parse_path(value: Any, name: str, optional: bool = True) -> Path | None:
    """A string the file system can encode, as a path as written, or null
    when ``optional``; ``load_config`` resolves relative paths."""
    text = _parse_string(value, name, optional)
    try:
        if text is None or b"\0" not in os.fsencode(text):
            return None if text is None else Path(text)
    except UnicodeEncodeError:
        pass
    raise ConfigError(f"{name} must be a path the file system can encode, got {value!r}")


def _parse_paths(value: Any, name: str) -> list[Path]:
    """A YAML list of paths; null reads as none."""
    if type(value) not in (list, type(None)):
        raise ConfigError(f"{name} must be a list of paths, got {value!r}")
    return [_parse_path(item, name, optional=False) for item in value or ()]


def _parse_base_url(value: Any, name: str) -> str | None:
    """Null, or a non-empty string that starts with ``http://`` or ``https://``."""
    base_url = _parse_string(value, name, True)
    if base_url is not None and not base_url.lower().startswith(("http://", "https://")):
        raise ConfigError(
            f"{name} must be a URL starting with http:// or https://, got {base_url!r}"
        )
    return base_url


def _parse_items(value: Any, name: str) -> list[str] | None:
    """A non-empty YAML list of distinct item ids, each read by ``corpus.parse_id``."""
    if value is None:
        return None
    if type(value) is not list or not value:
        raise ConfigError(f"{name} must be a non-empty list of item ids, got {value!r}")
    try:
        items = [parse_id(item, "each item id") for item in value]
    except CorpusError as exc:
        raise ConfigError(f"{name} must be a list of item ids: {exc}") from None
    repeated = sorted(item for item, count in Counter(items).items() if count > 1)
    if repeated:
        raise ConfigError(f"{name} must be distinct ids; repeated: {repeated}")
    return items


def _parse_eta(value: Any, name: str) -> ThresholdPolicy:
    keys = {(name, key): key for key in ("kind", "min_count", "top_fraction")}
    section = _read(value, (name,), keys)
    kind = section.get("kind", "count_threshold")
    if kind == "count_threshold":
        min_count = _parse_int(section.get("min_count", DEFAULT_MIN_COUNT), f"{name}.min_count", 1)
        return ThresholdPolicy.count_threshold(min_count)
    if kind == "quantile":
        if "top_fraction" not in section:
            raise ConfigError(f"{name}.top_fraction is required for quantile policy")
        top_fraction = _parse_number(section["top_fraction"], f"{name}.top_fraction")
        try:
            return ThresholdPolicy.quantile(top_fraction)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    raise ConfigError(f"{name}.kind: unknown policy {kind!r}")


def _key(key: str, parse: Callable[..., Any], default: Any = None, **options: Any) -> Any:
    """A settings field read from the dotted YAML key ``key`` by
    ``parse(value, key, **options)``. An absent key reads as the YAML value
    ``default``; the field's own default is ``default`` parsed."""
    parse = partial(parse, **options)
    return field(
        default_factory=lambda: parse(default, key),
        metadata={"key": key, "parse": parse, "default": default},
    )


@dataclass
class HttpSettings:
    base_url: str | None = _key("generation.http.base_url", _parse_base_url)
    model: str | None = _key("generation.http.model", _parse_string, optional=True)
    token_env: str = _key("generation.http.token_env", _parse_string, "CRSBIAS_LLM_TOKEN")
    timeout: float = _key("generation.http.timeout", _parse_timeout, 30.0)


@dataclass
class GenerationSettings:
    backend: str = _key("generation.backend", _parse_choice, "offline_template", choices=_BACKENDS)
    language: str = _key("generation.language", _parse_choice, "en", choices=LANGUAGES)
    template: Path | None = _key("generation.template", _parse_path)
    items: list[str] | None = _key("generation.items", _parse_items)
    max_attempts: int = _key("generation.max_attempts", _parse_int, 3, minimum=1)
    concurrency: int = _key("generation.concurrency", _parse_int, 1, minimum=1)
    http: HttpSettings = field(default_factory=HttpSettings)


@dataclass
class RunConfig:
    corpus: Path | None = _key("paths.corpus", _parse_path)
    catalog: Path | None = _key("paths.catalog", _parse_path)
    runs: list[Path] = _key("paths.runs", _parse_paths)
    pool: Path | None = _key("paths.pool", _parse_path)
    output_dir: Path = _key("paths.output_dir", _parse_path, "out", optional=False)
    eta_policy: ThresholdPolicy = _key("popularity.eta", _parse_eta)
    log_base: float = _key("metrics.log_base", _parse_log_base, "e")
    cutoffs: tuple[int, ...] = _key("metrics.cutoffs", _parse_cutoffs, list(DEFAULT_CUTOFFS))
    episode_policy: str = _key(
        "episodes.policy", _parse_choice, "accept_boundary", choices=EPISODE_POLICIES
    )
    strategy: str = _key("augment.strategy", _parse_choice, "pop_nudge", choices=STRATEGIES)
    k: int = _key("augment.k", _parse_int, 1, minimum=1)
    batch_size: int = _key("augment.batch_size", _parse_int, 32, minimum=1)
    seed: int | None = _key("seed", _parse_int, minimum=0, optional=True)
    generation: GenerationSettings = field(default_factory=GenerationSettings)

    def require_path(self, name: str) -> Path:
        """The named path field, validated to name a file before any work starts."""
        value: Path | None = getattr(self, name)
        if value is None:
            raise ConfigError(f"paths.{name} is required for this command")
        if not value.is_file():
            raise ConfigError(f"paths.{name}: no such file: {value}")
        return value

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError("seed is required for this command")
        return self.seed

    def echo_dict(self) -> dict:
        """Resolved config as a plain dict in the YAML layout, secret-looking
        values redacted."""
        raw: dict = {}
        for owner, f in _keyed(self):
            *sections, leaf = f.metadata["key"].split(".")
            node = raw
            for section in sections:
                node = node.setdefault(section, {})
            node[leaf] = _plain(getattr(owner, f.name))
        return _redact(raw)


def _keyed(settings: Any) -> Iterator[tuple[Any, Field]]:
    """``(owner, field)`` for each ``_key`` field of ``settings`` and of the
    settings objects it holds, in declaration order."""
    for f in fields(settings):
        if "key" in f.metadata:
            yield settings, f
        else:
            yield from _keyed(getattr(settings, f.name))


def _plain(value: Any) -> Any:
    """A parsed value as JSON data."""
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, ThresholdPolicy):
        return asdict(value)
    return value


def _redact(value: Any) -> Any:
    if isinstance(value, dict):
        return {
            key: "***" if _is_secret_key(key) else _redact(inner)
            for key, inner in value.items()
        }
    if isinstance(value, list):
        return [_redact(v) for v in value]
    return value


def _is_secret_key(key: str) -> bool:
    lowered = str(key).lower()
    return any(lowered.endswith(suffix) for suffix in _REDACT_SUFFIXES) and not lowered.endswith(
        "_env"
    )


def _read(section: Any, name: tuple, keys: Mapping[tuple, str]) -> dict[str, Any]:
    """The values in the YAML mapping ``section`` at key path ``name`` and in
    the sections it holds, by dotted key; ``keys`` maps each declared key
    path to its dotted key, and any other key raises ``ConfigError``."""
    if type(section) not in (dict, type(None)):
        raise ConfigError(f"{'.'.join(name)} must be a mapping or null, got {section!r}")
    values = {}
    for key, value in (section or {}).items():
        path = (*name, key)
        if path in keys:
            values[keys[path]] = value
        elif any(declared[: len(path)] == path for declared in keys):
            values.update(_read(value, path, keys))
        elif path not in _IGNORED_KEYS:
            raise ConfigError(f"unknown config key {'.'.join(map(str, path))!r}")
    return values


def _resolve(base: Path, value: Any) -> Any:
    """``value`` with each relative path in it taken relative to ``base``."""
    if isinstance(value, Path):
        return base / value
    if isinstance(value, list):
        return [_resolve(base, v) for v in value]
    return value


def load_config(path: str | Path, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """The run config in the YAML file ``path``. ``overrides`` maps settings
    attribute names to flag values, which win over the file and are read by
    the same parsers; a None value is an unset flag, and a path given there
    stays relative to the working directory."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    overrides = overrides or {}
    config = RunConfig()
    declared = list(_keyed(config))
    keys = {tuple(f.metadata["key"].split(".")): f.metadata["key"] for _, f in declared}
    values = _read(data, (), keys)
    for owner, f in declared:
        key, parse = f.metadata["key"], f.metadata["parse"]
        if overrides.get(f.name) is not None:
            value = parse(overrides[f.name], key)
        else:
            value = _resolve(path.parent, parse(values.get(key, f.metadata["default"]), key))
        setattr(owner, f.name, value)
    return config

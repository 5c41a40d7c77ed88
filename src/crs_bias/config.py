"""Declarative run configuration for the command-line tools.

One YAML file describes paths, the popularity threshold, metric settings and
augmentation/generation parameters; command-line flags override individual
fields. Relative paths are resolved against the config file's directory.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import yaml

from .corpus import CorpusError, parse_id
from .popularity import ThresholdPolicy
from .synthgen import LANGUAGES


class ConfigError(ValueError):
    """Invalid or missing configuration, named by field."""


_REDACT_SUFFIXES = ("token", "secret", "password", "api_key")


@dataclass
class HttpSettings:
    base_url: str | None = None
    model: str | None = None
    token_env: str = "CRSBIAS_LLM_TOKEN"
    timeout: float = 30.0


@dataclass
class GenerationSettings:
    backend: str = "offline_template"
    language: str = "en"
    template: Path | None = None
    items: list[str] | None = None
    max_attempts: int = 3
    concurrency: int = 1
    http: HttpSettings = field(default_factory=HttpSettings)


@dataclass
class RunConfig:
    corpus: Path | None = None
    catalog: Path | None = None
    runs: list[Path] = field(default_factory=list)
    pool: Path | None = None
    output_dir: Path = Path("out")
    eta_policy: ThresholdPolicy = field(default_factory=ThresholdPolicy.count_threshold)
    log_base: float = math.e
    cutoffs: tuple[int, ...] = (10, 50)
    episode_policy: str = "accept_boundary"
    strategy: str = "pop_nudge"
    k: int = 1
    batch_size: int = 32
    seed: int | None = None
    generation: GenerationSettings = field(default_factory=GenerationSettings)

    def require_path(self, name: str) -> Path:
        """The named path field, validated to exist before any work starts."""
        value: Path | None = getattr(self, name)
        if value is None:
            raise ConfigError(f"paths.{name} is required for this command")
        if not value.exists():
            raise ConfigError(f"paths.{name}: no such file: {value}")
        return value

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError("seed is required for this command")
        return self.seed

    def echo_dict(self) -> dict:
        """Resolved config as a plain dict, secret-looking values redacted."""
        raw = {
            "paths": {
                "corpus": str(self.corpus) if self.corpus else None,
                "catalog": str(self.catalog) if self.catalog else None,
                "runs": [str(p) for p in self.runs],
                "pool": str(self.pool) if self.pool else None,
                "output_dir": str(self.output_dir),
            },
            "popularity": {
                "eta": {
                    "kind": self.eta_policy.kind,
                    "min_count": self.eta_policy.min_count,
                    "top_fraction": self.eta_policy.top_fraction,
                },
            },
            "metrics": {
                "log_base": self.log_base,
                "cutoffs": list(self.cutoffs),
            },
            "episodes": {"policy": self.episode_policy},
            "augment": {"strategy": self.strategy, "k": self.k, "batch_size": self.batch_size},
            "generation": {
                "backend": self.generation.backend,
                "language": self.generation.language,
                "template": str(self.generation.template) if self.generation.template else None,
                "items": self.generation.items,
                "max_attempts": self.generation.max_attempts,
                "concurrency": self.generation.concurrency,
                "http": {
                    "base_url": self.generation.http.base_url,
                    "model": self.generation.http.model,
                    "token_env": self.generation.http.token_env,
                    "timeout": self.generation.http.timeout,
                },
            },
            "seed": self.seed,
        }
        return _redact(raw)


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


def _parse_number(value: Any, name: str, expected: str = "a number") -> float:
    """A YAML int or float (not a bool or string); an int past the float
    range reads as infinity."""
    if type(value) not in (int, float):
        raise ConfigError(f"{name} must be {expected}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _parse_log_base(value: Any) -> float:
    if value in (None, "e", "natural"):
        return math.e
    base = _parse_number(value, "metrics.log_base", "'e', 'natural' or a number")
    # the rank discount log_b(r) + 1 must stay >= 1 for every rank r >= 1
    if not 1 < base < math.inf:
        raise ConfigError(f"metrics.log_base must be greater than 1, got {value!r}")
    return base


def _parse_int(value: Any, name: str, minimum: int) -> int:
    """A YAML integer (not a bool, float or string) of at least ``minimum``."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _parse_timeout(value: Any) -> float:
    """A YAML int or float (not a bool or string), finite and > 0."""
    timeout = _parse_number(value, "generation.http.timeout")
    if not 0 < timeout < math.inf:
        raise ConfigError(f"generation.http.timeout must be finite and > 0, got {value!r}")
    return timeout


def _parse_string(value: Any, name: str, optional: bool) -> str | None:
    """A non-empty YAML string, or null when ``optional``."""
    if value is None and optional:
        return None
    if type(value) is not str or not value:
        expected = "null or a non-empty string" if optional else "a non-empty string"
        raise ConfigError(f"{name} must be {expected}, got {value!r}")
    return value


def _parse_base_url(value: Any) -> str | None:
    """Null, or a non-empty string that starts with ``http://`` or ``https://``."""
    base_url = _parse_string(value, "generation.http.base_url", True)
    if base_url is not None and not base_url.lower().startswith(("http://", "https://")):
        raise ConfigError(
            "generation.http.base_url must be a URL starting with http:// or https://, "
            f"got {base_url!r}"
        )
    return base_url


def _parse_items(value: Any) -> list[str] | None:
    """A non-empty YAML list of distinct item ids, each read by ``corpus.parse_id``."""
    if value is None:
        return None
    if type(value) is not list or not value:
        raise ConfigError(f"generation.items must be a non-empty list of item ids, got {value!r}")
    try:
        items = [parse_id(item, "each item id") for item in value]
    except CorpusError as exc:
        raise ConfigError(f"generation.items must be a list of item ids: {exc}") from None
    repeated = sorted(item for item, count in Counter(items).items() if count > 1)
    if repeated:
        raise ConfigError(f"generation.items must be distinct ids; repeated: {repeated}")
    return items


def _parse_eta(section: Mapping[str, Any]) -> ThresholdPolicy:
    kind = section.get("kind", "count_threshold")
    if kind == "count_threshold":
        min_count = _parse_int(section.get("min_count", 5), "popularity.eta.min_count", 1)
        return ThresholdPolicy.count_threshold(min_count)
    if kind == "quantile":
        if "top_fraction" not in section:
            raise ConfigError("popularity.eta.top_fraction is required for quantile policy")
        top_fraction = _parse_number(section["top_fraction"], "popularity.eta.top_fraction")
        try:
            return ThresholdPolicy.quantile(top_fraction)
        except ValueError as exc:
            raise ConfigError(f"popularity.eta: {exc}") from exc
    raise ConfigError(f"popularity.eta.kind: unknown policy {kind!r}")


def _resolve(base: Path, value: Any) -> Path:
    path = Path(str(value))
    return path if path.is_absolute() else base / path


def load_config(path: str | Path, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    base = path.parent
    paths = data.get("paths") or {}
    # metrics.n_workers, from older configs, is accepted and ignored: scoring is columnar
    metrics = data.get("metrics") or {}
    augment = data.get("augment") or {}
    episodes = data.get("episodes") or {}
    generation = data.get("generation") or {}
    http = generation.get("http") or {}
    eta = (data.get("popularity") or {}).get("eta") or {}

    # unset CLI flags arrive as None and must not mask config values
    overrides = {key: value for key, value in (overrides or {}).items() if value is not None}
    if "output_dir" in overrides:
        output_dir = Path(overrides["output_dir"])
    elif paths.get("output_dir") is not None:
        output_dir = _resolve(base, paths["output_dir"])
    else:
        output_dir = base / "out"

    cutoffs = metrics.get("cutoffs", [10, 50])
    if type(cutoffs) is not list or not cutoffs:
        raise ConfigError(f"metrics.cutoffs must be a non-empty list, got {cutoffs!r}")
    cutoffs = tuple(_parse_int(k, "metrics.cutoffs", 1) for k in cutoffs)

    seed = overrides.get("seed", data.get("seed"))
    if seed is not None:
        seed = _parse_int(seed, "seed", 0)

    episode_policy = episodes.get("policy", "accept_boundary")
    if episode_policy not in ("explicit", "accept_boundary"):
        raise ConfigError(f"episodes.policy: unknown policy {episode_policy!r}")

    strategy = overrides.get("strategy", augment.get("strategy", "pop_nudge"))
    if strategy not in ("once_aug", "pop_nudge"):
        raise ConfigError(f"augment.strategy: unknown strategy {strategy!r}")

    backend = generation.get("backend", "offline_template")
    if backend not in ("offline_template", "http_chat"):
        raise ConfigError(f"generation.backend: unknown backend {backend!r}")

    language = generation.get("language", "en")
    if type(language) is not str or language not in LANGUAGES:
        raise ConfigError(
            f"generation.language must be one of {sorted(LANGUAGES)}, got {language!r}"
        )

    config = RunConfig(
        corpus=_resolve(base, paths["corpus"]) if paths.get("corpus") else None,
        catalog=_resolve(base, paths["catalog"]) if paths.get("catalog") else None,
        runs=[_resolve(base, p) for p in paths.get("runs", []) or []],
        pool=_resolve(base, paths["pool"]) if paths.get("pool") else None,
        output_dir=output_dir,
        eta_policy=_parse_eta(eta),
        log_base=_parse_log_base(metrics.get("log_base")),
        cutoffs=cutoffs,
        episode_policy=episode_policy,
        strategy=strategy,
        k=_parse_int(overrides.get("k", augment.get("k", 1)), "augment.k", 1),
        batch_size=_parse_int(
            overrides.get("batch_size", augment.get("batch_size", 32)), "augment.batch_size", 1
        ),
        seed=seed,
        generation=GenerationSettings(
            backend=backend,
            language=language,
            template=_resolve(base, generation["template"]) if generation.get("template") else None,
            items=_parse_items(generation.get("items")),
            max_attempts=_parse_int(
                generation.get("max_attempts", 3), "generation.max_attempts", 1
            ),
            concurrency=_parse_int(generation.get("concurrency", 1), "generation.concurrency", 1),
            http=HttpSettings(
                base_url=_parse_base_url(http.get("base_url")),
                model=_parse_string(http.get("model"), "generation.http.model", True),
                token_env=_parse_string(
                    http.get("token_env", "CRSBIAS_LLM_TOKEN"), "generation.http.token_env", False
                ),
                timeout=_parse_timeout(http.get("timeout", 30.0)),
            ),
        ),
    )
    return config

"""Declarative run configuration for the command-line tools.

One YAML file describes paths, the popularity threshold, metric settings and
augmentation/generation parameters; command-line flags override individual
fields. Relative paths are resolved against the config file's directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import yaml

from .popularity import ThresholdPolicy


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
    concurrency: int = 4
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


def _parse_log_base(value: Any) -> float:
    if value in (None, "e", "natural"):
        return math.e
    try:
        base = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"metrics.log_base: expected 'e' or a number, got {value!r}") from None
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


def _parse_eta(section: Mapping[str, Any]) -> ThresholdPolicy:
    kind = section.get("kind", "count_threshold")
    try:
        if kind == "count_threshold":
            return ThresholdPolicy.count_threshold(int(section.get("min_count", 5)))
        if kind == "quantile":
            if "top_fraction" not in section:
                raise ConfigError("popularity.eta.top_fraction is required for quantile policy")
            return ThresholdPolicy.quantile(float(section["top_fraction"]))
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

    try:
        cutoffs = tuple(int(k) for k in metrics.get("cutoffs", (10, 50)))
    except (TypeError, ValueError):
        raise ConfigError("metrics.cutoffs must be a list of integers") from None
    if any(k < 1 for k in cutoffs) or not cutoffs:
        raise ConfigError("metrics.cutoffs must be positive integers")

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

    items = generation.get("items")
    if items is not None:
        items = [str(i) for i in items]

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
            language=str(generation.get("language", "en")),
            template=_resolve(base, generation["template"]) if generation.get("template") else None,
            items=items,
            max_attempts=_parse_int(
                generation.get("max_attempts", 3), "generation.max_attempts", 1
            ),
            concurrency=_parse_int(generation.get("concurrency", 4), "generation.concurrency", 1),
            http=HttpSettings(
                base_url=http.get("base_url"),
                model=http.get("model"),
                token_env=str(http.get("token_env", "CRSBIAS_LLM_TOKEN")),
                timeout=float(http.get("timeout", 30.0)),
            ),
        ),
    )
    return config

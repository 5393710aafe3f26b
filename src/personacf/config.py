"""Run configuration: one YAML file per run, unknown keys rejected.

The loss and eval sections are the trainer's and the ranker's own
dataclasses, and the model, taste and aisp sections check their sizes,
so every value is validated while the file is parsed.

Defaults follow the evaluated setup: 64-dim embeddings and attention
space, 4 negatives per positive, Adam at 0.001 with batches of 256,
100-dim PCA, 50 taste clusters, 30-item recommendation lists.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import get_args, get_type_hints

import yaml

from .corpus import RatingFormat
from .ranking import RankingProtocol
from .trainer import LossConfig


class ConfigError(ValueError):
    pass


_ACCEPTS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _check_types(cls, raw: dict, context: str) -> None:
    """Reject a value that does not fit its field's declared int, float,
    bool or str type (optionally ``| None``); other field types go
    unchecked. A float field accepts an int, and only a bool field accepts
    a bool."""
    hints = get_type_hints(cls)
    for name, value in raw.items():
        hint, optional = hints[name], type(None) in get_args(hints[name])
        if optional:  # ``X | None``
            hint = next(h for h in get_args(hint) if h is not type(None))
        if hint not in _ACCEPTS or (optional and value is None):
            continue
        if not isinstance(value, _ACCEPTS[hint]) or isinstance(value, bool) != (hint is bool):
            kind = f"{type(value).__name__} {value!r}"
            raise ConfigError(f"{context}: {name} must be {hint.__name__}, got {kind}")


def _from_dict(cls, raw: dict, context: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(raw).__name__}")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    _check_types(cls, raw, context)
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _require_positive(section, names: tuple[str, ...]) -> None:
    small = [name for name in names if getattr(section, name) < 1]
    if small:
        raise ValueError(f"{', '.join(small)} must be >= 1")


@dataclass(frozen=True)
class DatasetConfig(RatingFormat):  # so the format is checked as the config loads
    path: str = ""


@dataclass
class ModelSection:
    embedding_dim: int = 64
    attention_dim: int = 64
    personas: int = 2

    def __post_init__(self):
        _require_positive(self, ("embedding_dim", "attention_dim", "personas"))


@dataclass
class TasteSection:
    pca_dims: int = 100
    clusters: int = 50
    list_size: int = 30
    center: bool = True

    def __post_init__(self):
        _require_positive(self, ("pca_dims", "clusters", "list_size"))


@dataclass
class AispSection:
    personas: int = 2

    def __post_init__(self):
        _require_positive(self, ("personas",))


@dataclass
class RunConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelSection = field(default_factory=ModelSection)
    loss: LossConfig = field(default_factory=LossConfig)
    eval: RankingProtocol = field(default_factory=RankingProtocol)
    taste: TasteSection = field(default_factory=TasteSection)
    aisp: AispSection = field(default_factory=AispSection)
    seed: int = 0
    output_dir: str = "runs/default"
    deterministic: bool = True

    def hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    sections = {k: t for k, t in get_type_hints(RunConfig).items() if is_dataclass(t)}
    raw = {k: _from_dict(sections[k], v, k) if k in sections else v for k, v in raw.items()}
    return _from_dict(RunConfig, raw, "config")


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return parse_config({} if raw is None else raw)  # an empty file is all defaults

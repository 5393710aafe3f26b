"""Run configuration: one YAML file per run, unknown keys rejected.

The dataset, loss and eval sections are the corpus's, trainer's and
ranker's own dataclasses. Each field declares its type and range, which
``fields.check_fields`` enforces as the section is built, so a bad value
fails while the file is parsed.

Defaults follow the evaluated setup: 64-dim embeddings and attention
space, 4 negatives per positive, Adam at 0.001 with batches of 256,
100-dim PCA, 50 taste clusters, 30-item recommendation lists.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import get_type_hints

import yaml

from .corpus import RatingFormat
from .fields import check_fields
from .ranking import RankingProtocol
from .trainer import LossConfig


class ConfigError(ValueError):
    pass


def _from_dict(cls, raw: dict, context: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(raw).__name__}")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from None


@dataclass(frozen=True)
class DatasetConfig(RatingFormat):  # so the format is checked as the config loads
    path: str = ""


@dataclass
class ModelSection:
    embedding_dim: int = field(default=64, metadata={"min": 1})
    attention_dim: int = field(default=64, metadata={"min": 1})
    personas: int = field(default=2, metadata={"min": 1})
    __post_init__ = check_fields


@dataclass
class TasteSection:
    pca_dims: int = field(default=100, metadata={"min": 1})
    clusters: int = field(default=50, metadata={"min": 1})
    list_size: int = field(default=30, metadata={"min": 1})
    center: bool = True
    __post_init__ = check_fields


@dataclass
class AispSection:
    personas: int = field(default=2, metadata={"min": 1})
    __post_init__ = check_fields


@dataclass
class RunConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelSection = field(default_factory=ModelSection)
    loss: LossConfig = field(default_factory=LossConfig)
    eval: RankingProtocol = field(default_factory=RankingProtocol)
    taste: TasteSection = field(default_factory=TasteSection)
    aisp: AispSection = field(default_factory=AispSection)
    seed: int = field(default=0, metadata={"min": 0})
    output_dir: str = "runs/default"
    deterministic: bool = True
    __post_init__ = check_fields

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

"""Run configuration: one YAML file per run, unknown keys rejected.

The loss and eval sections are the trainer's and the ranker's own
dataclasses, so their values are validated while the file is parsed.

Defaults follow the evaluated setup: 64-dim embeddings and attention
space, 4 negatives per positive, Adam at 0.001 with batches of 256,
100-dim PCA, 50 taste clusters, 30-item recommendation lists.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

import yaml

from .ranking import RankingProtocol
from .trainer import LossConfig


class ConfigError(ValueError):
    pass


def _from_dict(cls, raw: dict, context: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(raw).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from None


@dataclass
class DatasetConfig:
    path: str = ""
    delimiter: str = "\t"
    columns: list[str] = field(default_factory=lambda: ["user", "item", "rating", "timestamp"])
    header: bool = False
    min_rating: float | None = None


@dataclass
class ModelSection:
    embedding_dim: int = 64
    attention_dim: int = 64
    personas: int = 2


@dataclass
class TasteSection:
    pca_dims: int = 100
    clusters: int = 50
    list_size: int = 30
    center: bool = True


@dataclass
class AispSection:
    personas: int = 2


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


_SECTIONS = {
    "dataset": DatasetConfig,
    "model": ModelSection,
    "loss": LossConfig,
    "eval": RankingProtocol,
    "taste": TasteSection,
    "aisp": AispSection,
}


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    top_known = set(_SECTIONS) | {"seed", "output_dir", "deterministic"}
    unknown = set(raw) - top_known
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in raw:
            kwargs[name] = _from_dict(cls, raw[name], name)
    for scalar in ("seed", "output_dir", "deterministic"):
        if scalar in raw:
            kwargs[scalar] = raw[scalar]
    return RunConfig(**kwargs)


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if raw is None:
        raw = {}
    return parse_config(raw)

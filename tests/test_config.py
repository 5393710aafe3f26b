import re
from pathlib import Path
from typing import get_args

import numpy as np
import pytest
import yaml

from conftest import config_fields
from personacf.config import (
    ConfigError,
    RunConfig,
    load_config,
    parse_config,
)
from personacf.fields import LIMITS
from personacf.model import ModelConfig
from personacf.ranking import RankingProtocol
from personacf.trainer import LossConfig

README = Path(__file__).parents[1] / "README.md"


class TestParse:
    def test_empty_mapping_gives_defaults(self):
        cfg = parse_config({})
        assert cfg == RunConfig()

    def test_partial_section_keeps_other_defaults(self):
        cfg = parse_config({"model": {"personas": 4}})
        assert cfg.model.personas == 4
        assert cfg.model.embedding_dim == 64
        assert cfg.loss.batch_size == 256

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="optimiser"):
            parse_config({"optimiser": {}})

    def test_unknown_section_key_rejected_with_context(self):
        with pytest.raises(ConfigError, match="loss.*learning_rte"):
            parse_config({"loss": {"learning_rte": 0.1}})

    def test_sections_are_the_library_dataclasses(self):
        cfg = parse_config({"loss": {"alpha": 0.25}, "eval": {"cutoff": 5}})
        assert cfg.loss == LossConfig(alpha=0.25)
        assert cfg.eval == RankingProtocol(cutoff=5)

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config({"model": 7})

    def test_root_must_be_mapping(self):
        with pytest.raises(ConfigError):
            parse_config(["model"])

    @pytest.mark.parametrize("raw", [
        {"loss": {"learning_rate": 1}},  # a float field accepts an int
        {"dataset": {"min_rating": None}},
        {"dataset": {"min_rating": 4}},
        {"dataset": {"columns": ["user", "item", "rating"]}},
        {"taste": {"center": False}},
    ])
    def test_values_of_the_declared_type_accepted(self, raw):
        parse_config(raw)

    @pytest.mark.parametrize("raw,message", [
        ({"eval": {"cutoff": True}}, "eval: cutoff must be int"),
        ({"loss": {"alpha": False}}, "loss: alpha must be float"),
        ({"taste": {"center": 1}}, "taste: center must be bool"),
        ({"dataset": {"min_rating": "4"}}, "dataset: min_rating must be float"),
        ({"deterministic": "no"}, "config: deterministic must be bool"),
        ({"dataset": {"delimiter": 5}}, "dataset: delimiter must be str"),
        ({"dataset": {"path": 5}}, "dataset: path must be str"),
        ({"eval": {"candidate_mode": None}}, "eval: candidate_mode must be str"),
        ({"output_dir": 5}, "config: output_dir must be str"),
    ])
    def test_values_of_another_type_rejected(self, raw, message):
        with pytest.raises(ConfigError, match=f"^{message}, got "):
            parse_config(raw)

    def test_scalars(self):
        cfg = parse_config({"seed": 42, "output_dir": "runs/x", "deterministic": False})
        assert cfg.seed == 42
        assert cfg.output_dir == "runs/x"
        assert cfg.deterministic is False


class TestHash:
    def test_stable(self):
        assert RunConfig().hash() == RunConfig().hash()

    def test_sensitive_to_any_field(self):
        base = RunConfig().hash()
        assert parse_config({"seed": 1}).hash() != base
        assert parse_config({"loss": {"alpha": 0.4}}).hash() != base

    def test_default_hash_pinned(self):
        # report headers of earlier runs carry this hash
        assert RunConfig().hash() == "fc2cd7b6e8bb4878"

    def test_dataset_hash_pinned(self):
        # report headers carry the hash; every dataset key is off its default
        cfg = parse_config({"dataset": {
            "path": "data/ratings.csv", "delimiter": ",",
            "columns": ["item", "user", "timestamp", "rating"], "header": True, "min_rating": 3.5,
        }})
        assert cfg.hash() == "ee1b74ba669f77e7"

    def test_sixteen_hex_chars(self):
        h = RunConfig().hash()
        assert len(h) == 16
        int(h, 16)


class TestLoad:
    def test_yaml_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("seed: 3\nmodel:\n  embedding_dim: 8\n")
        cfg = load_config(path)
        assert cfg.seed == 3
        assert cfg.model.embedding_dim == 8

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("")
        assert load_config(path) == RunConfig()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.yaml")


def table_rows():
    """(key, type, legal values, default) of every config key, as the
    README table states them."""
    for section, f, kind in config_fields():
        args = get_args(kind)
        if type(None) in args:
            kind = f"{args[0].__name__} or null"
        else:
            kind = f"list of {args[0].__name__}" if args else kind.__name__
        limits = [f"one of {', '.join(limit)}" if name == "choices"
                  else f"{LIMITS[name][0]} {limit}" for name, limit in f.metadata.items()]
        default = list(f.default) if isinstance(f.default, tuple) else f.default
        key = f.name if section == "config" else f"{section}.{f.name}"
        yield key, kind, ", ".join(limits) or "—", default


class TestContract:
    """Every config dataclass checks its fields as it is built, from a
    YAML file or a library call alike."""

    @pytest.mark.parametrize("build,message", [
        (lambda: LossConfig(batch_size=0), "batch_size must be >= 1, got 0"),
        (lambda: RankingProtocol(cutoff=0), "cutoff must be >= 1, got 0"),
        (lambda: ModelConfig(2, 4, personas=0), "personas must be >= 1, got 0"),
        (lambda: LossConfig(learning_rate=float("nan")), "learning_rate must be finite, got nan"),
        (lambda: ModelConfig(np.int64(2), 4), "num_users must be int, got int64 np.int64(2)"),
    ], ids=["loss-batch_size", "eval-cutoff", "model-personas", "loss-nan", "numpy-int"])
    def test_library_construction_is_checked(self, build, message):
        with pytest.raises((TypeError, ValueError), match=f"^{re.escape(message)}$"):
            build()

    def test_readme_table_matches_the_declared_fields(self):
        """README's table of config keys lists every key of RunConfig in
        order, with its type, its declared limits and its default."""
        rows = re.findall(r"^\| `([\w.]+)` \| (.+?) \| (.+?) \| `(.*)` \|$",
                          README.read_text(), re.M)
        assert [(key, kind, limits, yaml.safe_load(default))
                for key, kind, limits, default in rows] == list(table_rows())


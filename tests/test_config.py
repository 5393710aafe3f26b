import pytest

from personacf.config import (
    ConfigError,
    RunConfig,
    load_config,
    parse_config,
)
from personacf.ranking import RankingProtocol
from personacf.trainer import LossConfig


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

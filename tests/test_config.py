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

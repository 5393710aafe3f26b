import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import personacf
from personacf.cli import main


@pytest.fixture
def ratings_file(tmp_path):
    """Small implicit-feedback corpus: 20 users over 12 items."""
    rng = np.random.default_rng(0)
    lines = []
    ts = 1000
    for u in range(20):
        items = rng.permutation(12)[:6]
        for j in items:
            lines.append(f"u{u}\ti{j}\t5\t{ts}")
            ts += 1
    path = tmp_path / "ratings.tsv"
    path.write_text("\n".join(lines) + "\n")
    return path


def write_config(tmp_path, ratings_file, out_dir, **overrides):
    raw = {
        "dataset": {"path": str(ratings_file)},
        "model": {"embedding_dim": 8, "attention_dim": 8, "personas": 2},
        "loss": {"batch_size": 16, "max_epochs": 2, "patience": 5},
        "eval": {"num_sampled_negatives": 4, "cutoff": 3},
        "taste": {"pca_dims": 6, "clusters": 3, "list_size": 4},
        "seed": 0,
        "output_dir": str(out_dir),
    }
    raw.update(overrides)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


class TestTrain:
    def test_writes_checkpoint_and_history(self, tmp_path, ratings_file):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, ratings_file, out)
        assert main(["train", "-c", str(cfg)]) == 0
        assert (out / "checkpoint.npz").exists()
        history = (out / "history.tsv").read_text()
        assert "epoch\tdata_loss" in history
        assert history.startswith("# config_hash")

    def test_two_runs_byte_identical(self, tmp_path, ratings_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_config(tmp_path, ratings_file, out_a)
        assert main(["train", "-c", str(cfg_a)]) == 0
        cfg_b = write_config(tmp_path, ratings_file, out_b, output_dir=str(out_b))
        assert main(["train", "-c", str(cfg_b)]) == 0
        hist_a = (out_a / "history.tsv").read_text()
        hist_b = (out_b / "history.tsv").read_text()
        # the config hash differs (output_dir is part of it) but every
        # numeric line must agree
        assert hist_a.splitlines()[1:] == hist_b.splitlines()[1:]

    def test_same_config_checkpoints_identical(self, tmp_path, ratings_file):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, ratings_file, out)
        assert main(["train", "-c", str(cfg)]) == 0
        first = (out / "checkpoint.npz").read_bytes()
        assert main(["train", "-c", str(cfg)]) == 0
        assert (out / "checkpoint.npz").read_bytes() == first


class TestErrors:
    def test_missing_dataset_path(self, tmp_path, ratings_file):
        cfg = write_config(tmp_path, ratings_file, tmp_path / "o",
                           dataset={"path": ""})
        assert main(["train", "-c", str(cfg)]) == 1

    def test_nonexistent_dataset(self, tmp_path, ratings_file):
        cfg = write_config(tmp_path, ratings_file, tmp_path / "o",
                           dataset={"path": str(tmp_path / "nope.tsv")})
        assert main(["train", "-c", str(cfg)]) == 1

    def test_unknown_config_key(self, tmp_path, ratings_file):
        cfg = write_config(tmp_path, ratings_file, tmp_path / "o", bogus=1)
        assert main(["train", "-c", str(cfg)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "-c", str(tmp_path / "absent.yaml")]) == 1

    def test_checkpoint_shape_mismatch(self, tmp_path, ratings_file, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, ratings_file, out)
        assert main(["train", "-c", str(cfg)]) == 0
        # shrink the dataset so the checkpoint no longer matches it
        small = tmp_path / "small.tsv"
        lines = ratings_file.read_text().splitlines()
        small.write_text("\n".join(lines[:60]) + "\n")
        cfg2 = write_config(tmp_path, ratings_file, out, dataset={"path": str(small)})
        assert main(["eval", "-c", str(cfg2),
                     "--checkpoint", str(out / "checkpoint.npz")]) == 1
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("section,values", [
        ("loss", {"alpha": 2.0}),
        ("eval", {"candidate_mode": "bogus"}),
        ("eval", {"cutoff": 0}),
        ("loss", {"negatives_per_positive": 0}),
    ])
    def test_invalid_value_is_a_config_error(self, tmp_path, ratings_file, capsys,
                                              section, values):
        cfg = write_config(tmp_path, ratings_file, tmp_path / "o", **{section: values})
        assert main(["train", "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {section}: ")

    def test_no_drawable_negative_exits_instead_of_hanging(self, tmp_path):
        # after the split each user trains on item 1 alone, the only item
        # with sampling mass, so every negative draw would be rejected
        ratings = tmp_path / "ratings.tsv"
        rows = [("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 2), ("b", 4)]
        ratings.write_text("".join(f"{u}\t{j}\t5\t{t}\n" for t, (u, j) in enumerate(rows)))
        cfg = write_config(tmp_path, ratings, tmp_path / "o")
        env = {**os.environ, "PYTHONPATH": str(Path(personacf.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "personacf.cli", "train", "-c", str(cfg)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: user 'a'")

    def test_truncated_checkpoint_block(self, tmp_path, ratings_file, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, ratings_file, out)
        assert main(["train", "-c", str(cfg)]) == 0
        ckpt = out / "checkpoint.npz"
        with np.load(ckpt) as data:
            blocks = dict(data)
        blocks["item_vectors"] = blocks["item_vectors"][:-1]
        np.savez(ckpt, **blocks)
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "item_vectors" in err


class TestPipeline:
    @pytest.fixture
    def trained(self, tmp_path, ratings_file):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, ratings_file, out)
        assert main(["train", "-c", str(cfg)]) == 0
        return cfg, out

    def test_eval(self, trained):
        cfg, out = trained
        assert main(["eval", "-c", str(cfg),
                     "--checkpoint", str(out / "checkpoint.npz")]) == 0
        report = (out / "ranking_report.tsv").read_text()
        assert "# hr@3" in report
        assert "# ndcg@3" in report

    def test_tdd_and_taste_space_cache(self, trained):
        cfg, out = trained
        ckpt = str(out / "checkpoint.npz")
        assert main(["tdd", "-c", str(cfg), "--checkpoint", ckpt]) == 0
        cache = out / "taste_space.npz"
        assert cache.exists()
        report_1 = (out / "tdd_report.tsv").read_text()
        stamp = cache.stat().st_mtime_ns
        assert main(["tdd", "-c", str(cfg), "--checkpoint", ckpt]) == 0
        assert cache.stat().st_mtime_ns == stamp  # reused, not rebuilt
        assert (out / "tdd_report.tsv").read_text() == report_1

    def test_aisp(self, trained):
        cfg, out = trained
        assert main(["aisp", "-c", str(cfg)]) == 0
        assert (out / "aisp_ranking_report.tsv").exists()
        assert (out / "aisp_tdd_report.tsv").exists()

    def test_explain_stdout(self, trained, capsys):
        cfg, out = trained
        assert main(["explain", "-c", str(cfg),
                     "--checkpoint", str(out / "checkpoint.npz"),
                     "--user", "u3", "--top", "4"]) == 0
        text = capsys.readouterr().out
        assert "## Persona 0" in text
        assert "## Final list" in text

    def test_explain_titles_to_file(self, trained, tmp_path):
        cfg, out = trained
        titles = tmp_path / "titles.tsv"
        titles.write_text("i0\tItem Zero\ni1\tItem One\n")
        dest = tmp_path / "explain.md"
        assert main(["explain", "-c", str(cfg),
                     "--checkpoint", str(out / "checkpoint.npz"),
                     "--user", "u0", "--titles", str(titles),
                     "-o", str(dest)]) == 0
        text = dest.read_text()
        assert "Item Zero" in text or "Item One" in text or "i" in text

    def test_explain_unknown_user(self, trained):
        cfg, out = trained
        assert main(["explain", "-c", str(cfg),
                     "--checkpoint", str(out / "checkpoint.npz"),
                     "--user", "nobody"]) == 1

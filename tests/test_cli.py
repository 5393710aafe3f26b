import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from typing import get_args

import numpy as np
import pytest
import yaml

import personacf
from conftest import config_fields
from personacf.cli import main
from personacf.config import load_config
from personacf.taste import load_taste_space, save_taste_space


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


def write_unreadable_npz(path, kind):
    """Overwrite the .npz at ``path`` with a file numpy cannot read as one."""
    if kind == "npy":
        np.save(path.with_suffix(".npy"), np.arange(3.0))
        path.with_suffix(".npy").replace(path)
        return
    whole = path.read_bytes()
    path.write_bytes({
        "empty": b"",
        "text": b"user\titem\n",  # np.load takes this for pickled data
        "not-a-zip": b"PK\x03\x04" + bytes(64),
        "truncated-zip": whole[: len(whole) // 2],
    }[kind])


UNREADABLE_NPZ = ["empty", "text", "not-a-zip", "truncated-zip", "npy"]


def just_past(key, limit, kind):
    """A ``kind`` value just outside the declared limit ``key: limit``."""
    if key == "choices":
        return "bogus"
    if key in ("above", "below"):
        return kind(limit)
    direction = -1 if key == "min" else 1
    return limit + direction if kind is int else math.nextafter(limit, direction * math.inf)


def contract_cases():
    """(section, key, bad value) for every int and float config field: a
    value of another type, NaN, +-inf and one just past each declared
    limit; plus a value outside a string field's choices."""
    cases = []
    for section, f, kind in config_fields():
        kind = get_args(kind)[0] if type(None) in get_args(kind) else kind  # X | None
        if kind in (int, float):
            other = 2.5 if kind is int else True
            cases += [(section, f.name, v) for v in (other, math.nan, math.inf, -math.inf)]
        cases += [(section, f.name, just_past(*item, kind)) for item in f.metadata.items()]
    return cases


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

    def test_checkpoint_ids_must_match_the_dataset(self, tmp_path, ratings_file, capsys):
        # the same rows with the user blocks reversed: equal counts, but
        # users (and items) get other dense indices
        out = tmp_path / "run"
        cfg = write_config(tmp_path, ratings_file, out)
        assert main(["train", "-c", str(cfg)]) == 0
        lines = ratings_file.read_text().splitlines()
        blocks = [lines[i:i + 6] for i in range(0, len(lines), 6)]  # 6 events per user
        reordered = tmp_path / "reordered.tsv"
        reordered.write_text("".join(line + "\n" for block in blocks[::-1] for line in block))
        cfg2 = write_config(tmp_path, reordered, out)
        ckpt = out / "checkpoint.npz"
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg2), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {ckpt}: the stored user ids are not the dataset's\n"

    @pytest.mark.parametrize("section,values", [
        ("loss", {"alpha": 2.0}),
        ("eval", {"candidate_mode": "bogus"}),
        ("eval", {"cutoff": 0}),
        ("loss", {"negatives_per_positive": 0}),
        ("loss", {"batch_size": 0}),
        ("eval", {"num_sampled_negatives": -1}),
        ("loss", {"max_epochs": 0}),
    ])
    def test_invalid_value_is_a_config_error(self, tmp_path, ratings_file, capsys,
                                              section, values):
        cfg = write_config(tmp_path, ratings_file, tmp_path / "o", **{section: values})
        assert main(["train", "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {section}: ")

    @pytest.mark.parametrize("section,key,text", [
        ("loss", "batch_size", "16.5"),
        ("model", "personas", "2.5"),
        ("config", "seed", "abc"),
        ("loss", "learning_rate", "1e-3"),  # YAML 1.1 reads this as a string
        ("dataset", "delimiter", "5"),
        ("config", "output_dir", "5"),
    ])
    def test_mistyped_value_is_a_config_error(self, tmp_path, ratings_file, capsys,
                                               section, key, text):
        cfg = write_config(tmp_path, ratings_file, tmp_path / "o")
        raw = yaml.safe_load(cfg.read_text())
        (raw if section == "config" else raw[section])[key] = "VALUE"
        cfg.write_text(yaml.safe_dump(raw).replace("VALUE", text))
        assert main(["train", "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {section}: {key} must be ")

    @pytest.mark.parametrize("section,key,value", contract_cases())
    def test_every_value_outside_the_contract_exits_one(self, tmp_path, ratings_file, capsys,
                                                        section, key, value):
        cfg = write_config(tmp_path, ratings_file, tmp_path / "o")
        raw = yaml.safe_load(cfg.read_text())
        (raw if section == "config" else raw.setdefault(section, {}))[key] = value
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["train", "-c", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}: {key} must be ") and err.count("\n") == 1

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

    def test_numeric_dataset_path_is_a_config_error(self, tmp_path, ratings_file):
        # open(5) would read file descriptor 5, so this runs in its own process
        cfg = write_config(tmp_path, ratings_file, tmp_path / "o", dataset={"path": 5})
        env = {**os.environ, "PYTHONPATH": str(Path(personacf.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "personacf.cli", "train", "-c", str(cfg)],
            capture_output=True, text=True, env=env, timeout=60, stdin=subprocess.DEVNULL,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: dataset: path must be str, got int 5")

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

    @pytest.mark.parametrize("dataset,message", [
        ({"delimiter": ""}, "the delimiter must not be empty"),
        ({"columns": ["user", "item", "rating", "rating"]}, "column names repeat"),
    ], ids=["empty-delimiter", "repeated-column"])
    def test_bad_rating_format_is_a_corpus_error(self, tmp_path, ratings_file, capsys,
                                                  dataset, message):
        cfg = write_config(tmp_path, ratings_file, tmp_path / "o",
                           dataset={"path": str(ratings_file), **dataset})
        assert main(["train", "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: dataset: {message}")

    @pytest.mark.parametrize("text", [b"seed: [1, 2\n", b"seed: 1\n# caf\xe9\n"],
                             ids=["unclosed-bracket", "not-utf-8"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.yaml"
        cfg.write_bytes(text)
        assert main(["train", "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")

    def test_ratings_not_utf8_is_a_corpus_error(self, tmp_path, ratings_file, capsys):
        ratings_file.write_bytes(ratings_file.read_bytes() + b"u0\tcaf\xe9\t5\t1\n")
        cfg = write_config(tmp_path, ratings_file, tmp_path / "o")
        assert main(["train", "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {ratings_file}: 'utf-8' codec ")

    @pytest.mark.parametrize("given", ["config", "dataset", "checkpoint", "taste-space"])
    def test_directory_for_a_file_is_an_error(self, tmp_path, ratings_file, capsys, given):
        folder = tmp_path / "folder"
        folder.mkdir()
        dataset = {"path": str(folder if given == "dataset" else ratings_file)}
        cfg = str(write_config(tmp_path, ratings_file, tmp_path / "o", dataset=dataset))
        argv = {
            "config": ["train", "-c", str(folder)],
            "dataset": ["train", "-c", cfg],
            "checkpoint": ["eval", "-c", cfg, "--checkpoint", str(folder)],
            "taste-space": ["aisp", "-c", cfg, "--taste-space", str(folder)],
        }[given]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err

    @pytest.mark.parametrize("command", ["train", "eval", "tdd"])
    @pytest.mark.parametrize("where", ["file", "under-a-file"])
    def test_output_dir_that_is_a_file(self, tmp_path, ratings_file, capsys, command, where):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, ratings_file, out)
        assert main(["train", "-c", str(cfg)]) == 0
        ckpt = out / "checkpoint.npz"
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out_dir = taken if where == "file" else taken / "run"
        cfg = write_config(tmp_path, ratings_file, out_dir)
        argv = [command, "-c", str(cfg)] + ([] if command == "train" else ["--checkpoint", str(ckpt)])
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: output_dir {out_dir} is not a directory\n"
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("kind", UNREADABLE_NPZ)
    def test_unreadable_checkpoint(self, tmp_path, ratings_file, capsys, kind):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, ratings_file, out)
        assert main(["train", "-c", str(cfg)]) == 0
        ckpt = out / "checkpoint.npz"
        write_unreadable_npz(ckpt, kind)
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg), "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {ckpt} is not a readable .npz file: ")


class TestUsageErrors:
    """argparse usage errors exit 1, as config errors do; --help exits 0."""

    @pytest.mark.parametrize("argv,message", [
        (["explain", "-c", "run.yaml", "--checkpoint", "c.npz", "--user", "u0",
          "--top", "abc"], "error: argument --top: invalid int value: 'abc'"),
        (["eval", "-c", "run.yaml"], "error: the following arguments are required: --checkpoint"),
        (["frobnicate", "-c", "run.yaml"], "error: argument command: invalid choice: 'frobnicate'"),
    ], ids=["top-not-an-int", "eval-without-checkpoint", "unknown-command"])
    def test_usage_error_exits_one(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: personacf")
        assert err[-1].startswith(message)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: personacf")


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

    @pytest.mark.parametrize("command,section,key", [
        ("train", "model", "personas"),
        ("tdd", "taste", "list_size"),
        ("aisp", "aisp", "personas"),
    ])
    def test_zero_size_is_a_config_error(self, trained, capsys, command, section, key):
        cfg, out = trained
        raw = yaml.safe_load(cfg.read_text())
        raw.setdefault(section, {})[key] = 0
        cfg.write_text(yaml.safe_dump(raw))
        argv = [command, "-c", str(cfg)]
        if command == "tdd":
            argv += ["--checkpoint", str(out / "checkpoint.npz")]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {section}: {key} must be >= 1")

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

    @staticmethod
    def _save_misshapen_space(cfg, out, dest, block):
        """Build the real taste space with ``tdd``, then write a copy to
        ``dest`` with one item row, one cluster-mean column or every
        cluster mean dropped."""
        assert main(["tdd", "-c", str(cfg), "--checkpoint", str(out / "checkpoint.npz")]) == 0
        space = load_taste_space(out / "taste_space.npz")
        if block == "item_vectors":
            space.item_vectors = space.item_vectors[:-1]
        elif block == "cluster_means":
            space.cluster_means = space.cluster_means[:, :-1]
        else:
            space.cluster_means = space.cluster_means[:0]
        save_taste_space(dest, space)

    @pytest.mark.parametrize("block", ["item_vectors", "cluster_means", "no-cluster-means"])
    @pytest.mark.parametrize("command", ["tdd", "aisp"])
    def test_misshapen_taste_space_file_is_an_error(self, trained, tmp_path, capsys,
                                                     command, block):
        cfg, out = trained
        stale = tmp_path / "stale.npz"
        self._save_misshapen_space(cfg, out, stale, block)
        argv = [command, "-c", str(cfg), "--taste-space", str(stale)]
        if command == "tdd":
            argv += ["--checkpoint", str(out / "checkpoint.npz")]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: taste space {stale} has ")

    @pytest.mark.parametrize("block", ["item_vectors", "cluster_means"])
    def test_misshapen_default_taste_space_is_rebuilt(self, trained, tmp_path, block):
        cfg, out = trained
        ckpt = str(out / "checkpoint.npz")
        cache = out / "taste_space.npz"
        assert main(["tdd", "-c", str(cfg), "--checkpoint", ckpt]) == 0
        fresh_space = cache.read_bytes()
        fresh_report = (out / "tdd_report.tsv").read_text()
        self._save_misshapen_space(cfg, out, cache, block)
        assert main(["tdd", "-c", str(cfg), "--checkpoint", ckpt]) == 0
        assert cache.read_bytes() == fresh_space
        assert (out / "tdd_report.tsv").read_text() == fresh_report

    @pytest.mark.parametrize("command", ["tdd", "aisp"])
    def test_default_taste_space_without_cluster_means_is_rebuilt(self, trained, command):
        cfg, out = trained
        argv = [command, "-c", str(cfg)]
        if command == "tdd":
            argv += ["--checkpoint", str(out / "checkpoint.npz")]
        cache = out / "taste_space.npz"
        report = out / ("tdd_report.tsv" if command == "tdd" else "aisp_tdd_report.tsv")
        assert main(argv) == 0
        fresh_space, fresh_report = cache.read_bytes(), report.read_text()
        self._save_misshapen_space(cfg, out, cache, "no-cluster-means")
        assert main(argv) == 0
        assert cache.read_bytes() == fresh_space
        assert report.read_text() == fresh_report

    @staticmethod
    def _save_nonfinite_space(cfg, out, dest, block, value):
        """Build the real taste space with ``tdd``, then write a copy to
        ``dest`` with one entry of ``block`` set to ``value``."""
        assert main(["tdd", "-c", str(cfg), "--checkpoint", str(out / "checkpoint.npz")]) == 0
        space = load_taste_space(out / "taste_space.npz")
        getattr(space, block)[-1, 0] = value
        save_taste_space(dest, space)

    @pytest.mark.parametrize("block,value", [("item_vectors", np.nan),
                                             ("cluster_means", np.inf)])
    def test_nonfinite_taste_space_file_is_an_error(self, trained, tmp_path, capsys,
                                                     block, value):
        cfg, out = trained
        bad = tmp_path / "bad.npz"
        self._save_nonfinite_space(cfg, out, bad, block, value)
        capsys.readouterr()
        argv = ["tdd", "-c", str(cfg), "--checkpoint", str(out / "checkpoint.npz"),
                "--taste-space", str(bad)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"error: taste space {bad}: {block} holds a non-finite value"
        )

    @pytest.mark.parametrize("block,value", [("item_vectors", np.nan),
                                             ("cluster_means", np.inf)])
    def test_nonfinite_default_taste_space_is_rebuilt(self, trained, block, value):
        cfg, out = trained
        ckpt = str(out / "checkpoint.npz")
        cache = out / "taste_space.npz"
        assert main(["tdd", "-c", str(cfg), "--checkpoint", ckpt]) == 0
        fresh_space = cache.read_bytes()
        fresh_report = (out / "tdd_report.tsv").read_text()
        self._save_nonfinite_space(cfg, out, cache, block, value)
        assert main(["tdd", "-c", str(cfg), "--checkpoint", ckpt]) == 0
        assert cache.read_bytes() == fresh_space
        assert (out / "tdd_report.tsv").read_text() == fresh_report

    @pytest.mark.parametrize("kind", [*UNREADABLE_NPZ, "no-meta"])
    @pytest.mark.parametrize("command", ["tdd", "aisp"])
    def test_unreadable_taste_space_file_is_an_error(self, trained, tmp_path, capsys,
                                                      command, kind):
        cfg, out = trained
        bad = tmp_path / "bad.npz"
        self._save_unreadable_space(cfg, out, bad, kind)
        argv = [command, "-c", str(cfg), "--taste-space", str(bad)]
        if command == "tdd":
            argv += ["--checkpoint", str(out / "checkpoint.npz")]
        capsys.readouterr()
        assert main(argv) == 1
        expected = "is not a taste space" if kind == "no-meta" else "is not a readable .npz file"
        assert capsys.readouterr().err.startswith(f"error: {bad} {expected}: ")

    @pytest.mark.parametrize("kind", [*UNREADABLE_NPZ, "no-meta"])
    def test_unreadable_default_taste_space_is_rebuilt(self, trained, kind):
        cfg, out = trained
        ckpt = str(out / "checkpoint.npz")
        cache = out / "taste_space.npz"
        assert main(["tdd", "-c", str(cfg), "--checkpoint", ckpt]) == 0
        fresh_space = cache.read_bytes()
        fresh_report = (out / "tdd_report.tsv").read_text()
        self._save_unreadable_space(cfg, out, cache, kind)
        assert main(["tdd", "-c", str(cfg), "--checkpoint", ckpt]) == 0
        assert cache.read_bytes() == fresh_space
        assert (out / "tdd_report.tsv").read_text() == fresh_report

    @staticmethod
    def _save_unreadable_space(cfg, out, dest, kind):
        """Build the real taste space with ``tdd`` and copy it to ``dest``,
        then spoil the copy: without its ``meta`` record, or not an .npz."""
        assert main(["tdd", "-c", str(cfg), "--checkpoint", str(out / "checkpoint.npz")]) == 0
        with np.load(out / "taste_space.npz") as data:
            blocks = dict(data)
        if kind == "no-meta":
            del blocks["meta"]
        np.savez(dest, **blocks)
        if kind != "no-meta":
            write_unreadable_npz(dest, kind)

    def test_timestamp_only_outside_deterministic_mode(self, tmp_path, ratings_file):
        """``deterministic: false`` adds one ``# timestamp`` line after
        ``# seed`` to each report and changes nothing else but the hash."""
        out = tmp_path / "run"
        ckpt = str(out / "checkpoint.npz")
        reports = {}
        for deterministic in (True, False):
            cfg = write_config(tmp_path, ratings_file, out, deterministic=deterministic)
            for argv in (["train"], ["eval", "--checkpoint", ckpt], ["tdd", "--checkpoint", ckpt]):
                assert main([argv[0], "-c", str(cfg), *argv[1:]]) == 0
            names = ("history.tsv", "ranking_report.tsv", "tdd_report.tsv")
            reports[deterministic] = {name: (out / name).read_text() for name in names}
            config_hash = load_config(cfg).hash()
            assert all(text.startswith(f"# config_hash\t{config_hash}\n# seed\t0\n")
                       for text in reports[deterministic].values())
        for name, text in reports[False].items():
            lines = text.splitlines(keepends=True)
            assert [line.startswith("# timestamp\t") for line in lines].count(True) == 1
            assert re.fullmatch(r"# timestamp\t\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\n", lines[2])
            assert "".join(lines[1:2] + lines[3:]) == reports[True][name].split("\n", 1)[1]

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

    def test_titles_file_rows(self, trained, tmp_path):
        # every item shows: the user's training items plus all unconsumed ones
        cfg, out = trained
        titles = tmp_path / "titles.tsv"
        rows = [f"i{j}\tTitle {j}" for j in range(12)]
        rows[4] = "i4\tFour\twith a tab"  # the title is everything after the first delimiter
        rows += ["", "i2\tSecond title for 2"]  # an empty row is skipped; a repeat wins
        titles.write_text("\n".join(rows) + "\n")
        dest = tmp_path / "explain.md"
        assert main(["explain", "-c", str(cfg), "--checkpoint", str(out / "checkpoint.npz"),
                     "--user", "u0", "--titles", str(titles), "-o", str(dest)]) == 0
        text = dest.read_text()
        assert "| Second title for 2 |" in text and "Title 2 " not in text
        assert "| Four\twith a tab |" in text
        for j in (0, 1, 5, 11):
            assert f"| Title {j} |" in text

    def test_titles_file_with_crlf_line_ends(self, trained, tmp_path):
        # the file is read in text mode, which turns CRLF into "\n"; a
        # binary or newline="" read would leave a CR in every title
        cfg, out = trained
        titles = tmp_path / "titles.tsv"
        titles.write_bytes("".join(f"i{j}\tTitle {j}\r\n" for j in range(12)).encode())
        dest = tmp_path / "explain.md"
        assert main(["explain", "-c", str(cfg), "--checkpoint", str(out / "checkpoint.npz"),
                     "--user", "u0", "--titles", str(titles), "-o", str(dest)]) == 0
        text = dest.read_bytes()  # bytes: read_text would turn a stray CR into a newline
        assert b"\r" not in text
        for j in range(12):
            assert f"| Title {j} |".encode() in text

    def test_titles_not_utf8_is_a_config_error(self, trained, tmp_path, capsys):
        cfg, out = trained
        titles = tmp_path / "titles.tsv"
        titles.write_bytes(b"i0\tItem Zero\ni1\tcaf\xe9\n")
        capsys.readouterr()
        assert main(["explain", "-c", str(cfg), "--checkpoint", str(out / "checkpoint.npz"),
                     "--user", "u0", "--titles", str(titles)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {titles}: 'utf-8' codec ")

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_explain_nonpositive_top(self, trained, capsys, top):
        cfg, out = trained
        assert main(["explain", "-c", str(cfg), "--checkpoint", str(out / "checkpoint.npz"),
                     "--user", "u0", "--top", top]) == 1
        assert capsys.readouterr().err.startswith("error: --top must be >= 1")

    def test_explain_empty_titles_delimiter(self, trained, tmp_path, capsys):
        cfg, out = trained
        titles = tmp_path / "titles.tsv"
        titles.write_text("i0\tItem Zero\n")
        assert main(["explain", "-c", str(cfg), "--checkpoint", str(out / "checkpoint.npz"),
                     "--user", "u0", "--titles", str(titles), "--titles-delimiter", ""]) == 1
        assert capsys.readouterr().err == "error: --titles-delimiter must not be empty\n"

    @pytest.mark.parametrize("block,config,message", [
        ("item_bias", {}, "block 'item_bias' holds a non-finite value"),
        ("personas", {}, "block 'personas' holds a non-finite value"),
        (None, {"personas": 0}, "personas must be >= 1, got 0"),
        (None, {"personas": True}, "personas must be int, got bool True"),
        (None, {"num_items": 0}, "num_items must be >= 1, got 0"),
    ], ids=["nan-block", "inf-block", "zero-personas", "bool-personas", "zero-items"])
    def test_invalid_checkpoint_is_an_error(self, trained, capsys, block, config, message):
        cfg, out = trained
        ckpt = out / "checkpoint.npz"
        with np.load(ckpt) as data:
            blocks = dict(data)
        if block:
            blocks[block].flat[-1] = np.nan if block == "item_bias" else -np.inf
        meta = json.loads(bytes(blocks["meta"]))
        meta["config"].update(config)
        blocks["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(ckpt, **blocks)
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("spoil,message", [
        (lambda meta: json.dumps({**meta, "config": {**meta["config"], "personas": 0}}),
         "stored config: personas must be >= 1, got 0"),
        (lambda meta: json.dumps({k: v for k, v in meta.items() if k != "config"}),
         "unreadable meta record (KeyError('config'))"),
        (lambda meta: json.dumps(meta)[:-1], "unreadable meta record (JSONDecodeError("),
    ], ids=["contract", "no-config-key", "not-json"])
    def test_checkpoint_meta_error_names_its_cause(self, trained, capsys, spoil, message):
        cfg, out = trained
        ckpt = out / "checkpoint.npz"
        with np.load(ckpt) as data:
            blocks = dict(data)
        meta = spoil(json.loads(bytes(blocks["meta"])))
        blocks["meta"] = np.frombuffer(meta.encode(), dtype=np.uint8)
        np.savez(ckpt, **blocks)
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: {message}") and err.count("\n") == 1

    def test_read_only_commands_start_no_thread(self, trained, monkeypatch):
        cfg, out = trained
        ckpt = str(out / "checkpoint.npz")
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        before = threading.active_count()
        for argv in (["eval", "-c", str(cfg), "--checkpoint", ckpt],
                     ["tdd", "-c", str(cfg), "--checkpoint", ckpt],
                     ["aisp", "-c", str(cfg)],
                     ["explain", "-c", str(cfg), "--checkpoint", ckpt, "--user", "u0"]):
            assert main(argv) == 0, argv
        assert started == [] and threading.active_count() == before

    def test_explain_unknown_user(self, trained):
        cfg, out = trained
        assert main(["explain", "-c", str(cfg),
                     "--checkpoint", str(out / "checkpoint.npz"),
                     "--user", "nobody"]) == 1

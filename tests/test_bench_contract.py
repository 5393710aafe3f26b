"""What the benchmark in ``perfbench/`` reads of the program.

The benchmark reaches the program through module attributes, public
names and the fields of loaded interactions. A rename would otherwise
zero a traced layer silently or fail bench operations, not tests.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from personacf.cli import main
from test_cli import ratings_file, write_config  # noqa: F401 (a fixture)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_every_traced_layer_exists(perfbench):
    import layers
    import spans

    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_traced_layers_record_spans(perfbench, tmp_path, ratings_file):  # noqa: F811
    """Each layer the CLI commands pass through records a span, so the
    set-up path still calls through the names the benchmark wraps."""
    import layers
    import spans

    cfg = str(write_config(tmp_path, ratings_file, tmp_path / "out"))
    ckpt = str(tmp_path / "out" / "checkpoint.npz")
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        assert main(["train", "-c", cfg]) == 0
        assert main(["eval", "-c", cfg, "--checkpoint", ckpt]) == 0
        assert main(["explain", "-c", cfg, "--checkpoint", ckpt, "--user", "u0"]) == 0
        assert main(["tdd", "-c", cfg, "--checkpoint", ckpt]) == 0
        assert main(["aisp", "-c", cfg]) == 0
    finally:
        tracer.uninstall()
    layer_names = {"corpus.load", "corpus.split", "model.init", "model.save", "model.load",
                   "trainer.train", "ranking.evaluate", "taste.space", "kmeans", "taste.tdd",
                   "ranking.topk", "taste.distribution", "aisp.build", "aisp.score",
                   "model.score"}
    assert layer_names - {s[spans.NAME] for s in tracer.spans} == set()
    assert tracer.counts["kmeans.lloyd_iters"] > 0


def test_reports_read_as_the_bench_reads_them(perfbench, tmp_path, ratings_file):  # noqa: F811
    """Every TSV the CLI writes splits, through the benchmark's own reader,
    into the column line and summary keys its checks look up, and passes
    those checks, including the ones that recompute ranks, distances and
    explanations through the public API and unpack what it returns."""
    import checks

    from personacf import load_checkpoint, load_ratings, split_leave_one_out

    out, out_all = tmp_path / "out", tmp_path / "all" / "out"
    out_all.parent.mkdir()
    cfg = str(write_config(tmp_path, ratings_file, out, eval={"num_sampled_negatives": 4}))
    cfg_all = str(write_config(out_all.parent, ratings_file, out_all,
                               eval={"candidate_mode": "all-items"}))
    ckpt = str(out / "checkpoint.npz")
    for argv in (["train"], ["eval", "--checkpoint", ckpt], ["tdd", "--checkpoint", ckpt],
                 ["aisp"], ["explain", "--checkpoint", ckpt, "--user", "u0", "--top", "4",
                            "-o", str(out / "explain.md")]):
        assert main([argv[0], "-c", cfg, *argv[1:]]) == 0
    assert main(["eval", "-c", cfg_all, "--checkpoint", ckpt]) == 0
    split = split_leave_one_out(load_ratings(ratings_file))
    data, users = split.full, sorted(split.test)
    model, _ = load_checkpoint(ckpt)
    errors, all_ranks = checks.check_ranking(out_all / "ranking_report.tsv", split, None)
    assert errors == []
    assert checks.check_all_items_ranks(all_ranks, data, split, model, users) == []
    errors, values = checks.check_tdd(out / "tdd_report.tsv", split)
    assert errors == []
    assert checks.check_tdd_users(values, split, model, out / "taste_space.npz", users,
                                  list_size=4) == []
    assert checks.check_explain(out / "explain.md", data, split, data.user_index["u0"], 4) == []
    ranking = (["user", "rank"], {"hr@10", "ndcg@10"})
    tdd = (["user", "js", "hellinger"], {"mean_js", "mean_hellinger"})
    expected = {"ranking_report.tsv": ranking, "aisp_ranking_report.tsv": ranking,
                "tdd_report.tsv": tdd, "aisp_tdd_report.tsv": tdd}
    for name, (columns, keys) in expected.items():
        read_columns, _, summary = checks.read_report(out / name)
        assert read_columns == columns and keys <= set(summary), name
    for name in ("ranking_report.tsv", "aisp_ranking_report.tsv"):
        assert checks.check_ranking(out / name, split, 5)[0] == []
    for name in ("tdd_report.tsv", "aisp_tdd_report.tsv"):
        assert checks.check_tdd(out / name, split)[0] == []
    assert checks.read_report(out / "history.tsv")[0][0] == "epoch"
    assert checks.check_history(out / "history.tsv", 2) == []


def test_imported_names_exist():
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("personacf"):
                owner = importlib.import_module(node.module)
                names = [(node.module, alias.name) for alias in node.names]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "personacf"
            ):
                owner = importlib.import_module("personacf")
                names = [("personacf", node.attr)]
            else:
                continue
            missing += [f"{path.name}: {m}.{n}" for m, n in names if not hasattr(owner, n)]
    assert missing == []


def test_loaded_interactions_expose_what_the_bench_reads(tmp_path):
    from personacf import load_ratings, split_leave_one_out
    from personacf.corpus import RatingFormat

    path = tmp_path / "ratings.csv"
    rows = [("u1", "a"), ("u1", "b"), ("u1", "c"), ("u2", "b"), ("u2", "d")]
    path.write_text("userId,movieId,rating,timestamp\n" + "".join(
        f"{u},{i},5,{t}\n" for t, (u, i) in enumerate(rows)
    ))
    fmt = RatingFormat(delimiter=",", columns=("user", "item", "rating", "timestamp"),
                       header=True)
    data = load_ratings(path, fmt)
    split = split_leave_one_out(data)
    assert (data.num_users, data.num_items) == (2, 4)
    assert data.user_ids == ["u1", "u2"] and data.item_ids == ["a", "b", "c", "d"]
    assert [data.user_index[u] for u in data.user_ids] == [0, 1]
    assert set(data.per_user_items[1]) == {1, 3}
    assert np.asarray(split.train.per_user_items[0], dtype=np.intp).tolist() == [0]
    assert split.train.num_users == 2 and split.test == {0: 2, 1: 3}

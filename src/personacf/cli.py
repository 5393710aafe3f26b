"""Command-line entry point.

Subcommands: train, eval, tdd, aisp, explain. Exit codes: 0 success,
1 usage/config error, 2 runtime failure. Reports embed the config hash
and seed; timestamps are added only outside deterministic mode so that
equal config + seed gives byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import aisp as aisp_mod
from . import taste as taste_mod
from .config import ConfigError, RunConfig, load_config
from .corpus import CorpusError, RatingFormat, load_ratings, split_leave_one_out
from .explain import explain_user, render_markdown
from .model import (
    CheckpointError,
    ModelConfig,
    init_model,
    load_checkpoint,
    model_scorer,
    save_checkpoint,
)
from .ranking import evaluate
from .trainer import TrainingDiverged, train


def _load_split(cfg: RunConfig):
    if not cfg.dataset.path:
        raise ConfigError("dataset.path is not set")
    fmt = RatingFormat(
        delimiter=cfg.dataset.delimiter,
        columns=tuple(cfg.dataset.columns),
        header=cfg.dataset.header,
    )
    data = load_ratings(cfg.dataset.path, fmt, min_rating=cfg.dataset.min_rating)
    return data, split_leave_one_out(data)


def _header_lines(cfg: RunConfig) -> list[str]:
    lines = [f"# config_hash\t{cfg.hash()}", f"# seed\t{cfg.seed}"]
    if not cfg.deterministic:
        lines.append(f"# timestamp\t{time.strftime('%Y-%m-%dT%H:%M:%S')}")
    return lines


def _write_ranking_report(path: Path, cfg: RunConfig, report) -> None:
    lines = _header_lines(cfg)
    lines.append("user\trank")
    lines += [f"{u}\t{r}" for u, r in report.per_user]
    lines.append(f"# hr@{report.cutoff}\t{report.hr_at_k:.6f}")
    lines.append(f"# ndcg@{report.cutoff}\t{report.ndcg_at_k:.6f}")
    if report.skipped:
        lines.append(f"# skipped_users\t{','.join(map(str, report.skipped))}")
    path.write_text("\n".join(lines) + "\n")


def _write_tdd_report(path: Path, cfg: RunConfig, report) -> None:
    lines = _header_lines(cfg)
    lines.append("user\tjs\thellinger")
    lines += [f"{u}\t{js:.8f}\t{hel:.8f}" for u, js, hel in report.per_user]
    lines.append(f"# mean_js\t{report.mean_js:.8f}")
    lines.append(f"# mean_hellinger\t{report.mean_hellinger:.8f}")
    if report.skipped:
        lines.append(f"# skipped_users\t{','.join(map(str, report.skipped))}")
    path.write_text("\n".join(lines) + "\n")


def _taste_space_for(cfg: RunConfig, split, out_dir: Path, cache: str | None):
    cache_path = Path(cache) if cache else out_dir / "taste_space.npz"
    if cache_path.exists():
        return taste_mod.load_taste_space(cache_path)
    space = taste_mod.build_taste_space(
        split.train,
        pca_dims=cfg.taste.pca_dims,
        k=cfg.taste.clusters,
        rng=np.random.default_rng(cfg.seed),
        center=cfg.taste.center,
    )
    taste_mod.save_taste_space(cache_path, space)
    return space


def cmd_train(cfg: RunConfig, args) -> int:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    data, split = _load_split(cfg)
    rng = np.random.default_rng(cfg.seed)
    model = init_model(
        ModelConfig(
            num_users=data.num_users,
            num_items=data.num_items,
            embedding_dim=cfg.model.embedding_dim,
            attention_dim=cfg.model.attention_dim,
            personas=cfg.model.personas,
            seed=cfg.seed,
        ),
        rng,
    )
    history_path = out / "history.tsv"
    records = []

    def log(rec):
        records.append(rec)
        print(
            f"epoch {rec.epoch}: loss {rec.total_loss:.4f} "
            f"val hr@10 {rec.val_hr:.4f} ndcg@10 {rec.val_ndcg:.4f}"
        )

    best, history = train(split, model, cfg.loss, rng, cfg.eval, log=log)
    lines = _header_lines(cfg)
    lines.append("epoch\tdata_loss\tpos_entropy\tneg_entropy\ttotal_loss\tval_hr\tval_ndcg")
    for rec in history:
        lines.append(
            f"{rec.epoch}\t{rec.data_loss:.8f}\t{rec.pos_entropy:.8f}\t"
            f"{rec.neg_entropy:.8f}\t{rec.total_loss:.8f}\t"
            f"{rec.val_hr:.6f}\t{rec.val_ndcg:.6f}"
        )
    history_path.write_text("\n".join(lines) + "\n")
    ckpt_path = out / "checkpoint.npz"
    save_checkpoint(
        ckpt_path,
        best,
        user_ids=data.user_ids,
        item_ids=data.item_ids,
        extra={"config_hash": cfg.hash(), "seed": cfg.seed},
    )
    print(f"checkpoint written to {ckpt_path}")
    return 0


def _load_model_checked(cfg: RunConfig, path, data):
    model, meta = load_checkpoint(path)
    if (
        model.config.num_users != data.num_users
        or model.config.num_items != data.num_items
    ):
        raise ConfigError(
            f"checkpoint shape ({model.config.num_users} users, "
            f"{model.config.num_items} items) does not match the dataset "
            f"({data.num_users} users, {data.num_items} items)"
        )
    return model, meta


def cmd_eval(cfg: RunConfig, args) -> int:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    data, split = _load_split(cfg)
    model, _ = _load_model_checked(cfg, args.checkpoint, data)
    report = evaluate(
        model_scorer(model),
        split.test,
        data,
        cfg.eval,
        np.random.default_rng(cfg.seed),
    )
    path = out / "ranking_report.tsv"
    _write_ranking_report(path, cfg, report)
    print(f"hr@{report.cutoff} {report.hr_at_k:.4f}  ndcg@{report.cutoff} {report.ndcg_at_k:.4f}")
    print(f"report written to {path}")
    return 0


def cmd_tdd(cfg: RunConfig, args) -> int:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    data, split = _load_split(cfg)
    model, _ = _load_model_checked(cfg, args.checkpoint, data)
    space = _taste_space_for(cfg, split, out, args.taste_space)
    report = taste_mod.tdd_report(
        model_scorer(model), split, space, list_size=cfg.taste.list_size
    )
    path = out / "tdd_report.tsv"
    _write_tdd_report(path, cfg, report)
    print(f"mean js {report.mean_js:.4f}  mean hellinger {report.mean_hellinger:.4f}")
    print(f"report written to {path}")
    return 0


def cmd_aisp(cfg: RunConfig, args) -> int:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    data, split = _load_split(cfg)
    space = _taste_space_for(cfg, split, out, args.taste_space)
    rng = np.random.default_rng(cfg.seed)
    baseline = aisp_mod.build_aisp(split.train, space, cfg.aisp.personas, rng)
    scorer = aisp_mod.aisp_scorer(baseline)
    ranking = evaluate(scorer, split.test, data, cfg.eval, np.random.default_rng(cfg.seed))
    _write_ranking_report(out / "aisp_ranking_report.tsv", cfg, ranking)
    tdd = taste_mod.tdd_report(scorer, split, space, list_size=cfg.taste.list_size)
    _write_tdd_report(out / "aisp_tdd_report.tsv", cfg, tdd)
    print(
        f"aisp-{cfg.aisp.personas}: hr@{ranking.cutoff} {ranking.hr_at_k:.4f}  "
        f"ndcg@{ranking.cutoff} {ranking.ndcg_at_k:.4f}  "
        f"mean hellinger {tdd.mean_hellinger:.4f}"
    )
    return 0


def cmd_explain(cfg: RunConfig, args) -> int:
    data, split = _load_split(cfg)
    model, _ = _load_model_checked(cfg, args.checkpoint, data)
    if args.user not in data.user_index:
        raise ConfigError(f"unknown user id {args.user!r}")
    user = data.user_index[args.user]
    titles = None
    if args.titles:
        titles = {}
        with open(args.titles, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                ext, _, title = line.partition(args.titles_delimiter)
                titles[ext] = title
    report = explain_user(model, user, split.train, args.top)
    text = render_markdown(report, item_ids=data.item_ids, titles=titles)
    if args.output:
        Path(args.output).write_text(text)
        print(f"explanation written to {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="personacf",
        description="Multi-persona collaborative filtering: train, rank, "
        "taste-distribution reports and persona explanations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("-c", "--config", required=True, help="YAML run config")
        p.set_defaults(fn=fn)
        return p

    add("train", cmd_train, "train a persona model and write a checkpoint")

    p = add("eval", cmd_eval, "leave-one-out HR/NDCG of a checkpoint")
    p.add_argument("--checkpoint", required=True)

    p = add("tdd", cmd_tdd, "taste-distribution distance report for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--taste-space", help="reuse a persisted taste space (.npz)")

    p = add("aisp", cmd_aisp, "ranking + taste reports for the inference-only baseline")
    p.add_argument("--taste-space", help="reuse a persisted taste space (.npz)")

    p = add("explain", cmd_explain, "persona-level explanation for one user")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--user", required=True, help="external user id")
    p.add_argument("--top", type=int, default=10, help="list length")
    p.add_argument("--titles", help="delimited file mapping item id to title")
    p.add_argument("--titles-delimiter", default="\t")
    p.add_argument("-o", "--output", help="write markdown here instead of stdout")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.fn(cfg, args)
    except (CheckpointError, ConfigError, CorpusError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingDiverged, OSError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

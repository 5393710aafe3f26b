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
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from . import aisp as aisp_mod
from . import taste as taste_mod
from .config import ConfigError, RunConfig, load_config
from .corpus import CorpusError, load_ratings, split_leave_one_out
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
from .taste import TasteSpaceError
from .trainer import TrainingDiverged, train


def _load_split(cfg: RunConfig):
    if not cfg.dataset.path:
        raise ConfigError("dataset.path is not set")
    data = load_ratings(cfg.dataset.path, cfg.dataset)
    return split_leave_one_out(data)


def _write_tsv(path: Path, cfg: RunConfig, columns: dict, rows, summary: dict, skipped) -> None:
    """Write the config hash and seed (and a timestamp outside deterministic
    mode), the column names, one line per row with each value in its
    column's format spec, a ``# key`` line per summary value, and the
    skipped users if there are any."""
    lines = [f"# config_hash\t{cfg.hash()}", f"# seed\t{cfg.seed}"]
    if not cfg.deterministic:
        lines.append(f"# timestamp\t{time.strftime('%Y-%m-%dT%H:%M:%S')}")
    lines.append("\t".join(columns))
    lines += ["\t".join(map(format, row, columns.values())) for row in rows]
    lines += [f"# {key}\t{value}" for key, value in summary.items()]
    if skipped:
        lines.append(f"# skipped_users\t{','.join(map(str, skipped))}")
    path.write_text("\n".join(lines) + "\n")


def _ranking_report(cfg: RunConfig, scorer, split, path: Path):
    """Leave-one-out ranking of ``scorer``, written to ``path``."""
    report = evaluate(scorer, split.test, split.full, cfg.eval, np.random.default_rng(cfg.seed))
    k = report.cutoff
    summary = {f"hr@{k}": f"{report.hr_at_k:.6f}", f"ndcg@{k}": f"{report.ndcg_at_k:.6f}"}
    _write_tsv(path, cfg, {"user": "", "rank": ""}, report.per_user, summary, report.skipped)
    return report


def _tdd_report(cfg: RunConfig, scorer, split, space, path: Path):
    """Taste-distribution distances of ``scorer``'s lists, written to ``path``."""
    report = taste_mod.tdd_report(scorer, split, space, list_size=cfg.taste.list_size)
    columns = {"user": "", "js": ".8f", "hellinger": ".8f"}
    summary = {"mean_js": f"{report.mean_js:.8f}", "mean_hellinger": f"{report.mean_hellinger:.8f}"}
    _write_tsv(path, cfg, columns, report.per_user, summary, report.skipped)
    return report


def _taste_space_for(cfg: RunConfig, split, out_dir: Path, cache: str | None):
    """The persisted taste space if it loads and fits the corpus, else a
    new one saved in its place. A ``--taste-space`` file that does not
    load or fit is an error."""
    cache_path = Path(cache) if cache else out_dir / "taste_space.npz"
    if cache_path.exists():
        try:
            return taste_mod.load_taste_space(cache_path, split.train)
        except TasteSpaceError:
            if cache:
                raise
    space = taste_mod.build_taste_space(
        split.train,
        pca_dims=cfg.taste.pca_dims,
        k=cfg.taste.clusters,
        rng=np.random.default_rng(cfg.seed),
        center=cfg.taste.center,
    )
    taste_mod.save_taste_space(cache_path, space)
    return space


def _output_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):  # it, or a parent, is a file
        raise ConfigError(f"output_dir {out} is not a directory") from None
    return out


def cmd_train(cfg: RunConfig, args, split, model) -> int:
    out = _output_dir(cfg)
    data = split.full
    rng = np.random.default_rng(cfg.seed)
    model = init_model(
        ModelConfig(data.num_users, data.num_items, **asdict(cfg.model), seed=cfg.seed), rng
    )

    def log(rec):
        print(
            f"epoch {rec.epoch}: loss {rec.total_loss:.4f} "
            f"val hr@10 {rec.val_hr:.4f} ndcg@10 {rec.val_ndcg:.4f}"
        )

    best, history = train(split, model, cfg.loss, rng, cfg.eval, log=log)
    columns = {"epoch": "", "data_loss": ".8f", "pos_entropy": ".8f", "neg_entropy": ".8f",
               "total_loss": ".8f", "val_hr": ".6f", "val_ndcg": ".6f"}  # EpochRecord's fields
    _write_tsv(out / "history.tsv", cfg, columns, map(astuple, history), {}, ())
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


def cmd_eval(cfg: RunConfig, args, split, model) -> int:
    path = _output_dir(cfg) / "ranking_report.tsv"
    report = _ranking_report(cfg, model_scorer(model), split, path)
    print(f"hr@{report.cutoff} {report.hr_at_k:.4f}  ndcg@{report.cutoff} {report.ndcg_at_k:.4f}")
    print(f"report written to {path}")
    return 0


def cmd_tdd(cfg: RunConfig, args, split, model) -> int:
    out = _output_dir(cfg)
    space = _taste_space_for(cfg, split, out, args.taste_space)
    path = out / "tdd_report.tsv"
    report = _tdd_report(cfg, model_scorer(model), split, space, path)
    print(f"mean js {report.mean_js:.4f}  mean hellinger {report.mean_hellinger:.4f}")
    print(f"report written to {path}")
    return 0


def cmd_aisp(cfg: RunConfig, args, split, model) -> int:
    out = _output_dir(cfg)
    space = _taste_space_for(cfg, split, out, args.taste_space)
    rng = np.random.default_rng(cfg.seed)
    baseline = aisp_mod.build_aisp(split.train, space, cfg.aisp.personas, rng)
    scorer = aisp_mod.aisp_scorer(baseline)
    ranking = _ranking_report(cfg, scorer, split, out / "aisp_ranking_report.tsv")
    tdd = _tdd_report(cfg, scorer, split, space, out / "aisp_tdd_report.tsv")
    print(
        f"aisp-{cfg.aisp.personas}: hr@{ranking.cutoff} {ranking.hr_at_k:.4f}  "
        f"ndcg@{ranking.cutoff} {ranking.ndcg_at_k:.4f}  "
        f"mean hellinger {tdd.mean_hellinger:.4f}"
    )
    return 0


def cmd_explain(cfg: RunConfig, args, split, model) -> int:
    data = split.full
    if args.top < 1:
        raise ConfigError(f"--top must be >= 1, got {args.top}")
    if not args.titles_delimiter:
        raise ConfigError("--titles-delimiter must not be empty")
    if args.user not in data.user_index:
        raise ConfigError(f"unknown user id {args.user!r}")
    titles = None
    if args.titles:  # "<item id><delimiter><title>" per line; a repeated id keeps its last title
        try:
            with open(args.titles, encoding="utf-8") as fh:
                rows = (line.rstrip("\n") for line in fh)
                titles = dict(row.partition(args.titles_delimiter)[::2] for row in rows if row)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.titles}: {exc}") from None
    report = explain_user(model, data.user_index[args.user], split.train, args.top)
    text = render_markdown(report, item_ids=data.item_ids, titles=titles)
    if args.output:
        Path(args.output).write_text(text)
        print(f"explanation written to {args.output}")
    else:
        print(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with an ``error:`` line, like config errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        split = _load_split(cfg)
        model = load_checkpoint(args.checkpoint, split.full)[0] if "checkpoint" in args else None
        return args.fn(cfg, args, split, model)
    except (CheckpointError, ConfigError, CorpusError, TasteSpaceError,
            FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingDiverged, OSError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

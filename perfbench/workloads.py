"""Workload definitions and the passes that drive personacf through them.

Every workload generates its corpus from the benchmark seed, sets up
(parse, split, sampling table, model init or checkpoint load) several
times, then repeats a *pass* of user-facing commands until the measuring
time is spent. Commands go through the CLI entry point
(``personacf.cli.main``) in this process; explanations go through the
public ``explain_user``/``render_markdown`` functions for a fixed set of
users. Every output file is hashed after every pass, and a pass whose
bytes differ from the first pass counts as a failed operation.
"""

from __future__ import annotations

import gc
import hashlib
import io
import os
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from corpus_gen import CorpusShape, write_corpus

# The run config is fixed; only the generated ratings file varies with the
# benchmark seed, so the program receives nothing but that file.
EPOCHS = 1  # fixed epoch budget instead of early stopping
CONFIG_SEED = 0
EXPLAIN_USERS = 24
EXPLAIN_TOP = 10
# Set-up takes ~0.1 s and machine speed wanders on a scale of seconds, so
# set-up is also timed between passes to sample the whole run.
SETUP_REPEATS = 11
SETUP_REPEATS_PER_PASS = 3
COLUMNS = ("user", "item", "rating", "timestamp")

# MovieLens-small shape: 610 users, ~9.7k items seen, ~81k train events.
ML_SHAPE = CorpusShape(users=610, items=11_000, mean_history=135, zipf=1.0)
# Same event count, 5x fewer parameters per Adam step, long histories
# over a small catalogue, so many negative draws are rejected.
DENSE_SHAPE = CorpusShape(users=300, items=1_500, mean_history=250, zipf=0.8)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: CorpusShape
    trains: bool  # True: each pass trains; False: read-only report commands


WORKLOADS = {
    "train-ml": Workload("train-ml", ML_SHAPE, trains=True),
    "train-dense": Workload("train-dense", DENSE_SHAPE, trains=True),
    "report": Workload("report", ML_SHAPE, trains=False),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(path: Path, ratings: str, out_dir: str, candidate_mode="sampled"):
    """Paths are relative to the work directory, so the config and its
    hash, which the reports embed, do not depend on where the run is."""
    path.write_text(
        "dataset:\n"
        f"  path: {ratings}\n"
        '  delimiter: ","\n'
        f"  columns: [{', '.join(COLUMNS)}]\n"
        "  header: true\n"
        "loss:\n"
        f"  max_epochs: {EPOCHS}\n"
        f"  patience: {EPOCHS}\n"
        "eval:\n"
        f"  candidate_mode: {candidate_mode}\n"
        f"seed: {CONFIG_SEED}\n"
        f"output_dir: {out_dir}\n"
    )


class Session:
    """One benchmark run of one workload: inputs, outputs and operation counts."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        import personacf.cli as cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = None  # a spans.Tracer while a traced pass runs
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.owner: dict[str, str] = {}  # output file -> command that wrote it
        self.pass_outputs: set[Path] = set()

        work.mkdir(parents=True, exist_ok=True)
        os.chdir(work)  # the CLI resolves config paths against the cwd
        self.ratings = work / "ratings.csv"
        self.rows = write_corpus(self.ratings, workload.shape, seed)
        self.out = work / "out"
        self.out_all = work / "out_all"
        self.cfg = work / "run.yaml"
        self.cfg_all = work / "run_all.yaml"
        write_config(self.cfg, "ratings.csv", "out")
        write_config(self.cfg_all, "ratings.csv", "out_all", "all-items")
        self.checkpoint = self.out / "checkpoint.npz"

    # -- operations -------------------------------------------------------

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def command(self, name: str, argv: list[str], outputs: list[Path]) -> float:
        """Run one CLI command; returns its wall time."""
        self.attempted += 1
        for path in outputs:
            self.owner[str(path)] = name
            self.pass_outputs.add(path)
        sink = io.StringIO()
        gc.collect()  # a command starts with a clean heap, as in a new process
        start = time.perf_counter()
        with self.span(f"cmd.{name}"), redirect_stdout(sink), redirect_stderr(sink):
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is one failed operation, not a dead run
                code = "exception"
                traceback.print_exc(file=sink)
        elapsed = time.perf_counter() - start
        if code != 0:
            self.fail(f"{name}: exit {code}: {sink.getvalue()[-400:]}")
        return elapsed

    # -- set-up -----------------------------------------------------------

    def load(self):
        """Parse, split, sampling table and model (init or checkpoint load),
        through the public API, as every command does before its work."""
        import personacf
        from personacf.corpus import RatingFormat

        fmt = RatingFormat(delimiter=",", columns=COLUMNS, header=True)
        data = personacf.load_ratings(self.ratings, fmt)
        split = personacf.split_leave_one_out(data)
        table = personacf.build_sampling_table(split.train)
        if self.workload.trains:
            config = personacf.ModelConfig(
                num_users=data.num_users, num_items=data.num_items, seed=CONFIG_SEED
            )
            model = personacf.init_model(config, np.random.default_rng(CONFIG_SEED))
        else:
            model, _ = personacf.load_checkpoint(self.checkpoint)
        return data, split, table, model

    def setup(self) -> list[float]:
        """Make the report checkpoint, then time SETUP_REPEATS set-ups."""
        if not self.workload.trains:
            # the report checkpoint is made before timing; train-ml times training
            self.command(
                "train",
                ["train", "-c", str(self.cfg)],
                [self.checkpoint, self.out / "history.tsv"],
            )
            self.pass_outputs.clear()  # read by every pass, never rewritten
        times = self.time_setup(SETUP_REPEATS)
        data = self.loaded[0]
        picks = np.linspace(0, data.num_users - 1, EXPLAIN_USERS).astype(int)
        self.explain_users = [data.user_ids[i] for i in picks]
        return times

    def time_setup(self, repeats: int) -> list[float]:
        """Time ``repeats`` set-ups; keeps the last result for the passes."""
        times = []
        for _ in range(repeats):
            self.loaded = None
            gc.collect()  # each repeat starts without the last one's garbage
            start = time.perf_counter()
            self.loaded = self.load()
            times.append(time.perf_counter() - start)
        return times

    # -- passes -----------------------------------------------------------

    def run_pass(self) -> dict[str, float]:
        """One pass of the workload's commands; returns each command's wall
        time and their sum, which leaves out the benchmark's own work."""
        ckpt = str(self.checkpoint)
        times: dict[str, float] = {}
        if self.workload.trains:
            times["train"] = self.command(
                "train",
                ["train", "-c", str(self.cfg)],
                [self.checkpoint, self.out / "history.tsv"],
            )
            times["eval_sampled"] = self.command(
                "eval_sampled",
                ["eval", "-c", str(self.cfg), "--checkpoint", ckpt],
                [self.out / "ranking_report.tsv"],
            )
        else:
            times["eval_sampled"] = self.command(
                "eval_sampled",
                ["eval", "-c", str(self.cfg), "--checkpoint", ckpt],
                [self.out / "ranking_report.tsv"],
            )
            times["eval_all"] = self.command(
                "eval_all",
                ["eval", "-c", str(self.cfg_all), "--checkpoint", ckpt],
                [self.out_all / "ranking_report.tsv"],
            )
            # tdd builds and caches the taste space, aisp reuses it
            times["tdd"] = self.command(
                "tdd",
                ["tdd", "-c", str(self.cfg), "--checkpoint", ckpt],
                [self.out / "taste_space.npz", self.out / "tdd_report.tsv"],
            )
            times["aisp"] = self.command(
                "aisp",
                ["aisp", "-c", str(self.cfg)],
                [self.out / "aisp_ranking_report.tsv", self.out / "aisp_tdd_report.tsv"],
            )
            times["explain"] = self.explain()
        times["pass"] = sum(times.values())
        return times

    def explain(self) -> float:
        import personacf.explain as explain_mod

        data, split, _, model = self.loaded
        gc.collect()
        start = time.perf_counter()
        with self.span("cmd.explain"):
            for ext in self.explain_users:
                self.attempted += 1
                path = self.out / f"explain_{ext}.md"
                self.owner[str(path)] = f"explain {ext}"
                self.pass_outputs.add(path)
                try:
                    report = explain_mod.explain_user(
                        model, data.user_index[ext], split.train, EXPLAIN_TOP
                    )
                    text = explain_mod.render_markdown(report, item_ids=data.item_ids)
                    path.write_text(text)
                except Exception:
                    self.fail(f"explain {ext}: {traceback.format_exc()[-400:]}")
        return time.perf_counter() - start

    def reset_outputs(self) -> None:
        """Delete the previous pass's files. Every pass then builds the taste
        space, as a first ``tdd`` run does, and writes new files instead of
        truncating old ones, which the file system may flush synchronously."""
        for path in self.pass_outputs:
            path.unlink(missing_ok=True)

    def hash_outputs(self) -> dict[str, str]:
        return {
            str(Path(p).relative_to(self.work)): sha256(Path(p))
            for p in sorted(self.owner)
            if Path(p).exists()
        }

    def compare(self, hashes: dict[str, str], reference: dict[str, str], what: str) -> None:
        """Count each output whose bytes differ from ``reference``, once per
        producing command."""
        bad = set()
        for name in sorted(set(reference) | set(hashes)):
            if hashes.get(name) != reference.get(name):
                bad.add(self.owner.get(str(self.work / name), name))
        for cmd in sorted(bad):
            self.fail(f"{cmd}: output differs from {what}")


def environment() -> dict[str, object]:
    """numpy, BLAS and Python versions recorded next to the output hashes."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas_version = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_version,
        "python": sys.version.split()[0],
    }

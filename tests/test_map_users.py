"""Users scored on helper threads: ``model.map_users`` and ``model.workers``.

All-items ``evaluate`` and ``tdd_report`` hand their per-user work to
``map_users``. These tests pin the reports to the one-worker bytes at 2 and
3 workers, check that helpers really start there and never outlive the
call, that errors and warnings come out as from the loop, and that the
sampled path and small catalogues stay on the calling thread.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import make_interactions
from personacf import model as model_module
from personacf import taste as taste_module
from personacf.cli import main
from personacf.corpus import split_leave_one_out
from personacf.model import BLAS_THREAD_VARS, CATALOGUE_MIN, blas_threads, map_users, workers
from personacf.ranking import RankingProtocol, evaluate, unconsumed
from personacf.taste import TasteSpace, tdd_report

NUM_ITEMS = CATALOGUE_MIN + 52  # every user is scored over a catalogue-sized pool
USERS = 70


@pytest.fixture
def started(monkeypatch):
    """Threads started from here on; each still really starts."""
    threads = []
    start = threading.Thread.start

    def counting(thread):
        threads.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return threads


def use_workers(monkeypatch, count):
    monkeypatch.setattr(model_module, "workers", lambda: count)


def large_rows(seed=0):
    """Per-user item lists covering all NUM_ITEMS items: a block of the
    shuffled catalogue each, plus a few items from anywhere."""
    rng = np.random.default_rng(seed)
    blocks = np.array_split(rng.permutation(NUM_ITEMS), USERS)
    return [list(dict.fromkeys([*block, *rng.choice(NUM_ITEMS, 5)])) for block in blocks]


@pytest.fixture(scope="module")
def large_run(tmp_path_factory):
    """A ratings file over the large catalogue, an all-items config and a
    trained checkpoint: (config path, output dir)."""
    root = tmp_path_factory.mktemp("large")
    lines, ts = [], 0
    for u, items in enumerate(large_rows()):
        for j in items:
            lines.append(f"u{u}\ti{j}\t5\t{ts}")
            ts += 1
    (root / "ratings.tsv").write_text("\n".join(lines) + "\n")
    out = root / "out"
    cfg = root / "run.yaml"
    cfg.write_text(yaml.safe_dump({
        "dataset": {"path": str(root / "ratings.tsv")},
        "model": {"embedding_dim": 8, "attention_dim": 8, "personas": 2},
        "loss": {"batch_size": 64, "max_epochs": 1, "patience": 1},
        "eval": {"num_sampled_negatives": 20, "cutoff": 10, "candidate_mode": "all-items"},
        "taste": {"pca_dims": 6, "clusters": 3, "list_size": 5},
        "seed": 0,
        "output_dir": str(out),
    }))
    assert main(["train", "-c", str(cfg)]) == 0
    return cfg, out


REPORTS = {  # command -> the files it writes
    "eval": ["ranking_report.tsv"],
    "tdd": ["taste_space.npz", "tdd_report.tsv"],
    "aisp": ["aisp_ranking_report.tsv", "aisp_tdd_report.tsv"],
}


class TestSameBytesAtAnyWorkerCount:
    def run_commands(self, cfg, out, started):
        """Bytes of every report, and helpers started per command; each
        command leaves the thread count where it found it."""
        ckpt = str(out / "checkpoint.npz")
        argv = {"eval": ["--checkpoint", ckpt], "tdd": ["--checkpoint", ckpt], "aisp": []}
        (out / "taste_space.npz").unlink(missing_ok=True)  # tdd builds it, aisp reuses it
        files, helpers = {}, {}
        for command, names in REPORTS.items():
            before_threads, before_started = threading.active_count(), len(started)
            assert main([command, "-c", str(cfg), *argv[command]]) == 0, command
            assert threading.active_count() == before_threads, command
            helpers[command] = len(started) - before_started
            files.update({name: (out / name).read_bytes() for name in names})
        return files, helpers

    def test_reports_equal_the_one_worker_bytes(self, large_run, started, monkeypatch):
        cfg, out = large_run
        use_workers(monkeypatch, 1)
        want, helpers = self.run_commands(cfg, out, started)
        assert helpers == {"eval": 0, "tdd": 0, "aisp": 0}
        for count in (2, 3):
            use_workers(monkeypatch, count)
            got, helpers = self.run_commands(cfg, out, started)
            assert got == want, count
            # one map in eval and tdd, two in aisp (its ranking and its tdd lists)
            assert helpers == {"eval": count - 1, "tdd": count - 1, "aisp": 2 * (count - 1)}


def rank_scorer(user, candidates):
    """Deterministic scores that depend on the user and the item only."""
    return np.cos(0.37 * candidates + user)


def large_split():
    return split_leave_one_out(make_interactions(large_rows(), num_items=NUM_ITEMS))


class TestErrorsAndThreadBoundaries:
    def test_earliest_failing_user_is_raised_after_every_helper_joined(self, monkeypatch,
                                                                       started):
        split = large_split()
        use_workers(monkeypatch, 3)
        before = threading.active_count()
        called = []

        def scorer(user, candidates):
            called.append(user)
            if user == 2:
                time.sleep(0.2)  # the later user 3 fails first
                raise ValueError("user 2")
            if user == 3:
                raise ValueError("user 3")
            return rank_scorer(user, candidates)

        with pytest.raises(ValueError, match="^user 2$"):
            try:
                evaluate(scorer, split.test, split.full, RankingProtocol(candidate_mode="all-items"))
            finally:
                assert len(started) == 2 and threading.active_count() == before
        assert max(called) < 10  # no user is taken once one has failed

    def test_calling_thread_takes_users_too(self, monkeypatch, started):
        use_workers(monkeypatch, 2)
        both = threading.Barrier(2, timeout=10)  # users 0 and 1 run at the same time

        def whose(user):
            if user < 2:
                both.wait()
            return threading.current_thread()

        ran = map_users(whose, range(4), CATALOGUE_MIN)
        assert {ran[0], ran[1]} == {threading.main_thread(), *started}

    def test_results_come_back_in_input_order(self, monkeypatch, started):
        use_workers(monkeypatch, 3)
        delays = [0.03, 0.0, 0.02, 0.0, 0.01, 0.0]

        def slow_square(i):
            time.sleep(delays[i])
            return i * i

        assert map_users(slow_square, range(6), CATALOGUE_MIN) == [0, 1, 4, 9, 16, 25]
        assert len(started) == 2

    def test_stress_more_workers_than_cores(self, monkeypatch, started):
        """A lost update of the shared index would drop or repeat a user."""
        use_workers(monkeypatch, 4)
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                calls.clear()
                assert map_users(lambda u: calls.append(u) or -u, range(200), CATALOGUE_MIN) \
                    == [-u for u in range(200)]
                assert sorted(calls) == list(range(200))
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == 20 * 3
        assert not any(thread.is_alive() for thread in started)

    def test_cli_exits_two_for_a_value_error_on_a_helper(self, large_run, monkeypatch, capsys):
        cfg, out = large_run
        use_workers(monkeypatch, 2)
        helper_failed = threading.Event()
        real = taste_module.taste_distribution

        def taste_distribution(items, space):
            if threading.current_thread() is threading.main_thread():
                helper_failed.wait(timeout=10)  # let a helper take a user first
                return real(items, space)
            helper_failed.set()
            raise ValueError("bad list on a helper")

        monkeypatch.setattr(taste_module, "taste_distribution", taste_distribution)
        before = threading.active_count()
        assert main(["tdd", "-c", str(cfg), "--checkpoint", str(out / "checkpoint.npz")]) == 2
        assert helper_failed.is_set() and threading.active_count() == before
        assert capsys.readouterr().err == "runtime failure: bad list on a helper\n"

    def test_sampled_evaluate_stays_on_the_calling_thread(self, monkeypatch, started):
        split = large_split()
        use_workers(monkeypatch, 3)
        protocol = RankingProtocol(num_sampled_negatives=50)
        rng = np.random.default_rng(7)
        report = evaluate(rank_scorer, split.test, split.full, protocol, rng)
        assert started == []

        # the loop it replaced: one draw per user, in user order
        reference, ref_rng = [], np.random.default_rng(7)
        for user in sorted(split.test):
            target = split.test[user]
            pool = unconsumed(NUM_ITEMS, np.append(split.full.per_user_items[user], target))
            candidates = np.concatenate([[target], ref_rng.choice(pool, 50, replace=False)])
            scores = rank_scorer(user, candidates)
            better = np.count_nonzero(scores > scores[0])
            tied = np.count_nonzero((scores == scores[0]) & (candidates < target))
            reference.append((user, 1 + better + tied))
        assert report.per_user == reference
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_zero_norm_warning_reaches_the_caller(self, monkeypatch, started):
        split = large_split()
        use_workers(monkeypatch, 2)
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(NUM_ITEMS, 4))
        zero = int(np.setdiff1d(np.arange(NUM_ITEMS), split.train.per_user_items[0])[0])
        vectors[zero] = 0.0
        space = TasteSpace(vectors, rng.normal(size=(3, 4)), np.zeros((4, 1)), np.zeros(1))

        def scorer(user, candidates):  # ``zero`` tops every list it can enter
            return (candidates == zero).astype(float)

        with pytest.warns(UserWarning, match="zero-norm item vector"):
            report = tdd_report(scorer, split, space, list_size=3)
        assert len(started) == 1 and len(report.per_user) == USERS


class TestWorkerRule:
    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set the affinity mask's size."""
        def set_cpus(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

        return set_cpus

    @pytest.mark.parametrize("env,want", [
        ({}, 0),
        ({"OMP_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": " 2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 0),  # MKL or BLIS would take every CPU
        ({"MKL_NUM_THREADS": "1"}, 0),  # OpenBLAS would
        ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, 0),  # MKL runs on 4
        ({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "4"}, 0),  # OpenBLAS too
        ({"OMP_NUM_THREADS": "1", "GOTO_NUM_THREADS": ""}, 0),
        ({"OMP_NUM_THREADS": "0"}, 0),  # not a thread count
        ({"OMP_NUM_THREADS": "two"}, 0),
        ({"OMP_NUM_THREADS": ""}, 0),
    ])
    def test_blas_threads_every_library_agrees_on(self, env, want):
        assert blas_threads(env) == want

    @pytest.mark.parametrize("env,want", [
        ({}, 0),
        ({"MKL_NUM_THREADS": "1"}, 0),
        ({var: "1" for var in ("OMP_NUM_THREADS", *BLAS_THREAD_VARS)}, 1),
    ])
    def test_blas_threads_are_read_when_the_module_loads(self, env, want):
        clean = {k: v for k, v in os.environ.items()
                 if k not in ("OMP_NUM_THREADS", *BLAS_THREAD_VARS)}
        code = "import personacf.model as m; print(m.BLAS_THREADS, m.workers())"
        src = str(Path(model_module.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**clean, **env, "PYTHONPATH": src})
        blas, count = map(int, out.stdout.split())
        assert blas == want and (count == 1 if want == 0 else count >= 1)

    def test_a_variable_set_after_loading_counts_for_nothing(self, cpus, monkeypatch):
        cpus(8)
        monkeypatch.setattr(model_module, "BLAS_THREADS", 0)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert workers() == 1

    @pytest.mark.parametrize("blas,n,want", [
        (1, 2, 2),
        (1, 8, 4),  # the cap
        (1, 1, 1),
        (2, 4, 2),
        (3, 8, 2),
        (4, 2, 1),  # BLAS alone fills the CPUs
        (0, 8, 1),  # unknown: BLAS may already run on every CPU
    ])
    def test_cpus_over_blas_threads(self, cpus, monkeypatch, blas, n, want):
        cpus(n)
        monkeypatch.setattr(model_module, "BLAS_THREADS", blas)
        assert workers() == want

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(model_module, "BLAS_THREADS", 1)
        assert workers() == 3

    def test_small_calls_or_one_worker_start_no_thread(self, monkeypatch, started):
        use_workers(monkeypatch, 4)
        assert map_users(lambda u: u + 1, range(5), CATALOGUE_MIN - 1) == [1, 2, 3, 4, 5]
        assert map_users(lambda u: u + 1, [7], CATALOGUE_MIN) == [8]
        use_workers(monkeypatch, 1)
        assert map_users(lambda u: u + 1, range(5), 10 * CATALOGUE_MIN) == [1, 2, 3, 4, 5]
        assert started == []


def test_import_leaves_out_concurrent_futures():
    code = "import sys, personacf.cli; print('concurrent.futures' in sys.modules)"
    src = str(Path(model_module.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"

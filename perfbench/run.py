"""personacf benchmark.

    python3 perfbench/run.py --workload train-ml --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The workload's corpus is generated from ``--seed``; passes of the
workload's commands repeat for ``--seconds``. With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` spans around each layer give the per-layer metrics instead.
Scratch files live under ``.bench_work/`` and are removed at exit, except
the output-hash records in ``.bench_work/hashes/``, which later runs of
the same workload and seed are compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread: never more than the cores a small machine has, and the
# steadiest timing when other processes share them.
BLAS_THREADS = 1
ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def parse_args(argv):
    p = argparse.ArgumentParser(description="personacf benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def median(values):
    return float(statistics.median(values)) if values else 0.0


def hash_record(session, hashes, env) -> None:
    """Compare with the record of an earlier run of this workload and seed
    under the same numpy, BLAS and thread count; then store this one."""
    path = ROOT / ".bench_work" / "hashes" / f"{session.workload.name}-s{session.seed}.json"
    record = {**env, "blas_threads": BLAS_THREADS, "hashes": hashes}
    if path.exists():
        old = json.loads(path.read_text())
        if {k: v for k, v in old.items() if k != "hashes"} == {
            k: v for k, v in record.items() if k != "hashes"
        }:
            session.compare(hashes, old["hashes"], "an earlier run")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads
    src = ROOT / "src"
    if not (src / "personacf" / "__init__.py").exists():
        print(f"error: no personacf sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]

    import checks
    import layers
    from spans import Tracer
    from workloads import SETUP_REPEATS_PER_PASS, WORKLOADS, Session, environment

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 1
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        session = Session(WORKLOADS[args.workload], args.seed, work)
        setup_times = session.setup()

        # an untimed first pass warms caches and lazy imports, and its files
        # are checked and become the reference every timed pass must match
        session.reset_outputs()
        session.run_pass()
        reference = session.hash_outputs()
        errors, ranks = checks.check_pass(session)
        for e in errors:
            session.fail(f"check: {e}")
        quality = checks.quality(ranks.values())

        passes, traced, plain = [], [], []
        deadline = time.perf_counter() + args.seconds
        # traced runs alternate traced and plain passes so the difference of
        # their medians estimates the tracing overhead
        min_passes = 2 if tracer is not None else 1
        while time.perf_counter() < deadline or len(passes) < min_passes:
            trace_this = tracer is not None and len(passes) % 2 == 0
            session.reset_outputs()
            if trace_this:
                tracer.reset()
                layers.install(tracer)
                session.tracer = tracer
            times = session.run_pass()
            passes.append(times)
            if trace_this:
                tracer.uninstall()
                session.tracer = None
                traced.append(layers.pass_metrics(tracer, times["pass"]))
            elif tracer is not None:
                plain.append(times["pass"])
            session.compare(session.hash_outputs(), reference, "the first pass")
            setup_times += session.time_setup(SETUP_REPEATS_PER_PASS)
        env = environment()
        hash_record(session, reference, env)

        if args.trace:
            metrics = {
                name: {"value": median([t[name] for t in traced]), "unit": unit}
                for name, unit in layers.PER_LAYER.items()
                if name in traced[0]
            }
            for name, value in layers.static_metrics(session).items():
                metrics[name] = {"value": value, "unit": layers.PER_LAYER[name]}
            overhead = median([t["pass"] for t in passes[::2]]) - median(plain)
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            metrics = {name: metrics[name] for name in layers.PER_LAYER}
        else:
            eval_rate = [len(ranks) / t["eval_sampled"] for t in passes]
            metrics = {
                "setup_s": {"value": median(setup_times), "unit": "s"},
                "pass_s": {"value": median([t["pass"] for t in passes]), "unit": "s"},
                "eval_users_per_s": {"value": median(eval_rate), "unit": "1/s"},
                "test_auc": {"value": quality["auc"], "unit": "ratio"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "blas_threads": BLAS_THREADS,
            **env,
            "rating_rows": session.rows,
            "passes": passes,
            "setup_s": setup_times,
            "absent_spans": tracer.absent if tracer is not None else [],
            "computed": list(layers.COMPUTED) if args.trace else [],
            "errors": session.errors[:20],
            "quality": quality,
            "hashes": reference,
        }
        print(json.dumps(detail, sort_keys=True))
        for e in session.errors[:20]:
            print(f"failure: {e}", file=sys.stderr)
        print(json.dumps({
            "correct": session.failed == 0,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

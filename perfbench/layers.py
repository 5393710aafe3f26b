"""Which program calls are traced as which layer, and the per-layer metrics.

Spans wrap the module attributes the layers are reached through; the CLI
and the trainer look them up at call time. ``PER_LAYER`` lists every
per-layer metric with its unit. Metrics in ``COMPUTED`` are counts worked
out from the inputs or from what the program returned, so they repeat
exactly; the rest are measured seconds per pass.
"""

from __future__ import annotations

import numpy as np

PER_LAYER = {
    "corpus.load_s": "s",
    "corpus.split_s": "s",
    "corpus.sampling_table_s": "s",
    "model.init_s": "s",
    "model.load_s": "s",
    "model.save_s": "s",
    "cli.self_s": "s",
    "trainer.self_s": "s",
    "trainer.negatives_s": "s",
    "trainer.forward_backward_s": "s",
    "trainer.adam_s": "s",
    "trainer.validation_s": "s",
    "trainer.steps": "count",
    "trainer.step_ms_p50": "ms",
    "trainer.step_ms_p95": "ms",
    "trainer.params_per_step": "count",
    "trainer.grad_bytes_per_step": "bytes",
    "trainer.neg_accept_ratio": "ratio",
    "ranking.pool_s": "s",
    "ranking.topk_self_s": "s",
    "model.score_s": "s",
    "model.pairs_scored": "count",
    "taste.space_s": "s",
    "taste.pca_s": "s",
    "taste.tdd_self_s": "s",
    "taste.distribution_s": "s",
    "kmeans.s": "s",
    "kmeans.calls": "count",
    "kmeans.lloyd_iters": "count",
    "aisp.build_s": "s",
    "aisp.score_s": "s",
    "aisp.pairs_scored": "count",
    "explain.self_s": "s",
    "cmd.train_s": "s",
    "cmd.eval_sampled_s": "s",
    "cmd.eval_all_s": "s",
    "cmd.tdd_s": "s",
    "cmd.aisp_s": "s",
    "cmd.explain_s": "s",
    "trace.spans": "count",
    "trace.accounted_ratio": "ratio",
    "trace.overhead_s": "s",
}

COMPUTED = (
    "trainer.steps",
    "trainer.params_per_step",
    "trainer.grad_bytes_per_step",
    "trainer.neg_accept_ratio",
    "model.pairs_scored",
    "aisp.pairs_scored",
    "kmeans.calls",
    "kmeans.lloyd_iters",
    "trace.spans",
)


def _count_pairs(key):
    def count(tracer, args, result):
        tracer.counts[key] += len(result)

    return count


def _count_kmeans(tracer, args, result):
    tracer.counts["kmeans.calls"] += 1
    tracer.counts["kmeans.lloyd_iters"] += len(result[2])  # one objective per iteration


def _count_step(tracer, args, result):
    tracer.counts["trainer.steps"] += 1


def install(tracer) -> None:
    from personacf import aisp, cli, explain, model, taste, trainer

    w = tracer.wrap
    w(cli, "load_ratings", "corpus.load")
    w(cli, "split_leave_one_out", "corpus.split")
    w(trainer, "build_sampling_table", "corpus.sampling_table")
    w(cli, "init_model", "model.init")
    w(cli, "load_checkpoint", "model.load")
    w(cli, "save_checkpoint", "model.save")
    w(cli, "train", "trainer.train")
    w(trainer, "_draw_batch_negatives", "trainer.negatives")
    w(trainer, "_forward_backward", "trainer.forward_backward")
    w(trainer.Adam, "step", "trainer.adam", _count_step)
    w(trainer, "evaluate", "trainer.validation")
    w(cli, "evaluate", "ranking.evaluate")
    w(model, "score_all_items", "model.score", _count_pairs("model.pairs_scored"))
    w(aisp, "aisp_score_items", "aisp.score", _count_pairs("aisp.pairs_scored"))
    w(taste, "build_taste_space", "taste.space")
    w(taste, "kmeans", "kmeans", _count_kmeans)
    w(aisp, "kmeans", "kmeans", _count_kmeans)
    w(taste, "tdd_report", "taste.tdd")
    w(taste, "top_k_recommendations", "ranking.topk")
    w(explain, "top_k_recommendations", "ranking.topk")
    w(taste, "taste_distribution", "taste.distribution")
    w(aisp, "build_aisp", "aisp.build")
    w(explain, "explain_user", "explain")


def pass_metrics(tracer, pass_s: float) -> dict[str, float]:
    """Per-layer values of one traced pass, from its spans and counts."""
    own = tracer.self_times()
    total = tracer.totals()
    m = {
        "corpus.load_s": total["corpus.load"],
        "corpus.split_s": total["corpus.split"],
        "corpus.sampling_table_s": total["corpus.sampling_table"],
        "model.init_s": total["model.init"],
        "model.load_s": total["model.load"],
        "model.save_s": total["model.save"],
        "cli.self_s": sum(v for k, v in own.items() if k.startswith("cmd.")),
        "trainer.self_s": own["trainer.train"],
        "trainer.negatives_s": total["trainer.negatives"],
        "trainer.forward_backward_s": total["trainer.forward_backward"],
        "trainer.adam_s": total["trainer.adam"],
        "trainer.validation_s": total["trainer.validation"],
        "ranking.pool_s": own["trainer.validation"] + own["ranking.evaluate"],
        "ranking.topk_self_s": own["ranking.topk"],
        "model.score_s": total["model.score"],
        "taste.space_s": total["taste.space"],
        "taste.pca_s": own["taste.space"],
        "taste.tdd_self_s": own["taste.tdd"],
        "taste.distribution_s": total["taste.distribution"],
        "kmeans.s": total["kmeans"],
        "aisp.build_s": own["aisp.build"],
        "aisp.score_s": total["aisp.score"],
        "explain.self_s": own["explain"],
        "trace.spans": float(len(tracer.spans)),
        "trace.accounted_ratio": sum(own.values()) / pass_s,
    }
    for cmd in ("train", "eval_sampled", "eval_all", "tdd", "aisp", "explain"):
        m[f"cmd.{cmd}_s"] = total[f"cmd.{cmd}"]
    steps = tracer.gaps("trainer.negatives", "trainer.adam")
    m["trainer.step_ms_p50"] = 1e3 * float(np.median(steps)) if steps else 0.0
    m["trainer.step_ms_p95"] = 1e3 * float(np.percentile(steps, 95)) if steps else 0.0
    for key in ("trainer.steps", "model.pairs_scored", "aisp.pairs_scored",
                "kmeans.calls", "kmeans.lloyd_iters"):
        m[key] = tracer.counts[key]
    return m


def static_metrics(session) -> dict[str, float]:
    """Counts computed from the inputs: the dense Adam step's size and how
    often a negative draw is accepted (event-weighted 1 - the user's
    training mass in the sampling table)."""
    if not session.workload.trains:
        return {
            "trainer.params_per_step": 0.0,
            "trainer.grad_bytes_per_step": 0.0,
            "trainer.neg_accept_ratio": 0.0,
        }
    _, split, table, model = session.loaded
    blocks = model.parameter_blocks().values()
    probs = table.probabilities
    rows = split.train.per_user_items
    mass = sum(len(r) * (1.0 - probs[np.asarray(r, dtype=np.intp)].sum()) for r in rows)
    return {
        "trainer.params_per_step": float(sum(b.size for b in blocks)),
        "trainer.grad_bytes_per_step": float(sum(b.nbytes for b in blocks)),
        "trainer.neg_accept_ratio": mass / sum(len(r) for r in rows),
    }

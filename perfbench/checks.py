"""Correctness checks on the files one pass wrote.

Each check returns a list of problems (empty when the file is right). They
run once per benchmark run, on the first pass; later passes must then
reproduce the same bytes, which the output hashes verify.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

JS_MAX = math.sqrt(math.log(2.0))  # the square-root JS divergence, natural log
TOL = 1e-7  # reports print 6-8 decimals
SAMPLED_NEGATIVES = 100  # the eval protocol's default


def read_report(path: Path):
    """Split a TSV report into (column names, rows, summary lines)."""
    columns, rows, summary = None, [], {}
    for line in path.read_text().splitlines():
        fields = line.split("\t")
        if line.startswith("#"):
            summary[fields[0][2:]] = fields[1] if len(fields) > 1 else ""
        elif columns is None:
            columns = fields
        else:
            rows.append(fields)
    return columns, rows, summary


def quality(ranks, negatives: int = SAMPLED_NEGATIVES, cutoff=10) -> dict[str, float]:
    """HR@cutoff, NDCG@cutoff and AUC (the share of the sampled negatives
    ranked below the held-out item, averaged over users) from 1-based ranks."""
    ranks = np.asarray(list(ranks), dtype=float)
    if ranks.size == 0:
        return {"hr": 0.0, "ndcg": 0.0, "auc": 0.0}
    hit = ranks <= cutoff
    return {
        "hr": float(hit.mean()),
        "ndcg": float(np.where(hit, 1.0 / np.log2(ranks + 1.0), 0.0).mean()),
        "auc": float((1.0 - (ranks - 1.0) / negatives).mean()),
    }


def check_ranking(path: Path, split, max_rank: int | None) -> tuple[list[str], dict[int, int]]:
    """Ranks in range, one row per test user, summary equal to the rows."""
    columns, rows, summary = read_report(path)
    errors = []
    if columns != ["user", "rank"]:
        return [f"{path.name}: columns {columns}"], {}
    ranks = {int(u): int(r) for u, r in rows}
    skipped = summary.get("skipped_users", "")
    expected = set(split.test) - {int(u) for u in skipped.split(",") if u}
    if set(ranks) != expected:
        errors.append(f"{path.name}: {len(ranks)} ranked users, expected {len(expected)}")
    if ranks and (min(ranks.values()) < 1 or (max_rank and max(ranks.values()) > max_rank)):
        errors.append(f"{path.name}: rank outside [1, {max_rank}]")
    q = quality(ranks.values())
    for key, value in (("hr@10", q["hr"]), ("ndcg@10", q["ndcg"])):
        if abs(float(summary.get(key, "nan")) - value) > 1e-6:
            errors.append(f"{path.name}: {key} {summary.get(key)} != {value:.6f} from the rows")
    return errors, ranks


def check_all_items_ranks(ranks: dict[int, int], data, split, model, users) -> list[str]:
    """Brute-force leave-one-out rank over every item the user never
    consumed, ties broken by ascending item index."""
    from personacf import score_all_items

    errors = []
    for u in users:
        target = split.test[u]
        consumed = set(data.per_user_items[u])
        pool = [j for j in range(data.num_items) if j not in consumed and j != target]
        candidates = np.array([target, *pool], dtype=np.intp)
        scores = score_all_items(model, u, candidates)
        rest = scores[1:]
        rank = 1 + int(np.sum(rest > scores[0])) + int(
            np.sum((rest == scores[0]) & (candidates[1:] < target))
        )
        if ranks.get(u) != rank:
            errors.append(f"all-items rank of user {u}: report {ranks.get(u)}, brute force {rank}")
    return errors


def check_tdd(path: Path, split) -> tuple[list[str], dict[int, tuple[str, str]]]:
    columns, rows, summary = read_report(path)
    if columns != ["user", "js", "hellinger"]:
        return [f"{path.name}: columns {columns}"], {}
    errors = []
    values = {int(u): (js, hel) for u, js, hel in rows}
    if len(values) != split.train.num_users - len(
        [u for u in summary.get("skipped_users", "").split(",") if u]
    ):
        errors.append(f"{path.name}: {len(values)} users reported")
    js = np.array([float(v[0]) for v in values.values()])
    hel = np.array([float(v[1]) for v in values.values()])
    if js.size and (js.min() < 0 or js.max() > JS_MAX + TOL or hel.min() < 0 or hel.max() > 1 + TOL):
        errors.append(f"{path.name}: distance outside its range")
    for key, col in (("mean_js", js), ("mean_hellinger", hel)):
        if js.size and abs(float(summary.get(key, "nan")) - col.mean()) > TOL:
            errors.append(f"{path.name}: {key} does not match the rows")
    return errors, values


def check_tdd_users(values, split, model, space_path: Path, users, list_size=30) -> list[str]:
    """Recompute a few users' distances through the public taste API."""
    from personacf import hellinger, js_divergence, model_scorer, taste_distribution
    from personacf import top_k_recommendations
    from personacf.taste import load_taste_space

    space = load_taste_space(space_path)
    scorer = model_scorer(model)
    errors = []
    for u in users:
        recs, _ = top_k_recommendations(scorer, u, split.train, list_size)
        d = taste_distribution(recs, space)
        t = taste_distribution(split.train.per_user_items[u], space)
        expect = (f"{js_divergence(d, t):.8f}", f"{hellinger(d, t):.8f}")
        if values.get(u) != expect:
            errors.append(f"tdd of user {u}: report {values.get(u)}, recomputed {expect}")
    return errors


def check_history(path: Path, epochs: int) -> list[str]:
    _, rows, _ = read_report(path)
    errors = []
    if len(rows) != epochs:
        errors.append(f"{path.name}: {len(rows)} epochs, expected {epochs}")
    for row in rows:
        values = [float(x) for x in row]
        if not all(math.isfinite(v) for v in values):
            errors.append(f"{path.name}: non-finite value in epoch {row[0]}")
        if not (0 <= values[-2] <= 1 and 0 <= values[-1] <= 1):
            errors.append(f"{path.name}: validation metric outside [0, 1]")
    return errors


def check_checkpoint(path: Path, data) -> list[str]:
    from personacf import load_checkpoint

    model, _ = load_checkpoint(path)
    c = model.config
    errors = []
    if model.personas.shape != (data.num_users, c.personas, c.embedding_dim):
        errors.append(f"checkpoint personas shape {model.personas.shape}")
    if model.item_vectors.shape != (data.num_items, c.embedding_dim):
        errors.append(f"checkpoint item_vectors shape {model.item_vectors.shape}")
    if not all(np.isfinite(b).all() for b in model.parameter_blocks().values()):
        errors.append("checkpoint holds non-finite parameters")
    return errors


def check_explain(path: Path, data, split, user: int, top: int) -> list[str]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != f"# Recommendations for user {user}":
        return [f"{path.name}: bad title"]
    if "## Final list" not in lines:
        return [f"{path.name}: no final list"]
    start = lines.index("## Final list") + 4
    final = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        final.append(line.split("|")[2].strip())
    consumed = {data.item_ids[j] for j in split.train.per_user_items[user]}
    errors = []
    if len(final) != top:
        errors.append(f"{path.name}: {len(final)} items in the final list")
    if consumed & set(final):
        errors.append(f"{path.name}: recommends a consumed item")
    return errors


def check_pass(session) -> tuple[list[str], dict[int, int]]:
    """Check every file one pass of ``session`` wrote. Returns the problems
    and the sampled test ranks (user -> rank)."""
    from personacf import load_checkpoint
    from workloads import EPOCHS, EXPLAIN_TOP

    data, split, _, _ = session.loaded
    out = session.out
    model, _ = load_checkpoint(session.checkpoint)
    probe = sorted(split.test)[:: max(1, len(split.test) // 4)][:4]
    max_rank = SAMPLED_NEGATIVES + 1
    errors = check_checkpoint(session.checkpoint, data)
    errors += check_history(out / "history.tsv", EPOCHS)
    errs, ranks = check_ranking(out / "ranking_report.tsv", split, max_rank)
    errors += errs
    if not session.workload.trains:
        errs, all_ranks = check_ranking(session.out_all / "ranking_report.tsv", split, None)
        errors += errs + check_all_items_ranks(all_ranks, data, split, model, probe)
        errs, values = check_tdd(out / "tdd_report.tsv", split)
        errors += errs + check_tdd_users(values, split, model, out / "taste_space.npz", probe)
        errors += check_ranking(out / "aisp_ranking_report.tsv", split, max_rank)[0]
        errors += check_tdd(out / "aisp_tdd_report.tsv", split)[0]
        for ext in session.explain_users:
            errors += check_explain(
                out / f"explain_{ext}.md", data, split, data.user_index[ext], EXPLAIN_TOP
            )
    return errors, ranks

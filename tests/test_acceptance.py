"""Acceptance gate: one test per release criterion.

Each test prints a single summary line (visible with -rA or -s) so the
whole gate can be audited at a glance. Criteria that need the MovieLens
ratings file are skipped unless it is present; see conftest.ml100k_path.
"""

import math
import time

import numpy as np
import pytest
import yaml

from conftest import loss_and_grads, make_interactions, ml100k_path, sgd_step, two_taste_corpus
from personacf.aisp import aisp_scorer, build_aisp
from personacf.cli import main as cli_main
from personacf.corpus import (
    RatingFormat,
    build_sampling_table,
    load_ratings,
    split_leave_one_out,
)
from personacf.explain import explain_user
from personacf.model import ModelConfig, attend, init_model, model_scorer
from personacf.ranking import RankingProtocol, evaluate
from personacf.taste import (
    build_taste_space,
    hellinger,
    js_divergence,
    taste_distribution,
    tdd_report,
)
from personacf.trainer import LossConfig, train
from test_model import random_model
from test_ranking import brute_force_metrics
from test_trainer import scalar_loss_oracle

ML100K_FORMAT = RatingFormat(
    delimiter=",", columns=("user", "item", "rating", "timestamp"), header=True
)


def _load_ml100k():
    path = ml100k_path()
    if path is None:
        pytest.skip(
            "MovieLens ratings file not available; set PERSONACF_ML100K "
            "or place it at data/ratings.csv"
        )
    return load_ratings(path, ML100K_FORMAT)


def test_criterion_01_gradient_finite_differences():
    rng = np.random.default_rng(0)
    h = 1e-5
    start = time.time()
    worst = 0.0
    for _ in range(20):
        m = random_model(rng, num_users=5, num_items=10, d=8, da=8, r=2)
        cfg = LossConfig(
            alpha=float(rng.uniform(0.1, 0.9)),
            lambda_pos=float(rng.uniform(0.2, 2)),
            lambda_neg=float(rng.uniform(0.2, 2)),
        )
        user = int(rng.integers(5))
        pos = int(rng.integers(10))
        negs = [int(j) for j in rng.choice([j for j in range(10) if j != pos], 4, replace=False)]
        _, g = loss_and_grads(m, user, pos, negs, cfg)

        def fd(block, idx):
            orig = block[idx]
            block[idx] = orig + h
            up = loss_and_grads(m, user, pos, negs, cfg)[0].total
            block[idx] = orig - h
            down = loss_and_grads(m, user, pos, negs, cfg)[0].total
            block[idx] = orig
            return (up - down) / (2 * h)

        checks = []
        for idx, val in np.ndenumerate(g["personas"][user]):
            checks.append((val, fd(m.personas, (user, *idx))))
        for idx, val in np.ndenumerate(g["attn_user_map"]):
            checks.append((val, fd(m.attn_user_map, idx)))
        for idx, val in np.ndenumerate(g["attn_item_map"]):
            checks.append((val, fd(m.attn_item_map, idx)))
        for j in (pos, *negs):
            for i, val in enumerate(g["item_vectors"][j]):
                checks.append((val, fd(m.item_vectors, (j, i))))
            checks.append((g["item_bias"][j], fd(m.item_bias, (j,))))
        for got, num in checks:
            rel = abs(got - num) / max(abs(num), 1e-8)
            worst = max(worst, rel)
    elapsed = time.time() - start
    assert worst < 1e-4
    assert elapsed < 5.0
    print(f"criterion 1 PASS: max grad rel err {worst:.2e} in {elapsed:.1f}s")


def test_criterion_02_loss_scalar_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        m = random_model(rng, d=4, da=3, r=int(rng.integers(1, 4)))
        cfg = LossConfig(
            alpha=float(rng.uniform(0, 1)),
            lambda_pos=float(rng.uniform(0, 2)),
            lambda_neg=float(rng.uniform(0, 2)),
        )
        user = int(rng.integers(5))
        pos = int(rng.integers(10))
        n_negs = int(rng.integers(1, 6))
        negs = [int(j) for j in rng.choice([j for j in range(10) if j != pos], n_negs, replace=False)]
        got = loss_and_grads(m, user, pos, negs, cfg)[0].total
        want = scalar_loss_oracle(m, user, pos, negs, cfg)
        worst = max(worst, abs(got - want))
    assert worst < 1e-10
    print(f"criterion 2 PASS: max loss abs err {worst:.2e} over 100 instances")


def test_criterion_03_ranking_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(50):
        num_items = int(rng.integers(5, 21))
        num_users = int(rng.integers(2, 11))
        rows, targets = [], {}
        for u in range(num_users):
            n = int(rng.integers(2, num_items))
            items = rng.permutation(num_items)[:n].tolist()
            rows.append(items)
            targets[u] = items[-1]
        data = make_interactions(rows, num_items=num_items)
        table = np.round(rng.normal(size=(num_users, num_items)) * 2) / 2
        k = int(rng.integers(1, 11))
        report = evaluate(
            lambda u, c: table[u][c], targets, data,
            RankingProtocol(cutoff=k, candidate_mode="all-items"),
        )
        interacted = [set(row.tolist()) for row in data.per_user_items]
        hr, ndcg = brute_force_metrics(table, targets, interacted, num_items, k)
        assert report.hr_at_k == hr
        assert report.ndcg_at_k == pytest.approx(ndcg, abs=1e-12)
    print("criterion 3 PASS: HR/NDCG match brute force on 50 instances")


@pytest.mark.slow
def test_criterion_04_movielens_end_to_end():
    data = _load_ml100k()
    split = split_leave_one_out(data)
    cfg = ModelConfig(
        num_users=data.num_users, num_items=data.num_items,
        embedding_dim=64, attention_dim=64, personas=2,
    )
    rng = np.random.default_rng(0)
    model = init_model(cfg, rng)
    loss_cfg = LossConfig()  # 4 negatives, Adam 0.001, batch 256
    best, _ = train(split, model, loss_cfg, rng,
                    RankingProtocol(num_sampled_negatives=100, cutoff=10))
    report = evaluate(
        model_scorer(best), split.test, data,
        RankingProtocol(num_sampled_negatives=100, cutoff=10),
        np.random.default_rng(0),
    )
    assert report.hr_at_k >= 0.69
    print(
        f"criterion 4 PASS: movielens hr@10 {report.hr_at_k:.4f} "
        f"ndcg@10 {report.ndcg_at_k:.4f} (references 0.7376 / 0.4935)"
    )


@pytest.mark.slow
def test_criterion_05_aisp_movielens():
    data = _load_ml100k()
    split = split_leave_one_out(data)
    rng = np.random.default_rng(0)
    space = build_taste_space(split.train, pca_dims=100, k=50, rng=rng)
    baseline = build_aisp(split.train, space, 2, rng)
    report = evaluate(
        aisp_scorer(baseline), split.test, data,
        RankingProtocol(num_sampled_negatives=100, cutoff=10),
        np.random.default_rng(0),
    )
    assert report.hr_at_k == pytest.approx(0.6895, abs=0.05)
    print(f"criterion 5 PASS: aisp-2 hr@10 {report.hr_at_k:.4f} (reference 0.6895)")


def test_criterion_06_tdd_identity():
    data, _, _ = two_taste_corpus(seed=0)
    space = build_taste_space(data, pca_dims=20, k=8, rng=np.random.default_rng(0))
    worst = 0.0
    for user in range(data.num_users):
        history = data.per_user_items[user]
        d = taste_distribution(history, space)
        t = taste_distribution(history, space)
        worst = max(worst, js_divergence(d, t), hellinger(d, t))
    assert worst <= 1e-9
    print(f"criterion 6 PASS: identity JS/Hellinger at most {worst:.1e}")


@pytest.mark.slow
def test_criterion_07_tdd_ordering_movielens():
    data = _load_ml100k()
    split = split_leave_one_out(data)
    rng = np.random.default_rng(0)
    space = build_taste_space(split.train, pca_dims=100, k=50, rng=rng)
    cfg = ModelConfig(
        num_users=data.num_users, num_items=data.num_items,
        embedding_dim=64, attention_dim=64, personas=2,
    )
    model = init_model(cfg, np.random.default_rng(0))
    best, _ = train(split, model, LossConfig(), np.random.default_rng(0),
                    RankingProtocol(num_sampled_negatives=100, cutoff=10))
    trained = tdd_report(model_scorer(best), split, space, list_size=30)
    counts = np.zeros(data.num_items)
    for j in split.train.indices:
        counts[j] += 1
    popularity = tdd_report(lambda u, c: counts[np.asarray(c)], split, space, list_size=30)
    assert trained.mean_hellinger < popularity.mean_hellinger
    print(
        f"criterion 7 PASS: movielens mean hellinger trained "
        f"{trained.mean_hellinger:.4f} < popularity {popularity.mean_hellinger:.4f}"
    )


def test_criterion_07_tdd_ordering_synthetic():
    # directional stand-in that runs without the external dataset: the
    # trained model tracks each user's taste mix, a popularity ranking
    # pushes everyone toward the larger block
    data, _, _ = two_taste_corpus(seed=5)
    split = split_leave_one_out(data)
    cfg = ModelConfig(
        num_users=data.num_users, num_items=data.num_items,
        embedding_dim=16, attention_dim=16, personas=2,
    )
    model = init_model(cfg, np.random.default_rng(0))
    loss_cfg = LossConfig(
        alpha=0.3, lambda_pos=2.0, lambda_neg=1.0, learning_rate=0.01,
        batch_size=64, patience=10**9, max_epochs=200,
    )
    train(split, model, loss_cfg, np.random.default_rng(0))
    space = build_taste_space(split.train, pca_dims=20, k=8, rng=np.random.default_rng(0))
    trained = tdd_report(model_scorer(model), split, space, list_size=10)
    counts = np.zeros(data.num_items)
    for j in split.train.indices:
        counts[j] += 1
    popularity = tdd_report(lambda u, c: counts[np.asarray(c)], split, space, list_size=10)
    assert trained.mean_hellinger < popularity.mean_hellinger
    print(
        f"criterion 7 PASS (synthetic): mean hellinger trained "
        f"{trained.mean_hellinger:.4f} < popularity {popularity.mean_hellinger:.4f}"
    )


def test_criterion_08_distribution_properties():
    rng = np.random.default_rng(3)
    js_bound = math.sqrt(math.log(2))
    for _ in range(10_000):
        p = rng.random(8) + 1e-9
        p /= p.sum()
        q = rng.random(8) + 1e-9
        q /= q.sum()
        js = js_divergence(p, q)
        hel = hellinger(p, q)
        assert 0.0 <= hel <= 1.0
        assert 0.0 <= js <= js_bound + 1e-12
        assert abs(js - js_divergence(q, p)) <= 1e-12
        assert abs(hel - hellinger(q, p)) <= 1e-12
        assert js > 0 and hel > 0  # random pairs are never equal
        assert js_divergence(p, p) <= 1e-12
        assert hellinger(p, p) <= 1e-12
    print("criterion 8 PASS: bounds, symmetry and identity on 10^4 pairs")


def test_criterion_09_sampling_fidelity():
    # counts 9/4/1 under the square root give weights 3/2/1
    events = [0] * 9 + [1] * 4 + [2]
    rows = [[j] for j in events]
    data = make_interactions(rows, num_items=3)
    table = build_sampling_table(data)
    draws = table.draw(np.random.default_rng(4), 10**6)
    freq = np.bincount(draws, minlength=3) / 1e6
    expected = np.array([1 / 2, 1 / 3, 1 / 6])
    assert np.all(np.abs(freq - expected) < 0.01)
    print(
        "criterion 9 PASS: frequencies "
        + "/".join(f"{f:.4f}" for f in freq)
        + " vs 0.5/0.3333/0.1667"
    )


def test_criterion_10_entropy_dynamics():
    pos, negs = 1, [2, 3]
    m = random_model(np.random.default_rng(5), r=2)
    concentrate = LossConfig(alpha=0.0, lambda_pos=1.0, lambda_neg=0.0)
    maxima = [attend(m, 0, [pos]).attn_weights.max()]
    for _ in range(100):
        sgd_step(m, pos, negs, concentrate, lr=0.1)
        maxima.append(attend(m, 0, [pos]).attn_weights.max())
    assert all(b >= a - 1e-12 for a, b in zip(maxima, maxima[1:]))
    assert maxima[-1] > maxima[0]

    m = random_model(np.random.default_rng(6), r=2)
    spread = LossConfig(alpha=0.0, lambda_pos=0.0, lambda_neg=1.0)
    for _ in range(500):
        sgd_step(m, pos, negs, spread, lr=0.05)
    finals = [attend(m, 0, [n]).attn_weights.max() for n in negs]
    for f in finals:
        assert f == pytest.approx(0.5, abs=0.05)
    print(
        f"criterion 10 PASS: max weight {maxima[0]:.3f} -> {maxima[-1]:.3f} "
        f"(concentrate), negatives at "
        + "/".join(f"{f:.3f}" for f in finals)
        + " (spread, target 0.5)"
    )


def test_criterion_11_determinism(tmp_path):
    rng = np.random.default_rng(7)
    lines = []
    ts = 0
    for u in range(15):
        for j in rng.permutation(10)[:5]:
            lines.append(f"u{u}\ti{j}\t1\t{ts}")
            ts += 1
    ratings = tmp_path / "ratings.tsv"
    ratings.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({
        "dataset": {"path": str(ratings)},
        "model": {"embedding_dim": 8, "attention_dim": 8, "personas": 2},
        "loss": {"batch_size": 16, "max_epochs": 3, "patience": 5},
        "eval": {"num_sampled_negatives": 4, "cutoff": 3},
        "seed": 0,
        "output_dir": str(out),
        "deterministic": True,
    }))
    assert cli_main(["train", "-c", str(config)]) == 0
    first_ckpt = (out / "checkpoint.npz").read_bytes()
    first_hist = (out / "history.tsv").read_bytes()
    assert cli_main(["train", "-c", str(config)]) == 0
    assert (out / "checkpoint.npz").read_bytes() == first_ckpt
    assert (out / "history.tsv").read_bytes() == first_hist
    print("criterion 11 PASS: repeated train runs byte-identical")


@pytest.mark.slow
def test_criterion_12_synthetic_separability():
    data, block, mixed = two_taste_corpus(
        seed=2, a_only_users=160, b_only_users=80, anchor_history=16
    )
    split = split_leave_one_out(data)
    cfg = ModelConfig(
        num_users=data.num_users, num_items=data.num_items,
        embedding_dim=16, attention_dim=16, personas=2,
    )
    model = init_model(cfg, np.random.default_rng(0))
    loss_cfg = LossConfig(
        alpha=0.25, lambda_pos=4.0, lambda_neg=1.0, learning_rate=0.005,
        batch_size=64, patience=10**9, max_epochs=400,
    )
    train(split, model, loss_cfg, np.random.default_rng(0))

    attn_purities = []
    list_purities = []
    for u in range(mixed):
        items = np.array(split.train.per_user_items[u])
        weights = attend(model, u, items).attn_weights
        winners = weights.argmax(axis=0)
        for side in range(2):
            mask = (items // block) == side
            tally = np.bincount(winners[mask], minlength=2)
            attn_purities.append(tally.max() / mask.sum())
        report = explain_user(model, u, split.train, 10)
        for plist in report.persona_lists:
            members = np.array([j for j, _ in plist])
            frac_a = (members < block).mean()
            list_purities.append(max(frac_a, 1 - frac_a))
    attn = float(np.mean(attn_purities))
    lists = float(np.mean(list_purities))
    assert attn >= 0.90
    assert lists >= 0.80
    print(
        f"criterion 12 PASS: argmax attention purity {attn:.3f} (>= 0.90), "
        f"persona list purity {lists:.3f} (>= 0.80)"
    )

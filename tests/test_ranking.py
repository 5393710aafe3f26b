import numpy as np
import pytest

from conftest import make_interactions
from personacf.ranking import (
    RankingProtocol,
    evaluate,
    top_k_recommendations,
    unconsumed,
)


def brute_force_metrics(score_table, targets, interacted, num_items, k):
    """Exhaustive HR@k/NDCG@k over all non-interacted candidates: sort every
    candidate list explicitly and look the target up by position."""
    hits, gains = 0.0, 0.0
    for user, target in targets.items():
        candidates = [j for j in range(num_items) if j not in interacted[user] or j == target]
        ordered = sorted(candidates, key=lambda j: (-score_table[user][j], j))
        rank = ordered.index(target) + 1
        if rank <= k:
            hits += 1
            gains += 1.0 / np.log2(rank + 1)
    n = len(targets)
    return hits / n, gains / n


class TestEvaluate:
    def test_rank_one_gives_full_gain(self):
        data = make_interactions([[0, 1], [0, 2]], num_items=5)
        scores = {0: [0, 0, 0, 9, 1], 1: [0, 0, 0, 9, 1]}
        scorer = lambda u, cands: np.array([scores[u][j] for j in cands], dtype=float)
        report = evaluate(scorer, {0: 3, 1: 3}, data,
                          RankingProtocol(candidate_mode="all-items"))
        assert report.hr_at_k == 1.0
        assert report.ndcg_at_k == pytest.approx(1.0)

    def test_rank_five_gain(self):
        data = make_interactions([[10, 11]], num_items=12)
        # target item 0 scores below exactly four candidates
        table = [5.0] * 12
        table[0] = 1.0
        for j in (1, 2, 3, 4):
            table[j] = 10.0
        for j in range(5, 10):
            table[j] = 0.0
        scorer = lambda u, cands: np.array([table[j] for j in cands], dtype=float)
        report = evaluate(scorer, {0: 0}, data, RankingProtocol(candidate_mode="all-items"))
        assert report.per_user == [(0, 5)]
        assert report.hr_at_k == 1.0
        assert report.ndcg_at_k == pytest.approx(1.0 / np.log2(6))

    def test_ties_break_by_item_index(self):
        data = make_interactions([[8, 9]], num_items=10)
        scorer = lambda u, cands: np.zeros(len(cands))
        # all scores equal: target 5 loses ties to items 0..4 only
        report = evaluate(scorer, {0: 5}, data, RankingProtocol(candidate_mode="all-items"))
        assert report.per_user == [(0, 6)]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
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
            score_table = rng.normal(size=(num_users, num_items))
            # integer-quantized scores produce real ties for the tie-break path
            score_table = np.round(score_table * 2) / 2
            scorer = lambda u, cands: score_table[u][cands]
            k = int(rng.integers(1, 6))
            report = evaluate(scorer, targets, data,
                              RankingProtocol(cutoff=k, candidate_mode="all-items"))
            hr, ndcg = brute_force_metrics(score_table, targets, data.item_sets(),
                                           num_items, k)
            assert report.hr_at_k == pytest.approx(hr, abs=1e-12)
            assert report.ndcg_at_k == pytest.approx(ndcg, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        rows = [rng.permutation(30)[:6].tolist() for _ in range(8)]
        data = make_interactions(rows, num_items=30)
        targets = {u: rows[u][-1] for u in range(8)}
        table = rng.normal(size=(8, 30))
        base = evaluate(lambda u, c: table[u][c], targets, data,
                        RankingProtocol(candidate_mode="all-items"))
        warped = evaluate(lambda u, c: np.exp(3 * table[u][c]) + 7, targets, data,
                          RankingProtocol(candidate_mode="all-items"))
        assert base.per_user == warped.per_user

    def test_all_items_mode_is_seed_independent(self):
        rng = np.random.default_rng(2)
        rows = [rng.permutation(20)[:5].tolist() for _ in range(5)]
        data = make_interactions(rows, num_items=20)
        targets = {u: rows[u][-1] for u in range(5)}
        table = rng.normal(size=(5, 20))
        a = evaluate(lambda u, c: table[u][c], targets, data,
                     RankingProtocol(candidate_mode="all-items"), np.random.default_rng(1))
        b = evaluate(lambda u, c: table[u][c], targets, data,
                     RankingProtocol(candidate_mode="all-items"), np.random.default_rng(99))
        assert a.per_user == b.per_user

    def test_random_scorer_hits_ten_over_onehundredone(self):
        rng = np.random.default_rng(3)
        num_items = 300
        num_users = 400
        rows = [rng.permutation(num_items)[:4].tolist() for _ in range(num_users)]
        data = make_interactions(rows, num_items=num_items)
        targets = {u: rows[u][-1] for u in range(num_users)}
        table = rng.normal(size=(num_users, num_items))
        report = evaluate(lambda u, c: table[u][c], targets, data,
                          RankingProtocol(num_sampled_negatives=100, cutoff=10),
                          np.random.default_rng(4))
        assert report.hr_at_k == pytest.approx(10 / 101, abs=0.03)

    def test_user_without_candidates_skipped(self):
        data = make_interactions([[0, 1, 2]], num_items=3)
        scorer = lambda u, c: np.zeros(len(c))
        report = evaluate(scorer, {0: 2}, data, RankingProtocol())
        assert report.skipped == [0]
        assert report.per_user == []


class TestTopK:
    def test_only_candidate(self):
        data = make_interactions([[0]], num_items=2)
        top, short = top_k_recommendations(lambda u, c: np.zeros(len(c)), 0, data, 1)
        assert top == [1]
        assert not short

    def test_descending_scores_give_leading_indices(self):
        data = make_interactions([[0, 1]], num_items=10)
        scorer = lambda u, c: -np.asarray(c, dtype=float)
        top, _ = top_k_recommendations(scorer, 0, data, 3)
        assert top == [2, 3, 4]

    def test_short_list_flagged(self):
        data = make_interactions([[0, 1]], num_items=4)
        top, short = top_k_recommendations(lambda u, c: np.zeros(len(c)), 0, data, 10)
        assert top == [2, 3]
        assert short

    def test_excludes_training_items(self):
        data = make_interactions([[3, 5, 7]], num_items=8)
        top, _ = top_k_recommendations(lambda u, c: np.zeros(len(c)), 0, data, 8)
        assert set(top) == {0, 1, 2, 4, 6}


class TestUnconsumed:
    def test_matches_setdiff_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            consumed = rng.choice(n, size=rng.integers(0, n + 1), replace=False)
            for items in (consumed.tolist(), set(consumed.tolist()), consumed):
                got = unconsumed(n, items)
                expect = np.setdiff1d(np.arange(n), np.fromiter(items, dtype=np.intp))
                assert got.dtype == expect.dtype
                np.testing.assert_array_equal(got, expect)

    def test_empty_and_full_consumed_sets(self):
        for n in (1, 7):
            np.testing.assert_array_equal(unconsumed(n, []), np.arange(n))
            assert unconsumed(n, range(n)).size == 0
            assert unconsumed(n, []).dtype == np.setdiff1d(np.arange(n), []).dtype

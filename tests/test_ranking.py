import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_interactions
from personacf.corpus import split_leave_one_out
from personacf.model import ModelConfig, init_model, model_scorer
from personacf.ranking import (
    RankingProtocol,
    evaluate,
    top_k_recommendations,
    top_positions,
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
            interacted = [set(row.tolist()) for row in data.per_user_items]
            hr, ndcg = brute_force_metrics(score_table, targets, interacted, num_items, k)
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


class TestAllItemsMatchesBruteForce:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_ranks_equal_brute_force(self, data):
        """All-items ``evaluate`` through ``model_scorer`` ranks each test
        item as a count over every item the user never consumed, ties
        broken by ascending index."""
        num_items = data.draw(st.integers(2, 30))
        item = st.integers(0, num_items - 1)
        rows = data.draw(st.lists(st.lists(item, min_size=2, max_size=num_items, unique=True),
                                  min_size=1, max_size=8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        corpus = make_interactions(rows, num_items)
        split = split_leave_one_out(corpus)
        m = init_model(ModelConfig(len(rows), num_items, embedding_dim=4, attention_dim=4),
                       rng)
        m.personas[:] = rng.normal(0, 0.5, m.personas.shape)
        m.item_vectors[:] = rng.normal(0, 0.5, m.item_vectors.shape)
        # an item with a zero vector scores exactly its bias wherever it
        # sits in the candidate array, so biases of 0 or 1 make exact ties
        m.item_vectors[rng.random(num_items) < 0.5] = 0.0
        m.item_bias[:] = rng.integers(0, 2, num_items)
        scorer = model_scorer(m)
        report = evaluate(scorer, split.test, corpus, RankingProtocol(candidate_mode="all-items"))
        expected = []
        for u in sorted(split.test):
            s, t = scorer(u, np.arange(num_items)), split.test[u]
            pool = set(range(num_items)) - set(rows[u])
            expected.append((u, 1 + sum(s[j] > s[t] or (s[j] == s[t] and j < t) for j in pool)))
        assert report.per_user == expected


def full_sort_positions(scores, items, n):
    """``top_positions`` as one lexsort over every entry."""
    return np.lexsort((items, -scores))[:n]


SPECIAL_SCORES = [0.0, -0.0, 0.5, -1.0, np.inf, -np.inf, np.nan, -np.nan]


class TestTopPositions:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_full_lexsort(self, data):
        length = data.draw(st.integers(0, 40))
        value = st.sampled_from(SPECIAL_SCORES) | st.floats()  # floats include NaN and inf
        scores = np.array(data.draw(st.lists(value, min_size=length, max_size=length)))
        items = np.array(
            data.draw(st.lists(st.integers(0, 15), min_size=length, max_size=length)),
            dtype=np.intp,
        )
        n = data.draw(st.integers(1, length + 2))
        got = top_positions(scores, items, n)
        np.testing.assert_array_equal(got, full_sort_positions(scores, items, n))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_evaluate_ranks_the_target_in_the_same_order(self, data):
        """The held-out item's rank is its place in ``top_positions``' order,
        so a NaN target ranks after every number, not first."""
        num_items = data.draw(st.integers(2, 20))
        value = st.sampled_from(SPECIAL_SCORES) | st.floats()
        table = np.array(data.draw(st.lists(value, min_size=num_items, max_size=num_items)))
        target = data.draw(st.integers(0, num_items - 1))
        report = evaluate(lambda u, cands: table[cands], {0: target},
                          make_interactions([[target]], num_items),
                          RankingProtocol(candidate_mode="all-items"))
        order = full_sort_positions(table, np.arange(num_items), num_items).tolist()
        assert report.per_user == [(0, 1 + order.index(target))]

    def test_nan_target_ranks_after_numbers(self):
        # top_positions orders these [1, 2, 7, 9], so item 7 is 3rd
        table = {7: np.nan, 1: 0.5, 2: 0.2, 9: np.nan}
        scorer = lambda u, cands: np.array([table[j] for j in cands])
        data = make_interactions([[0, 3, 4, 5, 6, 8]], num_items=10)
        assert evaluate(scorer, {0: 7}, data, RankingProtocol(candidate_mode="all-items")
                        ).per_user == [(0, 3)]


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

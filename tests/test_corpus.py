from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from personacf import trainer
from personacf.corpus import (
    CorpusError,
    RatingFormat,
    build_sampling_table,
    load_ratings,
    split_leave_one_out,
)
from personacf.model import ModelConfig, init_model
from personacf.trainer import LossConfig, _draw_batch_negatives

TAB = RatingFormat(delimiter="\t", columns=("user", "item", "rating", "timestamp"))


def write_ratings(tmp_path, rows, name="ratings.tsv"):
    path = tmp_path / name
    path.write_text("".join(f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in rows))
    return path


class TestLoadRatings:
    def test_filters_users_with_single_item(self, tmp_path):
        path = write_ratings(
            tmp_path,
            [("u1", "a", 5, 1), ("u1", "b", 3, 2), ("u2", "c", 4, 3), ("u3", "d", 1, 4)],
        )
        data = load_ratings(path, TAB)
        assert data.num_users == 1
        assert data.num_items == 2
        assert [row.tolist() for row in data.per_user_items] == [[0, 1]]

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("x;y\n")
        with pytest.raises(CorpusError, match="line 1"):
            load_ratings(path, TAB)

    def test_bad_rating_names_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u\ta\t5\t1\nu\tb\tNOPE\t2\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_ratings(path, TAB)

    def test_duplicates_collapsed(self, tmp_path):
        path = write_ratings(
            tmp_path, [("u", "a", 5, 1), ("u", "a", 2, 2), ("u", "b", 3, 3)]
        )
        data = load_ratings(path, TAB)
        assert [row.tolist() for row in data.per_user_items] == [[0, 1]]

    def test_timestamp_order_with_stable_ties(self, tmp_path):
        path = write_ratings(
            tmp_path,
            [("u", "c", 5, 9), ("u", "a", 5, 1), ("u", "b", 5, 1), ("u", "d", 5, 5)],
        )
        data = load_ratings(path, TAB)
        names = [data.item_ids[j] for j in data.per_user_items[0]]
        assert names == ["a", "b", "d", "c"]

    def test_file_order_without_timestamp(self, tmp_path):
        fmt = RatingFormat(delimiter=",", columns=("user", "item", "rating"))
        path = tmp_path / "r.csv"
        path.write_text("u,z,5\nu,a,5\nu,m,5\n")
        data = load_ratings(path, fmt)
        assert [data.item_ids[j] for j in data.per_user_items[0]] == ["z", "a", "m"]

    def test_timestamp_order_refuses_nan(self, tmp_path):
        # sorted on a NaN key the history would keep file order (a, b, c, d),
        # so the held-out test item would be d, or a if b came first
        path = write_ratings(
            tmp_path, [("u", "a", 5, 3), ("u", "b", 5, "nan"), ("u", "c", 5, 1), ("u", "d", 5, 2)]
        )
        with pytest.raises(CorpusError, match=f"{path}: line 2: timestamp is NaN"):
            load_ratings(path, TAB)

    def test_min_rating_filter(self, tmp_path):
        path = write_ratings(
            tmp_path,
            [("u", "a", 1, 1), ("u", "b", 5, 2), ("u", "c", 4, 3), ("u", "e", "nan", 4),
             ("v", "a", 5, 1), ("v", "b", 5, 2)],
        )
        data = load_ratings(path, replace(TAB, min_rating=4.0))
        u = data.user_index["u"]
        assert [data.item_ids[j] for j in data.per_user_items[u]] == ["b", "c"]

    def test_empty_after_filtering(self, tmp_path):
        path = write_ratings(tmp_path, [("u1", "a", 5, 1), ("u2", "b", 5, 1)])
        with pytest.raises(CorpusError, match="no users"):
            load_ratings(path, TAB)

    def test_reload_is_identical(self, tmp_path):
        rows = [
            ("u2", "x", 3, 5), ("u1", "a", 5, 1), ("u1", "b", 3, 2),
            ("u2", "c", 4, 3), ("u3", "d", 1, 4), ("u3", "a", 2, 9),
        ]
        path = write_ratings(tmp_path, rows)
        first = load_ratings(path, TAB)
        second = load_ratings(path, TAB)
        assert [r.tolist() for r in first.per_user_items] == [
            r.tolist() for r in second.per_user_items
        ]
        assert first.user_index == second.user_index
        assert first.item_ids == second.item_ids

    def test_header_skipped(self, tmp_path):
        fmt = RatingFormat(delimiter=",", columns=("user", "item", "rating", "timestamp"), header=True)
        path = tmp_path / "r.csv"
        path.write_text("userId,movieId,rating,timestamp\nu,a,5,1\nu,b,4,2\n")
        data = load_ratings(path, fmt)
        assert data.num_users == 1 and data.num_items == 2


class TestSplit:
    def test_split_definitions(self, tmp_path):
        path = write_ratings(
            tmp_path,
            [("u", "a", 5, 1), ("u", "b", 5, 2), ("u", "c", 5, 3), ("u", "d", 5, 4)],
        )
        data = load_ratings(path, TAB)
        split = split_leave_one_out(data)
        names = lambda js: [data.item_ids[j] for j in js]
        assert names(split.train.per_user_items[0]) == ["a", "b"]
        assert data.item_ids[split.validation[0]] == "c"
        assert data.item_ids[split.test[0]] == "d"

    def test_two_item_user_gets_no_validation(self, tmp_path):
        path = write_ratings(tmp_path, [("u", "a", 5, 1), ("u", "b", 5, 2)])
        data = load_ratings(path, TAB)
        split = split_leave_one_out(data)
        assert split.train.per_user_items[0].tolist() == [data.item_ids.index("a")]
        assert 0 not in split.validation
        assert split.test[0] == data.item_ids.index("b")

    def test_every_train_user_keeps_an_item(self):
        rng = np.random.default_rng(7)
        from conftest import make_interactions

        for _ in range(20):
            rows = []
            for _ in range(rng.integers(2, 10)):
                n = int(rng.integers(2, 12))
                rows.append(rng.permutation(30)[:n].tolist())
            split = split_leave_one_out(make_interactions(rows, num_items=30))
            assert all(len(r) >= 1 for r in split.train.per_user_items)
            for u, row in enumerate(split.train.per_user_items):
                held = {split.test[u]} | ({split.validation[u]} if u in split.validation else set())
                assert not (set(row) & held)


class TestSamplingTable:
    def test_sqrt_counts(self):
        from conftest import make_interactions

        # counts: item 0 appears 4 times, item 1 once -> sqrt weights 2 : 1
        data = make_interactions([[0], [0], [0, 1], [0]], num_items=2)
        table = build_sampling_table(data)
        np.testing.assert_allclose(table.probabilities, [2 / 3, 1 / 3])

    def test_uniform_counts(self):
        from conftest import make_interactions

        table = build_sampling_table(make_interactions([[0, 1, 2]], num_items=3))
        np.testing.assert_allclose(table.probabilities, [1 / 3] * 3)

    def test_probabilities_sum_to_one(self):
        from conftest import make_interactions

        rng = np.random.default_rng(3)
        rows = [rng.permutation(50)[: rng.integers(1, 20)].tolist() for _ in range(30)]
        table = build_sampling_table(make_interactions(rows, num_items=50))
        assert np.all(table.probabilities >= 0)
        assert abs(table.probabilities.sum() - 1.0) < 1e-9

    def test_monte_carlo_matches_sqrt_distribution(self):
        from conftest import make_interactions

        rows = [[0] for _ in range(9)] + [[1] for _ in range(4)] + [[2]]
        # users need >= 1 item only here; counts 9, 4, 1 over items 0..2
        table = build_sampling_table(make_interactions(rows, num_items=3))
        rng = np.random.default_rng(11)
        draws = table.draw(rng, 10**6)
        freq = np.bincount(draws, minlength=3) / 10**6
        np.testing.assert_allclose(freq, [1 / 2, 1 / 3, 1 / 6], atol=0.01)

    def test_draw_below_one_stays_in_range(self):
        from conftest import make_interactions

        # trailing items no user trained on: a draw past the cumulative end
        # would return an index with zero probability or past the catalogue
        top_draw = SimpleNamespace(random=lambda size: np.full(size, np.nextafter(1.0, 0.0)))
        rng = np.random.default_rng(8)
        short = 0
        for _ in range(200):
            rows = [rng.permutation(30)[: rng.integers(1, 12)].tolist() for _ in range(9)]
            table = build_sampling_table(make_interactions(rows, num_items=40))
            short += np.cumsum(table.probabilities)[-1] < 1.0
            j = table.draw(top_draw, 1)[0]
            assert j < 40 and table.probabilities[j] > 0
        assert short  # some tables sum below 1 before the fix


class TestSampleNegatives:
    """The trainer's negative sampler and the guard that train() runs first."""

    def _table(self):
        from conftest import make_interactions

        return build_sampling_table(
            make_interactions([[0, 1, 2, 3, 4, 5]], num_items=6)
        )

    def _draw(self, table, exclude, n, rng):
        keys = np.array(sorted(exclude), dtype=np.intp)  # user 0: u * num_items + j is j
        return _draw_batch_negatives(np.array([0]), table, [exclude], keys, n, rng)[0]

    def test_forced_single_outcome(self):
        table = self._table()
        out = self._draw(table, {0, 1, 2, 3, 4}, 1, np.random.default_rng(0))
        assert out.tolist() == [5]

    def test_never_returns_excluded(self):
        table = self._table()
        rng = np.random.default_rng(5)
        exclude = {1, 3}
        for _ in range(100):
            for j in self._draw(table, exclude, 4, rng):
                assert j not in exclude

    def test_deterministic_under_seed(self):
        table = self._table()
        a = self._draw(table, {0}, 4, np.random.default_rng(42))
        b = self._draw(table, {0}, 4, np.random.default_rng(42))
        assert a.tolist() == b.tolist()

    def test_too_few_available(self, monkeypatch):
        from conftest import make_interactions

        # both users train on item 0 only, the one item the table can draw;
        # a draw would loop forever, so reaching one fails the test instead
        monkeypatch.setattr(trainer, "_draw_batch_negatives", lambda *a: pytest.fail("drew"))
        split = split_leave_one_out(make_interactions([[0, 1, 2], [0, 1, 3]], num_items=4))
        model = init_model(ModelConfig(num_users=2, num_items=4), np.random.default_rng(0))
        with pytest.raises(CorpusError, match="sampleable"):
            trainer.train(split, model, LossConfig(max_epochs=1), np.random.default_rng(0))


def loop_draw_negatives(users, table, train_sets, n_neg, rng):
    """The sampler the bulk one replaced: a loop over the slots in
    row-major order, redrawing one item at a time while the user has
    trained on it."""
    B = len(users)
    negs = table.draw(rng, (B, n_neg))
    for b in range(B):
        forbidden = train_sets[users[b]]
        for s in range(n_neg):
            while int(negs[b, s]) in forbidden:
                negs[b, s] = table.draw(rng, None)
    return negs


class TestBulkNegativesMatchLoop:
    """The bulk sampler returns the loop's negatives and leaves the
    generator in the loop's state, so training consumes the same stream."""

    @staticmethod
    def draw_both(table, train_sets, users, n_neg, seed):
        num_items = len(table.probabilities)
        keys = np.sort([u * num_items + j for u, items in enumerate(train_sets) for j in items])
        bulk_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _draw_batch_negatives(users, table, train_sets, keys, n_neg, bulk_rng)
        want = loop_draw_negatives(users, table, train_sets, n_neg, loop_rng)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert bulk_rng.bit_generator.state == loop_rng.bit_generator.state

    @staticmethod
    def table(counts):
        from conftest import make_interactions

        # one row holding item j counts[j] times gives the table those counts
        row = [j for j, c in enumerate(counts) for _ in range(c)]
        return build_sampling_table(make_interactions([row], num_items=len(counts)))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), num_items=st.integers(2, 12), num_users=st.integers(1, 5),
           B=st.integers(1, 40), n_neg=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_near_full_histories(self, data, num_items, num_users, B, n_neg, seed):
        counts = data.draw(st.lists(st.integers(1, 400), min_size=num_items,
                                    max_size=num_items))
        # every user leaves at least one item out, most leave out one or two
        train_sets = []
        for _ in range(num_users):
            free = data.draw(st.integers(1, num_items - 1) | st.integers(1, min(2, num_items - 1)))
            kept = data.draw(st.permutations(range(num_items)))[free:]
            train_sets.append(set(kept))
        users = np.array(data.draw(st.lists(st.integers(0, num_users - 1),
                                            min_size=B, max_size=B)), dtype=np.intp)
        self.draw_both(self.table(counts), train_sets, users, n_neg, seed)

    def test_pool_runs_out(self):
        # user 0 trained on every item but the rarest, so a slot takes about
        # 100 redraws and the first pool (4 per rejected slot + 64) runs out
        table = self.table([400, 400, 400, 400, 400, 1])
        sizes = []
        draw = table.draw

        def recording_draw(rng, size):
            sizes.append(size)
            return draw(rng, size)

        table.draw = recording_draw
        self.draw_both(table, [{0, 1, 2, 3, 4}], np.zeros(8, dtype=np.intp), 4, seed=11)
        bulk = sizes[: sizes.index((8, 4), 1)]  # the loop's first draw ends the bulk calls
        assert len(bulk) > 2, bulk  # the batch, the first pool and at least one more


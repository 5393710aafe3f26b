"""Property tests pinning the CSR interaction paths to straight-line
list-of-rows references (the layout ``Interactions`` used to store)."""

import numpy as np
import pytest
from conftest import make_interactions
from hypothesis import given, settings
from hypothesis import strategies as st

from personacf.corpus import CorpusError, Interactions, build_sampling_table, split_leave_one_out
from personacf.trainer import _check_negatives_drawable


@st.composite
def corpora(draw, min_len=0, max_items=12):
    """(rows, num_items): per-user item lists, repeats allowed."""
    num_items = draw(st.integers(1, max_items))
    rows = draw(st.lists(
        st.lists(st.integers(0, num_items - 1), min_size=min_len, max_size=15), max_size=12
    ))
    return rows, num_items


def reference_events(rows):
    return [(u, j) for u, row in enumerate(rows) for j in row]


def reference_split(rows):
    validation, test, train_rows = {}, {}, []
    for user, items in enumerate(rows):
        if len(items) < 2:
            raise CorpusError(f"user index {user} has fewer than 2 items")
        test[user] = items[-1]
        if len(items) >= 3:
            validation[user] = items[-2]
            train_rows.append(items[:-2])
        else:
            train_rows.append(items[:-1])
    return train_rows, validation, test


def reference_sampling_table(rows, num_items, power=0.5):
    counts = np.zeros(num_items)
    for _, item in reference_events(rows):
        counts[item] += 1
    weights = counts**power
    probs = weights / weights.sum()
    cumulative = np.cumsum(probs)
    cumulative[np.flatnonzero(probs)[-1] :] = 1.0
    return probs, cumulative


def reference_covering_user(rows, probabilities):
    drawable = np.count_nonzero(probabilities)
    for user, items in enumerate(rows):
        if np.count_nonzero(probabilities[np.asarray(items, dtype=np.intp)]) == drawable:
            return user
    return None


class TestInteractions:
    @settings(max_examples=200, deadline=None)
    @given(corpora())
    def test_rows_round_trip(self, corpus):
        rows, num_items = corpus
        data = Interactions.from_rows(rows, num_items)
        assert data.num_users == len(rows)
        assert [row.tolist() for row in data.per_user_items] == rows
        assert data.indptr.dtype == data.indices.dtype == np.intp

    @settings(max_examples=200, deadline=None)
    @given(corpora())
    def test_events_match_reference(self, corpus):
        rows, num_items = corpus
        data = Interactions.from_rows(rows, num_items)
        events = list(zip(data.event_users().tolist(), data.indices.tolist()))
        assert events == reference_events(rows)

    def test_id_lookups(self):
        data = Interactions.from_rows([[1, 0]], 2, user_ids=["u"], item_ids=["a", "b"])
        assert data.user_index == {"u": 0}
        assert data.item_ids == ["a", "b"]


class TestSplit:
    @settings(max_examples=200, deadline=None)
    @given(corpora())
    def test_matches_reference_slicing(self, corpus):
        rows, num_items = corpus
        data = make_interactions(rows, num_items)
        try:
            train_rows, validation, test = reference_split(rows)
        except CorpusError as exc:
            with pytest.raises(CorpusError, match=str(exc)):
                split_leave_one_out(data)
            return
        split = split_leave_one_out(data)
        assert [row.tolist() for row in split.train.per_user_items] == train_rows
        for got, want in ((split.validation, validation), (split.test, test)):
            assert list(got.items()) == list(want.items())  # key order too
            assert all(type(k) is int and type(v) is int for k, v in got.items())
        assert split.full is data
        assert split.train.user_ids is data.user_ids
        # the full rows are the train + validation + test sets the trainer
        # used to build by hand for validation exclusion
        for u, row in enumerate(split.full.per_user_items):
            held = {test[u]} | ({validation[u]} if u in validation else set())
            assert set(row.tolist()) == set(train_rows[u]) | held


class TestSamplingTable:
    @settings(max_examples=200, deadline=None)
    @given(corpora(min_len=1))
    def test_bytes_match_reference(self, corpus):
        rows, num_items = corpus
        if not rows:
            return
        table = build_sampling_table(make_interactions(rows, num_items))
        probs, cumulative = reference_sampling_table(rows, num_items)
        assert table.probabilities.tobytes() == probs.tobytes()
        assert table.cumulative.tobytes() == cumulative.tobytes()


class TestNegativesDrawable:
    @settings(max_examples=300, deadline=None)
    @given(corpora(max_items=5), corpora(min_len=1, max_items=5))
    def test_raises_exactly_when_reference_loop_did(self, corpus, table_corpus):
        rows, num_items = corpus
        table_rows, table_items = table_corpus
        if not table_rows:
            return
        # the table comes from other rows, so some items may be undrawable
        probabilities = build_sampling_table(
            make_interactions(table_rows, max(num_items, table_items))
        ).probabilities[:num_items]
        if not probabilities.any():
            return
        data = make_interactions(rows, num_items)
        user = reference_covering_user(rows, probabilities)
        if user is None:
            _check_negatives_drawable(data, probabilities)
        else:
            with pytest.raises(CorpusError, match=f"^user '{user}': "):
                _check_negatives_drawable(data, probabilities)

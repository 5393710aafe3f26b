import numpy as np
import pytest

from conftest import make_interactions
from personacf.explain import (
    ExplanationReport,
    LabeledItem,
    explain_user,
    render_markdown,
)
from personacf.model import ModelConfig, attend, init_model, softmax
from test_model import random_model


def identity_map_model(personas_per_user, item_vectors, bias=None):
    """Model whose attention maps are identity, so attention logits are
    plain persona-item dot products."""
    personas_per_user = np.asarray(personas_per_user, dtype=float)
    item_vectors = np.asarray(item_vectors, dtype=float)
    num_users, r, d = personas_per_user.shape
    cfg = ModelConfig(
        num_users=num_users, num_items=len(item_vectors),
        embedding_dim=d, attention_dim=d, personas=r,
    )
    m = init_model(cfg, np.random.default_rng(0))
    m.personas[:] = personas_per_user
    m.item_vectors[:] = item_vectors
    m.attn_user_map[:] = np.eye(d)
    m.attn_item_map[:] = np.eye(d)
    m.item_bias[:] = 0.0 if bias is None else bias
    return m


class TestAttentionWeights:
    def test_matches_scalar_softmax(self):
        rng = np.random.default_rng(0)
        model = random_model(rng)
        items = np.array([1, 4, 7])
        got = attend(model, 2, items).attn_weights
        for col, j in enumerate(items):
            logits = [
                float(model.personas[2][k] @ model.attn_user_map
                      @ model.attn_item_map @ model.item_vectors[j])
                for k in range(3)
            ]
            expect = softmax(np.array(logits))
            np.testing.assert_allclose(got[:, col], expect, atol=1e-12)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        w = attend(model, 0, np.arange(10)).attn_weights
        np.testing.assert_allclose(w.sum(axis=0), np.ones(10), atol=1e-12)


class TestLabels:
    def test_single_persona_labels_all_zero(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, r=1)
        data = make_interactions([[0, 1, 2], [3, 4]], num_items=10)
        report = explain_user(model, 0, data, 5)
        assert all(li.persona == 0 for li in report.final_list)
        assert all(li.persona == 0 for li in report.training_items)
        # with one persona the final list is that persona's list
        assert [li.item for li in report.final_list] == [
            j for j, _ in report.persona_lists[0]
        ]

    def test_label_is_argmax_attention(self):
        # persona 1 aligns with the item, personas 0 and 2 are orthogonal
        personas = np.array([[[0.0, 1.0, 0.0],
                              [5.0, 0.0, 0.0],
                              [0.0, 0.0, 1.0]]])
        items = np.array([[1.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        model = identity_map_model(personas, items)
        data = make_interactions([[1]], num_items=2)
        report = explain_user(model, 0, data, 1)
        assert report.final_list[0].item == 0
        assert report.final_list[0].persona == 1
        w = softmax(np.array([0.0, 5.0, 0.0]))
        assert report.final_list[0].weight == pytest.approx(w[1], abs=1e-12)

    def test_tie_breaks_to_lowest_persona(self):
        personas = np.array([[[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]])
        items = np.array([[1.0, 0.0], [0.5, 0.5]])
        model = identity_map_model(personas, items)
        data = make_interactions([[1]], num_items=2)
        report = explain_user(model, 0, data, 1)
        assert report.final_list[0].persona == 0
        assert report.training_items[0].persona == 0


class TestPersonaLists:
    def test_sorted_by_single_persona_score(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, num_items=20)
        data = make_interactions([[0, 5, 13]], num_items=20)
        report = explain_user(model, 0, data, 6)
        consumed = {0, 5, 13}
        for k, plist in enumerate(report.persona_lists):
            scores = {
                j: float(model.personas[0][k] @ model.item_vectors[j]
                         + model.item_bias[j])
                for j in range(20) if j not in consumed
            }
            expect = sorted(scores, key=lambda j: (-scores[j], j))[:6]
            assert [j for j, _ in plist] == expect
            for j, s in plist:
                assert s == pytest.approx(scores[j], abs=1e-10)

    def test_consumed_items_excluded_everywhere(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, num_items=12)
        data = make_interactions([[2, 3, 4, 5]], num_items=12)
        report = explain_user(model, 0, data, 8)
        for plist in report.persona_lists:
            assert not {j for j, _ in plist} & {2, 3, 4, 5}
        assert not {li.item for li in report.final_list} & {2, 3, 4, 5}

    def test_training_items_cover_history(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        data = make_interactions([[1, 7, 3]], num_items=10)
        report = explain_user(model, 0, data, 2)
        assert [li.item for li in report.training_items] == [1, 7, 3]

    def test_rejects_nonpositive_n(self):
        rng = np.random.default_rng(6)
        model = random_model(rng)
        data = make_interactions([[0]], num_items=10)
        with pytest.raises(ValueError):
            explain_user(model, 0, data, 0)


class TestRenderMarkdown:
    def _report(self):
        return ExplanationReport(
            user=3,
            persona_lists=[[(0, 1.5), (2, 0.25)], [(4, -0.5)]],
            final_list=[LabeledItem(item=0, persona=1, weight=0.9, score=1.5)],
            training_items=[LabeledItem(item=7, persona=0, weight=0.6)],
        )

    def test_plain_indices(self):
        text = render_markdown(self._report())
        assert "# Recommendations for user 3" in text
        assert "## Persona 0" in text
        assert "## Persona 1" in text
        assert "## Final list" in text
        assert "## Training items" in text

    def test_titles_resolved(self):
        item_ids = [str(100 + j) for j in range(8)]
        titles = {"100": "First Film", "107": "Late Film"}
        text = render_markdown(self._report(), item_ids=item_ids, titles=titles)
        assert "First Film" in text
        assert "Late Film" in text
        # item 2 has no title so its external id shows through
        assert "102" in text

    def test_ends_with_newline(self):
        assert render_markdown(self._report()).endswith("\n")

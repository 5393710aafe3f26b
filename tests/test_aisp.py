import math

import numpy as np
import pytest

from conftest import make_interactions
from personacf.aisp import AispModel, aisp_score_items, build_aisp
from personacf.taste import TasteSpace


def space_from_vectors(vectors):
    vectors = np.asarray(vectors, dtype=float)
    return TasteSpace(
        item_vectors=vectors,
        cluster_means=vectors[:1],
        pca_basis=np.zeros((vectors.shape[1], 1)),
        pca_mean=np.zeros(1),
    )


class TestBuild:
    def test_single_item_user_gets_that_vector(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(6, 4))
        space = space_from_vectors(vectors)
        data = make_interactions([[3]], num_items=6)
        model = build_aisp(data, space, p=3, rng=rng)
        assert model.user_personas[0].shape == (1, 4)
        np.testing.assert_allclose(model.user_personas[0][0], vectors[3])

    def test_two_blob_user(self):
        rng = np.random.default_rng(1)
        blob_a = rng.normal(0, 0.01, size=(5, 3)) + np.array([4.0, 0, 0])
        blob_b = rng.normal(0, 0.01, size=(5, 3)) + np.array([-4.0, 0, 0])
        vectors = np.vstack([blob_a, blob_b])
        space = space_from_vectors(vectors)
        data = make_interactions([list(range(10))], num_items=10)
        model = build_aisp(data, space, p=2, rng=rng)
        xs = sorted(model.user_personas[0][:, 0])
        assert xs[0] == pytest.approx(-4.0, abs=0.05)
        assert xs[1] == pytest.approx(4.0, abs=0.05)

    def test_persona_count_capped_by_distinct_items(self):
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(5, 3))
        space = space_from_vectors(vectors)
        data = make_interactions([[0, 1]], num_items=5)
        model = build_aisp(data, space, p=4, rng=rng)
        assert len(model.user_personas[0]) == 2


class TestScore:
    def test_single_persona_is_plain_dot_product(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(6, 4))
        model = AispModel(
            user_personas=[vectors[2:3].copy()],
            item_vectors=vectors,
        )
        for j in range(6):
            assert aisp_score_items(model, 0, [j])[0] == pytest.approx(float(vectors[2] @ vectors[j]), rel=1e-12)

    def test_orthogonal_unit_personas_analytic(self):
        personas = np.array([[1.0, 0.0], [0.0, 1.0]])
        item_vectors = np.array([[1.0, 0.0]])
        model = AispModel(user_personas=[personas], item_vectors=item_vectors)
        # logits (1, 0): attention e/(e+1) on persona 0, score e/(e+1)*1
        expected = math.e / (math.e + 1.0)
        assert aisp_score_items(model, 0, [0])[0] == pytest.approx(expected, abs=1e-12)

    def test_persona_permutation_invariance(self):
        rng = np.random.default_rng(4)
        personas = rng.normal(size=(3, 5))
        items = rng.normal(size=(8, 5))
        a = AispModel(user_personas=[personas], item_vectors=items)
        b = AispModel(user_personas=[personas[::-1].copy()], item_vectors=items)
        np.testing.assert_allclose(
            aisp_score_items(a, 0, np.arange(8)),
            aisp_score_items(b, 0, np.arange(8)),
            atol=1e-12,
        )

    def test_identical_personas_reduce_to_dot_product(self):
        rng = np.random.default_rng(5)
        row = rng.normal(size=5)
        personas = np.tile(row, (3, 1))
        items = rng.normal(size=(8, 5))
        model = AispModel(user_personas=[personas], item_vectors=items)
        np.testing.assert_allclose(
            aisp_score_items(model, 0, np.arange(8)), items @ row, atol=1e-10
        )

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        personas = rng.normal(size=(2, 4))
        items = rng.normal(size=(10, 4))
        model = AispModel(user_personas=[personas], item_vectors=items)
        batch = aisp_score_items(model, 0, np.arange(10))
        for j in range(10):
            assert batch[j] == pytest.approx(aisp_score_items(model, 0, [j])[0], rel=1e-12)

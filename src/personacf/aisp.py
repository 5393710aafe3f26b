"""Inference-only baseline: personas from per-user K-means over the
taste-space PCA item vectors, scored through the attentive pipeline with
identity attention maps and no bias."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Interactions
from .kmeans import kmeans
from .model import pool_scores, softmax
from .taste import TasteSpace


@dataclass
class AispModel:
    user_personas: list[np.ndarray]  # per user: (<=p, pca_dims) centroids
    item_vectors: np.ndarray  # shared PCA item vectors


def build_aisp(
    train: Interactions,
    space: TasteSpace,
    p: int,
    rng: np.random.Generator,
) -> AispModel:
    """K-means each user's training-item PCA vectors into at most ``p``
    personas (fewer when the user has fewer distinct items)."""
    if p < 1:
        raise ValueError("persona count must be >= 1")
    user_personas = []
    for items in train.per_user_items:
        points = space.item_vectors[items]
        centroids, _, _ = kmeans(points, p, rng)
        user_personas.append(centroids)
    return AispModel(user_personas=user_personas, item_vectors=space.item_vectors)


def aisp_score_items(model: AispModel, user: int, candidates) -> np.ndarray:
    """Attentive scores for one user over candidate items: dot-product
    affinities in the raw PCA space, softmax over personas, weighted
    persona mix dotted with the item vector (``pool_scores``)."""
    def scores_over(items):
        P = model.user_personas[user]  # (p, dims)
        V = model.item_vectors if items is None else model.item_vectors[items]  # (m, dims)
        logits = P @ V.T  # (p, m)
        weights = softmax(logits, axis=0)
        # score_j = sum_k w_kj * (P_k . v_j) = column sum of w * logits
        return (weights * logits).sum(axis=0)

    return pool_scores(scores_over, len(model.item_vectors), candidates)


def aisp_scorer(model: AispModel):
    def scorer(user: int, candidates: np.ndarray) -> np.ndarray:
        return aisp_score_items(model, user, candidates)

    return scorer

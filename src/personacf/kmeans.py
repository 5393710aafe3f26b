"""Small dense K-means with k-means++ seeding and restarts."""

from __future__ import annotations

import numpy as np

N_INIT = 3  # k-means++ restarts; the lowest final objective wins
MAX_ITER = 300  # Lloyd iterations per restart
TOL = 1e-6  # a restart stops once every centroid coordinate moves less than this


def _sq_dists(points, sq_norms, centroids):
    """(n, k) squared distances; ``sq_norms`` is ``np.square(points).sum(axis=1)``."""
    return sq_norms[:, None] - 2.0 * points @ centroids.T + np.square(centroids).sum(axis=1)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    diff = np.empty_like(points)  # one (n, p) buffer for every seed's distances

    def sq_dists_to(centroid):
        return np.square(np.subtract(points, centroid, out=diff), out=diff).sum(axis=1)

    centroids[0] = points[rng.integers(n)]
    d2 = sq_dists_to(centroids[0])
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[c] = points[rng.integers(n)]
            continue
        centroids[c] = points[np.searchsorted(np.cumsum(d2 / total), rng.random())]
        d2 = np.minimum(d2, sq_dists_to(centroids[c]))
    return centroids


def _lloyd(points, sq_norms, centroids):
    objectives = []
    for _ in range(MAX_ITER):
        d2 = _sq_dists(points, sq_norms, centroids)
        labels = d2.argmin(axis=1)
        objectives.append(float(d2.min(axis=1).sum()))
        new, shift = centroids.copy(), 0.0
        for c in range(len(centroids)):
            members = points[labels == c]
            if len(members):
                new[c] = members.mean(axis=0)
                shift = max(shift, float(np.abs(new[c] - centroids[c]).max()))
        centroids = new
        if shift < TOL:
            break
    return centroids, labels, objectives


def kmeans(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Cluster ``points`` into k groups; returns (centroids, labels,
    per-iteration objective of the winning restart). k is capped at the
    number of distinct points."""
    points = np.asarray(points, dtype=float)
    sq_norms = np.square(points).sum(axis=1)
    # Equal rows have equal sums (NaN sums collapse, -0.0 == 0.0), so more
    # than k distinct row sums prove more than k distinct rows and the
    # costlier row-wise unique is needed only otherwise.
    if len(np.unique(points.sum(axis=1))) <= k:
        distinct = np.unique(points, axis=0)
        if len(distinct) <= k:  # exact solution: one centroid per distinct point
            return distinct, _sq_dists(points, sq_norms, distinct).argmin(axis=1), [0.0]
    # restarts run in order; min keeps the first of equal final objectives
    restarts = (_lloyd(points, sq_norms, _kmeans_pp_init(points, k, rng)) for _ in range(N_INIT))
    return min(restarts, key=lambda run: run[2][-1])

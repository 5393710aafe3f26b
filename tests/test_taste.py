import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_interactions, two_taste_corpus
from personacf import taste
from personacf.corpus import split_leave_one_out
from personacf.kmeans import (
    N_INIT,
    _kmeans_pp_init,
    _lloyd,
    _sq_dists,
    _sq_dists_to,
    kmeans,
)
from personacf.model import BLOCK_VALUES, block_rows
from personacf.taste import (
    TasteSpace,
    TasteSpaceError,
    build_taste_space,
    hellinger,
    js_divergence,
    load_taste_space,
    principal_axes,
    save_taste_space,
    taste_distribution,
    tdd_report,
)


def random_distribution(rng, n=50):
    x = rng.random(n) + 1e-6
    return x / x.sum()


def js_oracle(p, q):
    """Scalar re-implementation with explicit loops."""
    m = [(pi + qi) / 2 for pi, qi in zip(p, q)]
    kl_p = sum(pi * math.log(pi / mi) for pi, mi in zip(p, m) if pi > 0)
    kl_q = sum(qi * math.log(qi / mi) for qi, mi in zip(q, m) if qi > 0)
    return math.sqrt((kl_p + kl_q) / 2)


class TestKMeans:
    def test_two_tight_blobs(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.01, size=(20, 3)) + np.array([5, 0, 0])
        b = rng.normal(0, 0.01, size=(20, 3)) + np.array([-5, 0, 0])
        points = np.vstack([a, b])
        centroids, labels, _ = kmeans(points, 2, rng)
        assert len(np.unique(labels[:20])) == 1
        assert len(np.unique(labels[20:])) == 1
        got = sorted(centroids[:, 0])
        assert got[0] == pytest.approx(-5, abs=0.1)
        assert got[1] == pytest.approx(5, abs=0.1)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(200, 5))
        _, _, objectives = kmeans(points, 8, rng)
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))

    def test_k_capped_at_distinct_points(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        centroids, labels, _ = kmeans(points, 5, np.random.default_rng(0))
        assert len(centroids) == 2
        assert labels[0] == labels[2] != labels[1]


def old_kmeans(points, k, rng, n_init=3, max_iter=300, tol=1e-6):
    """Straight-line copy of the k-means this module replaced: point norms
    and the distance expansion recomputed every Lloyd iteration, the
    objective read through the labels."""
    points = np.asarray(points, dtype=float)
    distinct = np.unique(points, axis=0)
    k = min(k, len(distinct))
    if k == len(distinct):
        d2 = (
            np.square(points).sum(axis=1)[:, None]
            - 2.0 * points @ distinct.T
            + np.square(distinct).sum(axis=1)[None, :]
        )
        return distinct, d2.argmin(axis=1), [0.0]
    best = None
    for _ in range(n_init):
        n = len(points)
        centroids = np.empty((k, points.shape[1]))
        centroids[0] = points[rng.integers(n)]
        d2 = np.square(points - centroids[0]).sum(axis=1)
        for c in range(1, k):
            total = d2.sum()
            if total <= 0:
                centroids[c] = points[rng.integers(n)]
                continue
            centroids[c] = points[np.searchsorted(np.cumsum(d2 / total), rng.random())]
            d2 = np.minimum(d2, np.square(points - centroids[c]).sum(axis=1))
        objectives = []
        for _ in range(max_iter):
            d2 = (
                np.square(points).sum(axis=1)[:, None]
                - 2.0 * points @ centroids.T
                + np.square(centroids).sum(axis=1)[None, :]
            )
            labels = d2.argmin(axis=1)
            objectives.append(float(d2[np.arange(len(points)), labels].sum()))
            new = centroids.copy()
            shift = 0.0
            for c in range(len(centroids)):
                members = points[labels == c]
                if len(members):
                    new[c] = members.mean(axis=0)
                    shift = max(shift, float(np.abs(new[c] - centroids[c]).max()))
            centroids = new
            if shift < tol:
                break
        if best is None or objectives[-1] < best[2][-1]:
            best = (centroids, labels, objectives)
    return best


# exact distance ties come from small integers; -0.0 and 0.0 compare equal
coordinate = (
    st.integers(-3, 3).map(float)
    | st.sampled_from([0.0, -0.0])
    | st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
)


def kmeans_unique_every_call(points, k, rng):
    """Straight-line copy of ``kmeans`` as it was before the row-sum
    pre-test: the row-wise unique ran on every call."""
    points = np.asarray(points, dtype=float)
    sq_norms = np.square(points).sum(axis=1)
    distinct = np.unique(points, axis=0)
    k = min(k, len(distinct))
    if k == len(distinct):
        return distinct, _sq_dists(2.0 * points, sq_norms, distinct).argmin(axis=1), [0.0]
    restarts = (_lloyd(points, 2.0 * points, sq_norms, _kmeans_pp_init(points, k, rng))
                for _ in range(N_INIT))
    return min(restarts, key=lambda run: run[2][-1])


class TestKMeansMatchesOldCode:
    @staticmethod
    def assert_matches_old(points, k, seed, old=old_kmeans):
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # a second call on the same generator, as AISP makes
            got, want = kmeans(points, k, new_rng), old(points, k, old_rng)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tolist() == want[1].tolist()
            assert np.array(got[2]).tobytes() == np.array(want[2]).tobytes()
            assert new_rng.bit_generator.state == old_rng.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_bytes_and_generator_state(self, data):
        p = data.draw(st.integers(1, 4))
        row = st.lists(coordinate, min_size=p, max_size=p)
        pool = data.draw(st.lists(row, min_size=1, max_size=12))  # one row: all points equal
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
        points = np.array([pool[i] for i in picks])  # repeated picks: duplicate rows
        k = data.draw(st.integers(1, 3) | st.integers(1, len(points) + 2))
        self.assert_matches_old(points, k, data.draw(st.integers(0, 2**32 - 1)))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(10, 150), p=st.integers(1, 5), k=st.integers(2, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_same_bytes_on_gaussian_points(self, n, p, k, seed):
        # one overlapping cloud: Lloyd runs many iterations down to small shifts
        points = np.random.default_rng(seed).normal(size=(n, p))
        self.assert_matches_old(points, k, seed)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_row_sum_pretest_changes_nothing(self, data):
        # rows that are permutations of each other share a sum but are
        # distinct; -0.0, NaN and infinities test how equal sums compare
        p = data.draw(st.integers(1, 4))
        base = data.draw(st.lists(coordinate | st.sampled_from([np.nan, np.inf, -np.inf]),
                                  min_size=p, max_size=p))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pool = [rng.permutation(base).tolist() for _ in range(data.draw(st.integers(1, 6)))]
        pool += data.draw(st.lists(st.lists(coordinate, min_size=p, max_size=p), max_size=4))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
        points = np.array([pool[i] for i in picks])  # repeated picks: duplicate rows
        k = data.draw(st.integers(1, 3) | st.integers(1, len(points) + 2))
        with np.errstate(invalid="ignore", over="ignore"):
            self.assert_matches_old(points, k, data.draw(st.integers(0, 2**32 - 1)),
                                    old=kmeans_unique_every_call)


def seed_block_sizes():
    # n one below, at and one above a block of rows, for widths that fill a
    # block with many rows, a few rows and (above BLOCK_VALUES) the 2-row floor
    for p in (1, 3, 64, 100, 5_000, BLOCK_VALUES + 7):
        rows = block_rows(p)
        for n in (rows - 1, rows, rows + 1, 2 * rows + 1):
            if n >= 1:
                yield n, p


class TestBlockedDistancesMatchOldCode:
    @pytest.mark.parametrize("n,p", list(seed_block_sizes()))
    def test_seed_distances_same_bytes(self, n, p):
        rng = np.random.default_rng(n * 7 + p)
        points = rng.normal(size=(n, p)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
        centroid = points[rng.integers(n)] + rng.normal(size=p)
        rows = block_rows(p)
        got = _sq_dists_to(points, centroid, np.empty((min(rows, n), p)), np.empty(n))
        assert got.tobytes() == np.square(points - centroid).sum(axis=1).tobytes()

    @pytest.mark.parametrize("n,p", [(n, p) for n, p in seed_block_sizes() if p >= 64])
    def test_kmeans_across_seed_blocks(self, n, p):
        # the seeding's distances span one, two and three row blocks; the
        # narrow widths' long blocks are left to the test above, for time
        points = np.random.default_rng(p).normal(size=(n, p))
        TestKMeansMatchesOldCode.assert_matches_old(points, max(1, min(n - 1, 6)), n)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 600), p=st.integers(1, 70), k=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_in_place_sq_dists_same_bytes(self, n, p, k, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, p)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
        centroids = rng.normal(size=(k, p))
        sq_norms = np.square(points).sum(axis=1)
        want = sq_norms[:, None] - 2.0 * points @ centroids.T + np.square(centroids).sum(axis=1)
        assert _sq_dists(2.0 * points, sq_norms, centroids).tobytes() == want.tobytes()


def old_principal_axes(Xc):
    """Frozen copy of ``principal_axes`` before it factored its argument in
    place: ``np.linalg.qr`` copies ``Xc`` and leaves it as it was."""
    rows, cols = Xc.shape
    if rows >= int(cols * 11 / 6):
        return np.linalg.svd(np.linalg.qr(Xc, mode="r"), full_matrices=False)[1:]
    return np.linalg.svd(Xc, full_matrices=False)[1:]


def old_build_taste_space(train, pca_dims, k, rng, center=True):
    """Straight-line copy of the build this module replaced: a C-order 0/1
    user-by-item matrix whose transpose is centred into a new array, which
    is factored through a copy and projected."""
    R = np.zeros((train.num_users, train.num_items))
    R[train.event_users(), train.indices] = 1.0
    X = R.T
    mean = X.mean(axis=0) if center else np.zeros(train.num_users)
    Xc = X - mean
    s, Vt = old_principal_axes(Xc)
    avail = min(pca_dims, int(np.count_nonzero(s > s[0] * 1e-12)) if len(s) else 0)
    basis = np.zeros((pca_dims, train.num_users))
    basis[:avail] = Vt[:avail]
    vectors = Xc @ basis.T
    means, _, _ = kmeans(vectors, k, rng)
    return TasteSpace(vectors, means, basis, mean, center)


class TestBuildTasteSpace:
    def test_disjoint_blocks_separate(self):
        # two user groups consuming two disjoint item blocks
        rows = [[0, 1, 2, 3] for _ in range(10)] + [[4, 5, 6, 7] for _ in range(10)]
        data = make_interactions(rows, num_items=8)
        with pytest.warns(UserWarning):
            space = build_taste_space(data, pca_dims=4, k=2, rng=np.random.default_rng(0))
        d = space.item_vectors[:, None, :] - space.cluster_means[None, :, :]
        labels = np.square(d).sum(axis=2).argmin(axis=1)
        assert len(set(labels[:4])) == 1
        assert len(set(labels[4:])) == 1
        assert labels[0] != labels[4]

    def test_full_rank_projection_preserves_geometry(self):
        rng = np.random.default_rng(2)
        rows = [rng.permutation(12)[: rng.integers(3, 9)].tolist() for _ in range(30)]
        data = make_interactions(rows, num_items=12)
        with pytest.warns(UserWarning):
            # centering drops one rank, so the last component is padding
            space = build_taste_space(data, pca_dims=12, k=3, rng=rng)
        # with every component kept the projection is an isometry of the
        # centered item columns: pairwise distances must be preserved
        R = np.zeros((data.num_users, data.num_items))
        for u, j in zip(data.event_users(), data.indices):
            R[u, j] = 1.0
        X = R.T - R.T.mean(axis=0)
        orig = np.linalg.norm(X[:, None] - X[None, :], axis=2)
        proj = np.linalg.norm(
            space.item_vectors[:, None] - space.item_vectors[None, :], axis=2
        )
        np.testing.assert_allclose(proj, orig, atol=1e-8)

    @pytest.mark.parametrize("center", [True, False])
    @pytest.mark.parametrize("num_users,num_items", [(50, 60), (40, 30), (40, 300), (30, 1000)])
    def test_same_bytes_as_the_copied_build(self, num_users, num_items, center):
        # the first two stay below the QR crossover (91 and 73 item rows),
        # the last two factor the matrix in place
        rng = np.random.default_rng(num_users + num_items)
        rows = [rng.choice(num_items, size=rng.integers(3, 15), replace=False)
                for _ in range(num_users)]
        data = make_interactions(rows, num_items=num_items)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            want = old_build_taste_space(data, 10, 4, np.random.default_rng(5), center)
            got = build_taste_space(data, 10, 4, np.random.default_rng(5), center)
        for name in ("item_vectors", "cluster_means", "pca_basis", "pca_mean"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_shapes(self):
        rng = np.random.default_rng(3)
        rows = [rng.permutation(40)[:10].tolist() for _ in range(25)]
        data = make_interactions(rows, num_items=40)
        space = build_taste_space(data, pca_dims=10, k=5, rng=rng)
        assert space.item_vectors.shape == (40, 10)
        assert space.cluster_means.shape == (5, 10)
        assert np.all(np.isfinite(space.item_vectors))
        assert np.all(np.isfinite(space.cluster_means))


def centred_binary(rng, rows, cols, density=0.3):
    X = (rng.random((rows, cols)) < density).astype(float)
    return X - X.mean(axis=0)


def crossover(cols):
    """dgesdd's MNTHR: from this many rows up it factors by QR first."""
    return int(cols * 11 / 6)


class TestPrincipalAxes:
    """``principal_axes`` takes the SVD of the R factor on tall matrices;
    it must give ``np.linalg.svd``'s singular values and axes byte for
    byte, on each side of the crossover."""

    @pytest.mark.parametrize("cols", [3, 5, 17, 40, 100])
    @pytest.mark.parametrize("offset", [-2, -1, 0, 1])
    def test_same_bytes_next_to_the_crossover(self, cols, offset):
        X = centred_binary(np.random.default_rng(cols), crossover(cols) + offset, cols)
        _, s, Vt = np.linalg.svd(X, full_matrices=False)
        got_s, got_Vt = principal_axes(X)
        assert got_s.tobytes() == s.tobytes()
        assert got_Vt.tobytes() == Vt.tobytes()

    @pytest.mark.parametrize("shape", [(2, 17), (16, 17), (40, 300), (300, 300), (2000, 300)])
    def test_same_bytes_on_wide_square_and_tall_matrices(self, shape):
        X = centred_binary(np.random.default_rng(sum(shape)), *shape, density=0.05)
        _, s, Vt = np.linalg.svd(X, full_matrices=False)
        got_s, got_Vt = principal_axes(X)
        assert got_s.tobytes() == s.tobytes()
        assert got_Vt.tobytes() == Vt.tobytes()

    def test_rank_deficient_space_pads_the_same_axes(self):
        # 40 users in 20 identical pairs consume 300 items: rank 20, so
        # 24 components leave 4 zero-padded
        rng = np.random.default_rng(7)
        rows = [rng.choice(300, size=30, replace=False) for _ in range(20)]
        data = make_interactions([row for row in rows for _ in range(2)], num_items=300)
        with pytest.warns(UserWarning, match="rank 20 < 24"):
            space = build_taste_space(data, pca_dims=24, k=3, rng=np.random.default_rng(0))
        R = np.zeros((data.num_users, data.num_items))
        R[data.event_users(), data.indices] = 1.0
        _, _, Vt = np.linalg.svd(R.T - R.T.mean(axis=0), full_matrices=False)
        expected = np.zeros((24, data.num_users))
        expected[:20] = Vt[:20]
        assert space.pca_basis.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cols", [3, 5, 17, 40, 100])
    @pytest.mark.parametrize("offset", [-2, -1, 0, 1])
    def test_factors_in_place_from_the_crossover_on(self, cols, offset):
        X = centred_binary(np.random.default_rng(cols), crossover(cols) + offset, cols)
        before = X.copy()
        principal_axes(X)
        if offset < 0:
            assert X.tobytes() == before.tobytes()
        else:
            assert np.triu(X[:cols]).tobytes() == np.linalg.qr(before, mode="r").tobytes()

    @pytest.mark.parametrize("shape", [(9, 5), (72, 40), (73, 40), (2000, 300)])
    @pytest.mark.parametrize("route", ["no-gufunc", "read-only"])
    def test_qr_on_a_copy_gives_the_same_bytes(self, monkeypatch, shape, route):
        # without numpy's in-place gufunc, or on a read-only matrix, the
        # axes come through np.linalg.qr and the argument is left alone
        X = centred_binary(np.random.default_rng(sum(shape)), *shape)
        before = X.copy()
        if route == "no-gufunc":
            monkeypatch.setattr(taste, "_qr_r_raw", None)
        else:
            X.flags.writeable = False
        _, s, Vt = np.linalg.svd(before, full_matrices=False)
        got_s, got_Vt = principal_axes(X)
        assert got_s.tobytes() == s.tobytes()
        assert got_Vt.tobytes() == Vt.tobytes()
        assert X.tobytes() == before.tobytes()

    def test_peak_memory_stays_below_two_matrices(self):
        # the centred item-by-user matrix, factored in place (LAPACK's
        # working copy is not traced), then rebuilt once it is freed
        rng = np.random.default_rng(0)
        num_users, num_items = 200, 2000
        rows = [rng.choice(num_items, size=rng.integers(5, 40), replace=False)
                for _ in range(num_users)]
        data = make_interactions(rows, num_items=num_items)
        tracemalloc.start()
        try:
            build_taste_space(data, pca_dims=10, k=5, rng=np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * num_items * num_users * 8


class TestLoadTasteSpaceFitsCorpus:
    """Given the training interactions, ``load_taste_space`` rejects a space
    that does not fit them; without them, the same files load."""

    train = make_interactions([[0, 1], [2, 3], [1]], num_items=4)

    @staticmethod
    def saved(tmp_path, vectors, means):
        path = tmp_path / "space.npz"
        save_taste_space(path, TasteSpace(vectors, means, np.eye(2, 3), np.zeros(3)))
        return path

    def test_fitting_space_loads(self, tmp_path):
        path = self.saved(tmp_path, np.ones((4, 2)), np.ones((3, 2)))
        assert load_taste_space(path, self.train).cluster_means.shape == (3, 2)

    @pytest.mark.parametrize("vectors,means", [
        (np.ones(4), np.ones((3, 2))),
        (np.ones((4, 2)), np.ones(2)),
        (np.ones((3, 2)), np.ones((3, 2))),
        (np.ones((5, 2)), np.ones((3, 2))),
        (np.ones((4, 2)), np.ones((0, 2))),
        (np.ones((4, 2)), np.ones((3, 3))),
    ], ids=["1-d-vectors", "1-d-means", "too-few-rows", "too-many-rows", "no-cluster-mean",
            "mismatched-widths"])
    def test_misfit_raises(self, tmp_path, vectors, means):
        path = self.saved(tmp_path, vectors, means)
        message = (f"taste space {path} has item vectors {vectors.shape} and cluster means "
                   f"{means.shape}; the dataset has 4 items")
        with pytest.raises(TasteSpaceError, match=re.escape(message)):
            load_taste_space(path, self.train)
        space = load_taste_space(path)
        assert space.item_vectors.shape == vectors.shape
        assert space.cluster_means.shape == means.shape


class TestTasteDistribution:
    def _space(self):
        vectors = np.eye(4)
        means = np.eye(4)[:3]
        return TasteSpace(
            item_vectors=vectors,
            cluster_means=means,
            pca_basis=np.eye(4),
            pca_mean=np.zeros(4),
        )

    def test_item_at_centroid(self):
        space = self._space()
        probs = taste_distribution([0], space)
        # distance 0 to the matching cluster, 1 to the orthogonal ones:
        # softmax of distances puts the minimum weight on the match
        assert probs.argmin() == 0
        assert probs[1] == pytest.approx(probs[2], abs=1e-12)
        expected_min = math.exp(0) / (math.exp(0) + 2 * math.e)
        assert probs[0] == pytest.approx(expected_min, abs=1e-12)

    def test_duplicate_items_idempotent(self):
        space = self._space()
        np.testing.assert_allclose(
            taste_distribution([2, 2], space), taste_distribution([2], space), atol=1e-12
        )

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        space = TasteSpace(
            item_vectors=rng.normal(size=(30, 6)),
            cluster_means=rng.normal(size=(5, 6)),
            pca_basis=np.zeros((6, 10)),
            pca_mean=np.zeros(10),
        )
        for _ in range(10):
            items = rng.choice(30, size=8, replace=False)
            probs = taste_distribution(items, space)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs >= 0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        space = TasteSpace(
            item_vectors=rng.normal(size=(30, 6)),
            cluster_means=rng.normal(size=(5, 6)),
            pca_basis=np.zeros((6, 10)),
            pca_mean=np.zeros(10),
        )
        items = [3, 17, 8, 25]
        np.testing.assert_allclose(
            taste_distribution(items, space),
            taste_distribution(items[::-1], space),
            atol=1e-12,
        )

    def test_zero_norm_vector_warns(self):
        space = self._space()
        space.item_vectors = np.vstack([space.item_vectors, np.zeros(4)])
        with pytest.warns(UserWarning, match="zero-norm"):
            probs = taste_distribution([4], space)
        # maximal distance everywhere -> uniform softmax
        np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-12)


class TestDivergences:
    def test_identical_distributions_are_zero(self):
        rng = np.random.default_rng(6)
        p = random_distribution(rng)
        assert js_divergence(p, p) == 0.0
        assert hellinger(p, p) == 0.0

    def test_disjoint_support(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert js_divergence(p, q) == pytest.approx(math.sqrt(math.log(2)), abs=1e-12)
        assert hellinger(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_distribution(rng, 10)
            q = random_distribution(rng, 10)
            assert js_divergence(p, q) == pytest.approx(js_oracle(p, q), abs=1e-12)

    def test_property_sweep(self):
        rng = np.random.default_rng(8)
        bound = math.sqrt(math.log(2))
        for _ in range(10_000):
            p = random_distribution(rng, 8)
            q = random_distribution(rng, 8)
            js = js_divergence(p, q)
            hel = hellinger(p, q)
            assert 0.0 <= hel <= 1.0
            assert 0.0 <= js <= bound + 1e-12
            assert js == pytest.approx(js_divergence(q, p), abs=1e-12)
            assert hel == pytest.approx(hellinger(q, p), abs=1e-12)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = random_distribution(rng, 6)
            q = random_distribution(rng, 6)
            if np.allclose(p, q, atol=1e-12):
                continue
            assert js_divergence(p, q) > 0
            assert hellinger(p, q) > 0


class TestTddReport:
    def test_history_as_recommendations_gives_zero(self):
        data, _, _ = two_taste_corpus(seed=10)
        split = split_leave_one_out(data)
        space = build_taste_space(data, pca_dims=20, k=5, rng=np.random.default_rng(0))

        report_rows = []
        for user in range(data.num_users):
            history = split.train.per_user_items[user]
            d = taste_distribution(history, space)
            t = taste_distribution(history, space)
            report_rows.append((js_divergence(d, t), hellinger(d, t)))
        for js, hel in report_rows:
            assert js == pytest.approx(0.0, abs=1e-9)
            assert hel == pytest.approx(0.0, abs=1e-9)

    def test_report_runs_and_aggregates(self):
        data, _, _ = two_taste_corpus(seed=11)
        split = split_leave_one_out(data)
        space = build_taste_space(split.train, pca_dims=20, k=5, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        table = rng.normal(size=(data.num_users, data.num_items))
        report = tdd_report(lambda u, c: table[u][c], split, space, list_size=10)
        assert len(report.per_user) == data.num_users
        assert report.mean_js == pytest.approx(
            np.mean([r[1] for r in report.per_user]), abs=1e-12
        )
        assert report.mean_hellinger == pytest.approx(
            np.mean([r[2] for r in report.per_user]), abs=1e-12
        )

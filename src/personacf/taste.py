"""Model-neutral taste space and taste-distribution distance reporting.

Items are embedded by PCA of the binary user-item interaction matrix
(each item described by the users who consumed it) and grouped into
taste clusters by K-means. A list of items induces a distribution over
clusters: average the per-item vectors of cosine distances to the
cluster means, then softmax. Recommendation lists are compared against
user histories with the Jensen-Shannon divergence (square-root form)
and the Hellinger distance.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import Interactions, Split
from .kmeans import kmeans
from .model import read_npz
from .ranking import top_k_recommendations

try:  # the gufunc np.linalg.qr runs on its copy; numpy 1.x names it otherwise
    from numpy.linalg._umath_linalg import qr_r_raw as _qr_r_raw
except ImportError:
    _qr_r_raw = None


class TasteSpaceError(ValueError):
    """Raised when a persisted taste space cannot be read."""


@dataclass
class TasteSpace:
    item_vectors: np.ndarray  # (num_items, pca_dims)
    cluster_means: np.ndarray  # (k, pca_dims)
    pca_basis: np.ndarray  # (pca_dims, num_users), rows = components
    pca_mean: np.ndarray  # (num_users,) column mean removed before projection
    centered: bool = True


@dataclass
class TddReport:
    per_user: list[tuple[int, float, float]]  # (user, js, hellinger)
    mean_js: float
    mean_hellinger: float
    skipped: list[int] = field(default_factory=list)


def build_taste_space(
    train: Interactions,
    pca_dims: int,
    k: int,
    rng: np.random.Generator,
    center: bool = True,
) -> TasteSpace:
    """PCA the item columns of the binary interaction matrix down to
    ``pca_dims`` and K-means the projected items into ``k`` clusters.

    If the matrix rank falls short of ``pca_dims`` the trailing
    components are zero-padded with a warning.
    """
    Xc = _item_matrix(train)
    mean = Xc.mean(axis=0) if center else np.zeros(train.num_users)
    Xc -= mean
    s, Vt = principal_axes(Xc)
    del Xc  # factored in place; rebuilt below for the projection
    avail = min(pca_dims, int(np.count_nonzero(s > s[0] * 1e-12)) if len(s) else 0)
    basis = np.zeros((pca_dims, train.num_users))
    basis[:avail] = Vt[:avail]
    if avail < pca_dims:
        warnings.warn(
            f"interaction matrix rank {avail} < {pca_dims} requested PCA "
            "dimensions; trailing components zero-padded",
            stacklevel=2,
        )
    vectors = _item_matrix(train, mean) @ basis.T  # (num_items, pca_dims)
    means, _, _ = kmeans(vectors, k, rng)
    return TasteSpace(
        item_vectors=vectors,
        cluster_means=means,
        pca_basis=basis,
        pca_mean=mean,
        centered=center,
    )


def _item_matrix(train: Interactions, mean: np.ndarray | None = None) -> np.ndarray:
    """Items as rows, user coordinates as features: the 0/1 matrix in
    Fortran order (a C-order build gives other bytes), less ``mean`` in
    place when given."""
    X = np.zeros((train.num_users, train.num_items)).T
    X[train.indices, train.event_users()] = 1.0
    if mean is not None:
        X -= mean
    return X


def _raise_qr_error(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def principal_axes(Xc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors (the principal axes, by
    decreasing singular value) of ``Xc``: ``np.linalg.svd(Xc)[1:]`` without
    its left vectors.

    LAPACK's ``dgesdd`` factors a matrix with at least ``int(n * 11 / 6)``
    rows for n columns (its crossover, MNTHR) by QR first and takes the SVD
    of the n x n R factor. Doing that step here gives the same bytes and
    never builds the tall left vectors. Below the crossover ``dgesdd``
    bidiagonalises the matrix itself, so the direct call stays.

    At and above the crossover a writeable float64 ``Xc`` is consumed: it
    is factored in place (``np.linalg.qr(mode="r")`` without its copy) and
    holds the raw QR factors afterwards. Any other array, or a numpy
    without the ``qr_r_raw`` gufunc, goes through ``np.linalg.qr``.
    """
    rows, cols = Xc.shape
    if rows < int(cols * 11 / 6):
        return np.linalg.svd(Xc, full_matrices=False)[1:]
    if _qr_r_raw is None or Xc.dtype != np.float64 or not Xc.flags.writeable:
        R = np.linalg.qr(Xc, mode="r")
    else:
        with np.errstate(call=_raise_qr_error, invalid="call",
                         over="ignore", divide="ignore", under="ignore"):
            _qr_r_raw(Xc, signature="d->d")
        R = np.triu(Xc[:cols])
    return np.linalg.svd(R, full_matrices=False)[1:]


def taste_distribution(items, space: TasteSpace) -> np.ndarray:
    """Softmax of the list-averaged cosine distances to the cluster means.

    Follows the construction literally: larger average distance to a
    cluster means larger softmax weight for that cluster.
    """
    items = np.asarray(items, dtype=np.intp)
    if len(items) == 0:
        raise ValueError("item list must be non-empty")
    vecs = space.item_vectors[items]  # (n, p)
    means = space.cluster_means  # (k, p)
    v_norm = np.linalg.norm(vecs, axis=1)
    m_norm = np.linalg.norm(means, axis=1)
    sims = np.zeros((len(items), len(means)))
    ok = v_norm > 0
    denom = np.outer(v_norm[ok], m_norm)
    denom[denom == 0] = 1.0
    sims[ok] = (vecs[ok] @ means.T) / denom
    if not ok.all():
        warnings.warn(
            "zero-norm item vector in taste space; using maximal distance",
            stacklevel=2,
        )
    dist = 1.0 - sims  # cosine distance; zero-norm rows stay at 1
    avg = dist.mean(axis=0)
    exp = np.exp(avg - avg.max())
    return exp / exp.sum()


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Square root of the mean of the two KL divergences to the pointwise
    mean, natural log. Zero-probability entries contribute nothing."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m = 0.5 * (p + q)

    def kl(a):
        mask = a > 0
        return float(np.sum(a[mask] * np.log(a[mask] / m[mask])))

    return float(np.sqrt(max(0.5 * (kl(p) + kl(q)), 0.0)))


def hellinger(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(np.linalg.norm(np.sqrt(p) - np.sqrt(q)) / np.sqrt(2.0))


def tdd_report(
    scorer,
    split: Split,
    space: TasteSpace,
    list_size: int = 30,
) -> TddReport:
    """Compare each user's top-``list_size`` recommendations against the
    taste distribution of their training history."""
    per_user: list[tuple[int, float, float]] = []
    skipped: list[int] = []
    for user in range(split.train.num_users):
        history = split.train.per_user_items[user]
        if len(history) == 0:
            skipped.append(user)
            continue
        recs, _ = top_k_recommendations(scorer, user, split.train, list_size)
        if not recs:
            skipped.append(user)
            continue
        d = taste_distribution(recs, space)
        t = taste_distribution(history, space)
        per_user.append((user, js_divergence(d, t), hellinger(d, t)))
    n = len(per_user)
    return TddReport(
        per_user=per_user,
        mean_js=sum(r[1] for r in per_user) / n if n else 0.0,
        mean_hellinger=sum(r[2] for r in per_user) / n if n else 0.0,
        skipped=skipped,
    )


def save_taste_space(path, space: TasteSpace) -> None:
    np.savez(
        path,
        item_vectors=space.item_vectors,
        cluster_means=space.cluster_means,
        pca_basis=space.pca_basis,
        pca_mean=space.pca_mean,
        meta=np.frombuffer(
            json.dumps({"centered": space.centered}).encode(), dtype=np.uint8
        ),
    )


def load_taste_space(path, train: Interactions | None = None) -> TasteSpace:
    """Read a taste space, rejecting one whose item vectors or cluster
    means hold a NaN or infinity. Given ``train``, the space must also fit
    it: 2-D blocks, one item vector per item and at least one cluster mean
    as wide as the item vectors."""
    data = read_npz(path, TasteSpaceError)
    try:
        meta = json.loads(bytes(data.pop("meta")).decode())
        space = TasteSpace(**data, centered=meta["centered"])
        bad = [name for name in ("item_vectors", "cluster_means")
               if not np.isfinite(getattr(space, name)).all()]
    except (KeyError, TypeError, ValueError) as exc:
        raise TasteSpaceError(f"{path} is not a taste space: {exc!r}") from None
    if bad:
        raise TasteSpaceError(f"taste space {path}: {bad[0]} holds a non-finite value")
    vectors, means = space.item_vectors, space.cluster_means
    if train is not None and not (
        vectors.ndim == means.ndim == 2
        and vectors.shape[0] == train.num_items
        and means.shape[0] >= 1
        and means.shape[1] == vectors.shape[1]
    ):
        raise TasteSpaceError(
            f"taste space {path} has item vectors {vectors.shape} and "
            f"cluster means {means.shape}; the dataset has {train.num_items} items"
        )
    return space

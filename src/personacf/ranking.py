"""Leave-one-out ranking evaluation: HR@k and NDCG@k.

Per user the held-out item is ranked among sampled (or all) non-interacted
candidates; ties are broken by ascending item index so reports are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Interactions
from .fields import check_fields
from .model import map_users


@dataclass(frozen=True)
class RankingProtocol:
    num_sampled_negatives: int = field(default=100, metadata={"min": 1})
    cutoff: int = field(default=10, metadata={"min": 1})
    candidate_mode: str = field(default="sampled", metadata={"choices": ("sampled", "all-items")})
    __post_init__ = check_fields


@dataclass
class RankingReport:
    per_user: list[tuple[int, int]]  # (user, rank of held-out item)
    hr_at_k: float
    ndcg_at_k: float
    cutoff: int
    skipped: list[int] = field(default_factory=list)


def unconsumed(num_items: int, items) -> np.ndarray:
    """Sorted intp array of the indices in range(num_items) not in ``items``."""
    mask = np.ones(num_items, dtype=bool)
    mask[np.fromiter(items, dtype=np.intp)] = False
    return np.flatnonzero(mask)


def top_positions(scores: np.ndarray, items: np.ndarray, n: int) -> np.ndarray:
    """Positions of the ``n`` best entries: descending score, ascending
    item index on ties, NaN last (the order of a full ``lexsort``).

    A partition finds the n-th best score first, and only the entries
    scoring at least that much are sorted, ties with it included.
    """
    keys = -scores
    if 0 < n < len(keys):
        nth = np.partition(keys, n - 1)[n - 1]
        if not np.isnan(nth):
            head = np.flatnonzero(keys <= nth)
            return head[np.lexsort((items[head], keys[head]))][:n]
    return np.lexsort((items, keys))[:n]


def _rank_of_target(scores: np.ndarray, candidates: np.ndarray, target_pos: int) -> int:
    """1-based rank by descending score, ascending item index on ties, NaN
    after every number: the target's position in ``top_positions``' order."""
    t_score = scores[target_pos]
    t_item = candidates[target_pos]
    if np.isnan(t_score):
        better, tied = ~np.isnan(scores), np.isnan(scores)
    else:
        better, tied = scores > t_score, scores == t_score
    return 1 + np.count_nonzero(better) + np.count_nonzero(tied & (candidates < t_item))


def evaluate(
    scorer,
    targets: dict[int, int],
    data: Interactions,
    protocol: RankingProtocol = RankingProtocol(),
    rng: np.random.Generator | None = None,
) -> RankingReport:
    """Rank each user's target among candidates and aggregate HR/NDCG.

    Candidates exclude the user's items in ``data``. In sampled mode
    negatives are drawn uniformly without replacement from the
    non-interacted items, user by user on the calling thread. In
    all-items mode users are ranked through ``map_users``, so ``scorer``
    may be called from several threads at once.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    sampled = protocol.candidate_mode == "sampled"
    histories = data.per_user_items  # built here, not raced for by helpers

    def rank_of(user):
        target = targets[user]
        negatives = unconsumed(data.num_items, np.append(histories[user], target))
        if sampled:
            if len(negatives) >= protocol.num_sampled_negatives:
                negatives = rng.choice(negatives, size=protocol.num_sampled_negatives,
                                       replace=False)
            elif len(negatives) == 0:
                return None
        candidates = np.concatenate([[target], negatives])
        return _rank_of_target(np.asarray(scorer(user, candidates), dtype=float), candidates, 0)

    users = sorted(targets)
    ranks = [rank_of(u) for u in users] if sampled else map_users(rank_of, users, data.num_items)
    k = protocol.cutoff
    per_user: list[tuple[int, int]] = []
    skipped: list[int] = []
    hits = gains = 0.0
    for user, rank in zip(users, ranks):
        if rank is None:
            skipped.append(user)
            continue
        per_user.append((user, rank))
        if rank <= k:
            hits += 1.0
            gains += 1.0 / np.log2(rank + 1)
    n = len(per_user)
    return RankingReport(
        per_user=per_user,
        hr_at_k=hits / n if n else 0.0,
        ndcg_at_k=gains / n if n else 0.0,
        cutoff=k,
        skipped=skipped,
    )


def top_k_recommendations(
    scorer,
    user: int,
    data: Interactions,
    k: int,
) -> tuple[list[int], bool]:
    """Top-k non-consumed items for a user by descending score with
    index-ascending tie-break. ``data`` is the training interactions; the
    second return value flags a short list (fewer than k candidates)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    candidates = unconsumed(data.num_items, data.per_user_items[user])
    if len(candidates) == 0:
        return [], True
    scores = np.asarray(scorer(user, candidates), dtype=float)
    top = candidates[top_positions(scores, candidates, k)].tolist()
    return top, len(candidates) < k

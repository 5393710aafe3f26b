"""Leave-one-out ranking evaluation: HR@k and NDCG@k.

Per user the held-out item is ranked among sampled (or all) non-interacted
candidates; ties are broken by ascending item index so reports are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Interactions


@dataclass(frozen=True)
class RankingProtocol:
    num_sampled_negatives: int = 100
    cutoff: int = 10
    candidate_mode: str = "sampled"  # or "all-items"

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if self.candidate_mode not in ("sampled", "all-items"):
            raise ValueError(f"unknown candidate_mode {self.candidate_mode!r}")


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
    item index on ties."""
    return np.lexsort((items, -scores))[:n]


def _rank_of_target(scores: np.ndarray, candidates: np.ndarray, target_pos: int) -> int:
    """1-based rank by descending score, ascending item index on ties."""
    t_score = scores[target_pos]
    t_item = candidates[target_pos]
    better = np.count_nonzero(scores > t_score)
    tied_before = np.count_nonzero((scores == t_score) & (candidates < t_item))
    return 1 + better + int(tied_before)


def evaluate(
    scorer,
    targets: dict[int, int],
    data: Interactions,
    protocol: RankingProtocol = RankingProtocol(),
    rng: np.random.Generator | None = None,
    interacted: list[set[int]] | None = None,
) -> RankingReport:
    """Rank each user's target among candidates and aggregate HR/NDCG.

    ``interacted`` gives the per-user positive sets used to exclude
    candidates; defaults to the item sets of ``data``. In sampled mode
    negatives are drawn uniformly without replacement from the
    non-interacted items.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if interacted is None:
        interacted = data.item_sets()
    k = protocol.cutoff
    per_user: list[tuple[int, int]] = []
    skipped: list[int] = []
    hits = 0.0
    gains = 0.0
    for user in sorted(targets):
        target = targets[user]
        pool = unconsumed(data.num_items, [target, *interacted[user]])
        if protocol.candidate_mode == "sampled":
            if len(pool) < protocol.num_sampled_negatives:
                if len(pool) == 0:
                    skipped.append(user)
                    continue
                negatives = pool
            else:
                negatives = rng.choice(pool, size=protocol.num_sampled_negatives, replace=False)
        else:
            negatives = pool
        candidates = np.concatenate([[target], negatives])
        scores = np.asarray(scorer(user, candidates), dtype=float)
        rank = _rank_of_target(scores, candidates, 0)
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

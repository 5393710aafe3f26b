"""Rating-file ingestion, leave-one-out splitting and the negative-sampling table.

Converts delimited rating files into dense-indexed implicit-feedback
interactions, holds out the last (and second-to-last) item of each user,
and builds the count^0.5 unigram table used to draw negative items.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

VALID_COLUMNS = ("user", "item", "rating", "timestamp")


class CorpusError(ValueError):
    """Raised for unparseable rating files or empty filtered corpora."""


@dataclass(frozen=True)
class RatingFormat:
    """Column layout of a delimited rating file.

    ``columns`` names the fields in file order; "user", "item" and
    "rating" are required, "timestamp" is optional. Extra trailing
    columns in the file are ignored.
    """

    delimiter: str = "\t"
    columns: tuple[str, ...] = ("user", "item", "rating", "timestamp")
    header: bool = False

    def __post_init__(self):
        for c in self.columns:
            if c not in VALID_COLUMNS:
                raise CorpusError(f"unknown column name {c!r}")
        for required in ("user", "item", "rating"):
            if required not in self.columns:
                raise CorpusError(f"format is missing the {required!r} column")

    @property
    def has_timestamp(self) -> bool:
        return "timestamp" in self.columns


@dataclass
class Interactions:
    """De-duplicated positive events with contiguous user/item indices."""

    num_users: int
    num_items: int
    events: list[tuple[int, int]]
    per_user_items: list[list[int]]
    user_index: dict[str, int] = field(default_factory=dict)
    item_index: dict[str, int] = field(default_factory=dict)
    user_ids: list[str] = field(default_factory=list)
    item_ids: list[str] = field(default_factory=list)

    def item_sets(self) -> list[set[int]]:
        return [set(items) for items in self.per_user_items]


@dataclass
class Split:
    """Leave-one-out split: last item to test, second-to-last to validation."""

    train: Interactions
    validation: dict[int, int]
    test: dict[int, int]


@dataclass
class SamplingTable:
    """Unigram^0.5 distribution over items with a cumulative array for draws."""

    probabilities: np.ndarray
    cumulative: np.ndarray

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.searchsorted(self.cumulative, rng.random(size), side="right")


def load_ratings(
    path,
    fmt: RatingFormat = RatingFormat(),
    min_rating: float | None = None,
) -> Interactions:
    """Parse a rating file into Interactions.

    All surviving ratings are treated as positives. Duplicate
    (user, item) pairs are collapsed to the first occurrence, users with
    fewer than two distinct items are dropped, and ids are remapped to
    dense indices in order of first appearance. Per-user item order is
    file order, stable-sorted by timestamp when the format has one.
    """
    col_pos = {name: i for i, name in enumerate(fmt.columns)}
    raw: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no == 1 and fmt.header:
                continue
            line = line.rstrip("\n\r")
            if not line:
                continue
            parts = line.split(fmt.delimiter)
            if len(parts) < len(fmt.columns):
                raise CorpusError(
                    f"{path}: line {line_no}: expected {len(fmt.columns)} "
                    f"{fmt.delimiter!r}-separated fields, got {len(parts)}"
                )
            try:
                user = parts[col_pos["user"]]
                item = parts[col_pos["item"]]
                rating = float(parts[col_pos["rating"]])
                ts = float(parts[col_pos["timestamp"]]) if fmt.has_timestamp else 0.0
            except ValueError as exc:
                raise CorpusError(f"{path}: line {line_no}: {exc}") from None
            if min_rating is not None and rating < min_rating:
                continue
            raw.setdefault(user, []).append((item, ts))

    # stable sort by timestamp keeps file order among ties
    for user, events in raw.items():
        if fmt.has_timestamp:
            events.sort(key=lambda e: e[1])
        seen: set[str] = set()
        deduped = []
        for item, ts in events:
            if item not in seen:
                seen.add(item)
                deduped.append(item)
        raw[user] = deduped

    kept = {u: items for u, items in raw.items() if len(items) >= 2}
    if not kept:
        raise CorpusError(f"{path}: no users with >= 2 items after filtering")

    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    per_user_items: list[list[int]] = []
    for user, items in kept.items():  # dict preserves first-appearance order
        user_index[user] = len(user_index)
        row = []
        for item in items:
            if item not in item_index:
                item_index[item] = len(item_index)
            row.append(item_index[item])
        per_user_items.append(row)

    events = [(u, j) for u, row in enumerate(per_user_items) for j in row]
    return Interactions(
        num_users=len(user_index),
        num_items=len(item_index),
        events=events,
        per_user_items=per_user_items,
        user_index=user_index,
        item_index=item_index,
        user_ids=list(user_index),
        item_ids=list(item_index),
    )


def split_leave_one_out(data: Interactions) -> Split:
    """Hold out each user's last item for test and second-to-last for
    validation (users with exactly two items get a test item only)."""
    validation: dict[int, int] = {}
    test: dict[int, int] = {}
    train_rows: list[list[int]] = []
    for user, items in enumerate(data.per_user_items):
        if len(items) < 2:
            raise CorpusError(f"user index {user} has fewer than 2 items")
        test[user] = items[-1]
        if len(items) >= 3:
            validation[user] = items[-2]
            train_rows.append(items[:-2])
        else:
            train_rows.append(items[:-1])
    train = Interactions(
        num_users=data.num_users,
        num_items=data.num_items,
        events=[(u, j) for u, row in enumerate(train_rows) for j in row],
        per_user_items=train_rows,
        user_index=data.user_index,
        item_index=data.item_index,
        user_ids=data.user_ids,
        item_ids=data.item_ids,
    )
    return Split(train=train, validation=validation, test=test)


def build_sampling_table(train: Interactions, power: float = 0.5) -> SamplingTable:
    """Unigram item distribution over training events raised to ``power``."""
    counts = np.zeros(train.num_items)
    for _, item in train.events:
        counts[item] += 1
    weights = counts**power
    total = weights.sum()
    if total <= 0:
        raise CorpusError("empty training set: no events to build sampling table")
    probs = weights / total
    cumulative = np.cumsum(probs)
    # rounding can leave the sum below 1; a draw above it would index past the catalogue
    cumulative[np.flatnonzero(probs)[-1] :] = 1.0
    return SamplingTable(probabilities=probs, cumulative=cumulative)

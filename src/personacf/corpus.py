"""Rating-file ingestion, leave-one-out splitting and the negative-sampling table.

Converts delimited rating files into dense-indexed implicit-feedback
interactions, holds out the last (and second-to-last) item of each user,
and builds the count^0.5 unigram table used to draw negative items.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .fields import check_fields

VALID_COLUMNS = ("user", "item", "rating", "timestamp")


class CorpusError(ValueError):
    """Raised for unparseable rating files or empty filtered corpora."""


@dataclass(frozen=True)
class RatingFormat:
    """Column layout of a delimited rating file, and which ratings count.

    ``columns`` names the fields in file order; "user", "item" and
    "rating" are required, "timestamp" is optional. Extra trailing
    columns in the file are ignored. Rows rated below ``min_rating`` or NaN
    are dropped; None keeps every row.
    """

    delimiter: str = "\t"
    columns: tuple[str, ...] = ("user", "item", "rating", "timestamp")
    header: bool = False
    min_rating: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))  # e.g. a YAML list
        check_fields(self)
        if not self.delimiter:
            raise CorpusError("the delimiter must not be empty")
        if len(set(self.columns)) != len(self.columns):
            raise CorpusError(f"column names repeat: {list(self.columns)}")
        for c in self.columns:
            if c not in VALID_COLUMNS:
                raise CorpusError(f"unknown column name {c!r}")
        for required in ("user", "item", "rating"):
            if required not in self.columns:
                raise CorpusError(f"format is missing the {required!r} column")


@dataclass
class Interactions:
    """De-duplicated positive events with contiguous user/item indices,
    stored as CSR: user u's items, in history order, are
    ``indices[indptr[u]:indptr[u + 1]]``."""

    num_items: int
    indptr: np.ndarray  # (num_users + 1,) intp row offsets
    indices: np.ndarray  # (num_events,) intp item indices
    user_ids: list[str] = field(default_factory=list)
    item_ids: list[str] = field(default_factory=list)

    @classmethod
    def from_rows(cls, rows, num_items: int, user_ids=None, item_ids=None) -> Interactions:
        """CSR interactions from per-user item index sequences."""
        indptr = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        indices = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=indptr[-1])
        return cls(num_items, indptr, indices, list(user_ids or []), list(item_ids or []))

    @property
    def num_users(self) -> int:
        return len(self.indptr) - 1

    @cached_property
    def user_index(self) -> dict[str, int]:
        return {name: u for u, name in enumerate(self.user_ids)}

    @cached_property
    def per_user_items(self) -> list[np.ndarray]:
        """One view of ``indices`` per user."""
        return np.split(self.indices, self.indptr[1:-1]) if self.num_users else []

    def event_users(self) -> np.ndarray:
        """(num_events,) user index of each entry of ``indices``."""
        return np.repeat(np.arange(self.num_users, dtype=np.intp), np.diff(self.indptr))


@dataclass
class Split:
    """Leave-one-out split: last item to test, second-to-last to validation."""

    train: Interactions
    validation: dict[int, int]
    test: dict[int, int]
    full: Interactions  # the corpus the split was taken from


@dataclass
class SamplingTable:
    """Unigram^0.5 distribution over items with a cumulative array for draws."""

    probabilities: np.ndarray
    cumulative: np.ndarray

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """Items for ``rng.random(size)``; ``size=None`` draws one."""
        return np.searchsorted(self.cumulative, rng.random(size), side="right")


def load_ratings(path, fmt: RatingFormat = RatingFormat()) -> Interactions:
    """Parse a rating file into Interactions.

    Every rating that passes ``fmt.min_rating`` is a positive. Duplicate
    (user, item) pairs are collapsed to the first occurrence, users with
    fewer than two distinct items are dropped, and ids are remapped to
    dense indices in order of first appearance. Per-user item order is
    file order, stable-sorted by timestamp when the format has one.
    """
    col_pos = {name: i for i, name in enumerate(fmt.columns)}
    # the loop runs once per line: read every per-line constant once
    user_pos, item_pos, rating_pos = col_pos["user"], col_pos["item"], col_pos["rating"]
    ts_pos = col_pos.get("timestamp")
    min_rating, delimiter, num_columns = fmt.min_rating, fmt.delimiter, len(fmt.columns)
    raw: dict[str, list[tuple[str, float]]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if line_no == 1 and fmt.header:
                    continue
                line = line.rstrip("\n\r")
                if not line:
                    continue
                parts = line.split(delimiter)
                if len(parts) < num_columns:
                    raise CorpusError(
                        f"{path}: line {line_no}: expected {num_columns} "
                        f"{delimiter!r}-separated fields, got {len(parts)}"
                    )
                try:
                    user = parts[user_pos]
                    item = parts[item_pos]
                    rating = float(parts[rating_pos])
                    ts = float(parts[ts_pos]) if ts_pos is not None else 0.0
                except ValueError as exc:
                    raise CorpusError(f"{path}: line {line_no}: {exc}") from None
                if ts != ts:  # a NaN key would leave the user's history unsorted
                    raise CorpusError(f"{path}: line {line_no}: timestamp is NaN")
                if min_rating is not None and not rating >= min_rating:  # drops NaN
                    continue
                raw.setdefault(user, []).append((item, ts))
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: {exc}") from None

    # stable sort by timestamp keeps file order among ties; dict.fromkeys
    # keeps each item's first occurrence, in order
    kept: dict[str, list[str]] = {}
    for user, events in raw.items():
        if ts_pos is not None:
            events.sort(key=lambda e: e[1])
        items = list(dict.fromkeys([item for item, _ in events]))
        if len(items) >= 2:
            kept[user] = items
    if not kept:
        raise CorpusError(f"{path}: no users with >= 2 items after filtering")

    item_index: dict[str, int] = {}
    rows = [
        [item_index.setdefault(item, len(item_index)) for item in items]
        for items in kept.values()  # dict preserves first-appearance order
    ]
    return Interactions.from_rows(
        rows, len(item_index), user_ids=list(kept), item_ids=list(item_index)
    )


def split_leave_one_out(data: Interactions) -> Split:
    """Hold out each user's last item for test and second-to-last for
    validation (users with exactly two items get a test item only)."""
    lengths = np.diff(data.indptr)
    if (lengths < 2).any():
        raise CorpusError(f"user index {np.argmax(lengths < 2)} has fewer than 2 items")
    test_pos = data.indptr[1:] - 1
    has_val = lengths >= 3
    val_pos = test_pos[has_val] - 1
    keep = np.ones(len(data.indices), dtype=bool)
    keep[test_pos] = keep[val_pos] = False
    indptr = data.indptr - np.concatenate([[0], np.cumsum(1 + has_val)])
    train = Interactions(data.num_items, indptr, data.indices[keep], data.user_ids, data.item_ids)
    return Split(
        train=train,
        validation=dict(zip(np.flatnonzero(has_val).tolist(), data.indices[val_pos].tolist())),
        test=dict(enumerate(data.indices[test_pos].tolist())),
        full=data,
    )


def build_sampling_table(train: Interactions) -> SamplingTable:
    """Unigram item distribution over training events raised to the power 0.5."""
    counts = np.bincount(train.indices, minlength=train.num_items).astype(float)
    weights = counts**0.5
    total = weights.sum()
    if total <= 0:
        raise CorpusError("empty training set: no events to build sampling table")
    probs = weights / total
    cumulative = np.cumsum(probs)
    # rounding can leave the sum below 1; a draw above it would index past the catalogue
    cumulative[np.flatnonzero(probs)[-1] :] = 1.0
    return SamplingTable(probabilities=probs, cumulative=cumulative)

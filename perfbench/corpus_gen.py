"""Deterministic synthetic rating corpus for the benchmark.

Writes a MovieLens-style ``ratings.csv`` (``userId,movieId,rating,timestamp``
with a header line), the format the README's example config reads. Item
popularity follows a Zipf law over a randomly permuted catalogue; each
user draws a history of distinct items without replacement (Gumbel top-k
over log-popularity) and consumes them in a random order, encoded by
strictly increasing per-user timestamps so the leave-one-out split is
defined. Rows are written grouped by user and sorted by item id, as in
MovieLens, so the loader's timestamp sort does real work.

Run as a script to write one file:

    python3 perfbench/corpus_gen.py --users 610 --items 9700 \
        --mean-history 135 --zipf 1.0 --seed 0 --out ratings.csv
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

import numpy as np

MIN_HISTORY = 3  # the leave-one-out split needs >= 3 items for a validation item
# No user consumes more than half the catalogue: the trainer redraws a
# negative until it misses the user's training items, with no bound on
# the redraws (a known fault), so a near-complete history can stall it.
MAX_HISTORY_SHARE = 0.5
HISTORY_SIGMA = 0.8  # spread of the log-normal history lengths


@dataclass(frozen=True)
class CorpusShape:
    users: int
    items: int
    mean_history: float
    zipf: float


def history_lengths(shape: CorpusShape, rng: np.random.Generator) -> np.ndarray:
    """Log-normal history lengths clipped to [MIN_HISTORY, MAX_HISTORY_SHARE
    * items], rescaled until their mean is ``mean_history``."""
    raw = rng.lognormal(0.0, HISTORY_SIGMA, size=shape.users)
    cap = max(MIN_HISTORY, int(MAX_HISTORY_SHARE * shape.items))
    scale = shape.mean_history / raw.mean()
    for _ in range(20):
        lengths = np.clip(np.rint(raw * scale).astype(np.int64), MIN_HISTORY, cap)
        scale *= shape.mean_history / lengths.mean()
    return lengths


def generate(shape: CorpusShape, seed: int) -> list[str]:
    """CSV lines (header first) for one corpus; equal seeds give equal lines."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, shape.items + 1, dtype=float)
    log_pop = -shape.zipf * np.log(ranks)
    # popularity rank -> external item id; ids are sparse like MovieLens ids
    item_ids = rng.permutation(shape.items) * 3 + 1
    lengths = history_lengths(shape, rng)
    lines = ["userId,movieId,rating,timestamp"]
    for user, n in enumerate(lengths, start=1):
        keys = log_pop + rng.gumbel(size=shape.items)
        picked = np.argpartition(-keys, n - 1)[:n]  # n distinct items
        picked = rng.permutation(picked)  # consumption order
        stamps = 1_000_000_000 + np.cumsum(rng.integers(1, 86_400, size=n))
        ratings = rng.integers(1, 11, size=n) * 0.5
        ext = item_ids[picked]
        for i in np.argsort(ext, kind="stable"):
            lines.append(f"{user},{ext[i]},{ratings[i]:.1f},{stamps[i]}")
    return lines


def write_corpus(path, shape: CorpusShape, seed: int) -> int:
    """Write the corpus to ``path``; returns the number of rating rows."""
    lines = generate(shape, seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines) - 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--mean-history", type=float, required=True)
    p.add_argument("--zipf", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    shape = CorpusShape(args.users, args.items, args.mean_history, args.zipf)
    rows = write_corpus(args.out, shape, args.seed)
    print(f"{rows} ratings written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

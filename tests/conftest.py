import os

# One BLAS thread, set before numpy loads: timing tests then measure the
# code, not how many cores the machine has or what ran before them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from dataclasses import fields, is_dataclass  # noqa: E402
from typing import get_type_hints  # noqa: E402

import numpy as np  # noqa: E402
import pytest

from personacf.config import RunConfig
from personacf.corpus import Interactions, split_leave_one_out
from personacf.trainer import _forward_backward, _row_gradients


def make_interactions(per_user_items, num_items=None):
    """Build Interactions directly from per-user item index lists."""
    if num_items is None:
        num_items = 1 + max(j for row in per_user_items for j in row)
    return Interactions.from_rows(
        per_user_items,
        num_items,
        user_ids=[str(u) for u in range(len(per_user_items))],
        item_ids=[str(j) for j in range(num_items)],
    )


def config_fields():
    """(section, field, declared type) of every value of a run config, in
    declaration order; the top-level keys have the section "config"."""
    hints = get_type_hints(RunConfig)
    for f in fields(RunConfig):
        if is_dataclass(hints[f.name]):
            types = get_type_hints(hints[f.name])
            yield from ((f.name, g, types[g.name]) for g in fields(hints[f.name]))
        else:
            yield "config", f, hints[f.name]


def loss_and_grads(model, user, pos, negs, cfg):
    """(LossBreakdown, dense gradient dict) of one training example
    ``user``, ``pos`` against ``negs``, through the batched training path."""
    users, items = np.array([user]), np.array([[pos, *negs]])
    return _forward_backward(model, users, items, cfg, 1.0, _row_gradients(model))


def sgd_step(model, pos, negs, cfg, lr):
    """One gradient-descent step on user 0's example, on the rows it touches."""
    _, g = loss_and_grads(model, 0, pos, negs, cfg)
    model.personas[0] -= lr * g["personas"][0]
    model.attn_user_map -= lr * g["attn_user_map"]
    model.attn_item_map -= lr * g["attn_item_map"]
    for j in (pos, *negs):
        model.item_vectors[j] -= lr * g["item_vectors"][j]
        model.item_bias[j] -= lr * g["item_bias"][j]


def two_cluster_corpus(seed=0, users_per_side=30, items_per_side=25, history=23):
    """Two disjoint user populations consuming two disjoint item blocks.

    Histories cover most of the user's block so that nearly every ranking
    candidate at evaluation time comes from the other block."""
    rng = np.random.default_rng(seed)
    rows = []
    for side in range(2):
        base = side * items_per_side
        for _ in range(users_per_side):
            items = rng.choice(items_per_side, size=history, replace=False) + base
            rows.append(items.tolist())
    return make_interactions(rows, num_items=2 * items_per_side)


def two_taste_corpus(
    seed=0,
    mixed_users=20,
    a_only_users=80,
    b_only_users=40,
    block_items=100,
    mixed_history=8,
    anchor_history=12,
):
    """Mixed users with 50/50 histories over two item blocks, anchored by
    single-taste populations that give each block coherent co-occurrence.

    The block-A anchor group is twice the size of block B's, so a
    popularity ranking concentrates on block A. Sparse histories over
    large blocks keep within-block co-occurrence dominant; dense
    histories would let items differentiate by their few non-consumers."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(mixed_users):
        a = rng.choice(block_items, size=mixed_history, replace=False)
        b = rng.choice(block_items, size=mixed_history, replace=False) + block_items
        items = np.concatenate([a, b])
        rng.shuffle(items)
        rows.append(items.tolist())
    for _ in range(a_only_users):
        rows.append(rng.choice(block_items, size=anchor_history, replace=False).tolist())
    for _ in range(b_only_users):
        rows.append(
            (rng.choice(block_items, size=anchor_history, replace=False) + block_items).tolist()
        )
    return make_interactions(rows, num_items=2 * block_items), block_items, mixed_users


def ml100k_path():
    """User-supplied MovieLens ratings file; see README for how to point
    the suite at it."""
    path = os.environ.get("PERSONACF_ML100K", "data/ratings.csv")
    return path if os.path.exists(path) else None


@pytest.fixture
def tiny_split():
    data = make_interactions(
        [[0, 1, 2, 3], [2, 3, 4], [0, 4, 5, 1]],
        num_items=6,
    )
    return split_leave_one_out(data)

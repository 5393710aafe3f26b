"""A large pool read off one pass over the whole catalogue scores the same
bytes as a pass over the pool's own gathered rows.

``score_all_items`` and ``aisp_score_items`` switch to the catalogue pass
where ``pool_scores`` says so. The checks below pin both scorers to
straight-line copies of the gathered path, on every user's top-k and
all-items pool of a seeded corpus and on a random pool of every size from
the switch point to the whole catalogue. Each check runs in this process,
where BLAS has one thread (see conftest), and again in a child process
with BLAS at its default thread count.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from personacf.aisp import AispModel, aisp_score_items
from personacf.corpus import Interactions, split_leave_one_out
from personacf.model import (
    CATALOGUE_MIN,
    ModelConfig,
    init_model,
    item_projection,
    pool_scores,
    score_all_items,
    softmax,
)
from personacf.ranking import unconsumed

NUM_ITEMS = 4096  # the switch is at max(CATALOGUE_MIN, NUM_ITEMS // 2) = 2048 items
PCA_DIMS = 100  # the default taste.pca_dims that AISP scores in


def takes_catalogue(num_items: int, pool: int) -> bool:
    """Whether ``pool_scores`` serves a pool of ``pool`` items off the
    catalogue pass: a recording ``scores_over`` notes whether it got None,
    and either path must return each candidate's own score."""
    calls = []

    def scores_over(items):
        calls.append(items is None)
        catalogue = np.arange(num_items, dtype=float)
        return catalogue if items is None else catalogue[items]

    candidates = np.arange(pool)[::-1] % num_items
    assert pool_scores(scores_over, num_items, candidates).tolist() == candidates.tolist()
    assert len(calls) == 1
    return calls[0]


def gathered_scores(m, user, items, projection):
    """The model's forward pass over gathered rows, as before the switch."""
    items = np.asarray(items, dtype=np.intp)
    personas = m.personas[user]
    vectors = m.item_vectors[items]
    psi = personas @ m.attn_user_map
    phi = projection[items]
    weights = softmax(psi @ phi.T, axis=0)
    x = weights.T @ personas
    return np.einsum("md,md->m", x, vectors) + m.item_bias[items]


def gathered_aisp_scores(model, user, items):
    """AISP's scores over gathered rows, as before the switch."""
    P = model.user_personas[user]
    logits = P @ model.item_vectors[np.asarray(items, dtype=np.intp)].T
    return (softmax(logits, axis=0) * logits).sum(axis=0)


def models(seed, num_users):
    """A persona model at d = d_a = 64, r = 2 with every block drawn at
    scale 0.1, and an AISP model with two personas per user."""
    rng = np.random.default_rng(seed)
    m = init_model(ModelConfig(num_users, NUM_ITEMS, 64, 64, 2), rng)
    for block in m.parameter_blocks().values():
        block[...] = rng.normal(0.0, 0.1, block.shape)
    baseline = AispModel(
        user_personas=[rng.normal(0.0, 0.1, (2, PCA_DIMS)) for _ in range(num_users)],
        item_vectors=rng.normal(0.0, 0.1, (NUM_ITEMS, PCA_DIMS)),
    )
    return m, baseline


def mismatches(m, baseline, user, items, projection, own_projection=False) -> list[str]:
    """Which scorers differ from the gathered copies on one pool;
    ``own_projection`` also runs ``score_all_items`` building its own."""
    want = gathered_scores(m, user, items, projection).tobytes()
    got = {"score_all_items": score_all_items(m, user, items, projection)}
    if own_projection:
        got["score_all_items without a projection"] = score_all_items(m, user, items)
    found = [f"{name} user {user} pool of {len(items)}"
             for name, scores in got.items() if scores.tobytes() != want]
    if aisp_score_items(baseline, user, items).tobytes() != gathered_aisp_scores(
        baseline, user, items
    ).tobytes():
        found.append(f"aisp_score_items user {user} pool of {len(items)}")
    return found


def user_pool_mismatches(seed: int) -> list[str]:
    """Every user's top-k pool (training items removed) and all-items eval
    pool (target first, every consumed item removed)."""
    rng = np.random.default_rng(seed)
    num_users = 12
    rows = [
        rng.choice(NUM_ITEMS, size=rng.integers(3, NUM_ITEMS // 3), replace=False)
        for _ in range(num_users)
    ]
    split = split_leave_one_out(Interactions.from_rows(rows, NUM_ITEMS))
    m, baseline = models(seed, num_users)
    projection = item_projection(m)
    found = []
    for u, target in split.test.items():
        top_k_pool = unconsumed(NUM_ITEMS, split.train.per_user_items[u])
        eval_pool = np.concatenate([[target], unconsumed(NUM_ITEMS, split.full.per_user_items[u])])
        for items in (top_k_pool, eval_pool):
            assert takes_catalogue(NUM_ITEMS, len(items))  # the pool takes the switch
            found += mismatches(m, baseline, u, items, projection, own_projection=True)
    return found


def pool_size_mismatches(seed: int) -> list[str]:
    """A random pool, in random order, of every size from the switch point
    to the whole catalogue."""
    rng = np.random.default_rng(seed)
    m, baseline = models(seed, 3)
    projection = item_projection(m)
    first = max(CATALOGUE_MIN, NUM_ITEMS // 2)
    assert not takes_catalogue(NUM_ITEMS, first - 1) and takes_catalogue(NUM_ITEMS, first)
    found = []
    for size in range(first, NUM_ITEMS + 1):
        items = rng.choice(NUM_ITEMS, size=size, replace=False)
        found += mismatches(m, baseline, size % 3, items, projection)
    return found


CHECKS = {"user-pools": user_pool_mismatches, "pool-sizes": pool_size_mismatches}


@pytest.mark.parametrize("check", CHECKS)
def test_byte_equal_on_one_blas_thread(check):
    assert CHECKS[check](seed=1) == []


@pytest.mark.parametrize("check", CHECKS)
def test_byte_equal_at_the_default_blas_thread_count(check):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(Path(__file__).parent)])
    code = f"import test_catalogue as t; print(t.CHECKS[{check!r}](seed=2))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_switch_rule():
    assert not takes_catalogue(NUM_ITEMS, 101)  # a sampled eval pool
    assert not takes_catalogue(20_000, 9_999) and takes_catalogue(20_000, 10_000)
    # a catalogue under CATALOGUE_MIN items never switches
    assert not any(takes_catalogue(CATALOGUE_MIN - 1, n) for n in range(CATALOGUE_MIN))

import math
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_interactions
from personacf.corpus import split_leave_one_out
from personacf.model import (
    CheckpointError,
    ModelConfig,
    attend,
    block_rows,
    init_model,
    item_projection,
    load_checkpoint,
    model_scorer,
    save_checkpoint,
    score_all_items,
    softmax,
)
from personacf.ranking import unconsumed


def random_model(rng, num_users=5, num_items=10, d=4, da=4, r=3, scale=0.5):
    cfg = ModelConfig(
        num_users=num_users, num_items=num_items,
        embedding_dim=d, attention_dim=da, personas=r,
    )
    m = init_model(cfg, rng)
    m.personas[:] = rng.normal(0, scale, m.personas.shape)
    m.item_vectors[:] = rng.normal(0, scale, m.item_vectors.shape)
    m.item_bias[:] = rng.normal(0, scale, m.item_bias.shape)
    return m


def attend_pair(m, user, item):
    """attend() on a single item, with the item axis squeezed out."""
    t = attend(m, user, [item])
    return SimpleNamespace(
        attn_weights=t.attn_weights[:, 0],
        score=float(t.scores[0]),
    )


class TestInit:
    def test_same_seed_identical_bytes(self):
        cfg = ModelConfig(num_users=3, num_items=4, embedding_dim=8, attention_dim=8, personas=2)
        a = init_model(cfg, np.random.default_rng(9))
        b = init_model(cfg, np.random.default_rng(9))
        for k, block in a.parameter_blocks().items():
            assert block.tobytes() == b.parameter_blocks()[k].tobytes()

    def test_parameter_count(self):
        cfg = ModelConfig(num_users=610, num_items=6278, embedding_dim=64, attention_dim=64, personas=2)
        m = init_model(cfg, np.random.default_rng(0))
        total = sum(v.size for v in m.parameter_blocks().values())
        assert total == 610 * 2 * 64 + 6278 * 64 + 64 * 64 + 64 * 64 + 6278

    def test_biases_start_at_zero(self):
        cfg = ModelConfig(num_users=2, num_items=5, embedding_dim=4, attention_dim=4, personas=2)
        m = init_model(cfg, np.random.default_rng(0))
        assert np.all(m.item_bias == 0.0)


class TestAttend:
    def test_equal_logits_give_uniform_weights(self):
        m = random_model(np.random.default_rng(0), r=2)
        # duplicate persona rows force identical logits
        m.personas[0, 1] = m.personas[0, 0]
        trace = attend_pair(m, 0, 0)
        np.testing.assert_allclose(trace.attn_weights, [0.5, 0.5], atol=1e-12)

    def test_single_persona_degenerates(self):
        m = random_model(np.random.default_rng(1), r=1)
        trace = attend_pair(m, 2, 3)
        np.testing.assert_allclose(trace.attn_weights, [1.0])
        mixed = float(trace.attn_weights @ m.personas[2] @ m.item_vectors[3] + m.item_bias[3])
        assert trace.score == pytest.approx(mixed, rel=1e-12)
        expected = float(m.personas[2, 0] @ m.item_vectors[3] + m.item_bias[3])
        assert trace.score == pytest.approx(expected, rel=1e-12)

    def test_matches_straight_line_recomputation(self):
        rng = np.random.default_rng(2)
        m = random_model(rng, d=4, da=4, r=3)
        user, item = 1, 7
        # independent scalar recomputation with explicit loops
        r, d, da = 3, 4, 4
        psi = [[sum(m.personas[user][k][i] * m.attn_user_map[i][e] for i in range(d)) for e in range(da)] for k in range(r)]
        phi = [sum(m.attn_item_map[e][i] * m.item_vectors[item][i] for i in range(d)) for e in range(da)]
        logits = [sum(psi[k][e] * phi[e] for e in range(da)) for k in range(r)]
        mx = max(logits)
        exps = [math.exp(s - mx) for s in logits]
        weights = [e / sum(exps) for e in exps]
        x = [sum(weights[k] * m.personas[user][k][i] for k in range(r)) for i in range(d)]
        score = sum(x[i] * m.item_vectors[item][i] for i in range(d)) + m.item_bias[item]
        trace = attend_pair(m, user, item)
        np.testing.assert_allclose(trace.attn_weights, weights, atol=1e-12)
        assert trace.score == pytest.approx(score, abs=1e-12)

    def test_weights_are_convex(self):
        rng = np.random.default_rng(3)
        m = random_model(rng)
        for item in range(10):
            trace = attend_pair(m, 0, item)
            assert np.all(trace.attn_weights >= 0)
            assert trace.attn_weights.sum() == pytest.approx(1.0, abs=1e-6)
            recombined = trace.attn_weights @ m.personas[0]
            expected = recombined @ m.item_vectors[item] + m.item_bias[item]
            assert trace.score == pytest.approx(expected, abs=1e-12)

    def test_logit_shift_invariance(self):
        # adding a constant to every logit leaves the softmax unchanged;
        # realized here by checking the weights against a manually shifted softmax
        rng = np.random.default_rng(4)
        m = random_model(rng)
        trace = attend_pair(m, 1, 2)
        logits = ((m.personas[1] @ m.attn_user_map) @ item_projection(m)[[2]].T)[:, 0]
        shifted = np.exp(logits + 123.0 - (logits + 123.0).max())
        np.testing.assert_allclose(trace.attn_weights, shifted / shifted.sum(), atol=1e-9)

    def test_item_map_scaling_keeps_argmax(self):
        rng = np.random.default_rng(5)
        m = random_model(rng)
        before = [attend_pair(m, u, j).attn_weights.argmax() for u in range(5) for j in range(10)]
        m.attn_item_map *= 7.5
        after = [attend_pair(m, u, j).attn_weights.argmax() for u in range(5) for j in range(10)]
        assert before == after


def per_call_attend(m, user, items):
    """(scores, attention weights) of the forward pass with phi computed
    from this call's own item rows, as before the shared projection."""
    items = np.asarray(items, dtype=np.intp)
    personas = m.personas[user]
    vectors = m.item_vectors[items]
    psi = personas @ m.attn_user_map
    phi = vectors @ m.attn_item_map.T
    weights = softmax(psi @ phi.T, axis=0)
    x = weights.T @ personas
    return np.einsum("md,md->m", x, vectors) + m.item_bias[items], weights


class TestSharedItemProjection:
    """``attend`` gathers phi from one catalogue-wide projection. Rows of a
    matrix product need not round the same way for every row count: on
    OpenBLAS, products of 1 to 18 rows take a small-matrix kernel, so a
    subset that small differs from its gathered rows in the last bit."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(40, 400), st.integers(1, 8))
    def test_byte_equal_on_every_full_pool(self, seed, num_items, num_users):
        # the pools top-k (train items removed) and all-items eval (every
        # consumed item removed, target first) score; histories of at most
        # half the catalogue leave each pool at least 20 items
        rng = np.random.default_rng(seed)
        rows = [
            rng.choice(num_items, size=rng.integers(2, num_items // 2 + 1), replace=False)
            for _ in range(num_users)
        ]
        split = split_leave_one_out(make_interactions(rows, num_items))
        m = random_model(rng, num_users, num_items, d=64, da=64, r=2, scale=0.1)
        projection = item_projection(m)
        scorer = model_scorer(m)
        for u, target in split.test.items():
            top_k_pool = unconsumed(num_items, split.train.per_user_items[u])
            eval_pool = np.concatenate(
                [[target], unconsumed(num_items, split.full.per_user_items[u])]
            )
            for items in (top_k_pool, eval_pool):
                scores, weights = per_call_attend(m, u, items)
                trace = attend(m, u, items, projection)
                assert trace.scores.tobytes() == scores.tobytes()
                assert trace.attn_weights.tobytes() == weights.tobytes()
                assert scorer(u, items).tobytes() == scores.tobytes()
                assert score_all_items(m, u, items).tobytes() == scores.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 300),
        st.sampled_from([(4, 4, 1), (8, 8, 2), (16, 12, 3), (64, 64, 2)]),
    )
    def test_close_on_every_subset_size(self, seed, num_items, dims):
        # the last-bit gap scales with the values: at parameter scale 0.1
        # it stays near 1e-16, so 1e-15 leaves an order of magnitude
        d, da, r = dims
        rng = np.random.default_rng(seed)
        m = random_model(rng, 2, num_items, d=d, da=da, r=r, scale=0.1)
        projection = item_projection(m)
        for size in range(1, num_items + 1):
            items = rng.choice(num_items, size=size, replace=False)
            scores, weights = per_call_attend(m, 1, items)
            trace = attend(m, 1, items, projection)
            assert np.allclose(trace.scores, scores, rtol=0, atol=1e-15)
            assert np.allclose(trace.attn_weights, weights, rtol=0, atol=1e-15)


def unblocked_scores(m, user, projection):
    """The catalogue forward pass with the persona mix in one product, as
    before ``attend`` mixed ``block_rows(d)`` items at a time."""
    personas = m.personas[user]
    weights = softmax((personas @ m.attn_user_map) @ projection.T, axis=0)
    x = weights.T @ personas
    return np.einsum("md,md->m", x, m.item_vectors) + m.item_bias


def mix_sizes():
    # pools one below, at, one and two above a block of rows and a 1-row
    # tail after two blocks, with the sizes pinned when a block was 512
    # items for every d, and the 9,824-item bench catalogue
    for d in (4, 64):
        rows = block_rows(d)
        for r in (1, 2, 3, 8):
            for n in sorted({1, 2, 511, 512, 513, 514, 1025, 2049, 9824,
                             rows - 1, rows, rows + 1, rows + 2, 2 * rows + 1}):
                yield d, r, n


class TestBlockedMix:
    """``attend`` mixes the personas a block of items at a time; every
    score must keep the bytes of the one-product pass, including pools of
    a 1-row tail block, which joins the block before it."""

    @pytest.mark.parametrize("d,r,num_items", list(mix_sizes()))
    def test_same_bytes_as_one_product(self, d, r, num_items):
        rng = np.random.default_rng([num_items, r, d])
        m = init_model(ModelConfig(3, num_items, d, d, r), rng)
        for block in m.parameter_blocks().values():
            block[...] = rng.normal(0.0, 0.5, block.shape)
        projection = item_projection(m)
        for user in range(3):
            expected = unblocked_scores(m, user, projection)
            assert attend(m, user, None, projection).scores.tobytes() == expected.tobytes()
            items = np.arange(num_items)
            assert attend(m, user, items, projection).scores.tobytes() == expected.tobytes()


class TestScoreAllItems:
    def test_singleton_consistency(self):
        m = random_model(np.random.default_rng(6))
        for j in range(10):
            got = score_all_items(m, 2, [j])
            assert got[0] == pytest.approx(attend(m, 2, [j]).scores[0], rel=1e-10)

    def test_matches_attend_elementwise(self):
        m = random_model(np.random.default_rng(7))
        candidates = np.arange(10)
        batch = score_all_items(m, 3, candidates)
        single = [attend(m, 3, [j]).scores[0] for j in candidates]
        np.testing.assert_allclose(batch, single, rtol=1e-6)

    def test_permutation_equivariance(self):
        m = random_model(np.random.default_rng(8))
        perm = np.random.default_rng(0).permutation(10)
        base = score_all_items(m, 1, np.arange(10))
        permuted = score_all_items(m, 1, perm)
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_full_catalog_scan_is_fast(self):
        cfg = ModelConfig(num_users=610, num_items=6278, embedding_dim=64, attention_dim=64, personas=2)
        m = init_model(cfg, np.random.default_rng(0))
        candidates = np.arange(6278)
        score_all_items(m, 0, candidates)  # warm up
        start = time.perf_counter()
        for user in range(20):
            score_all_items(m, user, candidates)
        per_user = (time.perf_counter() - start) / 20
        assert per_user < 0.010


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        m = random_model(np.random.default_rng(9))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, m, user_ids=["a", "b"], item_ids=["x"], extra={"note": 1})
        loaded, meta = load_checkpoint(path)
        assert loaded.config == m.config
        for k, block in m.parameter_blocks().items():
            assert block.tobytes() == loaded.parameter_blocks()[k].tobytes()
        assert meta["user_ids"] == ["a", "b"]
        assert meta["extra"] == {"note": 1}

    @pytest.mark.parametrize("name,bad", [
        ("item_vectors", lambda b: b[:-1]),
        ("personas", lambda b: b[:, :1]),
        ("attn_user_map", lambda b: b.T[:-1]),
        ("item_bias", lambda b: b.astype(np.int64)),
        ("attn_item_map", None),
        ("meta", None),
    ])
    def test_block_must_match_config(self, tmp_path, name, bad):
        m = random_model(np.random.default_rng(10))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, m)
        with np.load(path) as data:
            blocks = dict(data)
        if bad is None:
            del blocks[name]
        else:
            blocks[name] = bad(blocks[name])
        np.savez(path, **blocks)
        with pytest.raises(CheckpointError, match=name):
            load_checkpoint(path)


def names(n, reverse=False):
    ids = [str(i) for i in range(n)]
    return ids[::-1] if reverse else ids


class TestCheckpointFitsCorpus:
    """Given a corpus, ``load_checkpoint`` checks the stored counts and ids
    against it; without one, the same files load."""

    @staticmethod
    def saved(tmp_path, user_ids, item_ids):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, random_model(np.random.default_rng(11)),  # 5 users, 10 items
                        user_ids=user_ids, item_ids=item_ids)
        return path

    @staticmethod
    def corpus(num_users=5, num_items=10):
        return make_interactions([[u] for u in range(num_users)], num_items=num_items)

    @pytest.mark.parametrize("user_ids,item_ids", [
        (names(5), names(10)), (None, None), (None, names(10)), (names(5), None),
    ], ids=["both", "none", "items-only", "users-only"])
    def test_fitting_checkpoint_loads(self, tmp_path, user_ids, item_ids):
        path = self.saved(tmp_path, user_ids, item_ids)
        model, meta = load_checkpoint(path, self.corpus())
        assert (model.config.num_users, model.config.num_items) == (5, 10)
        assert meta["user_ids"] == user_ids and meta["item_ids"] == item_ids

    @pytest.mark.parametrize("num_users,num_items,user_ids,item_ids,message", [
        (6, 10, names(5), names(10),
         "checkpoint shape (5 users, 10 items) does not match the dataset (6 users, 10 items)"),
        (5, 9, None, None,
         "checkpoint shape (5 users, 10 items) does not match the dataset (5 users, 9 items)"),
        (5, 10, names(5, reverse=True), names(10), "the stored user ids are not the dataset's"),
        (5, 10, names(5), names(10, reverse=True), "the stored item ids are not the dataset's"),
        (5, 10, names(4), None, "the stored user ids are not the dataset's"),
    ], ids=["users", "items", "user-order", "item-order", "user-ids-short"])
    def test_misfit_raises(self, tmp_path, num_users, num_items, user_ids, item_ids, message):
        path = self.saved(tmp_path, user_ids, item_ids)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path, self.corpus(num_users, num_items))
        model, _ = load_checkpoint(path)
        assert (model.config.num_users, model.config.num_items) == (5, 10)

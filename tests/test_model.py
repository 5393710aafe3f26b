import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from personacf.model import (
    CheckpointError,
    ModelConfig,
    attend,
    init_model,
    load_checkpoint,
    save_checkpoint,
    score_all_items,
)


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
        attn_logits=t.attn_logits[:, 0],
        attn_weights=t.attn_weights[:, 0],
        attentive_user=t.attentive_user[0],
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
        np.testing.assert_allclose(trace.attentive_user, m.personas[2, 0])
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
            np.testing.assert_allclose(trace.attentive_user, recombined, atol=1e-12)

    def test_logit_shift_invariance(self):
        # adding a constant to every logit leaves the softmax unchanged;
        # realized here by checking the weights against a manually shifted softmax
        rng = np.random.default_rng(4)
        m = random_model(rng)
        trace = attend_pair(m, 1, 2)
        shifted = np.exp(trace.attn_logits + 123.0 - (trace.attn_logits + 123.0).max())
        np.testing.assert_allclose(trace.attn_weights, shifted / shifted.sum(), atol=1e-9)

    def test_item_map_scaling_keeps_argmax(self):
        rng = np.random.default_rng(5)
        m = random_model(rng)
        before = [attend_pair(m, u, j).attn_weights.argmax() for u in range(5) for j in range(10)]
        m.attn_item_map *= 7.5
        after = [attend_pair(m, u, j).attn_weights.argmax() for u in range(5) for j in range(10)]
        assert before == after


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

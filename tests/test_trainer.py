import math
import threading
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import loss_and_grads, make_interactions, sgd_step, two_cluster_corpus
from personacf import trainer
from personacf.corpus import split_leave_one_out
from personacf.model import ModelConfig, attend, init_model, model_scorer, softmax
from personacf.ranking import RankingProtocol, evaluate
from personacf.trainer import (
    ENTROPY_CLAMP,
    Adam,
    LossConfig,
    TrainingDiverged,
    _forward_backward,
    _row_gradients,
    _scatter_rows,
    _zero_touched_rows,
    train,
)
from test_model import random_model


def scalar_loss_oracle(model, user, pos, negs, cfg):
    """Straight-line recomputation of the total loss with explicit loops;
    independent of the package's vectorized path."""
    r = model.config.personas
    d = model.config.embedding_dim
    da = model.config.attention_dim

    def weights_for(item):
        psi = [
            [
                sum(model.personas[user][k][i] * model.attn_user_map[i][e] for i in range(d))
                for e in range(da)
            ]
            for k in range(r)
        ]
        phi = [
            sum(model.attn_item_map[e][i] * model.item_vectors[item][i] for i in range(d))
            for e in range(da)
        ]
        logits = [sum(psi[k][e] * phi[e] for e in range(da)) for k in range(r)]
        mx = max(logits)
        exps = [math.exp(s - mx) for s in logits]
        return [e / sum(exps) for e in exps]

    def score_for(item):
        w = weights_for(item)
        x = [sum(w[k] * model.personas[user][k][i] for k in range(r)) for i in range(d)]
        return sum(x[i] * model.item_vectors[item][i] for i in range(d)) + model.item_bias[item]

    candidates = [pos] + list(negs)
    ys = [score_for(j) for j in candidates]
    mx = max(ys)
    data_loss = -ys[0] + mx + math.log(sum(math.exp(y - mx) for y in ys))

    def entropy(w):
        return -sum(wk * math.log(max(wk, 1e-12)) for wk in w)

    h_pos = entropy(weights_for(pos))
    h_neg = sum(entropy(weights_for(j)) for j in negs)
    return cfg.alpha * data_loss + (1 - cfg.alpha) * (
        cfg.lambda_pos * h_pos - cfg.lambda_neg * h_neg
    )


class TestLoss:
    def test_uniform_attention_entropy(self):
        m = random_model(np.random.default_rng(0), r=4)
        # identical persona rows give uniform attention on every item
        for k in range(1, 4):
            m.personas[0, k] = m.personas[0, 0]
        cfg = LossConfig()
        out, _ = loss_and_grads(m, 0, 1, [2, 3, 4, 5], cfg)
        assert out.pos_entropy == pytest.approx(math.log(4), abs=1e-9)

    def test_equal_scores_give_log5(self):
        m = random_model(np.random.default_rng(1), r=2)
        # zero item vectors and biases: every candidate scores 0
        m.item_vectors[:] = 0.0
        m.item_bias[:] = 0.0
        out, _ = loss_and_grads(m, 0, 1, [2, 3, 4, 5], LossConfig())
        assert out.data_loss == pytest.approx(math.log(5), abs=1e-9)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(2)
        m = random_model(rng)
        cfg = LossConfig(alpha=0.3, lambda_pos=0.7, lambda_neg=1.3)
        out, _ = loss_and_grads(m, 1, 0, [2, 5], cfg)
        assert out.entropy_loss == pytest.approx(
            cfg.lambda_pos * out.pos_entropy - cfg.lambda_neg * out.neg_entropy, abs=1e-12
        )
        assert out.total == pytest.approx(
            cfg.alpha * out.data_loss + (1 - cfg.alpha) * out.entropy_loss, abs=1e-12
        )

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            m = random_model(rng, d=4, da=3, r=int(rng.integers(1, 4)))
            cfg = LossConfig(
                alpha=float(rng.uniform(0, 1)),
                lambda_pos=float(rng.uniform(0, 2)),
                lambda_neg=float(rng.uniform(0, 2)),
            )
            user = int(rng.integers(5))
            pos = int(rng.integers(10))
            negs = [int(j) for j in rng.choice([j for j in range(10) if j != pos], 4, replace=False)]
            got = loss_and_grads(m, user, pos, negs, cfg)[0].total
            want = scalar_loss_oracle(m, user, pos, negs, cfg)
            assert got == pytest.approx(want, abs=1e-10)

    def test_entropy_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_model(rng, r=3)
            out, _ = loss_and_grads(m, 0, 1, [2, 3, 4, 5], LossConfig())
            assert 0.0 <= out.pos_entropy <= math.log(3) + 1e-12
            assert 0.0 <= out.neg_entropy <= 4 * math.log(3) + 1e-12


class TestGradients:
    def test_alpha_one_drops_entropy_terms(self):
        m = random_model(np.random.default_rng(6))
        _, a = loss_and_grads(m, 0, 1, [2, 3], LossConfig(alpha=1.0, lambda_pos=5.0, lambda_neg=5.0))
        _, b = loss_and_grads(m, 0, 1, [2, 3], LossConfig(alpha=1.0, lambda_pos=0.0, lambda_neg=0.0))
        np.testing.assert_allclose(a["personas"][0], b["personas"][0], atol=1e-12)
        np.testing.assert_allclose(a["attn_user_map"], b["attn_user_map"], atol=1e-12)
        np.testing.assert_allclose(a["attn_item_map"], b["attn_item_map"], atol=1e-12)

    def test_single_persona_attention_maps_frozen(self):
        m = random_model(np.random.default_rng(7), r=1)
        _, g = loss_and_grads(m, 0, 1, [2, 3, 4], LossConfig())
        np.testing.assert_array_equal(g["attn_user_map"], 0.0)
        np.testing.assert_array_equal(g["attn_item_map"], 0.0)

    def test_only_touched_items_have_entries(self):
        m = random_model(np.random.default_rng(8))
        _, g = loss_and_grads(m, 0, 1, [2, 5], LossConfig())
        others = np.setdiff1d(np.arange(m.config.num_items), [1, 2, 5])
        np.testing.assert_array_equal(g["item_vectors"][others], 0.0)
        np.testing.assert_array_equal(g["item_bias"][others], 0.0)

    def test_finite_differences_small(self):
        rng = np.random.default_rng(9)
        m = random_model(rng, d=4, da=4, r=2)
        cfg = LossConfig(alpha=0.4, lambda_pos=0.8, lambda_neg=1.2)
        user, pos, negs = 1, 0, [3, 7]
        _, g = loss_and_grads(m, user, pos, negs, cfg)
        h = 1e-5

        def fd(block, idx):
            orig = block[idx]
            block[idx] = orig + h
            up = loss_and_grads(m, user, pos, negs, cfg)[0].total
            block[idx] = orig - h
            down = loss_and_grads(m, user, pos, negs, cfg)[0].total
            block[idx] = orig
            return (up - down) / (2 * h)

        for idx, val in np.ndenumerate(g["personas"][user]):
            num = fd(m.personas, (user, *idx))
            assert val == pytest.approx(num, rel=1e-4, abs=1e-8)
        for j in (pos, *negs):
            assert g["item_bias"][j] == pytest.approx(fd(m.item_bias, (j,)), rel=1e-4, abs=1e-8)


batch_shapes = dict(B=st.integers(1, 4), C=st.integers(2, 5), r=st.integers(1, 3),
                    d=st.integers(1, 4), da=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))


def random_batch(B, C, r, d, da, seed):
    """A random model and a batch whose items may repeat within and across rows."""
    rng = np.random.default_rng(seed)
    m = random_model(rng, num_users=4, num_items=6, d=d, da=da, r=r)
    return m, rng.integers(4, size=B), rng.integers(6, size=(B, C))


class TestBatchedPathMatchesReference:
    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(0.0, 1.0), **batch_shapes)
    def test_gradients_match_finite_differences(self, alpha, B, C, r, d, da, seed):
        m, users, items = random_batch(B, C, r, d, da, seed)
        cfg = LossConfig(alpha=alpha, lambda_pos=0.8, lambda_neg=1.2)
        _, grads = _forward_backward(m, users, items, cfg, 1.0 / B, _row_gradients(m))
        h = 1e-5

        def total():
            return _forward_backward(m, users, items, cfg, 1.0, _row_gradients(m))[0].total

        for name, block in m.parameter_blocks().items():
            numeric = np.zeros_like(block)
            for idx in np.ndindex(block.shape):
                orig = block[idx]
                block[idx] = orig + h
                up = total()
                block[idx] = orig - h
                numeric[idx] = (up - total()) / (2 * h)
                block[idx] = orig
            np.testing.assert_allclose(grads[name], numeric, rtol=1e-4, atol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(**batch_shapes)
    def test_data_loss_matches_inference_forward(self, B, C, r, d, da, seed):
        m, users, items = random_batch(B, C, r, d, da, seed)
        out, _ = _forward_backward(m, users, items, LossConfig(alpha=1.0), 1.0, _row_gradients(m))
        scores = [attend(m, u, row).scores for u, row in zip(users, items)]
        want = np.mean([np.logaddexp.reduce(s) - s[0] for s in scores])
        assert out.data_loss == pytest.approx(want, abs=1e-10)


def old_forward_backward(model, users, items, cfg, scale, row_grads):
    """Straight-line copy of the loss this module replaced: the candidate
    softmax and the data loss each take their own max/exp/sum, and the
    clamped log of the attention weights is taken twice."""
    B, C = items.shape
    a, lp, ln_ = cfg.alpha, cfg.lambda_pos, cfg.lambda_neg
    Au, Av = model.attn_user_map, model.attn_item_map
    Ub = model.personas[users]
    Vb = model.item_vectors[items]
    psi = Ub @ Au
    phi = Vb @ Av.T
    logits = np.einsum("bke,bce->bkc", psi, phi)
    W = softmax(logits, axis=1)
    X = np.einsum("bkc,bkd->bcd", W, Ub)
    y = np.einsum("bcd,bcd->bc", X, Vb) + model.item_bias[items]
    p = softmax(y, axis=1)
    shifted = y - y.max(axis=1, keepdims=True)
    data_loss = -y[:, 0] + y.max(axis=1) + np.log(np.exp(shifted).sum(axis=1))
    ent = -W * np.log(np.maximum(W, ENTROPY_CLAMP))
    pos_entropy = ent[:, :, 0].sum(axis=1)
    neg_entropy = ent[:, :, 1:].sum(axis=(1, 2))
    entropy_loss = lp * pos_entropy - ln_ * neg_entropy
    total = a * data_loss + (1.0 - a) * entropy_loss
    if not np.all(np.isfinite(total)):
        raise TrainingDiverged("non-finite loss in batch")
    breakdown = (data_loss.mean(), pos_entropy.mean(), neg_entropy.mean(),
                 entropy_loss.mean(), total.mean())
    gy = a * p
    gy[:, 0] -= a
    gX = gy[:, :, None] * Vb
    gV = gy[:, :, None] * X
    gW = np.einsum("bcd,bkd->bkc", gX, Ub)
    log_w = np.log(np.maximum(W, ENTROPY_CLAMP))
    gW[:, :, 0] += (1.0 - a) * lp * (-(log_w[:, :, 0] + 1.0))
    gW[:, :, 1:] += (1.0 - a) * ln_ * (log_w[:, :, 1:] + 1.0)
    gS = W * (gW - (W * gW).sum(axis=1, keepdims=True))
    gpsi = np.einsum("bkc,bce->bke", gS, phi)
    gphi = np.einsum("bkc,bke->bce", gS, psi)
    gU = np.einsum("bkc,bcd->bkd", W, gX) + gpsi @ Au.T
    gV += gphi @ Av
    gAu = scale * np.einsum("bkd,bke->de", Ub, gpsi)
    gAv = scale * np.einsum("bce,bcd->ed", gphi, Vb)
    np.add.at(row_grads["personas"], users, scale * gU)
    np.add.at(row_grads["item_vectors"], items.ravel(), scale * gV.reshape(B * C, -1))
    np.add.at(row_grads["item_bias"], items.ravel(), scale * gy.ravel())
    return breakdown, {**row_grads, "attn_user_map": gAu, "attn_item_map": gAv}


class TestForwardBackwardMatchesOldCode:
    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(0.0, 1.0), lambda_pos=st.floats(0.0, 3.0),
           lambda_neg=st.floats(0.0, 3.0), spread=st.sampled_from([0.1, 1.0, 8.0]),
           **batch_shapes)
    def test_same_bytes(self, alpha, lambda_pos, lambda_neg, spread, B, C, r, d, da, seed):
        # spread 8 drives attention weights to exactly 0 and 1, under the clamp
        m, users, items = random_batch(B, C, r, d, da, seed)
        for block in m.parameter_blocks().values():
            block *= spread
        cfg = LossConfig(alpha=alpha, lambda_pos=lambda_pos, lambda_neg=lambda_neg)
        self.assert_same_bytes(m, users, items, cfg)

    @pytest.mark.parametrize("B", [256, 250])
    def test_same_bytes_at_default_sizes(self, B):
        # the default model and batch size, and a short last batch; 50 items
        # repeat across the batch's candidates, as popular items do
        rng = np.random.default_rng(B)
        m = random_model(rng, num_users=300, num_items=50, d=64, da=64, r=2)
        users, items = rng.integers(300, size=B), rng.integers(50, size=(B, 5))
        self.assert_same_bytes(m, users, items, LossConfig())

    @staticmethod
    def assert_same_bytes(m, users, items, cfg):
        def run(fn):
            try:
                return fn(m, users, items, cfg, 1.0 / len(users), _row_gradients(m))
            except TrainingDiverged:
                return None

        got, want = run(_forward_backward), run(old_forward_backward)
        assert (got is None) == (want is None)
        if got is None:
            return
        assert np.array(astuple(got[0])).tobytes() == np.array(want[0]).tobytes()
        assert got[1].keys() == want[1].keys()
        for name in want[1]:
            assert got[1][name].tobytes() == want[1][name].tobytes(), name


class TestAdam:
    def test_zero_gradient_is_a_no_op(self):
        m = random_model(np.random.default_rng(10))
        blocks = m.parameter_blocks()
        before = {k: v.copy() for k, v in blocks.items()}
        opt = Adam(blocks, LossConfig())
        opt.step(blocks, {k: np.zeros_like(v) for k, v in blocks.items()})
        for k in blocks:
            np.testing.assert_array_equal(blocks[k], before[k])

    def test_step_moves_against_gradient(self):
        m = random_model(np.random.default_rng(11))
        blocks = m.parameter_blocks()
        opt = Adam(blocks, LossConfig(learning_rate=0.1))
        grads = {k: np.ones_like(v) for k, v in blocks.items()}
        before = blocks["item_bias"].copy()
        opt.step(blocks, grads)
        assert np.all(blocks["item_bias"] < before)


def reference_adam(blocks, grad_steps, cfg):
    """The out-of-place dense Adam update, one straight-line statement per
    formula; returns the first and second moments."""
    b1, b2, eps, lr = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps, cfg.learning_rate
    m = {k: np.zeros_like(v) for k, v in blocks.items()}
    v = {k: np.zeros_like(p) for k, p in blocks.items()}
    for t, grads in enumerate(grad_steps, start=1):
        for k, param in blocks.items():
            g = grads[k]
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g**2
            m_hat = m[k] / (1 - b1**t)
            v_hat = v[k] / (1 - b2**t)
            param -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return m, v


block_shapes = st.lists(
    st.lists(st.integers(1, 7), min_size=1, max_size=3).map(tuple), min_size=1, max_size=4
)


class TestAdamMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(
        shapes=block_shapes,
        steps=st.integers(50, 80),
        seed=st.integers(0, 2**32 - 1),
        lr=st.sampled_from([0.001, 0.01, 0.1]),
        row_density=st.floats(0.0, 1.0),
        chunk=st.integers(1, 60),
    )
    def test_in_place_step_is_byte_identical(self, shapes, steps, seed, lr, row_density, chunk):
        rng = np.random.default_rng(seed)
        cfg = LossConfig(learning_rate=lr)
        start = {f"b{i}": rng.normal(0, 1, shape) for i, shape in enumerate(shapes)}
        grad_steps = []
        for _ in range(steps):
            grads = {}
            for k, block in start.items():
                # row-sparse, as a batch touches some rows; untouched rows are all zero
                touched = rng.random(block.shape[0]) < row_density
                g = np.zeros_like(block)
                g[touched] = rng.normal(0, 1, g[touched].shape)
                grads[k] = g
            grad_steps.append(grads)

        got = {k: v.copy() for k, v in start.items()}
        opt = Adam(got, cfg)
        # a chunk smaller than a block updates it a few rows at a time
        with mock.patch.object(trainer, "ADAM_CHUNK", chunk):
            for grads in grad_steps:
                opt.step(got, grads)
        want = {k: v.copy() for k, v in start.items()}
        want_m, want_v = reference_adam(want, grad_steps, cfg)
        for k in start:
            assert got[k].tobytes() == want[k].tobytes()
            assert opt.m[k].tobytes() == want_m[k].tobytes()
            assert opt.v[k].tobytes() == want_v[k].tobytes()


class TestGradientBuffers:
    ROW_BLOCKS = ("personas", "item_vectors", "item_bias")

    def test_reused_buffers_match_fresh_ones(self):
        m = random_model(np.random.default_rng(12), num_users=5, num_items=10)
        cfg = LossConfig()
        opt = Adam(m.parameter_blocks(), LossConfig(learning_rate=0.1))
        row_grads = _row_gradients(m)
        # items repeat within each batch (across rows) and across batches
        batches = [
            (np.array([0, 1, 0]), np.array([[1, 2, 3], [2, 4, 1], [3, 1, 5]])),
            (np.array([1, 4]), np.array([[3, 1, 6], [7, 3, 2]])),
        ]
        for users, items in batches:
            scale = 1.0 / len(users)
            _, want = _forward_backward(m, users, items, cfg, scale, _row_gradients(m))
            _, got = _forward_backward(m, users, items, cfg, scale, row_grads=row_grads)
            assert list(got) == list(want)
            for k in want:
                assert got[k].tobytes() == want[k].tobytes()
            for k in self.ROW_BLOCKS:
                assert got[k] is row_grads[k]
                assert np.any(row_grads[k] != 0)
            opt.step(m.parameter_blocks(), got)
            _zero_touched_rows(row_grads, users, items)
            for k in self.ROW_BLOCKS:
                assert not np.any(row_grads[k])

    def test_training_matches_fresh_buffers(self, monkeypatch):
        data = two_cluster_corpus(seed=4, users_per_side=5, items_per_side=20, history=6)
        split = split_leave_one_out(data)

        def run():
            cfg = ModelConfig(num_users=data.num_users, num_items=data.num_items,
                              embedding_dim=8, attention_dim=8, personas=2)
            model = init_model(cfg, np.random.default_rng(3))
            return train(split, model, LossConfig(batch_size=8, patience=2, max_epochs=2),
                         np.random.default_rng(3),
                         RankingProtocol(num_sampled_negatives=20, cutoff=10))

        best_reused, hist_reused = run()
        reused_forward_backward = trainer._forward_backward

        def fresh_buffers(model, users, items, cfg, scale, row_grads):
            return reused_forward_backward(model, users, items, cfg, scale, _row_gradients(model))

        monkeypatch.setattr(trainer, "_forward_backward", fresh_buffers)
        best_fresh, hist_fresh = run()
        assert hist_reused == hist_fresh
        for k, block in best_reused.parameter_blocks().items():
            assert block.tobytes() == best_fresh.parameter_blocks()[k].tobytes()


class TestScatterRows:
    @settings(max_examples=200, deadline=None)
    @given(num_rows=st.integers(1, 6), row_shape=st.sampled_from([(1,), (3,), (2, 4)]),
           n=st.integers(0, 40), block=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
    def test_same_bytes_as_add_at(self, num_rows, row_shape, n, block, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(num_rows, size=n)  # rows repeat: the order of additions shows
        magnitude = rng.choice([1e-9, 1.0, 1e9], size=n).reshape(-1, *[1] * len(row_shape))
        values = rng.normal(size=(n, *row_shape)) * magnitude
        values[rng.random(values.shape) < 0.2] = -0.0
        start = rng.normal(size=(num_rows, *row_shape))
        start[rng.random(start.shape) < 0.3] = 0.0
        got, want = start.copy(), start.copy()
        with mock.patch.object(trainer, "SCATTER_BLOCK", block):
            _scatter_rows(got, rows, values)
        np.add.at(want, rows, values)
        assert got.tobytes() == want.tobytes()


class TestNoThreads:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the diverging batch
    def test_train_starts_no_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        data = two_cluster_corpus(seed=6, users_per_side=10, items_per_side=30, history=12)
        split = split_leave_one_out(data)
        cfg = ModelConfig(num_users=data.num_users, num_items=data.num_items,
                          embedding_dim=16, attention_dim=8, personas=3)
        before = threading.active_count()
        train(split, init_model(cfg, np.random.default_rng(5)),
              LossConfig(batch_size=64, max_epochs=2), np.random.default_rng(5),
              RankingProtocol(num_sampled_negatives=20, cutoff=10))
        assert started == [] and threading.active_count() == before

        model = init_model(cfg, np.random.default_rng(0))
        model.item_bias[:] = np.inf
        with pytest.raises(TrainingDiverged, match="epoch 1, batch 0"):
            train(split, model, LossConfig(max_epochs=1), np.random.default_rng(0))
        assert started == [] and threading.active_count() == before


class TestEntropyDynamics:
    def test_positive_entropy_concentrates_attention(self):
        m = random_model(np.random.default_rng(12), r=2)
        cfg = LossConfig(alpha=0.0, lambda_pos=1.0, lambda_neg=0.0)
        pos, negs = 1, [2, 3]
        maxima = []
        for _ in range(100):
            maxima.append(attend(m, 0, [pos]).attn_weights.max())
            sgd_step(m, pos, negs, cfg, lr=0.1)
        maxima.append(attend(m, 0, [pos]).attn_weights.max())
        assert all(b >= a - 1e-12 for a, b in zip(maxima, maxima[1:]))
        assert maxima[-1] > maxima[0]

    def test_negative_entropy_spreads_attention(self):
        m = random_model(np.random.default_rng(13), r=2)
        cfg = LossConfig(alpha=0.0, lambda_pos=0.0, lambda_neg=1.0)
        pos, negs = 1, [2, 3]
        for _ in range(500):
            sgd_step(m, pos, negs, cfg, lr=0.05)
        for n in negs:
            assert attend(m, 0, [n]).attn_weights.max() == pytest.approx(0.5, abs=0.05)


class TestTrain:
    def _protocol(self):
        return RankingProtocol(num_sampled_negatives=100, cutoff=10)

    def test_patience_zero_runs_one_epoch(self):
        data = two_cluster_corpus(seed=0, users_per_side=5, items_per_side=20, history=6)
        split = split_leave_one_out(data)
        cfg = ModelConfig(num_users=data.num_users, num_items=data.num_items,
                          embedding_dim=8, attention_dim=8, personas=2)
        model = init_model(cfg, np.random.default_rng(0))
        _, history = train(split, model, LossConfig(patience=0, max_epochs=50),
                           np.random.default_rng(0), self._protocol())
        assert len(history) == 1

    def test_validation_excludes_every_consumed_item(self, tiny_split, monkeypatch):
        # candidates are the target plus every item the user never consumed,
        # held-out test items included (the catalogue is under 100 items)
        seen = {}

        def recording_scorer(model):
            def scorer(user, candidates):
                seen[user] = candidates.tolist()
                return np.zeros(len(candidates))

            return scorer

        monkeypatch.setattr(trainer, "model_scorer", recording_scorer)
        model = init_model(ModelConfig(num_users=3, num_items=6), np.random.default_rng(0))
        train(tiny_split, model, LossConfig(patience=0, max_epochs=1),
              np.random.default_rng(0), self._protocol())
        assert sorted(seen) == sorted(tiny_split.validation)
        for user, candidates in seen.items():
            consumed = {*tiny_split.train.per_user_items[user].tolist(), tiny_split.test[user]}
            target = tiny_split.validation[user]
            assert candidates[0] == target
            assert sorted(candidates[1:]) == sorted(set(range(6)) - consumed - {target})

    def test_fixed_seed_reproduces_history(self):
        data = two_cluster_corpus(seed=1, users_per_side=5, items_per_side=20, history=6)
        split = split_leave_one_out(data)

        def run():
            cfg = ModelConfig(num_users=data.num_users, num_items=data.num_items,
                              embedding_dim=8, attention_dim=8, personas=2)
            model = init_model(cfg, np.random.default_rng(7))
            best, history = train(split, model, LossConfig(patience=1, max_epochs=3),
                                  np.random.default_rng(7), self._protocol())
            return best, history

        best_a, hist_a = run()
        best_b, hist_b = run()
        assert hist_a == hist_b
        for k, block in best_a.parameter_blocks().items():
            assert block.tobytes() == best_b.parameter_blocks()[k].tobytes()

    def test_each_epoch_trains_on_each_event_once(self, monkeypatch):
        # batches of 3 cut across users, and user 1 has no training events
        data = make_interactions([[0, 1, 2, 3], [4, 5, 6], [7, 8, 9, 10, 11], [1, 5]],
                                 num_items=12)
        split = split_leave_one_out(data)
        rows = [row.tolist() for row in split.train.per_user_items]
        rows[1] = []
        split = replace(split, train=make_interactions(rows, num_items=12))
        seen = []
        forward_backward = trainer._forward_backward

        def recording(model, users, items, *args, **kwargs):
            seen.extend(zip(users.tolist(), items[:, 0].tolist()))
            return forward_backward(model, users, items, *args, **kwargs)

        monkeypatch.setattr(trainer, "_forward_backward", recording)
        model = init_model(ModelConfig(num_users=4, num_items=12), np.random.default_rng(0))
        train(split, model, LossConfig(batch_size=3, patience=2, max_epochs=2),
              np.random.default_rng(0), self._protocol())
        events = sorted((u, j) for u, row in enumerate(rows) for j in row)
        assert sorted(seen[: len(events)]) == sorted(seen[len(events) :]) == events

    def test_first_epoch_loss_envelope(self):
        data = two_cluster_corpus(seed=2, users_per_side=10, items_per_side=30, history=10)
        split = split_leave_one_out(data)
        cfg = ModelConfig(num_users=data.num_users, num_items=data.num_items,
                          embedding_dim=8, attention_dim=8, personas=2)
        model = init_model(cfg, np.random.default_rng(0))
        loss_cfg = LossConfig(patience=0, max_epochs=1)
        _, history = train(split, model, loss_cfg, np.random.default_rng(0), self._protocol())
        bound = math.log(5) + (1 - loss_cfg.alpha) * loss_cfg.lambda_pos * math.log(2) + 0.5
        assert np.isfinite(history[0].total_loss)
        assert history[0].total_loss < bound

    def test_separable_corpus_reaches_high_hit_rate(self):
        data = two_cluster_corpus(seed=3)
        split = split_leave_one_out(data)
        cfg = ModelConfig(num_users=data.num_users, num_items=data.num_items,
                          embedding_dim=16, attention_dim=16, personas=2)
        model = init_model(cfg, np.random.default_rng(0))
        loss_cfg = LossConfig(learning_rate=0.01, batch_size=128, patience=3, max_epochs=20)
        best, _ = train(split, model, loss_cfg, np.random.default_rng(0), self._protocol())
        report = evaluate(model_scorer(best), split.test, data, self._protocol(),
                          np.random.default_rng(0))
        assert report.hr_at_k > 0.9

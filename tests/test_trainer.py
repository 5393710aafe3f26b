import math

import numpy as np
import pytest

from conftest import two_cluster_corpus
from personacf.corpus import split_leave_one_out
from personacf.model import ModelConfig, init_model, model_scorer
from personacf.ranking import RankingProtocol, evaluate
from personacf.trainer import (
    Adam,
    LossConfig,
    gradients,
    loss_for_example,
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
        out = loss_for_example(m, 0, 1, [2, 3, 4, 5], cfg)
        assert out.pos_entropy == pytest.approx(math.log(4), abs=1e-9)

    def test_equal_scores_give_log5(self):
        m = random_model(np.random.default_rng(1), r=2)
        # zero item vectors and biases: every candidate scores 0
        m.item_vectors[:] = 0.0
        m.item_bias[:] = 0.0
        out = loss_for_example(m, 0, 1, [2, 3, 4, 5], LossConfig())
        assert out.data_loss == pytest.approx(math.log(5), abs=1e-9)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(2)
        m = random_model(rng)
        cfg = LossConfig(alpha=0.3, lambda_pos=0.7, lambda_neg=1.3)
        out = loss_for_example(m, 1, 0, [2, 5], cfg)
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
            got = loss_for_example(m, user, pos, negs, cfg).total
            want = scalar_loss_oracle(m, user, pos, negs, cfg)
            assert got == pytest.approx(want, abs=1e-10)

    def test_positive_among_negatives_rejected(self):
        m = random_model(np.random.default_rng(4))
        with pytest.raises(ValueError):
            loss_for_example(m, 0, 3, [3, 4], LossConfig())

    def test_entropy_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_model(rng, r=3)
            out = loss_for_example(m, 0, 1, [2, 3, 4, 5], LossConfig())
            assert 0.0 <= out.pos_entropy <= math.log(3) + 1e-12
            assert 0.0 <= out.neg_entropy <= 4 * math.log(3) + 1e-12


class TestGradients:
    def test_alpha_one_drops_entropy_terms(self):
        m = random_model(np.random.default_rng(6))
        a = gradients(m, 0, 1, [2, 3], LossConfig(alpha=1.0, lambda_pos=5.0, lambda_neg=5.0))
        b = gradients(m, 0, 1, [2, 3], LossConfig(alpha=1.0, lambda_pos=0.0, lambda_neg=0.0))
        np.testing.assert_allclose(a.persona, b.persona, atol=1e-12)
        np.testing.assert_allclose(a.attn_user_map, b.attn_user_map, atol=1e-12)
        np.testing.assert_allclose(a.attn_item_map, b.attn_item_map, atol=1e-12)

    def test_single_persona_attention_maps_frozen(self):
        m = random_model(np.random.default_rng(7), r=1)
        g = gradients(m, 0, 1, [2, 3, 4], LossConfig())
        np.testing.assert_array_equal(g.attn_user_map, 0.0)
        np.testing.assert_array_equal(g.attn_item_map, 0.0)

    def test_only_touched_items_have_entries(self):
        m = random_model(np.random.default_rng(8))
        g = gradients(m, 0, 1, [2, 5], LossConfig())
        assert set(g.item_vectors) == {1, 2, 5}
        assert set(g.item_bias) == {1, 2, 5}

    def test_finite_differences_small(self):
        rng = np.random.default_rng(9)
        m = random_model(rng, d=4, da=4, r=2)
        cfg = LossConfig(alpha=0.4, lambda_pos=0.8, lambda_neg=1.2)
        user, pos, negs = 1, 0, [3, 7]
        g = gradients(m, user, pos, negs, cfg)
        h = 1e-5

        def fd(block, idx):
            orig = block[idx]
            block[idx] = orig + h
            up = loss_for_example(m, user, pos, negs, cfg).total
            block[idx] = orig - h
            down = loss_for_example(m, user, pos, negs, cfg).total
            block[idx] = orig
            return (up - down) / (2 * h)

        for idx, val in np.ndenumerate(g.persona):
            num = fd(m.personas, (user, *idx))
            assert val == pytest.approx(num, rel=1e-4, abs=1e-8)
        for j, val in g.item_bias.items():
            assert val == pytest.approx(fd(m.item_bias, (j,)), rel=1e-4, abs=1e-8)


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


class TestEntropyDynamics:
    def _sgd_step(self, model, g, lr):
        model.personas[0] -= lr * g.persona
        model.attn_user_map -= lr * g.attn_user_map
        model.attn_item_map -= lr * g.attn_item_map
        for j, vec in g.item_vectors.items():
            model.item_vectors[j] -= lr * vec
        for j, val in g.item_bias.items():
            model.item_bias[j] -= lr * val

    def test_positive_entropy_concentrates_attention(self):
        from personacf.model import attend

        m = random_model(np.random.default_rng(12), r=2)
        cfg = LossConfig(alpha=0.0, lambda_pos=1.0, lambda_neg=0.0)
        pos, negs = 1, [2, 3]
        maxima = []
        for _ in range(100):
            maxima.append(attend(m, 0, [pos]).attn_weights.max())
            self._sgd_step(m, gradients(m, 0, pos, negs, cfg), lr=0.1)
        maxima.append(attend(m, 0, [pos]).attn_weights.max())
        assert all(b >= a - 1e-12 for a, b in zip(maxima, maxima[1:]))
        assert maxima[-1] > maxima[0]

    def test_negative_entropy_spreads_attention(self):
        from personacf.model import attend

        m = random_model(np.random.default_rng(13), r=2)
        cfg = LossConfig(alpha=0.0, lambda_pos=0.0, lambda_neg=1.0)
        pos, negs = 1, [2, 3]
        for _ in range(500):
            self._sgd_step(m, gradients(m, 0, pos, negs, cfg), lr=0.05)
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

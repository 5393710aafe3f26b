"""Training: entropy-regularized sampled-softmax loss, analytic gradients
and Adam, with early stopping on validation ranking metrics.

The per-example loss over candidates {positive} + sampled negatives is

    total = alpha * data_loss
          + (1 - alpha) * (lambda_pos * H_pos - lambda_neg * H_neg)

where data_loss is the negative log-likelihood of the positive under a
softmax over the candidate scores, H_pos is the entropy of the attention
weights on the positive and H_neg the summed attention entropies over the
negatives. Lowering H_pos concentrates a positive on one persona; raising
H_neg spreads randomly drawn negatives over all personas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusError, Interactions, Split, build_sampling_table
from .model import PersonaModel, model_scorer, softmax
from .ranking import RankingProtocol, evaluate

ENTROPY_CLAMP = 1e-12  # floor inside log only; weights themselves untouched


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class LossConfig:
    alpha: float = 0.5
    lambda_pos: float = 1.0
    lambda_neg: float = 1.0
    negatives_per_positive: int = 4
    learning_rate: float = 0.001
    batch_size: int = 256
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    patience: int = 5
    max_epochs: int = 200

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")
        if self.lambda_pos < 0 or self.lambda_neg < 0:
            raise ValueError("entropy weights must be nonnegative")


@dataclass
class LossBreakdown:
    data_loss: float
    pos_entropy: float
    neg_entropy: float
    entropy_loss: float
    total: float


@dataclass
class GradientSet:
    """Gradients for the parameters touched by one example."""

    persona: np.ndarray  # (r, d), the example's user
    attn_user_map: np.ndarray  # (d, d_a)
    attn_item_map: np.ndarray  # (d_a, d)
    item_vectors: dict[int, np.ndarray]  # touched items only
    item_bias: dict[int, float]


@dataclass
class EpochRecord:
    epoch: int
    data_loss: float
    pos_entropy: float
    neg_entropy: float
    total_loss: float
    val_hr: float
    val_ndcg: float


def _entropy_terms(weights: np.ndarray) -> np.ndarray:
    """Elementwise -w log w with the log clamped away from zero."""
    return -weights * np.log(np.maximum(weights, ENTROPY_CLAMP))


def _forward_backward(
    model: PersonaModel,
    users: np.ndarray,
    items: np.ndarray,
    cfg: LossConfig,
    scale: float,
):
    """Loss and gradients for a batch.

    users: (B,) user indices; items: (B, C) candidate items, column 0 the
    positive. Returns (mean LossBreakdown, dense gradient dict scaled by
    ``scale``, attention weights (B, r, C)).
    """
    B, C = items.shape
    a, lp, ln_ = cfg.alpha, cfg.lambda_pos, cfg.lambda_neg
    Au, Av = model.attn_user_map, model.attn_item_map

    Ub = model.personas[users]  # (B, r, d)
    Vb = model.item_vectors[items]  # (B, C, d)
    psi = Ub @ Au  # (B, r, d_a)
    phi = Vb @ Av.T  # (B, C, d_a)
    logits = np.einsum("bke,bce->bkc", psi, phi)  # (B, r, C)
    W = softmax(logits, axis=1)  # attention weights over personas
    X = np.einsum("bkc,bkd->bcd", W, Ub)  # (B, C, d)
    y = np.einsum("bcd,bcd->bc", X, Vb) + model.item_bias[items]  # (B, C)

    p = softmax(y, axis=1)  # softmax over candidates
    shifted = y - y.max(axis=1, keepdims=True)
    data_loss = -y[:, 0] + y.max(axis=1) + np.log(np.exp(shifted).sum(axis=1))
    ent = _entropy_terms(W)  # (B, r, C)
    pos_entropy = ent[:, :, 0].sum(axis=1)
    neg_entropy = ent[:, :, 1:].sum(axis=(1, 2))
    entropy_loss = lp * pos_entropy - ln_ * neg_entropy
    total = a * data_loss + (1.0 - a) * entropy_loss
    if not np.all(np.isfinite(total)):
        raise TrainingDiverged("non-finite loss in batch")
    breakdown = LossBreakdown(
        data_loss=float(data_loss.mean()),
        pos_entropy=float(pos_entropy.mean()),
        neg_entropy=float(neg_entropy.mean()),
        entropy_loss=float(entropy_loss.mean()),
        total=float(total.mean()),
    )

    # backward
    gy = a * p
    gy[:, 0] -= a  # d data_loss / dy
    gX = gy[:, :, None] * Vb  # (B, C, d)
    gV = gy[:, :, None] * X  # direct score path
    gW = np.einsum("bcd,bkd->bkc", gX, Ub)  # via x
    # entropy paths: d(-w log w)/dw = -(log w + 1)
    log_w = np.log(np.maximum(W, ENTROPY_CLAMP))
    gW[:, :, 0] += (1.0 - a) * lp * (-(log_w[:, :, 0] + 1.0))
    gW[:, :, 1:] += (1.0 - a) * ln_ * (log_w[:, :, 1:] + 1.0)
    # softmax backward over personas, per candidate
    gS = W * (gW - (W * gW).sum(axis=1, keepdims=True))  # (B, r, C)
    gpsi = np.einsum("bkc,bce->bke", gS, phi)
    gphi = np.einsum("bkc,bke->bce", gS, psi)
    gU = np.einsum("bkc,bcd->bkd", W, gX) + gpsi @ Au.T
    gV += gphi @ Av
    gAu = scale * np.einsum("bkd,bke->de", Ub, gpsi)
    gAv = scale * np.einsum("bce,bcd->ed", gphi, Vb)

    grads = {
        "personas": np.zeros_like(model.personas),
        "item_vectors": np.zeros_like(model.item_vectors),
        "attn_user_map": gAu,
        "attn_item_map": gAv,
        "item_bias": np.zeros_like(model.item_bias),
    }
    np.add.at(grads["personas"], users, scale * gU)
    np.add.at(grads["item_vectors"], items.ravel(), scale * gV.reshape(B * C, -1))
    np.add.at(grads["item_bias"], items.ravel(), scale * gy.ravel())
    return breakdown, grads, W


def loss_for_example(
    model: PersonaModel,
    user: int,
    pos: int,
    negs: list[int],
    cfg: LossConfig,
) -> LossBreakdown:
    if pos in negs:
        raise ValueError("positive item must not appear among the negatives")
    users = np.array([user])
    items = np.array([[pos, *negs]])
    breakdown, _, _ = _forward_backward(model, users, items, cfg, scale=1.0)
    return breakdown


def gradients(
    model: PersonaModel,
    user: int,
    pos: int,
    negs: list[int],
    cfg: LossConfig,
) -> GradientSet:
    """Analytic gradients of the total loss for a single example. Only
    touched parameters get entries."""
    if pos in negs:
        raise ValueError("positive item must not appear among the negatives")
    users = np.array([user])
    items = np.array([[pos, *negs]])
    _, grads, _ = _forward_backward(model, users, items, cfg, scale=1.0)
    touched = sorted(set(items.ravel().tolist()))
    return GradientSet(
        persona=grads["personas"][user],
        attn_user_map=grads["attn_user_map"],
        attn_item_map=grads["attn_item_map"],
        item_vectors={j: grads["item_vectors"][j] for j in touched},
        item_bias={j: float(grads["item_bias"][j]) for j in touched},
    )


class Adam:
    """Dense Adam over named parameter blocks."""

    def __init__(self, blocks: dict[str, np.ndarray], cfg: LossConfig):
        self.lr = cfg.learning_rate
        self.b1, self.b2, self.eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
        self.m = {k: np.zeros_like(v) for k, v in blocks.items()}
        self.v = {k: np.zeros_like(v) for k, v in blocks.items()}
        self.t = 0

    def step(self, blocks: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        for k, param in blocks.items():
            g = grads[k]
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g**2
            m_hat = self.m[k] / (1 - self.b1**self.t)
            v_hat = self.v[k] / (1 - self.b2**self.t)
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _check_negatives_drawable(train: Interactions, probabilities: np.ndarray) -> None:
    """Refuse a corpus where some user's training items cover every item
    the table can draw: redrawing their negatives would never stop."""
    drawable = np.count_nonzero(probabilities)
    for user, items in enumerate(train.per_user_items):
        if np.count_nonzero(probabilities[np.asarray(items, dtype=np.intp)]) == drawable:
            name = train.user_ids[user] if train.user_ids else user
            raise CorpusError(
                f"user {name!r}: training items cover every sampleable item, "
                "so no negative can be drawn"
            )


def _draw_batch_negatives(
    users: np.ndarray,
    cumulative: np.ndarray,
    train_sets: list[set[int]],
    n_neg: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(B, n_neg) negatives, resampling draws that hit the user's training
    items. Exclusion covers training positives only, not held-out items."""
    B = len(users)
    negs = np.searchsorted(cumulative, rng.random((B, n_neg)), side="right")
    for b in range(B):
        forbidden = train_sets[users[b]]
        for s in range(n_neg):
            while int(negs[b, s]) in forbidden:
                negs[b, s] = np.searchsorted(cumulative, rng.random(), side="right")
    return negs


def train(
    split: Split,
    model: PersonaModel,
    cfg: LossConfig,
    rng: np.random.Generator,
    protocol: RankingProtocol | None = None,
    all_interacted: list[set[int]] | None = None,
    log=None,
) -> tuple[PersonaModel, list[EpochRecord]]:
    """Optimize ``model`` in place; returns the best-validation-epoch copy
    and the per-epoch history.

    Negatives are redrawn every epoch. After each epoch HR@10/NDCG@10 are
    computed on the validation items; training stops once neither has
    improved for ``cfg.patience`` epochs (patience 0 -> exactly one epoch).
    """
    protocol = protocol or RankingProtocol()
    table = build_sampling_table(split.train)
    _check_negatives_drawable(split.train, table.probabilities)
    train_sets = split.train.item_sets()
    events = np.array(split.train.events, dtype=np.intp)
    if all_interacted is None:
        all_interacted = [set(s) for s in train_sets]
        for held in (split.validation, split.test):
            for u, j in held.items():
                all_interacted[u].add(j)

    # one fixed candidate set per validation user keeps the early-stopping
    # signal comparable across epochs
    val_seed = int(rng.integers(2**63))
    opt = Adam(model.parameter_blocks(), cfg)
    history: list[EpochRecord] = []
    best = model.copy()
    best_hr, best_ndcg = -1.0, -1.0
    stale = 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(events))
        sums = np.zeros(4)
        n_batches = 0
        for start in range(0, len(events), cfg.batch_size):
            batch = events[order[start : start + cfg.batch_size]]
            users, pos = batch[:, 0], batch[:, 1]
            negs = _draw_batch_negatives(
                users, table.cumulative, train_sets, cfg.negatives_per_positive, rng
            )
            items = np.concatenate([pos[:, None], negs], axis=1)
            try:
                breakdown, grads, _ = _forward_backward(
                    model, users, items, cfg, scale=1.0 / len(batch)
                )
            except TrainingDiverged:
                raise TrainingDiverged(
                    f"non-finite loss in epoch {epoch}, batch {n_batches}"
                ) from None
            opt.step(model.parameter_blocks(), grads)
            sums += (
                breakdown.data_loss,
                breakdown.pos_entropy,
                breakdown.neg_entropy,
                breakdown.total,
            )
            n_batches += 1

        report = evaluate(
            model_scorer(model),
            split.validation,
            split.train,
            protocol,
            np.random.default_rng(val_seed),
            interacted=all_interacted,
        )
        record = EpochRecord(
            epoch=epoch,
            data_loss=sums[0] / n_batches,
            pos_entropy=sums[1] / n_batches,
            neg_entropy=sums[2] / n_batches,
            total_loss=sums[3] / n_batches,
            val_hr=report.hr_at_k,
            val_ndcg=report.ndcg_at_k,
        )
        history.append(record)
        if log is not None:
            log(record)

        if record.val_hr > best_hr or record.val_ndcg > best_ndcg:
            best_hr = max(best_hr, record.val_hr)
            best_ndcg = max(best_ndcg, record.val_ndcg)
            best = model.copy()
            stale = 0
        else:
            stale += 1
        if stale >= cfg.patience:
            break

    return best, history

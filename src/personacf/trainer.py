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

from .corpus import CorpusError, Interactions, SamplingTable, Split, build_sampling_table
from .fields import check_fields
from .model import PersonaModel, model_scorer, softmax
from .ranking import RankingProtocol, evaluate

ENTROPY_CLAMP = 1e-12  # floor inside log only; weights themselves untouched
# Adam updates about this many values of a block at a time, so the six
# arrays it passes over stay in a 2 MB L2 cache between its 14 calls:
# traced train-ml Adam 3.4-4.0 -> 2.5-2.6 s per epoch on a 2-vCPU Xeon
ADAM_CHUNK = 32_768
SCATTER_BLOCK = 256  # index rows whose flat indices a gradient scatter makes at once


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class LossConfig:
    alpha: float = field(default=0.5, metadata={"min": 0, "max": 1})
    lambda_pos: float = field(default=1.0, metadata={"min": 0})
    lambda_neg: float = field(default=1.0, metadata={"min": 0})
    negatives_per_positive: int = field(default=4, metadata={"min": 1})
    learning_rate: float = field(default=0.001, metadata={"above": 0})
    batch_size: int = field(default=256, metadata={"min": 1})
    adam_beta1: float = field(default=0.9, metadata={"min": 0, "below": 1})
    adam_beta2: float = field(default=0.999, metadata={"min": 0, "below": 1})
    adam_eps: float = field(default=1e-8, metadata={"above": 0})
    patience: int = field(default=5, metadata={"min": 0})
    max_epochs: int = field(default=200, metadata={"min": 1})
    __post_init__ = check_fields


@dataclass
class LossBreakdown:
    data_loss: float
    pos_entropy: float
    neg_entropy: float
    entropy_loss: float
    total: float


@dataclass
class EpochRecord:
    epoch: int
    data_loss: float
    pos_entropy: float
    neg_entropy: float
    total_loss: float
    val_hr: float
    val_ndcg: float


def _row_gradients(model: PersonaModel) -> dict[str, np.ndarray]:
    """Zeroed gradient buffers for the row-indexed parameter blocks, in C
    order, as ``_scatter_rows`` needs."""
    return {
        "personas": np.zeros(model.personas.shape, model.personas.dtype),
        "item_vectors": np.zeros(model.item_vectors.shape, model.item_vectors.dtype),
        "item_bias": np.zeros(model.item_bias.shape, model.item_bias.dtype),
    }


def _zero_touched_rows(
    row_grads: dict[str, np.ndarray], users: np.ndarray, items: np.ndarray
) -> None:
    """Re-zero the rows a batch scattered into, readying the buffers for
    the next batch without refilling them whole."""
    touched = items.ravel()
    row_grads["personas"][users] = 0.0
    row_grads["item_vectors"][touched] = 0.0
    row_grads["item_bias"][touched] = 0.0


def _scatter_rows(out: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(out, rows, values)`` for whole rows of a C-ordered
    ``out``, through the faster 1-D path of ``np.add.at``: the same
    additions in the same order. The flat indices are made SCATTER_BLOCK
    rows at a time, to bound their memory."""
    width = out[0].size
    flat_out, columns = out.reshape(-1), np.arange(width)
    values = values.reshape(len(rows), width)
    for lo in range(0, len(rows), SCATTER_BLOCK):
        flat = (rows[lo : lo + SCATTER_BLOCK, None] * width + columns).ravel()
        np.add.at(flat_out, flat, values[lo : lo + SCATTER_BLOCK].ravel())


def _forward_backward(
    model: PersonaModel,
    users: np.ndarray,
    items: np.ndarray,
    cfg: LossConfig,
    scale: float,
    row_grads: dict[str, np.ndarray],
):
    """Loss and gradients for a batch.

    users: (B,) user indices; items: (B, C) candidate items, column 0 the
    positive. Returns (mean LossBreakdown, dense gradient dict scaled by
    ``scale``). The personas, item_vectors and item_bias gradients are
    scattered into ``row_grads`` (see ``_row_gradients``), which must be
    all zero on entry.
    """
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

    y_max = y.max(axis=1, keepdims=True)
    exp = np.exp(y - y_max)
    exp_sum = exp.sum(axis=1, keepdims=True)
    p = exp / exp_sum  # softmax over candidates
    data_loss = -y[:, 0] + y_max[:, 0] + np.log(exp_sum[:, 0])
    log_w = np.log(np.maximum(W, ENTROPY_CLAMP))  # (B, r, C), shared with the gradient
    ent = -W * log_w
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

    gU *= scale
    gV *= scale
    _scatter_rows(row_grads["personas"], users, gU)
    _scatter_rows(row_grads["item_vectors"], items.ravel(), gV)
    np.add.at(row_grads["item_bias"], items.ravel(), scale * gy.ravel())
    grads = {**row_grads, "attn_user_map": gAu, "attn_item_map": gAv}
    return breakdown, grads


class Adam:
    """Dense Adam over named parameter blocks: every row is updated every
    step, in place, through preallocated moment and scratch buffers.

    The update is, in this operation order (it fixes the checkpoint
    bytes, so c1 and c2 stay divisors, not reciprocal factors),
    m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
    param -= lr*(m/c1) / (sqrt(v/c2) + eps) with c = 1 - b**t.
    It is elementwise, so a block is updated about ADAM_CHUNK values
    (whole rows) at a time.
    """

    def __init__(self, blocks: dict[str, np.ndarray], cfg: LossConfig):
        self.lr = cfg.learning_rate
        self.b1, self.b2, self.eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
        self.m = {k: np.zeros_like(v) for k, v in blocks.items()}
        self.v = {k: np.zeros_like(v) for k, v in blocks.items()}
        self._scratch = {k: (np.empty_like(v), np.empty_like(v)) for k, v in blocks.items()}
        self.t = 0

    def step(self, blocks: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        c1, c2 = 1 - self.b1**self.t, 1 - self.b2**self.t
        for k, param in blocks.items():
            arrays = (param, grads[k], self.m[k], self.v[k], *self._scratch[k])
            rows = max(1, ADAM_CHUNK * len(param) // max(param.size, 1))
            for lo in range(0, len(param), rows):
                self._update(*(x[lo : lo + rows] for x in arrays), c1, c2)

    def _update(self, param, g, m, v, a, b, c1, c2) -> None:
        np.multiply(m, self.b1, out=m)
        np.multiply(g, 1 - self.b1, out=a)
        np.add(m, a, out=m)
        np.square(g, out=a)
        np.multiply(a, 1 - self.b2, out=a)
        np.multiply(v, self.b2, out=v)
        np.add(v, a, out=v)
        np.divide(m, c1, out=a)
        np.multiply(a, self.lr, out=a)
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        np.add(b, self.eps, out=b)
        np.divide(a, b, out=a)
        np.subtract(param, a, out=param)


def _check_negatives_drawable(train: Interactions, probabilities: np.ndarray) -> None:
    """Refuse a corpus where some user's training items cover every item
    the table can draw: redrawing their negatives would never stop."""
    drawable = np.count_nonzero(probabilities)
    covered = np.bincount(train.event_users(), probabilities[train.indices] > 0, train.num_users)
    if (covered == drawable).any():
        user = int(np.argmax(covered == drawable))
        name = train.user_ids[user] if train.user_ids else user
        raise CorpusError(
            f"user {name!r}: training items cover every sampleable item, "
            "so no negative can be drawn"
        )


def _draw_batch_negatives(
    users: np.ndarray,
    table: SamplingTable,
    train_sets: list[set[int]],
    train_keys: np.ndarray,
    n_neg: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(B, n_neg) negatives, redrawing each draw that hits the user's
    training items. Exclusion covers training positives only, not held-out
    items. ``train_keys`` is every training pair's ``u * num_items + j``,
    sorted, and ``train_sets`` the per-user item sets.

    The draws are those of a loop over the slots in row-major order that
    redraws one item at a time until the slot's user has not trained on
    it, and the generator ends in the state that loop leaves: every slot
    is tested at once, the redraws are read off one bulk draw from a saved
    state, and the generator then takes exactly as many draws as were used.
    """
    negs = table.draw(rng, (len(users), n_neg))
    keys = users[:, None] * len(table.probabilities) + negs
    found = np.minimum(np.searchsorted(train_keys, keys), len(train_keys) - 1)
    rejected = np.flatnonzero(train_keys[found] == keys)
    if not len(rejected):
        return negs
    state = rng.bit_generator.state
    pool = table.draw(rng, 4 * len(rejected) + 64).tolist()
    used = 0
    flat = negs.reshape(-1)
    for slot in rejected.tolist():
        forbidden = train_sets[users[slot // n_neg]]
        while True:
            if used == len(pool):  # more redraws than the pool: continue the stream
                pool += table.draw(rng, len(pool)).tolist()
            item = pool[used]
            used += 1
            if item not in forbidden:
                break
        flat[slot] = item
    rng.bit_generator.state = state
    rng.random(used)
    return negs


def train(
    split: Split,
    model: PersonaModel,
    cfg: LossConfig,
    rng: np.random.Generator,
    protocol: RankingProtocol | None = None,
    log=None,
) -> tuple[PersonaModel, list[EpochRecord]]:
    """Optimize ``model`` in place; returns the best-validation-epoch copy
    and the per-epoch history.

    Negatives are redrawn every epoch. After each epoch HR@10/NDCG@10 are
    computed on the validation items; training stops once neither has
    improved for ``cfg.patience`` epochs (patience 0 -> exactly one epoch).
    Validation candidates exclude everything the user consumed in
    ``split.full``.
    """
    protocol = protocol or RankingProtocol()
    table = build_sampling_table(split.train)
    _check_negatives_drawable(split.train, table.probabilities)
    # sets, not a dense mask: train-dense pass_s 4.62 -> 5.60 s (seed 1, 6 alternating 10 s pairs)
    train_sets = [set(row.tolist()) for row in split.train.per_user_items]
    # training event e is item indices[e] of the user u with indptr[u] <= e < indptr[u + 1]
    indptr, events = split.train.indptr, split.train.indices
    train_keys = np.sort(split.train.event_users() * split.train.num_items + events)

    # one fixed candidate set per validation user keeps the early-stopping
    # signal comparable across epochs
    val_seed = int(rng.integers(2**63))
    opt = Adam(model.parameter_blocks(), cfg)
    row_grads = _row_gradients(model)  # reused: re-zeroed on touched rows after each step
    history: list[EpochRecord] = []
    best = model.copy()
    best_hr, best_ndcg = -1.0, -1.0
    stale = 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(events))
        sums = np.zeros(4)
        n_batches = 0
        for start in range(0, len(events), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            users = np.searchsorted(indptr, batch, side="right") - 1
            pos = events[batch]
            negs = _draw_batch_negatives(
                users, table, train_sets, train_keys, cfg.negatives_per_positive, rng
            )
            items = np.concatenate([pos[:, None], negs], axis=1)
            try:
                loss, grads = _forward_backward(
                    model, users, items, cfg, scale=1.0 / len(batch), row_grads=row_grads
                )
            except TrainingDiverged:
                raise TrainingDiverged(
                    f"non-finite loss in epoch {epoch}, batch {n_batches}"
                ) from None
            opt.step(model.parameter_blocks(), grads)
            _zero_touched_rows(row_grads, users, items)
            sums += (loss.data_loss, loss.pos_entropy, loss.neg_entropy, loss.total)
            n_batches += 1

        report = evaluate(
            model_scorer(model),
            split.validation,
            split.full,
            protocol,
            np.random.default_rng(val_seed),
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

"""Learnable parameters and the item-conditioned attentive forward pass.

A user is a small stack of persona vectors. For a candidate item, persona
and item vectors are mapped into a shared attention space, dot-product
affinities are softmaxed into weights, and the weighted persona mix is
scored against the item vector plus an item bias.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np


class CheckpointError(ValueError):
    """Raised when a checkpoint's blocks do not match its stored config."""


@dataclass(frozen=True)
class ModelConfig:
    num_users: int
    num_items: int
    embedding_dim: int = 64
    attention_dim: int = 64
    personas: int = 2
    seed: int = 0

    def __post_init__(self):
        if min(self.embedding_dim, self.attention_dim, self.personas) < 1:
            raise ValueError("embedding_dim, attention_dim and personas must be >= 1")
        if min(self.num_users, self.num_items) < 1:
            raise ValueError("num_users and num_items must be >= 1")


@dataclass
class PersonaModel:
    """All learnable parameter blocks.

    personas:       (num_users, r, d)   per-user persona rows
    item_vectors:   (num_items, d)
    attn_user_map:  (d, d_a)            persona -> attention space
    attn_item_map:  (d_a, d)            item -> attention space
    item_bias:      (num_items,)
    """

    config: ModelConfig
    personas: np.ndarray
    item_vectors: np.ndarray
    attn_user_map: np.ndarray
    attn_item_map: np.ndarray
    item_bias: np.ndarray

    def parameter_blocks(self) -> dict[str, np.ndarray]:
        return {
            "personas": self.personas,
            "item_vectors": self.item_vectors,
            "attn_user_map": self.attn_user_map,
            "attn_item_map": self.attn_item_map,
            "item_bias": self.item_bias,
        }

    def copy(self) -> "PersonaModel":
        return PersonaModel(
            config=self.config,
            **{k: v.copy() for k, v in self.parameter_blocks().items()},
        )


@dataclass
class AttentionTrace:
    """One user's forward pass over an item array (m items)."""

    attn_logits: np.ndarray  # (r, m)
    attn_weights: np.ndarray  # (r, m), softmax over personas per item
    attentive_user: np.ndarray  # (m, d)
    scores: np.ndarray  # (m,)


def init_model(config: ModelConfig, rng: np.random.Generator) -> PersonaModel:
    """Embeddings ~ N(0, 0.01^2), attention maps ~ U(+-sqrt(6/(d+d_a))),
    biases zero. Deterministic per generator state."""
    d, da = config.embedding_dim, config.attention_dim
    limit = np.sqrt(6.0 / (d + da))
    return PersonaModel(
        config=config,
        personas=rng.normal(0.0, 0.01, size=(config.num_users, config.personas, d)),
        item_vectors=rng.normal(0.0, 0.01, size=(config.num_items, d)),
        attn_user_map=rng.uniform(-limit, limit, size=(d, da)),
        attn_item_map=rng.uniform(-limit, limit, size=(da, d)),
        item_bias=np.zeros(config.num_items),
    )


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def attend(model: PersonaModel, user: int, items) -> AttentionTrace:
    """The inference forward pass: one user over an array of items."""
    items = np.asarray(items, dtype=np.intp)
    personas = model.personas[user]  # (r, d)
    vectors = model.item_vectors[items]  # (m, d)
    psi = personas @ model.attn_user_map  # (r, d_a)
    phi = vectors @ model.attn_item_map.T  # (m, d_a)
    logits = psi @ phi.T  # (r, m)
    weights = softmax(logits, axis=0)  # (r, m)
    x = weights.T @ personas  # (m, d)
    scores = np.einsum("md,md->m", x, vectors) + model.item_bias[items]
    return AttentionTrace(logits, weights, x, scores)


def score_all_items(model: PersonaModel, user: int, candidates) -> np.ndarray:
    """Scores for one user over an array of candidate items."""
    return attend(model, user, candidates).scores


def model_scorer(model: PersonaModel):
    """Scorer callable (user, candidates) -> scores used by the evaluators."""

    def scorer(user: int, candidates: np.ndarray) -> np.ndarray:
        return score_all_items(model, user, candidates)

    return scorer


def save_checkpoint(
    path,
    model: PersonaModel,
    user_ids: list[str] | None = None,
    item_ids: list[str] | None = None,
    extra: dict | None = None,
) -> None:
    """Write a self-describing .npz with config, id maps and all blocks.
    Round-trip through load_checkpoint is bit-exact."""
    meta = {
        "config": asdict(model.config),
        "user_ids": user_ids,
        "item_ids": item_ids,
        "extra": extra or {},
    }
    np.savez(
        path,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        **model.parameter_blocks(),
    )


def load_checkpoint(path) -> tuple[PersonaModel, dict]:
    """Read a checkpoint, checking every block's shape and float dtype
    against the checkpoint's own config."""
    with np.load(path) as data:
        if "meta" not in data.files:
            raise CheckpointError(f"{path}: no meta record")
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        config = ModelConfig(**meta["config"])
        d, da = config.embedding_dim, config.attention_dim
        shapes = {
            "personas": (config.num_users, config.personas, d),
            "item_vectors": (config.num_items, d),
            "attn_user_map": (d, da),
            "attn_item_map": (da, d),
            "item_bias": (config.num_items,),
        }
        blocks = {}
        for name, shape in shapes.items():
            block = data[name] if name in data.files else None
            if block is None or block.shape != shape or block.dtype.kind != "f":
                found = "missing" if block is None else f"{block.dtype} {block.shape}"
                raise CheckpointError(
                    f"{path}: block {name!r} is {found}, config needs float {shape}"
                )
            blocks[name] = block
    return PersonaModel(config=config, **blocks), meta

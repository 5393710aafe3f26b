"""Learnable parameters and the item-conditioned attentive forward pass.

A user is a small stack of persona vectors. For a candidate item, persona
and item vectors are mapped into a shared attention space, dot-product
affinities are softmaxed into weights, and the weighted persona mix is
scored against the item vector plus an item bias.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from .fields import check_fields

CATALOGUE_MIN = 2048  # smallest pool a scorer serves from the whole catalogue


class CheckpointError(ValueError):
    """Raised for a checkpoint whose config or blocks do not validate."""


@dataclass(frozen=True)
class ModelConfig:
    num_users: int = field(metadata={"min": 1})
    num_items: int = field(metadata={"min": 1})
    embedding_dim: int = field(default=64, metadata={"min": 1})
    attention_dim: int = field(default=64, metadata={"min": 1})
    personas: int = field(default=2, metadata={"min": 1})
    seed: int = 0
    __post_init__ = check_fields


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


def item_projection(model: PersonaModel) -> np.ndarray:
    """phi_j = W_item v_j for every item, (num_items, d_a). It does not
    depend on the user, so a scorer builds it once and shares it."""
    return model.item_vectors @ model.attn_item_map.T


def attend(model: PersonaModel, user: int, items=None, projection=None) -> AttentionTrace:
    """The inference forward pass: one user over an array of items, or over
    the whole catalogue when ``items`` is None. ``projection`` is
    ``item_projection(model)``, built here when not given."""
    if projection is None:
        projection = item_projection(model)
    vectors, phi, bias = model.item_vectors, projection, model.item_bias
    if items is not None:
        items = np.asarray(items, dtype=np.intp)
        vectors, phi, bias = vectors[items], phi[items], bias[items]  # (m, d), (m, d_a), (m,)
    personas = model.personas[user]  # (r, d)
    psi = personas @ model.attn_user_map  # (r, d_a)
    logits = psi @ phi.T  # (r, m)
    weights = softmax(logits, axis=0)  # (r, m)
    x = weights.T @ personas  # (m, d)
    scores = np.einsum("md,md->m", x, vectors) + bias
    return AttentionTrace(logits, weights, x, scores)


def pool_scores(scores_over, num_items: int, candidates) -> np.ndarray:
    """A scorer's scores over an array of candidate items. ``scores_over(items)``
    scores an item array, or the whole catalogue when ``items`` is None.

    A large pool is read off one pass over the whole catalogue: same bytes,
    without copying several MB of rows per call. A small pool keeps the
    gathered path, because a product over a few hundred rows may round
    entries differently in the last bit than the catalogue's product; pools
    from about 700 items up measured equal, so the switch leaves ~3x margin.
    """
    candidates = np.asarray(candidates, dtype=np.intp)
    if len(candidates) >= max(CATALOGUE_MIN, num_items // 2):
        return scores_over(None)[candidates]
    return scores_over(candidates)


def score_all_items(model: PersonaModel, user: int, candidates, projection=None) -> np.ndarray:
    """Scores for one user over an array of candidate items (``pool_scores``)."""
    return pool_scores(lambda items: attend(model, user, items, projection).scores,
                       model.config.num_items, candidates)


def model_scorer(model: PersonaModel, projection=None):
    """Scorer callable (user, candidates) -> scores used by the evaluators.
    The item projection is built once per scorer unless one is given, so
    a scorer must not outlive a change to the model."""
    if projection is None:
        projection = item_projection(model)

    def scorer(user: int, candidates: np.ndarray) -> np.ndarray:
        return score_all_items(model, user, candidates, projection)

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


def read_npz(path, error: type[Exception]) -> dict[str, np.ndarray]:
    """Every array of an .npz file; an existing file that is not a readable
    .npz (empty, not a zip, a corrupt zip, a bare .npy) raises ``error``."""
    try:
        with np.load(path) as data:
            return {name: data[name] for name in data.files}
    except (EOFError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise error(f"{path} is not a readable .npz file: {exc}") from None


def load_checkpoint(path) -> tuple[PersonaModel, dict]:
    """Read a checkpoint, checking its stored config against the field
    contract and every block's shape, float dtype and finiteness against
    that config."""
    data = read_npz(path, CheckpointError)
    try:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        stored = meta["config"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: unreadable meta record ({exc!r})") from None
    try:
        config = ModelConfig(**stored)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: stored config: {exc}") from None
    d, da = config.embedding_dim, config.attention_dim
    shapes = {
        "personas": (config.num_users, config.personas, d),
        "item_vectors": (config.num_items, d),
        "attn_user_map": (d, da),
        "attn_item_map": (da, d),
        "item_bias": (config.num_items,),
    }
    for name, shape in shapes.items():
        block = data.get(name)
        if block is None or block.shape != shape or block.dtype.kind != "f":
            found = "missing" if block is None else f"{block.dtype} {block.shape}"
            raise CheckpointError(
                f"{path}: block {name!r} is {found}, config needs float {shape}"
            )
        if not np.isfinite(block).all():
            raise CheckpointError(f"{path}: block {name!r} holds a non-finite value")
    return PersonaModel(config=config, **{name: data[name] for name in shapes}), meta

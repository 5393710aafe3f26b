"""Learnable parameters and the item-conditioned attentive forward pass.

A user is a small stack of persona vectors. For a candidate item, persona
and item vectors are mapped into a shared attention space, dot-product
affinities are softmaxed into weights, and the weighted persona mix is
scored against the item vector plus an item bias.
"""

from __future__ import annotations

import json
import os
import threading
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from .fields import check_fields

CATALOGUE_MIN = 2048  # smallest pool a scorer serves from the whole catalogue
# Values a blocked loop (the persona mix, Adam, the gradient scatters,
# k-means++ seeding) handles at a time, so its operands stay in a 2 MB L2
# cache. Adam steps of 801k values (train-ml) with blocks of 8k/16k/32k/64k/128k
# values took 5.85/5.40/5.29/5.75/6.19 and 6.78/6.09/6.09/5.99/6.54 ms in two sweeps.
BLOCK_VALUES = 32_768
# Variables a BLAS library may take its thread count from in place of
# OMP_NUM_THREADS, which OpenBLAS, MKL and BLIS all fall back to.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def block_rows(row_values: int) -> int:
    """Rows of ``row_values`` values in one block; at least 2, since a
    1-row product takes another BLAS path than a row of a larger one."""
    return max(2, BLOCK_VALUES // max(row_values, 1))


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

    attn_weights: np.ndarray  # (r, m), softmax over personas per item
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
    ``item_projection(model)``, built here when not given.

    The logits and the softmax run over all m items at once. The persona
    mix ``weights.T @ personas`` and its row dot with the item vectors run
    ``block_rows(d)`` items at a time, so the (m, d) mix is never written
    out whole; each score is the same bytes as from one unblocked product."""
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
    m = len(vectors)
    scores = np.empty(m)
    # no block starts at m - 1: a 1-row tail joins the block before it
    bounds = [*range(0, max(m - 1, 1), block_rows(personas.shape[1])), m]
    for lo, hi in zip(bounds, bounds[1:]):
        x = weights[:, lo:hi].T @ personas  # (hi - lo, d)
        np.einsum("md,md->m", x, vectors[lo:hi], out=scores[lo:hi])
    scores += bias
    return AttentionTrace(weights, scores)


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


def blas_threads(environ) -> int:
    """The thread count every BLAS library takes from ``environ``:
    ``OMP_NUM_THREADS`` when it is a positive integer and each of
    ``BLAS_THREAD_VARS`` that is set holds the same value; else 0, unknown.
    A library reads these once, when numpy loads, so ``BLAS_THREADS`` keeps
    the count read when this module loads, after numpy."""
    count = environ.get("OMP_NUM_THREADS", "").strip()
    if not count.isdigit() or int(count) < 1:
        return 0
    if any(environ[var].strip() != count for var in BLAS_THREAD_VARS if var in environ):
        return 0
    return int(count)


BLAS_THREADS = blas_threads(os.environ)


def workers() -> int:
    """Threads that may score users at once: the CPUs this process may run
    on (``os.sched_getaffinity``, else ``os.cpu_count``) divided by
    ``BLAS_THREADS``, at most 4. With the BLAS count unknown, BLAS may
    already spread each product over every CPU, so 1."""
    if BLAS_THREADS < 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus // BLAS_THREADS))


def map_users(fn, users, rows: int) -> list:
    """``[fn(user) for user in users]``, in input order. ``fn`` is called
    on several threads at once when each call spans at least
    ``CATALOGUE_MIN`` rows (``rows``: the catalogue, for a user scored
    over it) and ``workers() > 1``: the calling thread and
    ``workers() - 1`` helpers take users in turn from a shared index. Every
    helper has joined before this returns or raises; the exception of the
    earliest failing user is raised, as from the loop. Below that size, or
    with one worker, the calling thread takes every user and no thread
    starts.

    Each user's result comes from its own calls alone, and a BLAS call
    gives the same bytes whichever thread makes it, so the results are the
    loop's bytes. ``fn`` must not mutate shared state."""
    users = list(users)
    count = min(workers(), len(users)) if rows >= CATALOGUE_MIN else 1
    results = [None] * len(users)
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    taken = 0

    def work():
        nonlocal taken
        while True:
            with lock:  # after a failure no user is taken; all earlier ones are
                if taken == len(users) or errors:
                    return
                i, taken = taken, taken + 1
            try:
                results[i] = fn(users[i])
            except BaseException as exc:  # raised on the calling thread below
                with lock:
                    errors[i] = exc

    helpers = []
    try:
        for _ in range(count - 1):
            helper = threading.Thread(target=work, name="personacf-user", daemon=True)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results


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


def load_checkpoint(path, corpus=None) -> tuple[PersonaModel, dict]:
    """Read a checkpoint, checking its stored config against the field
    contract and every block's shape, float dtype and finiteness against
    that config. Given ``corpus`` (an ``Interactions``), the stored user
    and item counts, and the stored ids unless they are null, must be the
    corpus's."""
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
    if corpus is not None:
        if (config.num_users, config.num_items) != (corpus.num_users, corpus.num_items):
            raise CheckpointError(
                f"checkpoint shape ({config.num_users} users, {config.num_items} items) does "
                f"not match the dataset ({corpus.num_users} users, {corpus.num_items} items)"
            )
        for kind in ("user", "item"):
            stored = meta.get(f"{kind}_ids")
            if stored is not None and stored != getattr(corpus, f"{kind}_ids"):
                raise CheckpointError(f"{path}: the stored {kind} ids are not the dataset's")
    return PersonaModel(config=config, **{name: data[name] for name in shapes}), meta

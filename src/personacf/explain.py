"""Persona-level explanation reports.

For one user: each persona's own top-n list (single-persona score
u_k . v_j + b_j over non-consumed items), the final attentive top-n list
with the persona that holds the largest attention weight per item, and
the user's training items labeled the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Interactions
from .model import PersonaModel, attend, model_scorer
from .ranking import top_k_recommendations, top_positions, unconsumed


@dataclass
class LabeledItem:
    item: int
    persona: int  # argmax attention weight, lowest index on ties
    weight: float  # the winning attention weight
    score: float | None = None


@dataclass
class ExplanationReport:
    user: int
    persona_lists: list[list[tuple[int, float]]]  # per persona: (item, score)
    final_list: list[LabeledItem]
    training_items: list[LabeledItem]


def _labeled(model: PersonaModel, user: int, items, scored: bool) -> list[LabeledItem]:
    """Label each item with its largest-attention persona, from one forward
    pass over ``items``."""
    trace = attend(model, user, items)
    labels = trace.attn_weights.argmax(axis=0)  # argmax takes the lowest index on ties
    return [
        LabeledItem(
            item=int(j),
            persona=int(labels[i]),
            weight=float(trace.attn_weights[labels[i], i]),
            score=float(trace.scores[i]) if scored else None,
        )
        for i, j in enumerate(items)
    ]


def explain_user(
    model: PersonaModel,
    user: int,
    data: Interactions,
    n: int,
) -> ExplanationReport:
    """``data`` is the training interactions; n is the list length."""
    if n < 1:
        raise ValueError("n must be >= 1")
    candidates = unconsumed(data.num_items, data.per_user_items[user])
    per_persona = (
        model.personas[user] @ model.item_vectors[candidates].T + model.item_bias[candidates]
    )
    persona_lists = [
        [(int(candidates[i]), float(row[i])) for i in top_positions(row, candidates, n)]
        for row in per_persona
    ]
    final_items, _ = top_k_recommendations(model_scorer(model), user, data, n)
    return ExplanationReport(
        user=user,
        persona_lists=persona_lists,
        final_list=_labeled(model, user, final_items, scored=True),
        training_items=_labeled(model, user, data.per_user_items[user], scored=False),
    )


def render_markdown(
    report: ExplanationReport,
    item_ids: list[str] | None = None,
    titles: dict[str, str] | None = None,
) -> str:
    """Human-readable markdown; item titles resolved when provided."""

    def name(j: int) -> str:
        ext = item_ids[j] if item_ids else str(j)
        if titles and ext in titles:
            return titles[ext]
        return ext

    lines = [f"# Recommendations for user {report.user}", ""]
    for k, plist in enumerate(report.persona_lists):
        lines.append(f"## Persona {k}")
        lines.append("")
        lines.append("| rank | item | score |")
        lines.append("|---:|---|---:|")
        for rank, (j, score) in enumerate(plist, start=1):
            lines.append(f"| {rank} | {name(j)} | {score:.4f} |")
        lines.append("")
    lines.append("## Final list")
    lines.append("")
    lines.append("| rank | item | score | persona | attention |")
    lines.append("|---:|---|---:|---:|---:|")
    for rank, li in enumerate(report.final_list, start=1):
        lines.append(
            f"| {rank} | {name(li.item)} | {li.score:.4f} | {li.persona} | {li.weight:.3f} |"
        )
    lines.append("")
    lines.append("## Training items")
    lines.append("")
    lines.append("| item | persona | attention |")
    lines.append("|---|---:|---:|")
    for li in report.training_items:
        lines.append(f"| {name(li.item)} | {li.persona} | {li.weight:.3f} |")
    lines.append("")
    return "\n".join(lines)

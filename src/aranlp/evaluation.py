"""Shared metric utilities: weighted micro averages and the evaluation
report that ner.span_report and wsd.accuracy_report build."""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import EmptyInput, InvalidWeightedScore


def micro_average(scores: Sequence[tuple[float, float]]) -> float:
    """Weighted mean of (score, weight) pairs.  Scores must be finite and
    weights positive and finite; the first pair that is not raises
    InvalidWeightedScore, naming the pair by its 1-based position."""
    if not scores:
        raise EmptyInput("micro_average needs at least one (score, weight) pair")
    for number, (score, weight) in enumerate(scores, start=1):
        if not (math.isfinite(score) and math.isfinite(weight) and weight > 0):
            raise InvalidWeightedScore(
                f"pair {number}: scores must be finite and weights positive and finite, "
                f"got ({score}, {weight})"
            )
    total_weight = sum(weight for _, weight in scores)
    return sum(score * weight for score, weight in scores) / total_weight


def format_percent(value: float) -> str:
    return f"{value * 100:.2f}%"


@dataclass(frozen=True)
class CategoryResult:
    """One evaluation row: instance counts plus the category score."""

    name: str
    gold: int
    predicted: int
    correct: int
    score: float
    weight: float = 0.0


@dataclass(frozen=True)
class EvalReport:
    title: str
    score_label: str
    categories: tuple[CategoryResult, ...]
    overall: float | None = None

    def render_text(self) -> str:
        headers = ("category", "gold", "predicted", "correct", self.score_label)
        rows = [
            (c.name, str(c.gold), str(c.predicted), str(c.correct), format_percent(c.score))
            for c in self.categories
        ]
        if self.overall is not None:
            rows.append(("overall (micro average)", "", "", "", format_percent(self.overall)))
        widths = [max(map(len, column)) for column in zip(headers, *rows)]
        lines = (
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            for row in (headers, *rows)
        )
        return "\n".join([self.title, *lines])

    def render_records(self) -> str:
        records = [
            {
                "category": c.name,
                "gold": c.gold,
                "predicted": c.predicted,
                "correct": c.correct,
                "score": c.score,
                "weight": c.weight,
            }
            for c in self.categories
        ]
        if self.overall is not None:
            records.append({"category": "overall", "score": self.overall})
        return "\n".join(json.dumps(r, ensure_ascii=False) for r in records)

"""Shared metric utilities: weighted micro averages, the reader of the
score files they average, the evaluation report that ner.span_report
and wsd.accuracy_report build, and the output rules of every report and
score line: :func:`format_score` (four decimals), :func:`format_percent`
and :func:`json_line`, which encodes one record as one JSON line with
non-ASCII text as it is and a dataclass (a span, a solution, a verdict)
as its fields in declaration order, one level deep.

A score file (:func:`read_weighted_scores`, ``aranlp eval``'s input)
follows the resource file rules of ``_tsv``: one ``score<TAB>weight``
row per data line, comments and blank lines skipped.  A score is a
fraction in [0, 1] or, with a ``%`` suffix, a percent in [0%, 100%].
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from pathlib import Path

from . import _tsv
from .errors import EmptyInput, InvalidWeightedScore, MalformedRow


def _finite(value: float) -> bool:
    """math.isfinite, but False (not OverflowError) for an integer beyond
    the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _shown(value) -> str:
    """str(value), but an int past the interpreter's limit on decimal
    conversion is named by its digit count, e.g. <int of 5001 digits>."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, numbers.Rational) and value.denominator != 1:
            return f"{_shown(value.numerator)}/{_shown(value.denominator)}"
        magnitude = abs(int(value))
        # 2**(bits - 1) <= magnitude, so this starts at or below the count
        digits = max(1, int((magnitude.bit_length() - 1) * math.log10(2)))
        while 10**digits <= magnitude:
            digits += 1
        return f"{'-' if value < 0 else ''}<int of {digits} digits>"


def micro_average(scores: Sequence[tuple[float, float]]) -> float:
    """Weighted mean of (score, weight) pairs.  Scores must be finite and
    weights positive and finite; the first pair that is not raises
    InvalidWeightedScore, naming the pair by its 1-based position; an
    integer beyond the float range is not finite.  Finite pairs whose
    weights or weighted scores sum past the float range raise
    InvalidWeightedScore too."""
    if not scores:
        raise EmptyInput("micro_average needs at least one (score, weight) pair")
    for number, (score, weight) in enumerate(scores, start=1):
        if not (_finite(score) and _finite(weight) and weight > 0):
            raise InvalidWeightedScore(
                f"pair {number}: scores must be finite and weights positive and finite, "
                f"got ({_shown(score)}, {_shown(weight)})"
            )
    total_weight = sum(weight for _, weight in scores)
    weighted_sum = sum(score * weight for score, weight in scores)
    if not (_finite(total_weight) and _finite(weighted_sum)):
        raise InvalidWeightedScore(
            f"the weights sum to {total_weight} and the weighted scores to "
            f"{weighted_sum}; both sums must be finite"
        )
    return weighted_sum / total_weight


def read_weighted_scores(source: str | Path | Iterable[str]) -> list[tuple[float, float]]:
    """The (score, weight) pairs of a score file (a path or its lines),
    for micro_average.  A row that is not two numbers, or whose score
    lies outside its range, raises MalformedRow naming its physical
    line; a file with no rows raises EmptyInput.  A non-finite percent
    passes, for micro_average to name by its pair number."""
    pairs = []
    for lineno, (score_text, weight_text) in _tsv.rows(source, 2, "`score<TAB>weight`"):
        score_text = score_text.strip()
        percent = score_text.endswith("%")
        try:
            score = float(score_text[:-1]) / 100.0 if percent else float(score_text)
            weight = float(weight_text)
        except ValueError:
            raise MalformedRow(lineno, "score and weight must be numbers") from None
        if not percent and not 0.0 <= score <= 1.0:
            raise MalformedRow(lineno, "plain scores must lie in [0, 1]; use a % suffix otherwise")
        if percent and _finite(score) and not 0.0 <= score <= 1.0:
            raise MalformedRow(lineno, "percent scores must lie in [0%, 100%]")
        pairs.append((score, weight))
    if not pairs:
        raise EmptyInput("no (score, weight) rows given")
    return pairs


def format_percent(value: float) -> str:
    return f"{value * 100:.2f}%"


def format_score(value: float) -> str:
    return f"{value:.4f}"


def record_fields(value) -> dict:
    """A dataclass instance as its fields, as json_line encodes it."""
    return {f.name: getattr(value, f.name) for f in fields(value)}


def json_line(obj) -> str:
    """One output record as one JSON line; a dataclass becomes its fields."""
    return json.dumps(obj, ensure_ascii=False, default=record_fields)


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
        return "\n".join(map(json_line, records))

"""Per-type IOB label model, span decoding, nested/flat assembly, a
gazetteer baseline tagger, and span-level F1.

Each entity type owns an independent IOB row, so spans of different types
may overlap (nested output); project_flat reduces such output to a
non-overlapping span set with a documented greedy rule.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from importlib import resources
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple, Protocol

from .errors import MalformedRow, TaggerFailure, UnknownEntityType

B, I, O = "B", "I", "O"
IOB_LABELS = (B, I, O)

GAZETTEER_MAX_TOKENS = 5


def default_entity_types() -> tuple[str, ...]:
    """The packaged entity type pack (21 names; PERS/ORG/LOC/GPE required)."""
    text = resources.files("aranlp").joinpath("data/entity_types.txt").read_text("utf-8")
    return tuple(
        line.strip() for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )


@dataclass(frozen=True)
class EntityTypeSet:
    types: tuple[str, ...]

    def __post_init__(self):
        if not self.types:
            raise ValueError("entity type set must be non-empty")
        if len(set(self.types)) != len(self.types):
            raise ValueError("entity type names must be unique")

    @classmethod
    def default(cls) -> "EntityTypeSet":
        return cls(default_entity_types())

    def __contains__(self, name: str) -> bool:
        return name in self.types

    def __iter__(self):
        return iter(self.types)


@dataclass(frozen=True)
class EntitySpan:
    start: int
    end: int
    type: str

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"invalid span ({self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "EntitySpan") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class LabelMatrix:
    """One IOB row per entity type; every row spans all tokens."""

    tokens: tuple[str, ...]
    labels: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for type_name, row in self.labels.items():
            if len(row) != len(self.tokens):
                raise ValueError(
                    f"row for {type_name!r} has {len(row)} labels for {len(self.tokens)} tokens"
                )
            bad = set(row) - set(IOB_LABELS)
            if bad:
                raise ValueError(f"row for {type_name!r} has invalid labels {sorted(bad)}")

    @property
    def types(self) -> tuple[str, ...]:
        return tuple(self.labels)


def decode_iob(row: Sequence[str]) -> list[tuple[int, int]]:
    """Maximal B(I)* runs as (start, end) spans, sorted and non-overlapping.

    An I with no open span starts one (standard IOB2 repair), so decoding
    is total.
    """
    spans: list[tuple[int, int]] = []
    start: int | None = None
    for i, label in enumerate(row):
        if label == B:
            if start is not None:
                spans.append((start, i))
            start = i
        elif label == I:
            if start is None:
                start = i
        elif label == O:
            if start is not None:
                spans.append((start, i))
                start = None
        else:
            raise ValueError(f"invalid IOB label {label!r} at position {i}")
    if start is not None:
        spans.append((start, len(row)))
    return spans


def decode_matrix(matrix: LabelMatrix) -> list[EntitySpan]:
    """Decode every type row independently; spans of different types may
    overlap.  Output is grouped by type in row order, sorted by start
    within a type."""
    spans: list[EntitySpan] = []
    for type_name, row in matrix.labels.items():
        spans.extend(EntitySpan(s, e, type_name) for s, e in decode_iob(row))
    return spans


def project_flat(
    spans: Sequence[EntitySpan],
    type_order: Sequence[str] | None = None,
) -> list[EntitySpan]:
    """Greedy non-overlapping subset: longer spans first, then smaller
    start, then type order (defaults to first appearance in the input).

    The result is maximal: every dropped span overlaps a kept one.
    """
    if type_order is None:
        order: dict[str, int] = {}
        for span in spans:
            order.setdefault(span.type, len(order))
    else:
        order = {name: i for i, name in enumerate(type_order)}
    ranked = sorted(spans, key=lambda s: (-s.length, s.start, order[s.type]))
    selected: list[EntitySpan] = []
    claimed: set[int] = set()
    for span in ranked:
        tokens = range(span.start, span.end)
        if any(t in claimed for t in tokens):
            continue
        selected.append(span)
        claimed.update(tokens)
    selected.sort(key=lambda s: (s.start, s.end, order[s.type]))
    return selected


class Tagger(Protocol):
    """Anything that labels a token sequence with one IOB row per type."""

    def classify(self, tokens: Sequence[str]) -> LabelMatrix: ...


def run_tagger(tagger: Tagger, tokens: Sequence[str]) -> LabelMatrix:
    """Call a tagger and surface any misbehavior as TaggerFailure."""
    try:
        matrix = tagger.classify(tokens)
    except Exception as exc:
        raise TaggerFailure(f"tagger raised {exc!r}") from exc
    if not isinstance(matrix, LabelMatrix) or tuple(matrix.tokens) != tuple(tokens):
        raise TaggerFailure("tagger returned an invalid label matrix")
    return matrix


def _extend_ngram(ngram: str, token: str) -> str:
    return ngram + " " + token


class GazetteerTagger:
    """Deterministic baseline tagger: greedy longest-match left-to-right
    per entity type over surface n-grams of 1..5 tokens.

    ``classify`` makes one left-to-right pass.  At each start it joins the
    n-grams of 1..5 tokens incrementally, looks each one up once, and keeps
    the longest match of each type.  Each matched type's row is then
    filled greedily: the earliest start not covered by an earlier match
    claims its longest n-gram.  Types with no match share one all-O row.
    """

    def __init__(self, gazetteer: Mapping[str, str], types: EntityTypeSet | None = None):
        self.types = types if types is not None else EntityTypeSet.default()
        for ngram, type_name in gazetteer.items():
            width = len(ngram.split())
            if not 1 <= width <= GAZETTEER_MAX_TOKENS:
                raise ValueError(
                    f"gazetteer entry {ngram!r} has {width} tokens (expected 1..{GAZETTEER_MAX_TOKENS})"
                )
            if type_name not in self.types:
                raise UnknownEntityType(f"gazetteer entry {ngram!r} has unknown type {type_name!r}")
        self.gazetteer = dict(gazetteer)

    def classify(self, tokens: Sequence[str]) -> LabelMatrix:
        tokens = tuple(tokens)
        size = len(tokens)
        lookup = self.gazetteer.get
        # type -> {start: width of the longest n-gram of that type there},
        # with starts in increasing order.
        longest: dict[str, dict[int, int]] = {}
        for i in range(size):
            ngrams = accumulate(tokens[i:i + GAZETTEER_MAX_TOKENS], _extend_ngram)
            for width, ngram in enumerate(ngrams, start=1):
                type_name = lookup(ngram)
                if type_name is not None:
                    longest.setdefault(type_name, {})[i] = width
        all_o = (O,) * size
        labels: dict[str, tuple[str, ...]] = {}
        for type_name in self.types:
            matches = longest.get(type_name)
            if matches is None:
                labels[type_name] = all_o
                continue
            row = [O] * size
            free = 0
            for start, width in matches.items():
                if start >= free:
                    row[start] = B
                    row[start + 1:start + width] = [I] * (width - 1)
                    free = start + width
            labels[type_name] = tuple(row)
        return LabelMatrix(tokens, labels)


def tag_gazetteer(
    tokens: Sequence[str],
    gazetteer: Mapping[str, str],
    types: EntityTypeSet | None = None,
) -> LabelMatrix:
    return GazetteerTagger(gazetteer, types).classify(tokens)


def load_gazetteer(source: str | Path) -> dict[str, str]:
    """Gazetteer TSV: surface n-gram <TAB> type."""
    gazetteer: dict[str, str] = {}
    for lineno, raw in enumerate(Path(source).read_text("utf-8").splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise MalformedRow(lineno, f"expected 2 tab-separated fields, got {len(fields)}")
        ngram, type_name = fields[0].strip(), fields[1].strip()
        if not ngram or not type_name:
            raise MalformedRow(lineno, "both n-gram and type must be non-empty")
        if not 1 <= len(ngram.split()) <= GAZETTEER_MAX_TOKENS:
            raise MalformedRow(lineno, f"n-gram must have 1..{GAZETTEER_MAX_TOKENS} tokens")
        gazetteer[ngram] = type_name
    return gazetteer


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float


def span_f1(gold: Sequence[EntitySpan], pred: Sequence[EntitySpan]) -> PRF:
    """Exact-match (start, end, type) micro scores over span multisets.

    Both sides empty scores 1.0; exactly one side empty scores 0.0.
    """
    gold_counts = Counter((s.start, s.end, s.type) for s in gold)
    pred_counts = Counter((s.start, s.end, s.type) for s in pred)
    return prf_from_counts(
        gold_counts.total(), pred_counts.total(), (gold_counts & pred_counts).total()
    )


def prf_from_counts(n_gold: int, n_pred: int, correct: int) -> PRF:
    """Micro scores from span counts, with span_f1's rules for empty sides."""
    if n_gold == 0 and n_pred == 0:
        return PRF(1.0, 1.0, 1.0)
    precision = correct / n_pred if n_pred else 0.0
    recall = correct / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return PRF(precision, recall, f1)


def read_span_file(source: str | Path) -> list[list[EntitySpan]]:
    """Span file: one `start<TAB>end<TAB>type` per line; blank lines
    separate sentence blocks; a block holding the single line `-` is a
    sentence with no entities."""
    sentences: list[list[EntitySpan]] = []
    current: list[EntitySpan] = []
    saw_content = False
    for lineno, raw in enumerate(Path(source).read_text("utf-8").splitlines(), start=1):
        line = raw.rstrip("\n")
        if line.startswith("#"):
            continue
        if not line.strip():
            if saw_content:
                sentences.append(current)
                current = []
                saw_content = False
            continue
        if line.strip() == "-":
            saw_content = True
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedRow(lineno, f"expected 3 tab-separated fields, got {len(fields)}")
        try:
            start, end = int(fields[0]), int(fields[1])
        except ValueError:
            raise MalformedRow(lineno, "start and end must be integers") from None
        try:
            current.append(EntitySpan(start, end, fields[2].strip()))
        except ValueError as exc:
            raise MalformedRow(lineno, str(exc)) from None
        saw_content = True
    if saw_content:
        sentences.append(current)
    return sentences


def format_span_file(sentences: Sequence[Sequence[EntitySpan]]) -> str:
    """Inverse of read_span_file."""
    blocks = []
    for spans in sentences:
        if spans:
            blocks.append("\n".join(f"{s.start}\t{s.end}\t{s.type}" for s in spans))
        else:
            blocks.append("-")
    return "\n\n".join(blocks) + ("\n" if blocks else "")

"""Per-type IOB label model, span decoding, nested/flat assembly, a
gazetteer baseline tagger, and span-level F1.

Each entity type owns an independent IOB row, so spans of different types
may overlap (nested output); project_flat reduces such output to a
non-overlapping span set with a documented greedy rule.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple, Protocol

from . import _tsv
from ._record import record
from .errors import MalformedRow, MisalignedCorpus, TaggerFailure, UnknownEntityType
from .evaluation import CategoryResult, EvalReport, format_percent, json_line

B, I, O = "B", "I", "O"
IOB_LABELS = (B, I, O)
_IOB_LABEL_SET = frozenset(IOB_LABELS)

GAZETTEER_MAX_TOKENS = 5


def load_entity_types(source: str | Path | Iterable[str]) -> tuple[str, ...]:
    """A type-list file: one entity type name per line, stripped."""
    return tuple(name.strip() for _, (name,) in _tsv.rows(source, 1))


def default_entity_types() -> tuple[str, ...]:
    """The packaged entity type pack (21 names; PERS/ORG/LOC/GPE required)."""
    return load_entity_types(_tsv.packaged("entity_types.txt"))


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


@record
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
    """One IOB row per entity type; every row spans all tokens.  Types may
    share one row object (a tagger's all-O row); each distinct row object
    is checked once, and an invalid one is reported under its first
    type."""

    tokens: tuple[str, ...]
    labels: dict[str, tuple[str, ...]]

    def __post_init__(self):
        checked: set[int] = set()  # ids of row objects held by self.labels
        for type_name, row in self.labels.items():
            if id(row) in checked:
                continue
            checked.add(id(row))
            if len(row) != len(self.tokens):
                raise ValueError(
                    f"row for {type_name!r} has {len(row)} labels for {len(self.tokens)} tokens"
                )
            if not _IOB_LABEL_SET.issuperset(row):
                bad = set(row) - _IOB_LABEL_SET
                raise ValueError(f"row for {type_name!r} has invalid labels {sorted(bad)}")

    @property
    def types(self) -> tuple[str, ...]:
        return tuple(self.labels)

    def render_records(self) -> str:
        return json_line({"tokens": self.tokens, "spans": decode_matrix(self)})


def decode_iob(row: Sequence[str]) -> list[tuple[int, int]]:
    """Maximal B(I)* runs as (start, end) spans, sorted and non-overlapping.

    An I with no open span starts one (standard IOB2 repair), so decoding
    is total.
    """
    if row.count(O) == len(row):
        return []
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
    within a type.  A row object shared by several types is decoded once
    per call."""
    spans: list[EntitySpan] = []
    decoded: dict[int, list[tuple[int, int]]] = {}  # id(row) -> its runs
    for type_name, row in matrix.labels.items():
        runs = decoded.get(id(row))
        if runs is None:
            runs = decoded[id(row)] = decode_iob(row)
        for start, end in runs:
            spans.append(EntitySpan(start, end, type_name))
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
    try:
        ranked = sorted(spans, key=lambda s: (-s.length, s.start, order[s.type]))
    except KeyError as exc:
        raise UnknownEntityType(f"span type {exc.args[0]!r} is not in the type order") from None
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


def _head_widths(keys: Iterable[str], max_tokens: int) -> dict[str, int]:
    """Each key's head (its text before the first space) -> the most
    tokens, at most max_tokens, that a key with that head can span.

    A key equals the space-joined n-gram at a start only if it has the
    same head as that start's token and at least n - 1 spaces, so a scan
    may skip a start whose head is absent and join at most this many
    tokens there.  This holds for any strings: empty tokens, tokens that
    hold a space, and keys with a leading or doubled space.
    """
    widths: dict[str, int] = {}
    for key in keys:
        head = key.partition(" ")[0]
        width = min(key.count(" ") + 1, max_tokens)
        if widths.get(head, 0) < width:
            widths[head] = width
    return widths


class GazetteerTagger:
    """Deterministic baseline tagger: greedy longest-match left-to-right
    per entity type over surface n-grams of 1..5 tokens.

    ``classify`` makes one left-to-right pass.  At each start it joins the
    n-grams incrementally, up to the widest entry with that start's head
    (none if there is no such entry), looks each one up once, and keeps
    the longest match of each type.  Each matched type's row is then
    filled greedily: the earliest start not covered by an earlier match
    claims its longest n-gram.  Types with no match share one all-O row.
    The tagger indexes its copy of the gazetteer at construction, so that
    copy (``self.gazetteer``) must not be mutated afterwards.
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
        self._widths = _head_widths(self.gazetteer, GAZETTEER_MAX_TOKENS)

    def classify(self, tokens: Sequence[str]) -> LabelMatrix:
        tokens = tuple(tokens)
        size = len(tokens)
        lookup = self.gazetteer.get
        widths = self._widths.get
        # type -> {start: width of the longest n-gram of that type there},
        # with starts in increasing order.
        longest: dict[str, dict[int, int]] = {}
        for i, token in enumerate(tokens):
            most = widths(token.partition(" ")[0])
            if most is None:
                continue
            ngrams = accumulate(tokens[i:i + most], _extend_ngram)
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


def load_gazetteer(source: str | Path | Iterable[str]) -> dict[str, str]:
    """Gazetteer TSV (a path or its lines): surface n-gram <TAB> type.  The
    n-gram is stored as its whitespace-split tokens joined by one space,
    the form the tagger joins sentence tokens into, so "a  b" is keyed
    "a b".  A second row for one n-gram raises MalformedRow, whatever its
    type.  Equal type names come back as one shared string for the
    duration of one load."""
    gazetteer: dict[str, str] = {}
    type_names: dict[str, str] = {}
    for lineno, fields in _tsv.rows(source, 2):
        parts, type_name = fields[0].split(), fields[1].strip()
        if not parts or not type_name:
            raise MalformedRow(lineno, "both n-gram and type must be non-empty")
        if len(parts) > GAZETTEER_MAX_TOKENS:
            raise MalformedRow(lineno, f"n-gram must have 1..{GAZETTEER_MAX_TOKENS} tokens")
        key = " ".join(parts)
        if key in gazetteer:
            raise MalformedRow(lineno, f"repeated n-gram {key!r}, first typed {gazetteer[key]!r}")
        gazetteer[key] = type_names.setdefault(type_name, type_name)
    return gazetteer


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float

    def render_text(self) -> str:
        """`ner eval`'s score line: `precision 87.50%  recall 63.64%  f1 73.68%`."""
        return "  ".join(f"{name} {format_percent(v)}" for name, v in self._asdict().items())


def span_counts(
    gold: Sequence[Sequence[EntitySpan]],
    pred: Sequence[Sequence[EntitySpan]],
    mode: str = "nested",
) -> dict[str, tuple[int, int, int]]:
    """Per-type (gold, predicted, correct) span counts over aligned
    corpora, keyed in type-name order.  Within a sentence, spans match
    exactly on (start, end, type) as multisets.  Mode "flat" first applies
    project_flat, ranking types by first appearance in gold, then pred."""
    if mode not in ("nested", "flat"):
        raise ValueError(f"mode must be 'nested' or 'flat', got {mode!r}")
    if len(gold) != len(pred):
        raise MisalignedCorpus(
            f"gold has {len(gold)} sentence blocks, predictions have {len(pred)}"
        )
    if mode == "flat":
        order = list(dict.fromkeys(s.type for sentence in (*gold, *pred) for s in sentence))
        gold = [project_flat(sentence, order) for sentence in gold]
        pred = [project_flat(sentence, order) for sentence in pred]
    counts: dict[str, list[int]] = {}
    for gold_spans, pred_spans in zip(gold, pred):
        g = Counter((s.start, s.end, s.type) for s in gold_spans)
        p = Counter((s.start, s.end, s.type) for s in pred_spans)
        for column, matched in enumerate((g, p, g & p)):
            for (_, _, type_name), n in matched.items():
                counts.setdefault(type_name, [0, 0, 0])[column] += n
    return {type_name: tuple(counts[type_name]) for type_name in sorted(counts)}


def _overall(counts: dict[str, tuple[int, int, int]]) -> PRF:
    return prf_from_counts(*map(sum, zip((0, 0, 0), *counts.values())))


def span_f1(gold: Sequence[EntitySpan], pred: Sequence[EntitySpan]) -> PRF:
    """Exact-match (start, end, type) micro scores over span multisets:
    span_counts of a one-sentence corpus.  Both sides empty scores 1.0;
    exactly one side empty scores 0.0."""
    return _overall(span_counts([gold], [pred]))


def span_report(
    gold: Sequence[Sequence[EntitySpan]],
    pred: Sequence[Sequence[EntitySpan]],
    mode: str = "nested",
) -> tuple[EvalReport, PRF]:
    """`ner eval`'s result: the per-type F1 table with the overall micro
    F1, and the overall micro scores, both from span_counts."""
    counts = span_counts(gold, pred, mode)
    categories = tuple(
        CategoryResult(type_name, g, p, c, prf_from_counts(g, p, c).f1)
        for type_name, (g, p, c) in counts.items()
    )
    overall = _overall(counts)
    title = f"span evaluation ({mode}, exact match)"
    return EvalReport(title, "F1", categories, overall.f1), overall


def prf_from_counts(n_gold: int, n_pred: int, correct: int) -> PRF:
    """Micro scores from span counts, with span_f1's rules for empty sides."""
    if n_gold == 0 and n_pred == 0:
        return PRF(1.0, 1.0, 1.0)
    precision = correct / n_pred if n_pred else 0.0
    recall = correct / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return PRF(precision, recall, f1)


def read_span_file(source: str | Path | Iterable[str]) -> list[list[EntitySpan]]:
    """Span file (a path or its lines): one block per sentence, one
    `start<TAB>end<TAB>type` line per span; a sentence with no entities is
    the block file's empty record (the lone line `-`)."""
    return [
        [_tsv.span_row(lineno, line, 3, EntitySpan) for lineno, line in block]
        for block in _tsv.blocks(source)
    ]


def format_span_file(sentences: Sequence[Sequence[EntitySpan]]) -> str:
    """Inverse of read_span_file."""
    return _tsv.format_blocks(
        "\n".join(f"{s.start}\t{s.end}\t{s.type}" for s in spans) for spans in sentences
    )


def read_matrix_file(source: str | Path | Iterable[str]) -> list[LabelMatrix]:
    """Label-matrix file: per sentence a block of the token line, then one
    `TYPE<TAB>label label ...` line per type; a sentence with no tokens is
    the block file's empty record.  A second row for a type is reported at
    its line, any other invalid matrix at its token line."""
    matrices = []
    for block in _tsv.blocks(source):
        # an empty record is a token line without tokens
        (lineno, tokens), *row_lines = block or [(0, "")]
        rows: dict[str, tuple[str, ...]] = {}
        for row_lineno, line in row_lines:
            type_name, labels = _tsv.fields(row_lineno, line, 2, "`TYPE<TAB>label label ...`")
            type_name = type_name.strip()
            if type_name in rows:
                raise MalformedRow(row_lineno, f"a second row for type {type_name!r}")
            rows[type_name] = tuple(labels.split())
        try:
            matrices.append(LabelMatrix(tuple(tokens.split()), rows))
        except ValueError as exc:
            raise MalformedRow(lineno, str(exc)) from None
    return matrices


def format_matrix_file(matrices: Sequence[LabelMatrix]) -> str:
    """Inverse of read_matrix_file; a matrix with no tokens is written as
    an empty record, whatever its type rows."""
    return _tsv.format_blocks(
        "\n".join([" ".join(m.tokens), *(f"{t}\t{' '.join(row)}" for t, row in m.labels.items())])
        if m.tokens else ""
        for m in matrices
    )

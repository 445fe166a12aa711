"""End-to-end semantic analysis: n-gram generation, lemmatization,
multi-word sense lookup, entity masking, single-word sense lookup, and
verification-based sense selection.

Pipeline order per sentence:

1. generate candidate n-grams (2 <= n <= 5) over the whitespace tokens;
2. lemmatize every token with the morphology dictionary;
3. accept multi-word spans whose lemma string keys the multi-word
   inventory, scanning n = 5 down to 2, left to right within an n;
   accepted spans consume their tokens;
4. tag entities on the full sentence, flatten overlaps, and crop entity
   spans to tokens not already consumed;
5. look up remaining tokens as single words in the single-word inventory;
6. score every (context, gloss) pair with the verifier and keep the gloss
   with the highest positive probability (ties: smallest gloss_id).

Tokens with no glosses and no entity tag are omitted from the output.
"""

from __future__ import annotations

import unicodedata
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from . import _tsv
from .errors import (
    EmptyCandidates,
    MalformedRow,
    MisalignedCorpus,
    VerifierFailure,
)
from .evaluation import CategoryResult, EvalReport, micro_average
from .morphology import MorphDictionary, analyze
from .ner import EntitySpan, Tagger, decode_matrix, project_flat, run_tagger

KIND_ENTITY = "entity"
KIND_MULTIWORD = "multiword"
KIND_SINGLEWORD = "singleword"
KINDS = (KIND_ENTITY, KIND_MULTIWORD, KIND_SINGLEWORD)

MAX_NGRAM = 5
PROBABILITY_TOLERANCE = 1e-9

# Most tokens an OverlapVerifier's token -> lemma memo holds before it is
# cleared.
_LEMMA_MEMO_LIMIT = 65_536

# Alternatives separator in gold sense payloads ("id1|id2" means either is
# correct).
ALTERNATIVES_SEP = "|"


@dataclass(frozen=True)
class Gloss:
    gloss_id: str
    text: str


@dataclass(frozen=True)
class SenseInventory:
    """Glosses for lemmatized multi-word expressions (2..5 tokens) and for
    single-word lemmas."""

    multiword: dict[str, tuple[Gloss, ...]]
    singleword: dict[str, tuple[Gloss, ...]]

    @property
    def size(self) -> int:
        return len(self.multiword) + len(self.singleword)


def load_inventory(source: str | Path) -> SenseInventory:
    """Inventory TSV: kind{MW|SW} <TAB> lemma-ngram <TAB> gloss_id <TAB> gloss text."""
    multiword: dict[str, list[Gloss]] = {}
    singleword: dict[str, list[Gloss]] = {}
    for lineno, (kind, key, gloss_id, text) in _tsv.rows(source, 4):
        key = unicodedata.normalize("NFC", key.strip())
        gloss_id = gloss_id.strip()
        if not key or not gloss_id:
            raise MalformedRow(lineno, "lemma n-gram and gloss_id must be non-empty")
        if kind == "MW":
            width = len(key.split())
            if not 2 <= width <= MAX_NGRAM:
                raise MalformedRow(lineno, f"MW key must have 2..{MAX_NGRAM} tokens, got {width}")
            bucket = multiword.setdefault(key, [])
        elif kind == "SW":
            if len(key.split()) != 1:
                raise MalformedRow(lineno, "SW key must be a single lemma")
            bucket = singleword.setdefault(key, [])
        else:
            raise MalformedRow(lineno, f"kind must be MW or SW, got {kind!r}")
        if any(g.gloss_id == gloss_id for g in bucket):
            raise MalformedRow(lineno, f"duplicate gloss_id {gloss_id!r} for {key!r}")
        bucket.append(Gloss(gloss_id, text))
    return SenseInventory(
        {k: tuple(v) for k, v in multiword.items()},
        {k: tuple(v) for k, v in singleword.items()},
    )


@dataclass(frozen=True)
class NgramSpan:
    start: int
    end: int
    lemmas: tuple[str, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_NGRAM:
            raise ValueError(f"n must be 1..{MAX_NGRAM}, got {self.n}")
        if len(self.lemmas) != self.n:
            raise ValueError("lemmas length must equal the span width")

    @property
    def n(self) -> int:
        return self.end - self.start

    @property
    def key(self) -> str:
        return " ".join(self.lemmas)

    def overlaps_tokens(self, claimed: set[int]) -> bool:
        return any(t in claimed for t in range(self.start, self.end))


def _lemma(token: str, dictionary: MorphDictionary) -> str:
    """The lemma of the token's default solution, else its surface form."""
    tagged = analyze(token, dictionary)
    return tagged.solution.lemma if tagged.solution else token


def lemmatize_tokens(tokens: Sequence[str], dictionary: MorphDictionary) -> list[str]:
    """One lemma per token via dictionary lookup; out-of-vocabulary tokens
    keep their surface form."""
    return [_lemma(token, dictionary) for token in tokens]


def generate_ngrams(
    tokens: Sequence[str],
    lemmas: Sequence[str] | None = None,
) -> list[NgramSpan]:
    """All contiguous spans with 2 <= n <= min(5, token count), widest
    first, left to right within each width (the multi-word scan order)."""
    material = tuple(lemmas) if lemmas is not None else tuple(tokens)
    if lemmas is not None and len(material) != len(tokens):
        raise ValueError("lemmas must align one-to-one with tokens")
    count = len(tokens)
    spans = []
    for n in range(min(MAX_NGRAM, count), 1, -1):
        for start in range(count - n + 1):
            spans.append(NgramSpan(start, start + n, material[start:start + n]))
    return spans


def lookup_multiword(
    spans: Sequence[NgramSpan],
    inventory: SenseInventory,
) -> list[tuple[NgramSpan, tuple[Gloss, ...]]]:
    """Accept spans whose lemma string keys the multi-word inventory,
    widest n first, left to right; accepted spans consume their tokens so
    overlapping narrower spans are skipped."""
    accepted: list[tuple[NgramSpan, tuple[Gloss, ...]]] = []
    claimed: set[int] = set()
    for span in sorted(spans, key=lambda s: (-s.n, s.start)):
        if span.n < 2:
            continue
        glosses = inventory.multiword.get(span.key)
        if glosses is None or span.overlaps_tokens(claimed):
            continue
        accepted.append((span, glosses))
        claimed.update(range(span.start, span.end))
    accepted.sort(key=lambda item: item[0].start)
    return accepted


@dataclass(frozen=True)
class VerificationPair:
    """A (context, gloss) pair with complementary true/false probabilities."""

    context: str
    gloss: Gloss
    positive: float
    negative: float

    def __post_init__(self):
        if not (0.0 <= self.positive <= 1.0 and 0.0 <= self.negative <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(self.positive + self.negative - 1.0) > PROBABILITY_TOLERANCE:
            raise ValueError("positive + negative must sum to 1")


class Verifier(Protocol):
    """Scores how likely a gloss is the sense used in a context."""

    def score(self, context: str, gloss: Gloss) -> float: ...


def verify(context: str, gloss: Gloss, verifier: Verifier) -> VerificationPair:
    """Run one verification; any misbehavior surfaces as VerifierFailure."""
    try:
        positive = float(verifier.score(context, gloss))
    except Exception as exc:
        raise VerifierFailure(f"verifier raised {exc!r}") from exc
    if not 0.0 <= positive <= 1.0:
        raise VerifierFailure(f"verifier returned {positive}, outside [0, 1]")
    return VerificationPair(context, gloss, positive, 1.0 - positive)


def select_sense(pairs: Sequence[VerificationPair]) -> Gloss:
    """The gloss with the highest positive probability; ties go to the
    lexicographically smallest gloss_id."""
    if not pairs:
        raise EmptyCandidates("no verification pairs to select from")
    best = min(pairs, key=lambda p: (-p.positive, p.gloss.gloss_id))
    return best.gloss


class OverlapVerifier:
    """Deterministic gloss-context lemma overlap baseline.

    positive = eps + (1 - 2*eps) * |context lemmas ∩ gloss lemmas| /
    |gloss lemmas|, so a gloss sharing nothing with the context scores the
    smoothing floor eps and a fully covered gloss scores 1 - eps.

    Each instance memoizes token -> lemma, so a word repeated across
    glosses and sentences is analyzed once; the memo holds at most
    _LEMMA_MEMO_LIMIT (65,536) tokens and is cleared when full.  The
    lemma set of the last context is kept (one entry), because
    disambiguate scores all glosses of a sentence in a row.
    """

    def __init__(self, dictionary: MorphDictionary, eps: float = 0.01):
        self.dictionary = dictionary
        self.eps = eps
        self._lemma_memo: dict[str, str] = {}
        # (context, its lemma set); the empty context has no lemmas.
        self._last_context: tuple[str, set[str]] = ("", set())

    def _lemma_set(self, text: str) -> set[str]:
        memo = self._lemma_memo
        lemmas = set()
        for token in text.split():
            lemma = memo.get(token)
            if lemma is None:
                if len(memo) >= _LEMMA_MEMO_LIMIT:
                    memo.clear()
                lemma = memo[token] = _lemma(token, self.dictionary)
            lemmas.add(lemma)
        return lemmas

    def score(self, context: str, gloss: Gloss) -> float:
        if self._last_context[0] != context:
            self._last_context = (context, self._lemma_set(context))
        context_lemmas = self._last_context[1]
        gloss_lemmas = self._lemma_set(gloss.text)
        ratio = (
            len(context_lemmas & gloss_lemmas) / len(gloss_lemmas)
            if gloss_lemmas
            else 0.0
        )
        return self.eps + (1.0 - 2.0 * self.eps) * ratio


class OracleVerifier:
    """Scores 1.0 for glosses whose id is in the gold set, 0.0 otherwise."""

    def __init__(self, gold_gloss_ids):
        self.gold_gloss_ids = frozenset(gold_gloss_ids)

    def score(self, context: str, gloss: Gloss) -> float:
        return 1.0 if gloss.gloss_id in self.gold_gloss_ids else 0.0


@dataclass(frozen=True)
class AnnotatedSpan:
    """One output record: an entity span, a disambiguated multi-word
    expression, or a disambiguated single word."""

    start: int
    end: int
    kind: str
    payload: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 0 <= self.start < self.end:
            raise ValueError(f"invalid span ({self.start}, {self.end})")

    @property
    def token_count(self) -> int:
        return self.end - self.start


def _crop_to_unclaimed(spans: Sequence[EntitySpan], claimed: set[int]) -> list[EntitySpan]:
    """Trim entity spans to tokens not already consumed; a span split by a
    consumed token yields its maximal contiguous remainders."""
    cropped: list[EntitySpan] = []
    for span in spans:
        run_start: int | None = None
        for i in range(span.start, span.end + 1):
            if i < span.end and i not in claimed:
                if run_start is None:
                    run_start = i
            elif run_start is not None:
                cropped.append(EntitySpan(run_start, i, span.type))
                run_start = None
    return cropped


def disambiguate(
    sentence: str,
    inventory: SenseInventory,
    ner_tagger: Tagger,
    verifier: Verifier,
    dictionary: MorphDictionary,
) -> list[AnnotatedSpan]:
    """Run the full pipeline on one sentence; see the module docstring for
    the phase order.  Output spans are sorted by position; entity and
    multi-word spans never overlap, and single-word spans never fall
    inside them."""
    tokens = sentence.split()
    if not tokens:
        return []
    lemmas = lemmatize_tokens(tokens, dictionary)

    ngrams = generate_ngrams(tokens, lemmas)
    multiword_hits = lookup_multiword(ngrams, inventory)
    claimed: set[int] = set()
    for span, _ in multiword_hits:
        claimed.update(range(span.start, span.end))

    matrix = run_tagger(ner_tagger, tokens)
    entity_spans = _crop_to_unclaimed(
        project_flat(decode_matrix(matrix), matrix.types), claimed
    )
    for span in entity_spans:
        claimed.update(range(span.start, span.end))

    single_hits = [
        (i, inventory.singleword[lemmas[i]])
        for i in range(len(tokens))
        if i not in claimed and lemmas[i] in inventory.singleword
    ]

    annotations = [
        AnnotatedSpan(s.start, s.end, KIND_ENTITY, s.type) for s in entity_spans
    ]
    for span, glosses in multiword_hits:
        pairs = [verify(sentence, g, verifier) for g in glosses]
        annotations.append(
            AnnotatedSpan(span.start, span.end, KIND_MULTIWORD, select_sense(pairs).gloss_id)
        )
    for index, glosses in single_hits:
        pairs = [verify(sentence, g, verifier) for g in glosses]
        annotations.append(
            AnnotatedSpan(index, index + 1, KIND_SINGLEWORD, select_sense(pairs).gloss_id)
        )
    annotations.sort(key=lambda a: (a.start, a.end, a.kind))
    return annotations


@dataclass(frozen=True)
class AnnotatedSentence:
    tokens: tuple[str, ...]
    spans: tuple[AnnotatedSpan, ...]

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def annotate_corpus(
    sentences: Sequence[str],
    inventory: SenseInventory,
    ner_tagger: Tagger,
    verifier: Verifier,
    dictionary: MorphDictionary,
) -> list[AnnotatedSentence]:
    return [
        AnnotatedSentence(
            tuple(s.split()),
            tuple(disambiguate(s, inventory, ner_tagger, verifier, dictionary)),
        )
        for s in sentences
    ]


def read_annotated_corpus(source: str | Path) -> list[AnnotatedSentence]:
    """Annotated corpus file: one block per sentence, the sentence line
    followed by one `start<TAB>end<TAB>kind<TAB>payload` line per span."""
    return [
        AnnotatedSentence(
            tuple(sentence.split()),
            tuple(_tsv.span_row(lineno, line, 4, AnnotatedSpan) for lineno, line in span_lines),
        )
        for (_, sentence), *span_lines in _tsv.blocks(source)
    ]


def format_annotated_corpus(sentences: Sequence[AnnotatedSentence]) -> str:
    """Inverse of read_annotated_corpus."""
    blocks = []
    for sentence in sentences:
        lines = [sentence.text]
        lines.extend(
            f"{s.start}\t{s.end}\t{s.kind}\t{s.payload}" for s in sentence.spans
        )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def _payload_matches(predicted: str, gold: str) -> bool:
    return predicted in gold.split(ALTERNATIVES_SEP)


def gold_gloss_ids(gold: Sequence[AnnotatedSentence]) -> set[str]:
    """Every gloss id a gold corpus accepts (an OracleVerifier's gold set):
    the payloads of its non-entity spans, split at ALTERNATIVES_SEP."""
    spans = (span for sentence in gold for span in sentence.spans if span.kind != KIND_ENTITY)
    return {gloss_id for span in spans for gloss_id in span.payload.split(ALTERNATIVES_SEP)}


def _category_counts(
    gold: AnnotatedSentence,
    pred: AnnotatedSentence,
    kind: str,
) -> tuple[int, int, int, int]:
    """(gold spans, predicted spans, correct spans, gold tokens) for one
    sentence and kind."""
    gold_spans = [s for s in gold.spans if s.kind == kind]
    pred_spans = [s for s in pred.spans if s.kind == kind]
    pred_index = {(s.start, s.end): s.payload for s in pred_spans}
    correct = 0
    for span in gold_spans:
        predicted = pred_index.get((span.start, span.end))
        if predicted is not None and _payload_matches(predicted, span.payload):
            correct += 1
    tokens = sum(s.token_count for s in gold_spans)
    return len(gold_spans), len(pred_spans), correct, tokens


CATEGORIES = ("ner", "multiword", "singleword", "overall")
KIND_BY_CATEGORY = {
    "ner": KIND_ENTITY,
    "multiword": KIND_MULTIWORD,
    "singleword": KIND_SINGLEWORD,
}


def corpus_counts(
    gold: Sequence[AnnotatedSentence],
    pred: Sequence[AnnotatedSentence],
) -> dict[str, tuple[int, int, int, int]]:
    """Per-category (gold spans, predicted spans, correct spans, gold
    tokens) over aligned corpora; raises MisalignedCorpus on sentence or
    token count drift."""
    if len(gold) != len(pred):
        raise MisalignedCorpus(
            f"gold has {len(gold)} sentences, predictions have {len(pred)}"
        )
    for i, (g, p) in enumerate(zip(gold, pred)):
        if len(g.tokens) != len(p.tokens):
            raise MisalignedCorpus(
                f"sentence {i}: gold has {len(g.tokens)} tokens, predictions have {len(p.tokens)}"
            )
    totals = {name: (0, 0, 0, 0) for name in KIND_BY_CATEGORY}
    for g, p in zip(gold, pred):
        for name, kind in KIND_BY_CATEGORY.items():
            totals[name] = tuple(map(sum, zip(totals[name], _category_counts(g, p, kind))))
    return totals


def wsd_accuracy(
    gold: Sequence[AnnotatedSentence],
    pred: Sequence[AnnotatedSentence],
    category: str = "overall",
) -> float:
    """Per-category accuracy over aligned corpora.

    Entity and multi-word spans count as correct on an exact (start, end)
    match with an acceptable payload (gold may list alternatives joined by
    '|'); single-word accuracy is per token.  overall is the micro average
    of the three categories weighted by their gold token counts.  A
    category with no gold instances scores 1.0 (and weighs nothing in the
    overall average).
    """
    if category not in CATEGORIES:
        raise ValueError(f"category must be one of {CATEGORIES}, got {category!r}")
    return accuracy_from_counts(corpus_counts(gold, pred), category)


def accuracy_from_counts(
    totals: dict[str, tuple[int, int, int, int]],
    category: str = "overall",
) -> float:
    """wsd_accuracy's score for a category in CATEGORIES, from
    corpus_counts totals."""
    if category != "overall":
        gold_n, _, correct, _ = totals[category]
        return correct / gold_n if gold_n else 1.0
    weighted = [
        (correct / gold_n, tokens)
        for gold_n, _, correct, tokens in totals.values()
        if gold_n and tokens
    ]
    if not weighted:
        return 1.0
    return micro_average(weighted)


def accuracy_report(
    gold: Sequence[AnnotatedSentence],
    pred: Sequence[AnnotatedSentence],
) -> EvalReport:
    """`wsd eval`'s table: per category the gold, predicted and correct
    span counts, accuracy and gold-token weight, then the overall micro
    average; the scores are wsd_accuracy's."""
    totals = corpus_counts(gold, pred)
    categories = tuple(
        CategoryResult(name, gold_n, pred_n, correct, accuracy_from_counts(totals, name), tokens)
        for name, (gold_n, pred_n, correct, tokens) in totals.items()
    )
    return EvalReport(
        "sense annotation accuracy", "accuracy", categories, accuracy_from_counts(totals)
    )

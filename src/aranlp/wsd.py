"""End-to-end semantic analysis: lemmatization, multi-word sense lookup
over lemma n-grams, entity masking, single-word sense lookup, and
verification-based sense selection.

Pipeline order per sentence:

1. lemmatize every whitespace token with the morphology dictionary
   (lemmatize_tokens); an out-of-vocabulary token stands for its NFC
   surface form;
2. scan the lemma n-grams (2 <= n <= 5), n = 5 down to 2 and left to
   right within an n, and accept each whose lemma string keys the
   multi-word inventory and touches no token an earlier hit consumed;
   accepted spans consume their tokens (lookup_multiword);
3. tag entities on the full sentence, flatten overlaps, and crop entity
   spans to tokens not already consumed;
4. look up remaining tokens as single words in the single-word inventory;
5. for each multi-word and single-word hit, in that order, score every
   (context, gloss) pair with the verifier and keep the gloss with the
   highest positive probability (ties: smallest gloss_id), in one loop
   over the hit's glosses that builds no VerificationPair; verify and
   select_sense are the public reference path for this step.

Tokens with no glosses and no entity tag are omitted from the output.
"""

from __future__ import annotations

import unicodedata
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from . import _tsv
from ._record import record
from .errors import (
    EmptyCandidates,
    MalformedRow,
    MisalignedCorpus,
    VerifierFailure,
)
from .evaluation import CategoryResult, EvalReport, json_line, micro_average
from .morphology import MorphDictionary, analyze
from .ner import EntitySpan, Tagger, _head_widths, decode_matrix, project_flat, run_tagger

KIND_ENTITY = "entity"
KIND_MULTIWORD = "multiword"
KIND_SINGLEWORD = "singleword"
KINDS = (KIND_ENTITY, KIND_MULTIWORD, KIND_SINGLEWORD)

MAX_NGRAM = 5
PROBABILITY_TOLERANCE = 1e-9
OVERLAP_EPS = 0.01  # OverlapVerifier's smoothing floor

# Most tokens a _Lemmatizer's token -> lemma memo holds before it is
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
    single-word lemmas.

    Construction indexes the multi-word keys for lookup_multiword, so
    neither dict may be mutated after construction; build a new inventory
    instead.  The index is not a field: it takes no part in ``==`` or
    ``repr``.
    """

    multiword: dict[str, tuple[Gloss, ...]]
    singleword: dict[str, tuple[Gloss, ...]]

    def __post_init__(self):
        object.__setattr__(self, "_multiword_widths", _head_widths(self.multiword, MAX_NGRAM))


@_tsv.collector_paused()
def load_inventory(source: str | Path | Iterable[str]) -> SenseInventory:
    """Inventory TSV: kind{MW|SW} <TAB> lemma-ngram <TAB> gloss_id <TAB> gloss text.

    ``source`` is a path or its lines.  Keys are NFC-normalized, and an MW
    key is stored as its whitespace-split lemmas joined by one space, the
    form the multi-word scan joins lemmas into, so "a  b" is keyed "a b"."""
    multiword: dict[str, list[Gloss]] = {}
    singleword: dict[str, list[Gloss]] = {}
    for lineno, (kind, key, gloss_id, text) in _tsv.rows(source, 4):
        key = unicodedata.normalize("NFC", key.strip())
        gloss_id = gloss_id.strip()
        if not key or not gloss_id:
            raise MalformedRow(lineno, "lemma n-gram and gloss_id must be non-empty")
        if kind == "MW":
            key = " ".join(key.split())
            width = key.count(" ") + 1
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


def _lemma(token: str, dictionary: MorphDictionary) -> str:
    """The lemma of the token's default solution, else its NFC surface
    form, the normal form of inventory keys and dictionary lookups."""
    tagged = analyze(token, dictionary)
    return tagged.solution.lemma if tagged.solution else unicodedata.normalize("NFC", token)


class _Lemmatizer:
    """A dictionary and its bounded token -> lemma memo, which holds at
    most _LEMMA_MEMO_LIMIT (65,536) tokens and is cleared when full."""

    def __init__(self, dictionary: MorphDictionary):
        self.dictionary = dictionary
        self.memo: dict[str, str] = {}


def lemmatize_tokens(tokens: Sequence[str], lemmatizer: _Lemmatizer) -> list[str]:
    """One _lemma per token, through the lemmatizer's memo, so a token is
    analyzed once while it stays in the memo."""
    memo = lemmatizer.memo
    found = []
    for token in tokens:
        lemma = memo.get(token)
        if lemma is None:
            if len(memo) >= _LEMMA_MEMO_LIMIT:
                memo.clear()
            lemma = memo[token] = _lemma(token, lemmatizer.dictionary)
        found.append(lemma)
    return found


def lookup_multiword(
    lemmas: Sequence[str],
    inventory: SenseInventory,
) -> list[tuple[int, int, tuple[Gloss, ...]]]:
    """(start, end, glosses) for each lemma n-gram (2 <= n <= 5) whose
    lemma string keys the multi-word inventory, accepted widest n first
    and left to right within an n; an accepted span consumes its tokens,
    so an overlapping narrower span is skipped.  Hits come back sorted by
    start.  An n-gram is joined only if some key with its first lemma's
    head spans n lemmas (the inventory's key index)."""
    widths = inventory._multiword_widths.get
    # the most lemmas a key can span from each start (0: no key's head)
    bounds = [widths(lemma.partition(" ")[0], 0) for lemma in lemmas]
    accepted: list[tuple[int, int, tuple[Gloss, ...]]] = []
    claimed: set[int] = set()
    count = len(lemmas)
    for n in range(min(MAX_NGRAM, count), 1, -1):
        for start in range(count - n + 1):
            if bounds[start] < n:
                continue
            end = start + n
            glosses = inventory.multiword.get(" ".join(lemmas[start:end]))
            if glosses is None or not claimed.isdisjoint(range(start, end)):
                continue
            accepted.append((start, end, glosses))
            claimed.update(range(start, end))
    # accepted spans are disjoint, so no two share a start
    accepted.sort()
    return accepted


@record
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
    """Run one verification; any misbehavior surfaces as VerifierFailure.

    With select_sense, the public reference path for disambiguate's sense
    selection, which runs the same checks in its own loop."""
    try:
        positive = float(verifier.score(context, gloss))
    except Exception as exc:
        raise VerifierFailure(f"verifier raised {exc!r}") from exc
    if not 0.0 <= positive <= 1.0:
        raise VerifierFailure(f"verifier returned {positive}, outside [0, 1]")
    return VerificationPair(context, gloss, positive, 1.0 - positive)


def select_sense(pairs: Sequence[VerificationPair]) -> Gloss:
    """The gloss with the highest positive probability; ties go to the
    lexicographically smallest gloss_id.  With verify, the public
    reference path for disambiguate's sense selection."""
    if not pairs:
        raise EmptyCandidates("no verification pairs to select from")
    best = min(pairs, key=lambda p: (-p.positive, p.gloss.gloss_id))
    return best.gloss


class OverlapVerifier:
    """Deterministic gloss-context lemma overlap baseline.

    positive = eps + (1 - 2*eps) * |context lemmas ∩ gloss lemmas| /
    |gloss lemmas| with eps = OVERLAP_EPS (0.01), so a gloss sharing
    nothing with the context scores the smoothing floor eps and a fully
    covered gloss scores 1 - eps.

    Each instance owns one _Lemmatizer, whose bounded token -> lemma memo
    lives as long as the verifier, so a word repeated across glosses and
    sentences is analyzed once.  disambiguate lemmatizes its sentence
    through the same lemmatizer when the verifier's dictionary is its
    own, so each sentence token is analyzed once for both.  The lemma
    set of the last context is kept (one entry), because disambiguate
    scores all glosses of a sentence in a row.
    """

    def __init__(self, dictionary: MorphDictionary):
        self.dictionary = dictionary
        self._lemmatizer = _Lemmatizer(dictionary)
        # (context, its lemma set); the empty context has no lemmas.
        self._last_context: tuple[str, set[str]] = ("", set())

    def score(self, context: str, gloss: Gloss) -> float:
        lemmatizer = self._lemmatizer
        if self._last_context[0] != context:
            self._last_context = (context, set(lemmatize_tokens(context.split(), lemmatizer)))
        context_lemmas = self._last_context[1]
        gloss_lemmas = set(lemmatize_tokens(gloss.text.split(), lemmatizer))
        ratio = (
            len(context_lemmas & gloss_lemmas) / len(gloss_lemmas)
            if gloss_lemmas
            else 0.0
        )
        return OVERLAP_EPS + (1.0 - 2.0 * OVERLAP_EPS) * ratio


class OracleVerifier:
    """Scores 1.0 for glosses whose id is in the gold set, 0.0 otherwise."""

    def __init__(self, gold_gloss_ids):
        self.gold_gloss_ids = frozenset(gold_gloss_ids)

    def score(self, context: str, gloss: Gloss) -> float:
        return 1.0 if gloss.gloss_id in self.gold_gloss_ids else 0.0


@record
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
    inside them.

    Each hit's sense is selected as select_sense over verify's pairs
    would select it, in one loop that builds no pairs: verifier.score is
    looked up at most once per sentence and called once per gloss.  A
    raising verifier or a score outside [0, 1] (NaN included) raises
    VerifierFailure, and a hit with no glosses raises EmptyCandidates,
    each with verify's or select_sense's message."""
    tokens = sentence.split()
    if not tokens:
        return []
    # The verifier's lemmatizer (also behind an attribute-forwarding
    # proxy) when it is over this dictionary, else one for this call.
    lemmatizer = getattr(verifier, "_lemmatizer", None)
    if not (isinstance(lemmatizer, _Lemmatizer) and lemmatizer.dictionary is dictionary):
        lemmatizer = _Lemmatizer(dictionary)
    lemmas = lemmatize_tokens(tokens, lemmatizer)

    # (start, end, kind, glosses): multi-word hits first, then the
    # single-word hits on tokens no hit or entity claimed.
    hits = [
        (start, end, KIND_MULTIWORD, glosses)
        for start, end, glosses in lookup_multiword(lemmas, inventory)
    ]
    claimed: set[int] = set()
    for start, end, _, _ in hits:
        claimed.update(range(start, end))

    matrix = run_tagger(ner_tagger, tokens)
    entity_spans = _crop_to_unclaimed(
        project_flat(decode_matrix(matrix), matrix.types), claimed
    )
    for span in entity_spans:
        claimed.update(range(span.start, span.end))

    singleword = inventory.singleword
    hits.extend(
        (i, i + 1, KIND_SINGLEWORD, singleword[lemma])
        for i, lemma in enumerate(lemmas)
        if i not in claimed and lemma in singleword
    )

    annotations = [
        AnnotatedSpan(s.start, s.end, KIND_ENTITY, s.type) for s in entity_spans
    ]
    # verify and select_sense in one loop per hit.  verifier.score is
    # looked up inside the try at the first hit with glosses, where verify
    # first looks it up.  The running best key (-positive, gloss_id)
    # starts above every real key (-positive <= 0) and is replaced only by
    # a strictly smaller one, so the first of equal keys wins, as min does.
    score = None
    for start, end, kind, glosses in hits:
        if not glosses:
            raise EmptyCandidates("no verification pairs to select from")
        if score is None:
            try:
                score = verifier.score
            except Exception as exc:
                raise VerifierFailure(f"verifier raised {exc!r}") from exc
        best = (1.0, "")
        for gloss in glosses:
            try:
                positive = float(score(sentence, gloss))
            except Exception as exc:
                raise VerifierFailure(f"verifier raised {exc!r}") from exc
            if not 0.0 <= positive <= 1.0:
                raise VerifierFailure(f"verifier returned {positive}, outside [0, 1]")
            key = (-positive, gloss.gloss_id)
            if key < best:
                best = key
        annotations.append(AnnotatedSpan(start, end, kind, best[1]))
    annotations.sort(key=lambda a: (a.start, a.end, a.kind))
    return annotations


@dataclass(frozen=True)
class AnnotatedSentence:
    tokens: tuple[str, ...]
    spans: tuple[AnnotatedSpan, ...]

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def render_records(self) -> str:
        return json_line({"tokens": self.tokens, "spans": self.spans})


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


def read_annotated_corpus(source: str | Path | Iterable[str]) -> list[AnnotatedSentence]:
    """Annotated corpus file (a path or its lines): one block per sentence,
    the sentence line followed by one `start<TAB>end<TAB>kind<TAB>payload`
    line per span; a sentence with no tokens is the block file's empty
    record (the lone line `-`).  So the one sentence that does not survive
    a round trip, the lone token `-` with no spans, reads back tokenless."""
    corpus = []
    for block in _tsv.blocks(source):
        # an empty record is a sentence line without tokens
        (_, sentence), *span_lines = block or [(0, "")]
        tokens = tuple(sentence.split())
        spans = []
        for lineno, line in span_lines:
            span = _tsv.span_row(lineno, line, 4, AnnotatedSpan)
            if span.end > len(tokens):
                raise MalformedRow(
                    lineno, f"span ({span.start}, {span.end}) runs past the "
                    f"{len(tokens)}-token sentence")
            spans.append(span)
        corpus.append(AnnotatedSentence(tokens, tuple(spans)))
    return corpus


def format_annotated_corpus(sentences: Sequence[AnnotatedSentence]) -> str:
    """Inverse of read_annotated_corpus."""
    return _tsv.format_blocks(
        "\n".join([s.text, *(f"{x.start}\t{x.end}\t{x.kind}\t{x.payload}" for x in s.spans)])
        for s in sentences
    )


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
    """Per-category accuracy over aligned corpora, read from accuracy_report.

    Entity and multi-word spans count as correct on an exact (start, end)
    match with an acceptable payload (gold may list alternatives joined by
    '|'); single-word accuracy is per token.  overall is the micro average
    of the three categories weighted by their gold token counts.  A
    category with no gold instances scores 1.0 (and weighs nothing in the
    overall average).
    """
    if category not in CATEGORIES:
        raise ValueError(f"category must be one of {CATEGORIES}, got {category!r}")
    report = accuracy_report(gold, pred)
    if category == "overall":
        return report.overall
    return next(c.score for c in report.categories if c.name == category)


def accuracy_report(
    gold: Sequence[AnnotatedSentence],
    pred: Sequence[AnnotatedSentence],
) -> EvalReport:
    """`wsd eval`'s table: per category the gold, predicted and correct
    span counts, accuracy and gold-token weight, then the overall micro
    average; wsd_accuracy documents the scores."""
    categories = tuple(
        CategoryResult(name, gold_n, pred_n, correct, correct / gold_n if gold_n else 1.0, tokens)
        for name, (gold_n, pred_n, correct, tokens) in corpus_counts(gold, pred).items()
    )
    # a category weighs its gold tokens, so one without gold spans weighs nothing
    weighted = [(c.score, c.weight) for c in categories if c.weight]
    overall = micro_average(weighted) if weighted else 1.0
    return EvalReport("sense annotation accuracy", "accuracy", categories, overall)

"""Sentence splitting, diacritic-aware word matching and Jaccard, and
cosine-based duplicate removal.

Matching semantics: two words are *incompatible* when their base-letter
skeletons differ or some shared position carries two different explicit
vowel marks.  Shaddah never conflicts on its own (subset-unifiability
rule), so ``{shaddah+fatha}`` vs ``{fatha}`` and ``{shaddah}`` vs
``{fatha}`` are both compatible.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass
from operator import mul

from .errors import (
    EmptySeparatorSet,
    InvalidSeparator,
    InvalidThreshold,
    UnknownSeparatorClass,
)
from .evaluation import format_score, json_line
from .script import ar_strip, decompose

IDENTICAL = "identical"
COMPATIBLE = "compatible"
INCOMPATIBLE = "incompatible"

SEPARATOR_CLASSES: dict[str, frozenset[str]] = {
    "period": frozenset({"."}),
    "question": frozenset({"?", "؟"}),
    "exclamation": frozenset({"!"}),
    "linebreak": frozenset({"\n"}),
}


@dataclass(frozen=True)
class SplitConfig:
    """Separator selection for sentence splitting.

    ``classes`` holds names from SEPARATOR_CLASSES; ``custom`` holds extra
    separator codepoints, each a string of exactly one codepoint.  The
    combined set must be non-empty.
    """

    classes: frozenset[str] = frozenset({"period", "question", "exclamation", "linebreak"})
    custom: frozenset[str] = frozenset()
    attach_separator: bool = True

    def __post_init__(self):
        unknown = self.classes - SEPARATOR_CLASSES.keys()
        if unknown:
            raise UnknownSeparatorClass(f"unknown separator classes: {sorted(unknown)}")
        invalid = sorted(
            (sep for sep in self.custom if not (isinstance(sep, str) and len(sep) == 1)),
            key=repr,
        )
        if invalid:
            raise InvalidSeparator(
                f"custom separators must be single codepoints, got: {invalid}"
            )
        if not self.classes and not self.custom:
            raise EmptySeparatorSet("at least one separator must be selected")

    def separator_chars(self) -> frozenset[str]:
        chars = set(self.custom)
        for name in self.classes:
            chars |= SEPARATOR_CLASSES[name]
        return frozenset(chars)


def split_sentences(text: str, config: SplitConfig | None = None) -> list[str]:
    """Split at the selected separators only; unselected ones are ignored.

    Segments are whitespace-trimmed at the edges and empty segments are
    dropped, so the concatenation of the output reconstructs the input up
    to trimmed whitespace.  With attach_separator the splitting codepoint
    stays on the end of its sentence, unless it is white space such as
    the line break: that is trimmed as well.
    """
    if config is None:
        config = SplitConfig()
    separators = config.separator_chars()
    sentences: list[str] = []
    segment: list[str] = []
    for ch in text:
        if ch in separators:
            body = "".join(segment).strip()
            if body:
                attach = config.attach_separator and not ch.isspace()
                sentences.append(body + ch if attach else body)
            segment.clear()
        else:
            segment.append(ch)
    tail = "".join(segment).strip()
    if tail:
        sentences.append(tail)
    return sentences


@dataclass(frozen=True)
class MatchVerdict:
    relation: str
    first_conflict: int | None = None

    def render_text(self) -> str:
        """The relation, then a tab and the first conflict if there is one."""
        if self.first_conflict is None:
            return self.relation
        return f"{self.relation}\t{self.first_conflict}"

    def render_records(self, w1: str, w2: str) -> str:
        """One JSON line: the two words compared, then this verdict's fields."""
        return json_line({"w1": w1, "w2": w2, "relation": self.relation,
                          "first_conflict": self.first_conflict})


def _vowel_conflict(v1, v2) -> int | None:
    """First position holding two different explicit vowels, else None."""
    for i, (x, y) in enumerate(zip(v1, v2)):
        if x is not None and y is not None and x != y:
            return i
    return None


def _vowels(skeleton) -> tuple[str | None, ...]:
    return tuple(p.marks.vowel for p in skeleton.positions)


def match_words(w1: str, w2: str) -> MatchVerdict:
    """Compare two Arabic words allowing for partial diacritization.

    identical: equal skeletons and equal marks everywhere.
    compatible: equal skeletons, every position unifiable (one side's
    vowel missing, or equal; shaddah free on either side).
    incompatible: differing skeletons, or two different explicit vowels
    at one position; first_conflict reports the position.
    """
    s1, s2 = decompose(w1), decompose(w2)
    b1, b2 = s1.bases(), s2.bases()
    if b1 != b2:
        conflict = min(len(b1), len(b2))
        for i, (x, y) in enumerate(zip(b1, b2)):
            if x != y:
                conflict = i
                break
        return MatchVerdict(INCOMPATIBLE, conflict)
    conflict = _vowel_conflict(_vowels(s1), _vowels(s2))
    if conflict is not None:
        return MatchVerdict(INCOMPATIBLE, conflict)
    return MatchVerdict(IDENTICAL if s1 == s2 else COMPATIBLE)


@dataclass(frozen=True)
class JaccardReport:
    union_size: int
    intersection_size: int
    similarity: float

    def render_text(self) -> str:
        return (f"union\t{self.union_size}\nintersection\t{self.intersection_size}\n"
                f"similarity\t{format_score(self.similarity)}")

    def render_records(self) -> str:
        return json_line({"union": self.union_size, "intersection": self.intersection_size,
                          "similarity": self.similarity})


def jaccard(set1, set2, mode: str = "diacritic_aware") -> JaccardReport:
    """Union/intersection/similarity between two word sets.

    In diacritic_aware mode two words count as equal when match_words does
    not return incompatible.  That relation is not transitive, so words
    are grouped into connected components (union-find over the combined
    input, in input order) and the report counts components.  Two empty
    sets have similarity 1.0.  In exact mode two words are equal when
    their NFC forms are, so an NFC and an NFD copy of a word are one word.

    Cost: each distinct word is decomposed once, in input order (so a lone
    invalid word raises too), and words are compared pairwise only within
    a bucket of equal base-letter skeletons, since others never match.
    """
    if mode not in ("exact", "diacritic_aware"):
        raise ValueError(f"unknown jaccard mode {mode!r}")
    words: list[str] = []
    seen: dict[str, int] = {}
    origin1: set[int] = set()
    origin2: set[int] = set()
    exact = mode == "exact"
    for source, origin in ((set1, origin1), (set2, origin2)):
        for w in source:
            if exact:
                w = unicodedata.normalize("NFC", w)
            idx = seen.get(w)
            if idx is None:
                idx = len(words)
                seen[w] = idx
                words.append(w)
            origin.add(idx)

    parent = list(range(len(words)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if mode == "diacritic_aware":
        buckets: dict[tuple[str, ...], list[tuple[int, tuple]]] = {}
        for idx, word in enumerate(words):
            skeleton = decompose(word)
            buckets.setdefault(skeleton.bases(), []).append((idx, _vowels(skeleton)))
        for bucket in buckets.values():
            for a, (i, vowels_i) in enumerate(bucket):
                for j, vowels_j in bucket[a + 1:]:
                    if find(i) != find(j) and _vowel_conflict(vowels_i, vowels_j) is None:
                        parent[find(j)] = find(i)

    components: dict[int, tuple[bool, bool]] = {}
    for idx in range(len(words)):
        root = find(idx)
        in1, in2 = components.get(root, (False, False))
        components[root] = (in1 or idx in origin1, in2 or idx in origin2)
    union_size = len(components)
    intersection_size = sum(1 for in1, in2 in components.values() if in1 and in2)
    similarity = intersection_size / union_size if union_size else 1.0
    return JaccardReport(union_size, intersection_size, similarity)


def remove_duplicates(sentences, threshold: float = 0.8) -> list[str]:
    """Drop a sentence when its term-frequency cosine similarity with any
    previously kept sentence reaches the threshold; first occurrence wins.

    Vectors are token counts after diacritic stripping.  Thresholds above
    1.0 are legal and keep everything; negative or non-finite thresholds
    are rejected.  Two empty vectors have cosine 1.0, an empty and a
    non-empty one 0.0.

    Cost: a non-empty input is stripped in one call to the module-global
    ``ar_strip``, as its sentences joined by line breaks (a line break
    inside a sentence becomes a space, which splits tokens the same way;
    the strip deletes no white space, so line i is sentence i, and a
    line count that differs raises).  An inverted index from token to
    ``(kept index, count)`` accumulates the dot products term at a time,
    so a sentence does work only on the tokens it shares with kept ones,
    once per distinct token however often it repeats; the others have
    cosine 0.  Squared norms are exact integers, and each cosine takes
    one square root of the exact product, so the verdicts do not depend
    on summation order.
    """
    try:
        threshold = float(threshold)
    except (TypeError, ValueError) as exc:
        raise InvalidThreshold(f"threshold must be a number, got {threshold!r}") from exc
    if math.isnan(threshold) or math.isinf(threshold) or threshold < 0:
        raise InvalidThreshold(f"threshold must be a finite non-negative number, got {threshold}")
    sentences = list(sentences)
    if not sentences:
        return []
    block = "\n".join([sentence.replace("\n", " ") for sentence in sentences])
    lines = ar_strip(block, diacritics=True).split("\n")
    kept: list[str] = []
    kept_squares: list[int] = []
    postings: dict[str, list[tuple[int, int]]] = {}
    kept_empty = False
    for sentence, line in zip(sentences, lines, strict=True):
        if kept and threshold == 0:  # every cosine is at least 0
            continue
        tokens = line.split()
        if not tokens:
            if kept_empty and threshold <= 1.0:
                continue
            kept_empty = True
            kept.append(sentence)
            continue
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        square = sum(map(mul, counts.values(), counts.values()))
        dots: dict[int, int] = {}
        for token, count in counts.items():
            posting = postings.get(token)
            if posting is not None:
                for k, kept_count in posting:
                    dots[k] = dots.get(k, 0) + count * kept_count
        # one square root of the exact integer product, so a sentence and
        # its copy read exactly 1.0; a product of two roots can land below it
        for k, dot in dots.items():
            if dot / math.sqrt(square * kept_squares[k]) >= threshold:
                break
        else:
            index = len(kept_squares)
            for token, count in counts.items():
                posting = postings.get(token)
                if posting is None:
                    postings[token] = [(index, count)]
                else:
                    posting.append((index, count))
            kept_squares.append(square)
            kept.append(sentence)
    return kept

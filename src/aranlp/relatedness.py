"""Sentence-pair relatedness: mean-pooled token embeddings compared with
cosine similarity, plus a Spearman rank evaluation harness.

The embedding model is pluggable: ``relatedness`` calls only the
provider's ``pool(sentence)``, the mean of the sentence's token vectors.
A provider with per-token vectors implements it as
``mean_pool(self.embed(sentence))``.  The shipped default is a hashed
character-trigram provider that is deterministic across runs and
platforms (fixed 64-bit FNV-1a hashing, fixed accumulation order).

``HashedTrigramProvider.pool`` builds that mean without per-token vectors:
it adds each trigram's signed unit into one integer count per dimension
and divides the counts by the token count once.  A column of +-1.0 values
sums to the same exact integer in any order, so this equals
``mean_pool(provider.embed(s))`` bit for bit.

Each trigram's hash costs one add and one mask, by an exact identity of
FNV-1a.  For a byte b < 256, ``h ^ b`` changes only the low byte of h, and
the low byte of ``h * P`` depends only on the low byte of h.  So after the
k UTF-8 bytes of a character c, the state is
``h * P**k + D(h & 0xFF, c) mod 2**64`` for a 256-entry table D per
character.  Each provider memoizes, per two-character head, the low byte
of its state and ``h * P**k`` for k = 1..4 (at most ``_PREFIX_MEMO_LIMIT``
heads), and per character its byte length and table (at most
``_CHAR_MEMO_LIMIT`` characters).  Each memo is cleared when full.
"""

from __future__ import annotations

import math
import sys
import unicodedata
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mul, truediv
from pathlib import Path
from typing import Protocol

from . import _tsv
from .errors import (
    AranlpError,
    DegenerateConstantInput,
    DimensionMismatch,
    EmptyInput,
    EmptySentence,
    LengthMismatch,
    MalformedRow,
    NonFiniteValue,
    ZeroVector,
)
from .evaluation import format_score, json_line

Vector = list[float]


class EmbeddingProvider(Protocol):
    """Deterministic sentence embedder: identical sentences must produce
    identical vectors.  ``pool`` returns the mean of the sentence's token
    vectors."""

    def pool(self, sentence: str) -> Vector: ...


TRIGRAM_DIMENSION = 256  # the length of every HashedTrigramProvider vector

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x00000100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Entries in one provider's head memo before it is cleared.  An entry is
# a two-character key and a tuple of the state's low byte and its four
# 64-bit products, about 250 bytes with the dict slot, so a full memo of
# Arabic heads holds about 3.9 MiB (measured with tracemalloc).
_PREFIX_MEMO_LIMIT = 16_384
# Entries in one provider's character memo before it is cleared.  An entry
# is a one-character key, its UTF-8 length and a 256-entry array('Q')
# table, about 2.2 KiB, so a full memo holds about 2.1 MiB.
_CHAR_MEMO_LIMIT = 1_024


def _fnv1a(data: bytes, value: int = _FNV_OFFSET) -> int:
    """FNV-1a of data, continued from the state value."""
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) & _MASK64
    return value


def _head_entry(head: str) -> tuple[int, ...]:
    """(low byte of the head's state h, h * P, h * P**2, h * P**3,
    h * P**4), the products mod 2**64."""
    value = _fnv1a(head.encode("utf-8", "surrogatepass"))
    entry = [value & 0xFF]
    for _ in range(4):
        value = (value * _FNV_PRIME) & _MASK64
        entry.append(value)
    return tuple(entry)


def _char_entry(char: str) -> tuple[int, array]:
    """(k, D): the character's UTF-8 length and, per low byte, the term
    that FNV-1a over its k bytes adds to h * P**k mod 2**64."""
    data = char.encode("utf-8", "surrogatepass")
    power = pow(_FNV_PRIME, len(data), 1 << 64)
    return len(data), array(
        "Q", [(_fnv1a(data, low) - low * power) & _MASK64 for low in range(256)]
    )


class HashedTrigramProvider:
    """Signed hashed character-trigram count vectors per token.

    Each token is wrapped in boundary markers and its character trigrams
    are hashed with FNV-1a over UTF-8 (``surrogatepass``, so any str
    embeds); the hash modulo TRIGRAM_DIMENSION (256) picks the dimension
    index and its high bit the sign.

    ``pool(sentence)`` is the mean of ``embed(sentence)`` built from
    integer counts without per-token vectors.
    A trigram's hash is ``(head[k] + table[head[0]]) & _MASK64``: ``head``
    is the memoized entry of its first two characters (the state's low
    byte, then the state times ``P**k`` for k = 1..4) and ``(k, table)``
    that of its third character (see the module docstring).  The head
    memo holds at most ``_PREFIX_MEMO_LIMIT`` entries and the character
    memo at most ``_CHAR_MEMO_LIMIT``; each is built lazily and cleared
    when full.
    """

    def __init__(self):
        self._prefix_states: dict[str, tuple[int, ...]] = {}
        self._char_tables: dict[str, tuple[int, array]] = {}

    def _counts(self, tokens: Sequence[str]) -> list[int]:
        """Signed trigram counts summed over the non-empty tokens, one per
        dimension."""
        dimension = TRIGRAM_DIMENSION
        heads = self._prefix_states
        chars = self._char_tables
        counts = [0] * dimension
        for token in tokens:
            # the trigrams of "^token$", as a rolling pair of head characters
            first, second = "^", token[0]
            for third in f"{token[1:]}$":
                key = first + second
                head = heads.get(key)
                if head is None:
                    if len(heads) >= _PREFIX_MEMO_LIMIT:
                        heads.clear()
                    head = heads[key] = _head_entry(key)
                char = chars.get(third)
                if char is None:
                    if len(chars) >= _CHAR_MEMO_LIMIT:
                        chars.clear()
                    char = chars[third] = _char_entry(third)
                first, second = second, third
                k, table = char
                value = (head[k] + table[head[0]]) & _MASK64
                if value >> 63:
                    counts[value % dimension] += 1
                else:
                    counts[value % dimension] -= 1
        return counts

    def _token_vector(self, token: str) -> Vector:
        return [float(c) for c in self._counts((token,))]

    @staticmethod
    def _tokens(sentence: str) -> list[str]:
        tokens = unicodedata.normalize("NFC", sentence).split()
        if not tokens:
            raise EmptySentence("sentence has no tokens to embed")
        return tokens

    def embed(self, sentence: str) -> list[Vector]:
        return [self._token_vector(t) for t in self._tokens(sentence)]

    def pool(self, sentence: str) -> Vector:
        tokens = self._tokens(sentence)
        return list(map(truediv, self._counts(tokens), repeat(len(tokens))))


def mean_pool(vectors: Sequence[Vector]) -> Vector:
    """Componentwise arithmetic mean of same-dimension vectors."""
    if not vectors:
        raise EmptyInput("mean_pool needs at least one vector")
    dimension = len(vectors[0])
    for v in vectors:
        if len(v) != dimension:
            raise DimensionMismatch(f"expected dimension {dimension}, got {len(v)}")
    count = len(vectors)
    return [sum(column) / count for column in zip(*vectors)]


_NORMAL_MIN = sys.float_info.min
# compared, not converted: an int square beyond it takes the scaled path
_NORMAL_MAX = sys.float_info.max


def _any_non_finite(values) -> bool:
    # compares rather than converts, so an int beyond the float range is finite
    return any(v != v or v in (math.inf, -math.inf) for v in values)


def _unit_scaled(v: Vector) -> Vector:
    """v divided by its largest absolute component."""
    if _any_non_finite(v):
        raise NonFiniteValue("cosine similarity is undefined for a NaN or infinite component")
    scale = max(map(abs, v), default=0.0)
    if scale == 0.0:
        raise ZeroVector("cosine similarity is undefined for a zero vector")
    try:
        return [x / scale for x in v]
    except OverflowError:
        # a float over an int beyond the float range: divide exactly
        return [float(Fraction(x) / scale) for x in v]


def cosine(a: Vector, b: Vector) -> float:
    """dot(a, b) / (|a| |b|), clamped to [-1, 1] against rounding.

    Where a squared norm is zero, subnormal or beyond the float range, or
    the quotient is not finite, both vectors are first divided by their
    largest absolute component, so the largest square is 1; a NaN or
    infinite component raises ``NonFiniteValue`` and an all-zero vector
    ``ZeroVector``.
    """
    if len(a) != len(b):
        raise DimensionMismatch(f"vector dimensions differ: {len(a)} vs {len(b)}")
    try:
        square_a = sum(map(mul, a, a))
        square_b = sum(map(mul, b, b))
    except OverflowError:
        # a float added to an int square beyond the float range
        square_a = square_b = math.inf
    if _NORMAL_MIN <= square_a <= _NORMAL_MAX and _NORMAL_MIN <= square_b <= _NORMAL_MAX:
        value = sum(map(mul, a, b)) / (math.sqrt(square_a) * math.sqrt(square_b))
        if math.isfinite(value):
            return max(-1.0, min(1.0, value))
    a, b = _unit_scaled(a), _unit_scaled(b)
    # both squares now lie in [1, len(a)]: one square root suffices
    value = sum(map(mul, a, b)) / math.sqrt(sum(map(mul, a, a)) * sum(map(mul, b, b)))
    return max(-1.0, min(1.0, value))


@dataclass(frozen=True)
class SentencePair:
    s1: str
    s2: str
    gold: float | None = None

    def __post_init__(self):
        if self.gold is not None and not 0.0 <= self.gold <= 1.0:
            raise ValueError(f"gold score must lie in [0, 1], got {self.gold}")


def relatedness(pair: SentencePair, provider: EmbeddingProvider) -> float:
    """Cosine of the provider's pooled embeddings of the two sentences,
    reported raw in [-1, 1]."""
    return cosine(provider.pool(pair.s1), provider.pool(pair.s2))


def to_unit_interval(score: float) -> float:
    """Optional (x + 1) / 2 rescaling of a raw cosine onto [0, 1]."""
    return (score + 1.0) / 2.0


def load_pairs(source: str | Path | Iterable[str]) -> list[SentencePair]:
    """Pair file (a path or its lines): s1 <TAB> s2 [<TAB> gold] per line;
    neither sentence may be empty or white space only."""
    pairs = []
    for lineno, fields in _tsv.rows(source, (2, 3)):
        s1, s2 = fields[0], fields[1]
        if not s1 or s1.isspace() or not s2 or s2.isspace():
            raise MalformedRow(lineno, "both sentences must have at least one token")
        gold = None
        if len(fields) == 3:
            try:
                gold = float(fields[2])
            except ValueError:
                raise MalformedRow(lineno, f"gold score {fields[2]!r} is not a number") from None
        try:
            pairs.append(SentencePair(s1, s2, gold))
        except ValueError as exc:
            raise MalformedRow(lineno, str(exc)) from None
    return pairs


def _average_ranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        tied_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = tied_rank
        i = j + 1
    return ranks


def spearman(gold: Sequence[float], pred: Sequence[float]) -> float:
    """Pearson correlation of average-ranked data (ties share the average
    of their positions)."""
    if len(gold) != len(pred):
        raise LengthMismatch(f"lists differ in length: {len(gold)} vs {len(pred)}")
    if _any_non_finite(gold) or _any_non_finite(pred):
        raise NonFiniteValue("rank correlation is undefined for NaN or infinite values")
    if len(gold) < 2:
        raise DegenerateConstantInput("rank correlation needs at least two points")
    if len(set(gold)) == 1 or len(set(pred)) == 1:
        raise DegenerateConstantInput("rank correlation is undefined for constant input")
    rank_gold = _average_ranks(gold)
    rank_pred = _average_ranks(pred)
    n = len(gold)
    mean_g = sum(rank_gold) / n
    mean_p = sum(rank_pred) / n
    cov = sum((g - mean_g) * (p - mean_p) for g, p in zip(rank_gold, rank_pred))
    var_g = sum((g - mean_g) ** 2 for g in rank_gold)
    var_p = sum((p - mean_p) ** 2 for p in rank_pred)
    value = cov / math.sqrt(var_g * var_p)
    return max(-1.0, min(1.0, value))


def evaluate_pairs(pairs: Sequence[SentencePair], provider: EmbeddingProvider) -> float:
    """Spearman correlation of the pairs' gold scores with their
    relatedness; every pair must carry a gold score."""
    missing = [i for i, p in enumerate(pairs, start=1) if p.gold is None]
    if missing:
        raise AranlpError(
            f"pair {missing[0]}: relatedness eval requires a gold score on every row"
        )
    return spearman([p.gold for p in pairs], [relatedness(p, provider) for p in pairs])


@dataclass(frozen=True)
class CorrelationReport:
    """The Spearman correlation of ``pairs`` gold scores with their
    relatedness, rendered as `relatedness eval` prints it."""

    pairs: int
    spearman: float

    def render_text(self) -> str:
        return format_score(self.spearman)

    def render_records(self) -> str:
        return json_line({"metric": "spearman", "pairs": self.pairs, "score": self.spearman})


@dataclass(frozen=True)
class PairScore:
    """One pair's relatedness; a record rounds the score to six decimals."""

    s1: str
    s2: str
    score: float

    def render_text(self) -> str:
        return format_score(self.score)

    def render_records(self) -> str:
        return json_line({"s1": self.s1, "s2": self.s2, "score": round(self.score, 6)})

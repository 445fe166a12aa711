"""Sentence-pair relatedness: mean-pooled token embeddings compared with
cosine similarity, plus a Spearman rank evaluation harness.

The embedding model is pluggable; the shipped default is a hashed
character-trigram provider that is deterministic across runs and
platforms (fixed 64-bit FNV-1a hashing, fixed accumulation order).
"""

from __future__ import annotations

import math
import unicodedata
from collections.abc import Sequence
from dataclasses import dataclass
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
    ZeroVector,
)

Vector = list[float]


class EmbeddingProvider(Protocol):
    """Deterministic per-token sentence embedder: identical sentences must
    produce identical vectors."""

    dimension: int

    def embed(self, sentence: str) -> list[Vector]: ...


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x00000100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _fnv1a(data: bytes) -> int:
    value = _FNV_OFFSET
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) & _MASK64
    return value


class HashedTrigramProvider:
    """Signed hashed character-trigram count vectors per token.

    Each token is wrapped in boundary markers and its character trigrams
    are hashed with FNV-1a; the low bits pick the dimension index and a
    high bit picks the sign.
    """

    def __init__(self, dimension: int = 256):
        if not isinstance(dimension, int) or dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
        self.dimension = dimension

    def _token_vector(self, token: str) -> Vector:
        vector = [0.0] * self.dimension
        wrapped = f"^{token}$"
        for i in range(len(wrapped) - 2):
            digest = _fnv1a(wrapped[i:i + 3].encode("utf-8"))
            sign = 1.0 if digest & (1 << 63) else -1.0
            vector[digest % self.dimension] += sign
        return vector

    def embed(self, sentence: str) -> list[Vector]:
        tokens = unicodedata.normalize("NFC", sentence).split()
        if not tokens:
            raise EmptySentence("sentence has no tokens to embed")
        return [self._token_vector(t) for t in tokens]


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


def cosine(a: Vector, b: Vector) -> float:
    """dot(a, b) / (|a| |b|), clamped to [-1, 1] against rounding."""
    if len(a) != len(b):
        raise DimensionMismatch(f"vector dimensions differ: {len(a)} vs {len(b)}")
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(x * x for x in b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVector("cosine similarity is undefined for a zero vector")
    value = sum(x * y for x, y in zip(a, b)) / (norm_a * norm_b)
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
    """Cosine of the mean-pooled embeddings of the two sentences, reported
    raw in [-1, 1]."""
    return cosine(
        mean_pool(provider.embed(pair.s1)),
        mean_pool(provider.embed(pair.s2)),
    )


def to_unit_interval(score: float) -> float:
    """Optional (x + 1) / 2 rescaling of a raw cosine onto [0, 1]."""
    return (score + 1.0) / 2.0


def load_pairs(source: str | Path) -> list[SentencePair]:
    """Pair file: s1 <TAB> s2 [<TAB> gold] per line."""
    pairs = []
    for lineno, fields in _tsv.rows(source, (2, 3)):
        gold = None
        if len(fields) == 3:
            try:
                gold = float(fields[2])
            except ValueError:
                raise MalformedRow(lineno, f"gold score {fields[2]!r} is not a number") from None
        try:
            pairs.append(SentencePair(fields[0], fields[1], gold))
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

"""Multilingual synonymy graph and cycle-based synonym extraction.

Terms are (surface, language) nodes; translation/synonymy pairs are
directed edges.  A candidate belongs to a seed's synonym set when some
simple directed cycle through the seed (no repeated vertex except the
seed) of length <= 2*level contains it.  Scores are exact fractions:
supporting seeds over total seeds.
"""

from __future__ import annotations

import re
import warnings
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import _tsv
from .errors import (
    DuplicateSeed,
    EmptyInput,
    MalformedRow,
    SeedNotInGraphWarning,
    UnknownLanguageCode,
)

_LANGUAGE_RE = re.compile(r"^[a-z]{2,3}$")


@dataclass(frozen=True)
class TermNode:
    surface: str
    language: str


@dataclass(frozen=True)
class SynonymyGraph:
    """Directed term graph; parallel edges are collapsed with their source
    lexicon labels merged.  Immutable after build."""

    nodes: frozenset[TermNode]
    successors: dict[TermNode, tuple[TermNode, ...]]
    edge_labels: dict[tuple[TermNode, TermNode], frozenset[str]]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edge_labels)

    def outgoing(self, node: TermNode) -> tuple[TermNode, ...]:
        return self.successors.get(node, ())

    def __contains__(self, node: TermNode) -> bool:
        return node in self.nodes


def _make_graph(
    nodes: set[TermNode],
    edges: dict[tuple[TermNode, TermNode], set[str]],
) -> SynonymyGraph:
    successors: dict[TermNode, list[TermNode]] = {}
    for src, dst in edges:
        successors.setdefault(src, []).append(dst)
    return SynonymyGraph(
        frozenset(nodes),
        {
            src: tuple(sorted(dsts, key=lambda n: (n.language, n.surface)))
            for src, dsts in successors.items()
        },
        {pair: frozenset(labels) for pair, labels in edges.items()},
    )


def graph_from_pairs(pairs) -> SynonymyGraph:
    """Build from in-memory rows: (source node, target node, lexicon_id,
    symmetric).  Self-loops are skipped."""
    nodes: set[TermNode] = set()
    edges: dict[tuple[TermNode, TermNode], set[str]] = {}
    for src, dst, lexicon, symmetric in pairs:
        nodes.add(src)
        nodes.add(dst)
        if src == dst:
            continue
        edges.setdefault((src, dst), set()).add(lexicon)
        if symmetric:
            edges.setdefault((dst, src), set()).add(lexicon)
    return _make_graph(nodes, edges)


def build_graph(source: str | Path) -> SynonymyGraph:
    """Pair TSV: source_surface, source_lang, target_surface, target_lang,
    lexicon_id, symmetric{0|1}.  Symmetric rows expand to both directions."""
    rows = []
    for lineno, fields in _tsv.rows(source, 6):
        src_surface, src_lang, dst_surface, dst_lang, lexicon, symmetric = (
            f.strip() for f in fields
        )
        if not src_surface or not dst_surface:
            raise MalformedRow(lineno, "surfaces must be non-empty")
        for code in (src_lang, dst_lang):
            if not _LANGUAGE_RE.match(code):
                raise UnknownLanguageCode(
                    f"line {lineno}: {code!r} is not a 2-3 letter lowercase code"
                )
        if symmetric not in ("0", "1"):
            raise MalformedRow(lineno, f"symmetric flag must be 0 or 1, got {symmetric!r}")
        rows.append(
            (
                TermNode(src_surface, src_lang),
                TermNode(dst_surface, dst_lang),
                lexicon,
                symmetric == "1",
            )
        )
    return graph_from_pairs(rows)


@dataclass(frozen=True)
class FuzzyResult:
    term: TermNode
    score: Fraction

    @property
    def percent(self) -> str:
        return f"{float(self.score) * 100:.2f}%"


def _cycle_members(graph: SynonymyGraph, seed: TermNode, max_length: int) -> set[TermNode]:
    """Vertices lying on some simple cycle through the seed with at most
    max_length edges (depth-bounded DFS over simple paths from the seed)."""
    members: set[TermNode] = set()
    path: list[TermNode] = []
    on_path: set[TermNode] = {seed}

    def extend(vertex: TermNode) -> None:
        edges_used = len(path)
        for nxt in graph.outgoing(vertex):
            if nxt == seed:
                if edges_used >= 1 and edges_used + 1 <= max_length:
                    members.update(path)
                continue
            if nxt in on_path or edges_used + 1 > max_length - 1:
                continue
            path.append(nxt)
            on_path.add(nxt)
            extend(nxt)
            on_path.discard(nxt)
            path.pop()

    extend(seed)
    return members


def _validate_terms(terms: Sequence[str], minimum: int, what: str) -> None:
    if len(terms) < minimum:
        raise EmptyInput(f"{what} requires at least {minimum} term(s)")
    duplicates = {t for t, n in Counter(terms).items() if n > 1}
    if duplicates:
        raise DuplicateSeed(f"duplicated term(s): {sorted(duplicates)}")


def _resolve_seeds(
    seeds: Sequence[str], language: str, graph: SynonymyGraph
) -> list[TermNode]:
    present = []
    for surface in seeds:
        node = TermNode(surface, language)
        if node in graph:
            present.append(node)
        else:
            warnings.warn(
                f"seed {surface!r} ({language}) is not in the graph",
                SeedNotInGraphWarning,
                stacklevel=3,
            )
    return present


def syn_extract(
    seeds: Sequence[str],
    level: int,
    graph: SynonymyGraph,
    language: str = "ar",
) -> list[FuzzyResult]:
    """Candidates sharing the seed language that cycle with the seeds.

    score(c) = |{seeds s : a simple cycle through s of length <= 2*level
    contains c}| / |seeds|; zero-score candidates are omitted; ordering is
    score descending then surface ascending.  Absent seeds produce a
    SeedNotInGraphWarning and support nothing (they still count in the
    denominator).
    """
    if level < 1:
        raise ValueError(f"level must be a positive integer, got {level}")
    _validate_terms(seeds, 1, "syn_extract")
    seed_nodes = {TermNode(s, language) for s in seeds}
    support: dict[TermNode, int] = {}
    for seed in _resolve_seeds(seeds, language, graph):
        for member in _cycle_members(graph, seed, 2 * level):
            if member.language == language and member not in seed_nodes:
                support[member] = support.get(member, 0) + 1
    results = [
        FuzzyResult(term, Fraction(count, len(seeds)))
        for term, count in support.items()
    ]
    results.sort(key=lambda r: (-r.score, r.term.surface))
    return results


def syn_eval(
    terms: Sequence[str],
    level: int,
    graph: SynonymyGraph,
    language: str = "ar",
) -> list[FuzzyResult]:
    """Score each input term against the remaining terms as seeds; every
    input term is returned (scores may be zero)."""
    if level < 1:
        raise ValueError(f"level must be a positive integer, got {level}")
    _validate_terms(terms, 2, "syn_eval")
    term_nodes = [TermNode(t, language) for t in terms]
    members_of: dict[TermNode, set[TermNode]] = {}
    for surface, node in zip(terms, term_nodes):
        if node in graph:
            members_of[node] = _cycle_members(graph, node, 2 * level)
        else:
            warnings.warn(
                f"term {surface!r} ({language}) is not in the graph",
                SeedNotInGraphWarning,
                stacklevel=2,
            )
            members_of[node] = set()
    results = []
    for node in term_nodes:
        others = [n for n in term_nodes if n != node]
        supporting = sum(1 for seed in others if node in members_of[seed])
        results.append(FuzzyResult(node, Fraction(supporting, len(others))))
    results.sort(key=lambda r: (-r.score, r.term.surface))
    return results

"""Multilingual synonymy graph and cycle-based synonym extraction.

Terms are (surface, language) nodes; translation/synonymy pairs are
directed edges.  A term *supports* a node when some simple directed
cycle through the term (no repeated vertex except the term) of length
<= 2*level contains the node; a term never supports itself, and a term
absent from the graph supports nothing.  Scores are exact fractions:

- ``syn_extract``: a candidate in the seed language that is not a seed
  scores (supporting seeds) / |seeds|;
- ``syn_eval``: each input term scores (supporting other terms) /
  (|terms| - 1).
"""

from __future__ import annotations

import re
import warnings
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
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
from .evaluation import format_percent, json_line

_LANGUAGE_RE = re.compile(r"^[a-z]{2,3}$")


@dataclass(frozen=True)
class TermNode:
    surface: str
    language: str


@dataclass(frozen=True)
class SynonymyGraph:
    """Directed term graph; parallel edges are collapsed with their source
    lexicon labels merged.  Immutable after build.

    Build one with graph_from_pairs or build_graph only: they also fill
    the three private indexes that the cycle search walks.

    - The id table: each node has one integer id, so
      _nodes_by_id[_node_ids[n]] == n for every node.
    - _adjacency[i] holds the ids of outgoing(_nodes_by_id[i]) in the
      same order.
    - _predecessors[i] holds each id with an edge into i, once.

    The indexes take no part in equality or repr."""

    nodes: frozenset[TermNode]
    successors: dict[TermNode, tuple[TermNode, ...]]
    edge_labels: dict[tuple[TermNode, TermNode], frozenset[str]]
    _nodes_by_id: tuple[TermNode, ...] = field(compare=False, repr=False)
    _node_ids: dict[TermNode, int] = field(compare=False, repr=False)
    _adjacency: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    _predecessors: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    # equality covers the successor and label dicts, which cannot hash
    __hash__ = None

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


@_tsv.collector_paused()
def graph_from_pairs(pairs) -> SynonymyGraph:
    """Build from in-memory rows: (source node, target node, lexicon_id,
    symmetric).  Self-loops are skipped.  Each node gets its id the first
    time it appears; successors are ordered by (language, surface).  Equal
    label sets are one shared frozenset."""
    ids: dict[TermNode, int] = {}
    edges: dict[tuple[int, int], set[str]] = {}
    for src, dst, lexicon, symmetric in pairs:
        s = ids.setdefault(src, len(ids))
        d = ids.setdefault(dst, len(ids))
        if s == d:
            continue
        edges.setdefault((s, d), set()).add(lexicon)
        if symmetric:
            edges.setdefault((d, s), set()).add(lexicon)
    by_id = tuple(ids)
    order = [(n.language, n.surface) for n in by_id]
    targets: dict[int, list[int]] = {}
    sources: list[list[int]] = [[] for _ in by_id]
    for s, d in edges:
        targets.setdefault(s, []).append(d)
        sources[d].append(s)
    adjacency: list[tuple[int, ...]] = [()] * len(by_id)
    for s, ds in targets.items():
        adjacency[s] = tuple(sorted(ds, key=order.__getitem__))
    label_sets: dict[frozenset[str], frozenset[str]] = {}
    edge_labels: dict[tuple[TermNode, TermNode], frozenset[str]] = {}
    for (s, d), labels in edges.items():
        key = frozenset(labels)
        edge_labels[by_id[s], by_id[d]] = label_sets.setdefault(key, key)
    return SynonymyGraph(
        frozenset(by_id),
        {by_id[s]: tuple(by_id[d] for d in adjacency[s]) for s in targets},
        edge_labels,
        _nodes_by_id=by_id,
        _node_ids=ids,
        _adjacency=tuple(adjacency),
        _predecessors=tuple(map(tuple, sources)),
    )


@_tsv.collector_paused()
def build_graph(source: str | Path | Iterable[str]) -> SynonymyGraph:
    """Pair TSV (a path or its lines): source_surface, source_lang,
    target_surface, target_lang, lexicon_id, symmetric{0|1}.  Symmetric
    rows expand to both directions.  Equal (surface, language) pairs come
    back as one shared TermNode for the duration of one load."""
    nodes: dict[tuple[str, str], TermNode] = {}

    def node(surface: str, language: str) -> TermNode:
        key = (surface, language)
        found = nodes.get(key)
        if found is None:
            found = nodes[key] = TermNode(surface, language)
        return found

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
                node(src_surface, src_lang),
                node(dst_surface, dst_lang),
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
        return format_percent(float(self.score))

    def render_text(self) -> str:
        return f"{self.term.surface}\t{self.percent}"

    def render_records(self) -> str:
        """One JSON line; the exact score becomes a float."""
        return json_line({"surface": self.term.surface, "language": self.term.language,
                          "score": float(self.score)})


def _cycle_member_ids(graph: SynonymyGraph, start: int, max_length: int) -> set[int]:
    """Ids of the vertices lying on some simple cycle through the seed id
    with at most max_length edges.

    Cost: an iterative DFS over simple paths from the seed down to depth
    max_length - 3 (edges from the seed), plus one set intersection per
    successor of each vertex at that depth.  A pushed vertex that is a
    predecessor of the seed closes a cycle.  The last two steps are not
    walked: a successor b of a vertex at the deepest depth closes a cycle
    if it is a predecessor, and the predecessors among b's successors,
    less the path, close the longest ones."""
    adjacency = graph._adjacency
    back = set(graph._predecessors[start])
    if max_length < 3:
        return back.intersection(adjacency[start]) if max_length == 2 else set()
    # a set: a per-node flag list costs one allocation of the node count
    # per seed, more than the whole level-2 search
    on_path = {start}
    members: set[int] = set()
    path: list[int] = []  # the vertices after the seed, one per pushed iterator

    def close(top: int) -> None:
        for b in adjacency[top]:
            if b in on_path:
                continue
            closing = back.intersection(adjacency[b])
            if closing:
                closing.difference_update(path)
            if closing or b in back:
                members.update(path)
                members.add(b)
                members.update(closing)

    deepest = max_length - 3
    if deepest == 0:
        close(start)
        return members
    stack = [iter(adjacency[start])]
    while stack:
        for nxt in stack[-1]:
            if nxt in on_path:
                continue
            path.append(nxt)
            on_path.add(nxt)
            if nxt in back:
                members.update(path)
            if len(path) < deepest:
                stack.append(iter(adjacency[nxt]))
                break
            close(nxt)
            on_path.remove(path.pop())
        else:
            stack.pop()
            if path:
                on_path.remove(path.pop())
    return members


def _seed_support(
    terms: Sequence[str],
    level: int,
    graph: SynonymyGraph,
    language: str,
    caller: str,
    minimum: int,
    noun: str,
) -> Counter[int]:
    """Check the level (an int, not a bool, at least 1), then the terms;
    then count, for each node id, the terms that support it.  Each absent
    term gets a SeedNotInGraphWarning attributed to the code that called
    syn_extract or syn_eval."""
    if isinstance(level, bool) or not isinstance(level, int) or level < 1:
        raise ValueError(f"level must be a positive integer, got {level!r}")
    if len(terms) < minimum:
        raise EmptyInput(f"{caller} requires at least {minimum} term(s)")
    duplicates = {t for t, n in Counter(terms).items() if n > 1}
    if duplicates:
        raise DuplicateSeed(f"duplicated term(s): {sorted(duplicates)}")
    node_ids = graph._node_ids
    support: Counter[int] = Counter()
    for surface in terms:
        start = node_ids.get(TermNode(surface, language))
        if start is not None:
            support.update(_cycle_member_ids(graph, start, 2 * level))
        else:
            warnings.warn(
                f"{noun} {surface!r} ({language}) is not in the graph",
                SeedNotInGraphWarning,
                stacklevel=3,
            )
    return support


def syn_extract(
    seeds: Sequence[str],
    level: int,
    graph: SynonymyGraph,
    language: str = "ar",
) -> list[FuzzyResult]:
    """Candidates sharing the seed language that cycle with the seeds,
    ordered by score descending then surface ascending; zero-score
    candidates are omitted.  An absent seed warns and still counts in the
    denominator."""
    support = _seed_support(seeds, level, graph, language, "syn_extract", 1, "seed")
    nodes = graph._nodes_by_id
    # a node in the seed language with a seed's surface is that seed
    seed_surfaces = set(seeds)
    ranked = [
        (count, node)
        for i, count in support.items()
        if (node := nodes[i]).language == language and node.surface not in seed_surfaces
    ]
    # the denominator is fixed, so the counts rank as the scores do
    ranked.sort(key=lambda c: (-c[0], c[1].surface))
    return [FuzzyResult(node, Fraction(count, len(seeds))) for count, node in ranked]


def syn_eval(
    terms: Sequence[str],
    level: int,
    graph: SynonymyGraph,
    language: str = "ar",
) -> list[FuzzyResult]:
    """Score each input term against the remaining terms as seeds; every
    input term is returned (scores may be zero)."""
    support = _seed_support(terms, level, graph, language, "syn_eval", 2, "term")
    node_ids = graph._node_ids
    nodes = [TermNode(t, language) for t in terms]
    # an absent term has no id; the Counter reads None as zero support
    results = [
        FuzzyResult(n, Fraction(support[node_ids.get(n)], len(terms) - 1)) for n in nodes
    ]
    results.sort(key=lambda r: (-r.score, r.term.surface))
    return results

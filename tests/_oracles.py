"""Independent reference implementations used as test oracles, plus the
random generators they share.  Everything here is deliberately written
with different structure than the library code it checks."""

from __future__ import annotations

import itertools
import math
import random
import re
import unicodedata
from fractions import Fraction

from aranlp import script
from aranlp.synonymy import TermNode, graph_from_pairs

VOWEL_CODEPOINTS = "ًٌٍَُِْ"
LETTERS = sorted(script.ARABIC_LETTERS)


def random_token(rng: random.Random, max_letters: int = 6) -> str:
    """A valid Arabic token: letters with optional vowel and shaddah, in
    canonical (NFC) mark order."""
    chars = []
    for _ in range(rng.randint(1, max_letters)):
        chars.append(rng.choice(LETTERS))
        marks = ""
        if rng.random() < 0.5:
            marks += rng.choice(VOWEL_CODEPOINTS)
        if rng.random() < 0.2:
            marks += script.SHADDAH
        chars.append("".join(sorted(marks, key=unicodedata.combining)))
    return unicodedata.normalize("NFC", "".join(chars))


def reference_decode(row) -> list[tuple[int, int]]:
    """IOB oracle: spans are the maximal [BI]I* runs of the label string."""
    return [m.span() for m in re.finditer(r"[BI]I*", "".join(row))]


def reference_flat(spans, type_order):
    """Flat-projection oracle: O(n^2) re-selection loop."""
    order = {t: i for i, t in enumerate(type_order)}
    remaining = list(spans)
    chosen = []
    while remaining:
        best = min(remaining, key=lambda s: (-(s.end - s.start), s.start, order[s.type]))
        chosen.append(best)
        remaining = [
            s for s in remaining
            if s is not best and not (s.start < best.end and best.start < s.end)
        ]
    return sorted(chosen, key=lambda s: (s.start, s.end, order[s.type]))


def reference_gazetteer_rows(gazetteer, types, tokens, max_tokens=5) -> dict:
    """Gazetteer-tagging oracle: an independent scan per type.  Each type
    walks the sentence on its own; at every position it tries the widest
    space-joined n-gram first, and a hit of that type labels it B I...
    and jumps past it."""
    tokens = list(tokens)
    rows = {}
    for type_name in types:
        row = ["O"] * len(tokens)
        pos = 0
        while pos < len(tokens):
            width = next(
                (w for w in range(min(max_tokens, len(tokens) - pos), 0, -1)
                 if gazetteer.get(" ".join(tokens[pos:pos + w])) == type_name),
                0,
            )
            if width:
                row[pos:pos + width] = ["B"] + ["I"] * (width - 1)
                pos += width
            else:
                pos += 1
        rows[type_name] = tuple(row)
    return rows


def spans_overlap(a, b) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def oracle_assignment(hits):
    """Multi-word assignment oracle: enumerate every non-overlapping subset
    of (start, end) hits and return the unique one in which each excluded
    hit overlaps a kept hit of strictly higher priority (wider n first,
    then smaller start)."""
    def priority(h):
        return (-(h[1] - h[0]), h[0])

    consistent = []
    for r in range(len(hits) + 1):
        for subset in itertools.combinations(hits, r):
            if any(spans_overlap(a, b) for a, b in itertools.combinations(subset, 2)):
                continue
            excluded = [h for h in hits if h not in subset]
            if all(
                any(spans_overlap(h, s) and priority(s) < priority(h) for s in subset)
                for h in excluded
            ):
                consistent.append(set(subset))
    assert len(consistent) == 1, consistent
    return consistent[0]


def oracle_cycle_scores(nodes, edges, seeds, level, language):
    """Synonymy oracle: exhaustive simple-cycle enumeration by trying every
    permutation of intermediate vertices, in exact rational arithmetic."""
    adjacency = {n: set() for n in nodes}
    for src, dst in edges:
        adjacency[src].add(dst)
    max_len = 2 * level

    def members(seed):
        if seed not in adjacency:
            return set()
        found = set()
        others = [n for n in nodes if n != seed]
        for m in range(1, min(max_len - 1, len(others)) + 1):
            for perm in itertools.permutations(others, m):
                chain = (seed, *perm, seed)
                if all(b in adjacency[a] for a, b in zip(chain, chain[1:])):
                    found.update(perm)
        return found

    support = {}
    seed_nodes = set(seeds)
    for seed in seeds:
        for node in members(seed):
            if node.language == language and node not in seed_nodes:
                support[node] = support.get(node, 0) + 1
    return {node: Fraction(count, len(seeds)) for node, count in support.items()}


def random_digraph(rng: random.Random, max_nodes: int = 8, languages=("ar", "en")):
    count = rng.randint(2, max_nodes)
    nodes = [TermNode(f"n{i}", rng.choice(languages)) for i in range(count)]
    edges = set()
    for src in nodes:
        for dst in nodes:
            if src != dst and rng.random() < 0.25:
                edges.add((src, dst))
    return nodes, edges


def digraph_as_graph(nodes, edges):
    """Build a SynonymyGraph; pad edges into a sink keep isolated nodes
    visible to seed resolution without creating any cycle."""
    pairs = [(src, dst, "lex", False) for src, dst in edges]
    return graph_from_pairs(
        pairs + [(n, TermNode("sink", "xx"), "pad", False) for n in nodes]
    )


def oracle_spearman(gold, pred) -> float:
    """Rank-correlation oracle: average ranks via counting, Pearson via
    explicit sums."""
    def ranks(values):
        return [
            1 + sum(1 for w in values if w < v) + (sum(1 for w in values if w == v) - 1) / 2
            for v in values
        ]

    rg, rp = ranks(gold), ranks(pred)
    n = len(rg)
    mg, mp = sum(rg) / n, sum(rp) / n
    cov = sum((a - mg) * (b - mp) for a, b in zip(rg, rp))
    return cov / math.sqrt(
        sum((a - mg) ** 2 for a in rg) * sum((b - mp) ** 2 for b in rp)
    )


def oracle_tf_cosine(s1: str, s2: str) -> float:
    """Dedup oracle: independent dot-product recomputation over raw token
    counts after diacritic stripping."""
    from collections import Counter

    c1 = Counter(script.ar_strip(s1, diacritics=True).split())
    c2 = Counter(script.ar_strip(s2, diacritics=True).split())
    if not c1 and not c2:
        return 1.0
    if not c1 or not c2:
        return 0.0
    dot = sum(c1[t] * c2[t] for t in set(c1) | set(c2))
    return dot / math.sqrt(
        sum(v * v for v in c1.values()) * sum(v * v for v in c2.values())
    )

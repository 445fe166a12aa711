"""Independent reference implementations used as test oracles, plus the
random generators they share.  Everything here is deliberately written
with different structure than the library code it checks."""

from __future__ import annotations

import itertools
import math
import random
import re
import unicodedata
from collections import Counter
from fractions import Fraction

from aranlp import morphology, script
from aranlp.ner import project_flat
from aranlp.textutils import INCOMPATIBLE, JaccardReport, match_words
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


def reference_ner_eval_counts(gold, pred, mode):
    """`aranlp ner eval`'s counting as the command itself once held it:
    the per-type (gold, predicted, correct) counts in type-name order, and
    the overall totals."""
    if mode == "flat":
        order: dict[str, int] = {}
        for sentence in (*gold, *pred):
            for span in sentence:
                order.setdefault(span.type, len(order))
        type_order = sorted(order, key=order.get)
        gold = [project_flat(s, type_order) for s in gold]
        pred = [project_flat(s, type_order) for s in pred]
    # Spans are matched as multisets within each sentence, as span_f1
    # matches them; the counts are then summed per type and overall.
    gold_n, pred_n, correct_n = Counter(), Counter(), Counter()
    for g_spans, p_spans in zip(gold, pred):
        g = Counter((s.start, s.end, s.type) for s in g_spans)
        p = Counter((s.start, s.end, s.type) for s in p_spans)
        gold_n.update(s.type for s in g_spans)
        pred_n.update(s.type for s in p_spans)
        correct_n.update(type_name for _, _, type_name in (g & p).elements())
    per_type = {
        type_name: (gold_n[type_name], pred_n[type_name], correct_n[type_name])
        for type_name in sorted(gold_n | pred_n)
    }
    return per_type, (gold_n.total(), pred_n.total(), correct_n.total())


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


def reference_overlap_score(context, gloss_text, dictionary, eps) -> float:
    """Overlap-verifier oracle: no cache of any kind; both texts are
    analyzed token by token on every call, and a token without a solution
    stands for itself."""
    def lemma_set(text):
        found = set()
        for token in text.split():
            solution = morphology.analyze(token, dictionary).solution
            found.add(token if solution is None else solution.lemma)
        return found

    context_lemmas, gloss_lemmas = lemma_set(context), lemma_set(gloss_text)
    covered = len(gloss_lemmas & context_lemmas) / len(gloss_lemmas) if gloss_lemmas else 0.0
    return eps + (1.0 - 2.0 * eps) * covered


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


def reference_jaccard(set1, set2, mode="diacritic_aware") -> JaccardReport:
    """Jaccard equivalence oracle: the all-pairs union-find that calls
    match_words on every pair of distinct words not yet connected."""
    words = []
    seen = {}
    origin1, origin2 = set(), set()
    for source, origin in ((set1, origin1), (set2, origin2)):
        for w in source:
            idx = seen.get(w)
            if idx is None:
                idx = len(words)
                seen[w] = idx
                words.append(w)
            origin.add(idx)

    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if mode == "diacritic_aware":
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                if find(i) == find(j):
                    continue
                if match_words(words[i], words[j]).relation != INCOMPATIBLE:
                    parent[find(j)] = find(i)

    components = {}
    for idx in range(len(words)):
        root = find(idx)
        in1, in2 = components.get(root, (False, False))
        components[root] = (in1 or idx in origin1, in2 or idx in origin2)
    union_size = len(components)
    intersection_size = sum(1 for in1, in2 in components.values() if in1 and in2)
    similarity = intersection_size / union_size if union_size else 1.0
    return JaccardReport(union_size, intersection_size, similarity)


def reference_cosine_counts(a, na, b, nb) -> float:
    """The dedup cosine over two token Counters with precomputed norms;
    the integer dot product is divided by the product of the norms."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    dot = sum(count * large.get(token, 0) for token, count in small.items())
    return dot / (na * nb)


def reference_remove_duplicates(sentences, threshold=0.8) -> list:
    """Dedup equivalence oracle: every sentence is compared with every kept
    sentence by reference_cosine_counts.  Unlike oracle_tf_cosine it divides
    by the product of the two norms, so its verdicts are bit-identical to
    the library's.  Threshold validation is not repeated here."""
    kept = []
    kept_vectors = []
    for sentence in sentences:
        vector = Counter(script.ar_strip(sentence, diacritics=True).split())
        norm = math.sqrt(sum(c * c for c in vector.values()))
        duplicate = any(
            reference_cosine_counts(vector, norm, other, other_norm) >= threshold
            for other, other_norm in kept_vectors
        )
        if not duplicate:
            kept.append(sentence)
            kept_vectors.append((vector, norm))
    return kept


def reference_mean_pool(vectors) -> list:
    """Mean-pooling equivalence oracle: one generator sum per dimension
    index, in vector order."""
    count = len(vectors)
    return [sum(v[i] for v in vectors) / count for i in range(len(vectors[0]))]


def reference_ar_strip(text, *, diacritics=False, shaddah=False, digits=False,
                       unify_alif=False, special_chars=False, tatweel=False) -> str:
    """Stripping equivalence oracle: the per-character loop that tests the
    six flags in turn, each deletion before alif unification."""
    out = []
    for ch in text:
        category = script._CATEGORY.get(ch)
        if diacritics and category in ("vowel", "mark"):
            continue
        if shaddah and category == "shaddah":
            continue
        if tatweel and category == "tatweel":
            continue
        if digits and ch in script.DIGITS:
            continue
        if special_chars and unicodedata.category(ch)[0] in ("P", "S"):
            continue
        if unify_alif and ch in script.ALIF_VARIANTS:
            out.append(script.ALIF)
            continue
        out.append(ch)
    return "".join(out)

"""Independent reference implementations used as test oracles, plus the
random generators they share.  Everything here is deliberately written
with different structure than the library code it checks."""

from __future__ import annotations

import itertools
import math
import random
import re
import unicodedata
import warnings
from collections import Counter
from collections.abc import Sequence
import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from aranlp import _tsv, morphology, script
from aranlp.errors import DuplicateExactRow, EmptyDictionary, MalformedRow
from aranlp.morphology import MorphDictionary, MorphSolution
from aranlp.ner import EntitySpan, decode_matrix, project_flat, run_tagger
from aranlp.wsd import (
    KIND_ENTITY,
    KIND_MULTIWORD,
    KIND_SINGLEWORD,
    MAX_NGRAM,
    AnnotatedSpan,
    Gloss,
    SenseInventory,
    _crop_to_unclaimed,
    _lemma,
    select_sense,
    verify,
)
from aranlp.textutils import INCOMPATIBLE, JaccardReport, match_words
from aranlp.errors import DuplicateSeed, EmptyInput, SeedNotInGraphWarning
from aranlp.synonymy import FuzzyResult, TermNode, graph_from_pairs

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


def reference_matrix_error(tokens, labels) -> str | None:
    """LabelMatrix's check as it was before rows were shared: every type's
    row on its own, in row order; the message for the first invalid one,
    or None."""
    for type_name, row in labels.items():
        if len(row) != len(tokens):
            return f"row for {type_name!r} has {len(row)} labels for {len(tokens)} tokens"
        bad = sorted(set(row) - set("BIO"))
        if bad:
            return f"row for {type_name!r} has invalid labels {bad}"
    return None


def reference_decode_matrix(labels) -> list:
    """decode_matrix as it was before rows were shared: every type's row
    decoded on its own."""
    return [
        EntitySpan(start, end, type_name)
        for type_name, row in labels.items()
        for start, end in reference_decode(row)
    ]


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
    stands for its NFC form."""
    def lemma_set(text):
        found = set()
        for token in text.split():
            solution = morphology.analyze(token, dictionary).solution
            found.add(unicodedata.normalize("NFC", token) if solution is None else solution.lemma)
        return found

    context_lemmas, gloss_lemmas = lemma_set(context), lemma_set(gloss_text)
    covered = len(gloss_lemmas & context_lemmas) / len(gloss_lemmas) if gloss_lemmas else 0.0
    return eps + (1.0 - 2.0 * eps) * covered


def reference_lemmatize_tokens(tokens: Sequence[str], dictionary: MorphDictionary) -> list[str]:
    """`wsd.lemmatize_tokens` as it was before the lemma memo: one
    `wsd._lemma` per token, each analyzed afresh."""
    return [_lemma(token, dictionary) for token in tokens]


@dataclass(frozen=True)
class NgramSpan:
    start: int
    end: int
    lemmas: tuple[str, ...]

    def __post_init__(self):
        if self.start < 0:
            raise ValueError(f"invalid span ({self.start}, {self.end})")
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


def overlaps_tokens(span: NgramSpan, claimed: set[int]) -> bool:
    return any(t in claimed for t in range(span.start, span.end))


def reference_lookup_multiword(
    spans: Sequence[NgramSpan],
    inventory: SenseInventory,
) -> list[tuple[NgramSpan, tuple[Gloss, ...]]]:
    """Multi-word lookup oracle, `wsd.lookup_multiword` as it was over a
    span list: accept spans whose lemma string keys the multi-word
    inventory, widest n first, left to right; accepted spans consume their
    tokens so overlapping narrower spans are skipped."""
    accepted: list[tuple[NgramSpan, tuple[Gloss, ...]]] = []
    claimed: set[int] = set()
    for span in sorted(spans, key=lambda s: (-s.n, s.start)):
        if span.n < 2:
            continue
        glosses = inventory.multiword.get(span.key)
        if glosses is None or overlaps_tokens(span, claimed):
            continue
        accepted.append((span, glosses))
        claimed.update(range(span.start, span.end))
    accepted.sort(key=lambda item: item[0].start)
    return accepted


def reference_disambiguate(sentence, inventory, ner_tagger, verifier, dictionary):
    """`wsd.disambiguate` as it was before the direct multi-word scan and
    the shared lemma memo: every token lemmatized without a memo, every
    2..5-gram built as an NgramSpan and handed to
    reference_lookup_multiword, and multi-word and single-word hits
    verified in two loops."""
    tokens = sentence.split()
    if not tokens:
        return []
    lemmas = reference_lemmatize_tokens(tokens, dictionary)

    ngrams = generate_ngrams(tokens, lemmas)
    multiword_hits = reference_lookup_multiword(ngrams, inventory)
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


def reference_graph_from_pairs(pairs):
    """graph_from_pairs as it was before the integer id index, verbatim up
    to its return: the public (nodes, successors, edge_labels) it built."""
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
    successors: dict[TermNode, list[TermNode]] = {}
    for src, dst in edges:
        successors.setdefault(src, []).append(dst)
    return (
        frozenset(nodes),
        {
            src: tuple(sorted(dsts, key=lambda n: (n.language, n.surface)))
            for src, dsts in successors.items()
        },
        {pair: frozenset(labels) for pair, labels in edges.items()},
    )


def reference_cycle_members(graph, seed, max_length):
    """The seed's cycle members as the library found them before the
    integer id index, verbatim: a recursive depth-bounded DFS that hashes
    and compares TermNodes."""
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


def reference_syn_eval(terms, level, graph, language="ar"):
    """syn_eval as it was before the seed-support count: each term's member
    set is searched once (by reference_cycle_members), then every term is
    scored by a pass over the other terms.  Its term validation is
    inlined; absent terms warn with the caller of this function as the
    warning's location."""
    if level < 1:
        raise ValueError(f"level must be a positive integer, got {level}")
    if len(terms) < 2:
        raise EmptyInput("syn_eval requires at least 2 term(s)")
    duplicates = {t for t, n in Counter(terms).items() if n > 1}
    if duplicates:
        raise DuplicateSeed(f"duplicated term(s): {sorted(duplicates)}")
    term_nodes = [TermNode(t, language) for t in terms]
    members_of: dict[TermNode, set[TermNode]] = {}
    for surface, node in zip(terms, term_nodes):
        if node in graph:
            members_of[node] = reference_cycle_members(graph, node, 2 * level)
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


def random_digraph(rng: random.Random, max_nodes: int = 8, languages=("ar", "en")):
    count = rng.randint(2, max_nodes)
    nodes = [TermNode(f"n{i}", rng.choice(languages)) for i in range(count)]
    edges = set()
    for src in nodes:
        for dst in nodes:
            if src != dst and rng.random() < 0.25:
                edges.add((src, dst))
    return nodes, edges


def sparse_digraph(rng: random.Random, max_nodes: int = 30, languages=("ar", "en")):
    """Like random_digraph, but with a mean out-degree of 0.8-2.5 whatever
    the size, so graphs of ~30 nodes keep their cycle count small."""
    count = rng.randint(2, max_nodes)
    nodes = [TermNode(f"n{i}", rng.choice(languages)) for i in range(count)]
    probability = min(1.0, rng.uniform(0.8, 2.5) / (count - 1))
    edges = {
        (src, dst) for src in nodes for dst in nodes
        if src != dst and rng.random() < probability
    }
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
    match_words on every pair of distinct words not yet connected; in
    exact mode each word stands for its NFC form."""
    words = []
    seen = {}
    origin1, origin2 = set(), set()
    for source, origin in ((set1, origin1), (set2, origin2)):
        for w in source:
            if mode == "exact":
                w = unicodedata.normalize("NFC", w)
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


def reference_cosine_counts(a, square_a, b, square_b) -> float:
    """The dedup cosine over two token Counters with precomputed squared
    norms; the integer dot product is divided by the square root of the
    product of the squares."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    dot = sum(count * large.get(token, 0) for token, count in small.items())
    return dot / math.sqrt(square_a * square_b)


def reference_remove_duplicates(sentences, threshold=0.8) -> list:
    """Dedup equivalence oracle: every sentence is compared with every kept
    sentence by reference_cosine_counts, all pairs rather than through an
    inverted index, so its verdicts are bit-identical to the library's.
    Each sentence is stripped on its own by reference_ar_strip.  Threshold
    validation is not repeated here."""
    kept = []
    kept_vectors = []
    for sentence in sentences:
        vector = Counter(reference_ar_strip(sentence, diacritics=True).split())
        square = sum(c * c for c in vector.values())
        duplicate = any(
            reference_cosine_counts(vector, square, other, other_square) >= threshold
            for other, other_square in kept_vectors
        )
        if not duplicate:
            kept.append(sentence)
            kept_vectors.append((vector, square))
    return kept


def reference_mean_pool(vectors) -> list:
    """Mean-pooling equivalence oracle: one generator sum per dimension
    index, in vector order."""
    count = len(vectors)
    return [sum(v[i] for v in vectors) / count for i in range(len(vectors[0]))]


def _fnv1a(data: bytes) -> int:
    value = 0xCBF29CE484222325
    for byte in data:
        value = ((value ^ byte) * 0x00000100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


class ReferenceTrigramProvider:
    """Trigram embedding oracle: HashedTrigramProvider's per-token vectors
    as first written, a dense float list per token and one FNV-1a pass over
    every byte of every trigram (``_token_vector`` is that code verbatim,
    except that a lone surrogate encodes by ``surrogatepass`` instead of
    raising UnicodeEncodeError)."""

    def __init__(self, dimension: int):
        self.dimension = dimension

    def _token_vector(self, token: str) -> list:
        vector = [0.0] * self.dimension
        wrapped = f"^{token}$"
        for i in range(len(wrapped) - 2):
            digest = _fnv1a(wrapped[i:i + 3].encode("utf-8", "surrogatepass"))
            sign = 1.0 if digest & (1 << 63) else -1.0
            vector[digest % self.dimension] += sign
        return vector

    def embed(self, sentence: str) -> list:
        return [self._token_vector(t) for t in unicodedata.normalize("NFC", sentence).split()]


def reference_cosine(a, b) -> float:
    """Cosine as first written, with no guard for squares that leave the
    normal float range; the library must match it bit for bit elsewhere."""
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(x * x for x in b))
    value = sum(x * y for x, y in zip(a, b)) / (norm_a * norm_b)
    return max(-1.0, min(1.0, value))


def random_embedding_sentence(rng: random.Random) -> str:
    """1-12 tokens mixing ASCII, Arabic, diacritized Arabic, one-character
    tokens, astral (4-byte UTF-8) characters and decomposed letters that
    NFC composes, joined by assorted whitespace."""
    def token():
        kind = rng.randrange(7)
        if kind == 0:
            return "".join(rng.choices("abcdefghijklmnopqrstuvwxyzABC019", k=rng.randint(1, 8)))
        if kind == 1:
            return "".join(rng.choices(LETTERS, k=rng.randint(1, 8)))
        if kind == 2:
            return "".join(
                letter + rng.choice(VOWEL_CODEPOINTS)
                for letter in rng.choices(LETTERS, k=rng.randint(1, 6))
            )
        if kind == 3:
            return rng.choice(LETTERS + list("az9"))
        if kind == 4:
            # an astral character alone, ending a trigram, and mid-token
            astral = chr(rng.randint(0x1D400, 0x1D7FF))
            return rng.choice([astral, "ab" + astral, rng.choice(LETTERS) + astral + "x"])
        if kind == 5:
            return rng.choice(["e\u0301", "a\u0308b", "\u0627\u0653"])
        return random_token(rng)

    separators = [" ", "  ", "\t", "\n"]
    parts = [token() for _ in range(rng.randint(1, 12))]
    return "".join(part + rng.choice(separators) for part in parts).strip()


def reference_load_table() -> tuple[str, dict[str, str], dict[str, str]]:
    """`script._load_table` as it was before it read through `_tsv.rows`:
    a hand-written line loop that takes the version from any comment line
    naming one."""
    version = "unversioned"
    categories: dict[str, str] = {}
    to_symbol: dict[str, str] = {}
    for lineno, raw in enumerate(_tsv.packaged("buckwalter.tsv"), start=1):
        line = raw.strip("\n")
        if not line or line.startswith("#"):
            if "version" in line:
                version = line.split("version", 1)[1].strip().split()[0].rstrip(",") or version
            continue
        cp_hex, symbol, category = _tsv.fields(lineno, line, 3)
        char = chr(int(cp_hex, 16))
        categories[char] = category
        to_symbol[char] = symbol
    return version, categories, to_symbol


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


def reference_load_dictionary(source, tagset=None, version=None):
    """load_dictionary as it was before the one-pass parse, verbatim: each
    stripped field is normalized on its own, and a set of every row seen
    finds duplicates."""
    if tagset is None:
        tagset = morphology.load_tagset()
    if isinstance(source, (str, Path)) and version is None:
        version = Path(source).name
    grouped: dict[str, list[MorphSolution]] = {}
    seen_rows: set[tuple[str, str, str, str]] = set()
    for lineno, fields in _tsv.rows(source, 5):
        wordform, lemma, pos, root, freq_text = (
            unicodedata.normalize("NFC", f.strip()) for f in fields
        )
        if not wordform or not lemma:
            raise MalformedRow(lineno, "wordform and lemma must be non-empty")
        if tagset and pos not in tagset:
            raise MalformedRow(lineno, f"pos {pos!r} is not in the configured tag set")
        try:
            frequency = int(freq_text)
        except ValueError:
            raise MalformedRow(lineno, f"frequency {freq_text!r} is not an integer") from None
        if frequency < 0:
            raise MalformedRow(lineno, f"frequency must be non-negative, got {frequency}")
        row_key = (wordform, lemma, pos, root)
        if row_key in seen_rows:
            raise DuplicateExactRow(
                f"line {lineno}: duplicate solution for {wordform!r}: <{lemma}, {pos}, {root}>"
            )
        seen_rows.add(row_key)
        grouped.setdefault(wordform, []).append(MorphSolution(lemma, pos, root, frequency))
    if not grouped:
        raise EmptyDictionary("dictionary has no data rows")
    entries = {
        wordform: tuple(sorted(sols, key=lambda s: (-s.frequency, s.lemma, s.pos, s.root)))
        for wordform, sols in grouped.items()
    }
    return MorphDictionary(entries, version or "unversioned")


# White space that str.strip removes; NFC maps U+2000 and U+2001 to U+2002
# and U+2003.
EDGE_SPACES = " \u00a0\u2000\u2001\u3000"
# Letters that NFC composes from a base and a combining mark.
DECOMPOSABLE = "آأإؤئé"


def random_dictionary_field(rng: random.Random, pool: list[str]) -> str:
    """A field drawn from ``pool``, sometimes decomposed (NFD), led by a
    combining mark, or padded with white space at either edge."""
    text = rng.choice(pool)
    if rng.random() < 0.3:
        text = unicodedata.normalize("NFD", text)
    if rng.random() < 0.1:
        text = rng.choice(VOWEL_CODEPOINTS + script.SHADDAH) + text
    if rng.random() < 0.3:
        text = "".join(rng.choices(EDGE_SPACES, k=rng.randint(1, 2))) + text
    if rng.random() < 0.3:
        text += "".join(rng.choices(EDGE_SPACES, k=rng.randint(1, 2)))
    return text


def random_dictionary_lines(rng: random.Random, tags: list[str], rows: int = 30) -> list[str]:
    """Data lines (wordform, lemma, pos, root, frequency) over small pools,
    so wordforms repeat and frequencies tie, mixed with comment and blank
    lines.  No two data lines name the same solution after stripping and
    NFC."""
    words = [random_token(rng, 3) for _ in range(rng.randint(2, 8))]
    words += [rng.choice(LETTERS) + ch for ch in rng.sample(DECOMPOSABLE, 2)]
    lemmas = [random_token(rng, 3) for _ in range(3)] + [rng.choice(DECOMPOSABLE) + "ب"]
    lines, seen = [], set()
    while len(lines) < rows:
        roll = rng.random()
        if roll < 0.08:
            lines.append("#" + rng.choice(["", " comment", "\tكتب\tx"]))
            continue
        if roll < 0.15:
            lines.append("".join(rng.choices(EDGE_SPACES, k=rng.randint(0, 3))))
            continue
        fields = [
            random_dictionary_field(rng, words),
            random_dictionary_field(rng, lemmas),
            rng.choice(tags),
            random_dictionary_field(rng, ["كتب", "ذهب", ""]),
            rng.choice(EDGE_SPACES[:1] + "\u3000") * rng.randint(0, 1) + str(rng.randint(0, 4)),
        ]
        key = tuple(unicodedata.normalize("NFC", f.strip()) for f in fields[:4])
        if key in seen:
            continue
        seen.add(key)
        lines.append("\t".join(fields))
    return lines


def one_object_per_value(values) -> bool:
    """Whether equal items of ``values`` are one object: as many distinct
    ids as distinct values.  The items must stay alive while it runs."""
    values = list(values)
    return len({id(v) for v in values}) == len(set(values))


def plain_dataclass_twin(cls: type) -> type:
    """A plain ``@dataclass(frozen=True)`` with the fields, defaults and
    ``__post_init__`` of the record ``cls``: the class as it was declared
    before it became a slotted record."""
    fields = [
        (f.name, f.type) if f.default is dataclasses.MISSING
        else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    namespace = {}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True)

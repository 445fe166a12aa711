"""Seeded input generators for the three benchmark workloads.

Everything here is independent of ``aranlp``: the inputs are written as
the TSV and text files the library's public loaders read, plus a
``gold.json`` with the expected outputs that the measuring process checks
against.  The same seed always produces byte-identical files.

Token pools are disjoint (every name, multi-word expression, lemma and
filler draws fresh strings from one shared pool), so the planted
annotation is the only one the pipeline can produce.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# The 28 basic Arabic letters; no alif variants, so unify_alif never matters.
LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"
VOWELS = "ًٌٍَُِْ"  # fathatan .. sukun
SHADDAH = "ّ"

# A subset of the packaged 40-tag inventory, which load_dictionary checks.
POS_TAGS = (
    "noun", "noun_prop", "noun_num", "adj", "adj_comp", "adv", "pron", "pron_dem",
    "verb", "verb_pseudo", "part", "part_neg", "prep", "conj", "conj_sub", "interj",
    "abbrev", "digit", "det", "case_marker",
)
ENTITY_TYPES = ("PERS", "ORG", "LOC", "GPE")

DICTIONARY_ENTRIES = 100_000
SECOND_SOLUTION_SHARE = 0.1

ANNOTATE_SENTENCES = 3_000
GAZETTEER_NAMES = 20_000
MULTIWORD_KEYS = 5_000
SINGLEWORD_LEMMAS = 10_000
COMMON_FILLERS = 2_000

LEXICON_LINES = 5_000
LEXICON_LINE_TOKENS = 12
LEXICON_SYN_EVERY = 50  # one op in 50 is a synonym query
SYN_GROUPS = 200
SYN_SEEDS = 3
SYN_CANDIDATES = 2
GRAPH_NODES = 5_000
GRAPH_PAIRS = 15_000

TEXTSIM_VOCAB = 3_000
TEXTSIM_JACCARD = 40
TEXTSIM_DEDUP = 40
TEXTSIM_RELATED = 920
JACCARD_WORDS = 30
DEDUP_BLOCK = 200
DEDUP_DUPLICATES = 60
SENTENCE_TOKENS = 12


class Pool:
    """Fresh, never repeated Arabic-letter strings."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self, low: int = 4, high: int = 8) -> str:
        while True:
            word = "".join(self.rng.choices(LETTERS, k=self.rng.randint(low, high)))
            if word not in self.used:
                self.used.add(word)
                return word


def diacritize(rng: random.Random, word: str) -> str:
    """Attach vowel marks (and now and then a shaddah) to some letters;
    at least one mark, so the result always differs from the input."""
    while True:
        out = []
        for ch in word:
            out.append(ch)
            if rng.random() < 0.6:
                out.append(rng.choice(VOWELS))
            if rng.random() < 0.08:
                out.append(SHADDAH)
        text = "".join(out)
        if text != word:
            return text


def _dictionary(rng: random.Random, pool: Pool, special: list[tuple[str, str]]):
    """c08-style dictionary rows: wordform, lemma, pos, root, frequency.

    ``special`` holds (surface, lemma) pairs that must be present; the rest
    are fillers whose lemma is the wordform itself.  About one wordform in
    ten gets a second, less frequent solution, so the head solution is
    never decided by a tie.  Returns (rows, expected) where expected maps a
    wordform to (head solution, solution count).
    """
    rows: list[str] = []
    expected: dict[str, tuple[tuple[str, str, str, int], int]] = {}
    fillers: list[str] = []
    entries = list(special)
    while len(entries) < DICTIONARY_ENTRIES:
        word = pool.fresh()
        entries.append((word, word))
        fillers.append(word)
    for surface, lemma in entries:
        head = (lemma, rng.choice(POS_TAGS), surface[:3], rng.randint(5_000, 9_999))
        rows.append("\t".join(map(str, (surface, *head))))
        count = 1
        if rng.random() < SECOND_SOLUTION_SHARE:
            second = (pool.fresh(), rng.choice(POS_TAGS), surface[:3], rng.randint(1, 4_999))
            rows.append("\t".join(map(str, (surface, *second))))
            count = 2
        expected[surface] = (head, count)
    rng.shuffle(rows)
    return rows, expected, fillers


def _write(out: Path, name: str, lines) -> None:
    (out / name).write_text("".join(f"{line}\n" for line in lines), "utf-8")


def generate_annotate(seed: int, out: Path) -> dict:
    rng = random.Random(seed)
    pool = Pool(rng)

    names = []
    for i in range(GAZETTEER_NAMES):
        tokens = tuple(pool.fresh() for _ in range(rng.randint(1, 5)))
        names.append((tokens, ENTITY_TYPES[i % len(ENTITY_TYPES)]))

    special: list[tuple[str, str]] = []
    expressions = []
    for _ in range(MULTIWORD_KEYS):
        width = rng.randint(2, 5)
        surfaces = [pool.fresh() for _ in range(width)]
        lemmas = [pool.fresh() for _ in range(width)]
        special.extend(zip(surfaces, lemmas))
        expressions.append((surfaces, " ".join(lemmas)))
    words = []
    for _ in range(SINGLEWORD_LEMMAS):
        surface, lemma = pool.fresh(), pool.fresh()
        special.append((surface, lemma))
        words.append((surface, lemma))
    rows, _, fillers = _dictionary(rng, pool, special)
    common = fillers[:COMMON_FILLERS]

    inventory = []
    gloss_ids: dict[str, list[str]] = {}
    gloss_count = 0
    for kind, key in [("MW", e[1]) for e in expressions] + [("SW", w[1]) for w in words]:
        ids = []
        for _ in range(rng.randint(2, 4)):
            gloss_id = f"g{gloss_count}"
            gloss_count += 1
            text = " ".join(rng.choice(common) for _ in range(rng.randint(5, 8)))
            inventory.append(f"{kind}\t{key}\t{gloss_id}\t{text}")
            ids.append(gloss_id)
        gloss_ids[key] = ids

    def maybe_diacritize(word: str) -> str:
        return diacritize(rng, word) if rng.random() < 0.24 else word

    # Segment weights give about 10% entity, 20% multi-word, 25% single-word,
    # 40% in-vocabulary filler and 5% out-of-vocabulary filler tokens.
    segments = ("entity", "multiword", "singleword", "filler", "oov")
    weights = (0.042, 0.072, 0.316, 0.506, 0.063)
    sentences: list[str] = []
    gold: list[list] = []
    seen: set[str] = set()
    while len(sentences) < ANNOTATE_SENTENCES:
        target = rng.randint(10, 20)
        tokens: list[str] = []
        spans: list[list] = []
        while len(tokens) < target:
            room = target - len(tokens)
            segment = rng.choices(segments, weights)[0]
            if segment == "entity":
                name, type_name = rng.choice(names)
                if len(name) <= room:
                    spans.append([len(tokens), len(tokens) + len(name), "entity", type_name])
                    tokens.extend(name)
                    continue
            elif segment == "multiword":
                surfaces, key = rng.choice(expressions)
                if len(surfaces) <= room:
                    spans.append([len(tokens), len(tokens) + len(surfaces), "multiword",
                                  gloss_ids[key]])
                    tokens.extend(maybe_diacritize(s) for s in surfaces)
                    continue
            elif segment == "singleword":
                surface, lemma = rng.choice(words)
                spans.append([len(tokens), len(tokens) + 1, "singleword", gloss_ids[lemma]])
                tokens.append(maybe_diacritize(surface))
                continue
            elif segment == "oov":
                tokens.append(pool.fresh())
                continue
            tokens.append(maybe_diacritize(rng.choice(common)))
        sentence = " ".join(tokens)
        if sentence in seen:
            continue
        seen.add(sentence)
        sentences.append(sentence)
        gold.append(spans)

    _write(out, "dictionary.tsv", rows)
    _write(out, "gazetteer.tsv", (f"{' '.join(t)}\t{ty}" for t, ty in names))
    _write(out, "inventory.tsv", inventory)
    _write(out, "sentences.txt", sentences)
    (out / "gold.json").write_text(json.dumps(gold, ensure_ascii=False), "utf-8")
    return {
        "dictionary_entries": DICTIONARY_ENTRIES,
        "gazetteer_names": GAZETTEER_NAMES,
        "multiword_keys": MULTIWORD_KEYS,
        "singleword_lemmas": SINGLEWORD_LEMMAS,
        "sentences": len(sentences),
        "tokens": sum(len(s.split()) for s in sentences),
    }


def generate_lexicon(seed: int, out: Path) -> dict:
    rng = random.Random(seed)
    pool = Pool(rng)
    rows, expected, fillers = _dictionary(rng, pool, [])

    lines = []
    gold_lines = []
    for _ in range(LEXICON_LINES):
        tokens, gold = [], []
        for _ in range(LEXICON_LINE_TOKENS):
            oov = rng.random() < 0.2
            word = pool.fresh() if oov else rng.choice(fillers)
            marked = rng.random() < 0.4
            tokens.append(diacritize(rng, word) if marked else word)
            if oov:
                gold.append(["oov"])
            else:
                head, count = expected[word]
                gold.append(["stripped" if marked else "exact", *head, count])
        lines.append(" ".join(tokens))
        gold_lines.append(gold)

    # Planted level-2 cycles: seed -> en -> candidate -> en -> seed, for every
    # seed and candidate of a group, so each candidate is supported by all
    # seeds of its group.
    pairs = []
    groups = []
    en_count = 0
    ar_nodes, en_nodes = [], []
    for _ in range(SYN_GROUPS):
        seeds = [pool.fresh() for _ in range(SYN_SEEDS)]
        candidates = [pool.fresh() for _ in range(SYN_CANDIDATES)]
        ar_nodes.extend(seeds + candidates)
        for s in seeds:
            for c in candidates:
                x, y = f"en{en_count}", f"en{en_count + 1}"
                en_count += 2
                en_nodes.extend((x, y))
                pairs.append((s, "ar", x, "en"))
                pairs.append((x, "en", c, "ar"))
                pairs.append((c, "ar", y, "en"))
                pairs.append((y, "en", s, "ar"))
        groups.append([seeds, candidates])
    planted = len(pairs)
    while len(ar_nodes) + len(en_nodes) < GRAPH_NODES:
        if rng.random() < 0.5:
            ar_nodes.append(pool.fresh())
        else:
            en_nodes.append(f"en{en_count}")
            en_count += 1
    nodes = [(n, "ar") for n in ar_nodes] + [(n, "en") for n in en_nodes]
    rows_graph = [f"{a}\t{la}\t{b}\t{lb}\tplanted\t0" for a, la, b, lb in pairs]
    while len(rows_graph) < GRAPH_PAIRS:
        (a, la), (b, lb) = rng.sample(nodes, 2)
        rows_graph.append(f"{a}\t{la}\t{b}\t{lb}\tlex{rng.randint(1, 3)}\t{rng.randint(0, 1)}")
    rng.shuffle(rows_graph)

    _write(out, "dictionary.tsv", rows)
    _write(out, "pairs.tsv", rows_graph)
    _write(out, "lines.txt", lines)
    (out / "gold.json").write_text(
        json.dumps({"lines": gold_lines, "groups": groups}, ensure_ascii=False), "utf-8"
    )
    return {
        "dictionary_entries": DICTIONARY_ENTRIES,
        "lines": LEXICON_LINES,
        "tokens": LEXICON_LINES * LEXICON_LINE_TOKENS,
        "graph_nodes": len(nodes),
        "graph_pairs": len(rows_graph),
        "planted_pairs": planted,
        "syn_groups": SYN_GROUPS,
    }


def generate_textsim(seed: int, out: Path) -> dict:
    rng = random.Random(seed)
    pool = Pool(rng)
    vocab = [pool.fresh(3, 7) for _ in range(TEXTSIM_VOCAB)]

    def marked(word: str) -> str:
        return diacritize(rng, word) if rng.random() < 0.7 else word

    def sentence() -> list[str]:
        return [marked(w) for w in rng.sample(vocab, SENTENCE_TOKENS)]

    jaccard_rows = []
    for _ in range(TEXTSIM_JACCARD):
        first = rng.sample(vocab, JACCARD_WORDS)
        shared = rng.sample(first, JACCARD_WORDS // 2)
        second = shared + rng.sample(vocab, JACCARD_WORDS - len(shared))
        rng.shuffle(second)
        jaccard_rows.append(
            " ".join(marked(w) for w in first) + "\t" + " ".join(marked(w) for w in second)
        )

    blocks = []
    for _ in range(TEXTSIM_DEDUP):
        duplicate_at = set(rng.sample(range(1, DEDUP_BLOCK), DEDUP_DUPLICATES))
        bases: list[list[str]] = []
        block: list[str] = []
        for position in range(DEDUP_BLOCK):
            if position in duplicate_at:
                source = list(rng.choice(bases))
                style = rng.randrange(5)
                if style == 0:  # shuffled
                    rng.shuffle(source)
                elif style == 4:  # vowels redrawn; identical once vowels are stripped
                    source = [revowel(rng, w) for w in source]
                else:
                    # 1-3 tokens replaced: cosine 11/12, 10/12 or 9/12, on
                    # both sides of the default 0.8 threshold
                    for i in rng.sample(range(len(source)), style):
                        source[i] = marked(rng.choice(vocab))
                block.append(" ".join(source))
            else:
                tokens = sentence()
                bases.append(tokens)
                block.append(" ".join(tokens))
        blocks.append(block)

    related = []
    for _ in range(TEXTSIM_RELATED):
        first = sentence()
        second = first[: rng.randint(0, SENTENCE_TOKENS)]
        second += sentence()[: SENTENCE_TOKENS - len(second)]
        related.append(" ".join(first) + "\t" + " ".join(second))

    schedule = (["jaccard"] * TEXTSIM_JACCARD + ["dedup"] * TEXTSIM_DEDUP
                + ["related"] * TEXTSIM_RELATED)
    rng.shuffle(schedule)

    _write(out, "jaccard.tsv", jaccard_rows)
    _write(out, "dedup.txt", ("\n".join(b) + "\n" for b in blocks))
    _write(out, "related.tsv", related)
    (out / "gold.json").write_text(json.dumps({"schedule": schedule}), "utf-8")
    return {
        "vocabulary": TEXTSIM_VOCAB,
        "jaccard_calls": TEXTSIM_JACCARD,
        "jaccard_words": f"{JACCARD_WORDS}+{JACCARD_WORDS}",
        "dedup_calls": TEXTSIM_DEDUP,
        "dedup_block": DEDUP_BLOCK,
        "dedup_planted": DEDUP_DUPLICATES,
        "relatedness_pairs": TEXTSIM_RELATED,
        "sentence_tokens": SENTENCE_TOKENS,
    }


def revowel(rng: random.Random, word: str) -> str:
    """Drop the vowel marks and draw new ones; letters and shaddah stay."""
    out = []
    for ch in word:
        if ch in VOWELS:
            continue
        out.append(ch)
        if ch in LETTERS and rng.random() < 0.6:
            out.append(rng.choice(VOWELS))
    return "".join(out)


GENERATORS = {
    "annotate": generate_annotate,
    "textsim": generate_textsim,
    "lexicon": generate_lexicon,
}

"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is pinned here; the oracles live in _oracles.py
and are independent of the code paths they check.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from aranlp.evaluation import micro_average
from aranlp.morphology import analyze, load_dictionary, load_tagset
from aranlp.ner import GazetteerTagger, decode_iob, decode_matrix, project_flat, span_f1
from aranlp.script import from_buckwalter, to_buckwalter, _AR2BW
from aranlp.synonymy import TermNode, syn_extract
from aranlp.textutils import IDENTICAL, match_words, remove_duplicates
from aranlp.relatedness import spearman
from aranlp.wsd import (
    Gloss,
    OracleVerifier,
    SenseInventory,
    annotate_corpus,
    lookup_multiword,
    wsd_accuracy,
)

from _oracles import (
    LETTERS,
    VOWEL_CODEPOINTS,
    digraph_as_graph,
    oracle_assignment,
    oracle_cycle_scores,
    oracle_spearman,
    random_digraph,
    random_token,
    reference_decode,
)
from _synthetic import build_corpus


def report(number: int, text: str) -> None:
    print(f"[acceptance] criterion {number}: {text}: PASS")


def test_c01_micro_average_reproduction():
    """Category accuracies and token weights combine to 82.63% +- 0.01."""
    rows = [(0.8531, 4389), (0.8892, 2100), (0.8173, 27764)]
    value = micro_average(rows)
    assert value == pytest.approx(0.8263, abs=0.0001)
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        micro_average(rows)
        timings.append(time.perf_counter() - start)
    runtime = min(timings)
    assert runtime < 1e-3
    report(1, f"micro average {value * 100:.2f}% in {runtime * 1e6:.1f}us")


def test_c02_substituted_property_acceptance():
    """Gold-oracle pipeline is perfect on a 200+ token synthetic corpus and
    a gold-derived gazetteer reaches span F1 1.0 flat and nested."""
    corpus = build_corpus(seed=2024, sentence_count=40)
    assert corpus.token_count >= 200

    tagger = GazetteerTagger(corpus.gazetteer)
    verifier = OracleVerifier(corpus.gold_gloss_ids)
    predicted = annotate_corpus(
        corpus.sentences, corpus.inventory, tagger, verifier, corpus.dictionary
    )
    for category in ("ner", "multiword", "singleword", "overall"):
        assert wsd_accuracy(corpus.gold, predicted, category) == 1.0

    from aranlp.ner import EntitySpan

    gold_derived = {}
    gold_spans = []
    for sentence in corpus.gold:
        spans = [
            EntitySpan(s.start, s.end, s.payload)
            for s in sentence.spans
            if s.kind == "entity"
        ]
        gold_spans.append(spans)
        for span in spans:
            gold_derived[" ".join(sentence.tokens[span.start:span.end])] = span.type
    derived_tagger = GazetteerTagger(gold_derived)
    pred_spans = [
        decode_matrix(derived_tagger.classify(sentence.tokens))
        for sentence in corpus.gold
    ]
    nested = span_f1(
        [s for spans in gold_spans for s in spans],
        [s for spans in pred_spans for s in spans],
    )
    flat = span_f1(
        [s for spans in gold_spans for s in project_flat(spans)],
        [s for spans in pred_spans for s in project_flat(spans)],
    )
    assert nested.f1 == 1.0
    assert flat.f1 == 1.0
    report(2, f"{corpus.token_count}-token corpus: WSD 100.00% all categories, F1 1.0 flat+nested")


def test_c03_buckwalter_round_trip():
    """10,000 random strings plus every mapped codepoint survive the
    Arabic -> Buckwalter -> Arabic round trip."""
    for char in _AR2BW:
        assert from_buckwalter(to_buckwalter(char)) == char
    rng = random.Random(314159)
    alphabet = LETTERS + list(VOWEL_CODEPOINTS) + ["ّ", "ـ"]
    failures = 0
    for _ in range(10_000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        if from_buckwalter(to_buckwalter(s)) != s:
            failures += 1
    assert failures == 0
    report(3, f"round trip exact on {len(_AR2BW)} codepoints and 10,000 random strings")


def test_c04_diacritic_matching_examples_and_laws():
    """The published compatible/incompatible pairs, plus symmetry and
    reflexivity over 10,000 random word pairs."""
    assert match_words("فَعلَ", "فعَل").relation == "compatible"
    assert match_words("فَعلَ", "فِعلَ").relation == "incompatible"
    rng = random.Random(271828)
    for _ in range(10_000):
        w1, w2 = random_token(rng), random_token(rng)
        assert match_words(w1, w1).relation == IDENTICAL
        assert match_words(w1, w2).relation == match_words(w2, w1).relation
    report(4, "paper pairs exact; symmetry+reflexivity on 10,000 random pairs")


def test_c05_iob_decoding_exhaustive():
    """decode_iob equals the brute-force reference on all label sequences
    of length <= 6 (729 sequences at length six), repair cases included."""
    checked = 0
    for length in range(7):
        for row in itertools.product("BIO", repeat=length):
            assert decode_iob(row) == reference_decode(row), row
            checked += 1
    assert checked == sum(3 ** n for n in range(7))
    report(5, f"{checked} label sequences match the reference decoder")


def test_c06_synonymy_exhaustive_cycle_oracle():
    """Fuzzy scores equal exhaustive simple-cycle enumeration on 500 random
    directed graphs with <= 8 nodes, levels 2 and 3, in exact rationals."""
    rng = random.Random(411)
    graphs = 0
    while graphs < 500:
        nodes, edges = random_digraph(rng, max_nodes=8)
        candidates = [n for n in nodes if n.language == "ar"]
        if not candidates:
            continue
        graphs += 1
        graph = digraph_as_graph(nodes, edges)
        seeds = [n.surface for n in rng.sample(candidates, min(len(candidates), 2))]
        seed_nodes = [TermNode(s, "ar") for s in seeds]
        for level in (2, 3):
            mine = {r.term: r.score for r in syn_extract(seeds, level, graph, "ar")}
            expected = oracle_cycle_scores(nodes, edges, seed_nodes, level, "ar")
            assert mine == expected
            assert all(isinstance(score, Fraction) for score in mine.values())
    report(6, "exact rational agreement on 500 graphs at levels 2 and 3")


def test_c07_spearman_oracle():
    """Brute-force rank-correlation agreement within 1e-9 on 1,000 random
    lists, ties included; the fixed examples hold exactly."""
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8
    rng = random.Random(161803)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 60)
        if rng.random() < 0.5:
            gold = [float(rng.randint(0, 8)) for _ in range(n)]
            pred = [float(rng.randint(0, 8)) for _ in range(n)]
        else:
            gold = [float(v) for v in rng.sample(range(10_000), n)]
            pred = [float(v) for v in rng.sample(range(10_000), n)]
        if len(set(gold)) == 1 or len(set(pred)) == 1:
            continue
        checked += 1
        assert spearman(gold, pred) == pytest.approx(oracle_spearman(gold, pred), abs=1e-9)
    report(7, "1,000 random lists within 1e-9 of the oracle; fixed examples exact")


def _throughput_dictionary(rng: random.Random, entries: int):
    tags = sorted(load_tagset())
    wordforms = set()
    rows = []
    while len(wordforms) < entries:
        word = "".join(rng.choice(LETTERS) for _ in range(rng.randint(4, 8)))
        if word in wordforms:
            continue
        wordforms.add(word)
        rows.append(
            f"{word}\t{word}\t{rng.choice(tags)}\t{word[:3]}\t{rng.randint(1, 9999)}"
        )
    return load_dictionary(rows, version="generated-100k"), sorted(wordforms)


def test_c08_morphology_throughput_and_determinism():
    """At least 50,000 analyze calls per second on a 100k-entry dictionary,
    and byte-identical output across two runs."""
    rng = random.Random(5150)
    dictionary, wordforms = _throughput_dictionary(rng, 100_000)
    assert len(dictionary) == 100_000
    queries = [rng.choice(wordforms) for _ in range(80_000)]
    queries += ["".join(rng.choice(LETTERS) for _ in range(5)) for _ in range(20_000)]
    rng.shuffle(queries)

    start = time.perf_counter()
    for word in queries:
        analyze(word, dictionary, "pos")
    elapsed = time.perf_counter() - start
    rate = len(queries) / elapsed
    assert rate >= 50_000, f"only {rate:.0f} analyze calls/second"

    def render(run_dictionary):
        return json.dumps(
            [
                (t.surface, t.source, t.value)
                for t in (analyze(w, run_dictionary, "pos") for w in queries[:5000])
            ],
            ensure_ascii=False,
        ).encode("utf-8")

    first = render(dictionary)
    second = render(load_dictionary([  # fresh parse of the same rows
        f"{w}\t{s.lemma}\t{s.pos}\t{s.root}\t{s.frequency}"
        for w, sols in dictionary.entries.items() for s in sols
    ], version="generated-100k"))
    assert first == second
    report(8, f"{rate:,.0f} analyze calls/second; two runs byte-identical")


def test_c09_descending_n_rule():
    """A 5-gram beats the overlapping 3-gram and 2-gram keys; agreement
    with the exhaustive assignment oracle on random <= 8-token fixtures."""
    tokens = list("abcdefgh")
    inventory = SenseInventory(
        {
            "a b c d e": (Gloss("g5", "x"),),
            "b c d": (Gloss("g3", "x"),),
            "e f": (Gloss("g2", "x"),),
            "g h": (Gloss("g2b", "x"),),
        },
        {},
    )
    hits = lookup_multiword(tokens, inventory)
    assert [(s, e) for s, e, _ in hits] == [(0, 5), (6, 8)]
    five = next((s, e) for s, e, _ in hits if e - s == 5)
    for start, end, _ in hits:
        if (start, end) != five:
            assert end <= five[0] or start >= five[1]

    rng = random.Random(906)
    for _ in range(200):
        count = rng.randint(2, 8)
        sentence_tokens = [f"t{i}" for i in range(count)]
        candidates = [
            (start, start + n)
            for n in range(2, min(5, count) + 1)
            for start in range(count - n + 1)
        ]
        rng.shuffle(candidates)
        chosen = candidates[: min(len(candidates), 12)]
        fixture = SenseInventory(
            {" ".join(sentence_tokens[s:e]): (Gloss("g", "x"),) for s, e in chosen}, {}
        )
        accepted = lookup_multiword(sentence_tokens, fixture)
        assert {(s, e) for s, e, _ in accepted} == oracle_assignment(chosen)
    report(9, "5-gram dominates overlapping sub-spans; oracle agreement on 200 fixtures")


def test_c10_dedup_threshold_sweep():
    """On a 1,000-sentence corpus with planted duplicates the kept count is
    monotone over the threshold sweep 0 -> 1.01, and >1 keeps everything."""
    rng = random.Random(37707)
    sentences = []
    for group in range(20):
        base_tokens = [f"g{group}w{k}" for k in range(10)]
        sentences.append(" ".join(base_tokens))
        for _ in range(20):
            kind = rng.choice(("exact", "shuffled", "prefix"))
            if kind == "exact":
                sentences.append(" ".join(base_tokens))
            elif kind == "shuffled":
                shuffled = base_tokens[:]
                rng.shuffle(shuffled)
                sentences.append(" ".join(shuffled))
            else:
                sentences.append(" ".join(base_tokens[: rng.choice((3, 5, 8))]))
    while len(sentences) < 1000:
        sentences.append(f"solo{len(sentences)} filler")
    rng.shuffle(sentences)
    sentences = sentences[:1000]

    thresholds = [0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95, 1.0, 1.01]
    sizes = [len(remove_duplicates(sentences, t)) for t in thresholds]
    assert sizes == sorted(sizes), list(zip(thresholds, sizes))
    assert sizes[0] == 1
    assert sizes[-1] == len(sentences)
    report(10, f"kept sizes {sizes} are monotone over {thresholds}")

import itertools
import random

import pytest

from aranlp import wsd
from aranlp.errors import (
    EmptyCandidates,
    MalformedRow,
    MisalignedCorpus,
    VerifierFailure,
)
from aranlp.morphology import SOURCE_EXACT, SOURCE_OOV, SOURCE_STRIPPED, analyze
from aranlp.ner import GazetteerTagger
from aranlp.wsd import (
    CATEGORIES,
    KIND_BY_CATEGORY,
    KIND_ENTITY,
    KIND_MULTIWORD,
    KIND_SINGLEWORD,
    AnnotatedSentence,
    AnnotatedSpan,
    Gloss,
    OracleVerifier,
    OverlapVerifier,
    SenseInventory,
    VerificationPair,
    accuracy_report,
    annotate_corpus,
    disambiguate,
    format_annotated_corpus,
    generate_ngrams,
    gold_gloss_ids,
    lemmatize_tokens,
    load_inventory,
    lookup_multiword,
    read_annotated_corpus,
    select_sense,
    verify,
    wsd_accuracy,
)

from _oracles import (
    LETTERS,
    oracle_assignment,
    random_token,
    reference_overlap_score,
    spans_overlap,
)
from _synthetic import build_corpus

GOLD_IDS = {"mw-tax-2", "sw-qam-6", "sw-khafd-2"}
EXAMPLE = "وزارة الاقتصاد تقوم بتخفيض ضريبة الدخل في مصر"


class TestInventory:
    def test_fixture_contents(self, inventory):
        assert len(inventory.multiword["ضَرِيبَةٌ دَخْلٌ"]) == 2
        assert {g.gloss_id for g in inventory.singleword["قامَ"]} == {"sw-qam-1", "sw-qam-6"}

    def test_bad_kind(self, tmp_path):
        path = tmp_path / "inv.tsv"
        path.write_text("XX\tمفتاح\tg1\tنص\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_inventory(path)

    def test_mw_width_bounds(self, tmp_path):
        path = tmp_path / "inv.tsv"
        path.write_text("MW\tواحد\tg1\tنص\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_inventory(path)

    def test_duplicate_gloss_id(self, tmp_path):
        path = tmp_path / "inv.tsv"
        path.write_text("SW\tكلمة\tg1\tنص\nSW\tكلمة\tg1\tنص آخر\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_inventory(path)


class TestGenerateNgrams:
    def test_three_tokens(self):
        spans = generate_ngrams(["a", "b", "c"])
        assert len(spans) == 3
        assert sorted((s.start, s.end) for s in spans) == [(0, 2), (0, 3), (1, 3)]

    def test_single_token(self):
        assert generate_ngrams(["a"]) == []

    def test_six_tokens(self):
        assert len(generate_ngrams(list("abcdef"))) == 14

    def test_counts_match_enumeration_oracle(self):
        for count in range(10):
            tokens = [f"t{i}" for i in range(count)]
            expected = sum(max(0, count - n + 1) for n in range(2, 6))
            assert len(generate_ngrams(tokens)) == expected

    def test_lemmas_attached(self):
        spans = generate_ngrams(["a", "b"], ["LA", "LB"])
        assert spans[0].lemmas == ("LA", "LB")
        assert spans[0].key == "LA LB"


class TestLookupMultiword:
    def test_fixture_bigram_matched(self, inventory, morph_dict):
        tokens = EXAMPLE.split()
        lemmas = lemmatize_tokens(tokens, morph_dict)
        hits = lookup_multiword(generate_ngrams(tokens, lemmas), inventory)
        assert len(hits) == 1
        span, glosses = hits[0]
        assert (span.start, span.end) == (4, 6)
        assert len(glosses) == 2

    def test_no_hits(self, inventory):
        assert lookup_multiword(generate_ngrams(["قق", "شش"]), inventory) == []

    def test_wider_n_wins(self):
        inv = SenseInventory(
            {
                "a b c d e": (Gloss("g5", "x"),),
                "b c d": (Gloss("g3", "x"),),
                "e f": (Gloss("g2", "x"),),
                "g h": (Gloss("g2b", "x"),),
            },
            {},
        )
        tokens = list("abcdefgh")
        hits = lookup_multiword(generate_ngrams(tokens), inv)
        assert [(s.start, s.end) for s, _ in hits] == [(0, 5), (6, 8)]

    def test_left_to_right_within_equal_n(self):
        inv = SenseInventory({"a b": (Gloss("g", "x"),), "b c": (Gloss("h", "x"),)}, {})
        hits = lookup_multiword(generate_ngrams(list("abc")), inv)
        assert [(s.start, s.end) for s, _ in hits] == [(0, 2)]

    def test_accepted_keys_always_in_inventory(self, inventory, morph_dict):
        rng = random.Random(3)
        for _ in range(50):
            tokens = [rng.choice(EXAMPLE.split()) for _ in range(rng.randint(0, 8))]
            lemmas = lemmatize_tokens(tokens, morph_dict)
            for span, _ in lookup_multiword(generate_ngrams(tokens, lemmas), inventory):
                assert span.key in inventory.multiword

    def test_exhaustive_assignment_oracle(self):
        rng = random.Random(17)
        for _ in range(300):
            count = rng.randint(2, 8)
            tokens = [f"t{i}" for i in range(count)]
            all_spans = [
                (start, start + n)
                for n in range(2, min(5, count) + 1)
                for start in range(count - n + 1)
            ]
            rng.shuffle(all_spans)
            chosen = all_spans[: min(len(all_spans), 12)]
            inv = SenseInventory(
                {" ".join(tokens[s:e]): (Gloss("g", "x"),) for s, e in chosen}, {}
            )
            hits = lookup_multiword(generate_ngrams(tokens), inv)
            assert {(s.start, s.end) for s, _ in hits} == oracle_assignment(
                [tuple(span) for span in chosen]
            )


class TestVerification:
    def test_oracle_scores(self):
        verifier = OracleVerifier({"gold-1"})
        assert verify("سياق", Gloss("gold-1", "نص"), verifier).positive == 1.0
        assert verify("سياق", Gloss("other", "نص"), verifier).positive == 0.0

    def test_overlap_floor(self, morph_dict):
        verifier = OverlapVerifier(morph_dict)
        pair = verify("ذهب الولد", Gloss("g", "سيارة حمراء"), verifier)
        assert pair.positive == pytest.approx(0.01)

    def test_overlap_rises_with_shared_lemmas(self, morph_dict):
        verifier = OverlapVerifier(morph_dict)
        # gloss shares the lemma of ذهب with the context (stripped lookup)
        low = verifier.score("ذهب الولد", Gloss("g", "سيارة حمراء"))
        high = verifier.score("ذهب الولد", Gloss("g", "ذَهَبَ بعيدا"))
        assert high > low

    def test_probabilities_sum_to_one(self, morph_dict):
        verifier = OverlapVerifier(morph_dict)
        for gloss_text in ("نص", "ذهب", "الولد ذهب"):
            pair = verify("ذهب الولد", Gloss("g", gloss_text), verifier)
            assert pair.positive + pair.negative == pytest.approx(1.0, abs=1e-9)
            assert 0.0 <= pair.positive <= 1.0

    def test_verifier_failure_wrapped(self):
        class Broken:
            def score(self, context, gloss):
                raise RuntimeError("nope")

        class OutOfRange:
            def score(self, context, gloss):
                return 1.5

        with pytest.raises(VerifierFailure):
            verify("س", Gloss("g", "ن"), Broken())
        with pytest.raises(VerifierFailure):
            verify("س", Gloss("g", "ن"), OutOfRange())

    def test_pair_invariants(self):
        with pytest.raises(ValueError):
            VerificationPair("س", Gloss("g", "ن"), 0.7, 0.4)


class TestOverlapVerifierCaches:
    def test_randomized_scores_equal_the_uncached_oracle(self, morph_dict):
        rng = random.Random(2024)
        words = sorted(morph_dict.entries)
        # Dictionary lemmas are diacritized: some strip to a dictionary
        # word, the others are out of vocabulary.
        lemmas = sorted({s.lemma for group in morph_dict.entries.values() for s in group})
        # Near misses of dictionary words, one letter short or long.
        near = [w[:-1] for w in words] + [w + "ي" for w in words]
        unknown = [random_token(rng) for _ in range(12)]
        vocabulary = words + lemmas + near + unknown
        sources = {analyze(token, morph_dict).source for token in vocabulary}
        assert {SOURCE_EXACT, SOURCE_STRIPPED, SOURCE_OOV} <= sources

        def text(low, high):
            return " ".join(rng.choice(vocabulary) for _ in range(rng.randint(low, high)))

        repeated = f"{words[0]} {lemmas[0]} {words[0]} {words[0]}"
        edge_glosses = [Gloss("empty", ""), Gloss("blank", " \t "), Gloss("rep", repeated)]
        glosses = [Gloss(f"g{i}", text(1, 6)) for i in range(30)]
        verifiers = [OverlapVerifier(morph_dict), OverlapVerifier(morph_dict, eps=0.125)]
        scores = set()
        for _ in range(40):
            a, b = text(2, 12), text(2, 12)
            for context in (a, b, a):
                for gloss in rng.sample(glosses, 6) + edge_glosses:
                    for verifier in verifiers:
                        expected = reference_overlap_score(
                            context, gloss.text, morph_dict, verifier.eps
                        )
                        assert verifier.score(context, gloss) == expected, (context, gloss)
                        scores.add(expected)
                for verifier in verifiers:
                    last, last_lemmas = verifier._last_context
                    assert last == context
                    assert last_lemmas == set(lemmatize_tokens(context.split(), morph_dict))
        # The floor, the ceiling and partial overlaps all occurred.
        assert {0.01, 0.99, 0.125, 0.875} <= scores
        assert len(scores) > 8

    def test_memo_is_bounded(self, morph_dict):
        limit = wsd._LEMMA_MEMO_LIMIT
        assert limit == 65_536
        fresh = ["".join(p) for p in itertools.islice(itertools.product(LETTERS, repeat=4), limit + 1)]
        known = sorted(morph_dict.entries)
        context = " ".join(known[:4] + fresh[:2])
        verifier = OverlapVerifier(morph_dict)
        sizes = []
        for start in range(0, len(fresh), 256):
            gloss_text = " ".join(fresh[start:start + 256] + known[2:6])
            expected = reference_overlap_score(context, gloss_text, morph_dict, verifier.eps)
            assert verifier.score(context, Gloss("g", gloss_text)) == expected
            sizes.append(len(verifier._lemma_memo))
        assert max(sizes) <= limit
        # The memo filled up, was cleared and refilled.
        assert sizes[-1] < max(sizes)


class TestSelectSense:
    def test_argmax(self):
        pairs = [
            VerificationPair("c", Gloss("g1", "a"), 0.9, 0.1),
            VerificationPair("c", Gloss("g2", "b"), 0.1, 0.9),
        ]
        assert select_sense(pairs).gloss_id == "g1"

    def test_single_candidate(self):
        pairs = [VerificationPair("c", Gloss("only", "a"), 0.2, 0.8)]
        assert select_sense(pairs).gloss_id == "only"

    def test_tie_breaks_to_smaller_id(self):
        pairs = [
            VerificationPair("c", Gloss("g2", "a"), 0.5, 0.5),
            VerificationPair("c", Gloss("g1", "b"), 0.5, 0.5),
        ]
        assert select_sense(pairs).gloss_id == "g1"

    def test_empty(self):
        with pytest.raises(EmptyCandidates):
            select_sense([])

    def test_invariant_under_positive_rescaling(self):
        rng = random.Random(23)
        for _ in range(100):
            scores = sorted({rng.uniform(0.05, 1.0) for _ in range(rng.randint(1, 6))})
            pairs = [
                VerificationPair("c", Gloss(f"g{i}", "x"), s, 1.0 - s)
                for i, s in enumerate(scores)
            ]
            scale = rng.uniform(0.1, 1.0)
            rescaled = [
                VerificationPair("c", p.gloss, p.positive * scale, 1.0 - p.positive * scale)
                for p in pairs
            ]
            assert select_sense(pairs) == select_sense(rescaled)


@pytest.fixture()
def example_tagger(gazetteer):
    return GazetteerTagger(gazetteer)


class TestDisambiguate:
    def test_example_sentence(self, inventory, morph_dict, example_tagger):
        out = disambiguate(
            EXAMPLE, inventory, example_tagger, OracleVerifier(GOLD_IDS), morph_dict
        )
        assert out == [
            AnnotatedSpan(0, 2, KIND_ENTITY, "ORG"),
            AnnotatedSpan(2, 3, KIND_SINGLEWORD, "sw-qam-6"),
            AnnotatedSpan(3, 4, KIND_SINGLEWORD, "sw-khafd-2"),
            AnnotatedSpan(4, 6, KIND_MULTIWORD, "mw-tax-2"),
            AnnotatedSpan(7, 8, KIND_ENTITY, "GPE"),
        ]

    def test_empty_sentence(self, inventory, morph_dict, example_tagger):
        verifier = OracleVerifier(GOLD_IDS)
        assert disambiguate("", inventory, example_tagger, verifier, morph_dict) == []

    def test_oov_only_with_empty_inventories(self, morph_dict, example_tagger):
        empty = SenseInventory({}, {})
        out = disambiguate("قق شش", empty, example_tagger, OracleVerifier(set()), morph_dict)
        assert out == []

    def test_multiword_not_overridden_by_entity(self, morph_dict):
        # gazetteer span overlaps a consumed multi-word token and is cropped
        inv = SenseInventory({"a b": (Gloss("g", "x"),)}, {})
        tagger = GazetteerTagger({"b c": "ORG"})
        out = disambiguate("a b c", inv, tagger, OracleVerifier({"g"}), _identity_dict())
        assert out == [
            AnnotatedSpan(0, 2, KIND_MULTIWORD, "g"),
            AnnotatedSpan(2, 3, KIND_ENTITY, "ORG"),
        ]

    def test_span_kinds_never_overlap(self, inventory, morph_dict, example_tagger):
        corpus = build_corpus(seed=7, sentence_count=10)
        tagger = GazetteerTagger(corpus.gazetteer)
        verifier = OracleVerifier(corpus.gold_gloss_ids)
        for sentence in corpus.sentences:
            spans = disambiguate(
                sentence, corpus.inventory, tagger, verifier, corpus.dictionary
            )
            solid = [s for s in spans if s.kind in (KIND_ENTITY, KIND_MULTIWORD)]
            for a, b in itertools.combinations(solid, 2):
                assert not spans_overlap((a.start, a.end), (b.start, b.end))
            for single in (s for s in spans if s.kind == KIND_SINGLEWORD):
                assert not any(
                    spans_overlap((single.start, single.end), (s.start, s.end))
                    for s in solid
                )


def _identity_dict():
    from aranlp.morphology import load_dictionary

    return load_dictionary(
        ["a\ta\tnoun\ta\t1", "b\tb\tnoun\tb\t1", "c\tc\tnoun\tc\t1"]
    )


class TestAccuracy:
    def test_gold_oracle_pipeline_is_perfect(self):
        corpus = build_corpus(seed=11, sentence_count=12)
        tagger = GazetteerTagger(corpus.gazetteer)
        verifier = OracleVerifier(corpus.gold_gloss_ids)
        predicted = annotate_corpus(
            corpus.sentences, corpus.inventory, tagger, verifier, corpus.dictionary
        )
        for category in ("ner", "multiword", "singleword", "overall"):
            assert wsd_accuracy(corpus.gold, predicted, category) == 1.0

    def test_half_correct_singleword(self):
        tokens = ("w1", "w2")
        gold = [AnnotatedSentence(tokens, (
            AnnotatedSpan(0, 1, KIND_SINGLEWORD, "a"),
            AnnotatedSpan(1, 2, KIND_SINGLEWORD, "b"),
        ))]
        pred = [AnnotatedSentence(tokens, (
            AnnotatedSpan(0, 1, KIND_SINGLEWORD, "a"),
            AnnotatedSpan(1, 2, KIND_SINGLEWORD, "wrong"),
        ))]
        assert wsd_accuracy(gold, pred, "singleword") == 0.5

    def test_gold_alternatives_accepted(self):
        tokens = ("w1",)
        gold = [AnnotatedSentence(tokens, (AnnotatedSpan(0, 1, KIND_SINGLEWORD, "a|b"),))]
        pred = [AnnotatedSentence(tokens, (AnnotatedSpan(0, 1, KIND_SINGLEWORD, "b"),))]
        assert wsd_accuracy(gold, pred, "singleword") == 1.0

    def test_token_weighted_overall(self):
        tokens = tuple(f"t{i}" for i in range(6))
        gold = [AnnotatedSentence(tokens, (
            AnnotatedSpan(0, 4, KIND_ENTITY, "ORG"),
            AnnotatedSpan(4, 5, KIND_SINGLEWORD, "a"),
            AnnotatedSpan(5, 6, KIND_SINGLEWORD, "b"),
        ))]
        pred = [AnnotatedSentence(tokens, (
            AnnotatedSpan(0, 4, KIND_ENTITY, "ORG"),
            AnnotatedSpan(4, 5, KIND_SINGLEWORD, "a"),
            AnnotatedSpan(5, 6, KIND_SINGLEWORD, "wrong"),
        ))]
        # ner: 1/1 over 4 tokens; singleword: 1/2 over 2 tokens
        assert wsd_accuracy(gold, pred, "overall") == pytest.approx((1.0 * 4 + 0.5 * 2) / 6)

    def test_report_counts_every_predicted_span_and_scores_like_wsd_accuracy(self):
        corpus = build_corpus(seed=13, sentence_count=10)
        pred = [AnnotatedSentence(s.tokens, s.spans[::2]) for s in corpus.gold]
        # Two predicted spans at one position both count as predicted.
        pred[0] = AnnotatedSentence(pred[0].tokens, pred[0].spans + pred[0].spans[:1])
        report = accuracy_report(corpus.gold, pred)
        assert report.title == "sense annotation accuracy"
        assert report.overall == wsd_accuracy(corpus.gold, pred)
        for category in report.categories:
            kind = KIND_BY_CATEGORY[category.name]
            assert category.predicted == sum(x.kind == kind for s in pred for x in s.spans)
            assert category.gold == sum(x.kind == kind for s in corpus.gold for x in s.spans)
            assert category.score == wsd_accuracy(corpus.gold, pred, category.name)
        assert [c.name for c in report.categories] == list(CATEGORIES[:-1])

    def test_gold_gloss_ids(self):
        tokens = ("w1", "w2", "w3")
        gold = [AnnotatedSentence(tokens, (
            AnnotatedSpan(0, 1, KIND_ENTITY, "ORG"),
            AnnotatedSpan(1, 3, KIND_MULTIWORD, "m1|m2"),
        )), AnnotatedSentence(("w4",), (AnnotatedSpan(0, 1, KIND_SINGLEWORD, "s1"),))]
        assert gold_gloss_ids(gold) == {"m1", "m2", "s1"}
        assert gold_gloss_ids([]) == set()

    def test_oracle_from_gold_ids_is_perfect(self):
        corpus = build_corpus(seed=17, sentence_count=12)
        ids = gold_gloss_ids(corpus.gold)
        assert ids and ids <= corpus.gold_gloss_ids
        predicted = annotate_corpus(
            corpus.sentences, corpus.inventory, GazetteerTagger(corpus.gazetteer),
            OracleVerifier(ids), corpus.dictionary,
        )
        assert wsd_accuracy(corpus.gold, predicted) == 1.0

    def test_misaligned_sentences(self):
        one = [AnnotatedSentence(("a",), ())]
        with pytest.raises(MisalignedCorpus):
            wsd_accuracy(one, [])

    def test_misaligned_tokens(self):
        gold = [AnnotatedSentence(("a", "b"), ())]
        pred = [AnnotatedSentence(("a",), ())]
        with pytest.raises(MisalignedCorpus):
            wsd_accuracy(gold, pred)


class TestCorpusFiles:
    def test_round_trip(self, tmp_path):
        corpus = build_corpus(seed=3, sentence_count=5)
        path = tmp_path / "gold.tsv"
        path.write_text(format_annotated_corpus(corpus.gold), encoding="utf-8")
        assert read_annotated_corpus(path) == corpus.gold

    def test_malformed(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("جملة قصيرة\n0\t1\tsingleword\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            read_annotated_corpus(path)

import itertools
import random
import sys
import unicodedata
from collections import Counter

import pytest

from aranlp import wsd
from aranlp.errors import (
    EmptyCandidates,
    MalformedRow,
    MisalignedCorpus,
    VerifierFailure,
)
from aranlp.morphology import (
    SOURCE_EXACT,
    SOURCE_OOV,
    SOURCE_STRIPPED,
    analyze,
    load_dictionary,
)
from aranlp.ner import GazetteerTagger, decode_matrix, project_flat, run_tagger
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
    gold_gloss_ids,
    load_inventory,
    lookup_multiword,
    read_annotated_corpus,
    select_sense,
    verify,
    wsd_accuracy,
)

from _oracles import (
    LETTERS,
    NgramSpan,
    generate_ngrams,
    oracle_assignment,
    random_token,
    reference_disambiguate,
    reference_lemmatize_tokens,
    reference_lookup_multiword,
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

    def test_mw_key_with_doubled_space_matches(self, tmp_path):
        path = tmp_path / "inv.tsv"
        path.write_text("MW\tأ  ب\tg1\tنص\nMW\t ج   د \tg2\tنص\n", encoding="utf-8")
        inventory = load_inventory(path)
        assert list(inventory.multiword) == ["أ ب", "ج د"]
        assert [(s, e) for s, e, _ in lookup_multiword(["أ", "ب", "ج", "د"], inventory)] == [
            (0, 2), (2, 4),
        ]

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

    def test_span_start_must_not_be_negative(self):
        with pytest.raises(ValueError, match=r"invalid span \(-1, 1\)"):
            NgramSpan(-1, 1, ("a", "b"))
        assert NgramSpan(0, 2, ("a", "b")).n == 2


class TestLookupMultiword:
    def test_fixture_bigram_matched(self, inventory, morph_dict):
        tokens = EXAMPLE.split()
        lemmas = reference_lemmatize_tokens(tokens, morph_dict)
        hits = lookup_multiword(lemmas, inventory)
        assert len(hits) == 1
        start, end, glosses = hits[0]
        assert (start, end) == (4, 6)
        assert len(glosses) == 2

    def test_no_hits(self, inventory):
        assert lookup_multiword(["قق", "شش"], inventory) == []

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
        hits = lookup_multiword(tokens, inv)
        assert [(s, e) for s, e, _ in hits] == [(0, 5), (6, 8)]

    def test_left_to_right_within_equal_n(self):
        inv = SenseInventory({"a b": (Gloss("g", "x"),), "b c": (Gloss("h", "x"),)}, {})
        hits = lookup_multiword(list("abc"), inv)
        assert [(s, e) for s, e, _ in hits] == [(0, 2)]

    def test_accepted_keys_always_in_inventory(self, inventory, morph_dict):
        rng = random.Random(3)
        for _ in range(50):
            tokens = [rng.choice(EXAMPLE.split()) for _ in range(rng.randint(0, 8))]
            lemmas = reference_lemmatize_tokens(tokens, morph_dict)
            for start, end, _ in lookup_multiword(lemmas, inventory):
                assert " ".join(lemmas[start:end]) in inventory.multiword

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
            hits = lookup_multiword(tokens, inv)
            assert {(s, e) for s, e, _ in hits} == oracle_assignment(
                [tuple(span) for span in chosen]
            )


class TestScanMultiword:
    def test_equals_lookup_over_generated_ngrams(self):
        rng = random.Random(41)
        alphabet = "abcde"
        lengths, hit_counts, blocked = set(), Counter(), 0
        for _ in range(3000):
            lemmas = [rng.choice(alphabet) for _ in range(rng.randint(0, 9))]
            keys = set()
            for _ in range(rng.randint(0, 4)):
                n = rng.randint(2, 5)
                if n <= len(lemmas) and rng.random() < 0.8:
                    # A window of this sentence and, nested in it, its
                    # narrower windows, so hits overlap across widths.
                    start = rng.randint(0, len(lemmas) - n)
                    window = lemmas[start:start + n]
                    for width in range(2, n + 1):
                        offset = rng.randint(0, n - width)
                        keys.add(" ".join(window[offset:offset + width]))
                else:
                    keys.add(" ".join(rng.choice(alphabet) for _ in range(n)))
            inv = SenseInventory({k: (Gloss(f"g{i}", "x"),) for i, k in enumerate(sorted(keys))}, {})
            spans = reference_lookup_multiword(generate_ngrams(lemmas, lemmas), inv)
            expected = [(span.start, span.end, glosses) for span, glosses in spans]
            assert wsd.lookup_multiword(lemmas, inv) == expected, (lemmas, keys)
            lengths.add(len(lemmas))
            hit_counts[min(len(expected), 3)] += 1
            matching = [s for s in generate_ngrams(lemmas, lemmas) if s.key in keys]
            blocked += len(matching) > len(expected)
        assert set(range(7)) <= lengths
        assert set(hit_counts) == {0, 1, 2, 3}
        # Planted keys that lost to an overlapping hit were skipped.
        assert blocked > 100

    def test_empty_and_spaced_lemmas_equal_the_reference(self):
        # An empty lemma and a lemma holding a space make keys with a
        # leading or doubled space ("a  b" is "a", "", "b" joined) and
        # keys whose head is the empty lemma.
        rng = random.Random(43)
        vocab = ["a", "b", "", "a b", "b a"]
        seen = Counter()
        for _ in range(2000):
            lemmas = [rng.choice(vocab) for _ in range(rng.randint(0, 9))]
            keys = set()
            for _ in range(rng.randint(0, 5)):
                n = rng.randint(2, 6)
                if n <= len(lemmas) and rng.random() < 0.7:
                    start = rng.randint(0, len(lemmas) - n)
                    keys.add(" ".join(lemmas[start:start + n]))
                else:
                    keys.add(" ".join(rng.choice(vocab) for _ in range(n)))
            inv = SenseInventory({k: (Gloss(f"g{i}", "x"),) for i, k in enumerate(sorted(keys))}, {})
            spans = reference_lookup_multiword(generate_ngrams(lemmas, lemmas), inv)
            expected = [(span.start, span.end, glosses) for span, glosses in spans]
            assert wsd.lookup_multiword(lemmas, inv) == expected, (lemmas, keys)
            for start, end, _ in expected:
                key = " ".join(lemmas[start:end])
                seen["doubled space"] += "  " in key
                seen["empty head"] += key.startswith(" ")
                seen["lemma with a space"] += any(" " in lemma for lemma in lemmas[start:end])
        assert len(seen) == 3 and min(seen.values()) > 0, seen

    def test_inventory_built_by_hand_equals_the_loaded_one(self, tmp_path):
        multiword = {"a b": (Gloss("g1", "x"),), "b c d": (Gloss("g2", "y"),)}
        path = tmp_path / "inv.tsv"
        rows = (f"MW\t{k}\t{g.gloss_id}\t{g.text}\n" for k, gs in multiword.items() for g in gs)
        path.write_text("".join(rows), encoding="utf-8")
        loaded, by_hand = load_inventory(path), SenseInventory(dict(multiword), {})
        assert by_hand == loaded
        assert repr(by_hand) == repr(loaded)
        lemmas = list("abcdab")
        assert wsd.lookup_multiword(lemmas, by_hand) == wsd.lookup_multiword(lemmas, loaded) == [
            (1, 4, multiword["b c d"]), (4, 6, multiword["a b"]),
        ]

    def test_sentence_shorter_than_two_tokens(self):
        inv = SenseInventory({"a b": (Gloss("g", "x"),)}, {})
        assert wsd.lookup_multiword([], inv) == []
        assert wsd.lookup_multiword(["a"], inv) == []


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
                    context_lemmas = reference_lemmatize_tokens(context.split(), morph_dict)
                    assert last_lemmas == set(context_lemmas)
        # The floor, the ceiling and partial overlaps all occurred.
        assert {0.01, 0.99, 0.125, 0.875} <= scores
        assert len(scores) > 8

    def test_memo_is_bounded(self, morph_dict, inventory, gazetteer):
        limit = wsd._LEMMA_MEMO_LIMIT
        assert limit == 65_536
        fresh = ["".join(p) for p in itertools.islice(itertools.product(LETTERS, repeat=4), limit + 1)]
        known = sorted(morph_dict.entries)
        context = " ".join(known[:4] + fresh[:2])
        verifier = OverlapVerifier(morph_dict)
        tagger = GazetteerTagger(gazetteer)
        memo = verifier._lemmatizer.memo
        sizes, cleared_by = [], set()
        for step, start in enumerate(range(0, len(fresh), 256)):
            chunk = fresh[start:start + 256]
            before = len(memo)
            if step % 2:
                # No sense or entity hit: only disambiguate's own
                # lemmatization can fill the verifier's memo.
                sentence = " ".join(chunk)
                assert disambiguate(sentence, inventory, tagger, verifier, morph_dict) == []
                caller = "disambiguate"
            else:
                gloss_text = " ".join(chunk + known[2:6])
                expected = reference_overlap_score(context, gloss_text, morph_dict, verifier.eps)
                assert verifier.score(context, Gloss("g", gloss_text)) == expected
                caller = "score"
            sizes.append(len(memo))
            if sizes[-1] < before:
                cleared_by.add(caller)
            else:
                assert set(chunk) <= memo.keys()
        assert max(sizes) <= limit
        # The memo filled up, was cleared and refilled.
        assert sizes[-1] < max(sizes)
        assert cleared_by == {"disambiguate"}
        assert verifier._lemmatizer.memo is memo
        # Both callers keep lemmatizing correctly after the clear.
        sentence = " ".join(fresh[-3:] + EXAMPLE.split())
        assert disambiguate(sentence, inventory, tagger, verifier, morph_dict) == (
            reference_disambiguate(
                sentence, inventory, tagger, OverlapVerifier(morph_dict), morph_dict
            )
        )


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

    def test_multiword_scan_is_reached_through_the_module(
        self, monkeypatch, data_dir, inventory, morph_dict, gazetteer
    ):
        # A tracer that rebinds wsd.lookup_multiword sees every scan, with
        # the sentence's lemmas and the inventory as positional arguments.
        sentences = (data_dir / "wsd_sentences.txt").read_text("utf-8").splitlines()
        sentences += ["", "   "]
        tagger = GazetteerTagger(gazetteer)

        def run():
            verifier = OverlapVerifier(morph_dict)
            return [disambiguate(s, inventory, tagger, verifier, morph_dict) for s in sentences]

        expected = run()
        live, calls = wsd.lookup_multiword, []

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return live(*args, **kwargs)

        monkeypatch.setattr(wsd, "lookup_multiword", recording)
        assert run() == expected
        non_empty = [s.split() for s in sentences if s.split()]
        assert len(calls) == len(non_empty) == len(sentences) - 2
        for tokens, (args, kwargs) in zip(non_empty, calls):
            lemmas, passed = args
            assert kwargs == {}
            assert lemmas == reference_lemmatize_tokens(tokens, morph_dict)
            assert passed is inventory
        assert any(live(*args) for args, _ in calls)

    def test_lemmatizer_is_reached_through_the_module(
        self, monkeypatch, data_dir, inventory, morph_dict, gazetteer
    ):
        # A tracer that rebinds wsd.lemmatize_tokens times every
        # lemmatization: disambiguate's, once per sentence, and the
        # verifier's, with the tokens and the shared lemmatizer as
        # positional arguments.
        sentences = (data_dir / "wsd_sentences.txt").read_text("utf-8").splitlines()
        sentences += ["", "   "]
        tagger = GazetteerTagger(gazetteer)

        def run(verifier):
            return [disambiguate(s, inventory, tagger, verifier, morph_dict) for s in sentences]

        expected = run(OverlapVerifier(morph_dict))
        live, calls = wsd.lemmatize_tokens, []

        def recording(*args, **kwargs):
            calls.append((sys._getframe(1).f_code.co_name, args, kwargs))
            return live(*args, **kwargs)

        monkeypatch.setattr(wsd, "lemmatize_tokens", recording)
        verifier = OverlapVerifier(morph_dict)
        assert run(verifier) == expected
        assert {caller for caller, _, _ in calls} == {"disambiguate", "score"}
        assert all(
            kwargs == {} and len(args) == 2 and args[1] is verifier._lemmatizer
            for _, args, kwargs in calls
        )
        from_disambiguate = [args[0] for caller, args, _ in calls if caller == "disambiguate"]
        non_empty = [s.split() for s in sentences if s.split()]
        assert from_disambiguate == non_empty
        assert len(non_empty) == len(sentences) - 2

    def test_an_out_of_vocabulary_token_matches_in_either_normal_form(self):
        # The dictionary lacks the token; the inventory key is NFC.
        nfc, nfd = "\u0623\u0628", "\u0627\u0654\u0628"
        assert unicodedata.normalize("NFC", nfd) == nfc != nfd
        dictionary = _identity_dict()
        assert analyze(nfd, dictionary).source == SOURCE_OOV
        inv = SenseInventory({}, {nfc: (Gloss("g1", "x"),)})
        tagger = GazetteerTagger({"a b": "ORG"})
        expected = [AnnotatedSpan(0, 1, KIND_SINGLEWORD, "g1")]
        for token in (nfc, nfd):
            assert wsd._lemma(token, dictionary) == nfc
            out = disambiguate(token, inv, tagger, OracleVerifier({"g1"}), dictionary)
            assert out == expected, ascii(token)
        # The verifier's lemmas follow the same policy.
        verifier = OverlapVerifier(dictionary)
        assert verifier.score(nfd, Gloss("g", nfc)) == pytest.approx(0.99)
        assert verifier.score(nfc, Gloss("g", nfd)) == pytest.approx(0.99)

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


class _Forwarding:
    """A verifier proxy that forwards every attribute to its target."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def _planted_case(morph_dict, inventory, seed=59, sentence_count=400):
    """Random sentences over the fixture dictionary (exact, stripped and
    out-of-vocabulary tokens) and the fixture inventory plus planted
    multi-word keys of widths 2..5 that overlap and nest."""
    rng = random.Random(seed)
    surfaces = sorted(morph_dict.entries)
    diacritized = sorted({s.lemma for group in morph_dict.entries.values() for s in group})
    unknown = [random_token(rng, 4) for _ in range(4)]
    vocabulary = surfaces + diacritized + unknown
    # Keys that cross or cover the fixture's entity names.
    example = EXAMPLE.split()
    names = [example[0:2], example[7:8]]
    crossing = [example[1:3], example[6:8], example[0:3]]
    phrases = list(crossing)
    for _ in range(12):
        window = [rng.choice(vocabulary) for _ in range(rng.randint(2, 5))]
        phrases.append(window)
        for width in range(2, len(window)):
            offset = rng.randint(0, len(window) - width)
            phrases.append(window[offset:offset + width])
    multiword = dict(inventory.multiword)
    for number, phrase in enumerate(phrases):
        key = " ".join(reference_lemmatize_tokens(phrase, morph_dict))
        glosses = tuple(
            Gloss(f"p{number}-{k}", " ".join(rng.sample(vocabulary, rng.randint(1, 4))))
            for k in range(rng.randint(1, 3))
        )
        multiword.setdefault(key, glosses)
    sentences = []
    for _ in range(sentence_count):
        tokens = []
        for _ in range(rng.randint(0, 4)):
            draw = rng.random()
            if draw < 0.15:
                tokens.extend(rng.choice(names))
            elif draw < 0.3:
                tokens.extend(rng.choice(crossing))
            elif draw < 0.6:
                tokens.extend(rng.choice(phrases))
            else:
                tokens.extend(rng.choice(vocabulary) for _ in range(rng.randint(1, 3)))
        sentences.append(" ".join(tokens))
    return SenseInventory(multiword, dict(inventory.singleword)), sentences


def _rebuilt(morph_dict, lemma_prefix=""):
    """Another dictionary object with the fixture's rows, each lemma
    prefixed with lemma_prefix."""
    rows = [
        f"{wordform}\t{lemma_prefix}{s.lemma}\t{s.pos}\t{s.root}\t{s.frequency}"
        for wordform, solutions in morph_dict.entries.items()
        for s in solutions
    ]
    return load_dictionary(rows, version=morph_dict.version)


class TestDisambiguateEquivalence:
    """disambiguate against the pipeline it replaced
    (`_oracles.reference_disambiguate`), compared with exact ==."""

    def test_planted_case_covers_overlaps_conflicts_and_oov(
        self, morph_dict, inventory, gazetteer
    ):
        planted, sentences = _planted_case(morph_dict, inventory)
        tagger = GazetteerTagger(gazetteer)
        widths_overlap = conflict = oov = lengths = 0
        for sentence in sentences:
            tokens = sentence.split()
            lemmas = reference_lemmatize_tokens(tokens, morph_dict)
            keyed = [s for s in generate_ngrams(tokens, lemmas) if s.key in planted.multiword]
            widths_overlap += any(
                a.n != b.n and spans_overlap((a.start, a.end), (b.start, b.end))
                for a, b in itertools.combinations(keyed, 2)
            )
            hits = lookup_multiword(lemmas, planted)
            matrix = run_tagger(tagger, tokens)
            entities = project_flat(decode_matrix(matrix), matrix.types)
            conflict += any(
                spans_overlap((start, end), (e.start, e.end))
                for start, end, _ in hits for e in entities
            )
            oov += any(analyze(t, morph_dict).source == SOURCE_OOV for t in tokens)
            lengths += not tokens
        assert widths_overlap > 20 and conflict > 20 and oov > 20 and lengths > 0

    @pytest.mark.parametrize("kind", [
        "overlap", "overlap-other-dictionary", "oracle", "forwarding-proxy",
    ])
    def test_equals_the_reference_pipeline(self, kind, morph_dict, inventory, gazetteer):
        planted, sentences = _planted_case(morph_dict, inventory)
        other = _rebuilt(morph_dict, lemma_prefix="X")
        gold = {g.gloss_id for glosses in planted.multiword.values() for g in glosses[::2]}

        def make():
            return {
                "overlap": lambda: OverlapVerifier(morph_dict),
                "overlap-other-dictionary": lambda: OverlapVerifier(other, eps=0.2),
                "oracle": lambda: OracleVerifier(gold),
                "forwarding-proxy": lambda: _Forwarding(OverlapVerifier(morph_dict)),
            }[kind]()

        tagger = GazetteerTagger(gazetteer)
        verifier, reference = make(), make()
        for sentence in sentences:
            expected = reference_disambiguate(sentence, planted, tagger, reference, morph_dict)
            assert disambiguate(sentence, planted, tagger, verifier, morph_dict) == expected
        if kind == "overlap-other-dictionary":
            # disambiguate left the verifier's memo (over another
            # dictionary) to the verifier alone.
            memo = verifier._lemmatizer.memo
            assert memo
            assert list(memo.values()) == reference_lemmatize_tokens(list(memo), other)

    @pytest.mark.parametrize("verifier_class", ["raises", "out-of-range"])
    def test_a_failing_verifier_fails_alike(self, verifier_class, morph_dict, inventory,
                                            gazetteer):
        class Raising:
            def score(self, context, gloss):
                raise RuntimeError(f"no score for {gloss.gloss_id}")

        class OutOfRange:
            def score(self, context, gloss):
                return 1.5

        verifier = {"raises": Raising, "out-of-range": OutOfRange}[verifier_class]()
        planted, sentences = _planted_case(morph_dict, inventory, sentence_count=40)
        tagger = GazetteerTagger(gazetteer)
        failures = 0
        for sentence in sentences:
            try:
                expected = reference_disambiguate(sentence, planted, tagger, verifier, morph_dict)
            except VerifierFailure as exc:
                with pytest.raises(VerifierFailure) as err:
                    disambiguate(sentence, planted, tagger, verifier, morph_dict)
                assert str(err.value) == str(exc)
                assert repr(err.value.__cause__) == repr(exc.__cause__)
                failures += 1
            else:
                assert disambiguate(sentence, planted, tagger, verifier, morph_dict) == expected
        assert failures > 10

    def test_each_sentence_token_is_analyzed_once_per_verifier(
        self, monkeypatch, morph_dict, inventory, gazetteer
    ):
        calls = Counter()
        original = wsd.analyze

        def counting(word, dictionary, *args):
            calls[word] += 1
            return original(word, dictionary, *args)

        monkeypatch.setattr(wsd, "analyze", counting)
        tagger = GazetteerTagger(gazetteer)
        tokens = EXAMPLE.split()

        def analyzed(verifier):
            calls.clear()
            disambiguate(EXAMPLE, inventory, tagger, verifier, morph_dict)
            return [calls[t] for t in tokens]

        for verifier in (OverlapVerifier(morph_dict), _Forwarding(OverlapVerifier(morph_dict))):
            assert not verifier._lemmatizer.memo
            # disambiguate and the verifier share one memo, which lives
            # as long as the verifier.
            assert analyzed(verifier) == [1] * len(tokens)
            assert analyzed(verifier) == [0] * len(tokens)
        # Another dictionary object, equal or not, gets no shared memo.
        equal = _rebuilt(morph_dict)
        assert equal == morph_dict and equal is not morph_dict
        assert analyzed(OverlapVerifier(equal)) == [2] * len(tokens)
        # Without a lemmatizer to share, nothing outlives the call: no
        # lemma state on the dictionary or in the module.
        state = dict(vars(morph_dict))
        oracle = OracleVerifier(GOLD_IDS)
        assert analyzed(oracle) == [1] * len(tokens)
        assert analyzed(oracle) == [1] * len(tokens)
        assert vars(morph_dict) == state


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

    def test_unknown_category_is_rejected(self):
        with pytest.raises(ValueError, match="category must be one of"):
            wsd_accuracy([], [], "verbs")

    def test_corpora_without_gold_spans_score_one(self):
        tokens = ("w1", "w2")
        gold = [AnnotatedSentence(tokens, ())]
        pred = [AnnotatedSentence(tokens, (AnnotatedSpan(0, 1, KIND_SINGLEWORD, "a"),))]
        for g, p in ((gold, pred), ([], [])):
            assert [wsd_accuracy(g, p, c) for c in CATEGORIES] == [1.0] * len(CATEGORIES)
            assert accuracy_report(g, p).overall == 1.0

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

    def test_sentence_records_render_the_annotate_golden(self, data_dir):
        corpus = read_annotated_corpus(data_dir / "wsd_annotate_expected.txt")
        expected = (data_dir / "wsd_annotate_expected.jsonl").read_text("utf-8")
        assert "".join(s.render_records() + "\n" for s in corpus) == expected

    def test_malformed(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("جملة قصيرة\n0\t1\tsingleword\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            read_annotated_corpus(path)

import itertools
import math
import random
import unicodedata
from collections import Counter

import pytest

from aranlp import textutils
from aranlp.errors import (
    AranlpError,
    EmptySeparatorSet,
    InvalidSeparator,
    InvalidThreshold,
    NonArabicLetter,
    UnknownSeparatorClass,
)
from aranlp.script import SHADDAH, TATWEEL, ar_strip, decompose
from aranlp.textutils import (
    COMPATIBLE,
    IDENTICAL,
    INCOMPATIBLE,
    SplitConfig,
    jaccard,
    match_words,
    remove_duplicates,
    split_sentences,
)

from _oracles import (
    LETTERS,
    VOWEL_CODEPOINTS,
    oracle_tf_cosine,
    random_token,
    reference_cosine_counts,
    reference_jaccard,
    reference_remove_duplicates,
)

INVALID_WORDS = ("abc", "\u064eب", "ب\u064e\u064f", "بب" + SHADDAH + SHADDAH)


def skeleton_variant(rng: random.Random, skeleton: str) -> str:
    """A raw spelling of the skeleton: each letter gets an optional vowel
    and shaddah, in either codepoint order, and an optional tatweel."""
    chars = []
    for letter in skeleton:
        marks = []
        if rng.random() < 0.5:
            marks.append(rng.choice(VOWEL_CODEPOINTS[:4]))
        if rng.random() < 0.25:
            marks.append(SHADDAH)
        rng.shuffle(marks)
        chars.append(letter + "".join(marks))
        if rng.random() < 0.1:
            chars.append(TATWEEL)
    return "".join(chars)


def random_jaccard_sets(rng: random.Random, invalid_rate: float):
    """Two word lists over three short skeletons, so words collide in
    buckets, with an occasional invalid word."""
    skeletons = ["".join(rng.choices(LETTERS[:4], k=rng.randint(1, 2))) for _ in range(3)]

    def draw():
        if rng.random() < invalid_rate:
            return rng.choice(INVALID_WORDS)
        return skeleton_variant(rng, rng.choice(skeletons))

    set1 = [draw() for _ in range(rng.randint(0, 6))]
    set2 = [draw() for _ in range(rng.randint(0, 6))]
    if set1 and rng.random() < 0.3:
        set2.append(rng.choice(set1))
    return set1, set2


def outcome(function, *args):
    try:
        return function(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestSplitSentences:
    def test_attach_separator(self):
        config = SplitConfig(classes=frozenset({"period", "question"}))
        assert split_sentences("أهلا. كيف حالك؟", config) == ["أهلا.", "كيف حالك؟"]

    def test_white_space_separator_is_not_attached(self):
        config = SplitConfig(custom=frozenset(" "))
        assert split_sentences("أهلا\nكيف حالك\n", config) == ["أهلا", "كيف", "حالك"]

    def test_unselected_separators_ignored(self):
        config = SplitConfig(classes=frozenset({"period"}))
        assert split_sentences("أهلا! مرحبا", config) == ["أهلا! مرحبا"]

    def test_empty_input(self):
        assert split_sentences("", SplitConfig()) == []

    def test_drop_separator(self):
        config = SplitConfig(classes=frozenset({"period"}), attach_separator=False)
        assert split_sentences("اليوم. غدا.", config) == ["اليوم", "غدا"]

    def test_custom_codepoint(self):
        config = SplitConfig(classes=frozenset(), custom=frozenset("؛"))
        assert split_sentences("أولا؛ ثانيا", config) == ["أولا؛", "ثانيا"]

    def test_empty_separator_set(self):
        with pytest.raises(EmptySeparatorSet):
            SplitConfig(classes=frozenset(), custom=frozenset())

    @pytest.mark.parametrize("base", [AranlpError, ValueError])
    def test_unknown_separator_class_is_a_typed_value_error(self, base):
        with pytest.raises(base) as err:
            SplitConfig(classes=frozenset({"period", "bogus"}))
        assert type(err.value) is UnknownSeparatorClass
        assert str(err.value) == "unknown separator classes: ['bogus']"

    @pytest.mark.parametrize("base", [AranlpError, ValueError])
    @pytest.mark.parametrize("custom, named", [
        (frozenset({"..", "|"}), "['..']"),
        (frozenset({""}), "['']"),
        (frozenset({"ab", "", "|"}), "['', 'ab']"),
        (frozenset({5, "|"}), "[5]"),
    ])
    def test_custom_entry_not_one_codepoint_is_a_typed_value_error(self, base, custom, named):
        with pytest.raises(base) as err:
            SplitConfig(classes=frozenset(), custom=custom)
        assert type(err.value) is InvalidSeparator
        assert str(err.value) == f"custom separators must be single codepoints, got: {named}"

    def test_empty_segments_dropped(self):
        config = SplitConfig(classes=frozenset({"period"}))
        assert split_sentences("a.. b", config) == ["a.", "b"]

    def test_sentences_are_substrings_and_splits_only_at_separators(self):
        rng = random.Random(5)
        config = SplitConfig(classes=frozenset({"period", "question"}))
        separators = config.separator_chars()
        for _ in range(200):
            text = "".join(rng.choice("اب ج.?؟! \n") for _ in range(rng.randint(0, 30)))
            sentences = split_sentences(text, config)
            for sentence in sentences:
                body = sentence[:-1] if sentence[-1] in separators else sentence
                assert body in text
                assert not any(ch in separators for ch in body)


class TestMatchWords:
    def test_verdict_renders_the_match_goldens(self, data_dir):
        pairs = [("فعل", "فعل"), ("فَعلَ", "فِعلَ"), ("فَعلَ", "فعَل"), ("كتب", "كتاب")]
        verdicts = [match_words(w1, w2) for w1, w2 in pairs]
        text = (data_dir / "cli" / "match.out").read_text("utf-8")
        assert "".join(v.render_text() + "\n" for v in verdicts) == text
        records = (data_dir / "cli" / "match-records.out").read_text("utf-8")
        assert "".join(v.render_records(*pair) + "\n"
                       for v, pair in zip(verdicts, pairs)) == records

    def test_compatible_pair(self):
        assert match_words("فَعلَ", "فعَل").relation == COMPATIBLE

    def test_incompatible_pair(self):
        verdict = match_words("فَعلَ", "فِعلَ")
        assert verdict.relation == INCOMPATIBLE
        assert verdict.first_conflict == 0

    def test_identical(self):
        verdict = match_words("فعل", "فعل")
        assert verdict.relation == IDENTICAL
        assert verdict.first_conflict is None

    def test_skeleton_mismatch(self):
        verdict = match_words("فعل", "فعلم")
        assert verdict.relation == INCOMPATIBLE
        assert verdict.first_conflict == 3

    def test_shaddah_subset_rules(self):
        assert match_words("بَّ", "بَ").relation == COMPATIBLE
        assert match_words("بّ", "بَ").relation == COMPATIBLE
        assert match_words("بَّ", "بِ").relation == INCOMPATIBLE

    def test_decompose_errors_propagate(self):
        with pytest.raises(NonArabicLetter):
            match_words("abc", "abc")

    def test_symmetry_and_reflexivity(self):
        rng = random.Random(9)
        for _ in range(1000):
            w1, w2 = random_token(rng), random_token(rng)
            assert match_words(w1, w1).relation == IDENTICAL
            assert match_words(w1, w2).relation == match_words(w2, w1).relation

    def test_match_against_stripped_form(self):
        from aranlp.script import ar_strip

        rng = random.Random(10)
        for _ in range(300):
            w = random_token(rng)
            relation = match_words(w, ar_strip(w, diacritics=True)).relation
            assert relation in (IDENTICAL, COMPATIBLE)


class TestJaccard:
    def test_compatible_words_merge(self):
        report = jaccard(["فَعلَ"], ["فعَل"], "diacritic_aware")
        assert (report.union_size, report.intersection_size) == (1, 1)
        assert report.similarity == 1.0

    def test_disjoint_exact(self):
        report = jaccard(["كتب"], ["ذهب"], "exact")
        assert report.intersection_size == 0
        assert report.similarity == 0.0

    def test_identity_exact(self):
        words = ["كتب", "ذهب", "درس"]
        assert jaccard(words, words, "exact").similarity == 1.0

    def test_exact_counts(self):
        report = jaccard(["ا", "ب", "ب"], ["ب", "ت"], "exact")
        assert (report.union_size, report.intersection_size) == (3, 1)
        assert report.similarity == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert jaccard([], [], "exact").similarity == 1.0

    def test_report_renders_the_jaccard_goldens(self, data_dir):
        reports = [jaccard(["كتب", "ذهب"], ["ذهب"]), jaccard(["فَعَلَ", "كتب"], ["فعل", "ولد"])]
        for render, golden in (("render_text", "jaccard.out"),
                               ("render_records", "jaccard-records.out")):
            expected = (data_dir / "cli" / golden).read_text("utf-8")
            assert "".join(getattr(r, render)() + "\n" for r in reports) == expected

    def test_symmetry(self):
        rng = random.Random(11)
        for _ in range(100):
            s1 = [random_token(rng, 3) for _ in range(rng.randint(0, 4))]
            s2 = [random_token(rng, 3) for _ in range(rng.randint(0, 4))]
            for mode in ("exact", "diacritic_aware"):
                a = jaccard(s1, s2, mode)
                b = jaccard(s2, s1, mode)
                assert (a.union_size, a.intersection_size) == (b.union_size, b.intersection_size)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            jaccard([], [], "fuzzy")

    def test_lone_invalid_word_raises(self):
        for set1, set2 in ((["abc"], ["abc"]), (["abc"], []), ([], ["abc"])):
            with pytest.raises(NonArabicLetter):
                jaccard(set1, set2)
        with pytest.raises(NonArabicLetter):
            jaccard(["abc"], ["abd"])
        assert jaccard(["abc"], ["abc"], "exact").similarity == 1.0

    def test_exact_mode_compares_nfc_forms(self):
        nfc = "أَحمد"
        nfd = unicodedata.normalize("NFD", nfc)
        assert nfd != nfc
        for mode in ("exact", "diacritic_aware"):
            report = jaccard([nfc], [nfd], mode)
            assert (report.union_size, report.intersection_size) == (1, 1), mode
        # marks in a non-canonical order are the same word too
        assert jaccard(["ب\u0651\u064e"], ["ب\u064e\u0651"], "exact").intersection_size == 1
        assert jaccard([nfc, nfd], ["أحمد"], "exact").union_size == 2

    def test_error_names_first_invalid_word_in_input_order(self):
        with pytest.raises(NonArabicLetter, match="'q'"):
            jaccard(["فعل", "q"], ["z", "فعل"])
        with pytest.raises(NonArabicLetter, match="'z'"):
            jaccard(["فعل"], ["z", "q"])

    def test_equals_all_pairs_reference(self):
        rng = random.Random(20261018)
        covered = dict.fromkeys((
            "non-transitive chain", "shaddah only", "tatweel", "nfc-equal raw strings",
            "shared word", "empty set", "both empty", "invalid word", "lone invalid word",
        ), 0)
        for round_ in range(600):
            set1, set2 = random_jaccard_sets(rng, invalid_rate=0.03)
            if round_ % 50 == 0:
                lone = rng.choice(INVALID_WORDS)
                set1, set2 = [lone], rng.choice(([lone], []))
            words = list(dict.fromkeys(set1 + set2))
            actual = outcome(jaccard, set1, set2)
            if len(words) == 1 and words[0] in INVALID_WORDS:
                # the reference never decomposes a lone word
                assert actual == outcome(decompose, words[0])
                covered["lone invalid word"] += 1
                continue
            expected = outcome(reference_jaccard, set1, set2)
            assert actual == expected, (set1, set2)
            if isinstance(expected, tuple):
                covered["invalid word"] += 1
                continue
            assert outcome(jaccard, set1, set2, "exact") == reference_jaccard(set1, set2, "exact")
            compatible = {
                (a, b) for a, b in itertools.permutations(words, 2)
                if match_words(a, b).relation != INCOMPATIBLE
            }
            covered["non-transitive chain"] += any(
                (a, b) in compatible and (b, c) in compatible and (a, c) not in compatible
                for a, b, c in itertools.permutations(words, 3)
            )
            covered["shaddah only"] += any(
                p.marks.shaddah and p.marks.vowel is None
                for w in words for p in decompose(w).positions
            )
            covered["tatweel"] += any(TATWEEL in w for w in words)
            covered["nfc-equal raw strings"] += len(words) > len(
                {unicodedata.normalize("NFC", w) for w in words})
            covered["shared word"] += bool(set(set1) & set(set2))
            covered["empty set"] += not set1 or not set2
            covered["both empty"] += not set1 and not set2
        assert all(covered.values()), covered

    def test_decomposes_each_distinct_word_once(self, monkeypatch):
        calls = []
        original = textutils.decompose

        def counting_decompose(word):
            calls.append(word)
            return original(word)

        def forbidden_match_words(w1, w2):
            raise AssertionError("jaccard must not call match_words")

        monkeypatch.setattr(textutils, "decompose", counting_decompose)
        monkeypatch.setattr(textutils, "match_words", forbidden_match_words)
        rng = random.Random(31)
        set1 = [random_token(rng, 3) for _ in range(40)]
        set2 = set1[:10] + [random_token(rng, 3) for _ in range(40)] + set1[:5]
        distinct = list(dict.fromkeys(set1 + set2))
        jaccard(set1, set2)
        assert calls == distinct


class TestRemoveDuplicates:
    def test_exact_duplicate_dropped(self):
        assert remove_duplicates(["A B", "A B", "C"], 0.99) == ["A B", "C"]
        # at threshold 1.0 too, where sqrt(2) * sqrt(2) would overshoot 2
        for sentence in ("a b", "a a b", "كتاب جديد على الطاولة"):
            assert remove_duplicates([sentence, sentence], 1.0) == [sentence]
        assert remove_duplicates(["a b", "b  a", "a b c"], 1.0) == ["a b", "a b c"]

    def test_disjoint_kept(self):
        assert remove_duplicates(["A B", "C D"], 0.5) == ["A B", "C D"]

    def test_near_duplicate_at_two_thirds(self):
        assert oracle_tf_cosine("A B C", "A B D") == pytest.approx(2 / 3)
        assert remove_duplicates(["A B C", "A B D"], 0.6) == ["A B C"]
        assert remove_duplicates(["A B C", "A B D"], 0.7) == ["A B C", "A B D"]

    def test_threshold_above_one_keeps_everything(self):
        sentences = ["A", "A", "B B", "B B"]
        assert remove_duplicates(sentences, 1.01) == sentences

    def test_threshold_zero_keeps_only_first(self):
        assert remove_duplicates(["A", "B", "C D"], 0.0) == ["A"]

    def test_diacritics_ignored_in_vectors(self):
        assert remove_duplicates(["فَعلَ", "فعل"], 0.9) == ["فَعلَ"]

    def test_invalid_threshold(self):
        for bad in (-0.1, float("nan"), float("inf"), "x"):
            with pytest.raises(InvalidThreshold):
                remove_duplicates(["a"], bad)

    def test_order_preserved(self):
        kept = remove_duplicates(["x y", "z", "x y z w q r s t u v"], 0.9)
        assert kept == ["x y", "z", "x y z w q r s t u v"]

    def test_size_monotone_in_threshold(self):
        rng = random.Random(13)
        sentences = []
        for g in range(5):
            base = " ".join(f"g{g}w{j}" for j in range(8))
            sentences.append(base)
            sentences.append(base)
            sentences.append(" ".join(base.split()[:4]))
        rng.shuffle(sentences)
        sizes = [
            len(remove_duplicates(sentences, t))
            for t in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.01]
        ]
        assert sizes == sorted(sizes)
        assert sizes[-1] == len(sentences)

    def test_empty_vectors(self):
        assert remove_duplicates(["", "A", " ", "\u064e"], 0.5) == ["", "A"]
        assert remove_duplicates(["A", "", "B"], 0.0) == ["A"]
        assert remove_duplicates(["", "A", ""], 1.0) == ["", "A"]
        assert remove_duplicates(["", "A", ""], 1.01) == ["", "A", ""]

    def test_strips_each_sentence_once_through_the_module_global(self, monkeypatch):
        # one call per non-empty input, through the module global, whose
        # lines are the sentences with their line breaks as spaces
        calls = []
        original = textutils.ar_strip

        def counting(text, **flags):
            calls.append((text, flags))
            return original(text, **flags)

        monkeypatch.setattr(textutils, "ar_strip", counting)
        sentences = ["فَعلَ", "فعل", "", "a b", "a b", "b a c", " ", "a\nb", "\n"]
        for threshold in (0.0, 0.8, 1.0, 1.01):
            calls.clear()
            kept = remove_duplicates(iter(sentences), threshold)
            assert kept == reference_remove_duplicates(sentences, threshold), threshold
            assert len(calls) == 1, threshold
            text, flags = calls[0]
            assert flags == {"diacritics": True}
            assert text.split("\n") == [s.replace("\n", " ") for s in sentences]
        calls.clear()
        assert remove_duplicates(iter([])) == []
        assert calls == []

    def test_a_strip_that_changes_the_line_count_raises(self, monkeypatch):
        # line i of the stripped block is sentence i; a strip that merged
        # or split lines would pair sentences with the wrong vectors
        for stripped in (lambda text: text.replace("\n", " ", 1), lambda text: text + "\n"):
            monkeypatch.setattr(textutils, "ar_strip", lambda text, **flags: stripped(text))
            with pytest.raises(ValueError):
                remove_duplicates(["a", "b", "c"])

    def test_repeated_tokens_at_the_exact_threshold(self):
        # "a a b" . "a b b" = 2 + 2 and both squared norms are 5: cosine 4/5
        pair = ["a a b", "a b b"]
        assert reference_cosine_counts(Counter("aab"), 5, Counter("abb"), 5) == 0.8
        assert remove_duplicates(pair, 0.8) == ["a a b"]
        assert remove_duplicates(pair, math.nextafter(0.8, 1.0)) == pair
        # three of a kind against one: 3 / sqrt(9 * 1) is exactly 1.0
        assert remove_duplicates(["a a a", "a"], 1.0) == ["a a a"]

    def test_equals_reference_across_line_breaks_marks_and_generators(self):
        rng = random.Random(2028)
        vocabulary = [random_token(rng, 4) for _ in range(12)]
        marks_only = " ".join(VOWEL_CODEPOINTS[:3])
        breaks = ("\n", "\r", "\r\n", "\u2028", "\u2029", "\x85", " \n ")
        for _ in range(40):
            sentences = []
            for _ in range(rng.randint(1, 25)):
                kind = rng.choice(("plain", "plain", "break", "marks", "repeat", "copy"))
                if kind == "plain" or not sentences:
                    sentences.append(" ".join(rng.choices(vocabulary, k=rng.randint(1, 6))))
                elif kind == "break":
                    tokens = rng.choices(vocabulary, k=rng.randint(1, 6))
                    sentences.append("".join(t + rng.choice(breaks) for t in tokens))
                elif kind == "marks":
                    sentences.append(rng.choice((marks_only, marks_only + " " + vocabulary[0])))
                elif kind == "repeat":
                    sentences.append(" ".join([rng.choice(vocabulary)] * rng.randint(2, 4)
                                              + rng.choices(vocabulary, k=2)))
                else:
                    sentences.append(rng.choice(sentences).replace(" ", rng.choice(breaks)))
            vectors = [Counter(ar_strip(s, diacritics=True).split()) for s in sentences[:2]]
            squares = [sum(c * c for c in v.values()) for v in vectors]
            exact = reference_cosine_counts(vectors[0], squares[0], vectors[-1], squares[-1])
            for threshold in (0.0, 0.5, 0.8, 1.0, 1.01, exact):
                expected = reference_remove_duplicates(sentences, threshold)
                assert remove_duplicates(sentences, threshold) == expected, (sentences, threshold)
                assert remove_duplicates(iter(sentences), threshold) == expected
                assert remove_duplicates(tuple(sentences), threshold) == expected

    def test_equals_all_kept_reference(self):
        rng = random.Random(5150)
        vocabulary = sorted({ar_strip(random_token(rng, 5), diacritics=True) for _ in range(400)})

        def diacritize(token):
            return "".join(
                ch + (rng.choice(VOWEL_CODEPOINTS) if rng.random() < 0.5 else "") for ch in token
            )

        thresholds = [0.0, 0.5, 0.75, 0.8, 10 / 12, 11 / 12, 1.0, 1.01]
        covered = dict.fromkeys(
            ("replaced 1", "replaced 2", "replaced 3", "tf > 1", "empty", "diacritic only"), 0)
        for _ in range(60):
            sentences = []
            planted = []
            for _ in range(rng.randint(5, 30)):
                kind = rng.choice(("base", "base", "near", "repeat", "empty", "marks", "copy"))
                if kind == "base" or not sentences:
                    sentences.append(" ".join(rng.sample(vocabulary, 12)))
                elif kind == "near":
                    source = rng.choice(sentences).split()
                    tokens = [ar_strip(t, diacritics=True) for t in source]
                    if len(tokens) != 12 or len(set(tokens)) != 12:
                        continue
                    replaced = rng.randint(1, 3)
                    fresh = [t for t in rng.sample(vocabulary, 20) if t not in tokens][:replaced]
                    if len(fresh) < replaced:
                        continue
                    tokens[:replaced] = fresh
                    rng.shuffle(tokens)
                    sentences.append(" ".join(diacritize(t) for t in tokens))
                    planted.append((" ".join(source), sentences[-1]))
                    covered[f"replaced {replaced}"] += 1
                elif kind == "repeat":
                    tokens = rng.choices(vocabulary[:30], k=rng.randint(2, 8))
                    sentences.append(" ".join(tokens))
                    covered["tf > 1"] += len(set(tokens)) < len(tokens)
                elif kind == "empty":
                    sentences.append(rng.choice(("", "   ")))
                    covered["empty"] += 1
                elif kind == "marks":
                    sentences.append(" ".join(rng.choices(VOWEL_CODEPOINTS, k=rng.randint(1, 3))))
                    covered["diacritic only"] += 1
                else:
                    sentences.append(" ".join(diacritize(t) for t in rng.choice(sentences).split()))
            block_thresholds = thresholds + [rng.uniform(0.0, 1.1)]
            for first, second in planted[:2]:
                # a threshold exactly at a planted cosine sits on the >= boundary
                a = Counter(ar_strip(first, diacritics=True).split())
                b = Counter(ar_strip(second, diacritics=True).split())
                block_thresholds.append(reference_cosine_counts(
                    b, sum(c * c for c in b.values()), a, sum(c * c for c in a.values())))
            for threshold in block_thresholds:
                assert remove_duplicates(sentences, threshold) == reference_remove_duplicates(
                    sentences, threshold), (sentences, threshold)
        assert all(covered.values()), covered

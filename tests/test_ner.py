import itertools
import random
from collections import Counter

import pytest

from aranlp.errors import (
    InvalidLabel,
    MalformedRow,
    MisalignedCorpus,
    TaggerFailure,
    UnknownEntityType,
)
from aranlp.ner import (
    PRF,
    EntitySpan,
    EntityTypeSet,
    GazetteerTagger,
    LabelMatrix,
    decode_iob,
    decode_matrix,
    default_entity_types,
    format_span_file,
    load_entity_types,
    load_gazetteer,
    prf_from_counts,
    read_matrix_file,
    project_flat,
    read_span_file,
    run_tagger,
    span_counts,
    span_f1,
    span_report,
)


from _oracles import (
    one_object_per_value,
    reference_decode,
    reference_decode_matrix,
    reference_flat,
    reference_gazetteer_rows,
    reference_matrix_error,
    reference_ner_eval_counts,
)


class TestDecodeIob:
    def test_no_entities(self):
        assert decode_iob(["O", "O", "O"]) == []

    def test_two_spans(self):
        assert decode_iob(["B", "I", "O", "B"]) == [(0, 2), (3, 4)]

    def test_leading_i_repaired(self):
        assert decode_iob(["I", "I", "O"]) == [(0, 2)]

    def test_invalid_label(self):
        with pytest.raises(InvalidLabel) as info:
            decode_iob(["B", "X"])
        assert isinstance(info.value, ValueError)
        assert str(info.value) == "invalid IOB label 'X' at position 1"

    @pytest.mark.parametrize("row", [["O", "X"], ["X"], ("O", "o")])
    def test_invalid_label_without_a_span(self, row):
        with pytest.raises(InvalidLabel, match="invalid IOB label"):
            decode_iob(row)

    def test_random_rows_decode_or_raise_invalid_label(self):
        # Rows over B, I, O and junk labels: a row of B, I and O decodes
        # as the reference does; any other row raises InvalidLabel at its
        # first junk label.
        rng = random.Random(31)
        labels = ["B", "I", "O", "b", "X", "", "B-PERS", "0"]
        decoded = rejected = 0
        for _ in range(2000):
            row = rng.choices(labels, weights=[6, 6, 12, 1, 1, 1, 1, 1], k=rng.randint(0, 9))
            junk = [(i, label) for i, label in enumerate(row) if label not in ("B", "I", "O")]
            if junk:
                with pytest.raises(InvalidLabel) as info:
                    decode_iob(row)
                i, label = junk[0]
                assert str(info.value) == f"invalid IOB label {label!r} at position {i}"
                rejected += 1
            else:
                assert decode_iob(row) == reference_decode(row), row
                decoded += 1
        assert decoded > 500 and rejected > 500

    def test_exhaustive_oracle_up_to_length_six(self):
        for length in range(7):
            for row in itertools.product("BIO", repeat=length):
                assert decode_iob(row) == reference_decode(row), row

    def test_spans_sorted_and_disjoint(self):
        for row in itertools.product("BIO", repeat=6):
            spans = decode_iob(row)
            assert spans == sorted(spans)
            assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


class TestLabelMatrix:
    def test_invalid_label_message(self):
        with pytest.raises(InvalidLabel) as info:
            LabelMatrix(("a", "b", "c"), {"PERS": ("O", "O", "O"), "ORG": ("B", "b", "X")})
        assert str(info.value) == "row for 'ORG' has invalid labels ['X', 'b']"

    def test_matrix_file_reports_an_invalid_label_as_a_malformed_row(self):
        with pytest.raises(MalformedRow) as info:
            read_matrix_file(["a b", "PERS\tB O", "", "c", "ORG\tX"])
        assert not isinstance(info.value, InvalidLabel)
        assert str(info.value) == "line 4: row for 'ORG' has invalid labels ['X']"

    @pytest.mark.parametrize("golden", ["ner-tag-records.out", "ner-decode-records.out"])
    def test_records_render_the_ner_record_goldens(self, golden, data_dir):
        matrices = read_matrix_file(data_dir / "cli" / "ner-tag-matrix.out")
        expected = (data_dir / "cli" / golden).read_text("utf-8")
        assert "".join(m.render_records() + "\n" for m in matrices) == expected


class TestDecodeMatrix:
    def test_single_type(self):
        matrix = LabelMatrix(("a", "b"), {"PERS": ("B", "I"), "ORG": ("O", "O")})
        assert decode_matrix(matrix) == [EntitySpan(0, 2, "PERS")]

    def test_nested_output(self):
        matrix = LabelMatrix(
            ("a", "b", "c", "d", "e"),
            {"PERS": ("B", "I", "O", "O", "O"), "ORG": ("B", "I", "I", "I", "I")},
        )
        assert decode_matrix(matrix) == [EntitySpan(0, 2, "PERS"), EntitySpan(0, 5, "ORG")]

    def test_empty_tokens(self):
        assert decode_matrix(LabelMatrix((), {"PERS": ()})) == []

    def test_row_length_validated(self):
        with pytest.raises(ValueError):
            LabelMatrix(("a", "b"), {"PERS": ("B",)})

    def test_type_permutation_equivariance(self):
        rows = {"A": ("B", "O", "B"), "C": ("O", "B", "I"), "D": ("I", "O", "O")}
        tokens = ("x", "y", "z")
        forward = decode_matrix(LabelMatrix(tokens, rows))
        reversed_rows = dict(reversed(rows.items()))
        backward = decode_matrix(LabelMatrix(tokens, reversed_rows))
        assert sorted(map(repr, forward)) == sorted(map(repr, backward))


class TestSharedRows:
    """LabelMatrix checks, and decode_matrix decodes, each distinct row
    object once; the per-row oracles check every type's row."""

    TYPES = ("PERS", "ORG", "LOC", "GPE", "EVENT", "DATE")

    @staticmethod
    def _row(rng, size, valid):
        row = [rng.choice("BIO") for _ in range(size)]
        if not valid:
            if rng.random() < 0.5 or not row:
                row = row[:-1] if row and rng.random() < 0.5 else [*row, "O"]
            else:
                row[rng.randrange(size)] = rng.choice(["X", "b"])
        return tuple(row)

    def _check(self, tokens, labels):
        expected_error = reference_matrix_error(tokens, labels)
        if expected_error is not None:
            with pytest.raises(ValueError) as info:
                LabelMatrix(tokens, labels)
            assert str(info.value) == expected_error
            return False
        assert decode_matrix(LabelMatrix(tokens, labels)) == reference_decode_matrix(labels)
        return True

    def test_random_matrices_with_shared_rows(self):
        rng = random.Random(2101)
        seen = Counter()
        for _ in range(600):
            size = rng.randint(0, 6)
            pool = [self._row(rng, size, rng.random() < 0.9) for _ in range(rng.randint(1, 3))]
            labels = {}
            for type_name in rng.sample(self.TYPES, rng.randint(1, len(self.TYPES))):
                row = rng.choice(pool)
                # an equal row that is a distinct object
                labels[type_name] = tuple(list(row)) if rng.random() < 0.3 else row
            distinct = len({id(row) for row in labels.values()})
            seen["shared" if distinct < len(labels) else "unshared"] += 1
            seen["valid" if self._check(tuple("t" * size), labels) else "invalid"] += 1
        assert min(seen.values()) > 30, seen

    def test_all_types_share_one_row(self):
        tokens = ("a", "b", "c")
        for row in [("O",) * 3, ("B", "I", "O"), ("I", "O", "B")]:
            labels = dict.fromkeys(self.TYPES, row)
            assert self._check(tokens, labels)

    def test_equal_rows_that_are_distinct_objects(self):
        tokens = ("a", "b")
        labels = {t: tuple(["B", "I"]) for t in self.TYPES}
        assert len({id(row) for row in labels.values()}) == len(self.TYPES)
        assert self._check(tokens, labels)

    @pytest.mark.parametrize("bad", [("B", "X"), ("B",)])
    def test_shared_invalid_row_is_reported_under_its_first_type(self, bad):
        tokens = ("a", "b")
        labels = {"PERS": ("O", "O"), "ORG": bad, "LOC": ("B", "I"), "GPE": bad}
        assert not self._check(tokens, labels)
        with pytest.raises(ValueError, match="'ORG'"):
            LabelMatrix(tokens, labels)


class TestProjectFlat:
    def test_nested_pair(self):
        spans = [EntitySpan(0, 2, "PERS"), EntitySpan(0, 5, "ORG")]
        assert project_flat(spans) == [EntitySpan(0, 5, "ORG")]

    def test_non_overlapping_unchanged(self):
        spans = [EntitySpan(0, 2, "PERS"), EntitySpan(3, 4, "GPE")]
        assert project_flat(spans) == spans

    def test_empty(self):
        assert project_flat([]) == []

    def test_type_order_breaks_ties(self):
        spans = [EntitySpan(0, 2, "B"), EntitySpan(0, 2, "A")]
        assert project_flat(spans, ["A", "B"]) == [EntitySpan(0, 2, "A")]
        assert project_flat(spans, ["B", "A"]) == [EntitySpan(0, 2, "B")]

    def test_type_missing_from_the_order_is_named(self):
        spans = [EntitySpan(0, 2, "PERS"), EntitySpan(3, 4, "ORG")]
        with pytest.raises(UnknownEntityType, match="^span type 'ORG' is not in the type order$"):
            project_flat(spans, ["PERS", "GPE"])
        with pytest.raises(UnknownEntityType, match="'ORG'"):
            project_flat(spans[1:], [])

    def test_matches_reference_on_random_span_sets(self):
        rng = random.Random(21)
        types = ["A", "B", "C"]
        for _ in range(500):
            spans = []
            for _ in range(rng.randint(0, 8)):
                start = rng.randint(0, 8)
                spans.append(EntitySpan(start, start + rng.randint(1, 4), rng.choice(types)))
            result = project_flat(spans, types)
            assert result == reference_flat(spans, types)
            for a, b in itertools.combinations(result, 2):
                assert not a.overlaps(b)
            # maximality: every dropped span overlaps a kept one
            kept = set(map(repr, result))
            for span in spans:
                if repr(span) not in kept:
                    assert any(span.overlaps(k) for k in result)


class TestGazetteerTagger:
    def test_multi_token_match(self):
        matrix = GazetteerTagger({"وزارة الاقتصاد": "ORG"}).classify(["وزارة", "الاقتصاد"])
        assert matrix.labels["ORG"] == ("B", "I")

    def test_single_token_match(self):
        matrix = GazetteerTagger({"مصر": "GPE"}).classify(["مصر"])
        assert matrix.labels["GPE"] == ("B",)

    def test_empty_gazetteer_all_o(self):
        matrix = GazetteerTagger({}).classify(["a", "b"])
        assert all(row == ("O", "O") for row in matrix.labels.values())

    def test_longest_match_wins(self):
        gazetteer = {"a b": "ORG", "a": "ORG"}
        matrix = GazetteerTagger(gazetteer).classify(["a", "b"])
        assert matrix.labels["ORG"] == ("B", "I")

    def test_unknown_type_rejected(self):
        with pytest.raises(UnknownEntityType):
            GazetteerTagger({"x": "NOPE"})

    def test_oversized_entry_rejected(self):
        with pytest.raises(ValueError):
            GazetteerTagger({"a b c d e f": "ORG"})

    def test_round_trip_recovers_planted_matches(self):
        rng = random.Random(31)
        types = EntityTypeSet(("PERS", "ORG", "LOC", "GPE"))
        for _ in range(100):
            filler = [f"f{i}" for i in range(rng.randint(6, 14))]
            gazetteer = {}
            planted = []
            cursor = 0
            while cursor + 3 < len(filler):
                width = rng.randint(1, 3)
                if rng.random() < 0.5:
                    name_tokens = [f"e{cursor}_{k}" for k in range(width)]
                    type_name = rng.choice(types.types)
                    filler[cursor:cursor + width] = name_tokens
                    gazetteer[" ".join(name_tokens)] = type_name
                    planted.append(EntitySpan(cursor, cursor + width, type_name))
                cursor += width + 1
            matrix = GazetteerTagger(gazetteer, types).classify(filler)
            decoded = sorted(decode_matrix(matrix), key=lambda s: (s.start, s.end, s.type))
            assert decoded == sorted(planted, key=lambda s: (s.start, s.end, s.type))

    def test_matches_reference_scan_on_random_gazetteers(self):
        # A tiny vocabulary with an empty token and tokens holding a space
        # makes entries collide: overlapping and nested entries of several
        # types, and entries with a doubled internal space ("a  b" is
        # "a", "", "b" joined).
        rng = random.Random(47)
        vocab = ["a", "b", "c", "", "a b", "b c"]
        types = EntityTypeSet(("PERS", "ORG", "LOC", "GPE"))
        seen = Counter()
        for _ in range(400):
            sentence = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            gazetteer = {}
            for _ in range(rng.randint(0, 12)):
                # Half the entries are windows of the sentence, so they
                # match; up to 6 tokens, one past the n-gram limit.
                width = rng.randint(1, 6)
                if rng.random() < 0.5:
                    start = rng.randrange(len(sentence))
                    window = sentence[start:start + width]
                else:
                    window = [rng.choice(vocab) for _ in range(width)]
                entry = " ".join(window)
                if 1 <= len(entry.split()) <= 5:
                    gazetteer[entry] = rng.choice(types.types)
            tagger = GazetteerTagger(gazetteer, types)
            for tokens in ([], sentence):
                expected = reference_gazetteer_rows(gazetteer, types, tokens)
                matrix = tagger.classify(tokens)
                assert matrix.labels == expected, (tokens, gazetteer)
                assert list(matrix.types) == list(types)
                spans = decode_matrix(matrix)
                seen["empty sentence"] += not tokens
                for s in spans:
                    text = " ".join(tokens[s.start:s.end])
                    seen["5-token match"] += s.length == 5
                    seen["match at sentence end"] += s.end == len(tokens)
                    seen["doubled space"] += "  " in text
                    seen["token with a space"] += any(" " in t for t in tokens[s.start:s.end])
                    for t in spans:
                        if t.type != s.type and s.overlaps(t):
                            seen["overlap across types"] += 1
                            if t.start <= s.start and s.end <= t.end and s.length < t.length:
                                seen["nested"] += 1
        assert len(seen) == 7 and min(seen.values()) > 0, seen

    def test_leading_space_key_and_empty_head_match_the_reference(self):
        # " a" is the n-gram ("", "a") and "  a" is ("", "", "a"): keys
        # whose head is the empty token, one also longer than 5 tokens
        # once split on single spaces.
        types = EntityTypeSet(("PERS", "ORG"))
        gazetteer = {" a": "PERS", "  a": "ORG", "b  c": "ORG", "a b": "PERS", "     b": "ORG"}
        tagger = GazetteerTagger(gazetteer, types)
        for tokens in (
            ["", "a"], ["", "", "a"], ["b", "", "c"], ["a b"], ["x", "", "a", "b"],
            ["", "", "", "", "", "b"], ["", ""], [""],
        ):
            expected = reference_gazetteer_rows(gazetteer, types, tokens)
            assert tagger.classify(tokens).labels == expected, tokens
        assert tagger.classify(["", "a"]).labels["PERS"] == ("B", "I")
        assert tagger.classify(["b", "", "c"]).labels["ORG"] == ("B", "I", "I")


class TestSpanF1:
    def test_perfect(self):
        gold = [EntitySpan(0, 2, "PERS")]
        assert span_f1(gold, list(gold)) == (1.0, 1.0, 1.0)

    def test_exact_match_criterion(self):
        assert span_f1([EntitySpan(0, 2, "PERS")], [EntitySpan(0, 1, "PERS")]).f1 == 0.0

    def test_half_recall(self):
        gold = [EntitySpan(0, 1, "A"), EntitySpan(2, 3, "B")]
        pred = [EntitySpan(0, 1, "A")]
        # counting oracle: 1 correct of 1 predicted and of 2 gold
        correct = sum(1 for s in pred if s in gold)
        assert correct == 1
        prf = span_f1(gold, pred)
        assert prf == (1.0, 0.5, pytest.approx(2 / 3))

    def test_empty_both(self):
        assert span_f1([], []) == (1.0, 1.0, 1.0)

    def test_empty_one_side(self):
        assert span_f1([EntitySpan(0, 1, "A")], []).f1 == 0.0
        assert span_f1([], [EntitySpan(0, 1, "A")]).f1 == 0.0

    def test_symmetry_laws(self):
        rng = random.Random(41)
        for _ in range(200):
            def spans():
                out = []
                for _ in range(rng.randint(0, 5)):
                    start = rng.randint(0, 6)
                    out.append(EntitySpan(start, start + rng.randint(1, 3), rng.choice("AB")))
                return out
            g, p = spans(), spans()
            assert span_f1(g, p).f1 == pytest.approx(span_f1(p, g).f1)
            assert span_f1(g, p).precision == pytest.approx(span_f1(p, g).recall)

    def test_render_text_is_the_ner_eval_score_line(self, data_dir):
        cli = data_dir / "cli"
        gold, pred = read_span_file(cli / "ner_gold.tsv"), read_span_file(cli / "ner-tag-spans.out")
        _, overall = span_report(gold, pred)
        assert overall.render_text() + "\n" == (cli / "ner-eval.err").read_text("utf-8")
        assert PRF(1.0, 0.5, 2 / 3).render_text() == "precision 100.00%  recall 50.00%  f1 66.67%"


class TestSpanCounts:
    def test_equal_to_the_reference_counting(self):
        rng = random.Random(47)
        seen = Counter()

        def corpus_pair():
            types = rng.sample("ABCDE", rng.randint(1, 3))
            gold, pred = [], []
            for _ in range(rng.randint(0, 6)):
                sentence = []
                for _ in range(rng.choice((0, 0, 1, 2, 4))):
                    start = rng.randint(0, 5)
                    sentence.append(EntitySpan(start, start + rng.randint(1, 3), rng.choice(types)))
                gold.append(sentence)
                # The prediction keeps some gold spans, repeats some and adds
                # spans of its own types, one of which gold may lack.
                kept = [s for s in sentence if rng.random() < 0.6]
                kept += [s for s in kept if rng.random() < 0.2]
                for _ in range(rng.randint(0, 2)):
                    start = rng.randint(0, 5)
                    kept.append(EntitySpan(start, start + rng.randint(1, 3), rng.choice("AF")))
                rng.shuffle(kept)
                pred.append(kept)
            return gold, pred

        for _ in range(400):
            gold, pred = corpus_pair()
            sentences = [*gold, *pred]
            seen["duplicate span"] += any(len(set(s)) < len(s) for s in sentences)
            seen["type on one side only"] += bool(
                {x.type for s in gold for x in s} ^ {x.type for s in pred for x in s}
            )
            seen["empty sentence"] += any(not s for s in sentences)
            seen["overlap across types"] += any(
                a.type != b.type and a.overlaps(b) for s in sentences for a in s for b in s
            )
            results = {}
            for mode in ("nested", "flat"):
                per_type, totals = reference_ner_eval_counts(gold, pred, mode)
                results[mode] = span_counts(gold, pred, mode)
                assert results[mode] == per_type
                assert list(results[mode]) == list(per_type)
                report, overall = span_report(gold, pred, mode)
                assert overall == prf_from_counts(*totals)
                assert report.overall == overall.f1
                rows = [(c.name, c.gold, c.predicted, c.correct, c.score) for c in report.categories]
                assert rows == [
                    (name, *counts, prf_from_counts(*counts).f1)
                    for name, counts in per_type.items()
                ]
            seen["flat differs from nested"] += results["flat"] != results["nested"]
            for g, p in zip(gold, pred):
                _, totals = reference_ner_eval_counts([g], [p], "nested")
                assert span_f1(g, p) == prf_from_counts(*totals)
        assert len(seen) == 5 and min(seen.values()) > 0, seen

    def test_flat_ranks_types_by_first_appearance_in_gold_then_pred(self):
        # Two same-length spans at one start: the first type seen keeps it.
        gold = [[EntitySpan(0, 2, "B")], [EntitySpan(0, 2, "A"), EntitySpan(0, 2, "B")]]
        pred = [[EntitySpan(0, 2, "A")], [EntitySpan(0, 2, "B"), EntitySpan(0, 2, "A")]]
        assert span_counts(gold, pred, "flat") == {"A": (0, 1, 0), "B": (2, 1, 1)}

    def test_misaligned_and_unknown_mode(self):
        with pytest.raises(MisalignedCorpus, match="gold has 1 sentence blocks, predictions have"):
            span_counts([[]], [])
        with pytest.raises(ValueError, match="mode must be"):
            span_counts([], [], "loose")

    def test_report_title_and_empty_corpus(self):
        report, overall = span_report([[]], [[]], "flat")
        assert report.title == "span evaluation (flat, exact match)"
        assert report.categories == ()
        assert overall == (1.0, 1.0, 1.0) and report.overall == 1.0


class TestInterfaces:
    def test_default_pack(self):
        types = default_entity_types()
        assert len(types) == 21
        for required in ("PERS", "ORG", "LOC", "GPE"):
            assert required in types

    def test_type_list_file(self, tmp_path):
        path = tmp_path / "types.txt"
        path.write_text("# types\n\n PERS \nORG\n\nLOC\n", encoding="utf-8")
        assert load_entity_types(path) == ("PERS", "ORG", "LOC")
        assert load_entity_types(str(path)) == ("PERS", "ORG", "LOC")

    def test_unique_nonempty_enforced(self):
        with pytest.raises(ValueError):
            EntityTypeSet(())
        with pytest.raises(ValueError):
            EntityTypeSet(("A", "A"))

    def test_the_one_sentence_tagging_wrapper_is_gone(self):
        import aranlp
        import aranlp.ner

        assert "tag_gazetteer" not in aranlp.__all__
        assert not hasattr(aranlp.ner, "tag_gazetteer")

    def test_run_tagger_wraps_failures(self):
        class Broken:
            def classify(self, tokens):
                raise RuntimeError("boom")

        class WrongShape:
            def classify(self, tokens):
                return LabelMatrix((), {})

        with pytest.raises(TaggerFailure):
            run_tagger(Broken(), ["a"])
        with pytest.raises(TaggerFailure):
            run_tagger(WrongShape(), ["a"])

    def test_gazetteer_file(self, gazetteer):
        assert gazetteer["مصر"] == "GPE"
        assert gazetteer["وزارة الاقتصاد"] == "ORG"

    def test_gazetteer_file_malformed(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("only-one-field\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_gazetteer(path)

    @pytest.mark.parametrize("second_type", ["ORG", "PERS"])
    def test_a_repeated_ngram_raises_at_its_line(self, second_type, tmp_path):
        # the repeat is written another way: padded and with a doubled space
        lines = ["# people\n", "أحمد علي\tPERS\n", "مصر\tGPE\n", f" أحمد  علي \t{second_type}\n"]
        path = tmp_path / "g.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        for source in (path, lines, [line.rstrip("\n") for line in lines]):
            with pytest.raises(MalformedRow) as err:
                load_gazetteer(source)
            assert err.value.line_number == 4
            assert str(err.value) == "line 4: repeated n-gram 'أحمد علي', first typed 'PERS'"

    def test_equal_type_names_are_one_object(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("مصر\tGPE\nتونس\t GPE\nوزارة الاقتصاد\tORG\nليبيا\tGPE\n", encoding="utf-8")
        gazetteer = load_gazetteer(path)
        assert sorted(gazetteer.values()) == ["GPE", "GPE", "GPE", "ORG"]
        assert one_object_per_value(gazetteer.values())

    def test_loaded_entry_with_doubled_space_matches(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("زيد  عمرو\tPERS\n مصر \tGPE\n", encoding="utf-8")
        gazetteer = load_gazetteer(path)
        assert gazetteer == {"زيد عمرو": "PERS", "مصر": "GPE"}
        matrix = GazetteerTagger(gazetteer).classify(["زيد", "عمرو", "مصر"])
        assert decode_matrix(matrix) == [EntitySpan(0, 2, "PERS"), EntitySpan(2, 3, "GPE")]

    def test_span_file_round_trip(self, tmp_path):
        sentences = [
            [EntitySpan(0, 2, "ORG"), EntitySpan(3, 4, "GPE")],
            [],
            [EntitySpan(1, 2, "PERS")],
        ]
        path = tmp_path / "spans.tsv"
        path.write_text(format_span_file(sentences), encoding="utf-8")
        assert read_span_file(path) == sentences

    def test_span_file_malformed(self, tmp_path):
        path = tmp_path / "spans.tsv"
        path.write_text("0\ttwo\tORG\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            read_span_file(path)

import random
import threading
import unicodedata
from collections import Counter

import pytest

from aranlp.errors import DuplicateExactRow, EmptyDictionary, MalformedRow
from aranlp.morphology import (
    MorphSolution,
    RankedSolutions,
    all_solutions,
    analyze,
    analyze_text,
    coarse_pos,
    load_dictionary,
    load_tag_map,
    load_tagset,
)

from _oracles import (
    EDGE_SPACES,
    one_object_per_value,
    random_dictionary_lines,
    random_token,
    reference_load_dictionary,
)


def linear_scan(path, word):
    """Oracle: brute-force scan of the raw TSV for the best solution."""
    from aranlp.script import ar_strip

    word = unicodedata.normalize("NFC", word)
    rows = []
    for line in path.read_text("utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        wf, lemma, pos, root, freq = line.split("\t")
        rows.append((unicodedata.normalize("NFC", wf), lemma, pos, root, int(freq)))
    for key in (word, ar_strip(word, diacritics=True, shaddah=True, tatweel=True)):
        hits = [r for r in rows if r[0] == key]
        if hits:
            return min(hits, key=lambda r: (-r[4], r[1], r[2], r[3]))[1:]
    return None


class TestLoadDictionary:
    def test_most_frequent_solution_on_top(self, morph_dict):
        assert morph_dict.entries["ذهب"][0].pos == "verb"
        assert morph_dict.entries["ذهب"][0].frequency == 900

    def test_frequency_sorted(self, morph_dict):
        freqs = [s.frequency for s in morph_dict.entries["ذهب"]]
        assert freqs == sorted(freqs, reverse=True)

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# only a comment\n", encoding="utf-8")
        with pytest.raises(EmptyDictionary):
            load_dictionary(empty)

    def test_malformed_row(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("كتب\tكَتَبَ\tverb\t10\n", encoding="utf-8")
        with pytest.raises(MalformedRow) as err:
            load_dictionary(bad)
        assert err.value.line_number == 1

    def test_bad_frequency(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("كتب\tكَتَبَ\tverb\tكتب\tmany\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_dictionary(bad)

    def test_unknown_pos_tag(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("كتب\tكَتَبَ\twhatever\tكتب\t10\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_dictionary(bad)

    def test_minus_zero_frequency_loads_as_zero(self):
        rows = ["كتب\tكَتَبَ\tverb\tكتب\t-0", "كتب\tكِتابٌ\tnoun\tكتب\t 0"]
        loaded = load_dictionary(rows)
        assert loaded == reference_load_dictionary(rows)
        assert [s.frequency for s in loaded.entries["كتب"]] == [0, 0]

    def test_duplicate_exact_row(self, tmp_path):
        bad = tmp_path / "dup.tsv"
        bad.write_text(
            "كتب\tكَتَبَ\tverb\tكتب\t10\nكتب\tكَتَبَ\tverb\tكتب\t9\n", encoding="utf-8"
        )
        with pytest.raises(DuplicateExactRow):
            load_dictionary(bad)

    def test_tie_break_is_lexicographic(self):
        rows = [
            "كتب\tكِتابٌ\tnoun\tكتب\t10",
            "كتب\tكَتَبَ\tverb\tكتب\t10",
        ]
        loaded = load_dictionary(rows)
        assert [s.lemma for s in loaded.entries["كتب"]] == ["كَتَبَ", "كِتابٌ"]


def _bad_row(rng: random.Random, good: list[str]) -> tuple[str, set[str]]:
    """A data line with one to three faults, each a check load_dictionary
    makes, and the names of the faults."""
    data = [line for line in good if line.strip() and not line.startswith("#")]
    wordform, lemma, pos, root, frequency = rng.choice(data).split("\t")
    faults = set(rng.sample(
        ["duplicate", "wordform", "lemma", "pos", "not an integer", "negative", "width"],
        rng.randint(1, 3),
    ))
    if "duplicate" in faults:  # the same solution, written another way
        wordform = unicodedata.normalize("NFD", wordform) + rng.choice(EDGE_SPACES)
        lemma = rng.choice(EDGE_SPACES) + lemma
        frequency = str(int(frequency) + 1)
    if "wordform" in faults:
        wordform = rng.choice(["", "\u2000", " \u3000"])
    if "lemma" in faults:
        lemma = rng.choice(["", "\u2001", "\u00a0 "])
    if "pos" in faults:
        pos = rng.choice(["whatever", "NOUN", " "])
    if "not an integer" in faults:
        frequency = rng.choice(["many", "1.5", "", "\u2000", "٣x"])
    elif "negative" in faults:
        frequency = rng.choice(["-1", " -7", "-0"])
    fields = [wordform, lemma, pos, root, frequency]
    if "width" in faults:
        fields = fields[:4] if rng.random() < 0.5 else fields + ["extra"]
    return "\t".join(fields), faults


class TestLoaderOracle:
    """load_dictionary parses as the per-field reference it replaces."""

    MESSAGES = [
        "must be non-empty", "tag set", "not an integer", "non-negative", "tab-separated",
        "duplicate solution",
    ]

    SOURCES = {
        "path": lambda lines, path: path,
        "str path": lambda lines, path: str(path),
        "lines": lambda lines, path: list(lines),
        "lines with newlines": lambda lines, path: [line + "\n" for line in lines],
        "generator": lambda lines, path: iter(lines),
    }

    @staticmethod
    def _outcome(load, source):
        try:
            loaded = load(source)
        except (MalformedRow, DuplicateExactRow, EmptyDictionary) as exc:
            return type(exc), str(exc), getattr(exc, "line_number", None)
        return loaded, list(loaded.entries.items())

    def _load_both(self, lines, tmp_path, seen):
        """Load ``lines`` from every kind of source with the loader and the
        reference; assert equal outcomes and return the loader's."""
        path = tmp_path / "dictionary.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for name, make in self.SOURCES.items():
            mine = self._outcome(load_dictionary, make(lines, path))
            expected = self._outcome(reference_load_dictionary, make(lines, path))
            assert mine == expected, (name, lines)
            seen[name] += 1
        return mine

    def test_good_dictionaries_match_the_reference(self, tmp_path):
        rng = random.Random(1101)
        tags = sorted(load_tagset())
        seen = Counter()
        for _ in range(150):
            lines = random_dictionary_lines(rng, tags, rng.randint(0, 40))
            self._load_both(lines, tmp_path, seen)
            text = "\n".join(lines)
            data = [line.split("\t") for line in lines if line.strip() and line[0] != "#"]
            entries = reference_load_dictionary(lines).entries if data else {}
            seen["multi-solution"] += any(len(v) > 1 for v in entries.values())
            seen["tied frequencies"] += any(
                len({s.frequency for s in v}) < len(v) for v in entries.values()
            )
            seen["comment"] += any(line.startswith("#") for line in lines)
            seen["blank"] += any(not line.strip() for line in lines)
            for space in EDGE_SPACES:
                seen[f"edge U+{ord(space):04X}"] += any(
                    f != f.lstrip(space) or f != f.rstrip(space) for row in data for f in row
                )
            seen["leading mark"] += any(
                f.strip() and unicodedata.combining(f.strip()[0]) for row in data for f in row
            )
            seen["NFC composes"] += text != unicodedata.normalize("NFC", text)
            seen["empty dictionary"] += not data
        assert all(seen[key] for key in (
            "multi-solution", "tied frequencies", "comment", "blank", "edge U+0020",
            "edge U+00A0", "edge U+2000", "edge U+2001", "edge U+3000", "leading mark",
            "NFC composes", "empty dictionary", *self.SOURCES,
        )), seen

    def test_bad_rows_raise_as_the_reference(self, tmp_path):
        rng = random.Random(1103)
        tags = sorted(load_tagset())
        seen = Counter()
        for _ in range(300):
            good = random_dictionary_lines(rng, tags, rng.randint(1, 20))
            if not any(line.strip() and not line.startswith("#") for line in good):
                continue
            bad, faults = _bad_row(rng, good)
            lines = list(good)
            lines.insert(rng.randint(0, len(lines)), bad)
            lines += random_dictionary_lines(rng, tags, rng.randint(0, 5))
            mine = self._load_both(lines, tmp_path, seen)
            # every bad row raises: a -0 frequency alone repeats the row it
            # was drawn from, so it raises DuplicateExactRow
            assert isinstance(mine[0], type), (bad, faults)
            seen[mine[0].__name__] += 1
            seen.update(key for key in self.MESSAGES if key in mine[1])
            seen["several faults"] += len(faults) > 1
        assert all(seen[key] for key in (
            "MalformedRow", "DuplicateExactRow", "several faults", *self.MESSAGES,
            *self.SOURCES,
        )), seen


class TestSharedFields:
    """Equal field values of one load are one object."""

    @staticmethod
    def _lines(rng, tags):
        """Rows over small pools in random order, so a wordform's rows
        come with its lemma-equal row first or later; frequencies beyond
        the interpreter's small-int cache, some with padding."""
        words = [random_token(rng, 4) for _ in range(40)]
        roots = [random_token(rng, 3) for _ in range(6)]
        lines, seen = [], set()
        while len(lines) < 300:
            wordform, pos, root = rng.choice(words), rng.choice(tags), rng.choice(roots)
            lemma = wordform if rng.random() < 0.5 else rng.choice(words)
            if (wordform, lemma, pos, root) in seen:
                continue
            seen.add((wordform, lemma, pos, root))
            frequency = rng.choice([7, 300, 70_000])
            frequency = rng.choice(["{}", " {} "]).format(frequency)
            padded = f" {wordform}" if rng.random() < 0.2 else wordform
            lines.append("\t".join((padded, lemma, pos, root, frequency)))
        return lines

    def test_one_object_per_value(self):
        rng = random.Random(1109)
        tags = sorted(load_tagset())[:5]
        seen = Counter()
        for _ in range(10):
            lines = self._lines(rng, tags)
            loaded = load_dictionary(lines)
            assert loaded == reference_load_dictionary(lines)
            solutions = [s for v in loaded.entries.values() for s in v]
            for field in ("pos", "root", "frequency"):
                assert one_object_per_value(getattr(s, field) for s in solutions), field
            assert {id(s.pos) for s in solutions} <= {id(tag) for tag in load_tagset()}
            for wordform, ranked in loaded.entries.items():
                for solution in ranked:
                    if solution.lemma == wordform:
                        assert solution.lemma is wordform
                        seen["lemma is wordform"] += 1
            first = {}
            for line in lines:
                wordform, lemma = (f.strip() for f in line.split("\t")[:2])
                if first.setdefault(wordform, lemma) != wordform and lemma == wordform:
                    seen["lemma-equal row after the first"] += 1
        assert seen["lemma is wordform"] and seen["lemma-equal row after the first"], seen


class TestAnalyze:
    def test_default_pos_is_verb(self, morph_dict):
        assert analyze("ذهب", morph_dict, "pos").value == "verb"

    def test_oov(self, morph_dict):
        tagged = analyze("قق", morph_dict, "full")
        assert tagged.source == "oov"
        assert tagged.solution is None
        assert tagged.value is None

    def test_stripped_fallback(self, morph_dict):
        tagged = analyze("ذَهَبَ", morph_dict, "pos")
        assert tagged.value == "verb"
        assert tagged.source == "stripped"

    def test_exact_beats_stripped(self, morph_dict):
        assert analyze("ذهب", morph_dict).source == "exact"

    def test_task_selects_field(self, morph_dict):
        assert analyze("ذهب", morph_dict, "lemma").value == "ذَهَبَ"
        assert analyze("ذهب", morph_dict, "root").value == "ذهب"
        assert analyze("ذهب", morph_dict, "full").value == morph_dict.entries["ذهب"][0]

    def test_unknown_task(self, morph_dict):
        with pytest.raises(ValueError):
            analyze("ذهب", morph_dict, "stem")

    def test_determinism_and_context_independence(self, morph_dict):
        alone = analyze("ذهب", morph_dict)
        in_text = analyze_text("الولد ذهب الولد", morph_dict)[1]
        assert alone.solution == in_text.solution
        assert analyze("ذهب", morph_dict) == alone

    def test_oracle_equivalence_on_fixture(self, morph_dict, data_dir):
        path = data_dir / "morph_dict.tsv"
        probes = [
            "ذهب", "ذَهَبَ", "الولد", "وزارة", "مصر", "في", "قق", "ضريبة",
            "بتخفيض", "ذَهَب",
        ]
        for word in probes:
            expected = linear_scan(path, word)
            tagged = analyze(word, morph_dict)
            if expected is None:
                assert tagged.solution is None
            else:
                lemma, pos, root, freq = expected
                assert tagged.solution == MorphSolution(lemma, pos, root, freq)


    @pytest.mark.parametrize("task", ["lemma", "pos", "root", "full"])
    def test_tagged_token_renders_the_morph_goldens(self, task, morph_dict, data_dir):
        tokens = (data_dir / "morph_tokens.txt").read_text("utf-8").split()
        tagged = [analyze(token, morph_dict, task) for token in tokens]
        for render, suffix in (("render_text", "txt"), ("render_records", "jsonl")):
            expected = (data_dir / f"morph_{task}_expected.{suffix}").read_text("utf-8")
            assert "".join(getattr(t, render)() + "\n" for t in tagged) == expected

    def test_solution_renders_its_fields_with_tabs(self):
        assert MorphSolution("ذَهَبَ", "verb", "ذهب", 900).render_text() == "ذَهَبَ\tverb\tذهب\t900"

    def test_ranked_solutions_render_the_morph_all_goldens(self, morph_dict, data_dir):
        tokens = (data_dir / "morph_tokens.txt").read_text("utf-8").split()
        ranked = [RankedSolutions(token, all_solutions(token, morph_dict)) for token in tokens]
        assert any(not r.solutions for r in ranked) and any(len(r.solutions) > 1 for r in ranked)
        for render, suffix in (("render_text", "txt"), ("render_records", "jsonl")):
            expected = (data_dir / f"morph_all_expected.{suffix}").read_text("utf-8")
            assert "".join(getattr(r, render)() + "\n" for r in ranked) == expected


class TestAnalyzeText:
    def test_two_tokens(self, morph_dict):
        tagged = analyze_text("ذهب الولد", morph_dict)
        assert len(tagged) == 2
        assert [t.surface for t in tagged] == ["ذهب", "الولد"]

    def test_empty(self, morph_dict):
        assert analyze_text("", morph_dict) == []

    def test_length_law(self, morph_dict):
        text = "ذهب قق الولد مصر zz"
        assert len(analyze_text(text, morph_dict)) == len(text.split())


class TestAllSolutions:
    def test_ranked_list(self, morph_dict):
        solutions = all_solutions("ذهب", morph_dict)
        assert [s.pos for s in solutions] == ["verb", "noun", "verb"]
        assert [s.frequency for s in solutions] == [900, 100, 50]

    def test_oov_empty(self, morph_dict):
        assert all_solutions("قق", morph_dict) == ()

    def test_head_equals_analyze(self, morph_dict):
        for word in morph_dict.entries:
            assert all_solutions(word, morph_dict)[0] == analyze(word, morph_dict).solution

    def test_single_solution_consistency(self, morph_dict):
        solutions = all_solutions("مصر", morph_dict)
        assert len(solutions) == 1
        assert solutions[0] == analyze("مصر", morph_dict).solution


class TestTagInventories:
    def test_counts(self):
        assert len(load_tagset()) == 40
        assert len(set(load_tag_map().values())) == 18

    def test_mapping_is_total_and_surjective(self):
        tagset, mapping = load_tagset(), load_tag_map()
        assert set(mapping) == tagset
        assert coarse_pos("noun_prop") == "propnoun"

    def test_tag_map_copy_does_not_change_coarse_pos(self):
        mapping = load_tag_map()
        mapping["noun_prop"] = "changed"
        mapping.clear()
        assert coarse_pos("noun_prop") == "propnoun"
        assert load_tag_map()["noun_prop"] == "propnoun"

    def test_fixture_tags_belong_to_inventory(self, morph_dict):
        tagset = load_tagset()
        for solutions in morph_dict.entries.values():
            for s in solutions:
                assert s.pos in tagset


class TestLazyRegistryLoad:
    def test_loads_exactly_once_under_concurrency(self, tmp_path, data_dir, monkeypatch):
        from aranlp import resources

        root = tmp_path / "resources"
        (root / "morphology").mkdir(parents=True)
        (root / "morphology" / "dictionary.tsv").write_bytes(
            (data_dir / "morph_dict.tsv").read_bytes()
        )
        registry = resources.ResourceRegistry(root)

        calls = []
        real_load = resources._LOADERS["morph_dictionary"]

        def counting_load(path):
            calls.append(path)
            return real_load(path)

        monkeypatch.setitem(resources._LOADERS, "morph_dictionary", counting_load)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(registry.load("morph_dictionary")))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert all(r is results[0] for r in results)

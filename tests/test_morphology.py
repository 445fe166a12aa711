import threading
import unicodedata

import pytest

from aranlp.errors import DuplicateExactRow, EmptyDictionary, MalformedRow
from aranlp.morphology import (
    MorphSolution,
    all_solutions,
    analyze,
    analyze_text,
    coarse_pos,
    load_dictionary,
    load_tag_map,
    load_tagset,
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
        loaded = load_dictionary(bad, tagset=frozenset())
        assert loaded.entries["كتب"][0].pos == "whatever"

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

    def test_fallback_hook(self, morph_dict):
        filler = MorphSolution("قَقٌّ", "noun", "قق", 1)
        tagged = analyze("قق", morph_dict, fallback=lambda w: filler)
        assert tagged.source == "fallback"
        assert tagged.solution == filler
        # in-vocabulary words never reach the fallback
        assert analyze("ذهب", morph_dict, fallback=lambda w: filler).source == "exact"

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
        real_loaders = resources._loaders()

        def counting_loaders():
            def load(path):
                calls.append(path)
                return real_loaders["morph_dictionary"](path)
            return {**real_loaders, "morph_dictionary": load}

        monkeypatch.setattr(resources, "_loaders", counting_loaders)
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

import argparse
import errno
import gc
import io
import os
import tarfile
import types
import zipfile

import pytest

from aranlp import _tsv, cli, evaluation, morphology, ner, resources, synonymy, wsd
from aranlp.errors import BadArchive, MalformedRow, PathEscape, ResourceMissing
from aranlp.ner import EntitySpan, LabelMatrix
from aranlp.relatedness import load_pairs
from aranlp.resources import RESOURCE_PATHS, InstallSummary, ResourceRegistry, install
from aranlp.wsd import AnnotatedSentence, AnnotatedSpan


def make_zip(path, files):
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in files.items():
            zf.writestr(name, data)
    return path


def directory_snapshot(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


class TestRegistry:
    def test_known_paths(self, tmp_path):
        registry = ResourceRegistry(tmp_path)
        assert registry.path("morph_dictionary") == tmp_path / "morphology/dictionary.tsv"
        with pytest.raises(KeyError):
            registry.path("nonexistent")

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARANLP_RESOURCES", str(tmp_path / "elsewhere"))
        registry = ResourceRegistry()
        assert registry.root == tmp_path / "elsewhere"

    def test_missing_resource_names_path(self, tmp_path):
        registry = ResourceRegistry(tmp_path)
        with pytest.raises(ResourceMissing) as err:
            registry.load("gazetteer")
        assert str(tmp_path / RESOURCE_PATHS["gazetteer"]) in str(err.value)

    def test_load_returns_cached_object(self, tmp_path, data_dir):
        target = tmp_path / RESOURCE_PATHS["sense_inventory"]
        target.parent.mkdir(parents=True)
        target.write_bytes((data_dir / "inventory.tsv").read_bytes())
        registry = ResourceRegistry(tmp_path)
        assert not registry.is_loaded("sense_inventory")
        first = registry.load("sense_inventory")
        assert registry.is_loaded("sense_inventory")
        assert registry.load("sense_inventory") is first

    def test_load_prefers_an_explicit_path(self, tmp_path, monkeypatch, data_dir):
        monkeypatch.setenv("ARANLP_RESOURCES", str(tmp_path))
        gazetteer = data_dir / "gazetteer.tsv"
        assert resources.load("gazetteer", gazetteer) == ner.load_gazetteer(gazetteer)
        for path in (None, ""):
            with pytest.raises(ResourceMissing):
                resources.load("gazetteer", path)
        target = tmp_path / RESOURCE_PATHS["gazetteer"]
        target.parent.mkdir(parents=True)
        target.write_text("مصر\tGPE\n", encoding="utf-8")
        assert resources.load("gazetteer") == {"مصر": "GPE"}

    def test_status(self, tmp_path):
        rows = ResourceRegistry(tmp_path).status()
        assert {name for name, *_ in rows} == set(RESOURCE_PATHS)
        assert all(not exists for _, _, exists, _ in rows)

    def test_status_rows_render_the_resources_list_golden(self, data_dir, monkeypatch):
        monkeypatch.chdir(data_dir.parents[1])
        registry = ResourceRegistry("tests/data/cli/resources")
        registry.load("gazetteer")
        rows = registry.status()
        assert [(row.name, row.exists, row.loaded) for row in rows if row.exists] == [
            ("gazetteer", True, True)
        ]
        expected = (data_dir / "cli" / "resources-list.out").read_text("utf-8")
        assert "".join(row.render_text() + "\n" for row in rows) == expected


class TestInstall:
    def test_zip_install_lists_files(self, tmp_path):
        archive = make_zip(tmp_path / "pack.zip", {
            "morphology/dictionary.tsv": "كتب\tكَتَبَ\tverb\tكتب\t5\n",
            "ner/gazetteer.tsv": "مصر\tGPE\n",
        })
        root = tmp_path / "resources"
        summary = install(archive, root)
        assert sorted(summary.added) == ["morphology/dictionary.tsv", "ner/gazetteer.tsv"]
        assert (root / "ner/gazetteer.tsv").read_text("utf-8") == "مصر\tGPE\n"

    def test_reinstall_is_idempotent_overwrite(self, tmp_path):
        archive = make_zip(tmp_path / "pack.zip", {"a/x.tsv": "data", "b/y.tsv": "more"})
        root = tmp_path / "resources"
        install(archive, root)
        before = directory_snapshot(root)
        summary = install(archive, root)
        assert directory_snapshot(root) == before
        assert summary.added == []
        assert sorted(summary.unchanged) == ["a/x.tsv", "b/y.tsv"]

    def test_changed_file_reported_as_replaced(self, tmp_path):
        root = tmp_path / "resources"
        install(make_zip(tmp_path / "v1.zip", {"a/x.tsv": "old"}), root)
        summary = install(make_zip(tmp_path / "v2.zip", {"a/x.tsv": "new"}), root)
        assert summary.replaced == ["a/x.tsv"]
        assert (root / "a/x.tsv").read_text() == "new"

    @pytest.mark.parametrize("existing", [True, False])
    def test_failed_write_leaves_the_old_file_whole(self, tmp_path, monkeypatch, existing):
        root = tmp_path / "resources"
        if existing:
            install(make_zip(tmp_path / "v1.zip", {"a/x.tsv": "old"}), root)
        else:
            (root / "a").mkdir(parents=True)
        before = directory_snapshot(root)

        class DiskFull:
            """A file handle that writes half the data, then fails."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[:len(data) // 2])
                self.handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        failing_os = types.SimpleNamespace(**vars(os))
        failing_os.fdopen = lambda fd, mode: DiskFull(os.fdopen(fd, mode))
        monkeypatch.setattr(resources, "os", failing_os)
        with pytest.raises(OSError, match="No space left"):
            install(make_zip(tmp_path / "v2.zip", {"a/x.tsv": "new and longer"}), root)
        assert directory_snapshot(root) == before
        assert sorted(p.name for p in (root / "a").iterdir()) == (["x.tsv"] if existing else [])

    def test_tarball_supported(self, tmp_path):
        source = tmp_path / "content"
        (source / "wsd").mkdir(parents=True)
        (source / "wsd/inventory.tsv").write_text("SW\tكلمة\tg1\tنص\n", encoding="utf-8")
        archive = tmp_path / "pack.tar.gz"
        with tarfile.open(archive, "w:gz") as tf:
            tf.add(source / "wsd", arcname="wsd")
        summary = install(archive, tmp_path / "resources")
        assert summary.added == ["wsd/inventory.tsv"]

    def test_path_escape_rejected(self, tmp_path):
        archive = make_zip(tmp_path / "evil.zip", {"../evil.txt": "x"})
        root = tmp_path / "resources"
        with pytest.raises(PathEscape):
            install(archive, root)
        assert not (tmp_path / "evil.txt").exists()

    def test_absolute_path_rejected(self, tmp_path):
        archive = make_zip(tmp_path / "evil.zip", {"/abs.txt": "x"})
        with pytest.raises(PathEscape):
            install(archive, tmp_path / "resources")

    def test_corrupt_archive(self, tmp_path):
        junk = tmp_path / "junk.zip"
        junk.write_bytes(b"this is not an archive at all")
        with pytest.raises(BadArchive):
            install(junk, tmp_path / "resources")

    def test_missing_archive(self, tmp_path):
        with pytest.raises(BadArchive):
            install(tmp_path / "absent.zip", tmp_path / "resources")

    @pytest.mark.parametrize("kind", ["zip", "tar"])
    def test_archive_past_the_size_limit_writes_nothing(self, tmp_path, monkeypatch, kind):
        def archive(name, files):
            if kind == "zip":
                return make_zip(tmp_path / f"{name}.zip", files)
            path = tmp_path / f"{name}.tar"
            with tarfile.open(path, "w") as tf:
                for member, data in files.items():
                    info = tarfile.TarInfo(member)
                    info.size = len(data)
                    tf.addfile(info, io.BytesIO(data))
            return path

        root = tmp_path / "resources"
        install(archive("v1", {"a/x.tsv": b"old"}), root)
        before = directory_snapshot(root)
        v2 = archive("v2", {"a/x.tsv": b"new", "a/y.tsv": b"added"})  # 8 bytes
        monkeypatch.setattr(resources, "MAX_ARCHIVE_BYTES", 7)
        # the limit is checked before any member's bytes are read
        monkeypatch.setattr(zipfile.ZipFile, "read", None)
        monkeypatch.setattr(tarfile.TarFile, "extractfile", None)
        with pytest.raises(BadArchive) as err:
            install(v2, root)
        assert str(err.value) == (
            f"{v2} declares 8 bytes of files, more than the 7-byte limit "
            "(resources.MAX_ARCHIVE_BYTES)"
        )
        assert directory_snapshot(root) == before
        assert sorted(p.name for p in (root / "a").iterdir()) == ["x.tsv"]
        monkeypatch.undo()
        monkeypatch.setattr(resources, "MAX_ARCHIVE_BYTES", 8)
        assert install(v2, root).render().startswith("installed 2 file(s): 1 added, 1 replaced")

    def test_summary_render(self):
        summary = InstallSummary(added=["a"], replaced=["b"], unchanged=[])
        text = summary.render()
        assert "2 file(s)" in text and "A a" in text and "R b" in text


def _from_path(loader):
    return lambda path, monkeypatch: loader(path)


def _from_lines(loader, keepends):
    return lambda path, monkeypatch: loader(path.read_text("utf-8").splitlines(keepends))


def _packaged(loader):
    def call(path, monkeypatch):
        monkeypatch.setattr(_tsv, "packaged", lambda name: path.read_text("utf-8").splitlines())
        return loader()
    return call


# A comment and a blank line come first, so each bad row is at least on
# physical line 3.
PREAMBLE = "# header\n\n"

MALFORMED_ROWS = [
    ("load_dictionary", _from_path(morphology.load_dictionary),
     "كتب\tكَتَبَ\tverb\t10\n", 3, "expected 5 tab-separated fields, got 4"),
    ("load_dictionary-lines", _from_lines(morphology.load_dictionary, True),
     "كتب\tكَتَبَ\tverb\t10\n", 3, "expected 5 tab-separated fields, got 4"),
    ("load_dictionary-lines-no-newline", _from_lines(morphology.load_dictionary, False),
     "كتب\tكَتَبَ\tverb\t10\n", 3, "expected 5 tab-separated fields, got 4"),
    ("load_tagset", _packaged(morphology.load_tagset),
     "NOUN\tX\n", 3, "expected 1 tab-separated fields, got 2"),
    ("_tag_map", _packaged(morphology._tag_map.__wrapped__),
     "NOUN\tnoun\tX\n", 3, "expected 2 tab-separated fields, got 3"),
    ("load_gazetteer", _from_path(ner.load_gazetteer),
     "مصر\tGPE\tX\n", 3, "expected 2 tab-separated fields, got 3"),
    ("load_gazetteer-lines", _from_lines(ner.load_gazetteer, False),
     "مصر\tGPE\tX\n", 3, "expected 2 tab-separated fields, got 3"),
    ("load_gazetteer-empty-field", _from_path(ner.load_gazetteer),
     "مصر\t \n", 3, "both n-gram and type must be non-empty"),
    ("load_gazetteer-six-tokens", _from_path(ner.load_gazetteer),
     "أ ب ت ث ج ح\tGPE\n", 3, "n-gram must have 1..5 tokens"),
    ("default_entity_types", _packaged(ner.default_entity_types),
     "PERS\tX\n", 3, "expected 1 tab-separated fields, got 2"),
    ("load_entity_types", _from_path(ner.load_entity_types),
     "PERS\tX\n", 3, "expected 1 tab-separated fields, got 2"),
    ("read_span_file", _from_path(ner.read_span_file),
     "0\t1\tPERS\n0\t1\n", 4, "expected 3 tab-separated fields, got 2"),
    ("read_span_file-lines", _from_lines(ner.read_span_file, False),
     "0\t1\tPERS\n0\t1\n", 4, "expected 3 tab-separated fields, got 2"),
    ("read_span_file-dash-among-spans", _from_path(ner.read_span_file),
     "0\t1\tPERS\n-\n", 4, "expected 3 tab-separated fields, got 1"),
    ("read_span_file-invalid-span", _from_path(ner.read_span_file),
     "3\t1\tPERS\n", 3, "invalid span (3, 1)"),
    ("load_inventory", _from_path(wsd.load_inventory),
     "SW\tكتب\tg1\n", 3, "expected 4 tab-separated fields, got 3"),
    ("load_inventory-lines", _from_lines(wsd.load_inventory, False),
     "SW\tكتب\tg1\n", 3, "expected 4 tab-separated fields, got 3"),
    ("load_inventory-empty-gloss-id", _from_path(wsd.load_inventory),
     "SW\tكتب\t \tنص\n", 3, "lemma n-gram and gloss_id must be non-empty"),
    ("load_inventory-two-token-sw-key", _from_path(wsd.load_inventory),
     "SW\tكتب ذهب\tg1\tنص\n", 3, "SW key must be a single lemma"),
    ("read_annotated_corpus", _from_path(wsd.read_annotated_corpus),
     "كتب ذهب\n0\t1\tentity\n", 4, "expected 4 tab-separated fields, got 3"),
    ("read_annotated_corpus-lines", _from_lines(wsd.read_annotated_corpus, False),
     "كتب ذهب\n0\t1\tentity\n", 4, "expected 4 tab-separated fields, got 3"),
    ("read_annotated_corpus-unknown-kind", _from_path(wsd.read_annotated_corpus),
     "كتب ذهب\n0\t1\tverb\tg1\n", 4,
     "kind must be one of ('entity', 'multiword', 'singleword'), got 'verb'"),
    ("read_annotated_corpus-span-past-the-sentence", _from_path(wsd.read_annotated_corpus),
     "كتب ذهب\n0\t1\tentity\tPERS\n0\t5\tsingleword\tg1\n", 5,
     "span (0, 5) runs past the 2-token sentence"),
    ("load_pairs", _from_path(load_pairs),
     "أ\tب\t0.5\tX\n", 3, "expected 2 or 3 tab-separated fields, got 4"),
    ("load_pairs-lines", _from_lines(load_pairs, False),
     "أ\tب\t0.5\tX\n", 3, "expected 2 or 3 tab-separated fields, got 4"),
    ("load_pairs-gold-not-a-number", _from_path(load_pairs),
     "أ\tب\thigh\n", 3, "gold score 'high' is not a number"),
    ("load_pairs-gold-out-of-range", _from_path(load_pairs),
     "أ\tب\t1.5\n", 3, "gold score must lie in [0, 1], got 1.5"),
    ("load_pairs-white-space-sentence", _from_path(load_pairs),
     "أ\tب\t0.5\nأ\t \u00a0\t0.5\n", 4, "both sentences must have at least one token"),
    ("load_pairs-empty-sentence", _from_path(load_pairs),
     "\tب\n", 3, "both sentences must have at least one token"),
    ("build_graph", _from_path(synonymy.build_graph),
     "ذهب\tar\tgo\ten\tL\n", 3, "expected 6 tab-separated fields, got 5"),
    ("build_graph-lines", _from_lines(synonymy.build_graph, False),
     "ذهب\tar\tgo\ten\tL\n", 3, "expected 6 tab-separated fields, got 5"),
    ("build_graph-empty-surface", _from_path(synonymy.build_graph),
     " \tar\tgo\ten\tL\t1\n", 3, "surfaces must be non-empty"),
    ("cli._load_types", _from_path(lambda path: cli._load_types(argparse.Namespace(types=path))),
     "PERS\tX\n", 3, "expected 1 tab-separated fields, got 2"),
    ("ner.read_matrix_file", _from_lines(ner.read_matrix_file, False),
     "كتب ذهب\nPERS B O\n", 4, "expected `TYPE<TAB>label label ...`"),
    ("ner.read_matrix_file-repeated-type", _from_lines(ner.read_matrix_file, False),
     "كتب ذهب\nPERS\tB I\nPERS\tO O\n", 5, "a second row for type 'PERS'"),
    ("read_weighted_scores", _from_path(evaluation.read_weighted_scores),
     "50%\n", 3, "expected `score<TAB>weight`"),
    ("read_weighted_scores-lines", _from_lines(evaluation.read_weighted_scores, True),
     "50%\n", 3, "expected `score<TAB>weight`"),
    ("read_weighted_scores-percent-above-100", _from_path(evaluation.read_weighted_scores),
     "150%\t1\n", 3, "percent scores must lie in [0%, 100%]"),
    ("read_weighted_scores-negative-percent", _from_path(evaluation.read_weighted_scores),
     "-5%\t1\n", 3, "percent scores must lie in [0%, 100%]"),
    ("read_weighted_scores-not-a-number", _from_path(evaluation.read_weighted_scores),
     "abc\t1\n", 3, "score and weight must be numbers"),
    ("read_weighted_scores-plain-above-1", _from_path(evaluation.read_weighted_scores),
     "1.5\t1\n", 3, "plain scores must lie in [0, 1]; use a % suffix otherwise"),
    # a plain nan fails its range check here; a nan percent is left to
    # micro_average (test_evaluation)
    ("read_weighted_scores-plain-nan", _from_path(evaluation.read_weighted_scores),
     "nan\t1\n", 3, "plain scores must lie in [0, 1]; use a % suffix otherwise"),
]


# Every codepoint that str.splitlines breaks at but a resource file does
# not: inside a line, each is data.
NOT_LINE_ENDS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


class TestLineFiles:
    @pytest.mark.parametrize("load, text, bad_row", [
        (ner.load_gazetteer,
         f"# a comment{NOT_LINE_ENDS}that goes on\nمصر\tGPE\n", "مصر\tGPE\tX\n"),
        (wsd.load_inventory,
         f"# inventory\nSW\tكتب\tg1\tنص{NOT_LINE_ENDS}آخر\n", "SW\tكتب\tg1\n"),
    ], ids=["load_gazetteer", "load_inventory"])
    def test_a_line_ends_at_a_line_feed_only(self, load, text, bad_row, tmp_path):
        path = tmp_path / "file.tsv"
        path.write_text(text, encoding="utf-8")
        with path.open(encoding="utf-8") as handle:
            lines = list(handle)
        assert len(lines) == 2
        loaded = load(path)
        assert loaded == load(lines)
        if load is wsd.load_inventory:
            assert [g.text for g in loaded.singleword["كتب"]] == [f"نص{NOT_LINE_ENDS}آخر"]
        # a bad row's line number is physical from a path and from lines
        path.write_text(text + bad_row, encoding="utf-8")
        for source in (path, [*lines, bad_row]):
            with pytest.raises(MalformedRow) as err:
                load(source)
            assert err.value.line_number == 3

    @pytest.mark.parametrize(
        "load, rows, line_number, message", [case[1:] for case in MALFORMED_ROWS],
        ids=[case[0] for case in MALFORMED_ROWS],
    )
    def test_malformed_row_after_comment_and_blank_line(
        self, load, rows, line_number, message, tmp_path, monkeypatch
    ):
        path = tmp_path / "file.tsv"
        path.write_text(PREAMBLE + rows, encoding="utf-8")
        with pytest.raises(MalformedRow) as err:
            load(path, monkeypatch)
        assert err.value.line_number == line_number
        assert str(err.value) == f"line {line_number}: {message}"

    @pytest.mark.parametrize("load, text, expected", [
        (
            ner.read_span_file,
            "# spans\n0\t1\tPERS\n# inside a block\n1\t3\tORG\n\n# between blocks\n\n-\n"
            "\n2\t3\tLOC",
            [[EntitySpan(0, 1, "PERS"), EntitySpan(1, 3, "ORG")], [], [EntitySpan(2, 3, "LOC")]],
        ),
        (
            wsd.read_annotated_corpus,
            "# corpus\nكتب ذهب\n# inside a block\n0\t1\tentity\tPERS\n\n# between blocks\n"
            "\nولد\n0\t1\tsingleword\tg1",
            [
                AnnotatedSentence(("كتب", "ذهب"), (AnnotatedSpan(0, 1, "entity", "PERS"),)),
                AnnotatedSentence(("ولد",), (AnnotatedSpan(0, 1, "singleword", "g1"),)),
            ],
        ),
        (
            lambda path: ner.read_matrix_file(path.read_text("utf-8").splitlines()),
            "# matrix\nكتب ذهب\n# inside a block\nPERS\tB I\n\n# between blocks\n\nولد\n"
            "ORG\tB",
            [
                LabelMatrix(("كتب", "ذهب"), {"PERS": ("B", "I")}),
                LabelMatrix(("ولد",), {"ORG": ("B",)}),
            ],
        ),
    ], ids=["read_span_file", "read_annotated_corpus", "ner.read_matrix_file"])
    def test_blocks_skip_comments_and_keep_an_unterminated_last_block(
        self, load, text, expected, tmp_path
    ):
        path = tmp_path / "blocks.tsv"
        path.write_text(text, encoding="utf-8")
        assert load(path) == expected


def _watched(items, seen):
    """Yield ``items``, noting the collector's state before each one; a
    None item stands for a reader that fails partway with MalformedRow."""
    for lineno, item in enumerate(items, start=1):
        seen.append(gc.isenabled())
        if item is None:
            raise MalformedRow(lineno, "unreadable")
        yield item


_a, _b, _c = (synonymy.TermNode(s, "ar") for s in "abc")

# (loader, good items, an item it fails on) for every loader that pauses
# the collector
PAUSING_LOADERS = {
    "load_dictionary": (
        morphology.load_dictionary,
        ["ذهب\tذَهَبَ\tverb\tذهب\t900\n", "ذهب\tذَهَبٌ\tnoun\tذهب\t100\n"],
        "ذهب\tذَهَبَ\tverb\tذهب\n",
    ),
    "build_graph": (
        synonymy.build_graph,
        ["a\tar\tb\tar\tlex1\t1\n", "b\tar\tc\tar\tlex1\t0\n"],
        "a\tar\tb\tar\tlex1\t2\n",
    ),
    "graph_from_pairs": (
        synonymy.graph_from_pairs, [(_a, _b, "lex1", True), (_b, _c, "lex1", False)], None,
    ),
    "load_inventory": (
        wsd.load_inventory,
        ["SW\tقامَ\tg1\tوقف\n", "MW\tضَرِيبَةٌ دَخْلٌ\tg2\tمال\n"],
        "XX\tقامَ\tg3\tوقف\n",
    ),
}


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
    @pytest.mark.parametrize("name", list(PAUSING_LOADERS))
    def test_loader_pauses_and_restores_the_callers_state(self, name, enabled):
        load, good, bad = PAUSING_LOADERS[name]
        seen: list[bool] = []
        if not enabled:
            gc.disable()
        try:
            load(_watched(good, seen))
            after_success = gc.isenabled()
            with pytest.raises(MalformedRow) as err:
                load(_watched([*good, bad, *good], seen))
            after_error = gc.isenabled()
        finally:
            gc.enable()
        assert err.value.line_number == len(good) + 1
        assert len(seen) == 2 * len(good) + 1 and not any(seen)
        assert after_success is enabled and after_error is enabled

    def test_nested_pauses_leave_it_to_the_outermost(self):
        @_tsv.collector_paused()
        def inner():
            with _tsv.collector_paused():
                assert not gc.isenabled()
            return gc.isenabled()

        with _tsv.collector_paused():
            assert inner() is False
            assert not gc.isenabled()
        assert gc.isenabled()
        assert inner() is False and gc.isenabled()
        assert gc.get_freeze_count() == 0

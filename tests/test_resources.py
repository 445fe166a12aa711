import argparse
import tarfile
import zipfile

import pytest

from aranlp import _tsv, cli, morphology, ner, resources, synonymy, wsd
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
    ("default_entity_types", _packaged(ner.default_entity_types),
     "PERS\tX\n", 3, "expected 1 tab-separated fields, got 2"),
    ("read_span_file", _from_path(ner.read_span_file),
     "0\t1\tPERS\n0\t1\n", 4, "expected 3 tab-separated fields, got 2"),
    ("load_inventory", _from_path(wsd.load_inventory),
     "SW\tكتب\tg1\n", 3, "expected 4 tab-separated fields, got 3"),
    ("read_annotated_corpus", _from_path(wsd.read_annotated_corpus),
     "كتب ذهب\n0\t1\tentity\n", 4, "expected 4 tab-separated fields, got 3"),
    ("load_pairs", _from_path(load_pairs),
     "أ\tب\t0.5\tX\n", 3, "expected 2 or 3 tab-separated fields, got 4"),
    ("build_graph", _from_path(synonymy.build_graph),
     "ذهب\tar\tgo\ten\tL\n", 3, "expected 6 tab-separated fields, got 5"),
    ("cli._load_types", _from_path(lambda path: cli._load_types(argparse.Namespace(types=path))),
     "PERS\tX\n", 3, "expected 1 tab-separated fields, got 2"),
    ("cli._parse_matrix_blocks", _from_lines(cli._parse_matrix_blocks, False),
     "كتب ذهب\nPERS B O\n", 4, "expected `TYPE<TAB>label label ...`"),
    ("cli._cmd_eval", _from_path(lambda path: cli._cmd_eval(argparse.Namespace(file=path))),
     "50%\n", 3, "expected `score<TAB>weight`"),
]


class TestLineFiles:
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
            lambda path: cli._parse_matrix_blocks(path.read_text("utf-8").splitlines()),
            "# matrix\nكتب ذهب\n# inside a block\nPERS\tB I\n\n# between blocks\n\nولد\n"
            "ORG\tB",
            [
                LabelMatrix(("كتب", "ذهب"), {"PERS": ("B", "I")}),
                LabelMatrix(("ولد",), {"ORG": ("B",)}),
            ],
        ),
    ], ids=["read_span_file", "read_annotated_corpus", "cli._parse_matrix_blocks"])
    def test_blocks_skip_comments_and_keep_an_unterminated_last_block(
        self, load, text, expected, tmp_path
    ):
        path = tmp_path / "blocks.tsv"
        path.write_text(text, encoding="utf-8")
        assert load(path) == expected

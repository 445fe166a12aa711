import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import aranlp
from aranlp.cli import dispatch
from aranlp.ner import EntitySpan, format_span_file, span_f1
from aranlp.wsd import (
    CATEGORIES,
    AnnotatedSentence,
    format_annotated_corpus,
    read_annotated_corpus,
    wsd_accuracy,
)

import cli_goldens
from _oracles import random_token
from _synthetic import build_corpus

MORPH = "tests/data/morph_dict.tsv"
GAZ = "tests/data/gazetteer.tsv"
INV = "tests/data/inventory.tsv"
PAIRS = "tests/data/synonym_pairs.tsv"
RELATED = "tests/data/relatedness_pairs.tsv"
EXAMPLE = "وزارة الاقتصاد تقوم بتخفيض ضريبة الدخل في مصر"

HELP_TARGETS = [
    ["--help"],
    ["translit", "--help"],
    ["strip", "--help"],
    ["split", "--help"],
    ["match", "--help"],
    ["jaccard", "--help"],
    ["dedup", "--help"],
    ["morph", "--help"],
    ["ner", "--help"],
    ["ner", "tag", "--help"],
    ["ner", "decode", "--help"],
    ["ner", "eval", "--help"],
    ["wsd", "--help"],
    ["wsd", "annotate", "--help"],
    ["wsd", "eval", "--help"],
    ["relatedness", "--help"],
    ["relatedness", "score", "--help"],
    ["relatedness", "eval", "--help"],
    ["syn", "--help"],
    ["syn", "extract", "--help"],
    ["syn", "eval", "--help"],
    ["resources", "--help"],
    ["resources", "install", "--help"],
    ["resources", "list", "--help"],
    ["eval", "--help"],
]


def feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def run_in_process(row, monkeypatch, capsys):
    """A golden row's (exit code, stdout, stderr) from dispatch, as bytes."""
    monkeypatch.chdir(cli_goldens.ROOT)
    monkeypatch.setenv("ARANLP_RESOURCES", cli_goldens.RESOURCES)
    feed(monkeypatch, row.stdin)
    code = dispatch(list(row.argv))
    captured = capsys.readouterr()
    return code, captured.out.encode("utf-8"), captured.err.encode("utf-8")


GOLDENS = cli_goldens.GOLDENS
STDIN_GOLDENS = [row for row in GOLDENS if row.stdin]


class TestDispatch:
    @pytest.mark.parametrize("argv", HELP_TARGETS, ids=lambda a: " ".join(a))
    def test_help_exits_zero(self, argv, capsys):
        assert dispatch(argv) == 0
        assert capsys.readouterr().out

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        assert dispatch([]) == 2

    def test_data_error_exit_code_and_clean_stdout(self, capsys):
        code = dispatch(["match", "abc", "def"])  # not Arabic script
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error" in captured.err

    @pytest.mark.parametrize("argv, stdin, message", [
        (["split", "--sep", "bogus"], "نص", "unknown separator classes: ['bogus']"),
        (["match", "فعل", "فعل", "فعل"], "", "match takes exactly two words"),
        (["jaccard", "فعل"], "", "jaccard takes exactly two word-list arguments"),
        (["wsd", "--inventory", INV, "--dict", MORPH, "--gazetteer", GAZ,
          "--verifier", "oracle"], "نص\n", "--verifier oracle requires --gold"),
        (["eval"], "# no rows\n\n", "no (score, weight) rows given"),
    ], ids=["split", "match", "jaccard", "oracle", "eval"])
    def test_errors_outside_a_file_name_no_line(self, argv, stdin, message, monkeypatch, capsys):
        feed(monkeypatch, stdin)
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == f"aranlp: error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["translit", "--to", "bw"],
        ["strip", "--diacritics"],
        ["split"],
        ["match"],
        ["jaccard"],
        ["dedup"],
        ["morph", "--dict", MORPH],
        ["ner", "tag", "--gazetteer", GAZ],
        ["ner", "decode"],
        ["wsd", "annotate", "--format", "records", "--inventory", INV, "--dict", MORPH,
         "--gazetteer", GAZ],
        ["relatedness", "score", "--pairs", "EMPTY_FILE"],
        ["syn", "extract", "--pairs", PAIRS, "غائب"],
        ["syn", "extract", "--pairs", PAIRS, "--format", "records", "غائب"],
    ], ids=["translit", "strip", "split", "match", "jaccard", "dedup", "morph", "ner-tag",
            "ner-decode", "wsd-annotate-records", "relatedness-score", "syn-extract",
            "syn-extract-records"])
    def test_nothing_to_print_writes_nothing(self, argv, tmp_path, monkeypatch, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        feed(monkeypatch, "")
        assert dispatch([str(empty) if a == "EMPTY_FILE" else a for a in argv]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("row", GOLDENS, ids=[row.name for row in GOLDENS])
    def test_output_equals_the_recorded_golden(self, row, monkeypatch, capsys):
        # A row without a stderr golden expects empty stderr.
        assert run_in_process(row, monkeypatch, capsys) == cli_goldens.expected(row)

    @pytest.mark.parametrize("row", STDIN_GOLDENS, ids=[row.name for row in STDIN_GOLDENS])
    def test_file_input_equals_the_recorded_golden(self, row, tmp_path, monkeypatch, capsys):
        path = tmp_path / "input.txt"
        path.write_bytes(row.stdin.encode("utf-8"))
        from_file = row._replace(argv=(*row.argv, "--file", str(path)), stdin="")
        assert run_in_process(from_file, monkeypatch, capsys) == cli_goldens.expected(row)

    def test_every_golden_file_is_named_by_one_row(self):
        named = [row.out for row in GOLDENS] + [row.err for row in GOLDENS if row.err]
        on_disk = [
            path.relative_to(cli_goldens.ROOT).as_posix()
            for pattern in ("tests/data/cli/*.out", "tests/data/cli/*.err", "tests/data/*_expected.*")
            for path in cli_goldens.ROOT.glob(pattern)
        ]
        assert sorted(named) == sorted(on_disk)

    def test_broken_stdout_is_one_error_line(self, monkeypatch, capsys):
        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        feed(monkeypatch, "ذهب\n")
        monkeypatch.setattr("sys.stdout", BrokenPipe())
        assert dispatch(["morph", "--dict", MORPH]) == 1
        assert capsys.readouterr().err == "aranlp: error: [Errno 32] Broken pipe\n"


# Every codepoint that str.splitlines breaks at but a CLI input line does
# not: inside a line, each is data.
NOT_LINE_ENDS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


class TestLineReaders:
    @pytest.mark.parametrize("argv", [["strip", "--diacritics"], ["dedup"]],
                             ids=["strip", "dedup"])
    def test_a_line_ends_at_a_line_feed_only(self, argv, monkeypatch, capsys):
        text = f"ذهب{NOT_LINE_ENDS}الولد\nكتب\n"
        feed(monkeypatch, text)
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == text

    def test_wsd_annotate_writes_one_record_per_line_feed(self, monkeypatch, capsys):
        feed(monkeypatch, f"ذهب{NOT_LINE_ENDS}الولد\nكتب\n")
        assert dispatch(["wsd", "annotate", "--inventory", INV, "--dict", MORPH,
                         "--gazetteer", GAZ, "--format", "records"]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines[-1] == ""
        assert [json.loads(line)["tokens"] for line in lines[:-1]] == [["ذهب", "الولد"], ["كتب"]]


# The contract fuzzer's stdin alphabet: whole Arabic tokens with marks,
# and pieces of every input format (tabs, IOB labels and type names,
# scores, comments), plus NUL, BOM, U+200F and the codepoints that end a
# line for str.splitlines but not for the CLI.
FUZZ_PIECES = [
    "\t", " ", "B", "I", "O", "B I", "PERS", "PERS\t", "GPE\tB", "%", "nan", "1e400", "0.5",
    "3", "0.5\t3", "85%\t10", "#", "-", "\x00", "\ufeff", "\u200f", "\u2028", "\x85",
    "\u064e", "\u0651", "\u0640",
]

# The twelve subcommands that read text from stdin.
FUZZ_COMMANDS = {
    "translit-bw": ["translit", "--to", "bw"],
    "translit-ar": ["translit", "--to", "ar"],
    "strip": ["strip", "--diacritics", "--shaddah", "--digits", "--unify-alif",
              "--special-chars", "--tatweel"],
    "split": ["split"],
    "match": ["match"],
    "jaccard": ["jaccard"],
    "dedup": ["dedup"],
    "morph": ["morph", "--dict", MORPH],
    "ner-tag": ["ner", "tag", "--gazetteer", GAZ],
    "ner-decode": ["ner", "decode"],
    "wsd-annotate": ["wsd", "annotate", "--inventory", INV, "--dict", MORPH, "--gazetteer", GAZ],
    "eval": ["eval"],
}


def fuzz_text(rng: random.Random) -> str:
    """Up to four lines of up to four pieces each, the last line break
    optional."""
    lines = [
        "".join(random_token(rng) if rng.random() < 0.4 else rng.choice(FUZZ_PIECES)
                for _ in range(rng.randint(0, 4)))
        for _ in range(rng.randint(0, 4))
    ]
    return "\n".join(lines) + rng.choice(["", "\n"])


class TestContractFuzz:
    @pytest.mark.parametrize("seed, argv", [
        (seed, argv) for seed, argv in enumerate(FUZZ_COMMANDS.values())
    ], ids=list(FUZZ_COMMANDS))
    def test_random_stdin_gives_an_exit_code_and_at_most_one_error_line(
        self, seed, argv, monkeypatch, capsys
    ):
        rng = random.Random(seed)
        for _ in range(60):
            text = fuzz_text(rng)
            feed(monkeypatch, text)
            code = dispatch(argv)
            captured = capsys.readouterr()
            assert code in (0, 1, 2), text
            assert "Traceback" not in captured.err, text
            assert captured.err.count("aranlp: error:") <= 1, text
            if code == 1:
                assert captured.out == "", text


class TestTextCommands:
    def test_translit_round_trip_via_stdio(self, monkeypatch, capsys):
        feed(monkeypatch, "ذهب الولد\n")
        assert dispatch(["translit", "--to", "bw"]) == 0
        buckwalter = capsys.readouterr().out.rstrip("\n")
        assert buckwalter == "*hb Alwld"
        feed(monkeypatch, buckwalter + "\n")
        assert dispatch(["translit", "--to", "ar"]) == 0
        assert capsys.readouterr().out.rstrip("\n") == "ذهب الولد"

    def test_translit_advisory_on_stderr(self, monkeypatch, capsys):
        feed(monkeypatch, "كتاب؟\n")
        assert dispatch(["translit", "--to", "bw"]) == 0
        captured = capsys.readouterr()
        assert captured.out.rstrip("\n") == "ktAb؟"
        assert "advisory" in captured.err

    def test_strip(self, monkeypatch, capsys):
        feed(monkeypatch, "فَعَلَ\n")
        assert dispatch(["strip", "--diacritics"]) == 0
        assert capsys.readouterr().out.rstrip("\n") == "فعل"

    def test_split(self, monkeypatch, capsys):
        feed(monkeypatch, "أهلا. كيف حالك؟")
        assert dispatch(["split", "--sep", "period,question"]) == 0
        assert capsys.readouterr().out.splitlines() == ["أهلا.", "كيف حالك؟"]

    def test_split_empty_separator_set_is_data_error(self, monkeypatch, capsys):
        feed(monkeypatch, "نص")
        assert dispatch(["split", "--sep", ""]) == 1

    def test_match_args_and_records(self, capsys):
        assert dispatch(["match", "فَعلَ", "فعَل"]) == 0
        assert capsys.readouterr().out.rstrip("\n") == "compatible"
        assert dispatch(["match", "--format", "records", "فَعلَ", "فِعلَ"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["relation"] == "incompatible"
        assert record["first_conflict"] == 0

    def test_match_via_stdin(self, monkeypatch, capsys):
        feed(monkeypatch, "فعل فعل\nفَعلَ فِعلَ\n")
        assert dispatch(["match"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["identical", "incompatible\t0"]

    def test_jaccard(self, capsys):
        assert dispatch(["jaccard", "--mode", "exact", "كتب ذهب", "ذهب"]) == 0
        out = dict(
            line.split("\t") for line in capsys.readouterr().out.splitlines()
        )
        assert out["union"] == "2"
        assert out["intersection"] == "1"

    def test_jaccard_lone_non_arabic_word_is_data_error(self, capsys):
        assert dispatch(["jaccard", "abc", "abc"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "aranlp: error: unsupported codepoint 'a' (U+0061)\n"

    def test_dedup_reads_lines_writes_kept(self, monkeypatch, capsys):
        feed(monkeypatch, "A B\nA B\nC\n")
        assert dispatch(["dedup", "--threshold", "0.99"]) == 0
        assert capsys.readouterr().out.splitlines() == ["A B", "C"]


class TestMorphCommand:
    def test_pos_task(self, monkeypatch, capsys):
        feed(monkeypatch, "ذهب قق\n")
        assert dispatch(["morph", "--task", "pos", "--dict", MORPH]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "ذهب\tverb\texact"
        assert lines[1] == "قق\t-\toov"

    def test_all_solutions(self, monkeypatch, capsys):
        feed(monkeypatch, "ذهب\n")
        assert dispatch(["morph", "--all", "--dict", MORPH]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_whole_solutions_render_as_their_fields(self, monkeypatch, capsys):
        solution = {"lemma": "ذَهَبٌ", "pos": "noun", "root": "ذهب", "frequency": 100}
        feed(monkeypatch, "ذهب قق\n")
        assert dispatch(["morph", "--all", "--dict", MORPH]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "ذهب\t2\tذَهَبٌ\tnoun\tذهب\t100", "ذهب\t3\tأَذْهَبَ\tverb\tذهب\t50", "قق\t-",
        ]
        feed(monkeypatch, "ذهب\n")
        assert dispatch(["morph", "--all", "--format", "records", "--dict", MORPH]) == 0
        assert json.loads(capsys.readouterr().out)["solutions"][1] == solution
        feed(monkeypatch, "ذهب\n")
        assert dispatch(["morph", "--dict", MORPH]) == 0
        assert capsys.readouterr().out == "ذهب\tذَهَبَ\tverb\tذهب\t900\texact\n"

    def test_records(self, monkeypatch, capsys):
        feed(monkeypatch, "ذهب\n")
        assert dispatch(["morph", "--task", "lemma", "--format", "records", "--dict", MORPH]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["value"] == "ذَهَبَ"

    def test_file_input(self, tmp_path, capsys):
        source = tmp_path / "in.txt"
        source.write_text("مصر", encoding="utf-8")
        assert dispatch(["morph", "--task", "root", "--dict", MORPH, "--file", str(source)]) == 0
        assert capsys.readouterr().out.rstrip("\n") == "مصر\tمصر\texact"

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        source = tmp_path / "in.txt"
        source.write_bytes("مصر".encode("cp1256"))
        assert dispatch(["morph", "--dict", MORPH, "--file", str(source)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("aranlp: error:")

    def test_missing_registry_resource(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ARANLP_RESOURCES", str(tmp_path / "nowhere"))
        feed(monkeypatch, "ذهب\n")
        assert dispatch(["morph"]) == 1
        assert "dictionary.tsv" in capsys.readouterr().err


class TestMain:
    @pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
    def test_stdin_is_read_as_utf8_like_a_file(self, encoding, tmp_path):
        # `python -m aranlp` decodes stdin as UTF-8 whatever the locale or
        # PYTHONIOENCODING says, so piping a file equals passing --file.
        line = "كتب\n".encode("utf-8")
        path = tmp_path / "line.txt"
        path.write_bytes(line)
        env = {**os.environ, "PYTHONIOENCODING": encoding,
               "PYTHONPATH": str(Path(aranlp.__file__).parents[1])}
        command = [sys.executable, "-m", "aranlp", "morph", "--dict", MORPH, "--task", "lemma"]
        run = dict(capture_output=True, env=env, timeout=60)
        from_stdin = subprocess.run(command, input=line, **run)
        from_file = subprocess.run([*command, "--file", str(path)], **run)
        assert (from_stdin.returncode, from_stdin.stderr) == (0, b"")
        assert from_stdin.stdout == from_file.stdout == "كتب\t-\toov\n".encode("utf-8")


class TestGoldenRunner:
    """cli_goldens.main, which CI runs through the console script."""

    ROWS = {row.name: row for row in GOLDENS}

    @pytest.fixture
    def command(self, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", str(Path(aranlp.__file__).parents[1]))
        return [sys.executable, "-m", "aranlp"]

    def test_a_row_passes_from_stdin_and_from_file(self, command, tmp_path):
        row = self.ROWS["translit-bw"]  # stdin, stderr and a latin-1-unsafe stdout
        assert cli_goldens.check(command, row, tmp_path) == []

    def test_a_wrong_golden_fails_both_runs(self, command, tmp_path):
        row = self.ROWS["match-malformed-row"]._replace(code=0, out=self.ROWS["match"].out)
        assert cli_goldens.check(command, row, tmp_path) == [
            "match-malformed-row (stdin): exit code, stdout not as recorded",
            "match-malformed-row (--file): exit code, stdout not as recorded",
        ]

    def test_main_reports_and_exits_one_on_a_mismatch(self, command, monkeypatch, capsys):
        wrong = self.ROWS["resources-list"]._replace(err=self.ROWS["ner-eval"].err)
        monkeypatch.setattr(cli_goldens, "GOLDENS", [self.ROWS["jaccard-exact-args"], wrong])
        assert cli_goldens.main(command) == 1
        captured = capsys.readouterr()
        assert captured.out == "2 goldens, 1 mismatched run(s)\n"
        assert captured.err == "resources-list (stdin): stderr not as recorded\n"
        assert cli_goldens.main([]) == 2


class TestNerCommands:
    def test_tag_spans(self, monkeypatch, capsys):
        feed(monkeypatch, EXAMPLE + "\n")
        assert dispatch(["ner", "tag", "--gazetteer", GAZ]) == 0
        assert capsys.readouterr().out.splitlines() == ["0\t2\tORG", "7\t8\tGPE"]

    def test_tag_matrix_then_decode_round_trip(self, monkeypatch, capsys):
        feed(monkeypatch, EXAMPLE + "\n")
        assert dispatch(["ner", "tag", "--gazetteer", GAZ, "--output", "matrix"]) == 0
        matrix_text = capsys.readouterr().out
        feed(monkeypatch, matrix_text)
        assert dispatch(["ner", "decode"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0\t2\tORG", "7\t8\tGPE"]

    def test_tag_matrix_then_decode_keeps_blank_lines(self, monkeypatch, capsys):
        text = f"\n{EXAMPLE}\n\nمصر\n\n"  # leading, inner and trailing blank lines
        feed(monkeypatch, text)
        assert dispatch(["ner", "tag", "--gazetteer", GAZ]) == 0
        spans_text = capsys.readouterr().out
        assert spans_text == "-\n\n0\t2\tORG\n7\t8\tGPE\n\n-\n\n0\t1\tGPE\n\n-\n"
        feed(monkeypatch, text)
        assert dispatch(["ner", "tag", "--gazetteer", GAZ, "--output", "matrix"]) == 0
        matrix_text = capsys.readouterr().out
        feed(monkeypatch, matrix_text)
        assert dispatch(["ner", "decode"]) == 0
        assert capsys.readouterr().out == spans_text
        feed(monkeypatch, matrix_text)
        assert dispatch(["ner", "decode", "--format", "records"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["tokens"] for r in records] == [[], EXAMPLE.split(), [], ["مصر"], []]

    @pytest.mark.parametrize("command", [
        ["ner", "tag", "--gazetteer", GAZ, "--format", "records"],
        ["ner", "decode", "--format", "records"],
    ], ids=["tag", "decode"])
    def test_records_are_one_json_object_per_line(self, command, monkeypatch, capsys):
        feed(monkeypatch, f"{EXAMPLE}\nمصر\n")
        assert dispatch(["ner", "tag", "--gazetteer", GAZ, "--output", "matrix"]) == 0
        matrix_text = capsys.readouterr().out
        feed(monkeypatch, matrix_text if command[1] == "decode" else f"{EXAMPLE}\nمصر\n")
        assert dispatch(command) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line) for line in lines] == [
            {"tokens": EXAMPLE.split(), "spans": [
                {"start": 0, "end": 2, "type": "ORG"}, {"start": 7, "end": 8, "type": "GPE"},
            ]},
            {"tokens": ["مصر"], "spans": [{"start": 0, "end": 1, "type": "GPE"}]},
        ]

    def test_decode_reports_an_invalid_matrix_at_its_token_line(self, monkeypatch, capsys):
        feed(monkeypatch, "# matrix\n\nكتب ذهب\nPERS\tB O\nORG\tB\n\n")
        assert dispatch(["ner", "decode"]) == 1
        assert capsys.readouterr().err == (
            "aranlp: error: line 3: row for 'ORG' has 1 labels for 2 tokens\n"
        )

    def test_decode_rejects_a_second_row_for_a_type(self, monkeypatch, capsys):
        feed(monkeypatch, "كتب ذهب\nPERS\tB I\nPERS\tO O\n")
        assert dispatch(["ner", "decode"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "aranlp: error: line 3: a second row for type 'PERS'\n"

    def test_eval_modes(self, tmp_path, capsys):
        gold = [[EntitySpan(0, 2, "PERS"), EntitySpan(0, 5, "ORG")]]
        pred = [[EntitySpan(0, 2, "PERS"), EntitySpan(0, 5, "ORG"), EntitySpan(6, 7, "GPE")]]
        gold_path, pred_path = tmp_path / "gold.tsv", tmp_path / "pred.tsv"
        gold_path.write_text(format_span_file(gold), encoding="utf-8")
        pred_path.write_text(format_span_file(pred), encoding="utf-8")
        assert dispatch(["ner", "eval", "--gold", str(gold_path), "--pred", str(pred_path)]) == 0
        nested_out = capsys.readouterr().out
        assert "80.00%" in nested_out  # F1 = 2*(2/3)*1/(2/3+1)
        assert dispatch([
            "ner", "eval", "--gold", str(gold_path), "--pred", str(pred_path),
            "--mode", "flat",
        ]) == 0
        flat_out = capsys.readouterr().out
        # flat projection keeps ORG(0,5) on both sides; GPE(6,7) still spurious
        assert "66.67%" in flat_out

    def test_tag_gazetteer_directory_is_data_error(self, tmp_path, monkeypatch, capsys):
        feed(monkeypatch, EXAMPLE + "\n")
        assert dispatch(["ner", "tag", "--gazetteer", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("aranlp: error:")

    @pytest.mark.parametrize("command", [
        ["ner", "tag", "--gazetteer", GAZ],
        ["wsd", "annotate", "--inventory", INV, "--dict", MORPH, "--gazetteer", GAZ],
    ], ids=["ner-tag", "wsd-annotate"])
    @pytest.mark.parametrize("content, message", [
        ("PERS\nPERS\n", "entity type names must be unique"),
        ("# only a comment\n\n", "entity type set must be non-empty"),
    ], ids=["repeated", "empty"])
    def test_bad_types_file_is_data_error(self, command, content, message, tmp_path,
                                          monkeypatch, capsys):
        types_path = tmp_path / "types.txt"
        types_path.write_text(content, encoding="utf-8")
        feed(monkeypatch, EXAMPLE + "\n")
        assert dispatch([*command, "--types", str(types_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"aranlp: error: {types_path}: {message}\n"

    def test_eval_counts_duplicate_spans_like_span_f1(self, tmp_path, capsys):
        gold = [[EntitySpan(0, 1, "PERS"), EntitySpan(0, 1, "PERS")]]
        pred = [[EntitySpan(0, 1, "PERS")]]
        gold_path, pred_path = tmp_path / "gold.tsv", tmp_path / "pred.tsv"
        gold_path.write_text(format_span_file(gold), encoding="utf-8")
        pred_path.write_text(format_span_file(pred), encoding="utf-8")
        argv = ["ner", "eval", "--gold", str(gold_path), "--pred", str(pred_path)]
        assert span_f1(gold[0], pred[0]).f1 == pytest.approx(2 / 3)
        assert dispatch(argv) == 0
        captured = capsys.readouterr()
        assert "66.67%" in captured.out
        assert "precision 100.00%  recall 50.00%  f1 66.67%" in captured.err
        assert dispatch([*argv, "--format", "records"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert {"gold": 2, "predicted": 1, "correct": 1}.items() <= records[0].items()

    def test_eval_misaligned(self, tmp_path, capsys):
        gold_path, pred_path = tmp_path / "gold.tsv", tmp_path / "pred.tsv"
        gold_path.write_text(format_span_file([[EntitySpan(0, 1, "A")]]), encoding="utf-8")
        pred_path.write_text(format_span_file([[], []]), encoding="utf-8")
        assert dispatch(["ner", "eval", "--gold", str(gold_path), "--pred", str(pred_path)]) == 1

    @pytest.mark.parametrize("bad", ["gold", "pred"])
    def test_eval_names_the_malformed_file(self, bad, tmp_path, capsys):
        paths = {side: tmp_path / f"{side}.tsv" for side in ("gold", "pred")}
        for side, path in paths.items():
            path.write_text("2\t1\tPERS\n" if side == bad else "0\t1\tPERS\n", encoding="utf-8")
        argv = ["ner", "eval", "--gold", str(paths["gold"]), "--pred", str(paths["pred"])]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"aranlp: error: {paths[bad]}: line 1: invalid span (2, 1)\n"


class TestWsdCommands:
    def test_annotate_with_shim(self, monkeypatch, capsys, tmp_path):
        gold_path = tmp_path / "gold.tsv"
        corpus = build_corpus(seed=5, sentence_count=4)
        gold_path.write_text(format_annotated_corpus(corpus.gold), encoding="utf-8")
        gaz_path = tmp_path / "gaz.tsv"
        gaz_path.write_text(
            "".join(f"{k}\t{v}\n" for k, v in corpus.gazetteer.items()), encoding="utf-8"
        )
        inv_path = tmp_path / "inv.tsv"
        inv_lines = []
        for key, glosses in corpus.inventory.multiword.items():
            inv_lines += [f"MW\t{key}\t{g.gloss_id}\t{g.text}\n" for g in glosses]
        for key, glosses in corpus.inventory.singleword.items():
            inv_lines += [f"SW\t{key}\t{g.gloss_id}\t{g.text}\n" for g in glosses]
        inv_path.write_text("".join(inv_lines), encoding="utf-8")
        dict_path = tmp_path / "dict.tsv"
        dict_path.write_text(
            "".join(
                f"{wf}\t{s.lemma}\t{s.pos}\t{s.root}\t{s.frequency}\n"
                for wf, sols in corpus.dictionary.entries.items()
                for s in sols
            ),
            encoding="utf-8",
        )
        feed(monkeypatch, "\n".join(corpus.sentences) + "\n")
        # no explicit `annotate`: the wsd subcommand defaults to it
        assert dispatch([
            "wsd", "--inventory", str(inv_path), "--dict", str(dict_path),
            "--gazetteer", str(gaz_path), "--verifier", "oracle",
            "--gold", str(gold_path),
        ]) == 0
        pred_text = capsys.readouterr().out
        pred_path = tmp_path / "pred.tsv"
        pred_path.write_text(pred_text, encoding="utf-8")
        assert dispatch(["wsd", "eval", "--gold", str(gold_path), "--pred", str(pred_path)]) == 0
        out = capsys.readouterr().out
        assert "100.00%" in out and "overall" in out
        # The CLI's scores are wsd_accuracy's, also on a prediction that
        # misses every other span.
        pred = [
            AnnotatedSentence(s.tokens, s.spans[::2]) for s in read_annotated_corpus(pred_path)
        ]
        pred_path.write_text(format_annotated_corpus(pred), encoding="utf-8")
        assert dispatch([
            "wsd", "eval", "--gold", str(gold_path), "--pred", str(pred_path),
            "--format", "records",
        ]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        scores = {r["category"]: r["score"] for r in records}
        assert scores == {c: wsd_accuracy(corpus.gold, pred, c) for c in CATEGORIES}
        assert scores["overall"] < 1.0

    def test_annotate_keeps_blank_lines(self, monkeypatch, capsys, tmp_path):
        text = f"\n{EXAMPLE}\n\nمصر\n\n"  # leading, inner and trailing blank lines
        command = ["wsd", "annotate", "--inventory", INV, "--dict", MORPH, "--gazetteer", GAZ]
        feed(monkeypatch, text)
        assert dispatch(command) == 0
        path = tmp_path / "annotated.tsv"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        corpus = read_annotated_corpus(path)
        assert [list(s.tokens) for s in corpus] == [[], EXAMPLE.split(), [], ["مصر"], []]
        feed(monkeypatch, text)
        assert dispatch([*command, "--format", "records"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert records == [
            {"tokens": list(s.tokens), "spans": [dataclasses.asdict(x) for x in s.spans]} for s in corpus
        ]

    @pytest.mark.parametrize("bad", ["gold", "pred"])
    def test_eval_names_the_malformed_file(self, bad, tmp_path, capsys):
        paths = {side: tmp_path / f"{side}.tsv" for side in ("gold", "pred")}
        for side, path in paths.items():
            end = 5 if side == bad else 1
            path.write_text(f"كتب ذهب\n0\t{end}\tentity\tPERS\n", encoding="utf-8")
        argv = ["wsd", "eval", "--gold", str(paths["gold"]), "--pred", str(paths["pred"])]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"aranlp: error: {paths[bad]}: line 2: span (0, 5) runs past the 2-token sentence\n"
        )

    def test_annotate_paper_style_sentence(self, monkeypatch, capsys):
        feed(monkeypatch, EXAMPLE + "\n")
        assert dispatch([
            "wsd", "annotate", "--inventory", INV, "--dict", MORPH,
            "--gazetteer", GAZ, "--verifier", "overlap",
        ]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == EXAMPLE
        assert "0\t2\tentity\tORG" in out
        assert "7\t8\tentity\tGPE" in out
        assert "4\t6\tmultiword\t" in out

    def test_oracle_requires_gold(self, monkeypatch, capsys):
        feed(monkeypatch, "نص\n")
        assert dispatch([
            "wsd", "--inventory", INV, "--dict", MORPH, "--gazetteer", GAZ,
            "--verifier", "oracle",
        ]) == 1


class TestRelatednessCommands:
    def test_score_and_eval(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(
            "كتاب جديد\tكتاب جديد\t0.9\n"
            "شمس مشرقة\tقطار سريع\t0.1\n"
            "ولد صغير\tولد يافع\t0.6\n",
            encoding="utf-8",
        )
        assert dispatch(["relatedness", "score", "--pairs", str(pairs)]) == 0
        scores = [float(x) for x in capsys.readouterr().out.splitlines()]
        assert scores[0] == pytest.approx(1.0)
        assert dispatch(["relatedness", "score", "--pairs", str(pairs), "--rescale"]) == 0
        rescaled = [float(x) for x in capsys.readouterr().out.splitlines()]
        assert all(0.0 <= s <= 1.0 for s in rescaled)
        assert dispatch(["relatedness", "eval", "--pairs", str(pairs)]) == 0
        value = float(capsys.readouterr().out)
        assert -1.0 <= value <= 1.0

    def test_eval_record_score_renders_as_the_text_golden(self, capsys):
        # The golden table pins both eval outputs; this checks that they
        # agree: the record's score at four decimals is the text line.
        assert dispatch(["relatedness", "eval", "--pairs", RELATED, "--format", "records"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert f"{record['score']:.4f}\n" == Path("tests/data/relatedness_eval_expected.txt").read_text()

    def test_eval_requires_gold_column(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("جملة\tجملة\n", encoding="utf-8")
        assert dispatch(["relatedness", "eval", "--pairs", str(pairs)]) == 1

    def test_eval_names_the_pair_without_gold_not_a_line(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("# header\n\nجملة\tجملة\n", encoding="utf-8")
        assert dispatch(["relatedness", "eval", "--pairs", str(pairs)]) == 1
        assert capsys.readouterr().err == (
            "aranlp: error: pair 1: relatedness eval requires a gold score on every row\n"
        )


class TestSynCommands:
    def test_extract(self, capsys):
        assert dispatch(["syn", "extract", "--pairs", PAIRS, "طريق"]) == 0
        assert capsys.readouterr().out.rstrip("\n") == "سبيل\t100.00%"

    def test_eval_and_advisory(self, capsys):
        assert dispatch(["syn", "eval", "--pairs", PAIRS, "طريق", "سبيل", "غائب"]) == 0
        captured = capsys.readouterr()
        assert "advisory" in captured.err
        lines = captured.out.splitlines()
        assert lines[0].endswith("50.00%")
        assert any(line.startswith("غائب\t0.00%") for line in lines)

    def test_records(self, capsys):
        assert dispatch([
            "syn", "extract", "--pairs", PAIRS, "--format", "records", "طريق",
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == {"surface": "سبيل", "language": "ar", "score": 1.0}


class TestResourceAndEvalCommands:
    def test_install_and_list(self, tmp_path, monkeypatch, capsys):
        import zipfile

        monkeypatch.setenv("ARANLP_RESOURCES", str(tmp_path / "res"))
        archive = tmp_path / "pack.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            zf.writestr("ner/gazetteer.tsv", "مصر\tGPE\n")
        assert dispatch(["resources", "install", str(archive)]) == 0
        assert "1 added" in capsys.readouterr().out
        assert dispatch(["resources", "list"]) == 0
        out = capsys.readouterr().out
        assert "gazetteer\t" in out and "present" in out and "missing" in out

    def test_bad_archive_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ARANLP_RESOURCES", str(tmp_path / "res"))
        junk = tmp_path / "junk.zip"
        junk.write_bytes(b"not an archive")
        assert dispatch(["resources", "install", str(junk)]) == 1

    def test_micro_average_command(self, monkeypatch, capsys):
        feed(monkeypatch, "85.31%\t4389\n88.92%\t2100\n81.73%\t27764\n")
        assert dispatch(["eval"]) == 0
        assert capsys.readouterr().out.rstrip("\n") == "82.63%"

    def test_eval_rejects_out_of_range_plain_score(self, monkeypatch, capsys):
        feed(monkeypatch, "85.31\t4389\n")
        assert dispatch(["eval"]) == 1

    @pytest.mark.parametrize("row", [
        "0.5\tnan", "0.5\tinf", "0.5\t-inf", "0.5\t0", "nan%\t1", "inf%\t1", "-inf%\t1",
    ])
    def test_eval_rejects_non_finite_and_nonpositive_rows(self, row, monkeypatch, capsys):
        feed(monkeypatch, f"# header\n85.31%\t4389\n{row}\n")
        assert dispatch(["eval"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("aranlp: error: pair 2: ")
        assert captured.err.count("\n") == 1

    def test_eval_rejects_weights_summing_past_the_float_range(self, monkeypatch, capsys):
        feed(monkeypatch, "0.5\t1e308\n0.5\t1e308\n")
        assert dispatch(["eval"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "aranlp: error: the weights sum to inf and the weighted scores to 1e+308; "
            "both sums must be finite\n"
        )

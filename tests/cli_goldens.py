"""The recorded output of every `aranlp` command, and a runner that checks
it through the console script.

Each row of GOLDENS names a command (its argv after the program name),
the text it reads on stdin, its exit code, the file that holds its
stdout and the file that holds its stderr, or None when it writes
nothing there.  Paths are relative to the repository root, and every
row runs there with the resource root (ARANLP_RESOURCES) at
tests/data/cli/resources.  ``tests/test_cli.py`` checks every row in
process.  This module's :func:`main` checks them through a command:

    python tests/cli_goldens.py aranlp
    PYTHONPATH=src python tests/cli_goldens.py python -m aranlp

runs each row through the given command under PYTHONIOENCODING=latin-1
and compares the exit code, stdout and stderr byte for byte.  A row with
stdin runs a second time with that stdin written to a file passed as
``--file``, and must give the same bytes.  CI runs it on every Python
version.  The module uses the standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
DATA = "tests/data"
CLI = f"{DATA}/cli"
RESOURCES = f"{CLI}/resources"


class Golden(NamedTuple):
    name: str
    argv: tuple[str, ...]
    stdin: str
    code: int
    out: str
    err: str | None


def _cli(name, argv, stdin="", code=0, err=False) -> Golden:
    """A row whose goldens are tests/data/cli/NAME.out and, with err,
    NAME.err."""
    return Golden(name, tuple(argv), stdin, code, f"{CLI}/{name}.out",
                  f"{CLI}/{name}.err" if err else None)


def _read(path: str) -> str:
    """A recorded input file's text, with its line breaks as they are."""
    return (ROOT / path).read_bytes().decode("utf-8")


MORPH = f"{DATA}/morph_dict.tsv"
GAZ = f"{DATA}/gazetteer.tsv"
INV = f"{DATA}/inventory.tsv"
PAIRS = f"{DATA}/synonym_pairs.tsv"
RELATED = f"{DATA}/relatedness_pairs.tsv"
FORMATS = (("text", "txt"), ("records", "jsonl"))

STRIP_INPUT = "فَعَّلَ ١٢٣ أحمد إبراهيم آمن\nكـــتاب، «نص»!\n"
SPLIT_INPUT = "أهلا. كيف حالك؟ أنا بخير!\nسطر جديد\n"
MATCH_INPUT = "فعل فعل\n\nفَعلَ فِعلَ\nفَعلَ فعَل\nكتب كتاب\n"
JACCARD_INPUT = "كتب ذهب\tذهب\n\nفَعَلَ كتب\tفعل ولد\n"
DEDUP_INPUT = (
    "ذهب الولد إلى المدرسة\nذهب الولد إلى المدرسة\nذهب الولد الى المدرسة اليوم\nالطقس جميل\n"
)
SENTENCES = _read(f"{DATA}/wsd_sentences.txt")
TOKENS = _read(f"{DATA}/morph_tokens.txt")
MATRICES = _read(f"{CLI}/ner-tag-matrix.out")
WSD_EVAL = ["wsd", "eval", "--gold", f"{DATA}/wsd_annotate_expected.txt",
            "--pred", f"{CLI}/wsd_pred.tsv"]
NER_TAG = ["ner", "tag", "--gazetteer", GAZ]
NER_DECODE = ["ner", "decode"]
NER_EVAL = ["ner", "eval", "--gold", f"{CLI}/ner_gold.tsv", "--pred", f"{CLI}/ner-tag-spans.out"]
WSD_ANNOTATE = ["wsd", "annotate", "--inventory", INV, "--dict", MORPH, "--gazetteer", GAZ]

# Every recorded command.  A _cli row named NAME keeps its stdout in
# tests/data/cli/NAME.out and, with err=True, its stderr in NAME.err; the
# generated rows below it name the tests/data/*_expected.* files.  A row
# with no stderr file expects empty stderr.  Row names are the test ids of
# tests/test_cli.py, and CI runs every row through `aranlp` with
# `python tests/cli_goldens.py aranlp` on each Python version.
GOLDENS = [
    _cli("translit-bw", ["translit", "--to", "bw"], "ذَهَبَ الوَلَدُ\nكتاب؟ 3\n\nمصر\n", err=True),
    _cli("translit-ar", ["translit", "--to", "ar"], "*ahaba Alwaladu\nktAb? x 3\n", err=True),
    _cli("strip-all", ["strip", "--diacritics", "--shaddah", "--digits", "--unify-alif",
                       "--special-chars", "--tatweel"], STRIP_INPUT),
    _cli("strip-diacritics", ["strip", "--diacritics"], STRIP_INPUT),
    _cli("split", ["split"], SPLIT_INPUT),
    _cli("split-drop", ["split", "--sep", "period,linebreak", "--drop-separator"], SPLIT_INPUT),
    _cli("match", ["match"], MATCH_INPUT),
    _cli("match-records", ["match", "--format", "records"], MATCH_INPUT),
    _cli("match-malformed-row", ["match"], "فعل فعل\nفعل\n", code=1, err=True),
    _cli("jaccard", ["jaccard"], JACCARD_INPUT),
    _cli("jaccard-records", ["jaccard", "--format", "records"], JACCARD_INPUT),
    _cli("jaccard-exact-args", ["jaccard", "--mode", "exact", "فَعَلَ كتب", "فعل كتب"]),
    _cli("jaccard-malformed-row", ["jaccard"], "كتب ذهب\tذهب\nفعل\n", code=1, err=True),
    _cli("dedup", ["dedup"], DEDUP_INPUT),
    _cli("dedup-threshold", ["dedup", "--threshold", "0.5"], DEDUP_INPUT),
    _cli("eval", ["eval"], "# header\n85.31%\t4389\n0.5\t10\n\n100%\t1\n0%\t2\n"),
    _cli("wsd-eval", WSD_EVAL),
    _cli("wsd-eval-records", [*WSD_EVAL, "--format", "records"]),
    _cli("ner-tag-spans", NER_TAG, SENTENCES),
    _cli("ner-tag-matrix", [*NER_TAG, "--output", "matrix"], SENTENCES),
    _cli("ner-tag-records", [*NER_TAG, "--format", "records"], SENTENCES),
    _cli("ner-decode", NER_DECODE, MATRICES),
    _cli("ner-decode-records", [*NER_DECODE, "--format", "records"], MATRICES),
    _cli("ner-eval", NER_EVAL, err=True),
    _cli("ner-eval-records", [*NER_EVAL, "--format", "records"], err=True),
    _cli("ner-eval-flat", [*NER_EVAL, "--mode", "flat"], err=True),
    _cli("resources-list", ["resources", "list"]),
    *(
        Golden(f"morph-{mode}-{fmt}",
               ("morph", "--dict", MORPH, "--format", fmt,
                *(["--all"] if mode == "all" else ["--task", mode])),
               TOKENS, 0, f"{DATA}/morph_{mode}_expected.{suffix}", None)
        for mode in ("lemma", "pos", "root", "full", "all")
        for fmt, suffix in FORMATS
    ),
    *(
        Golden(f"wsd-annotate-{fmt}", (*WSD_ANNOTATE, "--format", fmt), SENTENCES, 0,
               f"{DATA}/wsd_annotate_expected.{suffix}", None)
        for fmt, suffix in FORMATS
    ),
    *(
        Golden(f"relatedness-{name}-{fmt}",
               ("relatedness", name.split("-")[0], "--pairs", RELATED, *options,
                *(["--format", fmt] if fmt == "records" else [])),
               "", 0, f"{DATA}/relatedness_{name.replace('-', '_')}_expected.{suffix}", None)
        for name, options in (("score", []), ("score-rescale", ["--rescale"]), ("eval", []))
        for fmt, suffix in FORMATS
    ),
    *(
        Golden(f"syn-{action}-level{level}-{fmt}",
               ("syn", action, "--pairs", PAIRS, "--level", level, "--format", fmt, *terms),
               "", 0, f"{DATA}/syn_{action}_level{level}_expected.{suffix}", None)
        for action, terms in (("extract", ["طريق", "قطة"]), ("eval", ["طريق", "سبيل", "قطة"]))
        for level in ("2", "3")
        for fmt, suffix in FORMATS
    ),
]


def expected(row: Golden) -> tuple[int, bytes, bytes]:
    """The exit code, stdout and stderr that row's command must give."""
    err = (ROOT / row.err).read_bytes() if row.err else b""
    return row.code, (ROOT / row.out).read_bytes(), err


def check(command: list[str], row: Golden, tmp_dir: Path) -> list[str]:
    """Run row through command, from stdin and, when the row has stdin,
    from --file; one line per run whose exit code, stdout or stderr is
    not the recorded one."""
    env = {**os.environ, "PYTHONIOENCODING": "latin-1", "ARANLP_RESOURCES": RESOURCES}
    stdin = row.stdin.encode("utf-8")
    runs = [("stdin", [*command, *row.argv], stdin)]
    if row.stdin:
        path = tmp_dir / f"{row.name}.txt"
        path.write_bytes(stdin)
        runs.append(("--file", [*command, *row.argv, "--file", str(path)], b""))
    want = expected(row)
    problems = []
    for via, argv, data in runs:
        done = subprocess.run(argv, input=data, capture_output=True, cwd=ROOT, env=env,
                              timeout=120)
        got = (done.returncode, done.stdout, done.stderr)
        wrong = [what for what, g, w in zip(("exit code", "stdout", "stderr"), got, want) if g != w]
        if wrong:
            problems.append(f"{row.name} ({via}): {', '.join(wrong)} not as recorded")
    return problems


def main(argv: list[str] | None = None) -> int:
    command = sys.argv[1:] if argv is None else argv
    if not command:
        print(f"usage: {Path(__file__).name} COMMAND [ARG ...]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp_dir:
        problems = [p for row in GOLDENS for p in check(command, row, Path(tmp_dir))]
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{len(GOLDENS)} goldens, {len(problems)} mismatched run(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

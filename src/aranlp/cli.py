"""Command-line interface: one binary, one subcommand per component.

A handler reads its arguments, calls one library function and returns
the result's output lines (an item may hold several lines).  Every
stdout line is rendered by the library: metrics, file formats, resource
defaults and each result's text and records belong to it, and no handler
formats a value.  An option that several subcommands share is declared
once, on a parent parser.

:func:`dispatch` is the only writer of results: only after the handler
has succeeded does it write each item and a line break to stdout, and
nothing for an empty list.  Exit codes are uniform: 0 success, 1
data/validation error, 2 usage error.  Diagnostics and advisories go to
stderr so pipelines stay clean.  Bad input files, unreadable paths,
input that is not UTF-8 and a stdout that fails while it is written (a
closed pipe) exit 1 with one `aranlp: error:` line.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from . import _tsv, evaluation, morphology, ner, resources, script, synonymy, textutils, wsd
from .errors import AranlpError, MalformedRow, SeedNotInGraphWarning
from .relatedness import (
    CorrelationReport, HashedTrigramProvider, PairScore, evaluate_pairs, load_pairs,
    relatedness, to_unit_interval,
)

PROG = "aranlp"


def _read_text(args) -> str:
    if args.file:
        return Path(args.file).read_text("utf-8")
    return sys.stdin.read()


def _read_lines(args) -> list[str]:
    return _tsv.split_lines(_read_text(args))


def _report_output(report, args) -> str:
    """A result as --format asks: its render_text or render_records."""
    return report.render_records() if args.format == "records" else report.render_text()


# --- translit / strip / split / match / jaccard / dedup -------------------

def _cmd_translit(args) -> list[str]:
    convert = (
        script.to_buckwalter_report if args.to == "bw" else script.from_buckwalter_report
    )
    out_lines = []
    advisories = 0
    for line in _read_lines(args):
        result = convert(line)
        out_lines.append(result.text)
        for index, ch in result.unmapped:
            advisories += 1
            print(
                f"advisory: unmapped U+{ord(ch):04X} at column {index}",
                file=sys.stderr,
            )
    if advisories:
        print(f"advisory: {advisories} unmapped codepoint(s) passed through", file=sys.stderr)
    return out_lines


def _cmd_strip(args) -> list[str]:
    return [
        script.ar_strip(
            line,
            diacritics=args.diacritics,
            shaddah=args.shaddah,
            digits=args.digits,
            unify_alif=args.unify_alif,
            special_chars=args.special_chars,
            tatweel=args.tatweel,
        )
        for line in _read_lines(args)
    ]


def _cmd_split(args) -> list[str]:
    classes = frozenset(name for name in args.sep.split(",") if name)
    config = textutils.SplitConfig(
        classes=classes,
        custom=frozenset(args.custom),
        attach_separator=not args.drop_separator,
    )
    return textutils.split_sentences(_read_text(args), config)


def _pairs(args, arguments, arity_error: str, sep: str | None, row_error: str):
    """The two positional arguments, or else one pair per non-blank input
    line, split at sep."""
    if arguments:
        if len(arguments) != 2:
            raise AranlpError(arity_error)
        yield arguments
        return
    for lineno, line in enumerate(_read_lines(args), start=1):
        if not line.strip():
            continue
        parts = line.split(sep)
        if len(parts) != 2:
            raise MalformedRow(lineno, row_error)
        yield parts


def _cmd_match(args) -> list[str]:
    pairs = _pairs(args, args.words, "match takes exactly two words",
                   None, "expected two whitespace-separated words")
    out = []
    for w1, w2 in pairs:
        verdict = textutils.match_words(w1, w2)
        out.append(verdict.render_records(w1, w2) if args.format == "records"
                   else verdict.render_text())
    return out


def _cmd_jaccard(args) -> list[str]:
    pairs = _pairs(args, args.sets, "jaccard takes exactly two word-list arguments",
                   "\t", "expected two tab-separated word lists")
    return [
        _report_output(textutils.jaccard(s1.split(), s2.split(), args.mode), args)
        for s1, s2 in pairs
    ]


def _cmd_dedup(args) -> list[str]:
    return textutils.remove_duplicates(_read_lines(args), args.threshold)


# --- morph -----------------------------------------------------------------

def _cmd_morph(args) -> list[str]:
    dictionary = resources.load("morph_dictionary", args.dict)
    text = _read_text(args)
    if args.all:
        results = [morphology.RankedSolutions(token, morphology.all_solutions(token, dictionary))
                   for token in text.split()]
    else:
        results = morphology.analyze_text(text, dictionary, args.task)
    return [_report_output(r, args) for r in results]


# --- ner ---------------------------------------------------------------------

def _load_types(args) -> ner.EntityTypeSet:
    if args.types:
        names = ner.load_entity_types(args.types)
        try:
            return ner.EntityTypeSet(names)
        except ValueError as exc:
            raise AranlpError(f"{args.types}: {exc}") from None
    return ner.EntityTypeSet.default()


def _load_gazetteer_tagger(args) -> ner.GazetteerTagger:
    return ner.GazetteerTagger(resources.load("gazetteer", args.gazetteer), _load_types(args))


def _matrix_output(matrices: list[ner.LabelMatrix], args) -> list[str]:
    """`ner tag` and `ner decode` output: records, matrices or spans."""
    if args.format == "records":
        return [m.render_records() for m in matrices]
    if args.output == "matrix":
        return _tsv.split_lines(ner.format_matrix_file(matrices))
    return _tsv.split_lines(ner.format_span_file([ner.decode_matrix(m) for m in matrices]))


def _cmd_ner_tag(args) -> list[str]:
    tagger = _load_gazetteer_tagger(args)
    return _matrix_output([tagger.classify(line.split()) for line in _read_lines(args)], args)


def _cmd_ner_decode(args) -> list[str]:
    return _matrix_output(ner.read_matrix_file(_read_lines(args)), args)


def _read_gold_pred(read, args) -> tuple:
    """read(args.gold) and read(args.pred); a MalformedRow from either
    names its file in front of its line, since both have one format."""
    corpora = []
    for path in (args.gold, args.pred):
        try:
            corpora.append(read(path))
        except MalformedRow as exc:
            exc.args = (f"{path}: {exc}",)
            raise
    return tuple(corpora)


def _cmd_ner_eval(args) -> list[str]:
    gold, pred = _read_gold_pred(ner.read_span_file, args)
    report, overall = ner.span_report(gold, pred, args.mode)
    print(overall.render_text(), file=sys.stderr)
    return [_report_output(report, args)]


# --- wsd ---------------------------------------------------------------------

def _build_verifier(args, dictionary):
    if args.verifier == "overlap":
        return wsd.OverlapVerifier(dictionary)
    if not args.gold:
        raise AranlpError("--verifier oracle requires --gold")
    return wsd.OracleVerifier(wsd.gold_gloss_ids(wsd.read_annotated_corpus(args.gold)))


def _cmd_wsd_annotate(args) -> list[str]:
    dictionary = resources.load("morph_dictionary", args.dict)
    inventory = resources.load("sense_inventory", args.inventory)
    tagger = _load_gazetteer_tagger(args)
    verifier = _build_verifier(args, dictionary)
    annotated = wsd.annotate_corpus(_read_lines(args), inventory, tagger, verifier, dictionary)
    if args.format == "records":
        return [s.render_records() for s in annotated]
    return _tsv.split_lines(wsd.format_annotated_corpus(annotated))


def _cmd_wsd_eval(args) -> list[str]:
    gold, pred = _read_gold_pred(wsd.read_annotated_corpus, args)
    return [_report_output(wsd.accuracy_report(gold, pred), args)]


# --- relatedness -------------------------------------------------------------

def _cmd_relatedness_score(args) -> list[str]:
    provider = HashedTrigramProvider()
    rescale = to_unit_interval if args.rescale else (lambda score: score)
    return [
        _report_output(PairScore(p.s1, p.s2, rescale(relatedness(p, provider))), args)
        for p in load_pairs(args.pairs)
    ]


def _cmd_relatedness_eval(args) -> list[str]:
    pairs = load_pairs(args.pairs)
    report = CorrelationReport(len(pairs), evaluate_pairs(pairs, HashedTrigramProvider()))
    return [_report_output(report, args)]


# --- syn ---------------------------------------------------------------------

def _cmd_syn(args) -> list[str]:
    graph = resources.load("synonym_pairs", args.pairs)
    run = synonymy.syn_extract if args.action == "extract" else synonymy.syn_eval
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SeedNotInGraphWarning)
        results = run(args.terms, args.level, graph, args.lang)
    for warning in caught:
        print(f"advisory: {warning.message}", file=sys.stderr)
    return [_report_output(r, args) for r in results]


# --- resources / eval ----------------------------------------------------------

def _cmd_resources_install(args) -> list[str]:
    return [resources.install(args.archive).render()]


def _cmd_resources_list(args) -> list[str]:
    return [row.render_text() for row in resources.ResourceRegistry().status()]


def _cmd_eval(args) -> list[str]:
    rows = evaluation.read_weighted_scores(_read_lines(args))
    return [evaluation.format_percent(evaluation.micro_average(rows))]


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Arabic NLP toolkit: morphology, NER, WSD, relatedness, "
                    "synonymy, and text utilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    file_ = argparse.ArgumentParser(add_help=False)
    file_.add_argument("--file", help="read input from this file instead of stdin")
    format_ = argparse.ArgumentParser(add_help=False)
    format_.add_argument("--format", choices=("text", "records"), default="text",
                         help="text output or one JSON record per line")
    dict_ = argparse.ArgumentParser(add_help=False)
    dict_.add_argument("--dict", help="morphology dictionary TSV (default: registry resource)")
    gazetteer = argparse.ArgumentParser(add_help=False)
    gazetteer.add_argument("--gazetteer", help="gazetteer TSV (default: registry resource)")
    gazetteer.add_argument("--types", help="entity type list file (default: packaged pack)")
    gold_pred = argparse.ArgumentParser(add_help=False)
    gold_pred.add_argument("--gold", required=True)
    gold_pred.add_argument("--pred", required=True)

    p = sub.add_parser("translit", parents=[file_],
                       help="convert between Arabic script and Buckwalter")
    p.add_argument("--to", choices=("bw", "ar"), required=True,
                   help="bw: Arabic -> Buckwalter; ar: Buckwalter -> Arabic")
    p.set_defaults(handler=_cmd_translit)

    p = sub.add_parser("strip", parents=[file_],
                       help="selectively remove Arabic character categories")
    for flag in ("diacritics", "shaddah", "digits", "unify-alif", "special-chars", "tatweel"):
        p.add_argument(f"--{flag}", dest=flag.replace("-", "_"), action="store_true")
    p.set_defaults(handler=_cmd_strip)

    p = sub.add_parser("split", parents=[file_],
                       help="split text into sentences at chosen separators")
    p.add_argument("--sep", default="period,question,exclamation,linebreak",
                   help="comma-separated separator classes")
    p.add_argument("--custom", default="", help="extra separator codepoints")
    p.add_argument("--drop-separator", action="store_true",
                   help="do not keep the separator on the sentence end")
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("match", parents=[file_, format_],
                       help="diacritic-aware comparison of two Arabic words")
    p.add_argument("words", nargs="*", help="the two words (or use stdin/--file)")
    p.set_defaults(handler=_cmd_match)

    p = sub.add_parser("jaccard", parents=[file_, format_],
                       help="union/intersection/similarity of two word sets")
    p.add_argument("sets", nargs="*", help="two whitespace-separated word lists")
    p.add_argument("--mode", choices=("exact", "diacritic_aware"), default="diacritic_aware")
    p.set_defaults(handler=_cmd_jaccard)

    p = sub.add_parser("dedup", parents=[file_],
                       help="drop near-duplicate sentences (one per line)")
    p.add_argument("--threshold", type=float, default=0.8,
                   help="cosine similarity at or above which a sentence is dropped")
    p.set_defaults(handler=_cmd_dedup)

    p = sub.add_parser("morph", parents=[dict_, file_, format_],
                       help="dictionary lookup tagging: lemma/pos/root")
    p.add_argument("--task", choices=morphology.TASKS, default="full")
    p.add_argument("--all", action="store_true", help="print the full ranked solution list")
    p.set_defaults(handler=_cmd_morph)

    p = sub.add_parser("ner", help="entity tagging, IOB decoding, span evaluation")
    ner_sub = p.add_subparsers(dest="action", required=True, metavar="ACTION")
    q = ner_sub.add_parser("tag", parents=[gazetteer, file_, format_],
                           help="gazetteer-tag sentences (one per line)")
    q.add_argument("--output", choices=("spans", "matrix"), default="spans")
    q.set_defaults(handler=_cmd_ner_tag)
    q = ner_sub.add_parser("decode", parents=[file_, format_],
                           help="decode IOB label matrices into spans")
    q.set_defaults(handler=_cmd_ner_decode, output="spans")
    q = ner_sub.add_parser("eval", parents=[gold_pred, format_],
                           help="span-level F1 between gold and predicted files")
    q.add_argument("--mode", choices=("flat", "nested"), default="nested")
    q.set_defaults(handler=_cmd_ner_eval)

    p = sub.add_parser("wsd", help="sense disambiguation (default action: annotate)")
    wsd_sub = p.add_subparsers(dest="action", required=True, metavar="ACTION")
    q = wsd_sub.add_parser("annotate", parents=[dict_, gazetteer, file_, format_],
                           help="annotate sentences (one per line)")
    q.add_argument("--inventory", help="sense inventory TSV (default: registry resource)")
    q.add_argument("--verifier", choices=("overlap", "oracle"), default="overlap")
    q.add_argument("--gold", help="gold annotated corpus (required for --verifier oracle)")
    q.set_defaults(handler=_cmd_wsd_annotate)
    q = wsd_sub.add_parser("eval", parents=[gold_pred, format_],
                           help="category accuracies + micro average")
    q.set_defaults(handler=_cmd_wsd_eval)

    p = sub.add_parser("relatedness", help="sentence-pair relatedness scoring")
    rel_sub = p.add_subparsers(dest="action", required=True, metavar="ACTION")
    q = rel_sub.add_parser("score", parents=[format_], help="score s1<TAB>s2 pairs")
    q.add_argument("--pairs", required=True)
    q.add_argument("--rescale", action="store_true", help="map raw cosine to [0,1] via (x+1)/2")
    q.set_defaults(handler=_cmd_relatedness_score)
    q = rel_sub.add_parser("eval", parents=[format_],
                           help="Spearman rank correlation against gold scores")
    q.add_argument("--pairs", required=True)
    q.set_defaults(handler=_cmd_relatedness_eval)

    p = sub.add_parser("syn", help="cycle-based synonym extraction and evaluation")
    syn_sub = p.add_subparsers(dest="action", required=True, metavar="ACTION")
    for action, minimum in (("extract", "seed term(s)"), ("eval", "terms to score")):
        q = syn_sub.add_parser(action, parents=[format_],
                               help=f"{action} synonyms from {minimum}")
        q.add_argument("terms", nargs="+")
        q.add_argument("--level", type=int, choices=(2, 3), default=2)
        q.add_argument("--lang", default="ar", help="language of the input terms")
        q.add_argument("--pairs", help="pair TSV (default: registry resource)")
        q.set_defaults(handler=_cmd_syn, action=action)

    p = sub.add_parser("resources", help="manage the resource directory")
    res_sub = p.add_subparsers(dest="action", required=True, metavar="ACTION")
    q = res_sub.add_parser("install", help="unpack a local zip/tar archive into the root")
    q.add_argument("archive")
    q.set_defaults(handler=_cmd_resources_install)
    q = res_sub.add_parser("list", help="show expected resource paths and their status")
    q.set_defaults(handler=_cmd_resources_list)

    p = sub.add_parser("eval", parents=[file_], help="micro average of score<TAB>weight rows")
    p.set_defaults(handler=_cmd_eval)

    return parser


_WSD_ACTIONS = {"annotate", "eval", "-h", "--help"}


def _normalize_argv(argv: list[str]) -> list[str]:
    # `aranlp wsd --inventory ...` is shorthand for `aranlp wsd annotate ...`.
    if argv[:1] == ["wsd"] and (len(argv) == 1 or argv[1] not in _WSD_ACTIONS):
        return [argv[0], "annotate", *argv[1:]]
    return argv


def dispatch(argv: list[str] | None = None) -> int:
    """Route argv to a subcommand handler, write the lines it returns and
    map errors to exit codes."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        lines = args.handler(args)
        if lines:  # inside the try: a closed stdout pipe ends in one error line too
            print("\n".join(lines))
    except (AranlpError, OSError, UnicodeDecodeError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    for stream in (sys.stdin, sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    sys.exit(dispatch(sys.argv[1:]))

"""Command-line interface: one binary, one subcommand per component.

A handler parses its arguments, calls one library function and renders
the result.  Metrics, file formats and resource defaults belong to the
library; no handler holds a second copy of one.

Exit codes are uniform: 0 success, 1 data/validation error, 2 usage
error.  Results go to stdout; diagnostics and advisories go to stderr so
pipelines stay clean.  Bad input files, unreadable paths and input that
is not UTF-8 exit 1 with one `aranlp: error:` line.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from . import _tsv, evaluation, morphology, ner, resources, script, synonymy, textutils, wsd
from .errors import AranlpError, MalformedRow, SeedNotInGraphWarning
from .relatedness import (
    HashedTrigramProvider, evaluate_pairs, load_pairs, relatedness, to_unit_interval,
)

PROG = "aranlp"


def _read_text(args) -> str:
    if getattr(args, "file", None):
        return Path(args.file).read_text("utf-8")
    return sys.stdin.read()


def _read_lines(args) -> list[str]:
    return _read_text(args).splitlines()


def _add_input_options(parser, with_format=True):
    parser.add_argument("--file", help="read input from this file instead of stdin")
    if with_format:
        parser.add_argument(
            "--format", choices=("text", "records"), default="text",
            help="text output or one JSON record per line",
        )


def _record(obj) -> str:
    """One JSON line; a dataclass (a span, a solution) becomes its fields."""
    return json.dumps(obj, ensure_ascii=False, default=vars)


def _print_joined(items, sep: str = "\n") -> None:
    """Print the items joined by sep; print nothing at all for no items."""
    items = list(items)
    if items:
        print(sep.join(items))


# --- translit / strip / split / match / jaccard / dedup -------------------

def _cmd_translit(args) -> int:
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
    _print_joined(out_lines)
    if advisories:
        print(f"advisory: {advisories} unmapped codepoint(s) passed through", file=sys.stderr)
    return 0


def _cmd_strip(args) -> int:
    _print_joined(
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
    )
    return 0


def _cmd_split(args) -> int:
    classes = frozenset(name for name in args.sep.split(",") if name)
    try:
        config = textutils.SplitConfig(
            classes=classes,
            custom=frozenset(args.custom),
            attach_separator=not args.drop_separator,
        )
    except ValueError as exc:
        raise AranlpError(str(exc)) from None
    _print_joined(textutils.split_sentences(_read_text(args), config))
    return 0


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


def _match_line(w1: str, w2: str, fmt: str) -> str:
    verdict = textutils.match_words(w1, w2)
    if fmt == "records":
        return _record({"w1": w1, "w2": w2, **vars(verdict)})
    if verdict.first_conflict is None:
        return verdict.relation
    return f"{verdict.relation}\t{verdict.first_conflict}"


def _cmd_match(args) -> int:
    pairs = _pairs(args, args.words, "match takes exactly two words",
                   None, "expected two whitespace-separated words")
    _print_joined(_match_line(w1, w2, args.format) for w1, w2 in pairs)
    return 0


def _jaccard_output(report: textutils.JaccardReport, fmt: str) -> str:
    if fmt == "records":
        return _record({"union": report.union_size, "intersection": report.intersection_size,
                        "similarity": report.similarity})
    return (
        f"union\t{report.union_size}\n"
        f"intersection\t{report.intersection_size}\n"
        f"similarity\t{report.similarity:.4f}"
    )


def _cmd_jaccard(args) -> int:
    pairs = _pairs(args, args.sets, "jaccard takes exactly two word-list arguments",
                   "\t", "expected two tab-separated word lists")
    _print_joined(
        _jaccard_output(textutils.jaccard(s1.split(), s2.split(), args.mode), args.format)
        for s1, s2 in pairs
    )
    return 0


def _cmd_dedup(args) -> int:
    _print_joined(textutils.remove_duplicates(_read_lines(args), args.threshold))
    return 0


# --- morph -----------------------------------------------------------------

def _morph_fields(value) -> str:
    """A lookup answer as text: a solution's tab-separated fields, a single
    field as it is, or `-` when out of vocabulary."""
    if value is None:
        return "-"
    if isinstance(value, morphology.MorphSolution):
        return "\t".join(map(str, vars(value).values()))
    return value


def _cmd_morph(args) -> int:
    dictionary = resources.load("morph_dictionary", args.dict)
    out = []
    for token in _read_text(args).split():
        if args.all:
            solutions = morphology.all_solutions(token, dictionary)
            if args.format == "records":
                out.append(_record({"surface": token, "solutions": solutions}))
            elif not solutions:
                out.append(f"{token}\t-")
            else:
                out.extend(
                    f"{token}\t{rank}\t{_morph_fields(s)}"
                    for rank, s in enumerate(solutions, start=1)
                )
            continue
        tagged = morphology.analyze(token, dictionary, args.task)
        if args.format == "records":
            out.append(_record(
                {"surface": token, "source": tagged.source, "task": args.task,
                 "value": tagged.value}
            ))
        else:
            out.append(f"{token}\t{_morph_fields(tagged.value)}\t{tagged.source}")
    _print_joined(out)
    return 0


# --- ner ---------------------------------------------------------------------

def _load_types(args) -> ner.EntityTypeSet:
    if getattr(args, "types", None):
        names = tuple(name.strip() for _, (name,) in _tsv.rows(args.types, 1))
        try:
            return ner.EntityTypeSet(names)
        except ValueError as exc:
            raise AranlpError(f"{args.types}: {exc}") from None
    return ner.EntityTypeSet.default()


def _load_gazetteer_tagger(args) -> ner.GazetteerTagger:
    return ner.GazetteerTagger(resources.load("gazetteer", args.gazetteer), _load_types(args))


def _matrix_block(matrix: ner.LabelMatrix) -> str:
    """The token line, then one `TYPE<TAB>label label ...` line per type;
    a sentence with no tokens is the lone NO_SPANS line of span files."""
    if not matrix.tokens:
        return ner.NO_SPANS
    rows = (f"{type_name}\t{' '.join(row)}" for type_name, row in matrix.labels.items())
    return "\n".join([" ".join(matrix.tokens), *rows])


def _print_matrices(matrices: list[ner.LabelMatrix], args) -> None:
    """`ner tag` and `ner decode` output: one JSON record per sentence, the
    label matrices, or the decoded span file."""
    if args.format == "records":
        _print_joined(
            _record({"tokens": m.tokens, "spans": ner.decode_matrix(m)}) for m in matrices
        )
    elif getattr(args, "output", "spans") == "matrix":
        _print_joined(map(_matrix_block, matrices), "\n\n")
    else:
        sys.stdout.write(ner.format_span_file([ner.decode_matrix(m) for m in matrices]))


def _cmd_ner_tag(args) -> int:
    tagger = _load_gazetteer_tagger(args)
    _print_matrices([tagger.classify(line.split()) for line in _read_lines(args)], args)
    return 0


def _parse_matrix_blocks(lines) -> list[ner.LabelMatrix]:
    """Per block, the token line, then one `TYPE<TAB>label label ...` line
    per type; a block of the lone line NO_SPANS has no tokens.  An invalid
    matrix is reported at its token line."""
    matrices = []
    for (lineno, tokens), *row_lines in _tsv.blocks(lines):
        if not row_lines and tokens.strip() == ner.NO_SPANS:
            tokens = ""
        rows: dict[str, tuple[str, ...]] = {}
        for row_lineno, line in row_lines:
            type_name, labels = _tsv.fields(row_lineno, line, 2, "`TYPE<TAB>label label ...`")
            rows[type_name.strip()] = tuple(labels.split())
        try:
            matrices.append(ner.LabelMatrix(tuple(tokens.split()), rows))
        except ValueError as exc:
            raise MalformedRow(lineno, str(exc)) from None
    return matrices


def _cmd_ner_decode(args) -> int:
    _print_matrices(_parse_matrix_blocks(_read_lines(args)), args)
    return 0


def _print_report(report: evaluation.EvalReport, args) -> None:
    print(report.render_records() if args.format == "records" else report.render_text())


def _cmd_ner_eval(args) -> int:
    gold = ner.read_span_file(args.gold)
    pred = ner.read_span_file(args.pred)
    report, overall = ner.span_report(gold, pred, args.mode)
    _print_report(report, args)
    scores = (f"{name} {evaluation.format_percent(v)}" for name, v in overall._asdict().items())
    print("  ".join(scores), file=sys.stderr)
    return 0


# --- wsd ---------------------------------------------------------------------

def _build_verifier(args, dictionary):
    if args.verifier == "overlap":
        return wsd.OverlapVerifier(dictionary)
    if not args.gold:
        raise AranlpError("--verifier oracle requires --gold")
    return wsd.OracleVerifier(wsd.gold_gloss_ids(wsd.read_annotated_corpus(args.gold)))


def _cmd_wsd_annotate(args) -> int:
    dictionary = resources.load("morph_dictionary", args.dict)
    inventory = resources.load("sense_inventory", args.inventory)
    tagger = _load_gazetteer_tagger(args)
    verifier = _build_verifier(args, dictionary)
    annotated = wsd.annotate_corpus(_read_lines(args), inventory, tagger, verifier, dictionary)
    if args.format == "records":
        _print_joined(_record({"tokens": s.tokens, "spans": s.spans}) for s in annotated)
    else:
        sys.stdout.write(wsd.format_annotated_corpus(annotated))
    return 0


def _cmd_wsd_eval(args) -> int:
    gold = wsd.read_annotated_corpus(args.gold)
    pred = wsd.read_annotated_corpus(args.pred)
    _print_report(wsd.accuracy_report(gold, pred), args)
    return 0


# --- relatedness -------------------------------------------------------------

def _cmd_relatedness_score(args) -> int:
    provider = HashedTrigramProvider()
    out = []
    for pair in load_pairs(args.pairs):
        score = relatedness(pair, provider)
        if args.rescale:
            score = to_unit_interval(score)
        if args.format == "records":
            out.append(_record({"s1": pair.s1, "s2": pair.s2, "score": round(score, 6)}))
        else:
            out.append(f"{score:.4f}")
    _print_joined(out)
    return 0


def _cmd_relatedness_eval(args) -> int:
    print(f"{evaluate_pairs(load_pairs(args.pairs), HashedTrigramProvider()):.4f}")
    return 0


# --- syn ---------------------------------------------------------------------

def _cmd_syn(args) -> int:
    graph = resources.load("synonym_pairs", args.pairs)
    run = synonymy.syn_extract if args.action == "extract" else synonymy.syn_eval
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SeedNotInGraphWarning)
        results = run(args.terms, args.level, graph, args.lang)
    for warning in caught:
        print(f"advisory: {warning.message}", file=sys.stderr)
    if args.format == "records":
        _print_joined(
            _record({"surface": r.term.surface, "language": r.term.language,
                     "score": float(r.score)})
            for r in results
        )
    else:
        _print_joined(f"{r.term.surface}\t{r.percent}" for r in results)
    return 0


# --- resources / eval ----------------------------------------------------------

def _cmd_resources_install(args) -> int:
    summary = resources.install(args.archive)
    print(summary.render())
    return 0


def _cmd_resources_list(args) -> int:
    for name, path, exists, _ in resources.ResourceRegistry().status():
        print(f"{name}\t{path}\t{'present' if exists else 'missing'}")
    return 0


def _cmd_eval(args) -> int:
    rows = []
    for lineno, fields in _tsv.rows(_read_lines(args), 2, "`score<TAB>weight`"):
        score_text, weight_text = fields[0].strip(), fields[1].strip()
        try:
            if score_text.endswith("%"):
                score = float(score_text[:-1]) / 100.0
            else:
                score = float(score_text)
            weight = float(weight_text)
        except ValueError:
            raise MalformedRow(lineno, "score and weight must be numbers") from None
        if not score_text.endswith("%") and not 0.0 <= score <= 1.0:
            raise MalformedRow(lineno, "plain scores must lie in [0, 1]; use a % suffix otherwise")
        rows.append((score, weight))
    if not rows:
        raise AranlpError("no (score, weight) rows given")
    print(evaluation.format_percent(evaluation.micro_average(rows)))
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Arabic NLP toolkit: morphology, NER, WSD, relatedness, "
                    "synonymy, and text utilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("translit", help="convert between Arabic script and Buckwalter")
    p.add_argument("--to", choices=("bw", "ar"), required=True,
                   help="bw: Arabic -> Buckwalter; ar: Buckwalter -> Arabic")
    _add_input_options(p, with_format=False)
    p.set_defaults(handler=_cmd_translit)

    p = sub.add_parser("strip", help="selectively remove Arabic character categories")
    for flag in ("diacritics", "shaddah", "digits", "unify-alif", "special-chars", "tatweel"):
        p.add_argument(f"--{flag}", dest=flag.replace("-", "_"), action="store_true")
    _add_input_options(p, with_format=False)
    p.set_defaults(handler=_cmd_strip)

    p = sub.add_parser("split", help="split text into sentences at chosen separators")
    p.add_argument("--sep", default="period,question,exclamation,linebreak",
                   help="comma-separated separator classes")
    p.add_argument("--custom", default="", help="extra separator codepoints")
    p.add_argument("--drop-separator", action="store_true",
                   help="do not keep the separator on the sentence end")
    _add_input_options(p, with_format=False)
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("match", help="diacritic-aware comparison of two Arabic words")
    p.add_argument("words", nargs="*", help="the two words (or use stdin/--file)")
    _add_input_options(p)
    p.set_defaults(handler=_cmd_match)

    p = sub.add_parser("jaccard", help="union/intersection/similarity of two word sets")
    p.add_argument("sets", nargs="*", help="two whitespace-separated word lists")
    p.add_argument("--mode", choices=("exact", "diacritic_aware"), default="diacritic_aware")
    _add_input_options(p)
    p.set_defaults(handler=_cmd_jaccard)

    p = sub.add_parser("dedup", help="drop near-duplicate sentences (one per line)")
    p.add_argument("--threshold", type=float, default=0.8,
                   help="cosine similarity at or above which a sentence is dropped")
    _add_input_options(p, with_format=False)
    p.set_defaults(handler=_cmd_dedup)

    p = sub.add_parser("morph", help="dictionary lookup tagging: lemma/pos/root")
    p.add_argument("--task", choices=morphology.TASKS, default="full")
    p.add_argument("--all", action="store_true", help="print the full ranked solution list")
    p.add_argument("--dict", help="dictionary TSV (default: registry resource)")
    _add_input_options(p)
    p.set_defaults(handler=_cmd_morph)

    p = sub.add_parser("ner", help="entity tagging, IOB decoding, span evaluation")
    ner_sub = p.add_subparsers(dest="action", required=True, metavar="ACTION")
    q = ner_sub.add_parser("tag", help="gazetteer-tag sentences (one per line)")
    q.add_argument("--gazetteer", help="gazetteer TSV (default: registry resource)")
    q.add_argument("--types", help="entity type list file (default: packaged pack)")
    q.add_argument("--output", choices=("spans", "matrix"), default="spans")
    _add_input_options(q)
    q.set_defaults(handler=_cmd_ner_tag)
    q = ner_sub.add_parser("decode", help="decode IOB label matrices into spans")
    _add_input_options(q)
    q.set_defaults(handler=_cmd_ner_decode)
    q = ner_sub.add_parser("eval", help="span-level F1 between gold and predicted files")
    q.add_argument("--gold", required=True)
    q.add_argument("--pred", required=True)
    q.add_argument("--mode", choices=("flat", "nested"), default="nested")
    q.add_argument("--format", choices=("text", "records"), default="text")
    q.set_defaults(handler=_cmd_ner_eval)

    p = sub.add_parser("wsd", help="sense disambiguation (default action: annotate)")
    wsd_sub = p.add_subparsers(dest="action", required=True, metavar="ACTION")
    q = wsd_sub.add_parser("annotate", help="annotate sentences (one per line)")
    q.add_argument("--inventory", help="sense inventory TSV (default: registry resource)")
    q.add_argument("--dict", help="morphology dictionary TSV (default: registry resource)")
    q.add_argument("--gazetteer", help="gazetteer TSV (default: registry resource)")
    q.add_argument("--types", help="entity type list file (default: packaged pack)")
    q.add_argument("--verifier", choices=("overlap", "oracle"), default="overlap")
    q.add_argument("--gold", help="gold annotated corpus (required for --verifier oracle)")
    _add_input_options(q)
    q.set_defaults(handler=_cmd_wsd_annotate)
    q = wsd_sub.add_parser("eval", help="category accuracies + micro average")
    q.add_argument("--gold", required=True)
    q.add_argument("--pred", required=True)
    q.add_argument("--format", choices=("text", "records"), default="text")
    q.set_defaults(handler=_cmd_wsd_eval)

    p = sub.add_parser("relatedness", help="sentence-pair relatedness scoring")
    rel_sub = p.add_subparsers(dest="action", required=True, metavar="ACTION")
    q = rel_sub.add_parser("score", help="score s1<TAB>s2 pairs")
    q.add_argument("--pairs", required=True)
    q.add_argument("--rescale", action="store_true", help="map raw cosine to [0,1] via (x+1)/2")
    q.add_argument("--format", choices=("text", "records"), default="text")
    q.set_defaults(handler=_cmd_relatedness_score)
    q = rel_sub.add_parser("eval", help="Spearman rank correlation against gold scores")
    q.add_argument("--pairs", required=True)
    q.set_defaults(handler=_cmd_relatedness_eval)

    p = sub.add_parser("syn", help="cycle-based synonym extraction and evaluation")
    syn_sub = p.add_subparsers(dest="action", required=True, metavar="ACTION")
    for action, minimum in (("extract", "seed term(s)"), ("eval", "terms to score")):
        q = syn_sub.add_parser(action, help=f"{action} synonyms from {minimum}")
        q.add_argument("terms", nargs="+")
        q.add_argument("--level", type=int, choices=(2, 3), default=2)
        q.add_argument("--lang", default="ar", help="language of the input terms")
        q.add_argument("--pairs", help="pair TSV (default: registry resource)")
        q.add_argument("--format", choices=("text", "records"), default="text")
        q.set_defaults(handler=_cmd_syn, action=action)

    p = sub.add_parser("resources", help="manage the resource directory")
    res_sub = p.add_subparsers(dest="action", required=True, metavar="ACTION")
    q = res_sub.add_parser("install", help="unpack a local zip/tar archive into the root")
    q.add_argument("archive")
    q.set_defaults(handler=_cmd_resources_install)
    q = res_sub.add_parser("list", help="show expected resource paths and their status")
    q.set_defaults(handler=_cmd_resources_list)

    p = sub.add_parser("eval", help="micro average of score<TAB>weight rows")
    _add_input_options(p, with_format=False)
    p.set_defaults(handler=_cmd_eval)

    return parser


_WSD_ACTIONS = {"annotate", "eval", "-h", "--help"}


def _normalize_argv(argv: list[str]) -> list[str]:
    # `aranlp wsd --inventory ...` is shorthand for `aranlp wsd annotate ...`.
    if argv[:1] == ["wsd"] and (len(argv) == 1 or argv[1] not in _WSD_ACTIONS):
        return [argv[0], "annotate", *argv[1:]]
    return argv


def dispatch(argv: list[str] | None = None) -> int:
    """Route argv to a subcommand handler and map errors to exit codes."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args) or 0
    except (AranlpError, OSError, UnicodeDecodeError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
        sys.stderr.reconfigure(encoding="utf-8")
    sys.exit(dispatch(sys.argv[1:]))

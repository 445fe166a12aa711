"""Command-line interface: one binary, one subcommand per component.

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
from collections import Counter
from pathlib import Path

from . import evaluation, morphology, ner, resources, script, synonymy, textutils, wsd
from .errors import AranlpError, MalformedRow, MisalignedCorpus, SeedNotInGraphWarning
from .relatedness import (
    HashedTrigramProvider,
    load_pairs,
    relatedness,
    spearman,
    to_unit_interval,
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


def _records(objects) -> str:
    return "\n".join(json.dumps(o, ensure_ascii=False) for o in objects)


def _registry() -> resources.ResourceRegistry:
    return resources.ResourceRegistry()


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
    print("\n".join(out_lines))
    if advisories:
        print(f"advisory: {advisories} unmapped codepoint(s) passed through", file=sys.stderr)
    return 0


def _cmd_strip(args) -> int:
    options = script.StripOptions(
        diacritics=args.diacritics,
        shaddah=args.shaddah,
        digits=args.digits,
        unify_alif=args.unify_alif,
        special_chars=args.special_chars,
        tatweel=args.tatweel,
    )
    print("\n".join(script.ar_strip(line, options) for line in _read_lines(args)))
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
        raise MalformedRow(0, str(exc)) from None
    sentences = textutils.split_sentences(_read_text(args), config)
    if sentences:
        print("\n".join(sentences))
    return 0


def _match_line(w1: str, w2: str, fmt: str) -> str:
    verdict = textutils.match_words(w1, w2)
    if fmt == "records":
        return json.dumps(
            {"w1": w1, "w2": w2, "relation": verdict.relation,
             "first_conflict": verdict.first_conflict},
            ensure_ascii=False,
        )
    if verdict.first_conflict is None:
        return verdict.relation
    return f"{verdict.relation}\t{verdict.first_conflict}"


def _cmd_match(args) -> int:
    if args.words:
        if len(args.words) != 2:
            raise MalformedRow(0, "match takes exactly two words")
        print(_match_line(args.words[0], args.words[1], args.format))
        return 0
    out = []
    for lineno, line in enumerate(_read_lines(args), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedRow(lineno, "expected two whitespace-separated words")
        out.append(_match_line(parts[0], parts[1], args.format))
    print("\n".join(out))
    return 0


def _jaccard_output(report: textutils.JaccardReport, fmt: str) -> str:
    if fmt == "records":
        return json.dumps(
            {"union": report.union_size, "intersection": report.intersection_size,
             "similarity": report.similarity},
        )
    return (
        f"union\t{report.union_size}\n"
        f"intersection\t{report.intersection_size}\n"
        f"similarity\t{report.similarity:.4f}"
    )


def _cmd_jaccard(args) -> int:
    if args.sets:
        if len(args.sets) != 2:
            raise MalformedRow(0, "jaccard takes exactly two word-list arguments")
        report = textutils.jaccard(args.sets[0].split(), args.sets[1].split(), args.mode)
        print(_jaccard_output(report, args.format))
        return 0
    out = []
    for lineno, line in enumerate(_read_lines(args), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedRow(lineno, "expected two tab-separated word lists")
        report = textutils.jaccard(parts[0].split(), parts[1].split(), args.mode)
        out.append(_jaccard_output(report, args.format))
    print("\n".join(out))
    return 0


def _cmd_dedup(args) -> int:
    kept = textutils.remove_duplicates(_read_lines(args), args.threshold)
    if kept:
        print("\n".join(kept))
    return 0


# --- morph -----------------------------------------------------------------

def _load_dictionary(args) -> morphology.MorphDictionary:
    if args.dict:
        return morphology.load_dictionary(args.dict)
    return _registry().load("morph_dictionary")


def _cmd_morph(args) -> int:
    dictionary = _load_dictionary(args)
    tokens = _read_text(args).split()
    out = []
    for token in tokens:
        if args.all:
            solutions = morphology.all_solutions(token, dictionary)
            if args.format == "records":
                out.append(json.dumps(
                    {"surface": token,
                     "solutions": [vars(s) for s in solutions]},
                    ensure_ascii=False,
                ))
            elif not solutions:
                out.append(f"{token}\t-")
            else:
                out.extend(
                    f"{token}\t{rank}\t{s.lemma}\t{s.pos}\t{s.root}\t{s.frequency}"
                    for rank, s in enumerate(solutions, start=1)
                )
            continue
        tagged = morphology.analyze(token, dictionary, args.task)
        if args.format == "records":
            record = {"surface": token, "source": tagged.source, "task": args.task}
            record["value"] = (
                vars(tagged.solution) if args.task == "full" else tagged.value
            ) if tagged.solution else None
            out.append(json.dumps(record, ensure_ascii=False))
        else:
            solution = tagged.solution
            if solution is None:
                out.append(f"{token}\t-\t{tagged.source}")
            elif args.task == "full":
                out.append(
                    f"{token}\t{solution.lemma}\t{solution.pos}\t{solution.root}"
                    f"\t{solution.frequency}\t{tagged.source}"
                )
            else:
                out.append(f"{token}\t{tagged.value}\t{tagged.source}")
    print("\n".join(out))
    return 0


# --- ner ---------------------------------------------------------------------

def _load_types(args) -> ner.EntityTypeSet:
    if getattr(args, "types", None):
        text = Path(args.types).read_text("utf-8")
        names = tuple(
            line.strip() for line in text.splitlines()
            if line.strip() and not line.startswith("#")
        )
        return ner.EntityTypeSet(names)
    return ner.EntityTypeSet.default()


def _load_gazetteer_tagger(args) -> ner.GazetteerTagger:
    if getattr(args, "gazetteer", None):
        gazetteer = ner.load_gazetteer(args.gazetteer)
    else:
        gazetteer = _registry().load("gazetteer")
    return ner.GazetteerTagger(gazetteer, _load_types(args))


def _matrix_lines(matrix: ner.LabelMatrix) -> list[str]:
    lines = [" ".join(matrix.tokens)]
    lines.extend(
        f"{type_name}\t{' '.join(row)}" for type_name, row in matrix.labels.items()
    )
    return lines


def _span_lines(spans) -> list[str]:
    if not spans:
        return ["-"]
    return [f"{s.start}\t{s.end}\t{s.type}" for s in spans]


def _cmd_ner_tag(args) -> int:
    tagger = _load_gazetteer_tagger(args)
    blocks = []
    for line in _read_lines(args):
        tokens = line.split()
        matrix = tagger.classify(tokens)
        if args.format == "records":
            spans = ner.decode_matrix(matrix)
            blocks.append(json.dumps(
                {"tokens": tokens,
                 "spans": [{"start": s.start, "end": s.end, "type": s.type} for s in spans]},
                ensure_ascii=False,
            ))
        elif args.output == "matrix":
            blocks.append("\n".join(_matrix_lines(matrix)))
        else:
            blocks.append("\n".join(_span_lines(ner.decode_matrix(matrix))))
    print("\n\n".join(blocks))
    return 0


def _parse_matrix_blocks(lines) -> list[ner.LabelMatrix]:
    matrices = []
    tokens: tuple[str, ...] | None = None
    rows: dict[str, tuple[str, ...]] = {}

    def close(lineno):
        nonlocal tokens, rows
        if tokens is None:
            return
        try:
            matrices.append(ner.LabelMatrix(tokens, rows))
        except ValueError as exc:
            raise MalformedRow(lineno, str(exc)) from None
        tokens, rows = None, {}

    lineno = 0
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("#"):
            continue
        if not line.strip():
            close(lineno)
            continue
        if tokens is None:
            tokens = tuple(line.split())
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise MalformedRow(lineno, "expected `TYPE<TAB>label label ...`")
        rows[fields[0].strip()] = tuple(fields[1].split())
    close(lineno)
    return matrices


def _cmd_ner_decode(args) -> int:
    blocks = []
    for matrix in _parse_matrix_blocks(_read_lines(args)):
        spans = ner.decode_matrix(matrix)
        if args.format == "records":
            blocks.append(json.dumps(
                {"tokens": list(matrix.tokens),
                 "spans": [{"start": s.start, "end": s.end, "type": s.type} for s in spans]},
                ensure_ascii=False,
            ))
        else:
            blocks.append("\n".join(_span_lines(spans)))
    print("\n\n".join(blocks))
    return 0


def _cmd_ner_eval(args) -> int:
    gold = ner.read_span_file(args.gold)
    pred = ner.read_span_file(args.pred)
    if len(gold) != len(pred):
        raise MisalignedCorpus(
            f"gold has {len(gold)} sentence blocks, predictions have {len(pred)}"
        )
    if args.mode == "flat":
        order: dict[str, int] = {}
        for sentence in (*gold, *pred):
            for span in sentence:
                order.setdefault(span.type, len(order))
        type_order = sorted(order, key=order.get)
        gold = [ner.project_flat(s, type_order) for s in gold]
        pred = [ner.project_flat(s, type_order) for s in pred]
    # Spans are matched as multisets within each sentence, as span_f1
    # matches them; the counts are then summed per type and overall.
    gold_n, pred_n, correct_n = Counter(), Counter(), Counter()
    for g_spans, p_spans in zip(gold, pred):
        g = Counter((s.start, s.end, s.type) for s in g_spans)
        p = Counter((s.start, s.end, s.type) for s in p_spans)
        gold_n.update(s.type for s in g_spans)
        pred_n.update(s.type for s in p_spans)
        correct_n.update(type_name for _, _, type_name in (g & p).elements())
    categories = []
    for type_name in sorted(gold_n | pred_n):
        g, p, c = gold_n[type_name], pred_n[type_name], correct_n[type_name]
        prf = ner.prf_from_counts(g, p, c)
        categories.append(evaluation.CategoryResult(type_name, g, p, c, prf.f1))
    overall = ner.prf_from_counts(gold_n.total(), pred_n.total(), correct_n.total())
    report = evaluation.EvalReport(
        f"span evaluation ({args.mode}, exact match)", "F1", tuple(categories), overall.f1
    )
    print(report.render_records() if args.format == "records" else report.render_text())
    print(
        f"precision {evaluation.format_percent(overall.precision)}"
        f"  recall {evaluation.format_percent(overall.recall)}"
        f"  f1 {evaluation.format_percent(overall.f1)}",
        file=sys.stderr,
    )
    return 0


# --- wsd ---------------------------------------------------------------------

def _load_inventory(args) -> wsd.SenseInventory:
    if args.inventory:
        return wsd.load_inventory(args.inventory)
    return _registry().load("sense_inventory")


def _build_verifier(args, dictionary):
    if args.verifier == "overlap":
        return wsd.OverlapVerifier(dictionary)
    if not args.gold:
        raise MalformedRow(0, "--verifier oracle requires --gold")
    gold_ids = set()
    for sentence in wsd.read_annotated_corpus(args.gold):
        for span in sentence.spans:
            if span.kind != wsd.KIND_ENTITY:
                gold_ids.update(span.payload.split(wsd.ALTERNATIVES_SEP))
    return wsd.OracleVerifier(gold_ids)


def _cmd_wsd_annotate(args) -> int:
    dictionary = _load_dictionary(args)
    inventory = _load_inventory(args)
    tagger = _load_gazetteer_tagger(args)
    verifier = _build_verifier(args, dictionary)
    annotated = wsd.annotate_corpus(
        [line for line in _read_lines(args)], inventory, tagger, verifier, dictionary
    )
    if args.format == "records":
        print(_records(
            {
                "tokens": list(sentence.tokens),
                "spans": [vars(s) for s in sentence.spans],
            }
            for sentence in annotated
        ))
    else:
        sys.stdout.write(wsd.format_annotated_corpus(annotated))
    return 0


def _cmd_wsd_eval(args) -> int:
    gold = wsd.read_annotated_corpus(args.gold)
    pred = wsd.read_annotated_corpus(args.pred)
    totals = wsd.corpus_counts(gold, pred)
    categories = []
    for name, (gold_n, correct, tokens) in totals.items():
        kind = wsd.KIND_BY_CATEGORY[name]
        pred_n = sum(1 for s in pred for span in s.spans if span.kind == kind)
        score = correct / gold_n if gold_n else 1.0
        categories.append(evaluation.CategoryResult(
            name, gold_n, pred_n, correct, score, tokens
        ))
    overall = wsd.wsd_accuracy(gold, pred, "overall")
    report = evaluation.EvalReport(
        "sense annotation accuracy", "accuracy", tuple(categories), overall
    )
    print(report.render_records() if args.format == "records" else report.render_text())
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
            out.append(json.dumps(
                {"s1": pair.s1, "s2": pair.s2, "score": round(score, 6)},
                ensure_ascii=False,
            ))
        else:
            out.append(f"{score:.4f}")
    print("\n".join(out))
    return 0


def _cmd_relatedness_eval(args) -> int:
    pairs = load_pairs(args.pairs)
    missing = [i for i, p in enumerate(pairs, start=1) if p.gold is None]
    if missing:
        raise MalformedRow(missing[0], "relatedness eval requires a gold score on every row")
    provider = HashedTrigramProvider()
    predicted = [relatedness(p, provider) for p in pairs]
    print(f"{spearman([p.gold for p in pairs], predicted):.4f}")
    return 0


# --- syn ---------------------------------------------------------------------

def _cmd_syn(args) -> int:
    if args.pairs:
        graph = synonymy.build_graph(args.pairs)
    else:
        graph = _registry().load("synonym_pairs")
    run = synonymy.syn_extract if args.action == "extract" else synonymy.syn_eval
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SeedNotInGraphWarning)
        results = run(args.terms, args.level, graph, args.lang)
    for warning in caught:
        print(f"advisory: {warning.message}", file=sys.stderr)
    if args.format == "records":
        print(_records(
            {"surface": r.term.surface, "language": r.term.language,
             "score": float(r.score)}
            for r in results
        ))
    else:
        print("\n".join(f"{r.term.surface}\t{r.percent}" for r in results))
    return 0


# --- resources / eval ----------------------------------------------------------

def _cmd_resources_install(args) -> int:
    summary = resources.install(args.archive)
    print(summary.render())
    return 0


def _cmd_resources_list(args) -> int:
    for name, path, exists, _ in _registry().status():
        print(f"{name}\t{path}\t{'present' if exists else 'missing'}")
    return 0


def _cmd_eval(args) -> int:
    rows = []
    for lineno, line in enumerate(_read_lines(args), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise MalformedRow(lineno, "expected `score<TAB>weight`")
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
        if weight <= 0:
            raise MalformedRow(lineno, "weights must be positive")
        rows.append((score, weight))
    if not rows:
        raise MalformedRow(0, "no (score, weight) rows given")
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

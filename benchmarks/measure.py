"""Measuring process: loads one workload's generated inputs through the
library's public loaders, runs closed-loop passes over them, checks every
output and prints one JSON object on its last line.

It is started by ``run.py`` in a process of its own, so that ``setup_s``
and ``peak_rss_mib`` belong to this workload and not to the generator:

    python3 benchmarks/measure.py --workload annotate --inputs DIR \
        --seconds 30 --trace 0

One process, one thread, one caller: the next op starts when the previous
one has returned.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from aranlp import morphology, ner, synonymy, textutils, wsd  # noqa: E402

import gen  # noqa: E402
from tracer import Tracer  # noqa: E402

# ``aranlp.relatedness`` on the package is the function, not the module.
relmod = importlib.import_module("aranlp.relatedness")

SETUP_PATCHES = (
    (morphology, "load_dictionary", "morphology.load_dictionary"),
    (ner, "load_gazetteer", "ner.load_gazetteer"),
    (ner, "GazetteerTagger", "ner.GazetteerTagger.init"),
    (wsd, "load_inventory", "wsd.load_inventory"),
    (synonymy, "build_graph", "synonymy.build_graph"),
    (relmod, "load_pairs", "relatedness.load_pairs"),
)


def _count_source(counts, args, result, seconds):
    counts[f"analyze.{result.source}"] += 1
    counts[f"analyze.{result.source}.s"] += seconds


def _count_accepted(counts, args, result, seconds):
    counts["multiword.offered"] += len(args[0])
    counts["multiword.accepted"] += len(result)


def _count_candidates(counts, args, result, seconds):
    counts["select_sense.candidates"] += len(args[0])


def _count_compatible(counts, args, result, seconds):
    counts["match_words.compatible"] += result.relation != textutils.INCOMPATIBLE


def _count_kept(counts, args, result, seconds):
    counts["remove_duplicates.offered"] += len(args[0])
    counts["remove_duplicates.kept"] += len(result)


# Every name a traced pass rebinds, in the module that looks it up.
PASS_PATCHES = (
    (wsd, "disambiguate", "wsd.disambiguate", None),
    (wsd, "lemmatize_tokens", "wsd.lemmatize_tokens", None),
    (wsd, "analyze", "morphology.analyze", _count_source),
    (wsd, "lookup_multiword", "wsd.lookup_multiword", _count_accepted),
    (wsd, "decode_matrix", "ner.decode_matrix", None),
    (wsd, "project_flat", "ner.project_flat", None),
    (wsd, "select_sense", "wsd.select_sense", _count_candidates),
    (morphology, "analyze", "morphology.analyze", _count_source),
    (morphology, "ar_strip", "script.ar_strip", None),
    (morphology, "coarse_pos", "morphology.coarse_pos", None),
    (morphology, "all_solutions", "morphology.all_solutions", None),
    (synonymy, "syn_extract", "synonymy.syn_extract", None),
    (textutils, "jaccard", "textutils.jaccard", None),
    (textutils, "match_words", "textutils.match_words", _count_compatible),
    (textutils, "decompose", "script.decompose", None),
    (textutils, "remove_duplicates", "textutils.remove_duplicates", _count_kept),
    (textutils, "ar_strip", "script.ar_strip", None),
    (relmod, "relatedness", "relatedness.relatedness", None),
    (relmod, "mean_pool", "relatedness.mean_pool", None),
    (relmod, "cosine", "relatedness.cosine", None),
)

ORIGINALS = {
    (owner, attr): getattr(owner, attr)
    for owner, attr, *_ in SETUP_PATCHES + PASS_PATCHES
}


def require_originals() -> None:
    """Untraced passes must run the library's own functions."""
    for (owner, attr), original in ORIGINALS.items():
        if getattr(owner, attr) is not original:
            raise RuntimeError(f"{owner.__name__}.{attr} is still rebound")


def _lines(path: Path) -> list[str]:
    return path.read_text("utf-8").splitlines()


class Annotate:
    """``wsd.disambiguate`` with the CLI's default OverlapVerifier, one op
    per sentence."""

    setup_repeats = 5

    def __init__(self, inputs: Path):
        self.inputs = inputs
        self.sentences = _lines(inputs / "sentences.txt")
        self.gold = json.loads((inputs / "gold.json").read_text("utf-8"))
        self.contexts: set[str] = set()

    def setup(self) -> None:
        self.dictionary = morphology.load_dictionary(self.inputs / "dictionary.tsv")
        self.tagger = ner.GazetteerTagger(ner.load_gazetteer(self.inputs / "gazetteer.tsv"))
        self.inventory = wsd.load_inventory(self.inputs / "inventory.tsv")

    def ops(self, tracer: Tracer | None) -> list:
        # A fresh verifier per pass, as each `wsd annotate` run builds one:
        # every sentence is then new to its context cache.
        verifier = wsd.OverlapVerifier(self.dictionary)
        tagger = self.tagger
        if tracer is not None:
            self.contexts = set()
            contexts = self.contexts

            def count_tokens(counts, args, result, seconds):
                counts["classify.tokens"] += len(args[0])

            def count_contexts(counts, args, result, seconds):
                contexts.add(args[0])

            tagger = tracer.proxy(tagger, classify=("ner.classify", count_tokens))
            verifier = tracer.proxy(verifier, score=("wsd.verifier.score", count_contexts))
        return [
            partial(wsd.disambiguate, s, self.inventory, tagger, verifier, self.dictionary)
            for s in self.sentences
        ]

    def check(self, index: int, spans) -> bool:
        expected = self.gold[index]
        if len(spans) != len(expected):
            return False
        for span, (start, end, kind, payload) in zip(spans, expected):
            if (span.start, span.end, span.kind) != (start, end, kind):
                return False
            if kind == wsd.KIND_ENTITY:
                if span.payload != payload:
                    return False
            elif span.payload not in payload:
                return False
        return True


class Lexicon:
    """Per-token ``analyze`` with the task cycling through TASKS, plus
    ``coarse_pos``, ``all_solutions`` and level-2 ``syn_extract``."""

    setup_repeats = 5

    def __init__(self, inputs: Path):
        self.inputs = inputs
        gold = json.loads((inputs / "gold.json").read_text("utf-8"))
        self.groups = gold["groups"]
        self.tag_map = morphology.load_tag_map()
        self.plan = []  # (kind, payload, expected)
        token_index = 0
        group_index = 0
        for line, expected in zip(_lines(inputs / "lines.txt"), gold["lines"]):
            items = []
            for token, want in zip(line.split(), expected):
                task = morphology.TASKS[token_index % len(morphology.TASKS)]
                items.append((token, task, token_index % 10 == 0))
                token_index += 1
            self.plan.append(("line", tuple(items), expected))
            if len(self.plan) % gen.LEXICON_SYN_EVERY == gen.LEXICON_SYN_EVERY - 1:
                seeds, candidates = self.groups[group_index % len(self.groups)]
                group_index += 1
                self.plan.append(("syn", tuple(seeds), candidates))

    def setup(self) -> None:
        self.dictionary = morphology.load_dictionary(self.inputs / "dictionary.tsv")
        self.graph = synonymy.build_graph(self.inputs / "pairs.tsv")

    def ops(self, tracer: Tracer | None) -> list:
        return [
            partial(_lexicon_line, payload, self.dictionary) if kind == "line"
            else partial(synonymy.syn_extract, payload, 2, self.graph)
            for kind, payload, _ in self.plan
        ]

    def check(self, index: int, output) -> bool:
        kind, payload, expected = self.plan[index]
        if kind == "syn":
            scores = {r.term.surface: r.score for r in output}
            return all(scores.get(c) == Fraction(1) for c in expected)
        for (tagged, coarse, solutions), want, (_, task, wants_all) in zip(
            output, expected, payload
        ):
            if tagged.source != want[0]:
                return False
            if want[0] == "oov":
                if tagged.solution is not None or solutions not in (None, ()):
                    return False
                continue
            solution = tagged.solution
            if (solution.lemma, solution.pos, solution.root, solution.frequency) != tuple(
                want[1:5]
            ):
                return False
            if task == "pos" and coarse != self.tag_map[solution.pos]:
                return False
            if wants_all and (len(solutions) != want[5] or solutions[0] != solution):
                return False
        return True


def _lexicon_line(items, dictionary):
    out = []
    for token, task, wants_all in items:
        tagged = morphology.analyze(token, dictionary, task)
        wants_coarse = task == "pos" and tagged.solution is not None
        out.append((
            tagged,
            morphology.coarse_pos(tagged.solution.pos) if wants_coarse else None,
            morphology.all_solutions(token, dictionary) if wants_all else None,
        ))
    return out


class Textsim:
    """An interleaved, seeded sequence of ``jaccard``, ``remove_duplicates``
    and ``relatedness`` calls."""

    setup_repeats = 15

    def __init__(self, inputs: Path):
        self.inputs = inputs
        self.schedule = json.loads((inputs / "gold.json").read_text("utf-8"))["schedule"]
        # (kind, index among the inputs of that kind) for every op
        seen = {"jaccard": 0, "dedup": 0, "related": 0}
        self.slots = []
        for kind in self.schedule:
            self.slots.append((kind, seen[kind]))
            seen[kind] += 1

    def setup(self) -> None:
        self.jaccard_sets = [
            tuple(part.split() for part in row.split("\t"))
            for row in _lines(self.inputs / "jaccard.tsv")
        ]
        text = (self.inputs / "dedup.txt").read_text("utf-8")
        self.blocks = [block.split("\n") for block in text.strip("\n").split("\n\n")]
        self.pairs = relmod.load_pairs(self.inputs / "related.tsv")
        self.provider = relmod.HashedTrigramProvider()

    def ops(self, tracer: Tracer | None) -> list:
        provider = self.provider
        if tracer is not None:
            provider = tracer.proxy(provider, embed=("relatedness.embed", None))
        ops = []
        for kind, k in self.slots:
            if kind == "jaccard":
                ops.append(partial(textutils.jaccard, *self.jaccard_sets[k]))
            elif kind == "dedup":
                ops.append(partial(textutils.remove_duplicates, self.blocks[k]))
            else:
                ops.append(partial(relmod.relatedness, self.pairs[k], provider))
        return ops

    def check(self, index: int, output) -> bool:
        kind, k = self.slots[index]
        if kind == "jaccard":
            first, second = (set(words) for words in self.jaccard_sets[k])
            union, inter = output.union_size, output.intersection_size
            return (0 <= inter <= union <= len(first | second)
                    and inter <= min(len(first), len(second))
                    and output.similarity == inter / union)
        if kind == "dedup":
            return output == reference_dedup(self.blocks[k], 0.8)
        return isinstance(output, float) and -1.0 <= output <= 1.0


def _vowel_free_counts(sentence: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for token in "".join(ch for ch in sentence if ch not in gen.VOWELS).split():
        counts[token] = counts.get(token, 0) + 1
    return counts


def reference_dedup(sentences, threshold):
    """Independent greedy dedup: keep a sentence unless its cosine with a
    kept one reaches the threshold, over vowel-stripped token counts."""
    kept, vectors = [], []
    for sentence in sentences:
        counts = _vowel_free_counts(sentence)
        duplicate = False
        for other in vectors:
            if not counts and not other:
                cosine = 1.0
            elif not counts or not other:
                cosine = 0.0
            else:
                dot = sum(n * other.get(t, 0) for t, n in counts.items())
                cosine = dot / math.sqrt(
                    sum(n * n for n in counts.values()) * sum(n * n for n in other.values())
                )
            if cosine >= threshold:
                duplicate = True
                break
        if not duplicate:
            kept.append(sentence)
            vectors.append(counts)
    return kept


WORKLOADS = {"annotate": Annotate, "textsim": Textsim, "lexicon": Lexicon}


class Run:
    """Outcome of every pass of one run: each op's timings, the timed wall
    time, and per-op output digests checked against the first pass."""

    def __init__(self, workload):
        self.workload = workload
        self.timings: dict[int, list[float]] = {}
        self.timed = 0.0
        self.attempted = 0
        self.failed = 0
        self.reference: dict[int, tuple[bytes, bool]] = {}

    def one_pass(self, ops, budget: float = math.inf) -> float:
        """Run ops in order until they are done or ``budget`` seconds of
        timed wall time have passed; returns the pass's wall time.  Checks
        happen after the timed loop."""
        outputs = []
        latencies = []
        start = perf_counter()
        deadline = start + budget
        for op in ops:
            t0 = perf_counter()
            try:
                output = op()
            except Exception as exc:  # a raising op counts as failed
                output = exc
            t1 = perf_counter()
            latencies.append(t1 - t0)
            outputs.append(output)
            if t1 >= deadline:
                break
        wall = perf_counter() - start
        self.timed += wall
        for index, latency in enumerate(latencies):
            self.timings.setdefault(index, []).append(latency)
        for index, output in enumerate(outputs):
            self.attempted += 1
            if isinstance(output, Exception):
                self.failed += 1
                continue
            digest = hashlib.blake2b(repr(output).encode("utf-8"), digest_size=16).digest()
            seen = self.reference.get(index)
            if seen is None:
                seen = self.reference[index] = (digest, self._check(index, output))
            if seen != (digest, True):
                self.failed += 1
        return wall

    def _check(self, index: int, output) -> bool:
        try:
            return self.workload.check(index, output)
        except Exception:  # an output too malformed to inspect is wrong
            return False

    def output_digest(self) -> str:
        h = hashlib.sha256()
        for index in sorted(self.reference):
            h.update(self.reference[index][0])
        return h.hexdigest()


def _quantile(ordered: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank quantile and the number of samples above it."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Setups:
    """The workload's set-up repeats, spread over the run: one before the
    first pass, the others between passes as the timed wall time reaches
    each one's share of the run.  Each repeat drops the previous copy of
    the resources first, so only one copy is alive at a time.  In a traced
    run every loader is timed as a span."""

    def __init__(self, workload, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.times: list[float] = []
        self.loaders: dict[str, list[float]] = {}
        self._own = set(vars(workload))

    def once(self) -> None:
        for name in set(vars(self.workload)) - self._own:
            delattr(self.workload, name)
        gc.collect()
        tracer = Tracer() if self.trace else None
        if tracer is not None:
            for owner, attr, name in SETUP_PATCHES:
                tracer.patch(owner, attr, name)
        try:
            start = perf_counter()
            self.workload.setup()
            self.times.append(perf_counter() - start)
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is not None:
            for _, _, name in SETUP_PATCHES:
                self.loaders.setdefault(name, []).append(tracer.total_seconds(name))

    def between_passes(self, timed: float) -> None:
        repeats = self.workload.setup_repeats
        while len(self.times) < repeats and timed >= self.seconds * len(self.times) / repeats:
            self.once()

    def finish(self) -> None:
        while len(self.times) < self.workload.setup_repeats:
            self.once()

    def median(self) -> float:
        return statistics.median(self.times)

    def loader_medians(self) -> dict[str, float]:
        return {name: statistics.median(v) for name, v in self.loaders.items()}


def untraced(workload, run: Run, setups: Setups, seconds: float) -> dict:
    """Passes over the same ops until ``seconds`` of timed wall time have
    passed; the last pass stops when the time is up.  An op's latency is
    the mean of its timings in the run, so that the percentiles average the
    machine's slow and fast spells the way ``ops_per_s`` does."""
    while run.timed < seconds:
        require_originals()
        run.one_pass(workload.ops(None), seconds - run.timed)
        setups.between_passes(run.timed)
    setups.finish()
    done = sum(len(t) for t in run.timings.values())
    ordered = sorted(statistics.fmean(t) for t in run.timings.values())
    p50, _ = _quantile(ordered, 0.50)
    p99, beyond = _quantile(ordered, 0.99)
    return {
        "metrics": {
            "ops_per_s": done / run.timed,
            "op_p50_ms": p50 * 1e3,
            "op_p99_ms": p99 * 1e3,
        },
        "samples": {"ops_timed": done, "latency": len(ordered), "beyond_p99": beyond},
    }


def traced(workload, run: Run, setups: Setups, seconds: float) -> dict:
    """Alternate whole untraced and traced passes over the same ops, at
    least one of each, while the next pair still fits in ``seconds`` of
    timed wall time."""
    tracer = Tracer()
    plain_wall = traced_wall = 0.0
    passes = 0
    contexts = 0
    pair = 0.0
    while passes == 0 or run.timed + pair <= seconds:
        started = run.timed
        require_originals()
        plain_wall += run.one_pass(workload.ops(None))
        for owner, attr, name, after in PASS_PATCHES:
            tracer.patch(owner, attr, name, after)
        try:
            ops = workload.ops(tracer)
            traced_wall += run.one_pass(ops)
        finally:
            tracer.restore()
        passes += 1
        pair = run.timed - started
        contexts += len(getattr(workload, "contexts", ()))
        setups.between_passes(run.timed)
    setups.finish()
    require_originals()

    def per_pass(value: float) -> float:
        return value / passes

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    counts = tracer.counts
    analyzed = tracer.calls("morphology.analyze")
    metrics = {f"{name}.s": value for name, value in setups.loader_medians().items()}
    for name in (
        "ner.classify", "ner.decode_matrix", "ner.project_flat", "wsd.lemmatize_tokens",
        "wsd.lookup_multiword", "wsd.verifier.score", "wsd.select_sense",
        "wsd.disambiguate", "morphology.analyze", "script.ar_strip",
        "textutils.jaccard", "textutils.match_words", "script.decompose",
        "textutils.remove_duplicates", "relatedness.relatedness", "relatedness.embed",
        "relatedness.mean_pool", "relatedness.cosine", "morphology.coarse_pos",
        "morphology.all_solutions", "synonymy.syn_extract",
    ):
        metrics[f"{name}.self_s"] = per_pass(tracer.self_seconds(name))
    for name in ("wsd.verifier.score", "morphology.analyze", "script.ar_strip",
                 "textutils.match_words", "script.decompose", "relatedness.relatedness"):
        metrics[f"{name}.calls"] = per_pass(tracer.calls(name))
    metrics.update({
        "ner.classify.us_per_token": ratio(
            tracer.self_seconds("ner.classify") * 1e6, counts["classify.tokens"]),
        "wsd.lookup_multiword.accept_ratio": ratio(
            counts["multiword.accepted"], counts["multiword.offered"]),
        "wsd.candidates_per_span": ratio(
            counts["select_sense.candidates"], tracer.calls("wsd.select_sense")),
        "wsd.verifier.distinct_contexts": per_pass(contexts),
        "morphology.analyze.exact_ratio": ratio(counts["analyze.exact"], analyzed),
        "morphology.analyze.stripped_ratio": ratio(counts["analyze.stripped"], analyzed),
        "morphology.analyze.oov_ratio": ratio(counts["analyze.oov"], analyzed),
        # whole-call time, ar_strip included, to compare with per-call rates
        "morphology.analyze.exact_us": ratio(
            counts["analyze.exact.s"] * 1e6, counts["analyze.exact"]),
        "morphology.analyze.strip_path_us": ratio(
            (counts["analyze.stripped.s"] + counts["analyze.oov.s"]) * 1e6,
            counts["analyze.stripped"] + counts["analyze.oov"]),
        "textutils.match_words.compatible_ratio": ratio(
            counts["match_words.compatible"], tracer.calls("textutils.match_words")),
        "textutils.remove_duplicates.kept_ratio": ratio(
            counts["remove_duplicates.kept"], counts["remove_duplicates.offered"]),
        "trace.overhead_ratio": traced_wall / plain_wall,
        "trace.wall_s": per_pass(traced_wall),
        "trace.residual_s": per_pass(traced_wall - tracer.covered_seconds()),
    })
    return {"metrics": metrics, "samples": {"traced_passes": passes}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.inputs)
    setups = Setups(workload, args.seconds, bool(args.trace))
    setups.once()
    run = Run(workload)
    if args.trace:
        result = traced(workload, run, setups, args.seconds)
    else:
        result = untraced(workload, run, setups, args.seconds)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"].update({
            "setup_s": setups.median(),
            "peak_rss_mib": peak_rss,
            "ok_ratio": (run.attempted - run.failed) / run.attempted,
        })
    result.update({
        "attempted": run.attempted,
        "failed": run.failed,
        "output_digest": run.output_digest(),
        "ops_per_pass": len(workload.ops(None)),
        "setup_repeats": workload.setup_repeats,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The library half of the public-surface contract: every public call on
random text, and every loader and reader on random lines, returns a
result or raises a typed AranlpError."""

import inspect
import random
from types import SimpleNamespace

import pytest

import aranlp
from aranlp.errors import AranlpError
from aranlp.evaluation import read_weighted_scores
from aranlp.morphology import TASKS
from aranlp.ner import GazetteerTagger, load_gazetteer, read_matrix_file, read_span_file
from aranlp.relatedness import HashedTrigramProvider, SentencePair, load_pairs, relatedness
from aranlp.wsd import OverlapVerifier, read_annotated_corpus

from _oracles import FUZZ_PIECES, fuzz_text

# The CLI fuzzer's alphabet plus what a str holds but decoded stdin cannot:
# lone surrogates, and an astral character.
PIECES = [*FUZZ_PIECES, "\ud800", "\udfff", "\U0001d49c"]

STRIP_FLAGS = [
    name for name, parameter in inspect.signature(aranlp.ar_strip).parameters.items()
    if parameter.kind is parameter.KEYWORD_ONLY
]

# row -> call(rng, text, other, resources), where other is a second random text
CALLS = {
    "all_solutions": lambda rng, text, other, r: aranlp.all_solutions(text, r.dictionary),
    "analyze": lambda rng, text, other, r: aranlp.analyze(text, r.dictionary, rng.choice(TASKS)),
    "analyze_text": lambda rng, text, other, r: aranlp.analyze_text(
        text, r.dictionary, rng.choice(TASKS)),
    "ar_strip": lambda rng, text, other, r: aranlp.ar_strip(
        text, **{flag: rng.random() < 0.5 for flag in STRIP_FLAGS}),
    "decompose": lambda rng, text, other, r: aranlp.decompose(text),
    "disambiguate": lambda rng, text, other, r: aranlp.disambiguate(
        text, r.inventory, r.tagger, r.verifier, r.dictionary),
    "from_buckwalter": lambda rng, text, other, r: aranlp.from_buckwalter(text),
    "jaccard": lambda rng, text, other, r: aranlp.jaccard(
        text.split(), other.split(), rng.choice(["exact", "diacritic_aware"])),
    "match_words": lambda rng, text, other, r: aranlp.match_words(text, other),
    "remove_duplicates": lambda rng, text, other, r: aranlp.remove_duplicates(
        [text, *other.split("\n")], rng.choice([0.0, 0.5, 0.8, 1.0])),
    "split_sentences": lambda rng, text, other, r: aranlp.split_sentences(text),
    "syn_eval": lambda rng, text, other, r: aranlp.syn_eval(
        text.split(), rng.randint(1, 3), r.graph, rng.choice(["ar", "en"])),
    "syn_extract": lambda rng, text, other, r: aranlp.syn_extract(
        text.split(), rng.randint(1, 3), r.graph, rng.choice(["ar", "en"])),
    "to_buckwalter": lambda rng, text, other, r: aranlp.to_buckwalter(text),
    "GazetteerTagger.classify": lambda rng, text, other, r: r.tagger.classify(
        text.split(rng.choice([None, "\t"]))),
    "relatedness": lambda rng, text, other, r: relatedness(SentencePair(text, other), r.provider),
    **{
        load.__name__: lambda rng, text, other, r, load=load: load(text.split("\n"))
        for load in (
            aranlp.load_dictionary, load_gazetteer, aranlp.load_inventory, aranlp.build_graph,
            load_pairs, read_span_file, read_matrix_file, read_annotated_corpus,
            read_weighted_scores,
        )
    },
}


@pytest.fixture(scope="module")
def resources(morph_dict, inventory, gazetteer, pair_graph):
    return SimpleNamespace(
        dictionary=morph_dict, inventory=inventory, graph=pair_graph,
        tagger=GazetteerTagger(gazetteer), verifier=OverlapVerifier(morph_dict),
        provider=HashedTrigramProvider(),
    )


def test_every_exported_function_whose_first_parameter_is_text_has_a_row():
    takes_text = set()
    for name in aranlp.__all__:
        function = getattr(aranlp, name)
        if inspect.isfunction(function):
            first = next(iter(inspect.signature(function).parameters.values()))
            if first.annotation in ("str", "str | Path | Iterable[str]"):
                takes_text.add(name)
    assert len(takes_text) == 13
    assert takes_text <= CALLS.keys(), takes_text - CALLS.keys()


# a term missing from the graph is an advisory, not an error
@pytest.mark.filterwarnings("ignore::aranlp.errors.SeedNotInGraphWarning")
@pytest.mark.parametrize("seed, call", list(enumerate(CALLS.values())), ids=list(CALLS))
def test_random_text_gives_a_result_or_a_typed_error(seed, call, resources):
    rng = random.Random(seed)
    for _ in range(300):
        text, other = fuzz_text(rng, PIECES), fuzz_text(rng, PIECES)
        try:
            call(rng, text, other, resources)
        except AranlpError:
            pass
        except Exception as exc:  # any other type breaks the contract
            pytest.fail(f"{type(exc).__name__}: {exc} for {text!r} and {other!r}")

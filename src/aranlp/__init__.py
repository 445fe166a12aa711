"""aranlp: Arabic NLP toolkit.

Dictionary-based morphology tagging, per-type IOB entity decoding with
flat/nested span assembly, a five-phase word sense disambiguation
pipeline, embedding-based semantic relatedness, cycle-based synonym
extraction, and diacritic-aware text utilities.  Every component is
available both as an API (this package) and as a subcommand of the
``aranlp`` command-line tool.
"""

__version__ = "0.1.0"

from .errors import AranlpError
from .morphology import (
    MorphDictionary,
    MorphSolution,
    TaggedToken,
    all_solutions,
    analyze,
    analyze_text,
    load_dictionary,
)
from .ner import (
    EntitySpan,
    EntityTypeSet,
    GazetteerTagger,
    LabelMatrix,
    decode_iob,
    decode_matrix,
    project_flat,
    span_f1,
)
from .relatedness import (
    HashedTrigramProvider,
    SentencePair,
    cosine,
    mean_pool,
    spearman,
)
from .script import (
    DiacriticSet,
    SkeletonWord,
    ar_strip,
    decompose,
    from_buckwalter,
    to_buckwalter,
)
from .synonymy import SynonymyGraph, TermNode, build_graph, syn_eval, syn_extract
from .textutils import (
    JaccardReport,
    MatchVerdict,
    SplitConfig,
    jaccard,
    match_words,
    remove_duplicates,
    split_sentences,
)
from .wsd import (
    AnnotatedSpan,
    Gloss,
    OracleVerifier,
    OverlapVerifier,
    SenseInventory,
    disambiguate,
    load_inventory,
    select_sense,
    wsd_accuracy,
)
from .evaluation import micro_average

__all__ = [
    "AnnotatedSpan",
    "AranlpError",
    "DiacriticSet",
    "EntitySpan",
    "EntityTypeSet",
    "GazetteerTagger",
    "Gloss",
    "HashedTrigramProvider",
    "JaccardReport",
    "LabelMatrix",
    "MatchVerdict",
    "MorphDictionary",
    "MorphSolution",
    "OracleVerifier",
    "OverlapVerifier",
    "SenseInventory",
    "SentencePair",
    "SkeletonWord",
    "SplitConfig",
    "SynonymyGraph",
    "TaggedToken",
    "TermNode",
    "all_solutions",
    "analyze",
    "analyze_text",
    "ar_strip",
    "build_graph",
    "cosine",
    "decode_iob",
    "decode_matrix",
    "decompose",
    "disambiguate",
    "from_buckwalter",
    "jaccard",
    "load_dictionary",
    "load_inventory",
    "match_words",
    "mean_pool",
    "micro_average",
    "project_flat",
    "remove_duplicates",
    "select_sense",
    "span_f1",
    "spearman",
    "split_sentences",
    "syn_eval",
    "syn_extract",
    "to_buckwalter",
    "wsd_accuracy",
]

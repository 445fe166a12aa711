"""Frequency-ranked dictionary tagger: lemma, part of speech, and root by
lookup.

The dictionary is a plain hashmap from wordform to a frequency-sorted
solution list; the list head is the default solution, returned regardless
of context.  Lookup is two-step: the exact surface form first, then the
diacritic-stripped form.  Out-of-vocabulary words are a value, not an
error; an optional fallback hook can supply solutions for them.
"""

from __future__ import annotations

import functools
import unicodedata
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import DuplicateExactRow, EmptyDictionary, MalformedRow
from .script import ar_strip

TASKS = ("lemma", "pos", "root", "full")

SOURCE_EXACT = "exact"
SOURCE_STRIPPED = "stripped"
SOURCE_FALLBACK = "fallback"
SOURCE_OOV = "oov"

# OOV fallback hook: given the (normalized) surface form, return a solution
# or None.  The shipped default is no fallback.
FallbackFn = Callable[[str], "MorphSolution | None"]


@dataclass(frozen=True)
class MorphSolution:
    lemma: str
    pos: str
    root: str
    frequency: int


@dataclass(frozen=True)
class MorphDictionary:
    entries: dict[str, tuple[MorphSolution, ...]]
    version: str = "unversioned"

    @property
    def entry_count(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class TaggedToken:
    surface: str
    solution: MorphSolution | None
    source: str
    task: str = "full"

    @property
    def value(self):
        """The task-selected answer: a field of the solution, or the whole
        solution for task=full; None when out of vocabulary."""
        if self.solution is None:
            return None
        if self.task == "full":
            return self.solution
        return getattr(self.solution, self.task)


def load_tagset() -> frozenset[str]:
    """The packaged fine (40-tag) part-of-speech inventory."""
    text = resources.files("aranlp").joinpath("data/pos_tags_40.txt").read_text("utf-8")
    return frozenset(
        line.strip() for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )


@functools.cache
def _tag_map() -> dict[str, str]:
    """The packaged tag map, parsed on first use; never handed out."""
    text = resources.files("aranlp").joinpath("data/pos_map_40_to_18.tsv").read_text("utf-8")
    mapping: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        fine, coarse = line.split("\t")
        mapping[fine] = coarse
    return mapping


def load_tag_map() -> dict[str, str]:
    """The packaged surjective fine -> coarse (40 -> 18) tag mapping, as a
    fresh copy the caller may change."""
    return dict(_tag_map())


def coarse_pos(tag: str) -> str:
    return _tag_map()[tag]


def _strip_key(word: str) -> str:
    return ar_strip(word, diacritics=True, shaddah=True, tatweel=True)


def load_dictionary(
    source: str | Path | Iterable[str],
    tagset: frozenset[str] | None = None,
    version: str | None = None,
) -> MorphDictionary:
    """Parse a dictionary TSV: wordform, lemma, pos, root, frequency.

    Repeated wordform rows aggregate into one frequency-sorted list (ties
    broken lexicographically on lemma, pos, root).  Blank lines and #
    comments are skipped.  pos tags are validated against ``tagset``
    (default: the packaged 40-tag inventory; pass an explicit set to
    override, or an empty set to disable validation).
    """
    if tagset is None:
        tagset = load_tagset()
    if isinstance(source, (str, Path)):
        path = Path(source)
        lines = path.read_text("utf-8").splitlines()
        if version is None:
            version = path.name
    else:
        lines = list(source)
    grouped: dict[str, list[MorphSolution]] = {}
    seen_rows: set[tuple[str, str, str, str]] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise MalformedRow(lineno, f"expected 5 tab-separated fields, got {len(fields)}")
        wordform, lemma, pos, root, freq_text = (
            unicodedata.normalize("NFC", f.strip()) for f in fields
        )
        if not wordform or not lemma:
            raise MalformedRow(lineno, "wordform and lemma must be non-empty")
        if tagset and pos not in tagset:
            raise MalformedRow(lineno, f"pos {pos!r} is not in the configured tag set")
        try:
            frequency = int(freq_text)
        except ValueError:
            raise MalformedRow(lineno, f"frequency {freq_text!r} is not an integer") from None
        if frequency < 0:
            raise MalformedRow(lineno, f"frequency must be non-negative, got {frequency}")
        row_key = (wordform, lemma, pos, root)
        if row_key in seen_rows:
            raise DuplicateExactRow(
                f"line {lineno}: duplicate solution for {wordform!r}: <{lemma}, {pos}, {root}>"
            )
        seen_rows.add(row_key)
        grouped.setdefault(wordform, []).append(MorphSolution(lemma, pos, root, frequency))
    if not grouped:
        raise EmptyDictionary("dictionary has no data rows")
    entries = {
        wordform: tuple(sorted(sols, key=lambda s: (-s.frequency, s.lemma, s.pos, s.root)))
        for wordform, sols in grouped.items()
    }
    return MorphDictionary(entries, version or "unversioned")


def _lookup(word: str, dictionary: MorphDictionary) -> tuple[tuple[MorphSolution, ...], str]:
    normalized = unicodedata.normalize("NFC", word)
    solutions = dictionary.entries.get(normalized)
    if solutions is not None:
        return solutions, SOURCE_EXACT
    stripped = _strip_key(normalized)
    if stripped != normalized:
        solutions = dictionary.entries.get(stripped)
        if solutions is not None:
            return solutions, SOURCE_STRIPPED
    return (), SOURCE_OOV


def analyze(
    word: str,
    dictionary: MorphDictionary,
    task: str = "full",
    fallback: FallbackFn | None = None,
) -> TaggedToken:
    """Tag one word with its default (most frequent) solution.

    Pure function of (word, dictionary): exact lookup, then the
    diacritic-stripped form, then the optional fallback hook, else a typed
    oov result.
    """
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    solutions, source = _lookup(word, dictionary)
    if solutions:
        return TaggedToken(word, solutions[0], source, task)
    if fallback is not None:
        solution = fallback(unicodedata.normalize("NFC", word))
        if solution is not None:
            return TaggedToken(word, solution, SOURCE_FALLBACK, task)
    return TaggedToken(word, None, SOURCE_OOV, task)


def analyze_text(
    text: str,
    dictionary: MorphDictionary,
    task: str = "full",
    fallback: FallbackFn | None = None,
) -> list[TaggedToken]:
    """Whitespace-tokenize and tag every token; output order and length
    mirror the token stream."""
    return [analyze(token, dictionary, task, fallback) for token in text.split()]


def all_solutions(word: str, dictionary: MorphDictionary) -> tuple[MorphSolution, ...]:
    """Full ranked solution list for a word (empty when oov); the head
    equals the analyze() result."""
    solutions, _ = _lookup(word, dictionary)
    return solutions

"""Frequency-ranked dictionary tagger: lemma, part of speech, and root by
lookup.

The dictionary is a plain hashmap from wordform to a frequency-sorted
solution list; the list head is the default solution, returned regardless
of context.  Lookup is two-step: the exact surface form first, then the
diacritic-stripped form.  Out-of-vocabulary words are a value, not an
error.
"""

from __future__ import annotations

import functools
import unicodedata
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from . import _tsv
from ._record import record
from .errors import DuplicateExactRow, EmptyDictionary, MalformedRow
from .evaluation import json_line
from .script import ar_strip

TASKS = ("lemma", "pos", "root", "full")

SOURCE_EXACT = "exact"
SOURCE_STRIPPED = "stripped"
SOURCE_OOV = "oov"


@record
class MorphSolution:
    lemma: str
    pos: str
    root: str
    frequency: int

    def render_text(self) -> str:
        """The four fields as one tab-separated line, the frequency in
        decimal."""
        return f"{self.lemma}\t{self.pos}\t{self.root}\t{self.frequency}"


@dataclass(frozen=True)
class MorphDictionary:
    entries: dict[str, tuple[MorphSolution, ...]]

    def __len__(self) -> int:
        return len(self.entries)


@record
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

    def render_text(self) -> str:
        """surface<TAB>answer<TAB>source: the answer is the solution's
        fields for task=full, the one selected field otherwise, and ``-``
        when out of vocabulary."""
        value = self.value
        if value is None:
            value = "-"
        elif self.task == "full":
            value = value.render_text()
        return f"{self.surface}\t{value}\t{self.source}"

    def render_records(self) -> str:
        return json_line({"surface": self.surface, "source": self.source,
                          "task": self.task, "value": self.value})


@record
class RankedSolutions:
    surface: str
    solutions: tuple[MorphSolution, ...]

    def render_text(self) -> str:
        """surface<TAB>rank<TAB>fields per solution, or surface<TAB>- for none."""
        return "\n".join(f"{self.surface}\t{rank}\t{s.render_text()}" for rank, s in
                         enumerate(self.solutions, start=1)) or f"{self.surface}\t-"

    def render_records(self) -> str:
        return json_line({"surface": self.surface, "solutions": self.solutions})


@functools.cache
def _tag_map() -> dict[str, str]:
    """The packaged tag map, parsed on first use; never handed out."""
    return {
        fine: coarse
        for _, (fine, coarse) in _tsv.rows(_tsv.packaged("pos_map_40_to_18.tsv"), 2)
    }


def load_tagset() -> frozenset[str]:
    """The packaged fine (40-tag) part-of-speech inventory: the tag map's keys."""
    return frozenset(_tag_map())


def load_tag_map() -> dict[str, str]:
    """The packaged surjective fine -> coarse (40 -> 18) tag mapping, as a
    fresh copy the caller may change."""
    return dict(_tag_map())


def coarse_pos(tag: str) -> str:
    return _tag_map()[tag]


def _strip_key(word: str) -> str:
    return ar_strip(word, diacritics=True, shaddah=True, tatweel=True)


def _rank(solution: MorphSolution) -> tuple[int, str, str, str]:
    return (-solution.frequency, solution.lemma, solution.pos, solution.root)


@_tsv.collector_paused()
def load_dictionary(source: str | Path | Iterable[str]) -> MorphDictionary:
    """Parse a dictionary TSV: wordform, lemma, pos, root, frequency.

    ``source`` is a path or an iterable of lines.  Fields are stripped and
    NFC-normalized.  Repeated wordform rows aggregate into one
    frequency-sorted list (ties broken lexicographically on lemma, pos,
    root).  Each row needs a non-empty wordform and lemma, a pos tag of
    the packaged 40-tag inventory (:func:`load_tagset`), and a
    non-negative integer frequency; an exact repeat of a (wordform,
    lemma, pos, root) row raises DuplicateExactRow.

    Equal field values come back as one shared object: every pos is the
    inventory's own string, and for the duration of one load there is one
    string per distinct root, one int per distinct frequency text, and a
    lemma equal to its wordform is the wordform key itself.
    """
    # The sharing tables grow with the distinct values, not with the rows;
    # the tag table is the tag-set check and hands out the map's own keys.
    tags = {tag: tag for tag in _tag_map()}
    frequencies: dict[str, int] = {}  # field text -> validated value
    roots: dict[str, str] = {}
    entries: dict[str, tuple[MorphSolution, ...]] = {}
    for lineno, fields in _tsv.rows(_tsv.nfc_lines(source), 5):
        wordform, lemma, pos, root, freq_text = map(str.strip, fields)
        if not wordform or not lemma:
            raise MalformedRow(lineno, "wordform and lemma must be non-empty")
        shared_pos = tags.get(pos)
        if shared_pos is None:
            raise MalformedRow(lineno, f"pos {pos!r} is not in the packaged tag set")
        frequency = frequencies.get(freq_text)
        if frequency is None:
            try:
                frequency = int(freq_text)
            except ValueError:
                raise MalformedRow(lineno, f"frequency {freq_text!r} is not an integer") from None
            if frequency < 0:
                raise MalformedRow(lineno, f"frequency must be non-negative, got {frequency}")
            frequencies[freq_text] = frequency
        if lemma == wordform:
            lemma = wordform
        root = roots.setdefault(root, root)
        solution = MorphSolution(lemma, shared_pos, root, frequency)
        solutions = entries.get(wordform)
        if solutions is None:
            entries[wordform] = (solution,)
            continue
        # a wordform holds a handful of solutions at most: scan them
        if any(s.lemma == lemma and s.pos == pos and s.root == root for s in solutions):
            raise DuplicateExactRow(
                f"line {lineno}: duplicate solution for {wordform!r}: <{lemma}, {pos}, {root}>"
            )
        entries[wordform] = solutions + (solution,)
    if not entries:
        raise EmptyDictionary("dictionary has no data rows")
    for wordform, solutions in entries.items():
        if len(solutions) > 1:
            # a row after the first took its lemma from its own wordform
            # field, not from the key
            solutions = (
                MorphSolution(wordform, s.pos, s.root, s.frequency)
                if s.lemma == wordform and s.lemma is not wordform
                else s
                for s in solutions
            )
            entries[wordform] = tuple(sorted(solutions, key=_rank))
    return MorphDictionary(entries)


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


def analyze(word: str, dictionary: MorphDictionary, task: str = "full") -> TaggedToken:
    """Tag one word with its default (most frequent) solution.

    Pure function of (word, dictionary): exact lookup, then the
    diacritic-stripped form, else a typed oov result.
    """
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    solutions, source = _lookup(word, dictionary)
    if solutions:
        return TaggedToken(word, solutions[0], source, task)
    return TaggedToken(word, None, SOURCE_OOV, task)


def analyze_text(text: str, dictionary: MorphDictionary, task: str = "full") -> list[TaggedToken]:
    """Whitespace-tokenize and tag every token; output order and length
    mirror the token stream."""
    return [analyze(token, dictionary, task) for token in text.split()]


def all_solutions(word: str, dictionary: MorphDictionary) -> tuple[MorphSolution, ...]:
    """Full ranked solution list for a word (empty when oov); the head
    equals the analyze() result."""
    solutions, _ = _lookup(word, dictionary)
    return solutions

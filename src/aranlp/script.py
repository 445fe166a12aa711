"""Arabic script model: character classes, diacritic decomposition,
selective stripping, and Buckwalter transliteration.

Conventions
-----------
* The character tables ship as a versioned TSV (``data/buckwalter.tsv``)
  and are loaded once at import; all operations here are pure functions
  over those immutable tables and safe for concurrent use.
* The Buckwalter table is the classic (non XML-safe) one: the alias
  symbols ``O``/``W``/``I`` are excluded so the mapping stays injective.
* ``decompose`` and everything built on it require composed (NFC)
  Unicode; they normalize their input themselves.  ``ar_strip`` and the
  transliteration functions are per-codepoint total functions and never
  re-normalize, so that the identity and round-trip laws hold literally.
* Tatweel is purely typographic: ``decompose`` drops it, and
  ``ar_strip(..., tatweel=True)`` removes it.
* ``ar_strip(..., special_chars=True)`` covers Unicode punctuation and
  symbol categories (``P*``/``S*``); plain letters, digits, and combining
  marks are never touched by that flag.  It is the only per-character
  rule: the other five flags select one cached strip kernel, the
  ``(codepoint, replacement)`` pairs of that flag combination, built on
  first use; ``ar_strip`` runs one ``str.replace`` per pair that occurs
  in the text.
* "alif unification" maps the variants {0623, 0625, 0622, 0671} to bare
  alif 0627; the variants are never deleted outright.
"""

from __future__ import annotations

import functools
import unicodedata
from collections.abc import Callable
from dataclasses import dataclass, field

from . import _tsv
from .errors import ConflictingDiacritics, LeadingDiacritic, NonArabicLetter

VOWEL_NAMES = frozenset(
    {"fatha", "damma", "kasra", "sukun", "fathatan", "dammatan", "kasratan"}
)

_VOWEL_BY_CODEPOINT = {
    "ً": "fathatan",
    "ٌ": "dammatan",
    "ٍ": "kasratan",
    "َ": "fatha",
    "ُ": "damma",
    "ِ": "kasra",
    "ْ": "sukun",
}
_CODEPOINT_BY_VOWEL = {name: cp for cp, name in _VOWEL_BY_CODEPOINT.items()}

SHADDAH = "ّ"
TATWEEL = "ـ"

ALIF = "ا"
ALIF_VARIANTS = frozenset({"أ", "إ", "آ", "ٱ"})

DIGITS = frozenset("0123456789") | frozenset(
    chr(cp) for cp in range(0x0660, 0x066A)
) | frozenset(chr(cp) for cp in range(0x06F0, 0x06FA))

_ARABIC_BLOCKS = (
    (0x0600, 0x06FF),
    (0x0750, 0x077F),
    (0x08A0, 0x08FF),
    (0xFB50, 0xFDFF),
    (0xFE70, 0xFEFF),
)


def _load_table() -> tuple[str, dict[str, str], dict[str, str]]:
    """Parse data/buckwalter.tsv into (version, char->category, char->symbol);
    the version is the word after "version" in the header comment."""
    lines = _tsv.packaged("buckwalter.tsv")
    header = lines[0] if lines and lines[0].startswith("#") else ""
    words = header.partition("version")[2].split()
    version = words[0].rstrip(",") if words else ""
    categories: dict[str, str] = {}
    to_symbol: dict[str, str] = {}
    for _, (cp_hex, symbol, category) in _tsv.rows(lines, 3):
        char = chr(int(cp_hex, 16))
        categories[char] = category
        to_symbol[char] = symbol
    return version or "unversioned", categories, to_symbol


TABLE_VERSION, _CATEGORY, _AR2BW = _load_table()
_BW2AR = {symbol: char for char, symbol in _AR2BW.items()}

ARABIC_LETTERS = frozenset(c for c, cat in _CATEGORY.items() if cat == "letter")


def _in_arabic_block(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _ARABIC_BLOCKS)


@dataclass(frozen=True)
class DiacriticSet:
    """Marks attached to one base letter: at most one vowel, plus shaddah."""

    vowel: str | None = None
    shaddah: bool = False

    def __post_init__(self):
        if self.vowel is not None and self.vowel not in VOWEL_NAMES:
            raise ValueError(f"unknown vowel mark {self.vowel!r}")

    def is_empty(self) -> bool:
        return self.vowel is None and not self.shaddah

    def codepoints(self) -> str:
        """Marks in canonical (combining-class) order: vowel, shaddah, sukun last."""
        out = []
        if self.vowel is not None and self.vowel != "sukun":
            out.append(_CODEPOINT_BY_VOWEL[self.vowel])
        if self.shaddah:
            out.append(SHADDAH)
        if self.vowel == "sukun":
            out.append(_CODEPOINT_BY_VOWEL["sukun"])
        return "".join(out)


@dataclass(frozen=True)
class Position:
    base: str
    marks: DiacriticSet = field(default_factory=DiacriticSet)


@dataclass(frozen=True)
class SkeletonWord:
    """A token as (base letter, diacritic set) pairs; recompose() is lossless
    with respect to the NFC form of the source after tatweel removal."""

    positions: tuple[Position, ...]

    def bases(self) -> tuple[str, ...]:
        return tuple(p.base for p in self.positions)

    def recompose(self) -> str:
        return "".join(p.base + p.marks.codepoints() for p in self.positions)

    def __len__(self) -> int:
        return len(self.positions)


def decompose(text: str) -> SkeletonWord:
    """Split a single token into base letters with their attached marks.

    The input is NFC-normalized first and tatweel is dropped.  Raises
    LeadingDiacritic if a mark has no preceding base letter,
    ConflictingDiacritics on a second vowel (or second shaddah) for one
    base, and NonArabicLetter for anything outside the letter+diacritic
    alphabet (including unsupported combining marks such as dagger alif).
    """
    normalized = unicodedata.normalize("NFC", text)
    bases: list[str] = []
    vowels: list[str | None] = []
    shaddahs: list[bool] = []
    for ch in normalized:
        if ch == TATWEEL:
            continue
        category = _CATEGORY.get(ch)
        if category == "letter":
            bases.append(ch)
            vowels.append(None)
            shaddahs.append(False)
        elif category == "vowel":
            if not bases:
                raise LeadingDiacritic(f"diacritic {ch!r} precedes any base letter")
            if vowels[-1] is not None:
                raise ConflictingDiacritics(
                    f"second vowel mark {ch!r} on base {bases[-1]!r}"
                )
            vowels[-1] = _VOWEL_BY_CODEPOINT[ch]
        elif category == "shaddah":
            if not bases:
                raise LeadingDiacritic("shaddah precedes any base letter")
            if shaddahs[-1]:
                raise ConflictingDiacritics(f"repeated shaddah on base {bases[-1]!r}")
            shaddahs[-1] = True
        else:
            raise NonArabicLetter(f"unsupported codepoint {ch!r} (U+{ord(ch):04X})")
    return SkeletonWord(
        tuple(
            Position(b, DiacriticSet(v, s))
            for b, v, s in zip(bases, vowels, shaddahs)
        )
    )


@functools.cache
def _strip_kernel(
    diacritics: bool, shaddah: bool, digits: bool, unify_alif: bool, tatweel: bool
) -> tuple[tuple[str, str], ...]:
    """The ``(codepoint, replacement)`` pairs for one combination of the
    five table flags: every deleted codepoint with ``""``, and with
    ``unify_alif`` every alif variant with ALIF.  Each pair replaces one
    codepoint and no replacement holds a codepoint of another pair, so
    their order does not matter.  Callers pass bools, so the cache holds
    at most 32 kernels."""
    removed = {"vowel": diacritics, "mark": diacritics, "shaddah": shaddah,
               "tatweel": tatweel}
    deleted = {ch for ch, category in _CATEGORY.items() if removed.get(category)}
    if digits:
        deleted |= DIGITS
    pairs = [(ch, "") for ch in sorted(deleted)]
    if unify_alif:
        pairs.extend((ch, ALIF) for ch in sorted(ALIF_VARIANTS))
    return tuple(pairs)


def ar_strip(
    text: str,
    *,
    diacritics: bool = False,
    shaddah: bool = False,
    digits: bool = False,
    unify_alif: bool = False,
    special_chars: bool = False,
    tatweel: bool = False,
) -> str:
    """Remove/unify only the flagged categories; order is otherwise preserved.

    ``diacritics`` removes vowels, tanwin, sukun and other combining marks
    of the script table; ``shaddah`` and ``tatweel`` remove those
    characters; ``digits`` removes ASCII, Arabic-Indic and extended
    Arabic-Indic digits; ``unify_alif`` maps the alif variants to bare
    alif; ``special_chars`` removes Unicode punctuation and symbols.
    All-false flags are the identity.  Total on any string: unknown
    codepoints pass through untouched.

    The five table flags run as one ``str.replace`` per flagged codepoint
    that occurs in the text, from pairs built once per flag combination;
    a membership test skips the others.  On a long text that is about
    three times faster than one compiled character class (CPython 3.11,
    x86_64), and on one word about as fast.  ``special_chars`` is a
    per-character category test after them.
    """
    for old, new in _strip_kernel(
        bool(diacritics), bool(shaddah), bool(digits), bool(unify_alif), bool(tatweel)
    ):
        if old in text:
            text = text.replace(old, new)
    if special_chars:
        text = "".join(ch for ch in text if unicodedata.category(ch)[0] not in ("P", "S"))
    return text


@dataclass(frozen=True)
class TransliterationResult:
    """Converted text plus the advisory list of unmapped (index, char) pairs."""

    text: str
    unmapped: tuple[tuple[int, str], ...] = ()


def _transliterate(
    text: str, table: dict[str, str], reported: Callable[[str], bool]
) -> TransliterationResult:
    """Map each character through the table; one outside it passes
    through, and is reported when ``reported(ch)`` holds."""
    out: list[str] = []
    unmapped: list[tuple[int, str]] = []
    for i, ch in enumerate(text):
        symbol = table.get(ch)
        if symbol is None:
            if reported(ch):
                unmapped.append((i, ch))
            symbol = ch
        out.append(symbol)
    return TransliterationResult("".join(out), tuple(unmapped))


def to_buckwalter_report(text: str) -> TransliterationResult:
    """Arabic -> Buckwalter; unmapped Arabic-block codepoints pass through
    and are reported."""
    return _transliterate(text, _AR2BW, _in_arabic_block)


def from_buckwalter_report(text: str) -> TransliterationResult:
    """Buckwalter -> Arabic; non-whitespace symbols outside the table pass
    through and are reported."""
    return _transliterate(text, _BW2AR, lambda ch: not ch.isspace())


def to_buckwalter(text: str) -> str:
    return to_buckwalter_report(text).text


def from_buckwalter(text: str) -> str:
    return from_buckwalter_report(text).text

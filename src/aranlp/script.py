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
  ``StripOptions.tatweel`` removes it.
* ``StripOptions.special_chars`` covers Unicode punctuation and symbol
  categories (``P*``/``S*``); plain letters, digits, and combining marks
  are never touched by that flag.
* "alif unification" maps the variants {0623, 0625, 0622, 0671} to bare
  alif 0627; the variants are never deleted outright.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from importlib import resources

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
    """Parse data/buckwalter.tsv into (version, char->category, char->symbol)."""
    version = "unversioned"
    categories: dict[str, str] = {}
    to_symbol: dict[str, str] = {}
    text = resources.files("aranlp").joinpath("data/buckwalter.tsv").read_text("utf-8")
    for raw in text.splitlines():
        line = raw.strip("\n")
        if not line or line.startswith("#"):
            if "version" in line:
                version = line.split("version", 1)[1].strip().split()[0].rstrip(",") or version
            continue
        cp_hex, symbol, category = line.split("\t")
        char = chr(int(cp_hex, 16))
        categories[char] = category
        to_symbol[char] = symbol
    return version, categories, to_symbol


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


@dataclass(frozen=True)
class StripOptions:
    """Which character categories ar_strip removes or unifies.

    All-false options are the identity transformation.
    """

    diacritics: bool = False
    shaddah: bool = False
    digits: bool = False
    unify_alif: bool = False
    special_chars: bool = False
    tatweel: bool = False


def ar_strip(
    text: str,
    options: StripOptions | None = None,
    *,
    diacritics: bool = False,
    shaddah: bool = False,
    digits: bool = False,
    unify_alif: bool = False,
    special_chars: bool = False,
    tatweel: bool = False,
) -> str:
    """Remove/unify only the flagged categories; order is otherwise preserved.

    Total on any string: unknown codepoints pass through untouched.
    """
    if options is None:
        options = StripOptions(diacritics, shaddah, digits, unify_alif,
                               special_chars, tatweel)
    out: list[str] = []
    for ch in text:
        category = _CATEGORY.get(ch)
        if options.diacritics and category in ("vowel", "mark"):
            continue
        if options.shaddah and category == "shaddah":
            continue
        if options.tatweel and category == "tatweel":
            continue
        if options.digits and ch in DIGITS:
            continue
        if options.special_chars and unicodedata.category(ch)[0] in ("P", "S"):
            continue
        if options.unify_alif and ch in ALIF_VARIANTS:
            out.append(ALIF)
            continue
        out.append(ch)
    return "".join(out)


@dataclass(frozen=True)
class TransliterationResult:
    """Converted text plus the advisory list of unmapped (index, char) pairs."""

    text: str
    unmapped: tuple[tuple[int, str], ...] = ()


def to_buckwalter_report(text: str) -> TransliterationResult:
    """Arabic -> Buckwalter; unmapped Arabic-block codepoints pass through
    and are reported."""
    out: list[str] = []
    unmapped: list[tuple[int, str]] = []
    for i, ch in enumerate(text):
        symbol = _AR2BW.get(ch)
        if symbol is not None:
            out.append(symbol)
        else:
            if _in_arabic_block(ch):
                unmapped.append((i, ch))
            out.append(ch)
    return TransliterationResult("".join(out), tuple(unmapped))


def from_buckwalter_report(text: str) -> TransliterationResult:
    """Buckwalter -> Arabic; non-whitespace symbols outside the table pass
    through and are reported."""
    out: list[str] = []
    unmapped: list[tuple[int, str]] = []
    for i, ch in enumerate(text):
        char = _BW2AR.get(ch)
        if char is not None:
            out.append(char)
        else:
            if not ch.isspace():
                unmapped.append((i, ch))
            out.append(ch)
    return TransliterationResult("".join(out), tuple(unmapped))


def to_buckwalter(text: str) -> str:
    return to_buckwalter_report(text).text


def from_buckwalter(text: str) -> str:
    return from_buckwalter_report(text).text

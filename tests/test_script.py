import itertools
import random
import unicodedata

import pytest

import aranlp
from aranlp import script
from aranlp.errors import ConflictingDiacritics, LeadingDiacritic, NonArabicLetter
from aranlp.script import (
    ARABIC_LETTERS,
    ar_strip,
    decompose,
    from_buckwalter,
    from_buckwalter_report,
    to_buckwalter,
    to_buckwalter_report,
)

from _oracles import (
    LETTERS,
    VOWEL_CODEPOINTS,
    random_token,
    reference_ar_strip,
    reference_load_table,
)

STRIP_FLAGS = ("diacritics", "shaddah", "digits", "unify_alif", "special_chars", "tatweel")
TABLE_FLAGS = tuple(name for name in STRIP_FLAGS if name != "special_chars")
ALL_FLAG_SETTINGS = [
    dict(zip(STRIP_FLAGS, values)) for values in itertools.product((False, True), repeat=6)
]

# Character classes for random strip inputs; every class must be drawn.
STRIP_POOLS = {
    "letter": "".join(LETTERS),
    "alif variant": "".join(sorted(script.ALIF_VARIANTS)),
    "vowel": VOWEL_CODEPOINTS,
    "shaddah": script.SHADDAH,
    "dagger alif": "\u0670",
    "tatweel": script.TATWEEL,
    "ascii digit": "0123456789",
    "arabic-indic digit": "".join(chr(cp) for cp in range(0x0660, 0x066A)),
    "extended arabic-indic digit": "".join(chr(cp) for cp in range(0x06F0, 0x06FA)),
    "arabic punctuation": "\u060c\u061b\u061f\u066a\u066b\u066c\u06d4",
    "ascii punctuation": "!\"#%&'()*,-./:;?@[\\]_{}",
    "symbol": "$+<=>^`|~\u00a9\u00b0\u20ac\u060b\ufdfc",
    "whitespace": " \t\n\u00a0\u2003",
    "above U+FFFF": "\U00010000\U0001d7d8\U0001ee00\U0001f319\U0001f600",
}


class TestDecompose:
    def test_partially_diacritized_token(self):
        positions = decompose("فَعلَ").positions
        assert [(p.base, p.marks.vowel, p.marks.shaddah) for p in positions] == [
            ("ف", "fatha", False),
            ("ع", None, False),
            ("ل", "fatha", False),
        ]

    def test_bare_letters(self):
        positions = decompose("فعل").positions
        assert all(p.marks.is_empty() for p in positions)
        assert [p.base for p in positions] == ["ف", "ع", "ل"]

    def test_leading_diacritic_after_tatweel_removal(self):
        with pytest.raises(LeadingDiacritic):
            decompose("ـَفع")

    def test_non_arabic_codepoint(self):
        with pytest.raises(NonArabicLetter):
            decompose("فaع")

    def test_double_vowel_mark(self):
        with pytest.raises(ConflictingDiacritics):
            decompose("بَُ")

    def test_shaddah_with_vowel(self):
        (position,) = decompose("بَّ").positions
        assert position.marks.vowel == "fatha"
        assert position.marks.shaddah

    def test_recompose_identity_on_random_tokens(self):
        rng = random.Random(101)
        for _ in range(500):
            token = random_token(rng)
            assert decompose(token).recompose() == token

    def test_tatweel_is_dropped(self):
        assert decompose("فـعل").recompose() == "فعل"


class TestArStrip:
    def test_diacritics_flag(self):
        assert ar_strip("فَعَلَ", diacritics=True) == "فعل"

    def test_unify_alif_per_character(self):
        # oracle: apply the variant table position by position
        for variant in sorted(script.ALIF_VARIANTS):
            word = variant + "كل"
            expected = "".join(
                script.ALIF if ch in script.ALIF_VARIANTS else ch for ch in word
            )
            assert ar_strip(word, unify_alif=True) == expected
        assert ar_strip("أكل", unify_alif=True) == "اكل"

    def test_all_false_is_identity(self):
        for text in ("abc", "فَعَلَ", "a1!ـ", ""):
            assert ar_strip(text) == text

    def test_shaddah_flag_is_separate(self):
        word = "بَّ"  # NFC orders fatha before shaddah
        normalized = unicodedata.normalize("NFC", word)
        assert ar_strip(normalized, shaddah=True) == "بَ"
        assert ar_strip(normalized, diacritics=True) == "بّ"

    def test_digits_flag(self):
        assert ar_strip("ب1٢۳", digits=True) == "ب"

    def test_special_chars_flag(self):
        assert ar_strip("ب,؟!$ت", special_chars=True) == "بت"

    def test_tatweel_flag(self):
        assert ar_strip("فـعل", tatweel=True) == "فعل"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_idempotent_for_any_options(self, seed):
        rng = random.Random(seed)
        alphabet = LETTERS + list(VOWEL_CODEPOINTS) + list("abc12؟,.ـ٣")
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            flags = dict(zip(STRIP_FLAGS, (rng.random() < 0.5 for _ in range(6))))
            once = ar_strip(text, **flags)
            assert ar_strip(once, **flags) == once

    def test_matches_reference_on_random_text(self):
        rng = random.Random(606)
        classes = list(STRIP_POOLS)
        drawn = set()
        texts = []
        for _ in range(300):
            chars = []
            for _ in range(rng.randint(0, 24)):
                name = rng.choice(classes)
                drawn.add(name)
                chars.append(rng.choice(STRIP_POOLS[name]))
            texts.append("".join(chars))
        assert drawn == set(classes)
        for flags in ALL_FLAG_SETTINGS:
            for text in texts:
                assert ar_strip(text, **flags) == reference_ar_strip(text, **flags), flags

    def test_matches_reference_per_codepoint(self):
        chars = [
            chr(cp)
            for lo, hi in ((0x0000, 0x08FF), (0x2000, 0x206F), (0xFB50, 0xFEFF))
            for cp in range(lo, hi + 1)
        ]
        for flags in ALL_FLAG_SETTINGS:
            got = [ar_strip(ch, **flags) for ch in chars]
            assert got == [reference_ar_strip(ch, **flags) for ch in chars], flags

    def test_matches_reference_on_every_bmp_codepoint_at_once(self):
        # one string, so each table flag setting runs its kernel over every
        # BMP codepoint (lone surrogates included), a few astral ones, and
        # the characters that are special inside a regex character class
        text = "".join(map(chr, range(0x10000))) + (
            "\U00010000\U0001d7d8\U0001ee00\U0001f600\U0010ffff" + "[]\\^-"
        )
        for values in itertools.product((False, True), repeat=5):
            flags = dict(zip(TABLE_FLAGS, values))
            assert ar_strip(text, **flags) == reference_ar_strip(text, **flags), flags

    def test_matches_reference_on_long_multiline_text(self):
        # every codepoint a kernel may replace, between line breaks of each
        # kind, a lone surrogate and plain letters, repeated into long text
        table = sorted(set(script._CATEGORY) | script.DIGITS | script.ALIF_VARIANTS)
        rng = random.Random(2411)
        filler = LETTERS + ["\r\n", "\n", "\u2028", "\ud800", " ", "\t"]
        lines = []
        for _ in range(200):
            chars = table + rng.choices(filler, k=len(table))
            rng.shuffle(chars)
            lines.append("".join(chars))
        text = "\r\n".join(lines) + "\n" + "\u2028".join(lines[:3])
        assert len(text) > 20000
        for flags in ALL_FLAG_SETTINGS:
            assert ar_strip(text, **flags) == reference_ar_strip(text, **flags), flags

    def test_kernel_replaces_single_codepoints(self):
        for values in itertools.product((False, True), repeat=5):
            pairs = script._strip_kernel(*values)
            olds = [old for old, _ in pairs]
            assert len(olds) == len(set(olds))
            assert all(len(old) == 1 and new in ("", script.ALIF) for old, new in pairs)
            assert not set(olds) & {new for _, new in pairs}, values
            # remove_duplicates relies on the strip keeping every line break
            assert not set(olds) & {"\n", "\r", " "}, values

    def test_flags_are_keyword_only(self):
        with pytest.raises(TypeError):
            ar_strip("فَ", True)

    def test_strip_options_is_gone(self):
        assert not hasattr(script, "StripOptions")
        assert not hasattr(aranlp, "StripOptions")
        assert "StripOptions" not in aranlp.__all__

    def test_table_cache_keeps_one_table_per_truth_value(self):
        for value in (1, "yes", [0], 0, "", [], None):
            flags = dict.fromkeys(STRIP_FLAGS, value)
            assert ar_strip("أَبّـ1؟", **flags) == ar_strip("أَبّـ1؟", **{
                name: bool(value) for name in STRIP_FLAGS
            })
        assert script._strip_kernel.cache_info().currsize <= 32


class TestBuckwalter:
    def test_known_words(self):
        assert to_buckwalter("كتاب") == "ktAb"
        assert to_buckwalter("ذَهَبَ") == "*ahaba"
        assert to_buckwalter("") == ""

    def test_inverse_on_known_words(self):
        assert from_buckwalter("ktAb") == "كتاب"
        assert from_buckwalter("?") == "?"

    def test_injective_table(self):
        symbols = list(script._AR2BW.values())
        assert len(symbols) == len(set(symbols))

    def test_round_trip_per_codepoint(self):
        for char in script._AR2BW:
            assert from_buckwalter(to_buckwalter(char)) == char

    def test_round_trip_random_strings(self):
        rng = random.Random(77)
        alphabet = LETTERS + list(VOWEL_CODEPOINTS) + [script.SHADDAH, script.TATWEEL]
        for _ in range(2000):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
            assert from_buckwalter(to_buckwalter(s)) == s

    def test_unmapped_arabic_block_advisory(self):
        result = to_buckwalter_report("كتاب؟")
        assert result.text == "ktAb؟"
        assert result.unmapped == ((4, "؟"),)

    def test_reverse_advisory_on_unknown_symbol(self):
        result = from_buckwalter_report("k?b")
        assert result.text == "ك?ب"
        assert result.unmapped == ((1, "?"),)

    def test_whitespace_passes_silently(self):
        result = from_buckwalter_report("ktAb ktAb")
        assert result.unmapped == ()
        assert result.text == "كتاب كتاب"

    def test_table_version_parsed(self):
        assert script.TABLE_VERSION != "unversioned"

    def test_tables_equal_the_hand_written_loader(self):
        version, categories, to_symbol = reference_load_table()
        assert script.TABLE_VERSION == version == "1"
        assert script._CATEGORY == categories
        assert script._AR2BW == to_symbol
        assert list(script._CATEGORY) == list(categories)

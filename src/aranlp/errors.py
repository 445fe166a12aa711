"""Exception types shared across the toolkit.

Every library error derives from :class:`AranlpError` so callers (and the
CLI) can catch one base class.  Usage errors raised by argument parsing are
deliberately *not* part of this hierarchy; they map to exit code 2, while
``AranlpError`` maps to exit code 1.
"""

from __future__ import annotations


class AranlpError(Exception):
    """Base class for all data/validation errors raised by this package."""


# --- Arabic script -------------------------------------------------------

class LeadingDiacritic(AranlpError):
    """A diacritic occurred before any base letter in a token."""


class NonArabicLetter(AranlpError):
    """A codepoint is neither a supported Arabic base letter nor a diacritic."""


class ConflictingDiacritics(AranlpError):
    """A base letter carries two vowel marks (or a repeated mark)."""


# --- text utilities ------------------------------------------------------

class EmptySeparatorSet(AranlpError):
    """Sentence splitting was configured with no separators at all."""


class InvalidThreshold(AranlpError):
    """Similarity threshold is negative or not a finite number."""


# --- tabular resources ---------------------------------------------------

class MalformedRow(AranlpError):
    """A resource file row does not match the documented format."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DuplicateExactRow(AranlpError):
    """The same dictionary solution appears more than once."""


class EmptyDictionary(AranlpError):
    """A dictionary file contains no data rows."""


class UnknownLanguageCode(AranlpError):
    """A language code is not a plausible ISO-style code."""


class DuplicateSeed(AranlpError):
    """The same term was passed twice in one seed/term set."""


class UnknownEntityType(AranlpError):
    """A gazetteer or span file names a type outside the configured set."""


# --- pluggable components ------------------------------------------------

class TaggerFailure(AranlpError):
    """A classifier implementation raised or returned an invalid matrix."""


class VerifierFailure(AranlpError):
    """A sense verifier raised or returned ill-formed probabilities."""


class EmptyCandidates(AranlpError):
    """Sense selection was called with no candidate pairs."""


# --- numeric utilities ---------------------------------------------------

class EmptyInput(AranlpError):
    """An aggregate operation received no elements."""


class InvalidWeightedScore(AranlpError, ValueError):
    """A (score, weight) pair has a non-finite score or weight, or a weight <= 0."""


class DimensionMismatch(AranlpError):
    """Vectors of different dimensions were combined."""


class ZeroVector(AranlpError):
    """Cosine similarity is undefined for a zero vector."""


class EmptySentence(AranlpError):
    """A sentence produced no tokens to embed."""


class LengthMismatch(AranlpError):
    """Two parallel score lists have different lengths."""


class DegenerateConstantInput(AranlpError):
    """Rank correlation is undefined when one list is constant."""


class MisalignedCorpus(AranlpError):
    """Gold and predicted corpora differ in sentences or token counts."""


# --- resources / CLI -----------------------------------------------------

class ResourceMissing(AranlpError):
    """A registered resource file does not exist at its expected path."""

    def __init__(self, name: str, path):
        super().__init__(
            f"resource {name!r} not found at {path}; place the file there or "
            f"run `aranlp resources install <archive>`"
        )
        self.name = name
        self.path = path


class BadArchive(AranlpError):
    """An archive could not be read as a zip or tar file."""


class PathEscape(AranlpError):
    """An archive entry would be extracted outside the resource root."""


class SeedNotInGraphWarning(UserWarning):
    """Advisory: a seed term is absent from the synonymy graph."""

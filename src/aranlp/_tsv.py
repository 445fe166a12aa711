"""Reader for the toolkit's line-oriented resource files.

Every resource file, flat or block, follows the same rules:

- a line whose first character (column 0) is ``#`` is a comment;
- a blank line (empty or whitespace only) carries no data;
- fields are separated by single tab characters;
- a line ends at ``\\n`` only, after universal-newline decoding, so
  U+2028, U+0085, form feed and the like are data; a given line's
  trailing ``\\n`` is ignored;
- line numbers in errors are physical and 1-based: comment and blank
  lines are counted.

A flat file (:func:`rows`) holds one record per data line.  A block file
(:func:`blocks`) holds one record per block: a run of data lines ended
by a blank line or the end of the file.  A comment line inside or
between blocks neither ends nor starts a block.  A block of the lone
line ``EMPTY_BLOCK`` (``-``) is an empty record, so a record with no
lines survives a round trip; :func:`format_blocks` is the one writer of
block files and applies the same rule.  A row with the wrong number of
fields raises :class:`MalformedRow`; checks on the fields themselves
belong to each loader.

Loaders that build many container objects run under
:func:`collector_paused`.  While a file loads, the heap only grows, so
the cyclic garbage collector would otherwise run full collections that
walk the half-built resource again and again and free nothing.  The
collector is process-wide: the pause covers every thread for as long as
the loader runs, and a loader re-enables only what it disabled, so a
caller that turned the collector off finds it off afterwards.  Nothing
here calls ``gc.collect()`` or ``gc.freeze()``; the objects a loader
allocated are walked by the first collections after it returns.

Loaders also return equal field values as one shared object for the
duration of one load: the dictionary's roots, frequencies and
wordform-equal lemmas, the gazetteer's type names and the graph's
terms.  Each load builds its own tables, one entry per distinct value,
and drops them when it returns, so two loads share none of these.  The
dictionary's pos tags are the one exception: every load hands out the
strings of the packaged tag map, which is parsed once per process.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import unicodedata
from collections.abc import Collection, Iterable, Iterator
from importlib import resources
from pathlib import Path

from .errors import MalformedRow

# The lone line of a block file's block for an empty record.
EMPTY_BLOCK = "-"


def split_lines(text: str) -> list[str]:
    """The lines of text, each ended by ``\\n``; a final one adds no empty line."""
    lines = text.split("\n")
    return lines if lines[-1] else lines[:-1]


def packaged(name: str) -> list[str]:
    """The lines of a data file shipped in the package."""
    return split_lines(resources.files("aranlp").joinpath(f"data/{name}").read_text("utf-8"))


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic garbage collector for the body, if it is on, and
    turn it back on afterwards, also when the body raises.  Nested pauses
    leave it to the outermost one.  Serves as a decorator too:
    ``@collector_paused()``."""
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        yield
    finally:
        if paused:
            gc.enable()


def _lines(source: str | Path | Iterable[str]) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        return split_lines(Path(source).read_text("utf-8"))
    return source


def nfc_lines(source: str | Path | Iterable[str]) -> Iterator[str]:
    """The lines of ``source`` (a path or an iterable of lines), each in
    NFC.  Tab, the line breaks, ``#`` and white space are starters that
    never compose with a neighbour, and NFC maps white space to white
    space, so :func:`rows` over these lines yields, once stripped, the
    same fields as normalizing each stripped field of the raw line."""
    return map(functools.partial(unicodedata.normalize, "NFC"), _lines(source))


def fields(
    lineno: int, line: str, width: int | Collection[int], layout: str | None = None
) -> list[str]:
    """Split a data line at tabs into ``width`` fields (or one of the
    counts in ``width``).  Otherwise raise MalformedRow reading `expected
    N tab-separated fields, got M`, or `expected <layout>` when given."""
    parts = line.split("\t")
    if len(parts) == width or (not isinstance(width, int) and len(parts) in width):
        return parts
    if layout is None:
        counts = " or ".join(map(str, [width] if isinstance(width, int) else sorted(width)))
        layout = f"{counts} tab-separated fields, got {len(parts)}"
    raise MalformedRow(lineno, f"expected {layout}")


def span_row(lineno: int, line: str, width: int, make):
    """A `start<TAB>end<TAB>...` line of ``width`` fields as
    ``make(start, end, *other fields stripped)``.  Non-integer offsets, or
    a ValueError from ``make``, raise MalformedRow."""
    start, end, *rest = fields(lineno, line, width)
    try:
        start, end = int(start), int(end)
    except ValueError:
        raise MalformedRow(lineno, "start and end must be integers") from None
    try:
        return make(start, end, *(field.strip() for field in rest))
    except ValueError as exc:
        raise MalformedRow(lineno, str(exc)) from None


def rows(
    source: str | Path | Iterable[str],
    width: int | Collection[int],
    layout: str | None = None,
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, fields)`` for every data line of a flat file.

    ``source`` is a path, read as UTF-8, or an iterable of lines; fields
    are checked as in :func:`fields`.
    """
    for lineno, line in enumerate(_lines(source), start=1):
        line = line.rstrip("\n")
        if line.strip() and not line.startswith("#"):
            yield lineno, fields(lineno, line, width, layout)


def blocks(source: str | Path | Iterable[str]) -> Iterator[list[tuple[int, str]]]:
    """Yield every block of a block file as its ``(lineno, line)`` pairs;
    the block of the lone line EMPTY_BLOCK comes out as ``[]``."""
    block: list[tuple[int, str]] = []
    # A blank line after the last one ends an unterminated last block.
    for lineno, line in enumerate(itertools.chain(_lines(source), [""]), start=1):
        line = line.rstrip("\n")
        if line.startswith("#"):
            continue
        if line.strip():
            block.append((lineno, line))
        elif block:
            yield [] if len(block) == 1 and block[0][1].strip() == EMPTY_BLOCK else block
            block = []


def format_blocks(records: Iterable[str]) -> str:
    """Inverse of :func:`blocks`: the records (each its lines joined by
    ``\\n``) separated by one blank line, an empty record written as
    EMPTY_BLOCK, and a final line break unless there are no records."""
    text = "\n\n".join(record or EMPTY_BLOCK for record in records)
    return text + "\n" if text else ""

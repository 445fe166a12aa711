"""Reader for the toolkit's line-oriented resource files.

Every resource file, flat or block, follows the same rules:

- a line whose first character (column 0) is ``#`` is a comment;
- a blank line (empty or whitespace only) carries no data;
- fields are separated by single tab characters;
- a trailing ``\\n`` on a line is ignored;
- line numbers in errors are physical and 1-based: comment and blank
  lines are counted.

A flat file (:func:`rows`) holds one record per data line.  A block file
(:func:`blocks`) holds one record per block: a run of data lines ended
by a blank line or the end of the file.  A comment line inside or
between blocks neither ends nor starts a block.  A row with the wrong
number of fields raises :class:`MalformedRow`; checks on the fields
themselves belong to each loader.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator
from importlib import resources
from pathlib import Path

from .errors import MalformedRow


def packaged(name: str) -> list[str]:
    """The lines of a data file shipped in the package."""
    return resources.files("aranlp").joinpath(f"data/{name}").read_text("utf-8").splitlines()


def _lines(source: str | Path | Iterable[str]) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        return Path(source).read_text("utf-8").splitlines()
    return source


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
    """Yield every block of a block file as its ``(lineno, line)`` pairs."""
    block: list[tuple[int, str]] = []
    for lineno, line in enumerate(_lines(source), start=1):
        line = line.rstrip("\n")
        if line.startswith("#"):
            continue
        if line.strip():
            block.append((lineno, line))
        elif block:
            yield block
            block = []
    if block:
        yield block

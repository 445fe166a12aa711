"""Resource directory convention and lazy, load-once resource access.

Resources (dictionaries, gazetteers, inventories, pair files) live under
one root directory: ``./resources`` by default, overridable with the
``ARANLP_RESOURCES`` environment variable.  Each resource loads at most
once per :class:`ResourceRegistry`; concurrent first users of a registry
block until the loader finishes.  :func:`load` builds a fresh registry on
every call, so each call without a path parses the file again.
Installation happens from local archives only, and reads at most
MAX_ARCHIVE_BYTES of files from one.
"""

from __future__ import annotations

import os
import secrets
import tarfile
import threading
import zipfile
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import NamedTuple

from .errors import BadArchive, PathEscape, ResourceMissing
from .morphology import load_dictionary
from .ner import load_gazetteer
from .synonymy import build_graph
from .wsd import load_inventory

ENV_VAR = "ARANLP_RESOURCES"
DEFAULT_ROOT = "resources"

# The most bytes install reads from one archive: the sum of the sizes its
# regular files declare (1 GiB).  A larger archive is rejected before any
# member is read, since install holds every file in memory until it writes.
MAX_ARCHIVE_BYTES = 1 << 30

RESOURCE_PATHS: dict[str, str] = {
    "morph_dictionary": "morphology/dictionary.tsv",
    "gazetteer": "ner/gazetteer.tsv",
    "sense_inventory": "wsd/inventory.tsv",
    "synonym_pairs": "synonymy/pairs.tsv",
}


_LOADERS = {
    "morph_dictionary": load_dictionary,
    "gazetteer": load_gazetteer,
    "sense_inventory": load_inventory,
    "synonym_pairs": build_graph,
}


class ResourceStatus(NamedTuple):
    name: str
    path: Path
    exists: bool  # the file is there
    loaded: bool  # the registry has parsed it

    def render_text(self) -> str:
        return f"{self.name}\t{self.path}\t{'present' if self.exists else 'missing'}"


class ResourceRegistry:
    """Lazy resource loader rooted at one directory."""

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = os.environ.get(ENV_VAR, DEFAULT_ROOT)
        self.root = Path(root)
        self._cache: dict[str, object] = {}
        self._lock = threading.Lock()

    def path(self, name: str) -> Path:
        if name not in RESOURCE_PATHS:
            raise KeyError(f"unknown resource {name!r}; known: {sorted(RESOURCE_PATHS)}")
        return self.root / RESOURCE_PATHS[name]

    def is_loaded(self, name: str) -> bool:
        return name in self._cache

    def load(self, name: str):
        """The parsed resource; parsing runs exactly once per registry."""
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        with self._lock:
            cached = self._cache.get(name)
            if cached is not None:
                return cached
            path = self.path(name)
            if not path.is_file():
                raise ResourceMissing(name, path)
            loaded = _LOADERS[name](path)
            self._cache[name] = loaded
            return loaded

    def status(self) -> list[ResourceStatus]:
        """The status of every known resource, by name."""
        return [ResourceStatus(name, self.path(name), self.path(name).is_file(),
                               self.is_loaded(name)) for name in sorted(RESOURCE_PATHS)]


def load(name: str, path: str | Path | None = None):
    """The named resource parsed from path when one is given, else from
    the default registry root."""
    if path:
        return _LOADERS[name](path)
    return ResourceRegistry().load(name)


@dataclass
class InstallSummary:
    """Directory diff of one archive installation."""

    added: list[str] = field(default_factory=list)
    replaced: list[str] = field(default_factory=list)
    unchanged: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.added) + len(self.replaced) + len(self.unchanged)

    def render(self) -> str:
        lines = [
            f"installed {self.total} file(s): "
            f"{len(self.added)} added, {len(self.replaced)} replaced, "
            f"{len(self.unchanged)} unchanged"
        ]
        for label, names in (("A", self.added), ("R", self.replaced), ("=", self.unchanged)):
            lines.extend(f"{label} {name}" for name in names)
        return "\n".join(lines)


def _check_member_path(name: str) -> PurePosixPath:
    path = PurePosixPath(name)
    if path.is_absolute() or any(part in ("..", "") for part in path.parts) or "\\" in name:
        raise PathEscape(f"archive entry {name!r} would escape the resource root")
    return path


def _check_total_size(archive: Path, sizes: Iterable[int]) -> None:
    total = sum(sizes)
    if total > MAX_ARCHIVE_BYTES:
        raise BadArchive(
            f"{archive} declares {total} bytes of files, more than the "
            f"{MAX_ARCHIVE_BYTES}-byte limit (resources.MAX_ARCHIVE_BYTES)"
        )


def _archive_files(archive: Path) -> list[tuple[PurePosixPath, bytes]]:
    """All (relative path, bytes) regular-file entries of a zip/tar; reads
    the whole archive up front so nothing is written from a corrupt one.
    The sizes the entries declare are summed and checked against
    MAX_ARCHIVE_BYTES first; a member's read returns at most its declared
    size."""
    files: list[tuple[PurePosixPath, bytes]] = []
    if zipfile.is_zipfile(archive):
        try:
            with zipfile.ZipFile(archive) as zf:
                infos = [info for info in zf.infolist() if not info.is_dir()]
                _check_total_size(archive, (info.file_size for info in infos))
                for info in infos:
                    files.append((_check_member_path(info.filename), zf.read(info)))
        except zipfile.BadZipFile as exc:
            raise BadArchive(f"{archive} is not a readable zip archive") from exc
        return files
    try:
        with tarfile.open(archive) as tf:
            members = [member for member in tf.getmembers() if member.isfile()]
            _check_total_size(archive, (member.size for member in members))
            for member in members:
                handle = tf.extractfile(member)
                if handle is None:
                    continue
                files.append((_check_member_path(member.name), handle.read()))
    except tarfile.TarError as exc:
        raise BadArchive(f"{archive} is neither a readable zip nor tar archive") from exc
    return files


def _replace_file(target: Path, data: bytes) -> None:
    """Write data to a new temporary file beside target, then rename it
    over target, so a failed write leaves the old file whole and no
    temporary file behind."""
    temp = target.with_name(f".{target.name}.{secrets.token_hex(4)}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(temp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def install(archive: str | Path, root: str | Path | None = None) -> InstallSummary:
    """Unpack a local resource archive into the registry root.

    Re-installation is an idempotent overwrite; the summary reports which
    files were added, replaced, or byte-identical.  Entries that would
    land outside the root are rejected, and so is an archive whose
    regular files declare more than MAX_ARCHIVE_BYTES in all; both before
    any file is written.  Each file is written beside its target and
    renamed into place, so a failed write leaves the old file whole.
    """
    archive = Path(archive)
    if not archive.is_file():
        raise BadArchive(f"archive {archive} does not exist")
    registry = ResourceRegistry(root)
    summary = InstallSummary()
    for relative, data in _archive_files(archive):  # fully read before any write
        target = registry.root / relative
        if target.exists():
            if target.read_bytes() == data:
                summary.unchanged.append(str(relative))
                continue
            summary.replaced.append(str(relative))
        else:
            summary.added.append(str(relative))
        target.parent.mkdir(parents=True, exist_ok=True)
        _replace_file(target, data)
    return summary

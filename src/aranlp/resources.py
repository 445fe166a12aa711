"""Resource directory convention and lazy, load-once resource access.

Resources (dictionaries, gazetteers, inventories, pair files) live under
one root directory: ``./resources`` by default, overridable with the
``ARANLP_RESOURCES`` environment variable.  Each resource loads at most
once per process; concurrent first users block until the loader finishes.
Installation happens from local archives only.
"""

from __future__ import annotations

import os
import tarfile
import threading
import zipfile
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from .errors import BadArchive, PathEscape, ResourceMissing

ENV_VAR = "ARANLP_RESOURCES"
DEFAULT_ROOT = "resources"

RESOURCE_PATHS: dict[str, str] = {
    "morph_dictionary": "morphology/dictionary.tsv",
    "gazetteer": "ner/gazetteer.tsv",
    "sense_inventory": "wsd/inventory.tsv",
    "synonym_pairs": "synonymy/pairs.tsv",
}


def _loaders():
    # Imported here so the registry stays importable from every module.
    from .morphology import load_dictionary
    from .ner import load_gazetteer
    from .synonymy import build_graph
    from .wsd import load_inventory

    return {
        "morph_dictionary": load_dictionary,
        "gazetteer": load_gazetteer,
        "sense_inventory": load_inventory,
        "synonym_pairs": build_graph,
    }


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
            loaded = _loaders()[name](path)
            self._cache[name] = loaded
            return loaded

    def status(self) -> list[tuple[str, Path, bool, bool]]:
        """(name, path, file exists, loaded) for every known resource."""
        return [
            (name, self.path(name), self.path(name).is_file(), self.is_loaded(name))
            for name in sorted(RESOURCE_PATHS)
        ]


def load(name: str, path: str | Path | None = None):
    """The named resource parsed from path when one is given, else from
    the default registry root."""
    if path:
        return _loaders()[name](path)
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


def _archive_files(archive: Path) -> list[tuple[PurePosixPath, bytes]]:
    """All (relative path, bytes) regular-file entries of a zip/tar; reads
    the whole archive up front so nothing is written from a corrupt one."""
    files: list[tuple[PurePosixPath, bytes]] = []
    if zipfile.is_zipfile(archive):
        try:
            with zipfile.ZipFile(archive) as zf:
                for info in zf.infolist():
                    if info.is_dir():
                        continue
                    files.append((_check_member_path(info.filename), zf.read(info)))
        except zipfile.BadZipFile as exc:
            raise BadArchive(f"{archive} is not a readable zip archive") from exc
        return files
    try:
        with tarfile.open(archive) as tf:
            for member in tf.getmembers():
                if not member.isfile():
                    continue
                handle = tf.extractfile(member)
                if handle is None:
                    continue
                files.append((_check_member_path(member.name), handle.read()))
    except tarfile.TarError as exc:
        raise BadArchive(f"{archive} is neither a readable zip nor tar archive") from exc
    return files


def install(archive: str | Path, root: str | Path | None = None) -> InstallSummary:
    """Unpack a local resource archive into the registry root.

    Re-installation is an idempotent overwrite; the summary reports which
    files were added, replaced, or byte-identical.  Entries that would
    land outside the root are rejected.
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
        target.write_bytes(data)
    return summary

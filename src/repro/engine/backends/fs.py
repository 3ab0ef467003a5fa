"""Filesystem store backend: a sharded directory of JSON entries.

The original (and default) layout, unchanged from the pre-backend
``ResultStore``: entries live at ``<root>/<key[:2]>/<key>.json``, are
written atomically (tmp + rename) so concurrent engine processes
sharing one cache directory never observe a torn entry, and corrupt
entries are preserved under ``<root>/quarantine/`` for inspection.
Existing cache directories keep working byte-for-byte.

:func:`atomic_write` is also how the service's job store, the lease
table and the coordinator checkpoint persist their records.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterator

from repro.engine.backends.base import StoreBackend, StoreStats

#: Subdirectory of the store root where corrupt entries are preserved.
QUARANTINE_DIR = "quarantine"

#: Name prefix of the temporary file :func:`atomic_write` renames into
#: place.  A writer killed between close and rename leaves one behind.
TEMP_PREFIX = ".tmp-"


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temporary file and a rename in
    the same directory, so readers see the old file or the new one,
    never a torn one."""
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=TEMP_PREFIX, suffix=path.suffix
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass  # never existed, or raced with cleanup
        raise


def record_files(root: Path, pattern: str = "*.json") -> Iterator[Path]:
    """Files under ``root`` matching ``pattern``, without the temporary
    files of interrupted atomic writes (``Path.glob`` matches
    dot-files)."""
    return (
        path for path in root.glob(pattern)
        if not path.name.startswith(TEMP_PREFIX)
    )


def remove_temp_files(root: Path) -> None:
    """Delete the temporary files interrupted atomic writes left in
    ``root``.  Only for recovery, while nothing writes there."""
    for path in root.glob(TEMP_PREFIX + "*"):
        try:
            path.unlink()
        except OSError:
            pass


class FsBackend(StoreBackend):
    """Entry blobs as ``<root>/<key[:2]>/<key>.json`` files."""

    scheme = "fs"

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def location(self) -> str:
        return f"fs:{self.root}"

    def read(self, key: str) -> "bytes | None":
        try:
            return self.path(key).read_bytes()
        except OSError:
            return None

    def write(self, key: str, blob: bytes) -> None:
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, blob)

    def quarantine(self, key: str) -> None:
        path = self.path(key)
        target = self.root / QUARANTINE_DIR / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass  # already gone (concurrent reader quarantined it)

    def contains(self, key: str) -> bool:
        return self.path(key).exists()

    def _entries(self) -> Iterator[Path]:
        return (
            path for path in record_files(self.root, "*/*.json")
            if path.parent.name != QUARANTINE_DIR
        )

    def count(self) -> int:
        return sum(1 for _path in self._entries())

    def stats(self) -> StoreStats:
        entries = 0
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return StoreStats(entries=entries, total_bytes=total)

    def prune(self) -> StoreStats:
        removed = 0
        freed = 0
        for path in self.root.glob("*/*.json"):
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
        for shard in self.root.glob("*"):
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass  # not empty (concurrent writer) — keep it
        return StoreStats(entries=removed, total_bytes=freed)

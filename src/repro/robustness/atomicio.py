"""Crash-safe file writes: temp + fsync + rename, with rotating backups.

A Cable session spans sittings, so the file that persists it must
survive the process dying at any instant of a save.  The discipline:

1. the new content is written to a temporary file *in the same
   directory* (so the final rename cannot cross filesystems), flushed,
   and fsynced;
2. the current file, if any, is linked (or copied) to ``<path>.bak``
   (older backups shift to ``<path>.bak2``, ``<path>.bak3``, ...), so
   ``path`` itself never goes missing;
3. the temp file is atomically renamed over ``path`` and the directory
   entry is fsynced.

A crash before step 3 leaves the previous file (or its backup) intact;
a crash during rotation leaves the previous content reachable as a
backup.  :func:`backup_paths` enumerates the fallback chain newest
first for loaders that verify-and-recover.

Concurrent savers are safe too: each write stages through a uniquely
named temp file (pid + thread id + a process-wide counter), so two
threads — or two processes — racing through a save of the same path
never share a staging file; the last rename wins and both outcomes are
complete, checksum-valid documents.  Backup rotation tolerates a rival
rotating the same chain concurrently (a source vanishing between the
existence check and the rename is the rival's rotation, not an error).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shutil
import threading
from collections.abc import Callable
from pathlib import Path

#: Optional fault-injection seam: called with the final path after every
#: completed atomic write.  ``None`` in production; the chaos layer
#: (:mod:`repro.robustness.chaos`) installs a hook that corrupts a
#: deterministic fraction of writes so the checksum/backup recovery path
#: stays honest.
POST_WRITE_HOOK: Callable[[Path], None] | None = None


def checksum_text(text: str) -> str:
    """Hex SHA-256 of ``text`` (UTF-8) — the embedded content checksum."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def backup_paths(path: str | Path, backups: int = 2) -> list[Path]:
    """The backup chain for ``path``, newest first (whether or not they
    exist)."""
    path = Path(path)
    out = [path.with_name(path.name + ".bak")]
    for i in range(2, backups + 1):
        out.append(path.with_name(f"{path.name}.bak{i}"))
    return out


def _fsync_directory(directory: Path) -> None:
    # Durability of the rename itself; best-effort where the platform
    # does not support opening directories.
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def rotate_backups(path: str | Path, backups: int = 2) -> None:
    """Shift ``path`` into the head of its backup chain (if it exists).

    The head backup is a hard link to (or, where links are unsupported,
    a copy of) the current file, never a rename of it, so ``path`` exists
    at every moment and a concurrent loader cannot find it missing.

    Tolerates a concurrent rotation of the same chain: a source that
    disappears between the existence check and the rename was simply
    rotated (or promoted) by the rival first.
    """
    path = Path(path)
    if backups < 1 or not path.exists():
        return
    chain = backup_paths(path, backups)
    for i in range(len(chain) - 1, 0, -1):
        src, dst = chain[i - 1], chain[i]
        if src.exists():
            try:
                os.replace(src, dst)
            except FileNotFoundError:
                continue
    staging = _staging_path(chain[0])
    try:
        try:
            os.link(path, staging)
        except FileNotFoundError:
            return
        except OSError:  # a filesystem without hard links
            shutil.copyfile(path, staging)
        os.replace(staging, chain[0])
    finally:
        # Also taken when a rival already linked the same file into the
        # head: renaming one link of a file over another does nothing.
        staging.unlink(missing_ok=True)


#: Process-wide staging-file serial; with pid + thread id it makes every
#: in-flight write's temp name unique, so concurrent saves never clobber
#: each other's staging file.
_STAGING_SERIAL = itertools.count()


def _staging_path(path: Path) -> Path:
    return path.with_name(
        f"{path.name}.tmp.{os.getpid()}.{threading.get_native_id()}."
        f"{next(_STAGING_SERIAL)}"
    )


def atomic_write_text(path: str | Path, text: str, backups: int = 2) -> None:
    """Durably replace ``path``'s content with ``text``.

    The previous content (when any) survives as ``<path>.bak``; up to
    ``backups`` generations are kept.  ``backups=0`` skips rotation.
    Safe under concurrent writers to the same path: each racer stages
    through its own uniquely named temp file, so the survivor is always
    one racer's complete document, never an interleaving.
    """
    path = Path(path)
    tmp = _staging_path(path)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    rotate_backups(path, backups)
    os.replace(tmp, path)
    _fsync_directory(path.parent)
    if POST_WRITE_HOOK is not None:
        POST_WRITE_HOOK(path)

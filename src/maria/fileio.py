"""Atomic file writes, shared by datasets, checkpoints and run metrics."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[BinaryIO]:
    """Binary handle on a temp file beside ``path``. The file replaces
    ``path`` only after the body returns and its bytes reach the disk, so a
    write that fails leaves the old file as it was and no temp file behind.
    On POSIX the directory is synced after the rename, so the new entry
    survives a power loss too."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        if os.name == "posix":
            dir_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

"""Crash-safe file replacement: a crash or failure mid-write leaves the
previous file byte-identical and no temp file behind."""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path


def write_atomic(path, *chunks) -> None:
    """Write the bytes-like chunks to a temp file in path's directory (mode
    0600, from mkstemp), fsync it and rename it over path."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise

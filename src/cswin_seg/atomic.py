"""Crash-safe file replacement: a crash or failure mid-write leaves the
previous file byte-identical and no temp file behind."""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path
from typing import Iterable


def write_atomic(path, chunks: Iterable) -> None:
    """Write the bytes-like chunks, one at a time, to a temp file in path's
    directory, fsync it and rename it over path.  The file gets the mode a
    plain ``open`` would create, 0o666 less the umask."""
    path = Path(path)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as f:
            os.fchmod(f.fileno(), 0o666 & ~umask)
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise

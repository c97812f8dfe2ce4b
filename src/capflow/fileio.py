"""Atomic text output: every file capflow writes goes through `atomic_write`."""

from __future__ import annotations

import os
import tempfile
from typing import Iterable

# The process umask, read once: os.umask can only read it by setting it, which
# would race with writers on other threads.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def atomic_write(path: str, lines: Iterable[str]) -> None:
    """Write `lines`, each followed by a newline, to a temp file beside `path`,
    then rename it over `path`.  The file gets mode 0o666 less the umask, as
    `open` would give it.  On any failure, including one raised while `lines`
    is produced, the temp file is removed and `path` is untouched."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

"""Atomic file writes: every artifact is either its old bytes or its new ones.

`atomic_write(path)` opens a temporary file next to `path` and renames it
over `path` only when the `with` block ends without an exception; otherwise
the temporary file is removed and `path` keeps its previous content. A run
that dies mid-write therefore never leaves a truncated artifact for the next
run to mistake for a complete one. A target that is a symlink, device or pipe
(say `--out /dev/stdout`) is written through as a plain open would write it,
since renaming over it would replace the link or the device node itself.
"""

from __future__ import annotations

import itertools
import os
import stat
from contextlib import contextmanager
from pathlib import Path

_temp_ids = itertools.count()


def _create_temp(path: Path) -> tuple[Path, int]:
    """A new file beside `path`, created as a plain open(path, "w") would
    create one: mode 0666 less the umask (mkstemp would give 0600)."""
    while True:
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_temp_ids)}.tmp")
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue


def _replaceable(path: Path) -> bool:
    try:
        return stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        return True


@contextmanager
def atomic_write(path, mode: str = "w", encoding: str | None = "utf-8"):
    """Yield a file object whose content replaces `path` on a clean exit."""
    path = Path(path)
    encoding = None if "b" in mode else encoding
    if not _replaceable(path):
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    tmp, fd = _create_temp(path)
    try:
        with open(fd, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise

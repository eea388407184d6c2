"""Atomic file writes: every artifact is either its old bytes or its new ones.

`atomic_write(path)` opens a temporary file next to `path` and renames it
over `path` only when the `with` block ends without an exception; otherwise
the temporary file is removed and `path` keeps its previous content. A run
that dies mid-write therefore never leaves a truncated artifact for the next
run to mistake for a complete one. A target that is a symlink, device or pipe
(say `--out /dev/stdout`) is written through as a plain open would write it,
since renaming over it would replace the link or the device node itself.

`write_jsonl` and `read_jsonl` are the one writer and the one reader of the
JSON-lines artifacts (prompts, descriptions, text datasets, fixtures);
`write_json` writes every JSON document, and `read_json` reads every one
that must be valid. Both readers check values with `errors._checked` and
name the file in every error: input that is not UTF-8 or not JSON is a
ParseError naming it (and the line in a JSON-lines file), and every
TextProbeError raised while `read_json` loads a document keeps its class and
names it too.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
from contextlib import contextmanager
from pathlib import Path

from .errors import InvalidConfig, ParseError, TextProbeError, _checked

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
        except OSError as exc:  # named by its target, not by the temporary file
            raise OSError(exc.errno, exc.strerror, str(path)) from None


def _replaceable(path: Path) -> bool:
    try:
        return stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        return True


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a file object whose content replaces `path` on a clean exit."""
    path = Path(path)
    encoding = None if "b" in mode else "utf-8"
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


def write_jsonl(path, records) -> None:
    """Write each record as one JSON line with sorted keys, atomically."""
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_json(path, doc, **dumps_options) -> None:
    """Write `doc` as `json.dumps(doc, **dumps_options)` and a newline, atomically."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, **dumps_options) + "\n")


def _parsed(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8 ({exc})") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ParseError(f"invalid JSON ({exc})") from exc


def read_json(path, load):
    """`load` applied to the JSON document in `path`. Invalid UTF-8 or JSON is
    a ParseError, and every TextProbeError, its own or one from `load`, is
    raised naming the file. No reference to the document is kept here, so
    `load` can let it go before it builds its result."""
    try:
        return load(_parsed(path))
    except TextProbeError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_jsonl(path, table: dict):
    """Yield (line number, record) for each non-blank line of a JSON-lines file.

    Each line is a JSON object checked by `_checked` against `table` (key ->
    (check, default), `...` for a required key), so a record holds exactly
    the table's keys. Each line is decoded on its own, so a line that is not
    UTF-8 is named like one that is not JSON, lacks a key, holds an unknown key
    or a value its check refuses: each raises ParseError naming file and line.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                record = _checked(json.loads(line), table)
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: line {lineno}: invalid UTF-8 ({exc})", lineno) from exc
            except ValueError as exc:  # as in read_json
                raise ParseError(f"{path}: line {lineno}: invalid JSON ({exc})", lineno) from exc
            except InvalidConfig as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}", lineno) from exc
            yield lineno, record

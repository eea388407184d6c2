"""Atomic file writes: every artifact is either its old bytes or its new ones.

`atomic_write(path)` opens a temporary file next to `path` and renames it
over `path` only when the `with` block ends without an exception; otherwise
the temporary file is removed and `path` keeps its previous content. A run
that dies mid-write therefore never leaves a truncated artifact for the next
run to mistake for a complete one. A target that is a symlink, device or pipe
(say `--out /dev/stdout`) is written through as a plain open would write it,
since renaming over it would replace the link or the device node itself.

`write_jsonl` and `read_jsonl` are the one writer and the one reader of the
JSON-lines artifacts (prompts, descriptions, text datasets, fixtures), and
`read_json` is the one reader of the JSON config documents (manifest, train
config, synthetic space, task profile, class file).
"""

from __future__ import annotations

import itertools
import json
import os
import stat
from contextlib import contextmanager
from pathlib import Path

from .errors import InvalidConfig, ParseError, config_number

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


def write_jsonl(path, records) -> None:
    """Write each record as one JSON line with sorted keys, atomically."""
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_json(path, load):
    """`load` applied to the JSON document in `path`. Invalid JSON, and an
    InvalidConfig from `load`, raise an error naming the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return load(doc)
    except InvalidConfig as exc:
        raise InvalidConfig(f"{path}: {exc}") from None


def read_jsonl(path, fields: dict):
    """Yield (line number, record) for each non-blank line of a JSON-lines file.

    `fields` maps each key to the type its value is converted to, or to a
    (type, default) pair for a key a line may omit; a record holds exactly
    these keys. An `int` field takes a whole number (by the rule of
    `config_number`) or a string of digits; 1.7 or true is not 1. A `str`
    field takes only a string; null, 7 or ["x"] is not one. A line that is not
    a JSON object, lacks a key or holds a value that does not convert raises
    ParseError naming the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"line {lineno}: invalid JSON ({exc})", lineno) from exc
            if not isinstance(doc, dict):
                raise ParseError(f"line {lineno}: expected a JSON object", lineno)
            rec = {}
            for key, kind in fields.items():
                kind, default = kind if isinstance(kind, tuple) else (kind, None)
                if key in doc:
                    value = doc[key]
                    try:
                        if kind is int and not isinstance(value, str):
                            value = config_number(key, value, integral=True)
                        elif kind is str and not isinstance(value, str):
                            raise TypeError(f"expected a string, got {json.dumps(value)}")
                        rec[key] = kind(value)
                    except (InvalidConfig, TypeError, ValueError, OverflowError) as exc:
                        raise ParseError(
                            f"line {lineno}: bad value for '{key}' ({exc})", lineno
                        ) from exc
                elif default is None:
                    raise ParseError(f"line {lineno}: missing '{key}'", lineno)
                else:
                    rec[key] = default
            yield lineno, rec

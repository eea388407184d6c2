"""Run a fixed, seeded list of bad inputs through textprobe's CLI and name
every case that ends in an uncaught exception instead of an exit code.

    python tools/mutate.py

A demo workspace (`demo --image-samples 10 --steps 5`, then `run-all`) is
made once in a new temporary directory. Each case changes one thing in a
fresh copy of it and runs one command there:

- Each file of the workspace, and one LLM cache entry, is emptied, cut to
  half its length, given one flipped bit (at a position seeded by the file's
  name) or replaced by one of six literal JSON documents. In a JSON file each
  field is set to each of eight values (`VALUES`), and in a JSON-lines file
  each field of the first record; a list field also has its first item set.
  Each string in the manifest is also set to each bad path. Every such case
  runs `run-all`, unforced and then forced.
- Each path flag of a fixed list of subcommands (`COMMANDS`, each also run
  as given) is set to each bad path: "", ".", a directory, a path under a
  file.

Each command runs in a child process forked from this one, which imported
the package under `src/` beside this script, with the BLAS thread counts set
to 1, `SECONDS` of wall time and 1 GiB of address space. A child that
raises an exception out of `textprobe.cli.main` (but a MemoryError, which
is the address-space limit), or dies of a signal other than the time
limit's, is an escape. The tool prints each
escape and each case over a limit, then the counts, and exits 1 if there is
an escape. Uses only the standard library and the package.
"""

from __future__ import annotations

import copy
import json
import os
import random
import resource
import shlex
import shutil
import signal
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

from digests import ONE_THREAD, SRC  # beside this script

SEED = 0
SECONDS = 4  # the time limit of each run
MEMORY_BYTES = 1 << 30
VALUES = [None, -1, "s", [], {}, True, 2**70, 1e308]
LITERALS = ["null", "true", "0", '"s"', "[]", "{}"]
BAD_PATHS = ["", ".", "cache", "classes.json/x"]  # relative to the workspace

DEMO = ["demo", "--workspace", ".", "--image-samples", "10", "--steps", "5"]
RUN_ALL = ["run-all", "--manifest", "manifest.json"]
# Subcommands run in the workspace; "new*" names an output that is not there yet.
COMMANDS = [
    ["gen-prompts", "--profile", "profile.json", "--classes", "classes.json",
     "--out", "new.jsonl"],
    ["gen-prompts", "--generic", "--classes", "classes.json", "--out", "new.jsonl"],
    ["fetch", "--prompts", "prompts.jsonl", "--fixture", "fixture.jsonl", "--cache", "cache",
     "--out", "new.jsonl"],
    ["train", "--descriptions", "descriptions.jsonl", "--classes", "classes.json",
     "--text-bundle", "text.tape", "--steps", "5", "--dataset-out", "new.jsonl",
     "--out", "new.json"],
    ["train", "--synthetic", "--steps", "2", "--out", "new.json"],
    ["eval", "--images", "images.tape", "--classifier", "classifier.json",
     "--methods", "tap,clip-single,clip-dst,tot-cls,tot-dst",
     "--class-embeddings", "classnames.tape", "--dst-embeddings", "dst.tape",
     "--classes", "classes.json", "--steps", "5", "--out", "new.json"],
    ["refine", "--classifier", "classifier.json", "--unlabeled", "images.tape",
     "--eval-images", "images.tape", "--steps", "5", "--out", "new.json"],
    ["synth-space", "--per-class", "2", "--out", "new.tape"],
    ["synth-space", "--from-classes", "classes.json", "--modality", "text",
     "--out", "new.tape"],
    ["synth-space", "--from-descriptions", "descriptions.jsonl", "--modality", "text",
     "--out", "new.tape"],
    ["demo", "--workspace", "new", "--image-samples", "2", "--steps", "2"],
    RUN_ALL,
]
PATH_FLAGS = {"--profile", "--classes", "--out", "--prompts", "--fixture", "--cache",
              "--descriptions", "--text-bundle", "--dataset-out", "--images", "--classifier",
              "--class-embeddings", "--dst-embeddings", "--unlabeled", "--eval-images",
              "--from-classes", "--from-descriptions", "--workspace", "--manifest"}

ESCAPED, OVER_MEMORY = 70, 71  # child exit statuses that `main` never returns


def run(cwd: Path, argv: list[str], seconds: int) -> str:
    """What `main(argv)` did in a child process in `cwd`: "exit N", "over the
    time limit", "over the memory limit" or "escaped: <exception>"."""
    report = cwd.parent / f"{cwd.name}.escape"
    # Forking is safe: this process runs no package code itself and starts no thread.
    pid = os.fork()
    if pid == 0:  # the child: never returns
        status = ESCAPED
        try:
            os.chdir(cwd)
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.dup2(null, 2)
            resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))
            signal.alarm(seconds)
            from textprobe.cli import main as textprobe_main  # imported by `main` below
            status = textprobe_main(argv)
        except SystemExit as exc:  # argparse refusing a flag
            status = exc.code if isinstance(exc.code, int) else 2
        except MemoryError:
            status = OVER_MEMORY
        except Exception:
            report.write_text(traceback.format_exc().strip().splitlines()[-1])
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        if os.WTERMSIG(status) == signal.SIGALRM:
            return "over the time limit"
        return f"escaped: killed by signal {os.WTERMSIG(status)}"
    code = os.WEXITSTATUS(status)
    if code == OVER_MEMORY:
        return "over the memory limit"
    if code == ESCAPED:
        escape = report.read_text() if report.exists() else "no report"
        report.unlink(missing_ok=True)
        return f"escaped: {escape}"
    return f"exit {code}"


def _fields(doc, path=()):
    """The path of every field of a JSON value: each key of an object and the
    first item of a list, and theirs in turn."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list) and doc:
        items = [(0, doc[0])]
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _with(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _name(path) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in path).removeprefix(".")


def file_cases(ws: Path):
    """(name, {file: new bytes}, argv) for every file mutation of the
    workspace `ws`, run by `run-all` unforced and forced."""
    files = sorted(p.relative_to(ws).as_posix() for p in ws.rglob("*")
                   if p.is_file() and p.parent.name != "cache")
    files.append(min(p.relative_to(ws).as_posix() for p in (ws / "cache").iterdir()))
    for rel in files:
        data = (ws / rel).read_bytes()
        bit = random.Random(f"{SEED}:{rel}").randrange(len(data) * 8)
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << bit % 8
        changes = [("emptied", b""), ("truncated", data[:len(data) // 2]),
                   (f"bit {bit} flipped", bytes(flipped))]
        changes += [(f"= {text}", text.encode()) for text in LITERALS]
        if rel.endswith(".json"):
            doc = json.loads(data)
            changes += [(f"{_name(path)} = {json.dumps(value)}",
                         json.dumps(_with(doc, path, value)).encode())
                        for path in _fields(doc) for value in VALUES]
            if rel == "manifest.json":
                changes += [(f"{key} = {json.dumps(bad)}", json.dumps({**doc, key: bad}).encode())
                            for key, value in doc.items() if isinstance(value, str)
                            for bad in BAD_PATHS]
        elif rel.endswith(".jsonl"):
            first, _, rest = data.partition(b"\n")
            record = json.loads(first)
            changes += [(f"line 1 {_name(path)} = {json.dumps(value)}",
                         json.dumps(_with(record, path, value)).encode() + b"\n" + rest)
                        for path in _fields(record) for value in VALUES]
        for what, new in changes:
            for argv in (RUN_ALL, RUN_ALL + ["--force"]):
                yield f"{rel}: {what} [{shlex.join(argv[:1] + argv[3:])}]", {rel: new}, argv


def command_cases():
    """(name, {}, argv) for each command as given and with each path flag bad."""
    for argv in COMMANDS:
        variants = [argv] + [argv[:i + 1] + [bad] + argv[i + 2:]
                             for i, flag in enumerate(argv[:-1]) if flag in PATH_FLAGS
                             for bad in BAD_PATHS]
        for command in variants:
            yield shlex.join(command), {}, command


def main() -> int:
    os.environ.update(dict.fromkeys(ONE_THREAD, "1"))  # before NumPy loads its BLAS
    sys.path.insert(0, str(SRC))
    import textprobe.cli  # noqa: F401  once here, so that no child imports it anew
    outcomes: Counter[str] = Counter()
    with tempfile.TemporaryDirectory(prefix="textprobe-mutate-") as tmp:
        ws = Path(tmp) / "pristine"
        ws.mkdir()
        for setup in (DEMO, RUN_ALL):
            outcome = run(ws, setup, 600)
            if outcome != "exit 0":
                print(f"setup {' '.join(setup)}: {outcome}", file=sys.stderr)
                return 1
        case = Path(tmp) / "case"
        for name, edits, argv in [*file_cases(ws), *command_cases()]:
            shutil.copytree(ws, case)
            for rel, data in edits.items():
                (case / rel).write_bytes(data)
            outcome = run(case, argv, SECONDS)
            shutil.rmtree(case)
            kind, _, detail = outcome.partition(": ")
            outcomes[kind] += 1
            if not kind.startswith("exit"):
                print(f"{kind}: {name}" + (f": {detail}" if detail else ""), flush=True)
    print(f"{sum(outcomes.values())} runs: "
          + ", ".join(f"{n} {outcome}" for outcome, n in sorted(outcomes.items())),
          file=sys.stderr)
    return 1 if outcomes["escaped"] else 0


if __name__ == "__main__":
    sys.exit(main())

"""Digest every output of a fixed list of textprobe commands, or check them
against an earlier digest file: byte-identity of a change as one command.

    python tools/digests.py [--out DIGESTS.json]
    python tools/digests.py --check DIGESTS.json

The commands (`COMMANDS`) run one after another in one new temporary
directory, each in a child process with the BLAS thread counts set to 1, on
the textprobe package under `src/` beside this script. For each command the
digest file records its exit code, the sha256 of its stdout and of its
stderr, and the sha256 of every file it wrote, except under a `cache/`
directory (LLM cache entries are not pipeline outputs). The entries are
written sorted, under a provenance block naming the interpreter, NumPy and
textprobe versions. `--check FILE` runs the same commands, prints every
entry that differs from FILE's and exits 1 if there is one; the provenance
is not compared. Uses only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_EVAL = ["eval", "--images", "demo/images.tape", "--classifier", "demo/classifier.json",
         "--methods", "tap,clip-single,clip-dst,tot-cls,tot-dst",
         "--class-embeddings", "demo/classnames.tape", "--dst-embeddings", "demo/dst.tape",
         "--classes", "demo/classes.json", "--dataset-name", "synthetic-demo"]
# The demo's head keeps 586 of its 1000 images at threshold 0.3, and none at the default.
_REFINE = ["refine", "--classifier", "demo/classifier.json", "--unlabeled", "demo/images.tape"]
_TRAIN = ["train", "--classes", "demo/classes.json", "--text-bundle", "demo/text.tape",
          "--steps", "50"]

# (name, argv) in run order; later commands read what earlier ones wrote.
COMMANDS = [
    ("demo", ["demo", "--workspace", "demo"]),
    ("run-all", ["run-all", "--manifest", "demo/manifest.json"]),
    ("run-all-again", ["run-all", "--manifest", "demo/manifest.json"]),
    ("run-all-force", ["run-all", "--manifest", "demo/manifest.json", "--force"]),
    ("eval-json", [*_EVAL, "--format", "json", "--out", "eval.json"]),
    ("eval-csv", [*_EVAL, "--format", "csv", "--out", "eval-csv.json"]),
    ("eval-train-flags", [*_EVAL, "--steps", "20", "--lr", "0.01", "--smoothing", "0.2",
                          "--sigma", "0.5", "--weight-decay", "0.1", "--seed", "3",
                          "--format", "json", "--out", "eval-flags.json"]),
    ("refine", [*_REFINE, "--threshold", "0.3", "--out", "refined.json"]),
    ("refine-eval-images", [*_REFINE, "--threshold", "0.3", "--eval-images",
                            "demo/images.tape", "--out", "refined-eval.json"]),
    ("refine-none-kept", [*_REFINE, "--out", "refined-none.json"]),
    ("refine-flags", [*_REFINE, "--threshold", "0.3", "--steps", "20", "--lr", "0.01",
                      "--out", "refined-flags.json"]),
    ("train-synthetic", ["train", "--synthetic", "--steps", "100", "--out", "synthetic.json",
                         "--dataset-out", "synthetic-dataset.jsonl"]),
    ("train-synthetic-flags", ["train", "--synthetic", "--synth-classes", "4", "--synth-dim", "16",
                               "--synth-sigma", "0.3", "--synth-gap", "0.2", "--synth-samples",
                               "7", "--steps", "20", "--lr", "0.01", "--smoothing", "0.2",
                               "--sigma", "0.5", "--weight-decay", "0.1", "--seed", "3",
                               "--out", "synthetic-flags.json"]),
    ("train-descriptions", [*_TRAIN, "--descriptions", "demo/descriptions.jsonl",
                            "--dataset-out", "dataset.jsonl", "--out", "descriptions.json"]),
    ("train-text-dataset", [*_TRAIN, "--text-dataset", "dataset.jsonl",
                            "--out", "text-dataset.json"]),
    ("synth-space-per-class", ["synth-space", "--per-class", "5", "--out", "per-class.tape"]),
    ("synth-space-from-classes", ["synth-space", "--from-classes", "demo/classes.json",
                                  "--modality", "text", "--out", "from-classes.tape"]),
    ("synth-space-from-descriptions", ["synth-space", "--from-descriptions",
                                       "demo/descriptions.jsonl", "--modality", "text",
                                       "--out", "from-descriptions.tape"]),
    ("synth-space-flags", ["synth-space", "--per-class", "3", "--dim", "16", "--classes-count",
                           "4", "--sigma-intra", "0.3", "--gap", "0.2", "--seed", "7",
                           "--out", "space-flags.tape"]),
    ("gen-prompts-generic", ["gen-prompts", "--generic", "--classes", "demo/classes.json",
                             "--out", "generic-prompts.jsonl"]),
    ("fetch-fixture", ["fetch", "--prompts", "demo/prompts.jsonl", "--fixture",
                       "demo/fixture.jsonl", "--cache", "cache", "--out", "fetched.jsonl"]),
    ("fetch-fixture-flags", ["fetch", "--prompts", "demo/prompts.jsonl", "--fixture",
                             "demo/fixture.jsonl", "--samples", "3", "--max-tokens", "10",
                             "--temperature", "0.5", "--cache", "cache",
                             "--out", "fetched-flags.jsonl"]),
    # Two workspaces shaped like the benchmark's train-mid and ingest-large: rows
    # normalized over many blocks, and five methods screened in float32 on 12000 x 768 images.
    ("demo-train-mid", ["demo", "--workspace", "mid", "--dim", "512", "--classes-count", "100",
                        "--image-samples", "50", "--steps", "50"]),
    ("run-all-train-mid", ["run-all", "--manifest", "mid/manifest.json"]),
    ("demo-ingest-large", ["demo", "--workspace", "large", "--dim", "768", "--classes-count",
                           "200", "--samples", "5", "--image-samples", "60", "--steps", "2",
                           "--sigma-intra", "0.15", "--gap", "0.5"]),
    ("run-all-ingest-large", ["run-all", "--manifest", "large/manifest.json"]),
]

_RUN = "import sys; from textprobe.cli import main; sys.exit(main(sys.argv[1:]))"
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _written(root: Path) -> dict[str, tuple[int, int]]:
    """(inode, mtime in ns) of every file under `root` outside a cache/ directory."""
    stamps = {}
    for path in root.rglob("*"):
        rel = path.relative_to(root)
        if path.is_file() and "cache" not in rel.parts[:-1]:
            st = path.stat()
            stamps[rel.as_posix()] = (st.st_ino, st.st_mtime_ns)
    return stamps


def collect() -> dict[str, object]:
    """Run `COMMANDS` in a new temporary directory; the digest entries."""
    env = {**os.environ, **dict.fromkeys(ONE_THREAD, "1"),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    entries: dict[str, object] = {}
    with tempfile.TemporaryDirectory(prefix="textprobe-digests-") as tmp:
        root = Path(tmp)
        before: dict[str, tuple[int, int]] = {}
        for name, argv in COMMANDS:
            proc = subprocess.run([sys.executable, "-c", _RUN, *argv], cwd=root, env=env,
                                  capture_output=True, timeout=600)
            entries[f"{name}/exit"] = proc.returncode
            entries[f"{name}/stdout"] = _sha256(proc.stdout)
            entries[f"{name}/stderr"] = _sha256(proc.stderr)
            after = _written(root)
            for rel, stamp in after.items():
                if before.get(rel) != stamp:
                    entries[f"{name}/file/{rel}"] = _sha256((root / rel).read_bytes())
            before = after
    return entries


def provenance() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "textprobe": _textprobe_version(), "machine": platform.machine()}


def _textprobe_version() -> str:
    sys.path.insert(0, str(SRC))
    try:
        import textprobe
    finally:
        sys.path.pop(0)
    return textprobe.__version__


def differences(expected: dict, actual: dict) -> list[str]:
    """One line per entry that is missing, new, or holds another value."""
    lines = []
    for key in sorted(expected.keys() | actual.keys()):
        if key not in actual:
            lines.append(f"missing: {key}")
        elif key not in expected:
            lines.append(f"new: {key}")
        elif expected[key] != actual[key]:
            lines.append(f"differs: {key}: {expected[key]} -> {actual[key]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--out", default="DIGESTS.json", help="digest file to write")
    group.add_argument("--check", metavar="FILE", help="digest file to compare against")
    args = parser.parse_args(argv)
    entries = collect()
    if args.check:
        expected = json.loads(Path(args.check).read_text(encoding="utf-8"))["entries"]
        lines = differences(expected, entries)
        for line in lines:
            print(line)
        print(f"{len(lines)} of {len(expected.keys() | entries.keys())} entries differ",
              file=sys.stderr)
        return 1 if lines else 0
    doc = {"provenance": provenance(), "entries": entries}
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(entries)} entries written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

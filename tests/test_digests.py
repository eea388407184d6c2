import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "tools" / "digests.py"
_spec = importlib.util.spec_from_file_location("digests", _PATH)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

# A few quick commands: a workspace, a JSON-lines output, a bundle, and a
# fetch that also fills a cache.
QUICK = [
    ("demo", ["demo", "--workspace", "demo", "--image-samples", "5", "--steps", "5"]),
    ("gen-prompts", ["gen-prompts", "--profile", "demo/profile.json",
                     "--classes", "demo/classes.json", "--out", "prompts.jsonl"]),
    ("synth-space-per-class", ["synth-space", "--per-class", "2", "--dim", "8",
                               "--out", "per-class.tape"]),
    ("fetch-fixture", ["fetch", "--prompts", "prompts.jsonl", "--fixture", "demo/fixture.jsonl",
                       "--cache", "cache", "--out", "fetched.jsonl"]),
    ("missing-input", ["train", "--out", "x.json"]),
]


@pytest.fixture(scope="module")
def entries():
    """The fixed command list's digest entries, run once for this module."""
    return digests.collect()


def test_every_command_of_the_fixed_list_succeeds(entries):
    assert {key: code for key, code in entries.items()
            if key.endswith("/exit") and code != 0} == {}
    assert "run-all/file/demo/report.json" in entries
    assert "run-all-force/file/demo/report.json" in entries
    # An unforced run over up-to-date outputs rewrites the report alone.
    assert [key for key in entries if key.startswith("run-all-again/file/")] == [
        "run-all-again/file/demo/report.json"]
    assert "run-all-train-mid/file/mid/report.json" in entries
    assert "run-all-ingest-large/file/large/report.json" in entries
    assert not [key for key in entries if "/cache/" in key]


def test_outputs_match_the_recorded_digests(entries):
    doc = json.loads((_ROOT / "DIGESTS.json").read_text(encoding="utf-8"))
    recorded, here = doc["provenance"], digests.provenance()
    differing = [f"{key} {recorded.get(key)!r} here {here.get(key)!r}"
                 for key in sorted(recorded.keys() | here.keys())
                 if recorded.get(key) != here.get(key)]
    if differing:
        pytest.skip("DIGESTS.json was recorded elsewhere: " + "; ".join(differing))
    assert digests.differences(doc["entries"], entries) == []


def test_two_runs_agree_and_a_doctored_entry_is_named(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(digests, "COMMANDS", QUICK)
    out = tmp_path / "DIGESTS.json"
    assert digests.main(["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    entries = dict(doc["entries"])
    assert list(entries) == sorted(entries)
    assert set(doc["provenance"]) == {"python", "numpy", "textprobe", "machine"}
    assert entries["missing-input/exit"] == 5
    assert "fetch-fixture/file/fetched.jsonl" in entries
    assert not [key for key in entries if "/cache/" in key]

    assert digests.main(["--check", str(out)]) == 0
    assert capsys.readouterr().out == ""

    key = "synth-space-per-class/file/per-class.tape"
    doc["entries"][key] = "0" * 64
    del doc["entries"]["demo/stdout"]
    out.write_text(json.dumps(doc))
    monkeypatch.setattr(digests, "collect", lambda: entries)
    assert digests.main(["--check", str(out)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "new: demo/stdout", f"differs: {key}: {'0' * 64} -> {entries[key]}"]


@pytest.mark.parametrize("expected, actual, lines", [
    ({"a": 1}, {"a": 1}, []),
    ({"a": 1, "b": 2}, {"a": 1}, ["missing: b"]),
    ({"a": 0}, {"a": 2}, ["differs: a: 0 -> 2"]),
])
def test_differences(expected, actual, lines):
    assert digests.differences(expected, actual) == lines

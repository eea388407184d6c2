import json
import os

import pytest

from textprobe.atomic import atomic_write, read_jsonl, write_jsonl
from textprobe.errors import ParseError
from textprobe.llm import Description, load_fixture_descriptions, write_descriptions_jsonl
from textprobe.prompts import read_prompts_jsonl


def leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


class TestAtomicWrite:
    def test_writes_the_same_bytes_as_a_plain_open(self, tmp_path):
        with atomic_write(tmp_path / "a.txt") as fh:
            fh.write("héllo\n")
        with atomic_write(tmp_path / "b.bin", "wb") as fh:
            fh.write(b"\x00\xff")
        assert (tmp_path / "a.txt").read_bytes() == "héllo\n".encode("utf-8")
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\xff"
        assert leftovers(tmp_path) == []

    def test_new_file_gets_the_mode_of_a_plain_open(self, tmp_path):
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
        with atomic_write(tmp_path / "atomic.txt") as fh:
            fh.write("x")
        mode = lambda name: os.stat(tmp_path / name).st_mode & 0o777  # noqa: E731
        assert mode("atomic.txt") == mode("plain.txt")

    def test_symlink_is_written_through_not_replaced(self, tmp_path):
        (tmp_path / "real.json").write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(tmp_path / "real.json")
        with atomic_write(link) as fh:
            fh.write("new\n")
        assert link.is_symlink()
        assert (tmp_path / "real.json").read_text() == "new\n"

    def test_artifact_writer_that_raises_midway_leaves_the_old_file(self, tmp_path):
        target = tmp_path / "descriptions.jsonl"
        good = Description(prompt_id="p/0", class_id=0, text="a thing", sample_index=0)
        write_descriptions_jsonl([good], target)
        before = target.read_bytes()
        with pytest.raises(AttributeError):
            write_descriptions_jsonl([good, good, None], target)
        assert target.read_bytes() == before
        assert json.loads(before)["text"] == "a thing"
        assert leftovers(tmp_path) == []


class TestJsonLines:
    def test_round_trip_converts_values_and_fills_defaults(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl(path, iter([{"b": 1, "a": "x"}, {"a": "y", "b": "2"}]))
        assert path.read_text() == '{"a": "x", "b": 1}\n{"a": "y", "b": "2"}\n'
        fields = {"a": str, "b": int, "c": (str, "-")}
        assert list(read_jsonl(path, fields)) == [
            (1, {"a": "x", "b": 1, "c": "-"}), (2, {"a": "y", "b": 2, "c": "-"})]

    @pytest.mark.parametrize("line, message", [
        ("[1]", "JSON object"), ('{"a": "x"}', "missing 'b'"),
        ('{"a": "x", "b": "two"}', "'b'"), ('{"a": "x", "b": Infinity}', "'b'"),
        ('{"a": "x", "b": 1.7}', "'b'"), ('{"a": "x", "b": true}', "'b'"),
        ('{"a": "x", "b": "1.7"}', "'b'"),
        ('{"a": null, "b": 1}', "'a'"), ('{"a": {"x": 1}, "b": 1}', "'a'"),
        ('{"a": 7, "b": 1}', "'a'"), ('{"a": ["x"], "b": 1}', "'a'"),
    ])
    def test_bad_line_is_a_parse_error_naming_it(self, tmp_path, line, message):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": "x", "b": 1}\n\n' + line + "\n")
        with pytest.raises(ParseError, match=message) as excinfo:
            list(read_jsonl(path, {"a": str, "b": int}))
        assert excinfo.value.lineno == 3

    @pytest.mark.parametrize("reader, record, key", [
        (read_prompts_jsonl, {"prompt_id": "p", "class_id": 0, "class_name": None,
                              "text": "t"}, "class_name"),
        (read_prompts_jsonl, {"prompt_id": "p", "class_id": 0, "text": ["x"]}, "text"),
        (load_fixture_descriptions, {"prompt_id": 7, "class_id": 0, "sample_index": 0,
                                     "text": "t"}, "prompt_id"),
        (load_fixture_descriptions, {"prompt_id": "p", "class_id": 0, "sample_index": 0,
                                     "text": None}, "text"),
    ])
    def test_str_field_takes_only_a_string(self, tmp_path, reader, record, key):
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ParseError, match=f"line 1: bad value for '{key}'"):
            reader(path)

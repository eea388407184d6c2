import json
import os

import pytest

from textprobe.atomic import atomic_write, read_json, read_jsonl, write_jsonl
from textprobe.cli import main
from textprobe.data import build_text_dataset, read_text_dataset_jsonl, write_text_dataset_jsonl
from textprobe.errors import NonFiniteLoss, ParseError, _string, _whole
from textprobe.llm import Description, load_fixture_descriptions, write_descriptions_jsonl
from textprobe.prompts import (
    DEFAULT_GENERIC_TEMPLATES,
    ClassVocabulary,
    read_prompts_jsonl,
    render_generic_prompts,
    write_prompts_jsonl,
)


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

    def test_a_missing_directory_is_named_by_the_target_not_the_temporary(self, tmp_path):
        target = tmp_path / "nodir" / "x.json"
        with pytest.raises(FileNotFoundError) as exc:
            with atomic_write(target) as fh:
                fh.write("{}\n")
        assert exc.value.filename == str(target)


class TestReadJson:
    @pytest.mark.parametrize("error, attribute, value", [
        (ParseError("bad line", lineno=3), "lineno", 3),
        (NonFiniteLoss("loss became non-finite", step=7), "step", 7),
    ])
    def test_an_error_from_the_loader_names_the_file_and_keeps_its_class(
            self, tmp_path, error, attribute, value):
        path = tmp_path / "doc.json"
        path.write_text("{}")
        message = str(error)

        def load(doc):
            raise error

        with pytest.raises(type(error)) as exc:
            read_json(path, load)
        assert exc.value is error
        assert str(error) == f"{path}: {message}"
        assert getattr(error, attribute) == value


class TestJsonLines:
    def test_round_trip_converts_values_and_fills_defaults(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl(path, iter([{"b": 1, "a": "x"}, {"a": "y", "b": "2"}]))
        assert path.read_text() == '{"a": "x", "b": 1}\n{"a": "y", "b": "2"}\n'
        table = {"a": (_string, ...), "b": (_whole, ...), "c": (_string, "-")}
        assert list(read_jsonl(path, table)) == [
            (1, {"a": "x", "b": 1, "c": "-"}), (2, {"a": "y", "b": 2, "c": "-"})]

    @pytest.mark.parametrize("line, message", [
        ("[1]", "must be an object"), ('{"a": "x"}', "missing key 'b'"),
        ('{"a": "x", "b": "two"}', "b must be"), ('{"a": "x", "b": Infinity}', "b must be"),
        ('{"a": "x", "b": 1.7}', "b must be"), ('{"a": "x", "b": true}', "b must be"),
        ('{"a": "x", "b": "1.7"}', "b must be"),
        ('{"a": null, "b": 1}', "a must be"), ('{"a": {"x": 1}, "b": 1}', "a must be"),
        ('{"a": 7, "b": 1}', "a must be"), ('{"a": ["x"], "b": 1}', "a must be"),
    ])
    def test_bad_line_is_a_parse_error_naming_it(self, tmp_path, line, message):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": "x", "b": 1}\n\n' + line + "\n")
        with pytest.raises(ParseError, match=message) as excinfo:
            list(read_jsonl(path, {"a": (_string, ...), "b": (_whole, ...)}))
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
        with pytest.raises(ParseError, match=f"line 1: {key} must be a string"):
            reader(path)

    def test_every_writer_is_read_back_by_its_reader(self, tmp_path):
        vocab = ClassVocabulary(("a", "b"))
        prompts = render_generic_prompts(vocab, DEFAULT_GENERIC_TEMPLATES)
        write_prompts_jsonl(prompts, tmp_path / "p.jsonl")
        assert [rec["text"] for rec in read_prompts_jsonl(tmp_path / "p.jsonl")] == [
            p.rendered_text for p in prompts]
        descs = [Description(prompt_id=p.prompt_id, class_id=p.class_id, text=f"t{i}",
                             sample_index=i, source="fixture", class_name=p.class_name)
                 for p in prompts for i in range(2)]
        write_descriptions_jsonl(descs, tmp_path / "d.jsonl")
        assert load_fixture_descriptions(tmp_path / "d.jsonl") == descs
        dataset = build_text_dataset(descs, vocab)
        write_text_dataset_jsonl(dataset, tmp_path / "t.jsonl")
        assert read_text_dataset_jsonl(tmp_path / "t.jsonl", vocab).items == dataset.items
        assert main(["demo", "--workspace", str(tmp_path / "ws"), "--classes-count", "2",
                     "--samples", "2"]) == 0
        assert len(load_fixture_descriptions(tmp_path / "ws" / "fixture.jsonl")) == 8

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textprobe.errors import InvalidConfig, InvalidProfile, ParseError
from textprobe.prompts import (
    ClassVocabulary,
    DEFAULT_GENERIC_TEMPLATES,
    TaskProfile,
    read_prompts_jsonl,
    render_generic_prompts,
    render_prompts,
    write_prompts_jsonl,
)


def fine_grained(task, superclass, templates=()):
    return TaskProfile(
        task_name=task,
        shift_kind="fine_grained",
        superclass_token=superclass,
        question_templates=tuple(templates),
    )


def cross_domain(task, descriptors, templates=()):
    return TaskProfile(
        task_name=task,
        shift_kind="cross_domain",
        domain_descriptors=tuple(descriptors),
        question_templates=tuple(templates),
    )


class TestGoldenPromptStrings:
    """The targeted and generic question strings for the texture, flower, and
    satellite tasks must come out of their profiles verbatim."""

    def test_texture_superclass(self):
        profile = fine_grained("dtd", "texture")
        vocab = ClassVocabulary(("banded", "braided"))
        texts = [p.rendered_text for p in render_prompts(profile, vocab)]
        assert "Describe what a banded texture looks like." in texts
        assert "Describe what a braided texture looks like." in texts

    def test_flower_superclass(self):
        profile = fine_grained(
            "flowers",
            "flower",
            templates=(
                "Describe what an {class} {superclass} looks like.",
                "How can you identify a {class} {superclass}?",
            ),
        )
        vocab = ClassVocabulary(("artichoke", "fritillary"))
        texts = [p.rendered_text for p in render_prompts(profile, vocab)]
        assert "Describe what an artichoke flower looks like." in texts
        assert "How can you identify a fritillary flower?" in texts

    def test_satellite_domain(self):
        profile = cross_domain("eurosat", ("from a satellite",))
        vocab = ClassVocabulary(("forest", "river"))
        texts = [p.rendered_text for p in render_prompts(profile, vocab)]
        assert "Describe what a forest looks like from a satellite." in texts
        assert "How can you identify a river from a satellite?" in texts

    def test_generic_flower(self):
        vocab = ClassVocabulary(("artichoke",))
        texts = [
            p.rendered_text
            for p in render_generic_prompts(
                vocab, ["Describe what an {class} looks like."]
            )
        ]
        assert texts == ["Describe what an artichoke looks like."]


class TestRenderPrompts:
    def test_fine_grained_cardinality(self):
        vocab = ClassVocabulary(tuple(f"c{i}" for i in range(7)))
        prompts = render_prompts(fine_grained("t", "object"), vocab)
        assert len(prompts) == 7 * 2  # default two templates

    def test_cross_domain_cartesian(self):
        vocab = ClassVocabulary(("a", "b", "c"))
        profile = cross_domain(
            "t",
            ("as a sketch", "as origami"),
            templates=(
                "Describe what a {class} looks like {domain}.",
                "How can you identify a {class} {domain}?",
            ),
        )
        prompts = render_prompts(profile, vocab)
        assert len(prompts) == 3 * 2 * 2
        counts = Counter(p.class_id for p in prompts)
        assert counts == {0: 4, 1: 4, 2: 4}

    def test_order_is_class_major(self):
        vocab = ClassVocabulary(("a", "b"))
        profile = cross_domain("t", ("d0", "d1"))
        prompts = render_prompts(profile, vocab)
        keys = [(p.class_id, p.template_index, p.descriptor_index) for p in prompts]
        assert keys == sorted(keys)

    def test_prompt_ids_stable_and_unique(self):
        vocab = ClassVocabulary(("a", "b"))
        profile = fine_grained("mytask", "thing")
        prompts = render_prompts(profile, vocab)
        assert prompts[0].prompt_id == "mytask/0/0/-"
        assert len({p.prompt_id for p in prompts}) == len(prompts)

    def test_determinism(self):
        vocab = ClassVocabulary(tuple(f"c{i}" for i in range(5)))
        profile = cross_domain("t", ("x", "y"))
        first = render_prompts(profile, vocab)
        second = render_prompts(profile, vocab)
        assert first == second

    def test_class_name_substring(self):
        vocab = ClassVocabulary(("banded", "zigzagged"))
        for p in render_prompts(fine_grained("t", "texture"), vocab):
            assert p.class_name in p.rendered_text

    def test_no_unexpanded_placeholders(self):
        vocab = ClassVocabulary(("a",))
        for p in render_prompts(cross_domain("t", ("d",)), vocab):
            assert "{" not in p.rendered_text and "}" not in p.rendered_text


class TestProfileValidation:
    def test_missing_class_placeholder(self):
        profile = fine_grained("t", "s", templates=("no placeholder here",))
        with pytest.raises(InvalidProfile, match="template 0"):
            render_prompts(profile, ClassVocabulary(("a",)))

    def test_double_class_placeholder(self):
        profile = fine_grained("t", "s", templates=("{class} and {class}",))
        with pytest.raises(InvalidProfile):
            render_prompts(profile, ClassVocabulary(("a",)))

    def test_fine_grained_needs_superclass(self):
        profile = TaskProfile(task_name="t", shift_kind="fine_grained")
        with pytest.raises(InvalidProfile):
            render_prompts(profile, ClassVocabulary(("a",)))

    def test_cross_domain_needs_descriptors(self):
        profile = TaskProfile(task_name="t", shift_kind="cross_domain")
        with pytest.raises(InvalidProfile):
            render_prompts(profile, ClassVocabulary(("a",)))

    def test_wrong_placeholder_for_kind(self):
        profile = fine_grained("t", "s", templates=("What is a {class} {domain}?",))
        with pytest.raises(InvalidProfile):
            render_prompts(profile, ClassVocabulary(("a",)))

    def test_bad_shift_kind(self):
        profile = TaskProfile(task_name="t", shift_kind="other")
        with pytest.raises(InvalidProfile):
            profile.validate()

    def test_vocab_rejects_duplicates(self):
        with pytest.raises(InvalidProfile):
            ClassVocabulary(("a", "a"))

    def test_vocab_rejects_empty_names(self):
        with pytest.raises(InvalidProfile):
            ClassVocabulary(("a", " "))


class TestGenericPrompts:
    def test_empty_templates_empty_output(self):
        assert render_generic_prompts(ClassVocabulary(("a",)), []) == []

    def test_cardinality(self):
        vocab = ClassVocabulary(tuple(f"c{i}" for i in range(5)))
        prompts = render_generic_prompts(vocab, list(DEFAULT_GENERIC_TEMPLATES))
        assert len(prompts) == 10

    def test_rejects_superclass_placeholder(self):
        with pytest.raises(InvalidProfile):
            render_generic_prompts(
                ClassVocabulary(("a",)), ["Describe a {class} {superclass}."]
            )


names_strategy = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=0x7F),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=8,
    unique=True,
)


@given(
    names=names_strategy,
    n_templates=st.integers(1, 3),
    n_descriptors=st.integers(1, 3),
    kind=st.sampled_from(["fine_grained", "cross_domain"]),
)
@settings(max_examples=100, deadline=None)
def test_class_balance_property(names, n_templates, n_descriptors, kind):
    """Every class appears with the same multiplicity, whatever the profile."""
    vocab = ClassVocabulary(tuple(names))
    if kind == "fine_grained":
        profile = fine_grained(
            "t", "thing", templates=tuple(f"q{i} {{class}} {{superclass}}" for i in range(n_templates))
        )
        expected = n_templates
    else:
        profile = cross_domain(
            "t",
            tuple(f"d{i}" for i in range(n_descriptors)),
            templates=tuple(f"q{i} {{class}} {{domain}}" for i in range(n_templates)),
        )
        expected = n_templates * n_descriptors
    prompts = render_prompts(profile, vocab)
    counts = Counter(p.class_id for p in prompts)
    assert len(prompts) == len(names) * expected
    assert set(counts.values()) == {expected}


class TestPromptJsonl:
    def test_round_trip(self, tmp_path):
        vocab = ClassVocabulary(("a", "b"))
        prompts = render_prompts(fine_grained("t", "s"), vocab)
        path = tmp_path / "prompts.jsonl"
        write_prompts_jsonl(prompts, path)
        records = read_prompts_jsonl(path)
        assert len(records) == len(prompts)
        assert records[0]["prompt_id"] == prompts[0].prompt_id
        assert records[0]["text"] == prompts[0].rendered_text

    def test_byte_identical_rewrites(self, tmp_path):
        vocab = ClassVocabulary(("a", "b", "c"))
        prompts = render_prompts(cross_domain("t", ("d",)), vocab)
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        write_prompts_jsonl(prompts, p1)
        write_prompts_jsonl(prompts, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"prompt_id": "x", "class_id": 0, "text": "ok"}\nnot json\n')
        with pytest.raises(ParseError, match="line 2"):
            read_prompts_jsonl(path)


    @pytest.mark.parametrize("line", ['{"prompt_id":"a","class_id":"x","text":"t"}', "5"])
    def test_bad_record_is_parse_error_naming_line(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"prompt_id": "x", "class_id": 0, "text": "ok"}\n' + line + "\n")
        with pytest.raises(ParseError, match="line 2") as excinfo:
            read_prompts_jsonl(path)
        assert excinfo.value.lineno == 2


class TestProfileFiles:
    def test_profile_json_round_trip(self, tmp_path):
        profile = cross_domain("sat", ("from a satellite",))
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile.to_dict()))
        loaded = TaskProfile.from_file(path)
        assert loaded == profile

    def test_vocab_from_plain_list(self, tmp_path):
        path = tmp_path / "classes.json"
        path.write_text('["forest", "river"]')
        vocab = ClassVocabulary.from_file(path)
        assert vocab.names == ("forest", "river")

    def test_vocab_from_records(self, tmp_path):
        path = tmp_path / "classes.json"
        path.write_text(
            '[{"class_id": 1, "class_name": "b"}, {"class_id": 0, "class_name": "a"}]'
        )
        vocab = ClassVocabulary.from_file(path)
        assert vocab.names == ("a", "b")

    def test_null_means_absent_in_a_profile(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text('{"task_name": "dtd", "shift_kind": "fine_grained", '
                        '"superclass_token": null, "domain_descriptors": null, '
                        '"question_templates": null}')
        assert TaskProfile.from_file(path) == TaskProfile("dtd", "fine_grained")

    @pytest.mark.parametrize("changes, named", [
        ({"question_template": ["a {class}"]}, "question_template"),
        ({"domain_descriptors": "origami"}, "domain_descriptors"),
        ({"superclass_token": 5}, "superclass_token"),
        ({"domain_descriptors": ["x", 3]}, r"domain_descriptors\[1\]"),
        ({"question_templates": [1]}, r"question_templates\[0\]"),
    ])
    def test_profile_key_or_type_error_is_named(self, tmp_path, changes, named):
        path = tmp_path / "profile.json"
        doc = {"task_name": "t", "shift_kind": "cross_domain", "domain_descriptors": ["x"]}
        path.write_text(json.dumps({**doc, **changes}))
        with pytest.raises(InvalidConfig, match=named):
            TaskProfile.from_file(path)

    @pytest.mark.parametrize("doc, named", [
        ([{"class_id": 1.7, "class_name": "b"}, {"class_id": 0, "class_name": "a"}],
         r"classes\[0\]\.class_id"),
        ([{"class_id": True, "class_name": None}], r"classes\[0\]\.class_id"),
        ([{"class_id": 0, "class_name": None}], r"classes\[0\]\.class_name"),
        (["a", 3], r"classes\[1\]"),
        ({"clases": ["a"]}, "clases"),
    ])
    def test_class_file_key_or_type_error_is_named(self, tmp_path, doc, named):
        path = tmp_path / "classes.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidConfig, match=named):
            ClassVocabulary.from_file(path)

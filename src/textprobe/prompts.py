"""Task-targeted prompt synthesis.

Two targeting strategies, one per kind of downstream shift:

* fine_grained: inject a super-class token next to the class name, so the
  question cannot be read as asking about an unrelated homonym
  ("banded" the texture, not the snake).
* cross_domain: inject a short domain descriptor ("from a satellite",
  "origami") and expand the full Cartesian product of classes x templates
  x descriptors.

Every class appears in exactly the same number of prompts and the output
order is deterministic (class-major, then template, then descriptor), so a
prompt list is a reproducible artifact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .atomic import read_json, read_jsonl, write_jsonl
from .errors import InvalidConfig, InvalidProfile, _checked, _integer, _list, _string, _strings

SHIFT_FINE_GRAINED = "fine_grained"
SHIFT_CROSS_DOMAIN = "cross_domain"

# The two question forms used as defaults; profiles may override freely.
DEFAULT_FINE_GRAINED_TEMPLATES = (
    "Describe what a {class} {superclass} looks like.",
    "How can you identify a {class} {superclass}?",
)
DEFAULT_CROSS_DOMAIN_TEMPLATES = (
    "Describe what a {class} looks like {domain}.",
    "How can you identify a {class} {domain}?",
)
DEFAULT_GENERIC_TEMPLATES = (
    "Describe what a {class} looks like.",
    "How can you identify a {class}?",
)

_PLACEHOLDER_RE = re.compile(r"\{([a-zA-Z_]+)\}")


@dataclass(frozen=True)
class ClassVocabulary:
    """Ordered class names; ids are the positions 0..K-1."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(str(n) for n in self.names)
        if not names:
            raise InvalidProfile("vocabulary must contain at least one class")
        if any(not n.strip() for n in names):
            raise InvalidProfile("class names must be nonempty")
        if len(set(names)) != len(names):
            raise InvalidProfile("class names must be unique")
        object.__setattr__(self, "names", names)

    def __len__(self) -> int:
        return len(self.names)

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(range(len(self.names)))

    @property
    def classes(self) -> list[tuple[int, str]]:
        return list(enumerate(self.names))

    def name_of(self, class_id: int) -> str:
        if not 0 <= class_id < len(self.names):
            raise InvalidProfile(f"class id {class_id} outside vocabulary")
        return self.names[class_id]

    @classmethod
    def from_file(cls, path) -> "ClassVocabulary":
        """Load class names from a JSON file.

        Accepted layouts: a JSON array of strings, a JSON array of
        {"class_id": int, "class_name": str} objects (sorted by id), or an
        object with a "classes" key holding either of the above. Any other
        key or value type raises InvalidConfig naming it.
        """
        return read_json(path, cls._from_doc)

    @classmethod
    def _from_doc(cls, doc) -> "ClassVocabulary":
        if isinstance(doc, dict):
            doc = _checked(doc, {"classes": (_list, ...)})["classes"]
        if not (isinstance(doc, list) and doc and isinstance(doc[0], dict)):
            return cls(names=tuple(_strings("classes", doc)))
        pairs = sorted(tuple(_checked(record, _CLASS_RECORD, f"classes[{i}].").values())
                       for i, record in enumerate(doc))
        if [p[0] for p in pairs] != list(range(len(pairs))):
            raise InvalidConfig("class_ids must be contiguous from 0")
        return cls(names=tuple(name for _, name in pairs))


_CLASS_RECORD = {"class_id": (_integer, ...), "class_name": (_string, ...)}


@dataclass(frozen=True)
class TaskProfile:
    """Declarative description of the downstream task's visual characteristics.

    `question_templates` may be empty, in which case rendering falls back to
    the defaults for the profile's shift kind.
    """

    task_name: str
    shift_kind: str
    superclass_token: str | None = None
    domain_descriptors: tuple[str, ...] = ()
    question_templates: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "domain_descriptors", tuple(self.domain_descriptors))
        object.__setattr__(self, "question_templates", tuple(self.question_templates))

    def resolved_templates(self) -> tuple[str, ...]:
        if self.question_templates:
            return self.question_templates
        if self.shift_kind == SHIFT_FINE_GRAINED:
            return DEFAULT_FINE_GRAINED_TEMPLATES
        return DEFAULT_CROSS_DOMAIN_TEMPLATES

    def validate(self) -> None:
        if not self.task_name:
            raise InvalidProfile("task_name must be nonempty")
        if self.shift_kind not in (SHIFT_FINE_GRAINED, SHIFT_CROSS_DOMAIN):
            raise InvalidProfile(
                f"shift_kind must be '{SHIFT_FINE_GRAINED}' or "
                f"'{SHIFT_CROSS_DOMAIN}', got '{self.shift_kind}'"
            )
        if self.shift_kind == SHIFT_FINE_GRAINED:
            if not (self.superclass_token or "").strip():
                raise InvalidProfile(
                    "fine_grained profiles need a nonempty superclass_token"
                )
            allowed = {"class", "superclass"}
        else:
            if not self.domain_descriptors:
                raise InvalidProfile(
                    "cross_domain profiles need at least one domain descriptor"
                )
            if any(not d.strip() for d in self.domain_descriptors):
                raise InvalidProfile("domain descriptors must be nonempty")
            allowed = {"class", "domain"}
        _validate_templates(self.resolved_templates(), allowed)

    @classmethod
    def from_dict(cls, doc: dict) -> "TaskProfile":
        """Build from a profile object; an unknown key or a value of the wrong
        type raises InvalidConfig naming it. Null means absent, as `to_dict`
        writes an unset superclass token, and a missing task_name or
        shift_kind is "", which `validate` rejects."""
        return cls(**{k: v for k, v in _checked(doc, _PROFILE_KEYS).items() if v is not None})

    def to_dict(self) -> dict:
        return {
            "task_name": self.task_name,
            "shift_kind": self.shift_kind,
            "superclass_token": self.superclass_token,
            "domain_descriptors": list(self.domain_descriptors),
            "question_templates": list(self.question_templates),
        }

    @classmethod
    def from_file(cls, path) -> "TaskProfile":
        return read_json(path, cls.from_dict)


_PROFILE_KEYS = {
    "task_name": (_string, ""),
    "shift_kind": (_string, ""),
    "superclass_token": (_string, None),
    "domain_descriptors": (_strings, None),
    "question_templates": (_strings, None),
}


@dataclass(frozen=True)
class TargetedPrompt:
    """One fully rendered prompt bound to one class."""

    prompt_id: str
    class_id: int
    class_name: str
    rendered_text: str
    template_index: int
    descriptor_index: int | None = None


def _validate_templates(templates, allowed: set[str]) -> None:
    for idx, tpl in enumerate(templates):
        names = _PLACEHOLDER_RE.findall(tpl)
        if names.count("class") != 1:
            raise InvalidProfile(
                f"template {idx} must contain the {{class}} placeholder "
                f"exactly once: {tpl!r}"
            )
        unknown = sorted(set(names) - allowed)
        if unknown:
            raise InvalidProfile(
                f"template {idx} uses unsupported placeholder(s) "
                f"{unknown} for this profile kind: {tpl!r}"
            )


def make_prompt_id(
    task_name: str, class_id: int, template_index: int, descriptor_index: int | None
) -> str:
    """Stable identifier used for cache keys and joins across stages."""
    suffix = "-" if descriptor_index is None else str(descriptor_index)
    return f"{task_name}/{class_id}/{template_index}/{suffix}"


def _expand(task_name: str, vocab: ClassVocabulary, templates, variants) -> list[TargetedPrompt]:
    """One prompt per class x template x variant, in that order. A variant is
    (descriptor index, {placeholder: text}); {class} takes the class name."""
    out: list[TargetedPrompt] = []
    for class_id, name in vocab.classes:
        for t_idx, tpl in enumerate(templates):
            for d_idx, fills in variants:
                text = tpl.replace("{class}", name)
                for placeholder, value in fills.items():
                    text = text.replace(placeholder, value)
                out.append(TargetedPrompt(make_prompt_id(task_name, class_id, t_idx, d_idx),
                                          class_id, name, text, t_idx, d_idx))
    return out


def render_prompts(profile: TaskProfile, vocab: ClassVocabulary) -> list[TargetedPrompt]:
    """Expand a task profile over a vocabulary.

    fine_grained emits len(vocab) * len(templates) prompts; cross_domain
    emits the full Cartesian product with the domain descriptors. Every
    class gets exactly the same number of prompts either way.
    """
    profile.validate()
    if profile.shift_kind == SHIFT_FINE_GRAINED:
        variants = [(None, {"{superclass}": profile.superclass_token})]
    else:
        variants = [(d_idx, {"{domain}": descriptor})
                    for d_idx, descriptor in enumerate(profile.domain_descriptors)]
    return _expand(profile.task_name, vocab, profile.resolved_templates(), variants)


def render_generic_prompts(
    vocab: ClassVocabulary,
    templates=DEFAULT_GENERIC_TEMPLATES,
    task_name: str = "generic",
) -> list[TargetedPrompt]:
    """Expand task-agnostic templates: no super-class, no domain descriptor."""
    templates = tuple(templates)
    _validate_templates(templates, allowed={"class"})
    return _expand(task_name, vocab, templates, [(None, {})])


# -- JSON-lines interchange ----------------------------------------------------

def write_prompts_jsonl(prompts: list[TargetedPrompt], path) -> None:
    """Write prompts as JSON-lines records {prompt_id, class_id, class_name, text}."""
    write_jsonl(path, ({
        "prompt_id": p.prompt_id,
        "class_id": p.class_id,
        "class_name": p.class_name,
        "text": p.rendered_text,
    } for p in prompts))


_PROMPT_FIELDS = {"prompt_id": str, "class_id": int, "class_name": (str, ""), "text": str}


def read_prompts_jsonl(path) -> list[dict]:
    """Read prompt records back; raises ParseError with the offending line."""
    return [rec for _, rec in read_jsonl(path, _PROMPT_FIELDS)]

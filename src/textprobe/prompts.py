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

import json
import re
from dataclasses import dataclass
from pathlib import Path

from .atomic import read_jsonl, write_jsonl
from .errors import InvalidProfile, ParseError

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
        object with a "classes" key holding either of the above.
        """
        raw = Path(path).read_text(encoding="utf-8")
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from exc
        if isinstance(doc, dict) and "classes" in doc:
            doc = doc["classes"]
        if not isinstance(doc, list):
            raise ParseError(f"{path}: expected a JSON array of class names")
        if doc and isinstance(doc[0], dict):
            try:
                pairs = sorted((int(e["class_id"]), str(e["class_name"])) for e in doc)
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{path}: bad class record ({exc})") from exc
            if [p[0] for p in pairs] != list(range(len(pairs))):
                raise ParseError(f"{path}: class_ids must be contiguous from 0")
            return cls(names=tuple(name for _, name in pairs))
        return cls(names=tuple(str(n) for n in doc))


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
        return cls(
            task_name=str(doc.get("task_name", "")),
            shift_kind=str(doc.get("shift_kind", "")),
            superclass_token=doc.get("superclass_token"),
            domain_descriptors=tuple(doc.get("domain_descriptors", ()) or ()),
            question_templates=tuple(doc.get("question_templates", ()) or ()),
        )

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
        raw = Path(path).read_text(encoding="utf-8")
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ParseError(f"{path}: expected a JSON object")
        return cls.from_dict(doc)


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


def render_prompts(profile: TaskProfile, vocab: ClassVocabulary) -> list[TargetedPrompt]:
    """Expand a task profile over a vocabulary.

    fine_grained emits len(vocab) * len(templates) prompts; cross_domain
    emits the full Cartesian product with the domain descriptors. Every
    class gets exactly the same number of prompts either way.
    """
    profile.validate()
    templates = profile.resolved_templates()
    out: list[TargetedPrompt] = []
    for class_id, name in vocab.classes:
        for t_idx, tpl in enumerate(templates):
            if profile.shift_kind == SHIFT_FINE_GRAINED:
                text = tpl.replace("{class}", name).replace(
                    "{superclass}", profile.superclass_token or ""
                )
                out.append(
                    TargetedPrompt(
                        prompt_id=make_prompt_id(profile.task_name, class_id, t_idx, None),
                        class_id=class_id,
                        class_name=name,
                        rendered_text=text,
                        template_index=t_idx,
                    )
                )
            else:
                for d_idx, descriptor in enumerate(profile.domain_descriptors):
                    text = tpl.replace("{class}", name).replace("{domain}", descriptor)
                    out.append(
                        TargetedPrompt(
                            prompt_id=make_prompt_id(
                                profile.task_name, class_id, t_idx, d_idx
                            ),
                            class_id=class_id,
                            class_name=name,
                            rendered_text=text,
                            template_index=t_idx,
                            descriptor_index=d_idx,
                        )
                    )
    return out


def render_generic_prompts(
    vocab: ClassVocabulary,
    templates=DEFAULT_GENERIC_TEMPLATES,
    task_name: str = "generic",
) -> list[TargetedPrompt]:
    """Expand task-agnostic templates: no super-class, no domain descriptor."""
    templates = tuple(templates)
    _validate_templates(templates, allowed={"class"})
    out: list[TargetedPrompt] = []
    for class_id, name in vocab.classes:
        for t_idx, tpl in enumerate(templates):
            out.append(
                TargetedPrompt(
                    prompt_id=make_prompt_id(task_name, class_id, t_idx, None),
                    class_id=class_id,
                    class_name=name,
                    rendered_text=tpl.replace("{class}", name),
                    template_index=t_idx,
                )
            )
    return out


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

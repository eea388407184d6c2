"""Exception types shared across the package.

Everything raised on purpose derives from TextProbeError, so callers can
catch one base class at pipeline boundaries. Each class carries the CLI exit
code it maps to in `exit_code`: 2 configuration or input format (the
default), 3 network, 4 numeric or shape, 5 missing input.

`_checked` is the one checker of every input value: the JSON documents
(manifest, train config, synthetic space, task profile, class file,
classifier, bundle sidecar), each JSON-lines record and, through `_Config`,
each config dataclass field. It rejects unknown keys and passes each value
through a check that raises InvalidConfig (`config_number`, `_integer`,
`_whole`, `_float`, a `_rule` such as `_at_least`, `_string`, `_strings`,
`_list`, `_flag`, `_object`, `_expect`, `data._labels`, `train._numbers`).
"""

from __future__ import annotations

import functools
import sys
from dataclasses import fields


class TextProbeError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 2


# -- vector / numeric errors -------------------------------------------------

class ZeroVector(TextProbeError):
    """A vector with (near-)zero L2 norm where a direction is required."""
    exit_code = 4


class NonFiniteValue(TextProbeError):
    """NaN or Inf encountered where only finite values are allowed."""
    exit_code = 4


class ShapeMismatch(TextProbeError):
    """Operands, datasets or embedding matrices whose shapes do not line up,
    an empty vector among them."""
    exit_code = 4


class NonFiniteLoss(TextProbeError):
    """Training loss became NaN or Inf."""
    exit_code = 4

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


# -- configuration errors ----------------------------------------------------

class InvalidConfig(TextProbeError):
    """A configuration value, task profile or prompt template violates its
    documented range or invariants."""


def config_number(key: str, value, integral: bool = False):
    """`value` as given, or as an int when `integral`. Anything that is not a
    finite number (or not a whole number when `integral`) raises InvalidConfig
    naming `key`, so a mistyped config value exits 2, not with a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidConfig(f"{key} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, ±Infinity or an int no float holds
        raise InvalidConfig(f"{key} must be a finite number, got {value!r}")
    if integral and not float(value).is_integer():
        raise InvalidConfig(f"{key} must be an integer, got {value!r}")
    return int(value) if integral else value


_integer = functools.partial(config_number, integral=True)


def _whole(key, value) -> int:
    """An integer or a string of digits ("2" is 2), as the JSON-lines files take."""
    return _integer(key, int(value) if isinstance(value, str) and value.isdecimal() else value)


def _float(key, value) -> float:
    return float(config_number(key, value))


def _rule(number, holds, text: str):
    """A value check: a `number` that `holds`, else InvalidConfig "<key> <text>, got <value>"."""
    def check(key, value):
        value = number(key, value)
        if not holds(value):
            raise InvalidConfig(f"{key} {text}, got {value!r}")
        return value
    return check


def _at_least(low, number=_integer):
    """A value check: a `number` no less than `low`."""
    return _rule(number, lambda value: value >= low, f"must be >= {low}")


_positive = _rule(config_number, lambda value: value > 0, "must be > 0")


def _expect(kind: type, what: str):
    """A value check: the value must be a `kind`."""
    def check(key, value):
        if not isinstance(value, kind):
            raise InvalidConfig(f"{key} must be {what}, got {value!r}")
        return value
    return check


_string = _expect(str, "a string")
_flag = _expect(bool, "true or false")
_object = _expect(dict, "an object")
_list = _expect(list, "a list")


def _strings(key, value) -> list[str]:
    return [_string(f"{key}[{i}]", v) for i, v in enumerate(_list(key, value))]


def _checked(doc, table: dict, prefix: str = "") -> dict:
    """The values of the object `doc` passed through the checks of `table`
    (key -> (check, default)), defaults filled in. Where the default is None
    the key is optional and null means absent; where it is `...` the key is
    required. Keys are named with `prefix`."""
    unknown = sorted(set(_object(prefix.rstrip(".") or "the document", doc)) - set(table))
    if unknown:
        raise InvalidConfig("unknown key(s): " + ", ".join(repr(prefix + k) for k in unknown))
    values = {}
    for key, (check, default) in table.items():
        value = doc.get(key, default)
        if value is ...:
            raise InvalidConfig(f"missing key {prefix + key!r}")
        values[key] = value if value is None and default is None else check(prefix + key, value)
    return values


class _Config:
    """Base of a frozen dataclass whose `_CHECKS` maps each field to its check:
    building one checks every field, `from_dict` checks a mapping through
    `_checked` (keys named with `prefix`) and `to_dict` returns the fields."""

    def __post_init__(self):
        for f in fields(self):
            check = self._CHECKS[f.name]
            object.__setattr__(self, f.name, check(f.name, getattr(self, f.name)))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc, prefix: str = ""):
        return cls(**_checked(doc, {f.name: (cls._CHECKS[f.name], f.default)
                                    for f in fields(cls)}, prefix))


# -- data / format errors ----------------------------------------------------

class ParseError(TextProbeError):
    """A structured text file failed to parse; carries the line number."""

    def __init__(self, message: str, lineno: int | None = None):
        super().__init__(message)
        self.lineno = lineno


class FormatError(TextProbeError):
    """A binary or JSON artifact has the wrong magic, version, or layout."""


class TruncatedFile(TextProbeError):
    """A binary artifact ended before its declared payload."""


class UnknownClassId(TextProbeError):
    """A class id outside the vocabulary."""


class EmptyDataset(TextProbeError):
    """No usable records survived validation, or there are no rows to report."""


class MissingClassDescriptions(TextProbeError):
    """At least one vocabulary class ended up with zero descriptions."""


class MissingLabels(TextProbeError):
    """An embedding bundle without labels was used where labels are required."""
    exit_code = 5


class MissingInput(TextProbeError):
    """A required input file for the requested operation is absent."""
    exit_code = 5


# -- network errors ----------------------------------------------------------

class TransportError(TextProbeError):
    """Low-level transport failure; `transient` marks it as retryable, and
    `retry_after` holds the seconds the server asked the client to wait."""
    exit_code = 3

    def __init__(self, message: str, transient: bool = True,
                 retry_after: float | None = None):
        super().__init__(message)
        self.transient = transient
        self.retry_after = retry_after


class EndpointUnreachable(TextProbeError):
    """The completion endpoint kept failing after retries."""
    exit_code = 3

    def __init__(self, message: str, failed_prompt_ids: list[str] | None = None):
        super().__init__(message)
        self.failed_prompt_ids = list(failed_prompt_ids or [])


class MalformedResponse(TextProbeError):
    """The endpoint answered, but not with usable completions; a strict fetch
    lists every prompt that got no usable reply in `failed_prompt_ids`."""
    exit_code = 3

    def __init__(self, message: str, prompt_id: str | None = None,
                 failed_prompt_ids: list[str] | None = None):
        super().__init__(message)
        self.prompt_id = prompt_id
        self.failed_prompt_ids = list(failed_prompt_ids or [])

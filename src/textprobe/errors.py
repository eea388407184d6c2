"""Exception types shared across the package.

Everything raised on purpose derives from TextProbeError, so callers can
catch one base class at pipeline boundaries. Each class carries the CLI exit
code it maps to in `exit_code`: 2 configuration or input format (the
default), 3 network, 4 numeric or shape, 5 missing input.

`_checked` is the one checker of the JSON config documents (the run-all
manifest, TrainConfig, SyntheticSpaceConfig, TaskProfile, the class file):
it rejects unknown keys and passes each value through a check (`config_number`,
`_integer`, `_float`, `_at_least`, `_string`, `_strings`, `_list`, `_flag`,
`_object`, `_expect`) that raises InvalidConfig naming the key.
"""

from __future__ import annotations

import functools


class TextProbeError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 2


# -- vector / numeric errors -------------------------------------------------

class ZeroVector(TextProbeError):
    """A vector with (near-)zero L2 norm where a direction is required."""
    exit_code = 4


class DimensionMismatch(TextProbeError):
    """Operands have incompatible dimensions."""
    exit_code = 4


class EmptyVector(TextProbeError):
    """An operation that needs at least one component got an empty vector."""
    exit_code = 4


class NonFiniteValue(TextProbeError):
    """NaN or Inf encountered where only finite values are allowed."""
    exit_code = 4


class ShapeMismatch(TextProbeError):
    """Dataset / embedding-matrix shapes do not line up."""
    exit_code = 4


class NonFiniteLoss(TextProbeError):
    """Training loss became NaN or Inf."""
    exit_code = 4

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


# -- configuration errors ----------------------------------------------------

class InvalidConfig(TextProbeError):
    """A configuration value violates its documented range."""


class InvalidSmoothing(TextProbeError):
    """Label-smoothing coefficient outside [0, 1)."""


class InvalidProfile(TextProbeError):
    """A task profile or prompt template violates its invariants."""


def config_number(key: str, value, integral: bool = False):
    """`value` as given, or as an int when `integral`. Anything that is not a
    number (or not a whole number when `integral`) raises InvalidConfig
    naming `key`, so a mistyped config value exits 2, not with a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidConfig(f"{key} must be a number, got {value!r}")
    if integral and not float(value).is_integer():
        raise InvalidConfig(f"{key} must be an integer, got {value!r}")
    return int(value) if integral else value


_integer = functools.partial(config_number, integral=True)


def _float(key, value) -> float:
    return float(config_number(key, value))


def _at_least(low, number=_integer):
    """A value check: a `number` no less than `low`."""
    def check(key, value):
        value = number(key, value)
        if not value >= low:
            raise InvalidConfig(f"{key} must be >= {low}, got {value!r}")
        return value
    return check


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
    """No usable records survived validation."""


class MissingClassDescriptions(TextProbeError):
    """At least one vocabulary class ended up with zero descriptions."""


class MissingLabels(TextProbeError):
    """An embedding bundle without labels was used where labels are required."""
    exit_code = 5


class EmptyReport(TextProbeError):
    """Report rendering requested with zero rows."""


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

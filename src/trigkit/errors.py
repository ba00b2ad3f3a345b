"""Error codes and exception types shared across the toolkit.

Every failure surfaced to callers carries a stable, machine-readable code so
scripts and the CLI can branch on it without parsing prose. Loaders record
each finding in a :class:`DiagnosticSink`, a repeated entry through
:meth:`DiagnosticSink.first`, and raise the lot as one :class:`DocumentError`.
"""
from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

from .naming import is_identifier

__all__ = [
    "Diagnostic",
    "ToolkitError",
    "DocumentError",
    "format_diagnostic",
]

# ---------------------------------------------------------------------------
# Stable error codes
# ---------------------------------------------------------------------------
# Document and schema level
SYNTAX_ERROR = "SyntaxError"
UNSUPPORTED_SCHEMA_VERSION = "UnsupportedSchemaVersion"
WRONG_SCHEMA = "WrongSchema"
MISSING_FIELD = "MissingField"
INVALID_VALUE = "InvalidValue"
INVALID_IDENTIFIER = "InvalidIdentifier"
# Ontology
UNKNOWN_KIND = "UnknownKind"
UNKNOWN_CATEGORY = "UnknownCategory"
ILLEGAL_CATEGORY_FOR_KIND = "IllegalCategoryForKind"
DUPLICATE_NAME = "DuplicateName"
DANGLING_PARENT = "DanglingParent"
KIND_MISMATCH = "KindMismatch"
TAXONOMY_CYCLE = "TaxonomyCycle"
RESERVED_NAME = "ReservedName"
UNKNOWN_CONCEPT = "UnknownConcept"
UNKNOWN_PROPERTY = "UnknownProperty"
# Perception model
UNKNOWN_STAGE = "UnknownStage"
UNKNOWN_STAGE_PROPERTY = "UnknownStageProperty"
ILLEGAL_STAGE_FOR_CLASS = "IllegalStageForClass"
EMPTY_STAGES = "EmptyStages"
UNKNOWN_SENSOR_CLASS = "UnknownSensorClass"
# Relationships
UNKNOWN_RELATIONSHIP = "UnknownRelationship"
INCOMPATIBLE_PAIR = "IncompatiblePair"
# Generation and assessment
UNKNOWN_RATING = "UnknownRating"
MISSING_TEMPLATE = "MissingTemplate"
# Test-case composition
UNKNOWN_SENSOR = "UnknownSensor"
NO_COMPATIBLE_EVENT = "NoCompatibleEvent"
UNKNOWN_CONDITION = "UnknownCondition"
# CLI / configuration
EMPTY_CONFIG = "EmptyConfig"
MISSING_INPUT = "MissingInput"
UNUSABLE_PATH = "UnusablePath"


class Diagnostic(NamedTuple):
    """One validation finding, pinned to a source location when known."""

    severity: str  # "error": loaders record no other kind of finding
    code: str
    message: str
    file: str | None = None
    line: int | None = None


def format_diagnostic(diag: Diagnostic) -> str:
    loc = ""
    if diag.file:
        loc = diag.file if diag.line is None else f"{diag.file}:{diag.line}"
        loc = f" {loc}:"
    return f"{diag.severity} {diag.code}{loc} {diag.message}"


class ToolkitError(Exception):
    """Base error. ``code`` is stable and machine readable."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code

    def __str__(self) -> str:
        return f"{self.code}: {super().__str__()}"


class DocumentError(ToolkitError):
    """A document failed to parse or validate.

    Carries every diagnostic collected before the loader gave up; ``code``,
    ``file`` and ``line`` are those of the first, and ``str()`` is that
    diagnostic as :func:`format_diagnostic` renders it.
    """

    def __init__(self, diagnostics: list[Diagnostic]):
        self._first = first = diagnostics[0]
        super().__init__(first.code, first.message)
        self.file, self.line = first.file, first.line
        self.diagnostics = list(diagnostics)

    @classmethod
    def at(cls, code: str, message: str, file: str, line: int | None = None) -> DocumentError:
        """The error of a document rejected with one located diagnostic."""
        return cls([Diagnostic("error", code, message, file, line)])

    def __str__(self) -> str:
        return format_diagnostic(self._first)


_REQUIRED = object()  # the default of a reader's required field


class DiagnosticSink:
    """Accumulates the errors a loader finds while it walks a document."""

    def __init__(self, file: str | None = None):
        self.file = file
        self.items: list[Diagnostic] = []

    def error(self, code: str, message: str) -> None:
        self.items.append(Diagnostic("error", code, message, self.file))

    def raise_if_errors(self) -> None:
        if self.items:
            raise DocumentError(self.items)

    def first(self, seen: set, key, where: str, noun: str, label=repr) -> bool:
        """Whether ``key`` is new to ``seen``, which it is then added to; a
        repeat records ``DuplicateName`` as ``where: duplicate noun label(key)``,
        which reads ``'key'`` by default."""
        if key in seen:
            self.error(DUPLICATE_NAME, f"{where}: duplicate {noun} {label(key)}")
            return False
        seen.add(key)
        return True

    def distinct(self, entries, where: str, noun: str, label=repr) -> None:
        """Record each entry of ``entries`` that repeats an earlier one, as
        :meth:`first` does. None entries, already reported, are skipped."""
        if len(entries) > 1:
            seen: set = set()
            for entry in entries:
                if entry is not None:
                    self.first(seen, entry, where, noun, label)

    # Typed field readers. Each reads ``raw[key]`` from a parsed mapping and
    # never raises: a value that does not fit records a located error and
    # yields None (an empty container from ``collection``/``records``). An absent
    # field and an explicit null are the same; a field without a ``default``
    # is required. Messages are built only when an error is recorded.

    def collection(self, raw: dict, key: str, where: str = "", *, mapping: bool = False,
                   strings: bool = False, required: bool = False) -> list | dict:
        """The list at ``raw[key]`` (a mapping with ``mapping``), empty when
        absent. ``strings`` requires every entry to be a string and
        ``required`` rejects an empty value."""
        value = raw.get(key)
        kind = dict if mapping else list
        if isinstance(value, kind) and (value or not required) \
                and (not strings or all(map(isinstance, value, repeat(str)))):
            return value
        if value is not None or required:
            noun = ("non-empty " if required else "") + ("mapping" if mapping else "list")
            self.error(MISSING_FIELD if required else INVALID_VALUE,
                       f"{_field(where, key)} must be a {noun}"
                       + (" of strings" if strings else ""))
        return kind()

    def records(self, raw: dict, key: str, where: str = "", *,
                required: bool = False) -> list[tuple[str, dict]]:
        """``(location, entry)`` for each mapping in the list at ``raw[key]``;
        any other entry is an error."""
        prefix = f"{where}.{key}" if where else key
        out = []
        for i, entry in enumerate(self.collection(raw, key, where, required=required)):
            if isinstance(entry, dict):
                out.append((f"{prefix}[{i}]", entry))
            else:
                self.error(INVALID_VALUE, f"{prefix}[{i}] must be a mapping")
        return out

    def text(self, raw: dict, key: str, where: str = "", default=_REQUIRED, *,
             noun: str = "non-empty string") -> str | None:
        """The non-blank string at ``raw[key]``."""
        value = raw.get(key)
        if isinstance(value, str) and value.strip():
            return value
        if value is not None:
            self.error(INVALID_VALUE, f"{_field(where, key)} must be a {noun}")
        elif default is _REQUIRED:
            self.error(MISSING_FIELD, f"{_field(where, key)} is required")
        else:
            return default
        return None

    def identifier(self, raw: dict, key: str, where: str = "",
                   default=_REQUIRED) -> str | None:
        """The identifier (see :func:`~trigkit.naming.is_identifier`) at ``raw[key]``."""
        value = raw.get(key)
        if is_identifier(value):
            return value
        if value is None and default is not _REQUIRED:
            return default
        self.error(INVALID_IDENTIFIER,
                   f"{where}: {key} {value!r} is invalid" if where
                   else f"{key} {value!r} is invalid")
        return None

    def choice(self, raw: dict, key: str, table, where: str = "", default=_REQUIRED,
               *, code: str = INVALID_VALUE):
        """``table[raw[key]]`` for a dict ``table``, else the value itself when
        ``table`` contains it. ``code`` names the error for any other value."""
        value = raw.get(key)
        if value is None and default is not _REQUIRED:
            return default
        try:
            if value in table:
                return table[value] if isinstance(table, dict) else value
        except TypeError:  # unhashable: a list or mapping where a name belongs
            pass
        names = [str(option) for option in table]
        options = names[0] if len(names) == 1 else \
            ", ".join(names[:-1]) + " or " + names[-1]
        self.error(code, f"{_field(where, key)} must be {options}, got {value!r}")
        return None

    def int_in(self, raw: dict, key: str, lo: int, hi: int | None,
               where: str = "", default=_REQUIRED) -> int | None:
        """The integer in ``[lo, hi]`` (no upper bound when ``hi`` is None)
        at ``raw[key]``; booleans are not integers here."""
        value = raw.get(key)
        if isinstance(value, int) and not isinstance(value, bool) \
                and lo <= value and (hi is None or value <= hi):
            return value
        if value is None and default is not _REQUIRED:
            return default
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        self.error(INVALID_VALUE,
                   f"{_field(where, key)} must be an integer {bound}, got {value!r}")
        return None


def _field(where: str, key: str) -> str:
    """A field as messages name it: ``'key'`` at the top level, ``entry[i]:
    'key'`` inside a list entry, and ``section.key`` inside a named section."""
    if not where:
        return f"'{key}'"
    if where.endswith("]"):
        return f"{where}: '{key}'"
    return f"{where}.{key}"

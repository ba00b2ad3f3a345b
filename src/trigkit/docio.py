"""Document input/output.

Every data set the toolkit consumes or emits exists in two interchangeable
encodings with identical field names: a human-editable YAML form and a JSON
form for machine interchange. Each document carries an explicit ``schema``
string (``family@version``); loaders reject unknown families and versions so
stale files fail loudly instead of half-parsing.

Syntax errors are reported with their line/column. Canonical dumps are fully
deterministic: fixed key order, sorted collections (the per-family
serializers sort before calling in here), UTF-8, ``\\n`` line ends.

JSON is written by a one-pass writer, ``_json_text``, whose text equals
``json.dumps(doc, indent=2, ensure_ascii=False)`` for every value
``json.dumps`` accepts but a tuple subclass: a record is refused, not written
as a list. The stdlib only uses its C encoder when ``indent`` is
None; with an indent it runs a chain of Python generators, which takes 1.4
to 1.8 times as long on large catalogs and case sets. ``dump_bulk`` writes
the same text with ``orjson``, about ten times as fast, for a large document
of plain JSON types; it is imported on the first such call, as it costs a
few milliseconds to load.

YAML is composed by libyaml and built in one pass: ``_YAMLLoader`` resolves
plain scalars through a memo keyed by their text, one for each load, and
``_build`` makes the ``str``, ``seq`` and ``map`` nodes and the ``null``,
``bool``, ``int``, ``float``, ``binary`` and ``timestamp`` scalars. Any
other document (an alias, a ``<<`` or ``=`` key, a non-scalar key, another
tag) or any error goes whole to PyYAML's ``SafeConstructor``, which builds
the same value or raises the same error as ``yaml.CSafeLoader``. An error
that is not a ``YAMLError``, such as a date with month 13, becomes a
``ConstructorError`` at its node, located as a syntax error is. A fresh
process loads the bundled documents in about two thirds of the time
``yaml.CSafeLoader`` takes.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring as _encode_str
from pathlib import Path

import yaml

from .errors import (
    SYNTAX_ERROR,
    UNSUPPORTED_SCHEMA_VERSION,
    WRONG_SCHEMA,
    DocumentError,
)

__all__ = [
    "parse_document",
    "read_text",
    "read_document",
    "dump_document",
    "dump_bulk",
    "detect_format",
    "check_schema",
]

_STR = "tag:yaml.org,2002:str"
#: scalar tag -> the ``SafeConstructor`` method that builds it
_SCALARS = {f"tag:yaml.org,2002:{name}": getattr(yaml.constructor.SafeConstructor,
                                                 f"construct_yaml_{name}")
            for name in ("null", "bool", "int", "float", "binary", "timestamp")}


def _build(loader, node, seen: set):
    """``node`` as ``SafeConstructor`` builds it. A node it cannot build alone
    (a node seen twice, another tag, a tag on the wrong kind of node) raises."""
    if node.__class__ is yaml.ScalarNode:
        return node.value if node.tag == _STR else _SCALARS[node.tag](loader, node)
    if id(node) in seen:  # an alias, which ``SafeConstructor`` builds as one object
        raise LookupError(node.tag)
    seen.add(id(node))
    if node.tag == "tag:yaml.org,2002:seq" and node.__class__ is yaml.SequenceNode:
        return [_build(loader, item, seen) for item in node.value]
    if node.tag == "tag:yaml.org,2002:map" and node.__class__ is yaml.MappingNode:
        return {_build(loader, key, seen): _build(loader, value, seen)
                for key, value in node.value}
    raise LookupError(node.tag)


class _YAMLLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):  # libyaml if built
    def __init__(self, stream):
        super().__init__(stream)
        self._plain_tags: dict[str, str] = {}  # plain scalar text -> its resolved tag

    def resolve(self, kind, value, implicit):
        if kind is yaml.ScalarNode and implicit[0]:  # a plain scalar: its text decides
            tag = self._plain_tags.get(value)
            if tag is None:
                tag = self._plain_tags[value] = super().resolve(kind, value, implicit)
            return tag
        return super().resolve(kind, value, implicit)

    def construct_document(self, node):
        try:
            return _build(self, node, set())
        except Exception:  # noqa: BLE001 - ``SafeConstructor`` builds it or raises
            pass  # out here, its error does not carry this one as its context
        return super().construct_document(node)

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except yaml.YAMLError:
            raise
        except Exception as exc:  # a scalar its tag refuses, such as 2001-13-45
            raise yaml.constructor.ConstructorError(
                None, None, f"cannot read {node.value!r} as {node.tag.rpartition(':')[2]}",
                node.start_mark) from exc


def detect_format(path: str | Path) -> str:
    suffix = Path(path).suffix.lower()
    if suffix in (".yaml", ".yml"):
        return "yaml"
    if suffix == ".json":
        return "json"
    raise DocumentError.at(SYNTAX_ERROR, f"cannot infer document format from suffix "
                           f"{suffix!r}", str(path))


def parse_document(text: str, *, fmt: str = "yaml", source: str = "<document>") -> dict:
    """Parse ``text`` into a mapping, reporting syntax errors with positions."""
    if fmt == "yaml":
        try:
            doc = yaml.load(text, Loader=_YAMLLoader)
        except yaml.YAMLError as exc:
            line = col = None
            mark = getattr(exc, "problem_mark", None)
            if mark is not None:
                line, col = mark.line + 1, mark.column + 1
            problem = getattr(exc, "problem", None) or str(exc)
            msg = problem if col is None else f"{problem} (column {col})"
            raise DocumentError.at(SYNTAX_ERROR, msg, source, line) from exc
    elif fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentError.at(SYNTAX_ERROR, f"{exc.msg} (column {exc.colno})", source,
                                   exc.lineno) from exc
    else:
        raise ValueError(f"unsupported format: {fmt!r}")
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise DocumentError.at(WRONG_SCHEMA, f"top level must be a mapping, got "
                               f"{type(doc).__name__}", source)
    return doc


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``, with universal newlines. A byte that is not
    UTF-8 is a ``SyntaxError`` located at its line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # ``exc.object`` holds the whole file
        data, start = exc.object, exc.start
        column = start - data.rfind(b"\n", 0, start)
        raise DocumentError.at(SYNTAX_ERROR, f"not UTF-8 text: {exc.reason} (column {column})",
                               str(path), data.count(b"\n", 0, start) + 1) from None


def read_document(path: str | Path) -> dict:
    p = Path(path)
    return parse_document(read_text(p), fmt=detect_format(p), source=str(p))


def check_schema(doc: dict, expected: str, *, source: str = "<document>") -> None:
    """Validate the ``schema`` marker against ``expected`` (``family@version``)."""
    declared = doc.get("schema")
    if not isinstance(declared, str):
        raise DocumentError.at(WRONG_SCHEMA,
                               f"missing 'schema' marker; expected {expected!r}", source)
    if declared == expected:
        return
    family = expected.split("@", 1)[0]
    if declared.split("@", 1)[0] == family:
        raise DocumentError.at(UNSUPPORTED_SCHEMA_VERSION, f"schema {declared!r} is not "
                               f"supported; this build reads {expected!r}", source)
    raise DocumentError.at(WRONG_SCHEMA,
                           f"expected schema {expected!r}, found {declared!r}", source)


# ---------------------------------------------------------------------------
# Canonical dumps
# ---------------------------------------------------------------------------

def dump_document(doc: dict, *, fmt: str = "yaml") -> str:
    if fmt == "yaml":
        text = yaml.safe_dump(
            doc,
            sort_keys=False,
            allow_unicode=True,
            default_flow_style=False,
            width=88,
        )
        return text if text.endswith("\n") else text + "\n"
    if fmt == "json":
        return _json_text(doc, "\n") + "\n"
    raise ValueError(f"unsupported format: {fmt!r}")


def dump_bulk(doc: dict) -> str:
    """``dump_document(doc, fmt="json")`` for a ``doc`` of str keys and str,
    int, bool, None, list, tuple and dict values, written by ``orjson`` where
    it can. It cannot write a lone surrogate, an int beyond 64 bits, nesting
    deeper than 255 levels or a record; ``dump_document`` writes or refuses
    those."""
    import orjson

    try:
        return orjson.dumps(doc, option=orjson.OPT_INDENT_2
                            | orjson.OPT_APPEND_NEWLINE).decode()
    except orjson.JSONEncodeError:
        return dump_document(doc, fmt="json")


_INFINITY = float("inf")


def _key_text(key) -> str:
    """A mapping key as the stdlib coerces it, before it is quoted."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _json_text(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _json_text(value, indent: str) -> str:
    """``value`` as ``json.dumps(indent=2, ensure_ascii=False)`` writes it, where
    ``indent`` is the line break plus the indent of the line ``value`` is on.

    Each container is one join over its items; string items are encoded in
    place, by the stdlib's C string encoder, without a recursive call.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        return "{" + inner + ("," + inner).join([
            _encode_str(key if key.__class__ is str else _key_text(key)) + ": "
            + (_encode_str(item) if item.__class__ is str else _json_text(item, inner))
            for key, item in value.items()]) + indent + "}"
    if isinstance(value, list) or value.__class__ is tuple:  # records fall through
        if not value:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([
            _encode_str(item) if item.__class__ is str else _json_text(item, inner)
            for item in value]) + indent + "]"
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} "
                    f"is not JSON serializable")

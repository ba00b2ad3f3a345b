"""Document input/output.

The toolkit reads each document as YAML or as JSON, with identical field
names, and writes every document it emits as JSON. Each document carries an
explicit ``schema`` string (``family@version``); loaders reject unknown
families and versions so stale files fail loudly instead of half-parsing.

Syntax errors are reported with their line/column. Canonical dumps are fully
deterministic: fixed key order, sorted collections (the per-family
serializers sort before calling in here), UTF-8, ``\\n`` line ends.

JSON is written by a one-pass writer, ``_json_text``, for the plain values
trigkit's documents hold: a ``dict`` with ``str`` keys, a ``list``, a
``tuple``, a ``str``, an ``int``, a ``bool``, ``None`` and a finite
``float``, each of exactly that class. Its text equals
``json.dumps(doc, indent=2, ensure_ascii=False)``, and reads back as ``doc``
with tuples as lists. Anything else, such as a record, an enum member, a
subclass, NaN or a non-``str`` key, is refused with a ``TypeError``. The
stdlib only uses its C encoder when ``indent`` is None; with an indent it
runs a chain of Python generators, which takes 1.4 to 1.8 times as long on
large catalogs and case sets. ``dump_bulk`` returns the same text as UTF-8
bytes, made by ``orjson`` ten to fifteen times as fast, for a large
document of plain values; the bytes go to disk as they are. ``orjson`` is
imported on the first such call, so ``cli`` calls it only for a catalog or
case set large enough to repay that import: see ``cli._BULK_CONDITIONS``
and ``cli._BULK_CASES`` for the sizes and the measurements behind them.

JSON text is parsed by the stdlib, which decodes a ``\\uD800``-``\\uDFFF``
escape that is not half of a pair into a lone surrogate, a character no
UTF-8 file can hold. Such an escape is refused as a located syntax error,
so no document read can stop a later write half-way.

YAML is read by ``_read_block``, a line reader for the block YAML of
trigkit's own documents: block mappings and sequences (a sequence may sit
at its key's column), one-line flow sequences and mappings of scalars,
plain scalars that PyYAML reads as text (the first character a letter,
``_`` or ``/``, and not a YAML 1.1 bool or null word), decimal ints,
single-quoted scalars, double-quoted ones without a backslash, and comment
lines. Any other text goes whole to PyYAML's safe loader (libyaml's where
it is built), which reads it or refuses it as it always has: an anchor, a
tag, a block scalar, a ``#`` after a value, a tab, a ``\\r``, a byte-order
mark, another line break, a continuation line, a key of over 1,000
characters, a float, a date, and every error. An error that is not a
``YAMLError``, such as a date with month 13, becomes a ``ConstructorError``
at its node, located as a syntax error is. PyYAML is imported on the first
such text, so no command on the bundled project imports it.
"""
from __future__ import annotations

import functools
import json
import re
from json.encoder import encode_basestring as _encode_str
from pathlib import Path

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

#: every character but ``\n`` that libyaml reads as a line break, a blank
#: or a byte-order mark, or refuses: a control character, a surrogate, a
#: non-character
_FOREIGN = re.compile("[^\n -~\xa0-\u2027\u202a-\ud7ff\ue000-\ufefe\uff00-\ufffd"
                      "\U00010000-\U0010ffff]")
#: a block line: its indent, ``-`` if it opens a sequence entry, the key of
#: the mapping entry it opens, and the rest of the line
_LINE = re.compile(r"( *)(?:(-)(?: +|$))?(?:([\w/-][^:#]*)(?<! ):(?: +|$))?(.*)")
#: a quoted scalar, or a plain one that may hold a ``:`` before anything but
#: a blank, a ``:`` or an indicator, as libyaml reads ``kind:X`` in a flow
_FLOW_SCALAR = (r"'(?:[^']|'')*'|\"[^\"\\]*\"|[^ ,'\"\[\]{}#?:]"
                r"(?:(?:[^,\[\]{}#?:]|:(?=[^ ,\[\]{}#?:]))*[^ ,\[\]{}#?:])?")
#: an item of a one-line flow sequence, and an entry of a flow mapping
_FLOW_ITEM = re.compile(rf" *({_FLOW_SCALAR}) *(?:,|$)")
_FLOW_PAIR = re.compile(rf" *({_FLOW_SCALAR}): +({_FLOW_SCALAR}) *(?:,|$)")
_QUOTED = re.compile(r"'((?:[^']|'')*)'|\"([^\"\\]*)\"")
_INT = re.compile(r"-?(?:0|[1-9][0-9]*)")
_TEXT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_/")
#: plain words that YAML 1.1 reads as a bool or null
_WORDS = frozenset("yes Yes YES no No NO true True TRUE false False FALSE "
                   "on On ON off Off OFF null Null NULL".split())
#: the longest key read here; libyaml refuses a key of over 1,024 characters
_KEY_LIMIT = 1000


def _scalar(text: str):
    """The str or int that PyYAML reads a one-line scalar ``text`` as, or
    ``ValueError`` for a scalar outside the subset."""
    if text[0] in _TEXT_START:
        if ": " in text or " #" in text or text[-1] == ":" or text in _WORDS:
            raise ValueError(text)
        return text
    if _INT.fullmatch(text):
        return int(text)
    quoted = _QUOTED.fullmatch(text)
    if quoted is None:
        raise ValueError(text)
    return quoted[2] if quoted[1] is None else quoted[1].replace("''", "'")


def _key(text: str):
    """``_scalar(text)`` for a key, which libyaml refuses when it is long."""
    if len(text) > _KEY_LIMIT:
        raise ValueError(text)
    return _scalar(text)


def _flow(text: str, pattern: re.Pattern) -> list:
    """The matches of ``pattern`` that make up the one-line flow
    collection ``text``, one per item; ``ValueError`` if they do not."""
    inner, matches, at = text[1:-1], [], 0
    while at < len(inner):
        match = pattern.match(inner, at)
        if match is None:
            raise ValueError(text)
        matches.append(match)
        at = match.end()
    return matches


def _value(text: str, memo: dict):
    """The value of ``text``, the rest of a line after its key or ``-``. A
    scalar's value is kept in ``memo`` under ``text``."""
    first, stripped = text[0], text.rstrip(" ")
    if first == "[" and stripped[-1] == "]":
        return [_scalar(match[1]) for match in _flow(stripped, _FLOW_ITEM)]
    if first == "{" and stripped[-1] == "}":
        return {_key(match[1]): _scalar(match[2]) for match in _flow(stripped, _FLOW_PAIR)}
    value = memo[text] = _scalar(stripped)
    return value


def _read_block(text: str):
    """``text`` as PyYAML reads it, for a document of the block subset the
    module docstring describes; ``ValueError`` for any other text."""
    if _FOREIGN.search(text) is not None:
        raise ValueError("a character outside the subset")
    root, keys, values = [None], {}, {}  # the root, and the scalars read so far
    stack = []  # (column, collection) of each open collection, innermost last
    # where a nested collection would go: (container, key, column of the
    # entry that opened it, whether that entry is a sequence's)
    slot = root, 0, -1, True
    for line in text.split("\n"):
        match = _LINE.match(line)
        indent, dash, key, rest = match.groups()
        if dash is None and key is None and (not rest or rest[0] == "#"):
            continue  # a blank or comment line
        column = len(indent)
        if slot is not None:
            container, at, opened_at, in_sequence = slot
            slot = None
            if column > opened_at or (column == opened_at and dash and not in_sequence):
                container[at] = [] if dash else {}
                stack.append((column, container[at]))
        while stack and stack[-1][0] > column:
            stack.pop()
        if not stack or stack[-1][0] != column:
            raise ValueError(line)  # indented as no open collection is
        node = stack[-1][1]
        if dash:
            if node.__class__ is not list:
                raise ValueError(line)
            if key is not None:  # a mapping, which opens at its first key
                column = match.start(3)
                node.append({})
                node = node[-1]
                stack.append((column, node))
        elif node.__class__ is list:  # a sequence at its key's column ends
            stack.pop()
            if not stack or stack[-1][0] != column:
                raise ValueError(line)
            node = stack[-1][1]
        if key is not None:
            at = keys.get(key)
            if at is None:
                at = keys[key] = _key(key)
        elif dash:
            at = len(node)
            node.append(None)
        else:
            raise ValueError(line)  # a scalar where an entry belongs
        if rest:
            value = values.get(rest)
            node[at] = _value(rest, values) if value is None else value
        else:
            node[at] = None
            slot = node, at, column, key is None
    return root[0]


@functools.cache
def _pyyaml():
    """PyYAML and its safe loader (libyaml's where it is built), imported on
    first use. The loader raises a constructor's own error, such as a date
    with month 13, as a ``ConstructorError`` at its node."""
    import yaml

    class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        def construct_object(self, node, deep=False):
            try:
                return super().construct_object(node, deep)
            except yaml.YAMLError:
                raise
            except Exception as exc:  # a scalar its tag refuses, such as 2001-13-45
                raise yaml.constructor.ConstructorError(
                    None, None, f"cannot read {node.value!r} as "
                    f"{node.tag.rpartition(':')[2]}", node.start_mark) from exc

    return yaml, Loader


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
            doc = _read_block(text)
        except ValueError:  # outside the subset: PyYAML reads it or locates its error
            yaml, loader = _pyyaml()
            try:
                doc = yaml.load(text, Loader=loader)
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
        lone = _lone_surrogate(text)
        if lone is not None:
            raise DocumentError.at(SYNTAX_ERROR, lone[1], source, lone[0])
    else:
        raise ValueError(f"unsupported format: {fmt!r}")
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise DocumentError.at(WRONG_SCHEMA, f"top level must be a mapping, got "
                               f"{type(doc).__name__}", source)
    return doc


#: a run of backslashes, then ``uD`` and three hex digits: the text of a
#: ``\\uD800``-``\\uDFFF`` escape when the run is odd, the last backslash
#: being the escape's. Group 1 is the rest of the run, group 2 the digit
#: that tells a high half (8-B) from a low one (C-F). It starts with a
#: literal backslash, which the regex engine scans for quickly.
_SURROGATE_ESCAPE = re.compile(r"\\(\\*)u[dD]([89a-fA-F])[0-9a-fA-F]{2}")


def _lone_surrogate(text: str) -> tuple[int, str] | None:
    """The line and the problem of the first surrogate escape in the JSON
    ``text`` that is not half of a pair, or None. A text without a
    backslash, such as every document trigkit writes, costs one scan."""
    if "\\" not in text:
        return None
    lone = None
    high = None  # (start, end) of a high half that waits for its low half
    for match in _SURROGATE_ESCAPE.finditer(text):
        if len(match.group(1)) % 2:
            continue  # escaped backslashes, then text
        start = match.end(1) - 1
        if high is not None:
            if start == high[1] and match.group(2) in "cdefCDEF":
                high = None  # the low half of the pair
                continue
            lone = high[0]
            break
        if match.group(2) in "89abAB":
            high = start, match.end()
        else:
            lone = start
            break
    else:
        lone = None if high is None else high[0]
    if lone is None:
        return None
    column = lone - text.rfind("\n", 0, lone)
    return (text.count("\n", 0, lone) + 1,
            f"lone surrogate escape '{text[lone:lone + 6]}' (column {column})")


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

def dump_document(doc: dict) -> str:
    """``doc``, a mapping of plain values, as canonical JSON text."""
    return _json_text(doc, "\n") + "\n"


def dump_bulk(doc: dict) -> bytes:
    """``dump_document(doc)`` encoded as UTF-8, for a ``doc`` of plain values
    but floats, written by ``orjson`` where it can. It cannot write a lone
    surrogate, an int beyond 64 bits, nesting deeper than 255 levels, a
    record, a subclass or a non-``str`` key; ``dump_document`` writes or
    refuses those, and a lone surrogate then raises ``UnicodeEncodeError``,
    as writing that text would."""
    import orjson

    try:
        return orjson.dumps(doc, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE
                            | orjson.OPT_PASSTHROUGH_SUBCLASS)
    except orjson.JSONEncodeError:
        return dump_document(doc).encode("utf-8")


def _refuse(value, role: str = "Object"):
    """Raise the ``TypeError`` for a value, or a key, that is not plain."""
    raise TypeError(f"{role} of type {value.__class__.__name__} is not JSON serializable")


def _json_text(value, indent: str) -> str:
    """A plain ``value`` as ``json.dumps(indent=2, ensure_ascii=False)``
    writes it, where ``indent`` is the line break plus the indent of the line
    ``value`` is on; a ``TypeError`` for any other value.

    Each container is one join over its items; string items are encoded in
    place, by the stdlib's C string encoder, without a recursive call.
    """
    kind = value.__class__
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        return "{" + inner + ("," + inner).join([
            _encode_str(key if key.__class__ is str else _refuse(key, "Key")) + ": "
            + (_encode_str(item) if item.__class__ is str else _json_text(item, inner))
            for key, item in value.items()]) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([
            _encode_str(item) if item.__class__ is str else _json_text(item, inner)
            for item in value]) + indent + "]"
    if kind is str:
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int or (kind is float and value - value == 0):  # x - x is NaN for NaN and ±inf
        return repr(value)
    return _refuse(value)

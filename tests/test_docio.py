"""Document parsing, schema markers and canonical dumps."""

import gc
import json
import re
from collections.abc import Hashable
from enum import Enum, IntEnum
from pathlib import Path
from typing import NamedTuple

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import yaml_text

import trigkit.data
from trigkit import docio
from trigkit.data import REFERENCE_DOCUMENTS, data_path, reference_config

from trigkit.docio import (
    check_schema,
    detect_format,
    dump_bulk,
    dump_document,
    parse_document,
    read_document,
)
from trigkit.errors import Diagnostic, DocumentError


class TestParseDocument:
    def test_yaml_mapping(self):
        doc = parse_document("a: 1\nb: [x, y]\n")
        assert doc == {"a": 1, "b": ["x", "y"]}

    def test_json_mapping(self):
        doc = parse_document('{"a": 1}', fmt="json")
        assert doc == {"a": 1}

    def test_empty_text_becomes_empty_mapping(self):
        assert parse_document("") == {}
        assert parse_document("# only a comment\n") == {}

    @pytest.mark.parametrize("bad,line,column", [
        pytest.param("a: 1\nb: [1, 2\nc: 3\n", 3, 2, id="unclosed-flow-sequence"),
        pytest.param("a: 1\n  b: 2\n", 2, 4, id="mapping-in-scalar"),
        pytest.param("a: [\n", 2, 1, id="truncated-flow-sequence"),
        pytest.param("- a\nb: 1\n", 2, 1, id="mapping-after-sequence"),
        pytest.param("a: &x 1\nb: *y\n", 2, 4, id="undefined-alias"),
    ])
    def test_yaml_syntax_error_carries_line(self, bad, line, column):
        with pytest.raises(DocumentError) as excinfo:
            parse_document(bad, source="broken.yaml")
        diag = excinfo.value.diagnostics[0]
        assert diag.code == "SyntaxError"
        assert diag.file == "broken.yaml"
        assert diag.line == line
        assert diag.message.endswith(f"(column {column})")

    def test_json_syntax_error_carries_line_and_column(self):
        with pytest.raises(DocumentError) as excinfo:
            parse_document('{"a": 1,\n "b": }', fmt="json", source="broken.json")
        diag = excinfo.value.diagnostics[0]
        assert diag.code == "SyntaxError"
        assert diag.line == 2
        assert "column" in diag.message

    @pytest.mark.parametrize("text,line,column,escape", [
        pytest.param('{"a": "bad \\ud800 text"}', 1, 12, "\\ud800", id="high"),
        pytest.param('{"a": 1,\n "b": ["\\udfff"]}', 2, 9, "\\udfff", id="low"),
        pytest.param('{"a": "\\uDBFF\\\\uDC00"}', 1, 8, "\\uDBFF", id="high-then-text"),
        pytest.param('{"a": "\\\\\\ud800"}', 1, 10, "\\ud800", id="after-a-backslash"),
        pytest.param('{"\\ud800": 1}', 1, 3, "\\ud800", id="key"),
    ])
    def test_json_lone_surrogate_escape_is_a_located_syntax_error(self, text, line, column,
                                                                  escape):
        with pytest.raises(DocumentError) as excinfo:
            parse_document(text, fmt="json", source="broken.json")
        diag = excinfo.value.diagnostics[0]
        assert (diag.code, diag.file, diag.line) == ("SyntaxError", "broken.json", line)
        assert diag.message == f"lone surrogate escape '{escape}' (column {column})"

    def test_non_mapping_top_level_rejected(self):
        with pytest.raises(DocumentError, match="top level must be a mapping"):
            parse_document("- 1\n- 2\n")

    def test_unknown_format_is_a_programming_error(self):
        with pytest.raises(ValueError, match="unsupported format"):
            parse_document("a: 1", fmt="toml")


class TestDetectFormat:
    @pytest.mark.parametrize("name,expected", [
        ("doc.yaml", "yaml"),
        ("doc.yml", "yaml"),
        ("DOC.YAML", "yaml"),
        ("doc.json", "json"),
    ])
    def test_known_suffixes(self, name, expected):
        assert detect_format(name) == expected

    def test_unknown_suffix_rejected(self):
        with pytest.raises(DocumentError, match="cannot infer document format"):
            detect_format("doc.txt")


class TestCheckSchema:
    def test_matching_marker_passes(self):
        check_schema({"schema": "widgets@1"}, "widgets@1")

    def test_missing_marker(self):
        with pytest.raises(DocumentError, match="missing 'schema' marker"):
            check_schema({}, "widgets@1")

    def test_wrong_family(self):
        with pytest.raises(DocumentError) as excinfo:
            check_schema({"schema": "gadgets@1"}, "widgets@1")
        assert excinfo.value.code == "WrongSchema"

    def test_same_family_newer_version(self):
        with pytest.raises(DocumentError) as excinfo:
            check_schema({"schema": "widgets@2"}, "widgets@1")
        assert excinfo.value.code == "UnsupportedSchemaVersion"


def test_dump_preserves_key_order():
    doc = {"z": 1, "a": 2, "m": 3}
    text = dump_document(doc)
    assert text.index('"z"') < text.index('"a"') < text.index('"m"')


def test_dump_is_deterministic():
    doc = {"schema": "widgets@1", "values": list(range(20))}
    assert dump_document(doc) == dump_document(doc)


def test_write_then_read_yaml_and_json(tmp_path):
    doc = {"schema": "widgets@1", "name": "dusty", "tags": ["a", "b"]}
    for name in ("doc.yaml", "doc.json"):
        path = tmp_path / name
        text = yaml_text(doc) if detect_format(path) == "yaml" else dump_document(doc)
        path.write_text(text, encoding="utf-8")
        assert read_document(path) == doc


def test_read_reports_the_file_in_diagnostics(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(DocumentError) as excinfo:
        read_document(path)
    assert excinfo.value.diagnostics[0].file == str(path)


def test_read_locates_a_byte_that_is_not_utf8(tmp_path):
    # far past the first read buffer, after CRLF line ends
    path = tmp_path / "doc.yaml"
    path.write_bytes(b"schema: widgets@1\r\n" + b"note: ok\r\n" * 3000 + b"name: \x80\r\n")
    with pytest.raises(DocumentError) as excinfo:
        read_document(path)
    diag = excinfo.value.diagnostics[0]
    assert (diag.code, diag.file, diag.line, diag.message) == (
        "SyntaxError", str(path), 3002, "not UTF-8 text: invalid start byte (column 7)")


def test_read_translates_line_ends(tmp_path):
    path = tmp_path / "doc.yaml"
    path.write_bytes(b"schema: widgets@1\r\nname: |\r\n  a\r  b\r\n")
    assert read_document(path) == {"schema": "widgets@1", "name": "a\nb\n"}


@pytest.mark.parametrize("path", sorted(Path(trigkit.data.__file__).parent.glob("*.yaml")),
                         ids=lambda path: path.name)
def test_bundled_yaml_parses_as_the_pure_python_loader_reads_it(path):
    text = path.read_text(encoding="utf-8")
    assert parse_document(text) == yaml.load(text, Loader=yaml.SafeLoader)


# ---------------------------------------------------------------------------
# The YAML reader builds what PyYAML's safe loader builds
# ---------------------------------------------------------------------------

_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml's if built


def _pyyaml_outcome(text):
    """``repr`` of the mapping PyYAML reads ``text`` as (an empty document
    being an empty mapping), the code and message of a top level that is no
    mapping, or the type and text of what PyYAML raises."""
    try:
        value = yaml.load(text, Loader=_LOADER)
    except Exception as exc:  # noqa: BLE001 - a YAMLError, or a constructor's own error
        return type(exc), str(exc)
    if value is None:
        value = {}
    if not isinstance(value, dict):
        return "WrongSchema", f"top level must be a mapping, got {type(value).__name__}"
    return repr(value)


def _yaml_outcome(text):
    """``repr`` of what ``parse_document`` returns, or what it raises: a
    ``DocumentError``'s code and message when it has no cause, else the type
    and text of the PyYAML error it is located from. ``parse_document``
    locates a constructor's own error, such as a bad date, which PyYAML
    raises bare; that error is compared bare."""
    try:
        return repr(parse_document(text, source="doc.yaml"))
    except DocumentError as exc:
        cause = exc.__cause__
        if cause is None:
            return exc.diagnostics[0].code, exc.diagnostics[0].message
        cause = getattr(cause, "__cause__", None) or cause
        return type(cause), str(cause)


def _assert_read_as_csafeloader_reads(text):
    assert _yaml_outcome(text) == _pyyaml_outcome(text), text


_yaml_keys = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
              | st.sampled_from(["yes", "No", "~", "null", "0x1F", "0o17", "1_000", "1:30",
                                 "-.inf", ".NaN", "2001-12-14", "<<", "=", "", "a: b"]))
_yaml_scalars = (_yaml_keys | st.binary(max_size=12) | st.dates() | st.datetimes()
                 | st.text(alphabet="0123456789-:.+_ eE#&*!|>'\"%@`", max_size=12))
_yaml_documents = st.dictionaries(_yaml_keys, st.recursive(
    _yaml_scalars, lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_yaml_keys, children, max_size=4), max_leaves=20), max_size=5)


_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_yaml_documents)
def test_yaml_is_read_as_csafeloader_reads_it(value):
    """Each value, dumped in block, flow and default style, with and without
    its quotes, reads as the base loader (``yaml.CSafeLoader`` where libyaml
    is built) reads it, or fails as it does."""
    for flow in (False, True, None):
        text = yaml.dump(value, Dumper=_DUMPER, default_flow_style=flow,
                         allow_unicode=True)
        for document in (text, text.replace("'", ""), text.replace('"', "")):
            _assert_read_as_csafeloader_reads(document)


@pytest.mark.parametrize("text", [
    "a: &x [1]\nb: *x\n",
    "a: &s text\nb: *s\n",
    "base: &b {x: 1, y: 2}\nderived:\n  <<: *b\n  y: 3\n",
    "? [1, 2]\n: v\n",
    "? {a: 1}\n: v\n",
    "a: !!str {a: 1}\n",
    "a: !!map abc\n",
    "a: !!seq abc\n",
    "a: !!seq {}\n",
    "a: !!map []\n",
    "a: !foo x\n",
    "a: !!binary aGVsbG8=\n",
    "a: !!binary '#'\n",
    "a: !!set {x, y}\n",
    "a: !!omap [x: 1, y: 2]\n",
    "a: !!pairs [x: 1, x: 2]\n",
    "= : v\n",
    "a: &a [*a]\n",
    "a: 1\nb: 2\na: 3\n",
    "",
    "---\n...\n",
    "a: !!int 0x1F\nb: !!float 1\nc: !!null x\nd: !!bool yes\n",
    "a: !!int abc\n",
    "a: 2001-13-45\n",
    "a: !!timestamp abc\n",
    "a: [2001-12-14t21:59:43.10-05:00, 2002-12-14]\n",
    "a: [1_000, 0b101, 0o17, 017, 1:30, .inf, -.Inf, .nan, ~, Null, off]\n",
], ids=["alias", "scalar-alias", "merge", "seq-key", "map-key", "str-on-map",
        "map-on-scalar", "seq-on-scalar", "seq-on-map", "map-on-seq", "local-tag",
        "binary", "bad-binary", "set", "omap", "pairs", "value-key", "recursive",
        "duplicate-keys", "empty", "empty-doc", "explicit-tags", "bad-int", "bad-date",
        "bad-timestamp", "timestamps", "yaml11-scalars"])
def test_each_fallback_reads_as_csafeloader_reads_it(text):
    _assert_read_as_csafeloader_reads(text)


# Fragments at the edge of the subset ``docio._read_block`` reads. Each
# document is a tree of the plain ones, rendered as block lines, and each of
# its variants puts one trap into a value, a key, or a line of its own.
_PLAIN_KEYS = ["key", "name", "a b", "HE-1", "_k", "/k", "1", "-1"]
_PLAIN_VALUES = ["text", "a b", "", "0", "12", "-7", "kind:X", "a'b", "'it''s'", "'a, b'",
                 '"a, b"', "/abs/path-1", "_u", "x#c", "[]", "[a, b]", "[a,]",
                 "[kind:X, 'q, r', \"s\", 7]", "{}", "{a: 1, b: kind:X}", "{a: \"x, y\", c: 'd'}",
                 "y", "Yes it is"]
_TRAP_KEYS = ["On", "yes", "NULL", "~", "-0", "010", "1_0", "+1", "kind:X", "'q'", '"q"',
              "k" * 1000, "k" * 1025, "é", "a#b", "a,b", "key ", "x y:z"]
_TRAP_VALUES = ["yes", "On", "NULL", "~", "-0", "010", "1_0", "+1", "1.5", "2001-12-14", "x:",
                "a: b", "x #c", "[ ]", "[a, b, ]", "[a, , b]", "[,]", "[a, [b]]", "[a: b]",
                "[k:, x]", "[a?b]", "[010, On]", "{a: 1, }", "{a}", "{a: }", "{a:b}", "{a : 1}",
                "{On: x}", "{a: ~}", "&a x", "*a", "!!str 1", "|", ">", "x\ty", "x\ry", "x\x85y",
                "x\u2028y", "é", "\U0001f600", "x\xa0", "['a' b]", "k" * 1025, "- x",
                "x ]", '"a\\b"', "'a", "x  "]
_TRAP_LINES = ["key:", "key :", "key:x", "-", "- ", "- text", "  more indented", "# c", "",
               "   # c", "---", "...", "\tkey: v", "key: v\r", "? key", "- - x", "x"]
_EDITS = ([("value", trap) for trap in _TRAP_VALUES] + [("key", trap) for trap in _TRAP_KEYS]
          + [("line", trap) for trap in _TRAP_LINES]
          + [("indent", " "), ("indent", ""), ("bom", "\ufeff")])
_LINE_PARTS = re.compile(r"( *(?:- |-$)?)(?:([^ :][^:]*):)?(.*)")

_plain_nodes = st.recursive(
    st.sampled_from(_PLAIN_VALUES), lambda children: st.lists(children, min_size=1, max_size=3)
    | st.lists(st.tuples(st.sampled_from(_PLAIN_KEYS), children), min_size=1, max_size=3),
    max_leaves=10)


def _block_lines(node, column, step, out):
    """``node`` (a scalar's text, a list of (key, node) pairs for a mapping or
    a list of nodes for a sequence) as block lines at ``column``, each level
    ``step`` columns in. An odd ``step`` puts a key's sequence at the key's
    column and a sequence's mapping on its ``-`` line."""
    pad = " " * column
    for child in node:
        key, child = child if isinstance(child, tuple) else ("-", child)
        head = pad + key + ("" if key == "-" else ":")
        if isinstance(child, str):
            out.append(f"{head} {child}")
        elif key == "-" and step % 2 and isinstance(child[0], tuple):
            start = len(out)
            _block_lines(child, column + 2, step, out)
            out[start] = pad + "- " + out[start][column + 2:]
        else:
            out.append(head)
            at_key = key != "-" and step % 2 and not isinstance(child[0], tuple)
            _block_lines(child, column + (0 if at_key else step), step, out)
    return out


def _edited(lines, edit, at):
    """``lines`` joined, with ``edit`` made at line ``at`` (modulo their count)."""
    kind, trap = edit
    at %= len(lines)
    head, key, rest = _LINE_PARTS.fullmatch(lines[at]).groups()
    if kind == "line":
        lines.insert(at, trap)
    elif kind == "indent":  # one column in, or out
        lines[at] = trap + lines[at] if trap or lines[at][:1] != " " else lines[at][1:]
    elif kind == "key":
        lines[at] = f"{head}{trap}:{rest if key else ' ' + rest}"
    elif kind == "value":
        lines[at] = f"{head}{key + ':' if key else ''} {trap}"
    return ("\ufeff" if kind == "bom" else "") + "\n".join(lines) + "\n"


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_PLAIN_KEYS), _plain_nodes), min_size=1, max_size=4),
       st.integers(1, 4), st.lists(st.integers(0, 40), min_size=1, max_size=8))
def test_the_line_reader_reads_as_pyyaml_or_declines(top, step, places):
    """The reader declines each variant of a document, or reads it as PyYAML
    reads a variant that PyYAML does not raise on."""
    lines = _block_lines(top, 0, step, [])
    for index, edit in enumerate([("none", "")] + _EDITS):
        text = _edited(list(lines), edit, places[index % len(places)])
        try:
            value = docio._read_block(text)
        except ValueError:
            continue
        assert repr(value) == repr(yaml.load(text, Loader=_LOADER)), text


def test_the_line_reader_reads_every_bundled_document(tmp_path):
    """Every bundled document, and a project config that names its inputs by
    absolute path as the CLI tests write it, is read without PyYAML."""
    texts = [data_path(name).read_text(encoding="utf-8") for name in REFERENCE_DOCUMENTS]
    config = read_document(reference_config())
    for directory in (data_path("project.yaml").parent, tmp_path):
        config["inputs"] = {name: str(directory / file) for name, file in config["inputs"].items()}
        texts.append(yaml_text(config))
    for text in texts:
        assert repr(docio._read_block(text)) == repr(yaml.load(text, Loader=_LOADER))


def test_an_alias_is_one_object():
    doc = parse_document("a: &x [1]\nb: *x\n")
    assert doc["a"] is doc["b"]


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                    reason="PyYAML's pure-Python composer recurses once per level")
def test_deep_nesting_is_read():
    doc = parse_document("a: " + "[" * 3000 + "x" + "]" * 3000 + "\n")
    value, depth = doc["a"], 0
    while isinstance(value, list):
        value, depth = value[0], depth + 1
    assert (value, depth) == ("x", 3000)


@pytest.mark.parametrize("text", ["a: 1\nb: [xx, 2001-13-45]\n",
                                  "a: &x [1]\nb: [*x, 2001-13-45]\n"],
                         ids=["one-pass", "fallback"])
def test_a_value_its_tag_refuses_is_located(text):
    """A scalar ``SafeConstructor`` raises on, such as a date with month 13,
    is a ``SyntaxError`` at its line and column, whichever way it is built."""
    with pytest.raises(DocumentError) as caught:
        parse_document(text, source="doc.yaml")
    assert caught.value.diagnostics == [Diagnostic(
        "error", "SyntaxError", "cannot read '2001-13-45' as timestamp (column 9)",
        "doc.yaml", 2)]
    assert isinstance(caught.value.__cause__.__cause__, ValueError)


def test_reading_leaves_no_garbage():
    texts = [path.read_text(encoding="utf-8") for path in
             sorted(Path(trigkit.data.__file__).parent.glob("*.yaml"))]
    texts += ["a: &x [1]\nb: *x\n", "base: &b {x: 1}\nderived: {<<: *b}\n"]
    gc.collect()
    for text in texts:
        parse_document(text)
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# The JSON writer writes plain values as json.dumps(indent=2,
# ensure_ascii=False) does, and refuses every other value
# ---------------------------------------------------------------------------

class _Level(IntEnum):
    LOW = 1
    HIGH = -20


class _Shade(str, Enum):
    DARK = "dark"
    ODD = 'qu"o\\te\u00e9'


class _Phase(Enum):
    DAWN = 0.5


# The subclasses print differently from their base, as a writer that calls
# str() or repr() on them would show.
class _Text(str):
    def __str__(self):
        return "text"


class _Count(int):
    def __repr__(self):
        return "count"

    __str__ = __repr__


class _Ratio(float):
    def __repr__(self):
        return "ratio"

    __str__ = __repr__


class _Table(dict):
    pass


class _Row(list):
    pass


class _Pair(NamedTuple):
    left: int
    right: str


_TRICKY_TEXT = ["", '"', "\\", "\x00\x1f\x7f", "line\nbreak\ttab\r", "\u2028\u2029",
                "caf\u00e9 \u6f22\u5b57 \U0001f600", "\ud800"]
_TRICKY_FLOATS = [0.0, -0.0, 1e308, 5e-324, 0.1, -1.5e-7]
_texts = st.text() | st.sampled_from(_TRICKY_TEXT)
_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_TRICKY_FLOATS)
_ints = st.integers() | st.integers(min_value=-10**60, max_value=10**60)
_scalars = st.none() | st.booleans() | _ints | _floats | _texts
# values json.dumps rejects too
_bad_values = st.sampled_from([object(), {1, 2}, b"bytes", 1j, frozenset()])
#: values that are not plain, each of another kind
_NOT_PLAIN = [float("nan"), float("inf"), float("-inf"), _Count(3), _Ratio(0.5), _Text("a"),
              _Row([1]), _Table(a=1), _Level.LOW, _Shade.ODD, _Phase.DAWN, _Pair(1, "a"),
              Diagnostic("error", "Code", "text")]
#: plain values that are no key
_NOT_STR_KEYS = [1, -7, None, True, 2.5, (1, "a")]


def _documents(leaves):
    def containers(children):
        items = st.lists(children, max_size=5)
        return items | items.map(tuple) | st.dictionaries(_texts, children, max_size=5)
    return st.recursive(leaves, containers, max_leaves=40)


def _stdlib(value):
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


def _outcome(write, value):
    try:
        return write(value)
    except TypeError as exc:
        return type(exc), str(exc)


def _listed(value):
    """``value`` with each tuple in it a list, as JSON reads it back."""
    if isinstance(value, dict):
        return {key: _listed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_listed(item) for item in value]
    return value


@settings(max_examples=200)
@given(_documents(_scalars))
def test_json_dump_is_the_stdlib_indented_text(value):
    assert dump_document(value) == _stdlib(value)


@settings(max_examples=200)
@given(st.dictionaries(_texts, _documents(_scalars), max_size=5))
def test_json_dump_reads_back_as_written(doc):
    text = dump_document(doc)
    assert text.endswith("\n")
    assert parse_document(text, fmt="json") == _listed(doc)


@settings(max_examples=100)
@given(_documents(_scalars | _bad_values))
def test_json_dump_raises_as_the_stdlib_does(value):
    assert _outcome(dump_document, value) == _outcome(_stdlib, value)


@pytest.mark.parametrize("bad,kind", [({"a": [1, object()]}, "object"), ({(1, 2): 1}, "tuple"),
                                      ([{1, 2}], "set")], ids=["value", "key", "set"])
def test_json_dump_rejects_what_the_stdlib_rejects(bad, kind):
    for write in (_stdlib, dump_document):
        with pytest.raises(TypeError, match=rf"\b{kind}\b"):
            write(bad)


def _planted(bad, as_key, path, siblings):
    """A document that holds ``bad``, as a key or as a value, inside one
    container for each entry of ``path``, each beside a plain sibling."""
    node = {bad: "value"} if as_key else bad
    for kind, sibling in zip(path, siblings * len(path)):
        node = ({"sibling": sibling, "node": node} if kind == "dict"
                else [sibling, node] if kind == "list" else (node, sibling))
    return {"document": node}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(["dict", "list", "tuple"]), max_size=8),
       st.lists(_scalars, min_size=1, max_size=3))
def test_json_dump_refuses_what_is_not_plain(path, siblings):
    """Every kind of value that is not plain, at the depth drawn, as a value
    and (where it is hashable) as a key, is a ``TypeError`` that names its
    type. ``dump_bulk`` refuses each too, but for an enum or a non-finite
    float as a value, which orjson writes and no trigkit document holds."""
    planted = [(bad, False) for bad in _NOT_PLAIN] + [
        (bad, True) for bad in _NOT_PLAIN + _NOT_STR_KEYS if isinstance(bad, Hashable)]
    for bad, as_key in planted:
        doc = _planted(bad, as_key, path, siblings)
        with pytest.raises(TypeError, match=rf"\b{type(bad).__name__}\b"):
            dump_document(doc)
        if as_key or not (isinstance(bad, Enum) or bad.__class__ is float):
            with pytest.raises(TypeError):
                dump_bulk(doc)


@pytest.mark.parametrize("record", [_Pair(1, "a"), Diagnostic("error", "Code", "text")],
                         ids=["namedtuple", "trigkit-record"])
def test_json_dump_refuses_a_record(record):
    """The stdlib writes a tuple subclass as a list; a record that reaches
    the writer is a mistake, so it is refused, wherever it sits."""
    for document in (record, {"records": [record]}):
        with pytest.raises(TypeError, match=f"Object of type {type(record).__name__} "
                                            "is not JSON serializable"):
            dump_document(document)
    assert dump_document({"plain": tuple(record)}) == _stdlib({"plain": list(record)})


def test_json_dump_of_deep_nesting():
    value = "leaf"
    for depth in range(200):
        value = [value, {}] if depth % 2 else {str(depth): value, "t": ()}
    assert dump_document(value) == _stdlib(value)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.lists(st.text() | st.sampled_from(_TRICKY_TEXT)
                | st.text(st.sampled_from("\ud800\udbff\udc00\udfff\U0001f600\\uDd8")),
                max_size=4), st.booleans())
def test_a_lone_surrogate_is_found_in_any_json_text(texts, ascii_only):
    """A JSON text holds a lone surrogate escape exactly when a string it
    decodes to cannot be encoded as UTF-8; surrogate pairs, escaped
    backslashes and raw characters are text."""
    text = json.dumps({"texts": texts}, ensure_ascii=ascii_only)
    if not ascii_only and any("\ud800" <= c <= "\udfff" for t in texts for c in t):
        return  # a raw surrogate, which no text read from a file holds
    try:
        for decoded in json.loads(text)["texts"]:
            decoded.encode("utf-8")
    except UnicodeEncodeError:
        assert docio._lone_surrogate(text) is not None
    else:
        assert docio._lone_surrogate(text) is None


# ---------------------------------------------------------------------------
# The bulk writer writes what dump_document writes
# ---------------------------------------------------------------------------

_plain_scalars = (st.none() | st.booleans() | _texts
                  | st.integers(min_value=-2**70, max_value=2**70))


def _plain(children, size):
    """``children``, or a list, tuple or str-keyed dict of them."""
    items = st.lists(children, max_size=size)
    return (children | items | items.map(tuple)
            | st.dictionaries(_texts, children, max_size=size))


# two fixed levels, as a recursive strategy takes three times as long to draw
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.dictionaries(_texts, _plain(_plain(_plain_scalars, 4), 3), max_size=4))
def test_bulk_dump_is_the_json_dump(doc):
    """Ints beyond 64 bits, which orjson refuses, are written by
    ``dump_document``; a lone surrogate, which UTF-8 cannot hold, raises the
    ``UnicodeEncodeError`` that writing that text raises."""
    text = dump_document(doc)
    try:
        expected = text.encode("utf-8")
    except UnicodeEncodeError as error:
        with pytest.raises(UnicodeEncodeError) as got:
            dump_bulk(doc)
        assert str(got.value) == str(error)
    else:
        assert dump_bulk(doc) == expected


def test_bulk_dump_of_deep_nesting():
    value = "leaf"
    for depth in range(300):
        value = [value, ()] if depth % 2 else {str(depth): value, "t": {}}
    assert dump_bulk({"deep": value}) \
        == dump_document({"deep": value}).encode("utf-8")


def test_bulk_dump_refuses_a_record():
    document = {"records": [_Pair(1, "a")]}
    with pytest.raises(TypeError) as expected:
        dump_document(document)
    with pytest.raises(TypeError) as got:
        dump_bulk(document)
    assert str(got.value) == str(expected.value)

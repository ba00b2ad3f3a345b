"""Document parsing, schema markers and canonical dumps."""

import gc
import json
from enum import Enum, IntEnum
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import trigkit.data
from trigkit import docio

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


def test_dump_round_trips_both_formats():
    doc = {"schema": "widgets@1", "items": [{"name": "a", "n": 3}], "note": "café"}
    for fmt in ("yaml", "json"):
        text = dump_document(doc, fmt=fmt)
        assert text.endswith("\n")
        assert parse_document(text, fmt=fmt) == doc


def test_dump_preserves_key_order():
    doc = {"z": 1, "a": 2, "m": 3}
    text = dump_document(doc, fmt="json")
    assert text.index('"z"') < text.index('"a"') < text.index('"m"')


def test_dump_is_deterministic():
    doc = {"schema": "widgets@1", "values": list(range(20))}
    assert dump_document(doc) == dump_document(doc)
    assert dump_document(doc, fmt="json") == dump_document(doc, fmt="json")


def test_write_then_read_yaml_and_json(tmp_path):
    doc = {"schema": "widgets@1", "name": "dusty", "tags": ["a", "b"]}
    for name in ("doc.yaml", "doc.json"):
        path = tmp_path / name
        path.write_text(dump_document(doc, fmt=detect_format(path)), encoding="utf-8")
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
# The YAML reader builds what its PyYAML base loader builds
# ---------------------------------------------------------------------------

def _yaml_outcome(text, loader):
    """``repr`` of what ``parse_document`` returns with ``loader``, or what it
    raises: a ``DocumentError``'s diagnostics with the type and text of its
    cause. ``_YAMLLoader`` locates a constructor's own error, such as a bad
    date, which the base loader raises bare; that error is compared bare."""
    try:
        with mock.patch.object(docio, "_YAMLLoader", loader):
            return repr(parse_document(text, source="doc.yaml"))
    except DocumentError as exc:
        own = getattr(exc.__cause__, "__cause__", None)
        if own is not None:
            return type(own), str(own)
        return exc.diagnostics, type(exc.__cause__), str(exc.__cause__)
    except Exception as exc:  # noqa: BLE001 - the base loader's bare constructor error
        return type(exc), str(exc)


def _assert_read_as_csafeloader_reads(text):
    expected = _yaml_outcome(text, docio._YAMLLoader.__mro__[1])  # libyaml's if built
    assert _yaml_outcome(text, docio._YAMLLoader) == expected, text


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
# The JSON writer equals json.dumps(indent=2, ensure_ascii=False)
# ---------------------------------------------------------------------------

class _Level(IntEnum):
    LOW = 1
    HIGH = -20


class _Shade(str, Enum):
    DARK = "dark"
    ODD = 'qu"o\\te\u00e9'


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


_ENUMS = list(_Level) + list(_Shade)
_TRICKY_TEXT = ["", '"', "\\", "\x00\x1f\x7f", "line\nbreak\ttab\r", "\u2028\u2029",
                "caf\u00e9 \u6f22\u5b57 \U0001f600", "\ud800"]
_TRICKY_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e308,
                  5e-324, 0.1, -1.5e-7]
_texts = st.text() | st.sampled_from(_TRICKY_TEXT) | st.builds(_Text, st.text())
_floats = st.floats() | st.sampled_from(_TRICKY_FLOATS) | st.builds(_Ratio, st.floats())
_ints = (st.integers() | st.integers(min_value=-10**60, max_value=10**60)
         | st.builds(_Count, st.integers()))
_scalars = (st.none() | st.booleans() | _ints | _floats | _texts
            | st.sampled_from(_ENUMS))
_keys = st.none() | st.booleans() | _ints | _floats | _texts | st.sampled_from(_ENUMS)
# values json.dumps rejects, as items and as keys
_bad_values = st.sampled_from([object(), {1, 2}, b"bytes", 1j, frozenset()])
_bad_keys = st.sampled_from([(1, 2), frozenset({3}), b"key"])


def _documents(leaves, keys):
    def containers(children):
        items = st.lists(children, max_size=5)
        mappings = st.dictionaries(keys, children, max_size=5)
        return (items | items.map(tuple) | items.map(_Row)
                | mappings | mappings.map(_Table))
    return st.recursive(leaves, containers, max_leaves=40)


def _stdlib(value):
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


def _writer(value):
    return dump_document(value, fmt="json")


def _outcome(write, value):
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200)
@given(_documents(_scalars, _keys))
def test_json_dump_is_the_stdlib_indented_text(value):
    assert _writer(value) == _stdlib(value)


@settings(max_examples=100)
@given(_documents(_scalars | _bad_values, _keys | _bad_keys))
def test_json_dump_raises_as_the_stdlib_does(value):
    assert _outcome(_writer, value) == _outcome(_stdlib, value)


@pytest.mark.parametrize("bad", [{"a": [1, object()]}, {(1, 2): 1}, [{1, 2}]],
                         ids=["value", "key", "set"])
def test_json_dump_rejects_what_the_stdlib_rejects(bad):
    with pytest.raises(TypeError) as expected:
        _stdlib(bad)
    with pytest.raises(TypeError) as got:
        _writer(bad)
    assert str(got.value) == str(expected.value)


class _Pair(NamedTuple):
    left: int
    right: str


@pytest.mark.parametrize("record", [_Pair(1, "a"), Diagnostic("error", "Code", "text")],
                         ids=["namedtuple", "trigkit-record"])
def test_json_dump_refuses_a_record(record):
    """The stdlib writes a tuple subclass as a list; a record that reaches
    the writer is a mistake, so it is refused, wherever it sits."""
    for document in (record, {"records": [record]}):
        with pytest.raises(TypeError, match=f"Object of type {type(record).__name__} "
                                            "is not JSON serializable"):
            dump_document(document, fmt="json")
    assert dump_document({"plain": tuple(record)}, fmt="json") \
        == _stdlib({"plain": list(record)})


def test_json_dump_of_deep_nesting():
    value = "leaf"
    for depth in range(200):
        value = [value, {}] if depth % 2 else {str(depth): value, "t": ()}
    assert _writer(value) == _stdlib(value)


# ---------------------------------------------------------------------------
# The bulk writer writes what dump_document writes
# ---------------------------------------------------------------------------

_plain_texts = st.text() | st.sampled_from(_TRICKY_TEXT)
_plain_scalars = (st.none() | st.booleans() | _plain_texts
                  | st.integers(min_value=-2**70, max_value=2**70))


def _plain(children, size):
    """``children``, or a list, tuple or str-keyed dict of them."""
    items = st.lists(children, max_size=size)
    return (children | items | items.map(tuple)
            | st.dictionaries(_plain_texts, children, max_size=size))


# two fixed levels, as a recursive strategy takes three times as long to draw
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.dictionaries(_plain_texts, _plain(_plain(_plain_scalars, 4), 3), max_size=4))
def test_bulk_dump_is_the_json_dump(doc):
    """Lone surrogates and ints beyond 64 bits, which orjson refuses, are
    written by ``dump_document``."""
    assert dump_bulk(doc) == dump_document(doc, fmt="json")


def test_bulk_dump_of_deep_nesting():
    value = "leaf"
    for depth in range(300):
        value = [value, ()] if depth % 2 else {str(depth): value, "t": {}}
    assert dump_bulk({"deep": value}) == dump_document({"deep": value}, fmt="json")


def test_bulk_dump_refuses_a_record():
    document = {"records": [_Pair(1, "a")]}
    with pytest.raises(TypeError) as expected:
        dump_document(document, fmt="json")
    with pytest.raises(TypeError) as got:
        dump_bulk(document)
    assert str(got.value) == str(expected.value)

"""Document parsing, schema markers and canonical dumps."""

from pathlib import Path

import pytest
import yaml

import trigkit.data

from trigkit.docio import (
    check_schema,
    detect_format,
    dump_document,
    parse_document,
    read_document,
)
from trigkit.errors import DocumentError


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


@pytest.mark.parametrize("path", sorted(Path(trigkit.data.__file__).parent.glob("*.yaml")),
                         ids=lambda path: path.name)
def test_bundled_yaml_parses_as_the_pure_python_loader_reads_it(path):
    text = path.read_text(encoding="utf-8")
    assert parse_document(text) == yaml.load(text, Loader=yaml.SafeLoader)

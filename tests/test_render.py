"""Serialization round-trips and tabular views of pipeline artifacts."""

import csv
import io
import re
from itertools import chain, combinations

import pytest

from conftest import yaml_text

from trigkit import cli
from trigkit.config import build_manifest
from trigkit.data import reference_config
from trigkit.docio import dump_document, parse_document
from trigkit.errors import DocumentError, ToolkitError
from trigkit.generation import (
    EffectEntry,
    GenerationMatrix,
    TriggeringCondition,
    build_matrix,
)
from trigkit.pipeline import Catalog, candidate_relations
from trigkit.relationships import RelationshipBundle
from trigkit.render import (
    _CASE_FIELDS,
    CSV_HEADER,
    AssessmentClass,
    _catalog_checked,
    _catalog_from_doc_located,
    _condition_to_doc,
    cases_from_doc,
    cases_to_doc,
    cases_to_markdown,
    catalog_from_doc,
    catalog_to_csv,
    catalog_to_doc,
    catalog_to_markdown,
    matrix_to_csv,
    matrix_to_doc,
    matrix_to_markdown,
    render_report,
    report_to_doc,
)
from trigkit.testcases import compose


def _assessed(catalog):
    """Ratings for the fixture catalog's first two conditions."""
    return {catalog.conditions[0].id: AssessmentClass("E2", "C3"),
            catalog.conditions[1].id: AssessmentClass("E4", "C4")}


def _tiny_matrix():
    """A hand-built two-row grid exercising the partner-row label."""
    bundle = RelationshipBundle(source="Pedestrian")
    column = ("LightReceiving", "Brightness")
    rows = (("Pedestrian", ("PerspectiveShape",)),
            ("MovableObstacle", ("Volume",)))
    graded = (EffectEntry("Pedestrian", ("PerspectiveShape",),
                          "LightReceiving", "Brightness", -3),)
    return GenerationMatrix(sensor="Camera", bundle=bundle, rows=rows,
                            columns=(column,), graded=graded)


# ---------------------------------------------------------------------------
# Catalog documents
# ---------------------------------------------------------------------------

class TestCatalogDocuments:
    def test_round_trip(self, catalog):
        assert catalog_from_doc(catalog_to_doc(catalog)) == catalog

    def test_json_round_trip(self, catalog):
        text = dump_document(catalog_to_doc(catalog))
        assert text.lstrip().startswith("{")
        assert catalog_from_doc(parse_document(text, fmt="json")) == catalog

    def test_yaml_round_trip(self, catalog):
        text = yaml_text(catalog_to_doc(catalog))
        assert catalog_from_doc(parse_document(text, fmt="yaml")) == catalog

    def test_ratings_are_not_part_of_the_document(self, catalog):
        """The condition record holds exactly what its document holds, so no
        field the catalog does not carry, such as a rating, rides on it."""
        for condition in catalog.conditions:
            assert set(TriggeringCondition._fields) == set(_condition_to_doc(condition))

    @pytest.mark.parametrize("fmt", ["json", "yaml"])
    def test_checked_and_located_readers_agree(self, catalog, fmt):
        """On a catalog with a context-bearing positive."""
        cell = next(e for c in catalog.conditions for e in c.effects if e.context)
        rich = catalog._replace(
            positives=catalog.positives + (("Camera", cell),))
        doc = catalog_to_doc(rich)
        doc = parse_document(yaml_text(doc) if fmt == "yaml" else dump_document(doc), fmt=fmt)
        checked = _catalog_checked(doc)
        assert checked == rich
        assert repr(checked) == repr(_catalog_from_doc_located(doc, "<document>"))

    @pytest.mark.parametrize("path, value", [
        (("distance_augmented",), 1), (("templated",), 0), (("variant",), None),
        (("effects", 0, "degree"), None),
    ])
    def test_values_the_located_reader_reads_differently_fall_back(
            self, catalog, path, value):
        doc = catalog_to_doc(catalog)
        node = doc["conditions"][0]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert _catalog_checked(doc) is None
        catalog_from_doc(doc)

    def test_duplicate_condition_ids_rejected(self, catalog):
        doc = catalog_to_doc(catalog)
        doc["conditions"].append(dict(doc["conditions"][0]))
        with pytest.raises(ToolkitError, match="duplicate condition id"):
            catalog_from_doc(doc)

    def test_unknown_stage_rejected(self, catalog):
        doc = catalog_to_doc(catalog)
        doc["conditions"][0]["stage"] = "Telepathy"
        with pytest.raises(ToolkitError) as excinfo:
            catalog_from_doc(doc)
        assert excinfo.value.code == "UnknownStage"

    def test_missing_field_rejected(self, catalog):
        doc = catalog_to_doc(catalog)
        del doc["conditions"][0]["description"]
        with pytest.raises(ToolkitError, match="'description' is required"):
            catalog_from_doc(doc)

    def test_an_old_assessment_key_is_ignored(self, catalog):
        """Catalogs once held each condition's rating; both readers ignore
        it, even a level that does not exist, as they ignore any unknown key."""
        doc = catalog_to_doc(catalog)
        doc["conditions"][0].update(assessment={"exposure": "E9", "criticality": "C1"},
                                    priority=9)
        assert _catalog_checked(doc) == catalog
        assert _catalog_from_doc_located(doc, "<document>") == catalog

    def test_unknown_perturb_category_rejected(self, catalog):
        doc = catalog_to_doc(catalog)
        covered = next(c for c in doc["conditions"] if c["relationships"])
        covered["relationships"][0]["perturbs"] = ["Telekinesis"]
        with pytest.raises(ToolkitError) as excinfo:
            catalog_from_doc(doc)
        assert excinfo.value.code == "UnknownCategory"


# ---------------------------------------------------------------------------
# Catalog tables
# ---------------------------------------------------------------------------

class TestCatalogTables:
    def test_csv_header(self, catalog):
        text = catalog_to_csv(catalog)
        rows = list(csv.reader(io.StringIO(text)))
        assert tuple(rows[0]) == CSV_HEADER
        assert len(rows) == len(catalog.conditions) + 1
        assert rows[1][0] == "1"

    def test_csv_rows_render_the_conditions(self, catalog):
        rows = list(csv.reader(io.StringIO(catalog_to_csv(catalog))))[1:]
        for row, condition in zip(rows, catalog.conditions):
            assert row[1] == condition.sensor
            assert row[2] == condition.sources_rendered()
            assert row[3] == condition.properties_rendered()
            assert row[4] == condition.stage_rendered()
            assert row[5] == condition.description

    def test_markdown_title_and_warnings(self, catalog):
        text = catalog_to_markdown(catalog)
        assert text.startswith(f"# Triggering conditions — {catalog.vehicle}")
        assert f"{len(catalog.conditions)} conditions" in text
        assert "## Warnings" in text
        assert "MissingTemplate" in text

    def test_markdown_uses_figure_degrees(self, catalog):
        assert "− − −" in catalog_to_markdown(catalog)

    def test_markdown_has_no_rating_columns(self, catalog):
        plain = catalog_to_markdown(catalog)
        assert "| Degree |\n" in plain

    def test_markdown_escapes_pipes(self, catalog):
        spiked = (catalog.conditions[0]._replace(description="a|b"),
                  catalog.conditions[1]._replace(description="|edge| |"))
        doctored = catalog._replace(conditions=spiked + catalog.conditions[2:])
        text = catalog_to_markdown(doctored)
        assert "| a\\|b |" in text
        assert "| \\|edge\\| \\| |" in text
        rows = [line for line in text.splitlines() if line.startswith("| ")]
        assert len(rows) == 2 + len(catalog.conditions)
        assert {len(re.split(r"(?<!\\)\|", row)) for row in rows} == {len(CSV_HEADER) + 3}


# ---------------------------------------------------------------------------
# Generation-matrix views
# ---------------------------------------------------------------------------

class TestMatrixViews:
    def test_csv_labels_and_ascii_degrees(self):
        text = matrix_to_csv(_tiny_matrix())
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["Property", "Light receiving: Brightness"]
        assert rows[1] == ["Perspective shape", "---"]
        assert rows[2] == ["Volume (Movable obstacle)", ""]

    def test_markdown_title_and_figure_degrees(self):
        text = matrix_to_markdown(_tiny_matrix())
        assert text.startswith("# Generation matrix — Pedestrian on Camera")
        assert "Relationships: none" in text
        assert "− − −" in text

    def test_doc_fields(self, ontology, effects, camera):
        matrix = build_matrix(RelationshipBundle(source="Pedestrian"), camera, effects,
                              ontology)
        doc = matrix_to_doc(matrix)
        assert doc["schema"] == "generation-matrix@1"
        assert doc["sensor"] == "Camera"
        assert doc["source"] == "Pedestrian"
        assert doc["relationships"] == ""
        assert len(doc["rows"]) == len(matrix.rows)
        assert len(doc["columns"]) == len(matrix.columns)

    def test_doc_grid_matches_the_cells(self, inputs):
        """Every (sensor, bundle) matrix of the bundled project at bundle
        limit 2: the grid rendered from ``graded`` is the dense ``cells`` view."""
        ontology, built = inputs.ontology, 0
        for spec in inputs.suite.sensors:
            for name in ontology.names():
                source = ontology.get(name)
                candidates = candidate_relations(source, inputs.matrix, ontology)
                for chosen in chain(*(combinations(candidates, size) for size in range(3))):
                    matrix = build_matrix(RelationshipBundle(name, chosen), spec,
                                          inputs.effects, ontology)
                    assert [d for row in matrix_to_doc(matrix)["degrees"] for d in row] \
                        == [c.degree for c in matrix.cells]
                    built += 1
        assert built == 1758


# ---------------------------------------------------------------------------
# Test-case views
# ---------------------------------------------------------------------------

class TestCaseViews:
    def test_markdown_lists_every_case(self, catalog, events, suite, policy):
        cases, _ = compose(catalog.conditions[:3], events, suite, policy)
        text = cases_to_markdown(cases)
        assert text.startswith(f"# Test cases ({len(cases)})")
        for case in cases:
            assert case.id in text

    def test_written_keys_are_the_case_fields_in_order(self, catalog, events, suite,
                                                       policy):
        cases, warnings = compose(catalog.conditions, events, suite, policy)
        raw_cases = cases_to_doc(cases, warnings)["cases"]
        assert len(raw_cases) == len(cases) > 0
        for raw, case in zip(raw_cases, cases):
            assert tuple(raw) == _CASE_FIELDS + ("odd",)
            assert list(raw.values()) == [*case[:-1], list(case.odd)]

    def test_cases_list_field_type_checked(self):
        with pytest.raises(ToolkitError, match="'cases' must be a list"):
            cases_from_doc({"schema": "test-cases@1", "cases": "nope"})

    def test_case_missing_field_rejected(self):
        doc = {"schema": "test-cases@1",
               "cases": [{"id": "t0", "condition": "c0", "event": "HE-1",
                          "sensor": "Camera", "situation": "s", "trigger": "t",
                          "behavior": "b", "fail_criterion": "f"}]}
        with pytest.raises(ToolkitError, match="'pass_criterion' is required"):
            cases_from_doc(doc)

    def test_string_subclass_fields_read_as_plain_strings(self):
        class Text(str):
            pass

        case = {"id": "t0", "condition": "c0", "event": "HE-1",
                "sensor": "Camera", "situation": "s", "trigger": "t",
                "behavior": "b", "fail_criterion": "f", "pass_criterion": "p"}
        plain = {"schema": "test-cases@1", "cases": [dict(case, odd=["Night"])]}
        tagged = {"schema": "test-cases@1",
                  "cases": [dict({k: Text(v) for k, v in case.items()},
                                 odd=[Text("Night")])]}
        assert cases_from_doc(tagged) == cases_from_doc(plain)

    def test_each_bad_text_field_is_located(self):
        case = {"id": "t0", "condition": "c0", "event": "HE-1",
                "sensor": "Camera", "situation": " ", "trigger": 7,
                "behavior": "b", "fail_criterion": "f", "pass_criterion": "p",
                "odd": ["Night", 3]}
        with pytest.raises(DocumentError) as excinfo:
            cases_from_doc({"schema": "test-cases@1", "cases": [case]})
        assert [d.message for d in excinfo.value.diagnostics] == [
            "cases[0]: 'situation' must be a non-empty string",
            "cases[0]: 'trigger' must be a non-empty string",
            "cases[0]: 'odd' must be a list of strings"]

    def test_duplicate_case_ids_rejected(self):
        case = {"id": "t0", "condition": "c0", "event": "HE-1",
                "sensor": "Camera", "situation": "s", "trigger": "t",
                "behavior": "b", "fail_criterion": "f", "pass_criterion": "p"}
        doc = {"schema": "test-cases@1", "cases": [case, dict(case)]}
        with pytest.raises(ToolkitError, match="duplicate case id 't0'"):
            cases_from_doc(doc)

    def test_repeated_odd_entry_rejected(self):
        case = {"id": "t0", "condition": "c0", "event": "HE-1",
                "sensor": "Camera", "situation": "s", "trigger": "t",
                "behavior": "b", "fail_criterion": "f", "pass_criterion": "p",
                "odd": ["Night", "Rain", "Night"]}
        with pytest.raises(DocumentError) as excinfo:
            cases_from_doc({"schema": "test-cases@1", "cases": [case], "warnings": []})
        assert [d.message for d in excinfo.value.diagnostics] == [
            "cases[0]: duplicate odd entry 'Night'"]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class TestReports:
    def test_totals_for_an_unrated_catalog(self, catalog):
        doc = report_to_doc(catalog)
        assert doc["schema"] == "assessment-report@1"
        assert doc["vehicle"] == catalog.vehicle
        assert doc["totals"]["conditions"] == len(catalog.conditions)
        assert doc["totals"]["by_sensor"] == catalog.count_by_sensor()
        assert doc["totals"]["unrated"] == len(catalog.conditions)
        assert doc["totals"]["test_cases"] == 0
        assert len(doc["ranking"]) == len(catalog.conditions)
        assert all(entry["rating"] == "unrated" for entry in doc["ranking"])
        assert doc["results"] == {"pass": 0, "marginal": 0, "fail": 0}

    def test_rated_conditions_lead_the_ranking(self, catalog):
        doc = report_to_doc(catalog, ratings=_assessed(catalog))
        assert doc["ranking"][0]["rating"] == "E4/C4"
        assert doc["ranking"][0]["priority"] == 16
        assert doc["ranking"][1]["rating"] == "E2/C3"
        assert doc["totals"]["unrated"] == len(catalog.conditions) - 2

    def test_result_counts(self, catalog):
        results = [{"outcome": "pass"}, {"outcome": "fail"},
                   {"outcome": "marginal"}, {"outcome": "pass"},
                   {"outcome": "inconclusive"}, {"outcome": ["pass"]}]
        doc = report_to_doc(catalog, results=results)
        assert doc["results"] == {"pass": 2, "marginal": 1, "fail": 1}

    def test_rendered_report(self, catalog, events, suite, policy):
        cases, _ = compose(catalog.conditions, events, suite, policy)
        results = [{"test_case": cases[0].id, "behavior": "NearCollision",
                    "outcome": "fail"}]
        text = render_report(catalog, cases, results)
        assert text.startswith(f"# Assessment report — {catalog.vehicle}")
        assert f"{len(cases)} composed test cases" in text
        assert "## Executed results" in text
        assert "pass: 0, marginal: 0, fail: 1" in text
        assert cases[0].id in text


# ---------------------------------------------------------------------------
# Documents hold plain values only
# ---------------------------------------------------------------------------

PLAIN = {dict, list, str, int, float, bool, type(None)}


def _values(node):
    """Every key and value below ``node``."""
    yield node
    if type(node) is dict:
        for key, value in node.items():
            yield key
            yield from _values(value)
    elif type(node) is list:
        for value in node:
            yield from _values(value)


def test_no_record_reaches_the_json_writer(catalog, events, suite, policy, ontology,
                                           effects, camera, tmp_path, monkeypatch):
    """A record that is a tuple would be written silently as a list. The
    manifests of ``generate`` and ``compose`` are built from the project
    config, itself a record, and from what the commands read."""
    cases, warnings = compose(catalog.conditions, events, suite, policy)
    results = [{"test_case": cases[0].id, "outcome": "fail"}]
    matrix = build_matrix(RelationshipBundle(source="Pedestrian"), camera, effects,
                          ontology)
    manifests = []
    monkeypatch.setattr(cli, "build_manifest",
                        lambda *args: manifests.append(build_manifest(*args))
                        or manifests[-1])
    for command in (["generate", "--output-dir", str(tmp_path)],
                    ["compose", "--catalog", str(tmp_path / "catalog.json")]):
        assert cli.main(["--config", str(reference_config())] + command) == 0
    assert [manifest["command"] for manifest in manifests] == ["generate", "compose"]
    docs = [catalog_to_doc(catalog), cases_to_doc(cases, warnings),
            report_to_doc(catalog, cases, results, _assessed(catalog)), matrix_to_doc(matrix),
            matrix_to_doc(_tiny_matrix()), *manifests]
    assert {type(value) for doc in docs for value in _values(doc)} <= PLAIN

"""Integrity of the bundled road-sweeper corpus."""

import pytest

from conftest import yaml_text

from trigkit.data import REFERENCE_DOCUMENTS, data_path, reference_config
from trigkit.docio import dump_document, parse_document, read_document
from trigkit.generation import effects_from_doc, effects_to_doc
from trigkit.ontology import ontology_from_doc, ontology_to_doc
from trigkit.perception import suite_from_doc, suite_to_doc
from trigkit.relationships import matrix_from_doc, matrix_to_doc
from trigkit.templates import templates_from_doc, templates_to_doc
from trigkit.testcases import (
    events_from_doc,
    events_to_doc,
    policy_from_doc,
    policy_to_doc,
)

ROUND_TRIPS = [
    ("source_ontology.yaml", ontology_from_doc, ontology_to_doc),
    ("sweeper_system.yaml", suite_from_doc, suite_to_doc),
    ("compatibility_matrix.yaml", matrix_from_doc, matrix_to_doc),
    ("effects.yaml", effects_from_doc, effects_to_doc),
    ("condition_templates.yaml", templates_from_doc, templates_to_doc),
    ("hazardous_events.yaml", events_from_doc, events_to_doc),
    ("compose_policy.yaml", policy_from_doc, policy_to_doc),
]


class TestDataPath:
    @pytest.mark.parametrize("name", REFERENCE_DOCUMENTS)
    def test_every_listed_document_exists(self, name):
        path = data_path(name)
        assert path.is_file()
        assert path.read_text(encoding="utf-8").strip()

    def test_unknown_name_raises(self):
        with pytest.raises(FileNotFoundError, match="no bundled document named"):
            data_path("imaginary.yaml")

    def test_reference_config_is_the_project_file(self):
        assert reference_config().name == "project.yaml"

    def test_listing_matches_the_directory(self):
        directory = reference_config().parent
        on_disk = {p.name for p in directory.glob("*.yaml")}
        assert on_disk == set(REFERENCE_DOCUMENTS)


class TestDocumentRoundTrips:
    @pytest.mark.parametrize("name, from_doc, to_doc",
                             ROUND_TRIPS, ids=[r[0] for r in ROUND_TRIPS])
    def test_parse_serialize_parse(self, name, from_doc, to_doc):
        loaded = from_doc(read_document(data_path(name)))
        assert from_doc(to_doc(loaded)) == loaded

    @pytest.mark.parametrize("name, from_doc, to_doc",
                             ROUND_TRIPS, ids=[r[0] for r in ROUND_TRIPS])
    def test_yaml_and_json_agree(self, name, from_doc, to_doc):
        loaded = from_doc(read_document(data_path(name)))
        doc = to_doc(loaded)
        via_yaml = from_doc(parse_document(yaml_text(doc), fmt="yaml"))
        via_json = from_doc(parse_document(dump_document(doc), fmt="json"))
        assert via_yaml == via_json == loaded


class TestCorpusConsistency:
    def test_inputs_cross_validate_cleanly(self, inputs):
        assert None not in inputs  # all seven documents read and cross-checked

    def test_suite_covers_both_sensor_classes(self, suite):
        classes = {spec.sensor_class.value for spec in suite.sensors}
        assert classes == {"Active", "Passive"}

    def test_event_targets_are_perceived_by_some_sensor(
            self, events, suite, policy):
        perceived = set()
        for spec in suite.sensors:
            perceived.update(policy.mapped(t) for t in spec.targets())
        for event in events:
            assert policy.mapped(event.target) in perceived

    def test_effect_rules_only_name_known_concepts(self, effects, ontology):
        for rule in effects.rules:
            assert ontology.get(rule.concept) is not None

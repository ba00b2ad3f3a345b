"""Test-case composition, outcome records, and the results ledger."""

import json
import re

import pytest

from conftest import yaml_text

from trigkit.errors import DiagnosticSink, ToolkitError
from trigkit.generation import TriggeringCondition
from trigkit.docio import dump_document, parse_document
from trigkit.ontology import ontology_from_doc
from trigkit.render import cases_from_doc, cases_to_doc
from trigkit.testcases import (
    OUTCOME_BY_BEHAVIOR,
    BehaviorClass,
    ComposePolicy,
    ResultsLedger,
    compose,
    cross_validate_events,
    events_from_doc,
    events_to_doc,
    outcome_record,
    policy_from_doc,
    policy_to_doc,
)

EVENTS_DOC = """\
schema: hazardous-events@1
events:
  - id: HE-1
    name: Obstacle collision
    situation: An obstacle lies ahead on the lane
    behavior: The vehicle bypasses the obstacle
    unintended_behavior: Continue driving with no bypass maneuver
    target: MovableObstacle
  - id: HE-2
    name: Pedestrian collision
    situation: A pedestrian walks ahead on the lane
    behavior: The vehicle brakes and waits
    unintended_behavior: Continue driving with no brake
    target: Pedestrian
"""


def _bare_condition(source="Cyclist", sensor="Camera", **overrides):
    """A minimal relation-free condition for eligibility experiments."""
    fields = dict(
        id="c" + "0" * 12,
        sensor=sensor,
        sources=(source,),
        relationships=(),
        property_owner=source,
        properties=("Color",),
        stage="LightReceiving",
        effects=(),
        degree=-3,
        description=f"Adverse color of the {source.lower()}",
    )
    fields.update(overrides)
    return TriggeringCondition(**fields)


# ---------------------------------------------------------------------------
# Event documents
# ---------------------------------------------------------------------------

class TestEventDocuments:
    def test_load_sorts_by_id(self):
        events = events_from_doc(parse_document(EVENTS_DOC))
        assert [e.id for e in events] == ["HE-1", "HE-2"]
        assert events[1].target == "Pedestrian"
        assert events[0].unintended_behavior == "Continue driving with no bypass maneuver"

    def test_round_trip(self):
        events = events_from_doc(parse_document(EVENTS_DOC))
        assert events_from_doc(events_to_doc(events)) == events
        doc = events_to_doc(events)
        for fmt, text in (("yaml", yaml_text(doc)), ("json", dump_document(doc))):
            assert events_from_doc(parse_document(text, fmt=fmt)) == events

    def test_optional_source_field_survives(self, events):
        assert all(e.source for e in events)
        doc = events_to_doc(events)
        assert events_from_doc(doc) == events

    def test_empty_event_list_rejected(self):
        with pytest.raises(ToolkitError, match="'events' must be a non-empty list"):
            events_from_doc({"schema": "hazardous-events@1", "events": []})

    def test_bad_event_id(self):
        doc = {"schema": "hazardous-events@1",
               "events": [{"id": "1st", "name": "x", "situation": "s",
                           "behavior": "b", "unintended_behavior": "u",
                           "target": "Pedestrian"}]}
        with pytest.raises(ToolkitError) as excinfo:
            events_from_doc(doc)
        assert excinfo.value.code == "InvalidIdentifier"

    def test_an_event_id_ending_in_a_line_break_is_rejected(self):
        doc = {"schema": "hazardous-events@1",
               "events": [{"id": "E1\n", "name": "x", "situation": "s",
                           "behavior": "b", "unintended_behavior": "u",
                           "target": "Pedestrian"}]}
        with pytest.raises(ToolkitError, match=r"event id 'E1\\n' is invalid"):
            events_from_doc(doc)

    def test_duplicate_event_id(self):
        event = {"id": "HE-1", "name": "x", "situation": "s", "behavior": "b",
                 "unintended_behavior": "u", "target": "Pedestrian"}
        doc = {"schema": "hazardous-events@1", "events": [event, dict(event)]}
        with pytest.raises(ToolkitError, match="duplicate event id 'HE-1'"):
            events_from_doc(doc)

    def test_missing_text_field(self):
        doc = {"schema": "hazardous-events@1",
               "events": [{"id": "HE-1", "name": "x", "behavior": "b",
                           "unintended_behavior": "u", "target": "Pedestrian"}]}
        with pytest.raises(ToolkitError, match="'situation' is required"):
            events_from_doc(doc)

    def test_invalid_target(self):
        doc = {"schema": "hazardous-events@1",
               "events": [{"id": "HE-1", "name": "x", "situation": "s",
                           "behavior": "b", "unintended_behavior": "u",
                           "target": "movable obstacle"}]}
        with pytest.raises(ToolkitError, match="target 'movable obstacle' is invalid"):
            events_from_doc(doc)

    def test_cross_validation_flags_unknown_target(self):
        ontology = ontology_from_doc(parse_document("""\
schema: triggering-sources@1
concepts:
  - name: Pedestrian
    kind: InteractiveEntity
    properties: [{name: Color, category: Reflectivity}]
"""))
        events = events_from_doc(parse_document(EVENTS_DOC))
        sink = DiagnosticSink(file="<events>")
        cross_validate_events(events, ontology, sink)
        assert len(sink.items) == 1
        assert "target 'MovableObstacle' does not resolve" in sink.items[0].message

    def test_reference_events_resolve(self, events, ontology):
        sink = DiagnosticSink(file="<events>")
        cross_validate_events(events, ontology, sink)
        assert sink.items == []


# ---------------------------------------------------------------------------
# Policy documents
# ---------------------------------------------------------------------------

class TestPolicyDocuments:
    def test_reference_policy(self, policy):
        assert policy.mapped("Cyclist") == "Pedestrian"
        assert policy.mapped("RoadSurface") == "MovableObstacle"
        assert policy.mapped("Leaf") == "Leaf"
        assert policy.negation_of("HE-2") == (
            "The vehicle brakes to stop before the pedestrian")
        assert policy.negation_of("HE-9") is None

    def test_round_trip(self, policy):
        assert policy_from_doc(policy_to_doc(policy)) == policy
        doc = policy_to_doc(policy)
        for fmt, text in (("yaml", yaml_text(doc)), ("json", dump_document(doc))):
            assert policy_from_doc(parse_document(text, fmt=fmt)) == policy

    def test_maps_default_to_empty(self):
        policy = policy_from_doc({"schema": "compose-policy@1"})
        assert policy == ComposePolicy()
        assert policy.mapped("Anything") == "Anything"

    def test_class_map_must_be_mapping(self):
        with pytest.raises(ToolkitError, match="'class_map' must be a mapping"):
            policy_from_doc({"schema": "compose-policy@1", "class_map": ["x"]})

    def test_class_map_identifiers_checked(self):
        doc = {"schema": "compose-policy@1", "class_map": {"the cyclist": "Pedestrian"}}
        with pytest.raises(ToolkitError) as excinfo:
            policy_from_doc(doc)
        assert excinfo.value.code == "InvalidIdentifier"

    def test_negations_must_be_mapping(self):
        with pytest.raises(ToolkitError, match="'negations' must be a mapping"):
            policy_from_doc({"schema": "compose-policy@1", "negations": []})

    def test_negation_text_must_be_non_empty(self):
        doc = {"schema": "compose-policy@1", "negations": {"HE-1": "  "}}
        with pytest.raises(ToolkitError, match="must map an event id to text"):
            policy_from_doc(doc)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

class TestCompose:
    def test_case_count_follows_eligibility(self, catalog, events, suite, policy):
        cases, warnings = compose(catalog.conditions, events, suite, policy)
        assert warnings == []
        covering = sum(1 for c in catalog.conditions
                       if any(r.targets_sensor() for r in c.relationships))
        plain = len(catalog.conditions) - covering
        assert len(cases) == plain + covering * len(events)

    def test_ids_unique_and_well_formed(self, catalog, events, suite, policy):
        cases, _ = compose(catalog.conditions, events, suite, policy)
        ids = [c.id for c in cases]
        assert len(ids) == len(set(ids))
        assert all(re.fullmatch(r"t[0-9a-f]{12}", i) for i in ids)

    def test_fail_criterion_is_the_unintended_behavior(
            self, catalog, events, suite, policy):
        cases, _ = compose(catalog.conditions, events, suite, policy)
        by_id = {e.id: e for e in events}
        for case in cases:
            event = by_id[case.event_id]
            assert case.fail_criterion == event.unintended_behavior
            assert case.situation == event.situation
            assert case.behavior == event.behavior

    def test_pass_criterion_from_policy(self, catalog, events, suite, policy):
        cases, _ = compose(catalog.conditions, events, suite, policy)
        for case in cases:
            assert case.pass_criterion == policy.negation_of(case.event_id)

    def test_sensor_covering_conditions_pair_with_every_event(
            self, catalog, events, suite, policy):
        cases, _ = compose(catalog.conditions, events, suite, policy)
        for condition in catalog.conditions:
            if not any(r.targets_sensor() for r in condition.relationships):
                continue
            matched = {c.event_id for c in cases if c.condition_id == condition.id}
            assert matched == {e.id for e in events}

    def test_target_conditions_pair_with_their_event(
            self, catalog, events, suite, policy):
        cases, _ = compose(catalog.conditions, events, suite, policy)
        expected = {"Camera": {"HE-2"}, "LiDAR": {"HE-1"}}
        for condition in catalog.conditions:
            if any(r.targets_sensor() for r in condition.relationships):
                continue
            matched = {c.event_id for c in cases if c.condition_id == condition.id}
            assert matched == expected[condition.sensor]

    def test_class_map_folds_the_analyzed_source(self, events, suite, policy):
        cases, warnings = compose([_bare_condition("Cyclist")], events, suite, policy)
        assert warnings == []
        assert [c.event_id for c in cases] == ["HE-2"]

    def test_unmapped_source_degrades_all_intended_targets(
            self, events, suite, policy):
        condition = _bare_condition("NaturalLight")
        cases, _ = compose([condition], events, suite, policy)
        # the camera only perceives the pedestrian class, so one pairing
        assert [c.event_id for c in cases] == ["HE-2"]

    def test_odd_comes_from_the_sensor(self, events, suite, policy):
        cases, _ = compose([_bare_condition()], events, suite, policy)
        assert cases[0].odd == suite.get("Camera").odd

    def test_trigger_carries_the_description(self, events, suite, policy):
        condition = _bare_condition(description="A cyclist in dark rainwear")
        cases, _ = compose([condition], events, suite, policy)
        assert cases[0].trigger == "A cyclist in dark rainwear"
        assert cases[0].condition_id == condition.id

    def test_no_compatible_event_warns_and_skips(self, events, suite, policy):
        obstacle_only = [e for e in events if e.id == "HE-1"]
        cases, warnings = compose([_bare_condition("Pedestrian")],
                                  obstacle_only, suite, policy)
        assert cases == []
        assert len(warnings) == 1
        assert warnings[0].startswith("NoCompatibleEvent")

    def test_missing_negation_falls_back_to_generic_wording(self, events, suite):
        bare_policy = ComposePolicy(class_map=(("Cyclist", "Pedestrian"),))
        cases, warnings = compose([_bare_condition()], events, suite, bare_policy)
        assert cases[0].pass_criterion == (
            "The vehicle avoids: Continue driving with no brake")
        assert len(warnings) == 1
        assert warnings[0].startswith("MissingTemplate")

    def test_missing_negation_is_warned_once_per_event_in_first_use_order(
            self, events, suite):
        bare_policy = ComposePolicy(class_map=(("Cyclist", "Pedestrian"),))
        conditions = [_bare_condition("Cyclist", id="c" + "1" * 12),
                      _bare_condition("NaturalLight", "LiDAR", id="c" + "2" * 12),
                      _bare_condition("Cyclist", id="c" + "3" * 12)]
        cases, warnings = compose(conditions, events, suite, bare_policy)
        assert [c.event_id for c in cases] == ["HE-2", "HE-1", "HE-2"]
        assert warnings == [f"MissingTemplate: no pass-criterion negation for event {event}; "
                            "generic wording used" for event in ("HE-2", "HE-1")]

    def test_duplicate_policy_keys_keep_the_first(self, events, suite):
        policy = ComposePolicy(
            class_map=(("Cyclist", "Pedestrian"), ("Cyclist", "MovableObstacle"),
                       ("MovableObstacle", "Pedestrian"), ("MovableObstacle", "Leaf")),
            negations=(("HE-1", "first obstacle wording"), ("HE-1", "second"),
                       ("HE-2", "first pedestrian wording"), ("HE-2", "second")))
        cases, warnings = compose([_bare_condition("Cyclist")], events, suite, policy)
        assert warnings == []
        assert [(c.event_id, c.pass_criterion) for c in cases] == [
            ("HE-1", "first obstacle wording"), ("HE-2", "first pedestrian wording")]

    def test_unknown_sensor_rejected(self, events, suite, policy):
        condition = _bare_condition(sensor="Radar")
        with pytest.raises(ToolkitError) as excinfo:
            compose([condition], events, suite, policy)
        assert excinfo.value.code == "UnknownSensor"

    def test_case_documents_round_trip(self, catalog, events, suite, policy):
        cases, warnings = compose(catalog.conditions, events, suite, policy)
        doc = cases_to_doc(cases, warnings=warnings)
        assert doc["schema"] == "test-cases@1"
        assert cases_from_doc(doc) == tuple(cases)
        assert json.loads(dump_document(doc))["schema"] == "test-cases@1"


# ---------------------------------------------------------------------------
# Outcome records and the results ledger
# ---------------------------------------------------------------------------

class TestOutcomes:
    @pytest.mark.parametrize("behavior, outcome", [
        (BehaviorClass.NOMINAL, "pass"),
        (BehaviorClass.HESITANT, "marginal"),
        (BehaviorClass.UNINTENDED_NO_HAZARD, "marginal"),
        (BehaviorClass.RISKY_WRONG_CLASSIFICATION, "fail"),
        (BehaviorClass.NEAR_COLLISION, "fail"),
    ])
    def test_behavior_maps_to_outcome(self, behavior, outcome,
                                      events, suite, policy):
        cases, _ = compose([_bare_condition()], events, suite, policy)
        record = outcome_record(cases[0], behavior)
        assert record["outcome"] == outcome
        assert record["behavior"] == behavior.value
        assert record["test_case"] == cases[0].id
        assert "note" not in record

    def test_behavior_accepted_as_string(self, events, suite, policy):
        cases, _ = compose([_bare_condition()], events, suite, policy)
        record = outcome_record(cases[0], "NearCollision", note="unprotected left")
        assert record["outcome"] == "fail"
        assert record["note"] == "unprotected left"

    def test_unknown_behavior_rejected(self, events, suite, policy):
        cases, _ = compose([_bare_condition()], events, suite, policy)
        with pytest.raises(ToolkitError, match="unknown behavior class 'Swerving'"):
            outcome_record(cases[0], "Swerving")

    def test_every_behavior_class_is_mapped(self):
        assert set(OUTCOME_BY_BEHAVIOR) == set(BehaviorClass)


class TestResultsLedger:
    def test_missing_file_is_not_found(self, tmp_path):
        ledger = ResultsLedger(tmp_path / "results.jsonl")
        with pytest.raises(FileNotFoundError):
            ledger.read()

    def test_append_and_read_back(self, tmp_path):
        ledger = ResultsLedger(tmp_path / "results.jsonl")
        first = {"test_case": "t1", "outcome": "pass"}
        second = {"test_case": "t2", "outcome": "fail", "note": "late brake"}
        ledger.append(first)
        ledger.append(second)
        assert ledger.read() == [first, second]

    def test_lines_are_sorted_json(self, tmp_path):
        path = tmp_path / "results.jsonl"
        record = {"z": 1, "a": 2}
        ResultsLedger(path).append(record)
        line = path.read_text(encoding="utf-8").splitlines()[0]
        assert line == json.dumps(record, sort_keys=True)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n', encoding="utf-8")
        assert ResultsLedger(path).read() == [{"a": 1}, {"b": 2}]

    def test_malformed_line_reported_with_its_number(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\nnot json\n', encoding="utf-8")
        with pytest.raises(ToolkitError, match="unreadable results line") as excinfo:
            ResultsLedger(path).read()
        assert excinfo.value.code == "SyntaxError"
        assert excinfo.value.line == 3
        assert excinfo.value.file == str(path)

    def test_non_object_line_reported_with_its_number(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text('{"a": 1}\n[1, 2]\n', encoding="utf-8")
        with pytest.raises(ToolkitError, match="must be a JSON object") as excinfo:
            ResultsLedger(path).read()
        assert excinfo.value.line == 2
        assert excinfo.value.file == str(path)

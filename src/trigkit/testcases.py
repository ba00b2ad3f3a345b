"""Test-case composition and result recording.

Each triggering condition is paired with the hazardous events it can
plausibly provoke. A condition whose analyzed source is one of the sensor's
intended targets (after class mapping) pairs only with events targeting that
class; other conditions degrade whatever the sensor is trying to perceive and
pair with events targeting any of its intended classes. Conditions that cover
or obstruct the sensor itself pair with every event.

The fail criterion of a composed case is the event's unintended behavior,
verbatim; the pass criterion comes from the policy's negation table. Executed
outcomes are recorded against a coarse behavior classification and appended
to a JSON-lines results ledger.
"""
from __future__ import annotations

import hashlib
import json
import re
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from . import errors as E
from .docio import _lone_surrogate, check_schema, read_text
from .errors import DiagnosticSink, DocumentError, ToolkitError
from .generation import TriggeringCondition
from .naming import is_identifier
from .ontology import SourceOntology
from .perception import SensorSuite

__all__ = [
    "EVENTS_SCHEMA",
    "POLICY_SCHEMA",
    "HazardousEvent",
    "ComposePolicy",
    "TestCase",
    "BehaviorClass",
    "OUTCOME_BY_BEHAVIOR",
    "compose",
    "outcome_record",
    "ResultsLedger",
    "events_from_doc",
    "events_to_doc",
    "policy_from_doc",
    "policy_to_doc",
    "cross_validate_events",
]

EVENTS_SCHEMA = "hazardous-events@1"
POLICY_SCHEMA = "compose-policy@1"

_EVENT_ID = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")


class HazardousEvent(NamedTuple):
    """A vehicle-level hazard scenario a perception fault can provoke."""

    id: str
    name: str
    situation: str
    behavior: str
    unintended_behavior: str
    target: str  # concept the event's perception function must detect
    source: str = ""


class _PolicyFields(NamedTuple):
    class_map: tuple[tuple[str, str], ...] = ()
    negations: tuple[tuple[str, str], ...] = ()  # (event id, pass criterion)


class ComposePolicy(_PolicyFields):
    """Data-driven knobs for pairing conditions with events.

    ``class_map`` folds perceived concepts onto the classes events are keyed
    by (a curb is hit as an obstacle; a cyclist is avoided as a pedestrian).
    ``negations`` maps an event id onto the wording of the pass criterion
    asserting its unintended behavior did not happen.
    """

    @cached_property
    def _lookups(self) -> tuple[dict[str, str], dict[str, str]]:
        """``class_map`` and ``negations`` as dicts; the first pair for a key wins."""
        return dict(reversed(self.class_map)), dict(reversed(self.negations))

    def mapped(self, concept: str) -> str:
        return self._lookups[0].get(concept, concept)

    def negation_of(self, event_id: str) -> str | None:
        return self._lookups[1].get(event_id)


class TestCase(NamedTuple):
    """One executable pairing of a triggering condition with an event.

    A tuple, so it equals any tuple of the same values; ``cases_to_doc``
    writes it field by field."""

    id: str
    condition_id: str
    event_id: str
    sensor: str
    situation: str
    trigger: str  # the condition description, injected into the scene
    behavior: str
    fail_criterion: str
    pass_criterion: str
    odd: tuple[str, ...] = ()


class BehaviorClass(str, Enum):
    NOMINAL = "Nominal"
    HESITANT = "HesitantBehavior"
    UNINTENDED_NO_HAZARD = "UnintendedNoHazard"
    RISKY_WRONG_CLASSIFICATION = "RiskyBehaviorWrongClassification"
    NEAR_COLLISION = "NearCollision"


OUTCOME_BY_BEHAVIOR: dict[BehaviorClass, str] = {
    BehaviorClass.NOMINAL: "pass",
    BehaviorClass.HESITANT: "marginal",
    BehaviorClass.UNINTENDED_NO_HAZARD: "marginal",
    BehaviorClass.RISKY_WRONG_CLASSIFICATION: "fail",
    BehaviorClass.NEAR_COLLISION: "fail",
}


def test_case_id(condition_id: str, event_id: str) -> str:
    payload = f"{condition_id}|{event_id}"
    return "t" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def compose(conditions: Iterable[TriggeringCondition],
            events: Sequence[HazardousEvent], suite: SensorSuite,
            policy: ComposePolicy) -> tuple[list[TestCase], list[str]]:
    """Pair every condition with its eligible events.

    Returns the composed cases plus warnings; a condition with no compatible
    event is skipped with a warning, never an error. An event with no
    pass-criterion negation is warned about once, at its first case. The
    number of cases is exactly the sum of eligible-event counts over all
    conditions.

    Each event's class and pass criterion, and each sensor's classes, are
    looked up once per call rather than once per condition.
    """
    mapped = policy.mapped
    resolved = []  # (event, its class, its pass criterion, the warning a generic one needs)
    for event in events:
        pass_criterion, warning = policy.negation_of(event.id), None
        if pass_criterion is None:
            pass_criterion = f"The vehicle avoids: {event.unintended_behavior}"
            warning = (f"{E.MISSING_TEMPLATE}: no pass-criterion negation "
                       f"for event {event.id}; generic wording used")
        resolved.append((event, mapped(event.target), pass_criterion, warning))
    sensor_classes: dict[str, set[str]] = {}
    cases: list[TestCase] = []
    warnings: list[str] = []
    warned: set[str] = set()
    for condition in conditions:
        spec = suite.get(condition.sensor)
        if any(rel.targets_sensor() for rel in condition.relationships):
            eligible = resolved
        else:
            targets = sensor_classes.get(condition.sensor)
            if targets is None:
                targets = sensor_classes[condition.sensor] = set(map(mapped, spec.targets()))
            focal = mapped(condition.sources[0])
            if focal in targets:
                targets = {focal}
            eligible = [entry for entry in resolved if entry[1] in targets]
        if not eligible:
            warnings.append(f"{E.NO_COMPATIBLE_EVENT}: condition {condition.id} "
                            f"({condition.description}) matches no hazardous event")
            continue
        for event, _class, pass_criterion, warning in eligible:
            if warning is not None and warning not in warned:
                warned.add(warning)
                warnings.append(warning)
            cases.append(TestCase(
                id=test_case_id(condition.id, event.id),
                condition_id=condition.id,
                event_id=event.id,
                sensor=condition.sensor,
                situation=event.situation,
                trigger=condition.description,
                behavior=event.behavior,
                fail_criterion=event.unintended_behavior,
                pass_criterion=pass_criterion,
                odd=spec.odd,
            ))
    return cases, warnings


def outcome_record(case: TestCase, behavior: BehaviorClass | str,
                   note: str = "") -> dict:
    """Build the result row appended to the ledger after executing a case."""
    try:
        behavior = BehaviorClass(behavior)
    except ValueError:
        raise ToolkitError(E.INVALID_VALUE,
                           f"unknown behavior class {behavior!r}") from None
    record = {
        "test_case": case.id,
        "condition": case.condition_id,
        "event": case.event_id,
        "behavior": behavior.value,
        "outcome": OUTCOME_BY_BEHAVIOR[behavior],
    }
    if note:
        record["note"] = note
    return record


class ResultsLedger:
    """Append-only JSON-lines store of executed test-case outcomes."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, ensure_ascii=False)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def read(self) -> list[dict]:
        records = []
        for lineno, raw in enumerate(read_text(self.path).split("\n"), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DocumentError.at(E.SYNTAX_ERROR, f"unreadable results line: {exc.msg}",
                                       str(self.path), lineno) from None
            lone = _lone_surrogate(raw)
            if lone is not None:
                raise DocumentError.at(E.SYNTAX_ERROR, f"unreadable results line: {lone[1]}",
                                       str(self.path), lineno)
            if not isinstance(record, dict):
                raise DocumentError.at(E.INVALID_VALUE, f"results line must be a JSON object, "
                                       f"got {type(record).__name__}", str(self.path), lineno)
            records.append(record)
        return records


# ---------------------------------------------------------------------------
# Event documents
# ---------------------------------------------------------------------------

# HazardousEvent's text fields, in field order
_EVENT_TEXT_FIELDS = ("name", "situation", "behavior", "unintended_behavior")


def events_from_doc(doc: dict, *, source: str = "<document>") -> tuple[HazardousEvent, ...]:
    check_schema(doc, EVENTS_SCHEMA, source=source)
    sink = DiagnosticSink(file=source)
    events: list[HazardousEvent] = []
    ids: set[str] = set()
    for where, raw in sink.records(doc, "events", required=True):
        event_id = raw.get("id")
        if not isinstance(event_id, str) or not _EVENT_ID.fullmatch(event_id):
            sink.error(E.INVALID_IDENTIFIER, f"{where}: event id {event_id!r} is invalid")
            continue
        if not sink.first(ids, event_id, where, "event id"):
            continue
        texts = [sink.text(raw, key, where) for key in _EVENT_TEXT_FIELDS]
        target = sink.identifier(raw, "target", where)
        note = sink.text(raw, "source", where, "")
        if None in (*texts, target, note):
            continue
        events.append(HazardousEvent(event_id, *texts, target=target, source=note))
    sink.raise_if_errors()
    events.sort(key=lambda e: e.id)
    return tuple(events)


def events_to_doc(events: Sequence[HazardousEvent]) -> dict:
    raw_events = []
    for event in sorted(events, key=lambda e: e.id):
        raw: dict = {"id": event.id, "name": event.name,
                     "situation": event.situation, "behavior": event.behavior,
                     "unintended_behavior": event.unintended_behavior,
                     "target": event.target}
        if event.source:
            raw["source"] = event.source
        raw_events.append(raw)
    return {"schema": EVENTS_SCHEMA, "events": raw_events}


def cross_validate_events(events: Sequence[HazardousEvent], ontology: SourceOntology,
                          sink: DiagnosticSink) -> None:
    """Event targets must resolve against the ontology."""
    for event in events:
        if ontology.get(event.target) is None:
            sink.error(E.UNKNOWN_CONCEPT,
                       f"event {event.id!r}: target {event.target!r} does not "
                       f"resolve in the ontology")


# ---------------------------------------------------------------------------
# Policy documents
# ---------------------------------------------------------------------------

def policy_from_doc(doc: dict, *, source: str = "<document>") -> ComposePolicy:
    check_schema(doc, POLICY_SCHEMA, source=source)
    sink = DiagnosticSink(file=source)
    class_map: list[tuple[str, str]] = []
    for name, target in sink.collection(doc, "class_map", mapping=True).items():
        if not is_identifier(name) or not is_identifier(target):
            sink.error(E.INVALID_IDENTIFIER,
                       f"class_map entry {name!r}: {target!r} is invalid")
            continue
        class_map.append((name, target))
    negations: list[tuple[str, str]] = []
    for event_id, pass_text in sink.collection(doc, "negations", mapping=True).items():
        if not isinstance(event_id, str) or not _EVENT_ID.fullmatch(event_id) \
                or not isinstance(pass_text, str) or not pass_text.strip():
            sink.error(E.INVALID_VALUE,
                       f"negation for {event_id!r} must map an event id to text")
            continue
        negations.append((event_id, pass_text))
    sink.raise_if_errors()
    class_map.sort()
    negations.sort()
    return ComposePolicy(class_map=tuple(class_map), negations=tuple(negations))


def policy_to_doc(policy: ComposePolicy) -> dict:
    return {"schema": POLICY_SCHEMA,
            "class_map": {name: target for name, target in sorted(policy.class_map)},
            "negations": {behavior: text for behavior, text in sorted(policy.negations)}}

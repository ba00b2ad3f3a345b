"""Perception-system model: stages and stage mapping.

The stage ontology is closed-world and hard-coded. Active sensing runs
through signal transmission, propagation, reflection and receiving, each
graded by signal intensity/amount/noise. Passive sensing collapses to light
receiving, graded by brightness/contrast/purity. Recognition applies to both
classes: feature extraction, semantic segmentation, target classification and
target tracking, graded by feature variety/similarity/contradiction/
visibility.

``affected_stages`` maps a triggering source (plus its relationship context)
onto the stages of a declared perception system using five rules:

R1  entities owning a reflection-area property reach the reflection stage
    (active) or light receiving (passive);
R2  interactive entities additionally reach every declared recognition stage;
R3  environmental modifications reach signal propagation (active) or light
    receiving (passive);
R4  sources that cover or obstruct the sensor itself reach signal
    transmission and receiving (active) or light receiving (passive);
R5  disturbing entities and environmental modifications reach recognition
    stages only through a relationship whose focal concept is interactive.

R1-R3 depend on the source alone (``source_stages``), and R4 and R5 on one
relation at a time and on no sensor (``relation_rule``; ``rule_stages`` maps
the rule to a sensor's stages), so the stages of a bundle are the source's
own plus those each of its relations adds (``affected_stages``).
Results are always intersected with the stages the system declares.
"""
from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from . import errors as E
from .docio import check_schema
from .errors import DiagnosticSink, ToolkitError
from .ontology import (
    SENSOR_TARGET,
    ConceptKind,
    PropertyCategory,
    SourceConcept,
    SourceOntology,
)

__all__ = [
    "SensorClass",
    "StagePhase",
    "PerceptionStage",
    "PerceptionSystemSpec",
    "SensorSuite",
    "ALL_STAGES",
    "STAGE_BY_NAME",
    "SYSTEM_SCHEMA",
    "stages_for_class",
    "source_stages",
    "relation_rule",
    "rule_stages",
    "affected_stages",
    "suite_from_doc",
    "suite_to_doc",
]

SYSTEM_SCHEMA = "perception-system@1"


class SensorClass(str, Enum):
    ACTIVE = "Active"
    PASSIVE = "Passive"


class StagePhase(str, Enum):
    SENSING = "Sensing"
    RECOGNITION = "Recognition"


class PerceptionStage(NamedTuple):
    name: str
    phase: StagePhase
    sensor_classes: frozenset[SensorClass]
    quality_properties: tuple[str, ...]


_ACTIVE_ONLY = frozenset({SensorClass.ACTIVE})
_PASSIVE_ONLY = frozenset({SensorClass.PASSIVE})
_BOTH = frozenset({SensorClass.ACTIVE, SensorClass.PASSIVE})

_ACTIVE_QUALITIES = ("SignalIntensity", "SignalAmount", "SignalNoise")
_PASSIVE_QUALITIES = ("Brightness", "Contrast", "Purity")
_RECOGNITION_QUALITIES = ("Variety", "Similarity", "Contradiction", "Visibility")

#: Closed stage ontology, in canonical pipeline order.
ALL_STAGES: tuple[PerceptionStage, ...] = (
    PerceptionStage("SignalTransmission", StagePhase.SENSING, _ACTIVE_ONLY, _ACTIVE_QUALITIES),
    PerceptionStage("SignalPropagation", StagePhase.SENSING, _ACTIVE_ONLY, _ACTIVE_QUALITIES),
    PerceptionStage("SignalReflection", StagePhase.SENSING, _ACTIVE_ONLY, _ACTIVE_QUALITIES),
    PerceptionStage("SignalReceiving", StagePhase.SENSING, _ACTIVE_ONLY, _ACTIVE_QUALITIES),
    PerceptionStage("LightReceiving", StagePhase.SENSING, _PASSIVE_ONLY, _PASSIVE_QUALITIES),
    PerceptionStage("FeatureExtraction", StagePhase.RECOGNITION, _BOTH, _RECOGNITION_QUALITIES),
    PerceptionStage("SemanticSegmentation", StagePhase.RECOGNITION, _BOTH, _RECOGNITION_QUALITIES),
    PerceptionStage("TargetClassification", StagePhase.RECOGNITION, _BOTH, _RECOGNITION_QUALITIES),
    PerceptionStage("TargetTracking", StagePhase.RECOGNITION, _BOTH, _RECOGNITION_QUALITIES),
)

STAGE_BY_NAME: dict[str, PerceptionStage] = {s.name: s for s in ALL_STAGES}
STAGE_ORDER: dict[str, int] = {s.name: i for i, s in enumerate(ALL_STAGES)}
_RECOGNITION_STAGES = frozenset(s.name for s in ALL_STAGES
                                if s.phase is StagePhase.RECOGNITION)


def stages_for_class(sensor_class: SensorClass) -> tuple[PerceptionStage, ...]:
    return tuple(s for s in ALL_STAGES if sensor_class in s.sensor_classes)


# ---------------------------------------------------------------------------
# Declared perception systems
# ---------------------------------------------------------------------------

class PerceptionSystemSpec(NamedTuple):
    """One sensor of the vehicle: class, declared stages, intended targets."""

    sensor: str
    sensor_class: SensorClass
    stages: tuple[str, ...]
    functionality: tuple[tuple[str, str], ...] = ()  # (target concept, task)
    odd: tuple[str, ...] = ()

    def targets(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for concept, _task in self.functionality:
            seen.setdefault(concept, None)
        return tuple(seen)


class SensorSuite(NamedTuple):
    vehicle: str
    sensors: tuple[PerceptionSystemSpec, ...]

    def get(self, sensor: str) -> PerceptionSystemSpec:
        """The sensor named ``sensor``; ``UnknownSensor`` when there is none."""
        for spec in self.sensors:
            if spec.sensor == sensor:
                return spec
        raise ToolkitError(E.UNKNOWN_SENSOR,
                           f"suite for {self.vehicle!r} has no sensor {sensor!r}")


# ---------------------------------------------------------------------------
# Stage mapping (rules R1-R5)
# ---------------------------------------------------------------------------

#: The stages rules R1, R3, R4 and R5 reach on each sensor class.
_RULE_STAGES: dict[SensorClass, dict[str, frozenset[str]]] = {
    SensorClass.ACTIVE: {"R1": frozenset({"SignalReflection"}),
                         "R3": frozenset({"SignalPropagation"}),
                         "R4": frozenset({"SignalTransmission", "SignalReceiving"}),
                         "R5": _RECOGNITION_STAGES},
    SensorClass.PASSIVE: {**dict.fromkeys(("R1", "R3", "R4"), frozenset({"LightReceiving"})),
                          "R5": _RECOGNITION_STAGES},
}
#: The forms by which a source covers or obstructs the sensor itself (R4).
_R4_FORMS = frozenset({"SurfaceTreatment.Cover", "SpatialPosition.Occlusion"})


def source_stages(source: SourceConcept,
                  system: PerceptionSystemSpec) -> frozenset[str]:
    """Declared stages of ``system`` that ``source`` reaches on its own (R1-R3)."""
    rules = _RULE_STAGES[system.sensor_class]
    result: set[str] = set()
    if source.kind in (ConceptKind.INTERACTIVE, ConceptKind.DISTURBING) \
            and source.has_category(PropertyCategory.REFLECTION_AREA):
        result |= rules["R1"]
    if source.kind is ConceptKind.INTERACTIVE:
        result |= _RECOGNITION_STAGES  # R2
    if source.kind is ConceptKind.MODIFICATION:
        result |= rules["R3"]
    return frozenset(result.intersection(system.stages))


def relation_rule(source: SourceConcept, rel, ontology: SourceOntology) -> str | None:
    """The rule, "R4" or "R5", by which ``rel`` alone lets ``source`` reach more
    stages on any sensor (``rule_stages``), or None."""
    if rel.focal == SENSOR_TARGET and rel.partner == source.name:
        return "R4" if rel.form.label in _R4_FORMS else None
    focal = None if source.kind is ConceptKind.INTERACTIVE else ontology.get(rel.focal)
    return "R5" if focal is not None and focal.kind is ConceptKind.INTERACTIVE else None


def rule_stages(rule: str | None, system: PerceptionSystemSpec) -> frozenset[str]:
    """Declared stages of ``system`` that a ``relation_rule`` reaches."""
    return _RULE_STAGES[system.sensor_class].get(rule, frozenset()).intersection(system.stages)


def affected_stages(source: SourceConcept,
                    relations: Iterable,
                    system: PerceptionSystemSpec,
                    ontology: SourceOntology) -> frozenset[str]:
    """Stages of ``system`` that ``source`` can degrade, given its relations:
    its own stages (``source_stages``) plus those each relation alone adds
    by its rule (``rule_stages`` of its ``relation_rule``).

    ``relations`` holds :class:`~trigkit.relationships.RelationshipInstance`
    values referencing the source (possibly empty). The result is a subset of
    the system's declared stages.
    """
    if not system.stages:
        raise ToolkitError(E.EMPTY_STAGES,
                           f"system {system.sensor!r} declares no stages")
    if ontology.get(source.name) is None:
        raise ToolkitError(E.UNKNOWN_CONCEPT,
                           f"source {source.name!r} does not resolve in the ontology")
    return source_stages(source, system).union(
        *(rule_stages(relation_rule(source, rel, ontology), system) for rel in relations))


# ---------------------------------------------------------------------------
# Suite documents
# ---------------------------------------------------------------------------

_CLASS_BY_NAME = {sensor_class.value: sensor_class for sensor_class in SensorClass}


def suite_from_doc(doc: dict, *, source: str = "<document>") -> SensorSuite:
    check_schema(doc, SYSTEM_SCHEMA, source=source)
    sink = DiagnosticSink(file=source)
    vehicle = sink.text(doc, "vehicle")
    shared_odd = tuple(sink.collection(doc, "odd", strings=True))
    sink.distinct(shared_odd, "odd", "entry")

    sensors: list[PerceptionSystemSpec] = []
    names: set[str] = set()
    for where, raw in sink.records(doc, "sensors", required=True):
        spec = _sensor_from_doc(raw, where, shared_odd, sink)
        if spec is not None and sink.first(names, spec.sensor, where, "sensor"):
            sensors.append(spec)

    sink.raise_if_errors()
    sensors.sort(key=lambda s: s.sensor)
    return SensorSuite(vehicle=vehicle, sensors=tuple(sensors))


def _sensor_from_doc(raw: dict, where: str, shared_odd: tuple[str, ...],
                     sink: DiagnosticSink) -> PerceptionSystemSpec | None:
    name = sink.identifier(raw, "sensor", where)
    sensor_class = sink.choice(raw, "class", _CLASS_BY_NAME, where,
                               code=E.UNKNOWN_SENSOR_CLASS)
    if name is None or sensor_class is None:
        return None

    allowed = {s.name for s in stages_for_class(sensor_class)}
    stages: set[str] = set()
    for stage in sink.collection(raw, "stages", where, strings=True):
        if stage not in STAGE_BY_NAME:
            sink.error(E.UNKNOWN_STAGE, f"{where}: unknown stage {stage!r}")
        elif stage not in allowed:
            sink.error(E.ILLEGAL_STAGE_FOR_CLASS,
                       f"{where}: stage {stage} is not available to a "
                       f"{sensor_class.value} sensor")
        else:
            sink.first(stages, stage, where, "stage")
    if not stages:
        sink.error(E.EMPTY_STAGES, f"{where}: sensor declares no stages")
        return None

    functionality: list[tuple[str, str]] = []
    for fwhere, rf in sink.records(raw, "functionality", where):
        target = sink.identifier(rf, "target", fwhere)
        task = sink.text(rf, "task", fwhere)
        if target is not None and task is not None:
            functionality.append((target, task))
    sink.distinct(functionality, where, "functionality")

    odd = shared_odd
    if raw.get("odd") is not None:
        odd = sink.collection(raw, "odd", where, strings=True)
        sink.distinct(odd, where, "odd entry")

    functionality.sort()
    return PerceptionSystemSpec(sensor=name, sensor_class=sensor_class,
                                stages=tuple(sorted(stages, key=STAGE_ORDER.get)),
                                functionality=tuple(functionality),
                                odd=tuple(odd))


def suite_to_doc(suite: SensorSuite) -> dict:
    sensors = []
    for spec in sorted(suite.sensors, key=lambda s: s.sensor):
        sensors.append({
            "sensor": spec.sensor,
            "class": spec.sensor_class.value,
            "stages": sorted(spec.stages, key=lambda s: STAGE_ORDER[s]),
            "functionality": [{"target": t, "task": task}
                              for t, task in sorted(spec.functionality)],
            "odd": list(spec.odd),
        })
    return {"schema": SYSTEM_SCHEMA, "vehicle": suite.vehicle, "sensors": sensors}


def cross_validate_suite(suite: SensorSuite, ontology: SourceOntology,
                         sink: DiagnosticSink) -> None:
    """Intended-functionality targets must resolve against the ontology."""
    for spec in suite.sensors:
        for target, _task in spec.functionality:
            if ontology.get(target) is None:
                sink.error(E.UNKNOWN_CONCEPT,
                           f"sensor {spec.sensor!r}: functionality target "
                           f"{target!r} does not resolve in the ontology")

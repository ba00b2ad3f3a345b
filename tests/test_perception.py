"""Perception stages and the source-to-stage mapping rules."""

from itertools import chain, combinations

import pytest

from conftest import yaml_text

from trigkit.docio import dump_document, parse_document
from trigkit.errors import DocumentError, ToolkitError
from trigkit.ontology import (
    ConceptKind,
    PropertyCategory,
    SourceConcept,
    SourceOntology,
    SourceProperty,
)
from trigkit.perception import (
    ALL_STAGES,
    PerceptionSystemSpec,
    SensorClass,
    StagePhase,
    affected_stages,
    relation_rule,
    rule_stages,
    source_stages,
    stages_for_class,
    suite_from_doc,
    suite_to_doc,
)
from trigkit.pipeline import candidate_relations
from trigkit.relationships import (
    RELATION_FORMS,
    RelationForm,
    RelationshipInstance,
    RelationshipKind,
)


def _load_suite(text, fmt="yaml"):
    return suite_from_doc(parse_document(text, fmt=fmt))


SUITE = """
schema: perception-system@1
vehicle: Sweeper
odd: [Daytime, Light rain]
sensors:
  - sensor: Camera
    class: Passive
    stages: [LightReceiving, FeatureExtraction, TargetClassification]
    functionality:
      - {target: Pedestrian, task: detect and avoid}
  - sensor: LiDAR
    class: Active
    stages: [SignalTransmission, SignalPropagation, SignalReflection, SignalReceiving]
    odd: [Night]
"""


def _concept(name, kind, categories=()):
    props = tuple(SourceProperty(f"P{i}", c) for i, c in enumerate(categories))
    return SourceConcept(name=name, kind=kind, properties=props)


def _ontology(*concepts):
    return SourceOntology(concepts=tuple(sorted(concepts, key=lambda c: c.name)))


def _rel(form, focal, partner):
    return RelationshipInstance(form=form, focal=focal, partner=partner,
                                perturbed=frozenset())


OCCLUSION = RelationForm(RelationshipKind.SPATIAL_POSITION, "Occlusion")
COVER = RelationForm(RelationshipKind.SURFACE_TREATMENT, "Cover")
LIGHTEN = RelationForm(RelationshipKind.SURFACE_TREATMENT, "Lighten")


class TestStageOntology:
    def test_nine_stages_total(self):
        assert len(ALL_STAGES) == 9

    def test_active_class_sees_eight_stages(self):
        names = [s.name for s in stages_for_class(SensorClass.ACTIVE)]
        assert names == ["SignalTransmission", "SignalPropagation",
                         "SignalReflection", "SignalReceiving",
                         "FeatureExtraction", "SemanticSegmentation",
                         "TargetClassification", "TargetTracking"]

    def test_passive_class_sees_five_stages(self):
        names = [s.name for s in stages_for_class(SensorClass.PASSIVE)]
        assert names == ["LightReceiving", "FeatureExtraction",
                         "SemanticSegmentation", "TargetClassification",
                         "TargetTracking"]

    def test_stage_quality_properties(self):
        by_name = {s.name: s for s in ALL_STAGES}
        assert by_name["SignalReflection"].quality_properties == (
            "SignalIntensity", "SignalAmount", "SignalNoise")
        assert by_name["LightReceiving"].quality_properties == (
            "Brightness", "Contrast", "Purity")
        assert by_name["TargetTracking"].quality_properties == (
            "Variety", "Similarity", "Contradiction", "Visibility")

    def test_sensing_and_recognition_phases(self):
        sensing = [s.name for s in ALL_STAGES if s.phase is StagePhase.SENSING]
        assert "LightReceiving" in sensing
        assert "TargetClassification" not in sensing


class TestAffectedStages:
    """The five mapping rules, exercised one at a time."""

    ACTIVE = PerceptionSystemSpec(
        sensor="LiDAR", sensor_class=SensorClass.ACTIVE,
        stages=tuple(s.name for s in stages_for_class(SensorClass.ACTIVE)))
    PASSIVE = PerceptionSystemSpec(
        sensor="Camera", sensor_class=SensorClass.PASSIVE,
        stages=tuple(s.name for s in stages_for_class(SensorClass.PASSIVE)))

    def test_r1_reflection_area_reaches_reflection(self):
        litter = _concept("Litter", ConceptKind.DISTURBING,
                          [PropertyCategory.REFLECTION_AREA])
        ontology = _ontology(litter)
        assert affected_stages(litter, [], self.ACTIVE, ontology) == {"SignalReflection"}
        assert affected_stages(litter, [], self.PASSIVE, ontology) == {"LightReceiving"}

    def test_r2_interactive_entity_reaches_all_declared_recognition(self):
        pedestrian = _concept("Pedestrian", ConceptKind.INTERACTIVE,
                              [PropertyCategory.REFLECTION_AREA])
        ontology = _ontology(pedestrian)
        stages = affected_stages(pedestrian, [], self.ACTIVE, ontology)
        assert stages == {"SignalReflection", "FeatureExtraction",
                          "SemanticSegmentation", "TargetClassification",
                          "TargetTracking"}

    def test_r2_respects_the_declared_subset(self):
        pedestrian = _concept("Pedestrian", ConceptKind.INTERACTIVE)
        narrow = PerceptionSystemSpec(
            sensor="Camera", sensor_class=SensorClass.PASSIVE,
            stages=("LightReceiving", "TargetClassification"))
        stages = affected_stages(pedestrian, [], narrow, _ontology(pedestrian))
        assert stages == {"TargetClassification"}

    def test_r3_modification_reaches_propagation(self):
        rain = _concept("Rain", ConceptKind.MODIFICATION,
                        [PropertyCategory.TRANSMITTANCE])
        ontology = _ontology(rain)
        assert affected_stages(rain, [], self.ACTIVE, ontology) == {"SignalPropagation"}
        assert affected_stages(rain, [], self.PASSIVE, ontology) == {"LightReceiving"}

    def test_r4_sensor_cover_reaches_transmission_and_receiving(self):
        leaf = _concept("Leaf", ConceptKind.DISTURBING)
        ontology = _ontology(leaf)
        cover = _rel(COVER, "Sensor", "Leaf")
        assert affected_stages(leaf, [cover], self.ACTIVE, ontology) == {
            "SignalTransmission", "SignalReceiving"}
        assert affected_stages(leaf, [cover], self.PASSIVE, ontology) == {
            "LightReceiving"}

    def test_r4_sensor_occlusion_counts_too(self):
        bag = _concept("FloatingObject", ConceptKind.DISTURBING)
        ontology = _ontology(bag)
        occ = _rel(OCCLUSION, "Sensor", "FloatingObject")
        assert affected_stages(bag, [occ], self.ACTIVE, ontology) == {
            "SignalTransmission", "SignalReceiving"}

    def test_r4_needs_cover_or_occlusion(self):
        lamp = _concept("Lamp", ConceptKind.DISTURBING)
        ontology = _ontology(lamp)
        lighten = _rel(LIGHTEN, "Sensor", "Lamp")
        assert affected_stages(lamp, [lighten], self.ACTIVE, ontology) == frozenset()

    def test_r5_disturber_reaches_recognition_through_interactive_focal(self):
        pedestrian = _concept("Pedestrian", ConceptKind.INTERACTIVE)
        cone = _concept("Cone", ConceptKind.DISTURBING,
                        [PropertyCategory.REFLECTION_AREA])
        ontology = _ontology(pedestrian, cone)
        occluding = _rel(OCCLUSION, "Pedestrian", "Cone")
        stages = affected_stages(cone, [occluding], self.ACTIVE, ontology)
        assert {"FeatureExtraction", "TargetTracking"} <= stages
        assert "SignalReflection" in stages  # R1 still applies

    def test_r5_does_not_fire_for_disturbing_focal(self):
        cone = _concept("Cone", ConceptKind.DISTURBING)
        leaf = _concept("Leaf", ConceptKind.DISTURBING)
        ontology = _ontology(cone, leaf)
        rel = _rel(OCCLUSION, "Leaf", "Cone")
        assert affected_stages(cone, [rel], self.ACTIVE, ontology) == frozenset()

    def test_result_is_subset_of_declared_stages(self):
        rain = _concept("Rain", ConceptKind.MODIFICATION)
        reflection_only = PerceptionSystemSpec(
            sensor="LiDAR", sensor_class=SensorClass.ACTIVE,
            stages=("SignalReflection",))
        assert affected_stages(rain, [], reflection_only, _ontology(rain)) == frozenset()

    def test_empty_stage_declaration_rejected(self):
        rain = _concept("Rain", ConceptKind.MODIFICATION)
        empty = PerceptionSystemSpec(sensor="LiDAR",
                                     sensor_class=SensorClass.ACTIVE, stages=())
        with pytest.raises(ToolkitError, match="declares no stages"):
            affected_stages(rain, [], empty, _ontology(rain))

    def test_source_must_resolve_in_the_ontology(self):
        stray = _concept("Stray", ConceptKind.DISTURBING)
        with pytest.raises(ToolkitError, match="does not resolve"):
            affected_stages(stray, [], self.ACTIVE, _ontology())


def _reference_stages(source, relations, system, ontology):
    """R1-R5 applied in one pass over the source and all its relations."""
    declared = set(system.stages)
    recognition = {s.name for s in ALL_STAGES if s.phase is StagePhase.RECOGNITION}
    active = system.sensor_class is SensorClass.ACTIVE
    result = set()
    if source.kind in (ConceptKind.INTERACTIVE, ConceptKind.DISTURBING) and any(
            p.category is PropertyCategory.REFLECTION_AREA for p in source.properties):
        result.add("SignalReflection" if active else "LightReceiving")
    if source.kind is ConceptKind.INTERACTIVE:
        result |= recognition
    if source.kind is ConceptKind.MODIFICATION:
        result.add("SignalPropagation" if active else "LightReceiving")
    for rel in relations:
        if rel.focal == "Sensor" and rel.partner == source.name:
            if rel.form in (COVER, OCCLUSION):
                result |= {"SignalTransmission", "SignalReceiving"} if active \
                    else {"LightReceiving"}
        elif source.kind is not ConceptKind.INTERACTIVE:
            focal = ontology.get(rel.focal)
            if focal is not None and focal.kind is ConceptKind.INTERACTIVE:
                result |= recognition
    return frozenset(result & declared)


class TestStagesPerRelation:
    """``affected_stages`` is the source's own stages plus what each relation
    adds, so generation can map each relation once. Checked against the five
    rules applied in one pass."""

    @staticmethod
    def _relations(source, ontology, matrix):
        """The source's candidate relations, plus every form from every other
        concept onto the source, where R5 can fire."""
        yield from candidate_relations(source, matrix, ontology)
        for focal in ontology.names():
            if focal != source.name:
                for form in RELATION_FORMS:
                    yield _rel(form, focal, source.name)

    def test_relation_stages_are_what_one_relation_adds(self, ontology, matrix, suite):
        checked = 0
        for spec in suite.sensors:
            for name in ontology.names():
                source = ontology.get(name)
                bare = _reference_stages(source, (), spec, ontology)
                assert source_stages(source, spec) == bare
                assert affected_stages(source, (), spec, ontology) == bare
                for rel in self._relations(source, ontology, matrix):
                    adds = rule_stages(relation_rule(source, rel, ontology), spec)
                    assert adds <= set(spec.stages)
                    assert adds - bare == _reference_stages(source, (rel,), spec,
                                                            ontology) - bare
                    checked += 1
        assert checked > 100

    def test_bundle_stages_are_the_bare_stages_plus_each_relations(
            self, ontology, matrix, suite):
        for spec in suite.sensors:
            for name in ontology.names():
                source = ontology.get(name)
                bare = source_stages(source, spec)
                candidates = candidate_relations(source, matrix, ontology)
                for chosen in chain(*(combinations(candidates, size) for size in range(3))):
                    stages = affected_stages(source, chosen, spec, ontology)
                    assert stages == bare.union(*(
                        rule_stages(relation_rule(source, rel, ontology), spec) for rel in chosen))
                    assert stages == _reference_stages(source, chosen, spec, ontology)


class TestSuiteLoading:
    def test_minimal_suite(self):
        suite = _load_suite(SUITE)
        assert suite.vehicle == "Sweeper"
        assert [s.sensor for s in suite.sensors] == ["Camera", "LiDAR"]
        camera = suite.get("Camera")
        assert camera.sensor_class is SensorClass.PASSIVE
        assert camera.targets() == ("Pedestrian",)

    def test_unknown_sensor_is_an_error(self):
        with pytest.raises(ToolkitError) as excinfo:
            _load_suite(SUITE).get("Radar")
        assert excinfo.value.code == "UnknownSensor"
        assert excinfo.value.args[0] == "suite for 'Sweeper' has no sensor 'Radar'"

    def test_shared_odd_is_the_default(self):
        suite = _load_suite(SUITE)
        assert suite.get("Camera").odd == ("Daytime", "Light rain")
        assert suite.get("LiDAR").odd == ("Night",)  # own list wins

    def test_stage_not_available_to_class(self):
        text = SUITE.replace("LightReceiving, ", "SignalReflection, ")
        with pytest.raises(DocumentError) as excinfo:
            _load_suite(text)
        assert excinfo.value.code == "IllegalStageForClass"

    def test_unknown_stage(self):
        text = SUITE.replace("FeatureExtraction", "Daydreaming")
        with pytest.raises(DocumentError) as excinfo:
            _load_suite(text)
        assert excinfo.value.code == "UnknownStage"

    def test_unknown_sensor_class(self):
        text = SUITE.replace("class: Passive", "class: Psychic")
        with pytest.raises(DocumentError) as excinfo:
            _load_suite(text)
        assert excinfo.value.code == "UnknownSensorClass"

    def test_duplicate_sensor_rejected(self):
        text = SUITE + """
  - sensor: Camera
    class: Passive
    stages: [LightReceiving]
"""
        with pytest.raises(DocumentError, match="duplicate sensor 'Camera'"):
            _load_suite(text)

    def test_sensor_without_stages_rejected(self):
        text = """
schema: perception-system@1
vehicle: Sweeper
sensors:
  - sensor: Camera
    class: Passive
    stages: []
"""
        with pytest.raises(DocumentError) as excinfo:
            _load_suite(text)
        assert excinfo.value.code == "EmptyStages"

    def test_stages_stored_in_pipeline_order(self):
        text = """
schema: perception-system@1
vehicle: Sweeper
sensors:
  - sensor: LiDAR
    class: Active
    stages: [SignalReceiving, SignalTransmission, SignalReflection]
"""
        suite = _load_suite(text)
        assert suite.get("LiDAR").stages == (
            "SignalTransmission", "SignalReflection", "SignalReceiving")

    def test_round_trip(self):
        suite = _load_suite(SUITE)
        doc = suite_to_doc(suite)
        for fmt, text in (("yaml", yaml_text(doc)), ("json", dump_document(doc))):
            assert _load_suite(text, fmt=fmt) == suite

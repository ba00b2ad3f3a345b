"""Description templates: signatures, lookup, generic fallback, documents."""

import pytest

from conftest import yaml_text

from trigkit.docio import dump_document, parse_document
from trigkit.errors import DiagnosticSink, DocumentError, ToolkitError
from trigkit.templates import (
    TemplateSet,
    cross_validate_templates,
    split_signature,
    templates_from_doc,
    templates_to_doc,
)


def _load_templates(text, fmt="yaml"):
    return templates_from_doc(parse_document(text, fmt=fmt))


DOC = """
schema: condition-templates@1
distance_suffix: ", combined with a distant target"
templates:
  - concept: Pedestrian
    property: PerspectiveShape
    stage: TargetClassification
    variants:
      - {tag: squatting, text: A pedestrian who is squatting}
      - {tag: sitting, text: A pedestrian who is sitting}
  - relationships: SurfaceTreatment.Cover(Sensor,Leaf)
    concept: Leaf
    property: Material
    stage: LightReceiving
    variants:
      - {tag: default, text: Fallen leaves cover the camera}
"""


class TestSplitSignature:
    def test_empty_signature(self):
        assert split_signature("") == []

    def test_single_part(self):
        assert split_signature("SurfaceTreatment.Cover(Sensor,Leaf)") == [
            ("SurfaceTreatment.Cover", "Sensor", "Leaf")]

    def test_multiple_parts(self):
        parts = split_signature(
            "CognitiveFeature(Pedestrian,Cone);"
            "SpatialPosition.Occlusion(Pedestrian,Wall)")
        assert parts == [("CognitiveFeature", "Pedestrian", "Cone"),
                         ("SpatialPosition.Occlusion", "Pedestrian", "Wall")]

    @pytest.mark.parametrize("bad", [
        "Cover(Sensor Leaf)", "Possess(Pedestrian)", "(A,B)",
        "Possess(Pedestrian, Lamp)",  # no space allowed after the comma
    ])
    def test_malformed_parts(self, bad):
        with pytest.raises(ToolkitError, match="malformed relation signature"):
            split_signature(bad)


class TestLookup:
    def test_exact_key_hit(self):
        templates = _load_templates(DOC)
        variants = templates.lookup("", "Pedestrian", "PerspectiveShape",
                                    "TargetClassification")
        assert variants == (("squatting", "A pedestrian who is squatting"),
                            ("sitting", "A pedestrian who is sitting"))

    def test_signature_is_part_of_the_key(self):
        templates = _load_templates(DOC)
        assert templates.lookup("SurfaceTreatment.Cover(Sensor,Leaf)",
                                "Leaf", "Material", "LightReceiving") is not None
        assert templates.lookup("", "Leaf", "Material", "LightReceiving") is None

    def test_miss_returns_none(self):
        templates = _load_templates(DOC)
        assert templates.lookup("", "Leaf", "Color", "LightReceiving") is None


class TestGenericDescription:
    def test_bare_bundle(self):
        from trigkit.relationships import RelationshipBundle

        templates = TemplateSet()
        text = templates.generic_description(
            RelationshipBundle(source="Rain"), "Rain", ("Density",),
            "SignalPropagation")
        assert text == "Adverse density of the rain during signal propagation"

    def test_regular_relations_are_listed(self):
        from trigkit.relationships import (
            RelationshipInstance,
            parse_relation_form,
        )
        from trigkit.relationships import RelationshipBundle

        rel = RelationshipInstance(
            form=parse_relation_form("SpatialPosition.Occlusion"),
            focal="Pedestrian", partner="TrafficCone", perturbed=frozenset())
        bundle = RelationshipBundle(source="Pedestrian", relations=(rel,))
        text = TemplateSet().generic_description(
            bundle, "Pedestrian", ("PerspectiveShape",), "TargetClassification")
        assert text == ("Adverse perspective shape of the pedestrian during "
                        "target classification, given "
                        "Occludedby(Pedestrian, Traffic cone)")

    def test_sensor_cover_is_phrased_as_obstruction(self):
        from trigkit.relationships import (
            RelationshipInstance,
            parse_relation_form,
        )
        from trigkit.relationships import RelationshipBundle

        rel = RelationshipInstance(
            form=parse_relation_form("SurfaceTreatment.Cover"),
            focal="Sensor", partner="Dust", perturbed=frozenset())
        bundle = RelationshipBundle(source="Dust", relations=(rel,))
        text = TemplateSet().generic_description(
            bundle, "Dust", ("Density",), "SignalPropagation")
        assert text.endswith(", with the sensor obstructed")


class TestDocuments:
    def test_missing_variants_rejected(self):
        text = """
schema: condition-templates@1
templates:
  - {concept: Leaf, property: Material, stage: LightReceiving, variants: []}
"""
        with pytest.raises(DocumentError, match="'variants' must be a non-empty list"):
            _load_templates(text)

    def test_duplicate_tags_rejected(self):
        text = """
schema: condition-templates@1
templates:
  - concept: Leaf
    property: Material
    stage: LightReceiving
    variants:
      - {tag: default, text: one}
      - {tag: default, text: two}
"""
        with pytest.raises(DocumentError) as excinfo:
            _load_templates(text)
        assert excinfo.value.code == "DuplicateName"

    def test_duplicate_keys_rejected(self):
        text = DOC + """
  - concept: Pedestrian
    property: PerspectiveShape
    stage: TargetClassification
    variants:
      - {tag: other, text: something else}
"""
        with pytest.raises(DocumentError, match="duplicate template key"):
            _load_templates(text)

    def test_bad_signature_rejected(self):
        text = """
schema: condition-templates@1
templates:
  - relationships: Nonsense Here
    concept: Leaf
    property: Material
    stage: LightReceiving
    variants:
      - {tag: default, text: x}
"""
        with pytest.raises(DocumentError) as excinfo:
            _load_templates(text)
        assert excinfo.value.code == "InvalidValue"

    def test_relationships_in_a_literal_block_are_rejected(self):
        """The final line break a YAML literal block keeps would make a key
        that no generated signature equals."""
        text = DOC.replace("  - relationships: SurfaceTreatment.Cover(Sensor,Leaf)\n",
                           "  - relationships: |\n      SurfaceTreatment.Cover(Sensor,Leaf)\n")
        with pytest.raises(DocumentError) as excinfo:
            _load_templates(text)
        [diag] = excinfo.value.diagnostics
        assert (diag.code, diag.message) == (
            "InvalidValue", "templates[1]: malformed relation signature part "
                            "'SurfaceTreatment.Cover(Sensor,Leaf)\\n'")

    def test_repeated_property_in_key_rejected(self):
        # no matrix row repeats a property, so such a key could never match
        text = """
schema: condition-templates@1
templates:
  - concept: Leaf
    property: Color/Color
    stage: LightReceiving
    variants:
      - {tag: default, text: x}
"""
        with pytest.raises(DocumentError) as excinfo:
            _load_templates(text)
        [diag] = excinfo.value.diagnostics
        assert (diag.code, diag.message) == (
            "InvalidIdentifier", "templates[0]: property key 'Color/Color' is invalid")

    def test_empty_distance_suffix_rejected(self):
        text = DOC.replace('", combined with a distant target"', '""')
        with pytest.raises(DocumentError, match="distance_suffix"):
            _load_templates(text)

    def test_round_trip(self):
        templates = _load_templates(DOC)
        doc = templates_to_doc(templates)
        for fmt, text in (("yaml", yaml_text(doc)), ("json", dump_document(doc))):
            again = _load_templates(text, fmt=fmt)
            assert again.entries == templates.entries
            assert again.distance_suffix == templates.distance_suffix

    def test_doc_sorted_by_concept(self):
        doc = templates_to_doc(_load_templates(DOC))
        concepts = [t["concept"] for t in doc["templates"]]
        assert concepts == sorted(concepts)

    def test_cross_validation_flags_unknown_names(self):
        from trigkit.ontology import SourceOntology

        sink = DiagnosticSink()
        cross_validate_templates(_load_templates(DOC), SourceOntology(), sink)
        assert any("unknown concept 'Pedestrian'" in d.message for d in sink.items)

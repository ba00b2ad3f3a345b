"""Triggering-source ontology: kinds, categories, taxonomy, serialization."""

import pytest

from conftest import yaml_text

from trigkit.docio import dump_document, parse_document
from trigkit.errors import DocumentError, ToolkitError
from trigkit.ontology import (
    ConceptKind,
    PropertyCategory,
    SourceConcept,
    SourceProperty,
    legal_categories,
    lookup_concept,
    ontology_from_doc,
    ontology_to_doc,
)

MINIMAL = """
schema: triggering-sources@1
concepts:
  - name: Pedestrian
    kind: InteractiveEntity
    properties:
      - {name: Color, category: Reflectivity}
      - {name: PerspectiveShape, category: ReflectionArea}
    instances: [Adult, Child]
  - name: Rain
    kind: EnvironmentalModification
    properties:
      - {name: Density, category: Reflectivity}
      - {name: Density, category: Transmittance}
"""


def _load(text, fmt="yaml"):
    return ontology_from_doc(parse_document(text, fmt=fmt))


class TestKindsAndCategories:
    def test_entities_never_hold_transmittance(self):
        for kind in (ConceptKind.INTERACTIVE, ConceptKind.DISTURBING):
            assert PropertyCategory.TRANSMITTANCE not in legal_categories(kind)

    def test_modifications_hold_only_reflectivity_and_transmittance(self):
        assert legal_categories(ConceptKind.MODIFICATION) == frozenset({
            PropertyCategory.REFLECTIVITY, PropertyCategory.TRANSMITTANCE})

    def test_transmittance_on_entity_rejected(self):
        text = MINIMAL + """
  - name: Litter
    kind: DisturbingEntity
    properties:
      - {name: Haze, category: Transmittance}
"""
        with pytest.raises(DocumentError, match="not allowed for DisturbingEntity"):
            _load(text)

    def test_feature_variability_on_modification_rejected(self):
        text = """
schema: triggering-sources@1
concepts:
  - name: Fog
    kind: EnvironmentalModification
    properties:
      - {name: Shape, category: FeatureVariability}
"""
        with pytest.raises(DocumentError) as excinfo:
            _load(text)
        assert excinfo.value.code == "IllegalCategoryForKind"


class TestLoading:
    def test_minimal_document(self):
        ontology = _load(MINIMAL)
        assert ontology.names() == ("Pedestrian", "Rain")
        pedestrian = ontology.get("Pedestrian")
        assert pedestrian.kind is ConceptKind.INTERACTIVE
        assert pedestrian.instances == ("Adult", "Child")

    def test_a_name_in_a_literal_block_is_rejected(self):
        """A YAML literal block keeps its final line break, which no
        identifier holds."""
        text = MINIMAL.replace("  - name: Pedestrian\n", "  - name: |\n      Pedestrian\n")
        assert parse_document(text)["concepts"][0]["name"] == "Pedestrian\n"
        with pytest.raises(DocumentError) as excinfo:
            _load(text)
        assert excinfo.value.code == "InvalidIdentifier"

    def test_same_property_name_under_two_categories(self):
        # density matters both for what rain reflects and what it lets through
        rain = _load(MINIMAL).get("Rain")
        assert rain.property_names() == ("Density",)
        assert rain.categories_of("Density") == frozenset({
            PropertyCategory.REFLECTIVITY, PropertyCategory.TRANSMITTANCE})

    def test_duplicate_name_and_category_pair_rejected(self):
        text = """
schema: triggering-sources@1
concepts:
  - name: Rain
    kind: EnvironmentalModification
    properties:
      - {name: Density, category: Transmittance}
      - {name: Density, category: Transmittance}
"""
        with pytest.raises(DocumentError) as excinfo:
            _load(text)
        assert excinfo.value.code == "DuplicateName"

    def test_duplicate_concept_rejected(self):
        text = MINIMAL + """
  - name: Pedestrian
    kind: InteractiveEntity
"""
        with pytest.raises(DocumentError, match="duplicate concept name 'Pedestrian'"):
            _load(text)

    def test_unknown_kind_rejected(self):
        text = """
schema: triggering-sources@1
concepts:
  - name: Ghost
    kind: SpookyEntity
"""
        with pytest.raises(DocumentError) as excinfo:
            _load(text)
        assert excinfo.value.code == "UnknownKind"

    def test_unknown_category_rejected(self):
        text = """
schema: triggering-sources@1
concepts:
  - name: Pedestrian
    kind: InteractiveEntity
    properties:
      - {name: Mood, category: Sentiment}
"""
        with pytest.raises(DocumentError) as excinfo:
            _load(text)
        assert excinfo.value.code == "UnknownCategory"

    def test_reserved_sensor_name_rejected(self):
        text = """
schema: triggering-sources@1
concepts:
  - name: Sensor
    kind: DisturbingEntity
"""
        with pytest.raises(DocumentError, match="reserved"):
            _load(text)

    def test_dangling_parent_rejected(self):
        text = MINIMAL + """
  - name: Jogger
    kind: InteractiveEntity
    parent: Runner
"""
        with pytest.raises(DocumentError) as excinfo:
            _load(text)
        assert excinfo.value.code == "DanglingParent"

    def test_parent_of_different_kind_rejected(self):
        text = MINIMAL + """
  - name: Mist
    kind: EnvironmentalModification
    parent: Pedestrian
"""
        with pytest.raises(DocumentError) as excinfo:
            _load(text)
        assert excinfo.value.code == "KindMismatch"

    def test_taxonomy_cycle_rejected(self):
        text = """
schema: triggering-sources@1
concepts:
  - {name: A, kind: DisturbingEntity, parent: B}
  - {name: B, kind: DisturbingEntity, parent: A}
"""
        with pytest.raises(DocumentError) as excinfo:
            _load(text)
        assert excinfo.value.code == "TaxonomyCycle"

    def test_wrong_schema_rejected(self):
        with pytest.raises(DocumentError, match="expected schema"):
            _load("schema: perception-system@1\nconcepts: []\n")

    def test_several_findings_reported_together(self):
        text = """
schema: triggering-sources@1
concepts:
  - name: Ghost
    kind: SpookyEntity
  - name: 2Bad
    kind: DisturbingEntity
"""
        with pytest.raises(DocumentError) as excinfo:
            _load(text)
        codes = {d.code for d in excinfo.value.diagnostics}
        assert codes == {"UnknownKind", "InvalidIdentifier"}

    def test_json_form_loads_identically(self):
        import json

        doc = parse_document(MINIMAL)
        assert _load(json.dumps(doc), fmt="json").names() == ("Pedestrian", "Rain")


class TestTaxonomy:
    def test_lookup_concept_error(self):
        with pytest.raises(ToolkitError, match="unknown concept 'Yeti'"):
            lookup_concept(_load(MINIMAL), "Yeti")


def test_concept_accessors():
    concept = SourceConcept(
        name="Leaf", kind=ConceptKind.DISTURBING,
        properties=(SourceProperty("Color", PropertyCategory.REFLECTIVITY),
                    SourceProperty("Shape", PropertyCategory.REFLECTION_AREA)))
    assert concept.property_names() == ("Color", "Shape")
    assert concept.has_category(PropertyCategory.REFLECTION_AREA)
    assert not concept.has_category(PropertyCategory.DATA_GENERATION)
    assert concept.categories_of("Color") == frozenset({PropertyCategory.REFLECTIVITY})


def test_properties_in_names_each_property_once_in_declared_order():
    # Density is held under two categories; a relation perturbing either,
    # or both, adds its row once
    concept = SourceConcept(
        name="Rain", kind=ConceptKind.MODIFICATION,
        properties=(SourceProperty("Density", PropertyCategory.REFLECTIVITY),
                    SourceProperty("DropSize", PropertyCategory.TRANSMITTANCE),
                    SourceProperty("Density", PropertyCategory.TRANSMITTANCE)))
    reflect, transmit = PropertyCategory.REFLECTIVITY, PropertyCategory.TRANSMITTANCE
    assert concept.properties_in(frozenset({reflect})) == ("Density",)
    assert concept.properties_in(frozenset({transmit})) == ("Density", "DropSize")
    assert concept.properties_in(frozenset({reflect, transmit})) == ("Density", "DropSize")
    assert concept.properties_in(frozenset({PropertyCategory.DATA_GENERATION})) == ()


def test_serialization_round_trip():
    ontology = _load(MINIMAL)
    doc = ontology_to_doc(ontology)
    for fmt, text in (("yaml", yaml_text(doc)), ("json", dump_document(doc))):
        assert _load(text, fmt=fmt) == ontology


def test_doc_form_is_sorted_and_stable():
    doc = ontology_to_doc(_load(MINIMAL))
    names = [c["name"] for c in doc["concepts"]]
    assert names == sorted(names)
    assert doc["schema"] == "triggering-sources@1"

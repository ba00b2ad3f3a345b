"""Relationship forms, the compatibility matrix, instances and bundles."""

import pytest

from trigkit.docio import dump_document, parse_document
from trigkit.errors import DocumentError, DiagnosticSink, ToolkitError
from trigkit.ontology import (
    ConceptKind,
    PropertyCategory,
    SourceConcept,
    SourceOntology,
    SourceProperty,
)
from trigkit.pipeline import candidate_relations
from trigkit.relationships import (
    DEFAULT_PERTURBED,
    RELATION_FORMS,
    CompatibilityMatrix,
    MatrixEntry,
    MatrixPattern,
    RelationForm,
    RelationshipKind,
    compose_bundle,
    cross_validate_matrix,
    matrix_from_doc,
    matrix_to_doc,
    parse_relation_form,
)


class _Label(str):
    """A label that is a ``str`` subclass, as a custom loader may produce."""


def _parse_by_partition(label):
    """``Kind`` or ``Kind.Subkind`` split at the first dot, the reference
    rule for labels that are not a legal form's own label."""
    kind_part, dot, sub_part = label.partition(".") if isinstance(label, str) \
        else ("", "", "")
    try:
        kind = RelationshipKind(kind_part)
    except ValueError:
        raise ToolkitError("UnknownRelationship",
                           f"unknown relationship {label!r}") from None
    return RelationForm(kind, sub_part if dot else None)


def _outcome(parse, label):
    try:
        return ("form", parse(label))
    except ToolkitError as exc:
        return ("error", exc.code, str(exc))


def _load_matrix(text, fmt="yaml"):
    return matrix_from_doc(parse_document(text, fmt=fmt))


MATRIX_DOC = """
schema: compatibility-matrix@1
entries:
  - focal: kind:InteractiveEntity
    partner: kind:DisturbingEntity
    relationships: [SpatialPosition.Overlay, SpatialPosition.Occlusion]
  - focal: Pedestrian
    partner: Cone
    relationships: [SpatialPosition.Occlusion]
    perturbs:
      SpatialPosition.Occlusion: [ReflectionArea]
  - focal: Pedestrian
    partner: kind:DisturbingEntity
    relationships: [CognitiveFeature]
  - focal: Sensor
    partner: Leaf
    relationships: [SurfaceTreatment.Cover]
  - focal: kind:InteractiveEntity
    partner: kind:EnvironmentalModification
    relationships: [SurfaceTreatment.Cover, SurfaceTreatment.Lighten]
  - focal: kind:InteractiveEntity
    partner: kind:InteractiveEntity
    relationships: [SpatialPosition.Occlusion]
"""


def _concept(name, kind, categories=()):
    props = tuple(SourceProperty(f"P{i}", c) for i, c in enumerate(categories))
    return SourceConcept(name=name, kind=kind, properties=props)


PEDESTRIAN = _concept("Pedestrian", ConceptKind.INTERACTIVE,
                      [PropertyCategory.REFLECTION_AREA,
                       PropertyCategory.FEATURE_VARIABILITY])
CYCLIST = _concept("Cyclist", ConceptKind.INTERACTIVE,
                   [PropertyCategory.REFLECTION_AREA,
                    PropertyCategory.FEATURE_VARIABILITY])
CONE = _concept("Cone", ConceptKind.DISTURBING,
                [PropertyCategory.REFLECTION_AREA])
LEAF = _concept("Leaf", ConceptKind.DISTURBING,
                [PropertyCategory.REFLECTIVITY])
RAIN = _concept("Rain", ConceptKind.MODIFICATION,
                [PropertyCategory.TRANSMITTANCE])

ONTOLOGY = SourceOntology(concepts=(CONE, LEAF, PEDESTRIAN, RAIN))


@pytest.fixture
def compat():
    return _load_matrix(MATRIX_DOC)


class TestForms:
    def test_six_legal_forms(self):
        labels = [f.label for f in RELATION_FORMS]
        assert labels == ["SpatialPosition.Overlay", "SpatialPosition.Occlusion",
                          "SurfaceTreatment.Cover", "SurfaceTreatment.Lighten",
                          "Possess", "CognitiveFeature"]

    @pytest.mark.parametrize("label", [
        "SpatialPosition.Occlusion", "SurfaceTreatment.Cover",
        "Possess", "CognitiveFeature",
    ])
    def test_parse_round_trips_label(self, label):
        assert parse_relation_form(label).label == label

    def test_spatial_position_requires_a_subkind(self):
        with pytest.raises(ToolkitError, match="requires a subkind"):
            parse_relation_form("SpatialPosition")

    def test_possess_takes_no_subkind(self):
        with pytest.raises(ToolkitError, match="does not take a subkind"):
            RelationForm(RelationshipKind.POSSESS, "Firmly")

    def test_unknown_kind(self):
        with pytest.raises(ToolkitError, match="unknown relationship 'Orbits'"):
            parse_relation_form("Orbits")

    @pytest.mark.parametrize("label", [7, None, ["Possess"]])
    def test_non_string_label_is_an_unknown_relationship(self, label):
        with pytest.raises(ToolkitError) as excinfo:
            parse_relation_form(label)
        assert excinfo.value.code == "UnknownRelationship"

    def test_every_legal_label_parses_to_its_form(self):
        for form in RELATION_FORMS:
            parsed = parse_relation_form(form.label)
            assert parsed == form
            assert parsed.label == form.label
            # a copy of the label, and a str subclass of it, parse alike
            assert parse_relation_form("".join(form.label)) == form
            assert parse_relation_form(_Label(form.label)) == form

    @pytest.mark.parametrize("label", [
        "Possess.", "CognitiveFeature.", "SpatialPosition", "SpatialPosition.",
        "SpatialPosition.Cover", "Possess.Firmly", "spatialposition.overlay",
        "Orbits", "", ".", "SpatialPosition.Overlay.Again", 7, None, ["Possess"],
        {"Possess": 1}, _Label("Possess."), _Label("Orbits"),
    ])
    def test_other_labels_parse_as_the_partition_rule_does(self, label):
        assert _outcome(parse_relation_form, label) == _outcome(_parse_by_partition,
                                                                label)

    def test_form_label_is_built_once(self):
        form = RelationForm(RelationshipKind.SPATIAL_POSITION, "Overlay")
        assert form.label is form.label == "SpatialPosition.Overlay"
        # equality, hashing, order and repr still read the fields alone
        twin = RelationForm(RelationshipKind.SPATIAL_POSITION, "Overlay")
        assert form == twin and hash(form) == hash(twin)
        assert repr(form) == repr(twin)
        assert RELATION_FORMS[1] < form  # Occlusion before Overlay

    def test_replace_and_make_check_as_the_constructor_does(self):
        form = RelationForm(RelationshipKind.SPATIAL_POSITION, "Overlay")
        occlusion = form._replace(subkind="Occlusion")
        assert type(occlusion) is RelationForm and occlusion == RELATION_FORMS[1]
        assert occlusion.label == "SpatialPosition.Occlusion"
        for build, message in [
                (lambda: form._replace(subkind="Cover"),
                 "SpatialPosition requires a subkind from ('Overlay', 'Occlusion')"),
                (lambda: form._replace(kind=RelationshipKind.POSSESS),
                 "Possess does not take a subkind"),
                (lambda: RelationForm._make([RelationshipKind.POSSESS, "Firmly"]),
                 "Possess does not take a subkind")]:
            with pytest.raises(ToolkitError) as excinfo:
                build()
            assert (excinfo.value.code, excinfo.value.args[0]) == \
                ("UnknownRelationship", message)

    def test_default_perturbed_categories(self):
        assert DEFAULT_PERTURBED[RelationshipKind.SPATIAL_POSITION] == {
            PropertyCategory.REFLECTION_AREA, PropertyCategory.FEATURE_VARIABILITY}
        assert DEFAULT_PERTURBED[RelationshipKind.SURFACE_TREATMENT] == {
            PropertyCategory.REFLECTIVITY}
        assert DEFAULT_PERTURBED[RelationshipKind.POSSESS] == {
            PropertyCategory.FEATURE_VARIABILITY}
        assert DEFAULT_PERTURBED[RelationshipKind.COGNITIVE_FEATURE] == {
            PropertyCategory.FEATURE_VARIABILITY}


class TestMatrixPattern:
    def test_name_pattern(self):
        pattern = MatrixPattern(name="Pedestrian")
        assert pattern.matches("Pedestrian", ConceptKind.INTERACTIVE)
        assert not pattern.matches("Cyclist", ConceptKind.INTERACTIVE)

    def test_kind_pattern(self):
        pattern = MatrixPattern(kind=ConceptKind.DISTURBING)
        assert pattern.matches("Cone", ConceptKind.DISTURBING)
        assert not pattern.matches("Cone", ConceptKind.INTERACTIVE)
        assert not pattern.matches("Sensor", None)

    def test_exactly_one_side_must_be_set(self):
        with pytest.raises(ToolkitError, match="exactly one"):
            MatrixPattern()
        with pytest.raises(ToolkitError, match="exactly one"):
            MatrixPattern(name="X", kind=ConceptKind.DISTURBING)

    def test_replace_and_make_check_as_the_constructor_does(self):
        pattern = MatrixPattern(name="Rain")
        assert pattern._replace(name="Leaf") == MatrixPattern(name="Leaf")
        for build in (lambda: pattern._replace(kind=ConceptKind.MODIFICATION),
                      lambda: pattern._replace(name=None),
                      lambda: MatrixPattern._make([None, None])):
            with pytest.raises(ToolkitError) as excinfo:
                build()
            assert (excinfo.value.code, excinfo.value.args[0]) == \
                ("InvalidValue", "pattern must set exactly one of name/kind")

    def test_labels(self):
        assert MatrixPattern(name="Rain").label == "Rain"
        assert MatrixPattern(kind=ConceptKind.MODIFICATION).label == \
            "kind:EnvironmentalModification"


class TestResolve:
    def test_name_beats_kind(self, compat):
        entry = compat.resolve("Pedestrian", ConceptKind.INTERACTIVE,
                               "Cone", ConceptKind.DISTURBING)
        assert entry.focal.name == "Pedestrian"
        assert entry.partner.name == "Cone"

    def test_focal_name_beats_partner_name(self, compat):
        # (Pedestrian, kind) outranks (kind, kind) but loses to (Pedestrian, Cone)
        entry = compat.resolve("Pedestrian", ConceptKind.INTERACTIVE,
                               "Leaf", ConceptKind.DISTURBING)
        assert entry.focal.name == "Pedestrian"
        assert entry.partner.kind is ConceptKind.DISTURBING

    def test_kind_fallback(self, compat):
        entry = compat.resolve("Cyclist", ConceptKind.INTERACTIVE,
                               "Leaf", ConceptKind.DISTURBING)
        assert entry.focal.kind is ConceptKind.INTERACTIVE

    def test_unlisted_pair_resolves_to_nothing(self, compat):
        assert compat.resolve("Cone", ConceptKind.DISTURBING,
                              "Leaf", ConceptKind.DISTURBING) is None

    def test_applicable_relationships(self, compat):
        entry = compat.resolve("Pedestrian", ConceptKind.INTERACTIVE,
                               "Rain", ConceptKind.MODIFICATION)
        assert {f.label for f in entry.forms} == {"SurfaceTreatment.Cover",
                                                  "SurfaceTreatment.Lighten"}

    def test_sensor_applicable_relationships(self, compat):
        entry = compat.resolve("Sensor", None, "Leaf", ConceptKind.DISTURBING)
        assert {f.label for f in entry.forms} == {"SurfaceTreatment.Cover"}
        assert compat.resolve("Sensor", None, "Cone", ConceptKind.DISTURBING) is None

    def test_index_equals_the_linear_scan_on_the_bundled_corpus(self, matrix, ontology):
        concepts = [(c.name, c.kind) for c in ontology.concepts] + [("Sensor", None)]
        for focal in concepts:
            for partner in concepts:
                assert matrix.resolve(*focal, *partner) is _scan(matrix, *focal, *partner)

    def test_index_equals_the_linear_scan_on_overlapping_patterns(self):
        def entry(focal, partner, source):
            return MatrixEntry(focal=_pattern(focal), partner=_pattern(partner),
                               forms=RELATION_FORMS[:1], source=source)
        entries = [
            entry("kind:InteractiveEntity", "kind:DisturbingEntity", "kk-1"),
            entry("Pedestrian", "kind:DisturbingEntity", "nk-1"),
            entry("kind:InteractiveEntity", "Cone", "kn-1"),
            entry("Pedestrian", "kind:DisturbingEntity", "nk-2"),
            entry("kind:InteractiveEntity", "kind:DisturbingEntity", "kk-2"),
            entry("Pedestrian", "Cone", "nn-1"),
            entry("Pedestrian", "Cone", "nn-2"),
            entry("Sensor", "kind:DisturbingEntity", "sk"),
            entry("Sensor", "Cone", "sn"),
            entry("kind:DisturbingEntity", "kind:DisturbingEntity", "dd"),
            entry("Cone", "Cone", "cc"),
            entry("kind:EnvironmentalModification", "Pedestrian", "mn"),
            # no name/name entry for (Cyclist, Leaf): name/kind beats kind/name
            entry("kind:InteractiveEntity", "Leaf", "kn-2"),
            entry("Cyclist", "kind:DisturbingEntity", "nk-3"),
        ]
        concepts = [("Pedestrian", ConceptKind.INTERACTIVE),
                    ("Cyclist", ConceptKind.INTERACTIVE),
                    ("Cone", ConceptKind.DISTURBING), ("Leaf", ConceptKind.DISTURBING),
                    ("Rain", ConceptKind.MODIFICATION), ("Sensor", None)]
        for order in (entries, entries[::-1]):
            compat = CompatibilityMatrix(entries=tuple(order))
            for focal in concepts:
                for partner in concepts:
                    assert compat.resolve(*focal, *partner) is \
                        _scan(compat, *focal, *partner)
            fresh = CompatibilityMatrix(entries=tuple(order))
            assert compat == fresh
            assert repr(compat) == repr(fresh)


def _pattern(label):
    if label.startswith("kind:"):
        return MatrixPattern(kind=ConceptKind(label[len("kind:"):]))
    return MatrixPattern(name=label)


def _scan(matrix, focal_name, focal_kind, partner_name, partner_kind):
    """Reference resolve: the most specific matching entry, the first on a tie."""
    best = None
    for entry in matrix.entries:
        if entry.focal.matches(focal_name, focal_kind) \
                and entry.partner.matches(partner_name, partner_kind):
            score = (2 if entry.focal.name is not None else 0) \
                + (1 if entry.partner.name is not None else 0)
            if best is None or score > best[0]:
                best = (score, entry)
    return best[1] if best else None


def _candidates(focal, compat, ontology=ONTOLOGY):
    """The candidate relations of ``focal``, by (form label, focal, partner)."""
    return {rel.sort_key(): rel for rel in candidate_relations(focal, compat, ontology)}


class TestInstantiate:
    """Relation instances as ``candidate_relations`` builds them from the matrix."""

    def test_default_perturbed_set(self, compat):
        # Cyclist has no name-specific entry, so the kind pair grants Overlay
        ontology = SourceOntology(concepts=(CONE, CYCLIST, LEAF, PEDESTRIAN, RAIN))
        rel = _candidates(CYCLIST, compat, ontology)[
            ("SpatialPosition.Overlay", "Cyclist", "Cone")]
        assert rel.perturbed == {PropertyCategory.REFLECTION_AREA,
                                 PropertyCategory.FEATURE_VARIABILITY}
        assert rel.focal == "Cyclist" and rel.partner == "Cone"

    def test_specific_entry_replaces_broader_grants(self, compat):
        # (Pedestrian, Cone) resolves to the name pair, which permits only
        # occlusion; the kind-level Overlay grant no longer applies
        keys = {key for key in _candidates(PEDESTRIAN, compat) if key[2] == "Cone"}
        assert keys == {("SpatialPosition.Occlusion", "Pedestrian", "Cone")}

    def test_entry_override_narrows_perturbed(self, compat):
        rel = _candidates(PEDESTRIAN, compat)[
            ("SpatialPosition.Occlusion", "Pedestrian", "Cone")]
        assert rel.perturbed == {PropertyCategory.REFLECTION_AREA}

    def test_incompatible_pair(self, compat):
        assert ("Possess", "Pedestrian", "Cone") not in _candidates(PEDESTRIAN, compat)

    def test_self_relation_rejected(self, compat):
        # the interactive kind pair grants occlusion, but never of a concept
        # by itself
        ontology = SourceOntology(concepts=(CONE, CYCLIST, LEAF, PEDESTRIAN, RAIN))
        candidates = _candidates(PEDESTRIAN, compat, ontology)
        assert ("SpatialPosition.Occlusion", "Pedestrian", "Cyclist") in candidates
        assert all(focal != partner for _form, focal, partner in candidates)

    def test_illegal_category_for_focal_kind(self):
        # granting a feature-perturbing form to a modification focal cannot work:
        # modifications own no FeatureVariability properties
        compat = CompatibilityMatrix(entries=(MatrixEntry(
            focal=MatrixPattern(name="Rain"), partner=MatrixPattern(name="Cone"),
            forms=(parse_relation_form("SurfaceTreatment.Lighten"),
                   parse_relation_form("CognitiveFeature"))),))
        assert list(_candidates(RAIN, compat)) == [
            ("SurfaceTreatment.Lighten", "Rain", "Cone")]

    def test_sensor_relationship(self, compat):
        rel = _candidates(LEAF, compat)[("SurfaceTreatment.Cover", "Sensor", "Leaf")]
        assert rel.focal == "Sensor"
        assert rel.partner == "Leaf"
        assert rel.targets_sensor()
        assert rel.perturbed == {PropertyCategory.REFLECTIVITY}

    def test_sensor_relationship_needs_an_entry(self, compat):
        assert not any(rel.targets_sensor() for rel in _candidates(CONE, compat).values())

    @pytest.mark.parametrize("form_label,verb", [
        ("SpatialPosition.Overlay", "Overlayedby"),
        ("SpatialPosition.Occlusion", "Occludedby"),
        ("SurfaceTreatment.Cover", "Coveredby"),
        ("SurfaceTreatment.Lighten", "Lightenedby"),
        ("Possess", "Possess"),
        ("CognitiveFeature", "Similarwith"),
    ])
    def test_render_verbs(self, form_label, verb):
        from trigkit.relationships import RelationshipInstance

        rel = RelationshipInstance(form=parse_relation_form(form_label),
                                   focal="Pedestrian",
                                   partner="TemporaryStructure",
                                   perturbed=frozenset())
        assert rel.render() == f"{verb}(Pedestrian, Temporary structure)"


class TestBundles:
    def _occlusion(self, compat):
        return _candidates(PEDESTRIAN, compat)[
            ("SpatialPosition.Occlusion", "Pedestrian", "Cone")]

    def test_empty_bundle(self, compat):
        bundle = compose_bundle(PEDESTRIAN, [])
        assert bundle.source == "Pedestrian"
        assert bundle.relations == ()
        assert bundle.signature() == ""

    def test_signature_format(self, compat):
        rel = self._occlusion(compat)
        bundle = compose_bundle(PEDESTRIAN, [rel])
        assert bundle.signature() == "SpatialPosition.Occlusion(Pedestrian,Cone)"

    def test_canonical_ordering_is_independent_of_input_order(self, compat):
        occ = self._occlusion(compat)
        cognitive = _candidates(PEDESTRIAN, compat)[
            ("CognitiveFeature", "Pedestrian", "Leaf")]
        forward = compose_bundle(PEDESTRIAN, [occ, cognitive])
        backward = compose_bundle(PEDESTRIAN, [cognitive, occ])
        assert forward == backward
        assert forward.signature() == ("CognitiveFeature(Pedestrian,Leaf);"
                                       "SpatialPosition.Occlusion(Pedestrian,Cone)")

    def test_duplicates_collapse(self, compat):
        rel = self._occlusion(compat)
        bundle = compose_bundle(PEDESTRIAN, [rel, rel])
        assert len(bundle.relations) == 1

    def test_bundle_too_large(self, compat):
        occ = self._occlusion(compat)
        cognitive = _candidates(PEDESTRIAN, compat)[
            ("CognitiveFeature", "Pedestrian", "Leaf")]
        cover = _candidates(PEDESTRIAN, compat)[
            ("SurfaceTreatment.Cover", "Pedestrian", "Rain")]
        with pytest.raises(ToolkitError) as excinfo:
            compose_bundle(PEDESTRIAN, [occ, cognitive, cover], limit=2)
        assert excinfo.value.code == "BundleTooLarge"

    def test_mixed_focal_rejected(self, compat):
        rel = self._occlusion(compat)
        with pytest.raises(ToolkitError) as excinfo:
            compose_bundle(CONE, [rel])
        assert excinfo.value.code == "MixedFocal"

    def test_sensor_relation_partner_must_be_the_focal(self, compat):
        cover = _candidates(LEAF, compat)[("SurfaceTreatment.Cover", "Sensor", "Leaf")]
        bundle = compose_bundle(LEAF, [cover])
        assert bundle.signature() == "SurfaceTreatment.Cover(Sensor,Leaf)"
        with pytest.raises(ToolkitError) as excinfo:
            compose_bundle(CONE, [cover])
        assert excinfo.value.code == "MixedFocal"


class TestMatrixDocuments:
    def test_duplicate_pair_rejected(self):
        text = MATRIX_DOC + """
  - focal: Pedestrian
    partner: Cone
    relationships: [SpatialPosition.Overlay]
"""
        with pytest.raises(DocumentError) as excinfo:
            _load_matrix(text)
        assert excinfo.value.code == "DuplicateName"

    def test_perturbs_must_reference_a_granted_form(self):
        text = """
schema: compatibility-matrix@1
entries:
  - focal: Pedestrian
    partner: Cone
    relationships: [SpatialPosition.Occlusion]
    perturbs:
      Possess: [FeatureVariability]
"""
        with pytest.raises(DocumentError, match="not granted by this entry"):
            _load_matrix(text)

    def test_bad_pattern_rejected(self):
        text = """
schema: compatibility-matrix@1
entries:
  - focal: kind:Wobbly
    partner: Cone
    relationships: [Possess]
"""
        with pytest.raises(DocumentError) as excinfo:
            _load_matrix(text)
        assert excinfo.value.code == "UnknownKind"

    def test_trailing_dot_label_rejected_with_its_location(self):
        text = """
schema: compatibility-matrix@1
entries:
  - focal: Pedestrian
    partner: Cone
    relationships: ["Possess."]
"""
        with pytest.raises(DocumentError) as excinfo:
            _load_matrix(text)
        assert [(d.code, d.message) for d in excinfo.value.diagnostics] == [
            ("UnknownRelationship", "entries[0]: Possess does not take a subkind")]

    def test_round_trip(self, compat):
        for fmt in ("yaml", "json"):
            text = dump_document(matrix_to_doc(compat), fmt=fmt)
            assert _load_matrix(text, fmt=fmt) == compat

    def test_cross_validation_flags_dangling_names(self, compat):
        sink = DiagnosticSink()
        cross_validate_matrix(compat, SourceOntology(concepts=(PEDESTRIAN,)), sink)
        messages = " ".join(d.message for d in sink.errors)
        assert "'Cone'" in messages and "'Leaf'" in messages
        # the reserved sensor focal is exempt
        assert "'Sensor'" not in messages

    def test_cross_validation_accepts_the_fixture(self, compat):
        sink = DiagnosticSink()
        cross_validate_matrix(compat, ONTOLOGY, sink)
        assert sink.errors == []

    def test_feature_forms_need_interactive_focal(self):
        text = """
schema: compatibility-matrix@1
entries:
  - focal: kind:DisturbingEntity
    partner: kind:DisturbingEntity
    relationships: [CognitiveFeature]
"""
        sink = DiagnosticSink()
        cross_validate_matrix(_load_matrix(text), ONTOLOGY, sink)
        assert any("non-interactive focal kind" in d.message for d in sink.errors)

    def test_feature_forms_need_interactive_focal_concept(self):
        text = """
schema: compatibility-matrix@1
entries:
  - focal: Leaf
    partner: Cone
    relationships: [CognitiveFeature]
  - focal: Nowhere
    partner: Cone
    relationships: [CognitiveFeature]
"""
        sink = DiagnosticSink()
        cross_validate_matrix(_load_matrix(text), ONTOLOGY, sink)
        assert [d.message for d in sink.errors] == [
            "matrix entry (Leaf, Cone) grants a feature-perturbing relationship "
            "to a non-interactive focal concept",
            "matrix focal pattern 'Nowhere' does not resolve"]

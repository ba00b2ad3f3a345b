"""Generation matrix, worst-case filter, synthesis, assessment and ranking."""

import pytest

from trigkit.docio import dump_document, parse_document
from trigkit.errors import DocumentError, ToolkitError
from trigkit.generation import (
    AssessmentClass,
    EffectKnowledgeBase,
    EffectRule,
    RelationContext,
    TriggeringCondition,
    assess,
    build_matrix,
    condition_id,
    context_from_doc,
    context_sides,
    context_to_doc,
    effects_from_doc,
    effects_to_doc,
    positive_cells,
    rank,
    ratings_from_doc,
    relation_context_keys,
    render_degree,
    synthesize_conditions,
    worst_case_filter,
)
from trigkit.ontology import (
    ConceptKind,
    PropertyCategory,
    SourceConcept,
    SourceOntology,
    SourceProperty,
)
from trigkit.perception import PerceptionSystemSpec, SensorClass
from trigkit.pipeline import candidate_relations, enumerate_bundles
from trigkit.relationships import (
    CompatibilityMatrix,
    MatrixEntry,
    MatrixPattern,
    RelationshipBundle,
    compose_bundle,
    parse_relation_form,
)
from trigkit.templates import TemplateSet

# ---------------------------------------------------------------------------
# A small self-contained scene: one pedestrian, one cone, leaves, rain
# ---------------------------------------------------------------------------

PEDESTRIAN = SourceConcept(
    name="Pedestrian", kind=ConceptKind.INTERACTIVE,
    properties=(SourceProperty("Color", PropertyCategory.REFLECTIVITY),
                SourceProperty("PerspectiveShape", PropertyCategory.REFLECTION_AREA),
                SourceProperty("Accessory", PropertyCategory.FEATURE_VARIABILITY)))
CONE = SourceConcept(
    name="Cone", kind=ConceptKind.DISTURBING,
    properties=(SourceProperty("Shape", PropertyCategory.REFLECTION_AREA),))
LEAF = SourceConcept(
    name="Leaf", kind=ConceptKind.DISTURBING,
    properties=(SourceProperty("Material", PropertyCategory.REFLECTIVITY),))
RAIN = SourceConcept(
    name="Rain", kind=ConceptKind.MODIFICATION,
    properties=(SourceProperty("Density", PropertyCategory.TRANSMITTANCE),))

ONTOLOGY = SourceOntology(concepts=(CONE, LEAF, PEDESTRIAN, RAIN))

OCCLUSION = parse_relation_form("SpatialPosition.Occlusion")
COVER = parse_relation_form("SurfaceTreatment.Cover")

COMPAT = CompatibilityMatrix(entries=(
    MatrixEntry(focal=MatrixPattern(name="Pedestrian"),
                partner=MatrixPattern(name="Cone"), forms=(OCCLUSION,)),
    MatrixEntry(focal=MatrixPattern(name="Sensor"),
                partner=MatrixPattern(name="Leaf"), forms=(COVER,)),
    MatrixEntry(focal=MatrixPattern(name="Sensor"),
                partner=MatrixPattern(name="Rain"), forms=(COVER,)),
))

CAMERA = PerceptionSystemSpec(
    sensor="Camera", sensor_class=SensorClass.PASSIVE,
    stages=("LightReceiving", "FeatureExtraction", "TargetClassification"))
LIDAR = PerceptionSystemSpec(
    sensor="LiDAR", sensor_class=SensorClass.ACTIVE,
    stages=("SignalTransmission", "SignalPropagation", "SignalReflection",
            "SignalReceiving"))

OCCLUSION_CTX = RelationContext(form=OCCLUSION,
                                partner=MatrixPattern(kind=ConceptKind.DISTURBING))
LEAF_COVER_CTX = RelationContext(form=COVER, partner=MatrixPattern(name="Leaf"))

# rules listed in canonical order so document round-trips compare equal
KB = EffectKnowledgeBase(rules=(
    EffectRule("Leaf", ("Material",), "LightReceiving", "Brightness", -3,
               context=LEAF_COVER_CTX),
    EffectRule("Pedestrian", ("Accessory",), "TargetClassification", "Variety", -1),
    EffectRule("Pedestrian", ("Accessory",), "TargetClassification", "Variety", -3),
    EffectRule("Pedestrian", ("Color",), "LightReceiving", "Brightness", 2),
    EffectRule("Pedestrian", ("PerspectiveShape",), "TargetClassification",
               "Visibility", -3, worst_case="plain"),
    EffectRule("Pedestrian", ("PerspectiveShape",), "TargetClassification",
               "Visibility", -3, worst_case="occluded", context=OCCLUSION_CTX),
    EffectRule("Pedestrian", ("PerspectiveShape", "Color"), "TargetClassification",
               "Similarity", -3),
    EffectRule("Rain", ("Density",), "SignalPropagation", "SignalIntensity", -2),
))

TEMPLATES = TemplateSet(entries={
    ("", "Pedestrian", "PerspectiveShape", "TargetClassification"):
        (("squatting", "A pedestrian who is squatting"),
         ("sitting", "A pedestrian who is sitting")),
    ("SurfaceTreatment.Cover(Sensor,Leaf)", "Leaf", "Material", "LightReceiving"):
        (("default", "Fallen leaves cover the camera"),),
})


def _bare(concept):
    return RelationshipBundle(source=concept.name)


def _candidate(source, form, focal, partner):
    """The candidate relation of ``source`` with that form, focal and partner."""
    by_key = {rel.sort_key(): rel for rel in candidate_relations(source, COMPAT, ONTOLOGY)}
    return by_key[(form.label, focal, partner)]


PEDESTRIAN_OCCLUDED = _candidate(PEDESTRIAN, OCCLUSION, "Pedestrian", "Cone")
LEAF_COVER = _candidate(LEAF, COVER, "Sensor", "Leaf")
RAIN_COVER = _candidate(RAIN, COVER, "Sensor", "Rain")


def _occluded_bundle():
    return compose_bundle(PEDESTRIAN, [PEDESTRIAN_OCCLUDED])


def _covered_leaf_bundle():
    return compose_bundle(LEAF, [LEAF_COVER])


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------

class TestDegrees:
    @pytest.mark.parametrize("degree,figure,ascii_", [
        (-3, "− − −", "---"),
        (-1, "−", "-"),
        (0, "", ""),
        (2, "+ +", "++"),
    ])
    def test_render_both_styles(self, degree, figure, ascii_):
        assert render_degree(degree) == figure
        assert render_degree(degree, style="ascii") == ascii_

    def test_render_rejects_out_of_scale(self):
        with pytest.raises(ToolkitError, match="degree must be an integer"):
            render_degree(-4)
        with pytest.raises(ToolkitError):
            render_degree("--")


# ---------------------------------------------------------------------------
# Relation contexts
# ---------------------------------------------------------------------------

class TestRelationContext:
    def test_matches_form_and_partner(self):
        assert OCCLUSION_CTX.matches(PEDESTRIAN_OCCLUDED, ONTOLOGY)
        assert not LEAF_COVER_CTX.matches(PEDESTRIAN_OCCLUDED, ONTOLOGY)

    def test_focal_pattern(self):
        ctx = RelationContext(focal=MatrixPattern(kind=ConceptKind.INTERACTIVE))
        assert ctx.matches(PEDESTRIAN_OCCLUDED, ONTOLOGY)
        assert not ctx.matches(LEAF_COVER, ONTOLOGY)  # the sensor has no kind

    def test_satisfied_by_bundle(self):
        assert OCCLUSION_CTX.satisfied_by(_occluded_bundle(), ONTOLOGY)
        assert not OCCLUSION_CTX.satisfied_by(_bare(PEDESTRIAN), ONTOLOGY)

    def test_label(self):
        assert OCCLUSION_CTX.label() == \
            "SpatialPosition.Occlusion partner=kind:DisturbingEntity"

    def test_keys_agree_with_matches(self):
        rels = (PEDESTRIAN_OCCLUDED, LEAF_COVER, RAIN_COVER)
        patterns = [None] + [MatrixPattern(name=n) for n in
                             ("Pedestrian", "Cone", "Leaf", "Rain", "Sensor")] \
            + [MatrixPattern(kind=k) for k in ConceptKind]
        sides = context_sides(ONTOLOGY)
        for form in (None, OCCLUSION, COVER):
            for focal in patterns:
                for partner in patterns:
                    ctx = RelationContext(form=form, focal=focal, partner=partner)
                    for rel in rels:
                        assert (ctx.key() in relation_context_keys(rel, sides)) \
                            == ctx.matches(rel, ONTOLOGY), (ctx.label(), rel)

    def test_doc_round_trip(self):
        from trigkit.errors import DiagnosticSink

        for ctx in (OCCLUSION_CTX, LEAF_COVER_CTX,
                    RelationContext(focal=MatrixPattern(name="Sensor"))):
            sink = DiagnosticSink()
            assert context_from_doc(context_to_doc(ctx), "ctx", sink) == ctx
            assert sink.items == []


# ---------------------------------------------------------------------------
# Matrix construction
# ---------------------------------------------------------------------------

class TestBuildMatrix:
    def test_rows_own_properties_first_then_groups(self):
        matrix = build_matrix(_bare(PEDESTRIAN), CAMERA, KB, ONTOLOGY)
        assert matrix.rows == (
            ("Pedestrian", ("Accessory",)),
            ("Pedestrian", ("Color",)),
            ("Pedestrian", ("PerspectiveShape",)),
            ("Pedestrian", ("PerspectiveShape", "Color")),
        )

    def test_partner_rows_appear_for_perturbed_categories(self):
        matrix = build_matrix(_occluded_bundle(), CAMERA, KB, ONTOLOGY)
        assert ("Cone", ("Shape",)) in matrix.rows
        # partner rows sort after the analyzed source's own rows
        assert matrix.rows[-1] == ("Cone", ("Shape",))

    def test_columns_follow_affected_stages(self):
        matrix = build_matrix(_bare(PEDESTRIAN), CAMERA, KB, ONTOLOGY)
        stages = tuple(dict.fromkeys(stage for stage, _quality in matrix.columns))
        assert stages == ("LightReceiving", "FeatureExtraction", "TargetClassification")
        assert ("LightReceiving", "Brightness") in matrix.columns
        assert ("TargetClassification", "Visibility") in matrix.columns
        assert len(matrix.columns) == 3 + 4 + 4

    def test_every_cell_exists_and_unfilled_cells_are_zero(self):
        matrix = build_matrix(_bare(PEDESTRIAN), CAMERA, KB, ONTOLOGY)
        assert len(matrix.cells) == len(matrix.rows) * len(matrix.columns)
        cell = matrix.cell(("Pedestrian", ("Accessory",)),
                           ("FeatureExtraction", "Contradiction"))
        assert cell.degree == 0

    def test_worst_rule_wins(self):
        matrix = build_matrix(_bare(PEDESTRIAN), CAMERA, KB, ONTOLOGY)
        cell = matrix.cell(("Pedestrian", ("Accessory",)),
                           ("TargetClassification", "Variety"))
        assert cell.degree == -3

    def test_context_rules_ignored_without_a_matching_relation(self):
        matrix = build_matrix(_bare(PEDESTRIAN), CAMERA, KB, ONTOLOGY)
        cell = matrix.cell(("Pedestrian", ("PerspectiveShape",)),
                           ("TargetClassification", "Visibility"))
        assert cell.worst_case == "plain"
        assert cell.context is None

    def test_equal_degree_tie_breaks_toward_narrower_context(self):
        matrix = build_matrix(_occluded_bundle(), CAMERA, KB, ONTOLOGY)
        cell = matrix.cell(("Pedestrian", ("PerspectiveShape",)),
                           ("TargetClassification", "Visibility"))
        assert cell.degree == -3
        assert cell.worst_case == "occluded"
        assert cell.context == OCCLUSION_CTX

    def test_full_tie_breaks_toward_the_earlier_rule(self):
        # equal degree, equal context specificity (form + partner kind vs
        # partner name): knowledge-base order decides
        by_kind = EffectRule("Pedestrian", ("Color",), "LightReceiving", "Contrast", -2,
                             worst_case="by kind", context=OCCLUSION_CTX)
        by_name = EffectRule("Pedestrian", ("Color",), "LightReceiving", "Contrast", -2,
                             worst_case="by name",
                             context=RelationContext(partner=MatrixPattern(name="Cone")))
        for rules in ((by_kind, by_name), (by_name, by_kind)):
            matrix = build_matrix(_occluded_bundle(), CAMERA,
                                  EffectKnowledgeBase(rules=rules), ONTOLOGY)
            cell = matrix.cell(("Pedestrian", ("Color",)), ("LightReceiving", "Contrast"))
            assert cell.worst_case == rules[0].worst_case

    def test_unknown_bundle_source(self):
        with pytest.raises(ToolkitError, match="does not resolve"):
            build_matrix(RelationshipBundle(source="Yeti"), CAMERA, KB, ONTOLOGY)

    def test_no_affected_stages_means_no_columns(self):
        matrix = build_matrix(_bare(LEAF), CAMERA, KB, ONTOLOGY)
        assert matrix.columns == ()
        assert matrix.cells == ()

    def test_joint_rule_of_a_concept_outside_the_bundle_adds_no_row(self):
        # KB holds Pedestrian's PerspectiveShape/Color rule; Rain's bundle
        # has no Pedestrian row for it to join
        matrix = build_matrix(_bare(RAIN), LIDAR, KB, ONTOLOGY)
        assert matrix.rows == (("Rain", ("Density",)),)

    def test_graded_cells_are_the_graded_part_of_the_dense_view(self, inputs):
        ontology, kb = inputs.ontology, inputs.effects
        for spec in inputs.suite.sensors:
            for name in ontology.names():
                source = ontology.get(name)
                candidates = candidate_relations(source, inputs.matrix, ontology)
                for bundle in enumerate_bundles(source, candidates, 2):
                    matrix = build_matrix(bundle, spec, kb, ontology)
                    assert matrix.graded == tuple(c for c in matrix.cells if c.degree)
                    assert len(matrix.cells) == len(matrix.rows) * len(matrix.columns)
                    graded = {((c.concept, c.properties), (c.stage, c.stage_property))
                              for c in matrix.graded}
                    for row in matrix.rows:
                        for column in matrix.columns:
                            if (row, column) not in graded:
                                assert matrix.cell(row, column).degree == 0


class TestFilters:
    def test_threshold_two_keeps_and_drops(self):
        matrix = build_matrix(_bare(RAIN), LIDAR, KB, ONTOLOGY)
        kept = worst_case_filter(matrix, threshold=2)
        assert [(c.property_key, c.stage, c.degree) for c in kept] == [
            ("Density", "SignalPropagation", -2)]
        assert worst_case_filter(matrix, threshold=3) == []

    def test_threshold_one_keeps_everything_negative(self):
        matrix = build_matrix(_bare(PEDESTRIAN), CAMERA, KB, ONTOLOGY)
        degrees = sorted(c.degree for c in worst_case_filter(matrix, threshold=1))
        assert degrees == [-3, -3, -3]

    def test_positive_cells_never_pass_the_filter(self):
        matrix = build_matrix(_bare(PEDESTRIAN), CAMERA, KB, ONTOLOGY)
        assert all(c.degree < 0 for c in worst_case_filter(matrix, 1))
        positives = positive_cells(matrix)
        assert [(c.property_key, c.stage, c.degree) for c in positives] == [
            ("Color", "LightReceiving", 2)]

    def test_threshold_out_of_range(self):
        matrix = build_matrix(_bare(RAIN), LIDAR, KB, ONTOLOGY)
        with pytest.raises(ToolkitError, match=r"threshold must be an integer in \[1, 3\]"):
            worst_case_filter(matrix, threshold=0)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def _synthesize(bundle, system, warnings=None):
    matrix = build_matrix(bundle, system, KB, ONTOLOGY)
    cells = worst_case_filter(matrix, threshold=2)
    return synthesize_conditions(cells, bundle, system, TEMPLATES, ONTOLOGY,
                                 warnings)


class TestSynthesis:
    def test_each_template_variant_becomes_a_condition(self):
        warnings = []
        conditions = _synthesize(_bare(PEDESTRIAN), CAMERA, warnings)
        shape = [c for c in conditions if c.properties == ("PerspectiveShape",)]
        assert [c.description for c in shape] == [
            "A pedestrian who is squatting", "A pedestrian who is sitting"]
        assert [c.variant for c in shape] == ["squatting", "sitting"]
        assert all(c.templated for c in shape)

    def test_recognition_stage_gets_no_distance_twin(self):
        conditions = _synthesize(_bare(PEDESTRIAN), CAMERA)
        assert all(not c.distance_augmented for c in conditions)

    def test_missing_template_falls_back_to_generic_with_warning(self):
        warnings = []
        conditions = _synthesize(_bare(PEDESTRIAN), CAMERA, warnings)
        generic = [c for c in conditions
                   if c.properties == ("PerspectiveShape", "Color")]
        assert len(generic) == 1
        assert not generic[0].templated
        assert generic[0].variant == "generic"
        assert generic[0].description == ("Adverse perspective shape/color of "
                                          "the pedestrian during target classification")
        # the accessory row has no template either, so two warnings in all
        assert len(warnings) == 2
        assert all(w.startswith("MissingTemplate") for w in warnings)
        assert any("PerspectiveShape/Color" in w for w in warnings)

    def test_sensing_stage_gets_distance_twin(self):
        conditions = _synthesize(_covered_leaf_bundle(), CAMERA)
        assert [c.description for c in conditions] == [
            "Fallen leaves cover the camera",
            "Fallen leaves cover the camera, combined with a distant target"]
        assert [c.distance_augmented for c in conditions] == [False, True]
        base, twin = conditions
        assert base.id != twin.id
        assert base.variant == twin.variant == "default"

    def test_relation_without_demanding_cell_suppresses_the_group(self):
        # rain covering the sensor: the only surviving cell is the bare
        # propagation rule, which fires identically without the cover, so
        # this bundle yields nothing and the bare bundle owns the condition
        covered = compose_bundle(RAIN, [RAIN_COVER])
        assert _synthesize(covered, LIDAR) == []
        assert len(_synthesize(_bare(RAIN), LIDAR)) == 2  # base + distance twin

    def test_demanded_relation_keeps_the_group(self):
        conditions = _synthesize(_covered_leaf_bundle(), CAMERA)
        assert conditions, "cover relation is demanded by the rule context"
        assert all(r.targets_sensor() for c in conditions for r in c.relationships)

    def test_group_degree_is_the_worst_cell(self):
        conditions = _synthesize(_bare(PEDESTRIAN), CAMERA)
        assert all(c.degree == -3 for c in conditions)

    def test_ids_are_stable_and_distinct(self):
        # two shape variants, the joint shape/color row, the accessory row
        first = {c.id for c in _synthesize(_bare(PEDESTRIAN), CAMERA)}
        second = {c.id for c in _synthesize(_bare(PEDESTRIAN), CAMERA)}
        assert first == second
        assert len(first) == 4

    def test_condition_id_shape(self):
        cid = condition_id("Camera", "Pedestrian", "", "Pedestrian",
                           "PerspectiveShape", "TargetClassification",
                           "squatting", False)
        assert cid.startswith("c") and len(cid) == 13
        twin = condition_id("Camera", "Pedestrian", "", "Pedestrian",
                            "PerspectiveShape", "TargetClassification",
                            "squatting", True)
        assert twin != cid


class TestConditionRendering:
    def test_bare_condition_renders_the_source_name(self):
        condition = _synthesize(_bare(PEDESTRIAN), CAMERA)[0]
        assert condition.sources_rendered() == "Pedestrian"
        assert condition.stage_rendered() == "R.-Target classification"

    def test_sensor_covering_condition_renders_the_source_name(self):
        condition = _synthesize(_covered_leaf_bundle(), CAMERA)[0]
        # sensor-targeting relations are not listed as sources
        assert condition.sources_rendered() == "Leaf"
        assert condition.stage_rendered() == "S.-Light receiving"

    def test_regular_relations_render_as_verbs(self):
        matrix = build_matrix(_occluded_bundle(), CAMERA, KB, ONTOLOGY)
        cells = worst_case_filter(matrix, threshold=2)
        conditions = synthesize_conditions(cells, _occluded_bundle(), CAMERA,
                                           TEMPLATES, ONTOLOGY)
        rendered = {c.sources_rendered() for c in conditions}
        assert rendered == {"Occludedby(Pedestrian, Cone)"}


# ---------------------------------------------------------------------------
# Assessment and ranking
# ---------------------------------------------------------------------------

def _condition(cid):
    return TriggeringCondition(
        id=cid, sensor="Camera", sources=("Pedestrian",), relationships=(),
        property_owner="Pedestrian", properties=("Color",),
        stage="TargetClassification", effects=(), degree=-3, description=cid)


class TestAssessment:
    def test_priority_is_the_index_product(self):
        rating = AssessmentClass(exposure="E3", criticality="C4")
        assert rating.priority == 12
        condition = assess(_condition("c1"), rating)
        assert condition.assessment == rating
        assert condition.priority == 12
        assert condition.rating_label() == "E3/C4"

    def test_unknown_levels_rejected(self):
        with pytest.raises(ToolkitError, match="unknown exposure"):
            AssessmentClass(exposure="E5", criticality="C1")
        with pytest.raises(ToolkitError, match="unknown criticality"):
            AssessmentClass(exposure="E1", criticality="C0")

    def test_replace_and_make_check_as_the_constructor_does(self):
        rating = AssessmentClass("E1", "C1")
        raised = rating._replace(criticality="C4")
        assert type(raised) is AssessmentClass and raised.priority == 4
        for build, message in [(lambda: rating._replace(exposure="E9"), "unknown exposure 'E9'"),
                               (lambda: rating._replace(criticality="C5"),
                                "unknown criticality 'C5'"),
                               (lambda: AssessmentClass._make(["E0", "C0"]),
                                "unknown exposure 'E0'")]:
            with pytest.raises(ToolkitError) as excinfo:
                build()
            assert (excinfo.value.code, excinfo.value.args[0]) == ("InvalidValue", message)

    def test_rank_descends_by_priority(self):
        low = assess(_condition("a"), AssessmentClass("E1", "C1"))
        mid = assess(_condition("b"), AssessmentClass("E2", "C3"))
        high = assess(_condition("c"), AssessmentClass("E4", "C4"))
        assert [c.id for c in rank([low, mid, high])] == ["c", "b", "a"]

    def test_priority_tie_breaks_toward_criticality(self):
        # E4/C1 and E1/C4 both score 4; the critical one must come first
        exposed = assess(_condition("exposed"), AssessmentClass("E4", "C1"))
        critical = assess(_condition("critical"), AssessmentClass("E1", "C4"))
        assert [c.id for c in rank([exposed, critical])] == ["critical", "exposed"]

    def test_full_tie_breaks_on_id(self):
        first = assess(_condition("a1"), AssessmentClass("E2", "C2"))
        second = assess(_condition("a2"), AssessmentClass("E2", "C2"))
        assert [c.id for c in rank([second, first])] == ["a1", "a2"]

    def test_unrated_sink_to_the_bottom_in_input_order(self):
        rated = assess(_condition("rated"), AssessmentClass("E1", "C1"))
        bare_b = _condition("bare_b")
        bare_a = _condition("bare_a")
        ranked = rank([bare_b, rated, bare_a])
        assert [c.id for c in ranked] == ["rated", "bare_b", "bare_a"]
        assert ranked[1].rating_label() == "unrated"


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def _load_effects(text, fmt="yaml"):
    return effects_from_doc(parse_document(text, fmt=fmt))


def _load_ratings(text):
    return ratings_from_doc(parse_document(text))


class TestEffectDocuments:
    def test_round_trip(self):
        for fmt in ("yaml", "json"):
            text = dump_document(effects_to_doc(KB), fmt=fmt)
            assert _load_effects(text, fmt=fmt) == KB

    def test_degree_zero_cannot_be_authored(self):
        text = """
schema: effect-knowledge@1
effects:
  - {concept: Rain, property: Density, stage: SignalPropagation,
     stage_property: SignalIntensity, degree: 0}
"""
        with pytest.raises(DocumentError, match="degree 0 means unassessed"):
            _load_effects(text)

    def test_degree_out_of_scale_rejected(self):
        text = """
schema: effect-knowledge@1
effects:
  - {concept: Rain, property: Density, stage: SignalPropagation,
     stage_property: SignalIntensity, degree: -4}
"""
        with pytest.raises(DocumentError) as excinfo:
            _load_effects(text)
        assert excinfo.value.code == "InvalidValue"

    def test_quality_must_belong_to_the_stage(self):
        text = """
schema: effect-knowledge@1
effects:
  - {concept: Rain, property: Density, stage: SignalPropagation,
     stage_property: Brightness, degree: -2}
"""
        with pytest.raises(DocumentError) as excinfo:
            _load_effects(text)
        assert excinfo.value.code == "UnknownStageProperty"

    def test_unknown_stage_rejected(self):
        text = """
schema: effect-knowledge@1
effects:
  - {concept: Rain, property: Density, stage: Guessing,
     stage_property: SignalIntensity, degree: -2}
"""
        with pytest.raises(DocumentError) as excinfo:
            _load_effects(text)
        assert excinfo.value.code == "UnknownStage"

    def test_empty_context_rejected(self):
        text = """
schema: effect-knowledge@1
effects:
  - concept: Rain
    property: Density
    stage: SignalPropagation
    stage_property: SignalIntensity
    degree: -2
    context: {}
"""
        with pytest.raises(DocumentError, match="empty context"):
            _load_effects(text)

    def test_repeated_property_in_key_rejected(self):
        text = """
schema: effect-knowledge@1
effects:
  - {concept: Rain, property: Density/Density, stage: SignalPropagation,
     stage_property: SignalIntensity, degree: -2}
"""
        with pytest.raises(DocumentError) as excinfo:
            _load_effects(text)
        assert excinfo.value.code == "InvalidIdentifier"


class TestRatingsDocuments:
    GOOD = """
schema: condition-ratings@1
ratings:
  - {condition: c111, exposure: E3, criticality: C2}
  - {condition: c222, exposure: E1, criticality: C4}
"""

    def test_load(self):
        ratings = _load_ratings(self.GOOD)
        assert ratings["c111"] == AssessmentClass("E3", "C2")
        assert len(ratings) == 2

    def test_duplicate_condition_rejected(self):
        text = self.GOOD + "  - {condition: c111, exposure: E1, criticality: C1}\n"
        with pytest.raises(DocumentError) as excinfo:
            _load_ratings(text)
        assert excinfo.value.code == "DuplicateName"

    def test_unknown_level_rejected(self):
        text = """
schema: condition-ratings@1
ratings:
  - {condition: c111, exposure: E9, criticality: C2}
"""
        with pytest.raises(DocumentError) as excinfo:
            _load_ratings(text)
        assert excinfo.value.code == "UnknownRating"

    def test_wrong_schema(self):
        with pytest.raises(DocumentError):
            _load_ratings("schema: effect-knowledge@1\nratings: []\n")

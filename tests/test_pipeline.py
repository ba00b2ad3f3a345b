"""End-to-end catalog generation over the bundled road-sweeper corpus."""

import operator
import random
from collections import Counter
from functools import reduce
from itertools import combinations

import pytest

from test_acceptance import _random_matrix, _random_ontology
from test_properties import _scene
from trigkit import perception, pipeline
from trigkit.data import data_path
from trigkit.docio import read_document
from trigkit.errors import ToolkitError
from trigkit.generation import (
    EffectKnowledgeBase,
    EffectRule,
    RelationContext,
    context_sides,
    relation_context_keys,
)
from trigkit.ontology import ConceptKind, legal_categories, ontology_from_doc
from trigkit.perception import (
    PerceptionSystemSpec,
    SensorClass,
    SensorSuite,
    affected_stages,
    relation_rule,
    rule_stages,
)
from trigkit.pipeline import (
    candidate_relations,
    enumerate_bundles,
    generate_catalog,
)
from trigkit.relationships import (
    CompatibilityMatrix,
    MatrixEntry,
    MatrixPattern,
    _instance_from_entry,
    parse_relation_form,
)
from trigkit.templates import TemplateSet


def _scenes(inputs, threshold):
    """(ontology, suite, matrix, effects, threshold) of the bundled project,
    then of each random scene of the C3 gate."""
    yield inputs.ontology, inputs.suite, inputs.matrix, inputs.effects, threshold
    yield from map(_scene, range(100))


def _pairwise_candidates(source, matrix, ontology):
    """The candidate relations as they were derived before the per-run
    indexes: the matrix resolved for the sensor pair and for every (source,
    partner) pair of the ontology."""
    candidates = []
    entry = matrix.resolve("Sensor", None, source.name, source.kind)
    if entry is not None:
        candidates += [_instance_from_entry(form, "Sensor", source.name, entry)
                       for form in entry.forms]
    for partner in ontology.concepts:
        entry = None if partner.name == source.name else \
            matrix.resolve(source.name, source.kind, partner.name, partner.kind)
        for form in () if entry is None else entry.forms:
            rel = _instance_from_entry(form, source.name, partner.name, entry)
            if rel.perturbed <= legal_categories(source.kind):
                candidates.append(rel)
    return sorted(candidates, key=lambda r: r.sort_key())


def _pairwise_masks(rel, sides, demands):
    """(demand, kills, hits, rows) of ``rel`` from all 18 context keys that
    can match it, whatever shapes the rules use."""
    demand = kills = hits = 0
    for key in relation_context_keys(rel, sides):
        groups, killed, hit = demands.by_key.get(key, (0, 0, 0))
        demand, kills, hits = demand | groups, kills | killed, hits | hit
    partner = None if rel.targets_sensor() else rel.partner
    return demand, kills, hits, demands.by_concept.get(partner, 0)


def _pairwise_stages(source, rel, spec, ontology):
    """The stages one relation added per (sensor, relation) before the rule
    was split from the sensor: R4 and R5 applied to the pair directly."""
    if rel.focal == "Sensor" and rel.partner == source.name:
        if rel.form.label in ("SurfaceTreatment.Cover", "SpatialPosition.Occlusion"):
            return perception._RULE_STAGES[spec.sensor_class]["R4"] & set(spec.stages)
    elif source.kind is not ConceptKind.INTERACTIVE:
        focal = ontology.get(rel.focal)
        if focal is not None and focal.kind is ConceptKind.INTERACTIVE:
            return perception._RECOGNITION_STAGES & set(spec.stages)
    return frozenset()


class TestCandidateRelations:
    def test_rain_offers_only_the_sensor_cover(self, ontology, matrix):
        rain = ontology.get("Rain")
        candidates = candidate_relations(rain, matrix, ontology)
        assert [(c.form.label, c.focal, c.partner) for c in candidates] == [
            ("SurfaceTreatment.Cover", "Sensor", "Rain")]

    def test_pedestrian_candidates_are_canonical(self, ontology, matrix):
        pedestrian = ontology.get("Pedestrian")
        candidates = candidate_relations(pedestrian, matrix, ontology)
        assert candidates == sorted(candidates, key=lambda r: r.sort_key())
        # every candidate is anchored on the pedestrian
        for rel in candidates:
            if rel.targets_sensor():
                assert rel.partner == "Pedestrian"
            else:
                assert rel.focal == "Pedestrian"

    def test_specific_matrix_entries_surface(self, ontology, matrix):
        pedestrian = ontology.get("Pedestrian")
        labels = {(c.form.label, c.partner)
                  for c in candidate_relations(pedestrian, matrix, ontology)}
        assert ("SpatialPosition.Occlusion", "TemporaryStructure") in labels
        assert ("SpatialPosition.Occlusion", "RegularityStructure") in labels
        assert ("CognitiveFeature", "MovableObstacle") in labels
        # the generic interactive-pair grant was replaced by the specific entry
        assert ("SpatialPosition.Overlay", "MovableObstacle") not in labels

    def test_only_the_sensor_pair_is_resolved(self, ontology, matrix, monkeypatch):
        """The partners come from the entries around the source, split by
        pattern shape, so no (source, partner) pair is resolved one by one."""
        calls = []
        real_resolve = CompatibilityMatrix.resolve

        def counting_resolve(self, *args):
            calls.append(args)
            return real_resolve(self, *args)

        monkeypatch.setattr(CompatibilityMatrix, "resolve", counting_resolve)
        for name in ontology.names():
            calls.clear()
            candidate_relations(ontology.get(name), matrix, ontology)
            assert calls == [("Sensor", None, name, ontology.get(name).kind)]

    def test_candidates_strictly_increase(self, ontology, matrix):
        """``enumerate_bundles`` picks candidates in order and their bundles
        are built as picked, so each source's candidates must be distinct and
        canonical: on the bundled project and on every C3 scene."""
        scenes = [(ontology, matrix)]
        for seed in range(100):
            rng = random.Random(9200 + seed)  # the scenes of C3
            scene_ontology = _random_ontology(rng)
            scenes.append((scene_ontology, _random_matrix(rng, scene_ontology)))
        checked = 0
        for scene_ontology, scene_matrix in scenes:
            for name in scene_ontology.names():
                keys = [rel.sort_key() for rel in candidate_relations(
                    scene_ontology.get(name), scene_matrix, scene_ontology)]
                assert all(a < b for a, b in zip(keys, keys[1:])), (name, keys)
                checked += len(keys)
        assert checked > 1000


class TestPerRunIndexes:
    """Each source's candidates, their masks and the stages each adds are
    derived from indexes built once per run; the pair-by-pair derivation they
    replace gives the same on the bundled project and every C3 scene."""

    def test_candidates_masks_and_added_stages_match_the_pairwise_derivation(
            self, inputs, config):
        checked = 0
        for ontology, suite, matrix, kb, threshold in _scenes(inputs, config.threshold):
            demands = pipeline._rule_demands(kb, threshold)
            sides = context_sides(ontology)
            for source in ontology.concepts:
                rels = candidate_relations(source, matrix, ontology)
                expected = _pairwise_candidates(source, matrix, ontology)
                assert [(r.sort_key(), r.perturbed, r.source) for r in rels] \
                    == [(r.sort_key(), r.perturbed, r.source) for r in expected]
                for rel in rels:
                    candidate = pipeline._Candidate(rel, sides, ontology, demands)
                    assert (candidate.demand, candidate.kills, candidate.hits,
                            candidate.rows) == _pairwise_masks(rel, sides, demands)
                    for spec in suite.sensors:
                        bare = affected_stages(source, (), spec, ontology)
                        assert rule_stages(relation_rule(source, rel, ontology), spec) \
                            - bare == _pairwise_stages(source, rel, spec, ontology) - bare
                    checked += 1
        assert checked > 1000

    def test_the_rules_use_few_key_shapes(self, inputs, config):
        demands = pipeline._rule_demands(inputs.effects, config.threshold)
        assert sorted(demands.shapes) == [(1, 0, 1), (1, 1, 1), (1, 1, 2)]
        assert {rel.context.shape() for rel in inputs.effects.rules if rel.context} \
            == set(demands.shapes)


class TestR5InGeneration:
    """R5 gives a non-interactive source the recognition stages through a
    relation whose focal is interactive. A candidate's focal is its source, or
    the sensor for a relation that covers it, so no candidate applies R5 and
    generation never reaches a stage by it; R4 does fire."""

    def test_no_candidate_applies_r5(self, inputs, config):
        fired = Counter()
        for number, (ontology, suite, matrix, _kb, _t) in enumerate(
                _scenes(inputs, config.threshold)):
            for source in ontology.concepts:
                for rel in candidate_relations(source, matrix, ontology):
                    fired["bundled" if number == 0 else "scenes",
                          relation_rule(source, rel, ontology)] += len(suite.sensors)
        assert not {key for key in fired if key[1] == "R5"}
        assert fired["bundled", "R4"] == 8 and fired["scenes", "R4"] > 0

    def test_r5_fires_for_a_relation_with_an_interactive_focal(self, ontology, camera):
        """So the test above is not vacuous: the leaf as the partner of an
        interactive focal, which no candidate of the leaf is."""
        leaf = ontology.get("Leaf")
        rel = _instance_from_entry(parse_relation_form("SpatialPosition.Occlusion"),
                                   "Pedestrian", "Leaf", MatrixEntry(
                                       MatrixPattern(name="Pedestrian"),
                                       MatrixPattern(name="Leaf"), ()))
        assert relation_rule(leaf, rel, ontology) == "R5"
        assert rule_stages("R5", camera) == {"FeatureExtraction", "TargetClassification"}


class TestEnumerateBundles:
    def test_rain_bundles(self, ontology, matrix):
        rain = ontology.get("Rain")
        (cover,) = candidate_relations(rain, matrix, ontology)
        assert cover.sort_key() == ("SurfaceTreatment.Cover", "Sensor", "Rain")
        # the bare source, then the lone candidate while its mask holds a bit
        assert enumerate_bundles([0b10], limit=2) == [((), -1), ((0,), 0b10)]
        assert enumerate_bundles([0], limit=2) == [((), -1)]

    def test_limit_zero_keeps_only_the_bare_bundle(self):
        assert enumerate_bundles([-1] * 5, limit=0) == [((), -1)]
        assert enumerate_bundles([], limit=3) == [((), -1)]

    def test_bundle_counts_follow_combinations(self, ontology, matrix):
        pedestrian = ontology.get("Pedestrian")
        singles = len(candidate_relations(pedestrian, matrix, ontology))
        # masks sharing every bit grow every combination, in combination order
        bundles = enumerate_bundles([-1] * singles, limit=2)
        assert [picked for picked, _common in bundles] \
            == [chosen for size in range(3) for chosen in combinations(range(singles), size)]
        assert len(bundles) == 1 + singles + singles * (singles - 1) // 2

    def test_a_limit_past_the_candidates_stops_at_them(self):
        masks = [0b011, 0b110, 0b101, 0b111]
        assert enumerate_bundles(masks, limit=10**9) \
            == enumerate_bundles(masks, limit=len(masks))

    def test_demands_keep_the_combinations_whose_masks_share_a_bit(self):
        masks = [(i * 37) % 16 for i in range(12)]  # some are 0
        assert 0 in masks
        for limit in (0, 1, 2, 3):
            expected = [((), -1)]
            for size in range(1, limit + 1):
                for chosen in combinations(range(len(masks)), size):
                    common = reduce(operator.and_, (masks[i] for i in chosen))
                    if common:
                        expected.append((chosen, common))
            assert enumerate_bundles(masks, limit) == expected


class TestGenerateCatalog:
    def test_ids_are_unique(self, catalog):
        ids = [c.id for c in catalog.conditions]
        assert len(ids) == len(set(ids))

    def test_rendered_rows_are_unique(self, catalog):
        rows = [(c.sensor, c.sources_rendered(), c.properties_rendered(),
                 c.stage_rendered(), c.description) for c in catalog.conditions]
        assert len(rows) == len(set(rows))

    def test_counts_by_sensor_add_up(self, catalog):
        counts = catalog.count_by_sensor()
        assert set(counts) == {"Camera", "LiDAR"}
        assert sum(counts.values()) == len(catalog.conditions)

    def test_generation_is_deterministic(self, inputs, config, catalog):
        again = generate_catalog(inputs.ontology, inputs.suite, inputs.matrix,
                                 inputs.effects, inputs.templates,
                                 threshold=config.threshold,
                                 bundle_limit=config.bundle_limit)
        assert again == catalog

    def test_sensor_filter_selects_a_subset(self, inputs, config, catalog):
        expected = tuple(c for c in catalog.conditions if c.sensor == "Camera")
        for sensors in (("Camera",), ("Camera", "Camera")):
            camera_only = generate_catalog(
                inputs.ontology, inputs.suite, inputs.matrix, inputs.effects,
                inputs.templates, threshold=config.threshold,
                bundle_limit=config.bundle_limit, sensors=sensors)
            assert camera_only.conditions == expected

    @pytest.mark.parametrize("limit", [3, 4])
    def test_larger_bundle_limits_add_nothing(self, inputs, config, catalog, limit):
        assert config.bundle_limit == 2
        larger = generate_catalog(inputs.ontology, inputs.suite, inputs.matrix,
                                  inputs.effects, inputs.templates,
                                  threshold=config.threshold, bundle_limit=limit)
        assert larger.conditions == catalog.conditions
        assert larger.positives == catalog.positives

    def test_matrices_are_built_only_for_bundles_that_can_add(self, inputs, config,
                                                               catalog, monkeypatch):
        built = []
        real_build = pipeline.build_matrix

        def counting_build(*args):
            built.append(real_build(*args))
            return built[-1]

        monkeypatch.setattr(pipeline, "build_matrix", counting_build)
        counts = {}
        for limit in (2, 3, 4):
            built.clear()
            larger = generate_catalog(inputs.ontology, inputs.suite, inputs.matrix,
                                      inputs.effects, inputs.templates,
                                      threshold=config.threshold, bundle_limit=limit)
            assert (larger.conditions, larger.positives, larger.warnings) \
                == (catalog.conditions, catalog.positives, catalog.warnings)
            assert all(m.columns for m in built)
            counts[limit] = len(built)
        # larger bundles pass the relevance filter but can add nothing, so no
        # matrix is built for them
        assert counts == {2: 42, 3: 42, 4: 42}

    def test_unknown_sensor_rejected(self, inputs):
        with pytest.raises(ToolkitError) as excinfo:
            generate_catalog(inputs.ontology, inputs.suite, inputs.matrix,
                             inputs.effects, inputs.templates,
                             sensors=("Radar",))
        assert excinfo.value.code == "UnknownSensor"

    @pytest.mark.parametrize("parameters", [
        {"threshold": 2.0}, {"threshold": True}, {"threshold": 0},
        {"bundle_limit": 2.0}, {"bundle_limit": True}, {"bundle_limit": -1},
    ])
    def test_parameters_are_read_as_the_readers_read_them(self, inputs, parameters):
        # booleans and floats are not integers, as in the config and catalog readers
        with pytest.raises(ToolkitError) as excinfo:
            generate_catalog(inputs.ontology, inputs.suite, inputs.matrix,
                             inputs.effects, inputs.templates, **parameters)
        assert excinfo.value.code == "InvalidValue"

    @pytest.mark.parametrize("parameters", [
        {"threshold": 5}, {"threshold": True}, {"bundle_limit": -1}, {"bundle_limit": 1.5},
    ])
    def test_parameters_are_checked_before_any_matrix(self, inputs, parameters):
        # TemporaryStructure alone reaches no LiDAR stage, so no matrix is
        # built; the catalog would be one that catalog_from_doc refuses
        doc = read_document(data_path("source_ontology.yaml"))
        doc["concepts"] = [dict(concept, parent=None) for concept in doc["concepts"]
                           if concept["name"] == "TemporaryStructure"]
        (key, value), = parameters.items()
        for sensors in (("LiDAR",), ()):
            with pytest.raises(ToolkitError) as excinfo:
                generate_catalog(ontology_from_doc(doc), inputs.suite, inputs.matrix,
                                 inputs.effects, inputs.templates, sensors=sensors,
                                 **parameters)
            assert excinfo.value.code == "InvalidValue"
            assert f"'{key}' must be an integer" in str(excinfo.value)

    def test_distance_twins_follow_their_base(self, catalog):
        for i, condition in enumerate(catalog.conditions):
            if condition.distance_augmented:
                base = catalog.conditions[i - 1]
                assert not base.distance_augmented
                assert base.stage == condition.stage
                assert base.variant == condition.variant
                assert condition.description.startswith(base.description)

    def test_recognition_conditions_have_no_twin(self, catalog):
        from trigkit.perception import STAGE_BY_NAME, StagePhase

        for condition in catalog.conditions:
            if STAGE_BY_NAME[condition.stage].phase is StagePhase.RECOGNITION:
                assert not condition.distance_augmented

    def test_positive_cells_are_reported_not_synthesized(self, catalog):
        assert len(catalog.positives) == 1
        sensor, cell = catalog.positives[0]
        assert sensor == "Camera"
        assert cell.concept == "ArtificialLight"
        assert cell.degree > 0
        # no condition was synthesized from the beneficial cell
        assert all(c.degree < 0 for c in catalog.conditions)

    def test_untemplated_conditions_match_warnings(self, catalog):
        generic = [c for c in catalog.conditions if not c.templated]
        assert generic, "the corpus intentionally leaves one key untemplated"
        assert len(catalog.warnings) == len(
            {(c.sensor, c.property_owner, c.property_key, c.stage)
             for c in generic})
        assert all(w.startswith("MissingTemplate") for w in catalog.warnings)

    def test_every_source_resolves(self, catalog, ontology):
        for condition in catalog.conditions:
            for name in condition.sources:
                assert ontology.get(name) is not None


class TestLevelWiseGrowth:
    """Bundles grow level by level while their candidates share a demand bit,
    and the gate runs only on the bundles grown; every matrix the exhaustive
    gate built is still built."""

    def test_matrices_built_and_bundles_gated_at_each_limit(self, inputs, config,
                                                              monkeypatch):
        built, gated = [], []
        real_build, real_gate = pipeline.build_matrix, pipeline._may_change

        def counting_build(*args):
            built.append(args[0])
            return real_build(*args)

        def counting_gate(*args):
            gated.append(args[1])
            return real_gate(*args)

        monkeypatch.setattr(pipeline, "build_matrix", counting_build)
        monkeypatch.setattr(pipeline, "_may_change", counting_gate)
        counts = {}
        for limit in (1, 2, 3):
            built.clear()
            gated.clear()
            generate_catalog(inputs.ontology, inputs.suite, inputs.matrix,
                             inputs.effects, inputs.templates,
                             threshold=config.threshold, bundle_limit=limit)
            counts[limit] = (len(built), len(gated))
        # gating every combination of the usable relations tested 46, 94 and
        # 134 bundles for the same 41, 42 and 42 matrices
        assert counts == {1: (41, 13), 2: (42, 14), 3: (42, 14)}

    def test_a_pair_sharing_no_demand_is_built_for_a_beneficial_cell(self, monkeypatch):
        """Walker possesses a Kiosk, which adds the Kiosk's Outline row, and
        resembles a Hound, which satisfies the context of the Kiosk's only
        positive rule. Neither relation alone makes that cell positive, and no
        worst-case rule demands both, so only the beneficial test keeps the
        pair; it adds the catalog's one positive cell."""
        from test_acceptance import _reference_catalog

        ontology = ontology_from_doc({"schema": "triggering-sources@1", "concepts": [
            {"name": "Walker", "kind": "InteractiveEntity",
             "properties": [{"name": "Shape", "category": "FeatureVariability"}]},
            {"name": "Kiosk", "kind": "DisturbingEntity",
             "properties": [{"name": "Outline", "category": "FeatureVariability"}]},
            {"name": "Hound", "kind": "DisturbingEntity",
             "properties": [{"name": "Hue", "category": "Reflectivity"}]}]})
        possess, resemble = parse_relation_form("Possess"), \
            parse_relation_form("CognitiveFeature")
        matrix = CompatibilityMatrix(entries=(
            MatrixEntry(MatrixPattern(name="Walker"), MatrixPattern(name="Kiosk"),
                        (possess,)),
            MatrixEntry(MatrixPattern(name="Walker"), MatrixPattern(name="Hound"),
                        (resemble,))))
        suite = SensorSuite(vehicle="Rig", sensors=(PerceptionSystemSpec(
            sensor="Eye", sensor_class=SensorClass.PASSIVE,
            stages=("LightReceiving", "FeatureExtraction")),))
        kb = EffectKnowledgeBase(rules=(
            EffectRule("Walker", ("Shape",), "FeatureExtraction", "Variety", -3),
            EffectRule("Kiosk", ("Outline",), "FeatureExtraction", "Variety", 2,
                       context=RelationContext(form=resemble))))
        scene = (ontology, suite, matrix, kb, TemplateSet())

        walker = ontology.get("Walker")
        demands = pipeline._rule_demands(kb, 2)
        sides = context_sides(ontology)
        pair = [pipeline._Candidate(rel, sides, ontology, demands)
                for rel in candidate_relations(walker, matrix, ontology)]
        assert [c.partner for c in pair] == ["Hound", "Kiosk"]
        assert pair[0].demand & pair[1].demand == 0

        built = []
        real_build = pipeline.build_matrix
        monkeypatch.setattr(pipeline, "build_matrix",
                            lambda *args: built.append(args[0].signature())
                            or real_build(*args))
        for limit in (2, 3):
            built.clear()
            catalog = generate_catalog(*scene, threshold=2, bundle_limit=limit)
            assert catalog == _reference_catalog(*scene, 2, limit)
            assert built == ["", "CognitiveFeature(Walker,Hound);Possess(Walker,Kiosk)"]
        assert [(sensor, cell.concept, cell.degree) for sensor, cell in catalog.positives] \
            == [("Eye", "Kiosk", 2)]
        assert len(catalog.conditions) == 1

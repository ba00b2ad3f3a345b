"""End-to-end catalog generation over the bundled road-sweeper corpus."""

from itertools import combinations

import pytest

from trigkit import pipeline
from trigkit.errors import ToolkitError
from trigkit.pipeline import (
    candidate_relations,
    enumerate_bundles,
    generate_catalog,
)
from trigkit.relationships import CompatibilityMatrix, compose_bundle


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

    def test_each_pair_is_resolved_once(self, ontology, matrix, monkeypatch):
        calls = []
        real_resolve = CompatibilityMatrix.resolve

        def counting_resolve(self, *args):
            calls.append(args)
            return real_resolve(self, *args)

        monkeypatch.setattr(CompatibilityMatrix, "resolve", counting_resolve)
        for name in ontology.names():
            calls.clear()
            candidate_relations(ontology.get(name), matrix, ontology)
            # the sensor pair, then one per other concept
            assert len(calls) == 1 + (len(ontology.names()) - 1)


class TestEnumerateBundles:
    def test_rain_bundles(self, ontology, matrix):
        rain = ontology.get("Rain")
        bundles = enumerate_bundles(rain, candidate_relations(rain, matrix, ontology),
                                    limit=2)
        assert [b.signature() for b in bundles] == [
            "", "SurfaceTreatment.Cover(Sensor,Rain)"]

    def test_limit_zero_keeps_only_the_bare_bundle(self, ontology, matrix):
        pedestrian = ontology.get("Pedestrian")
        bundles = enumerate_bundles(
            pedestrian, candidate_relations(pedestrian, matrix, ontology), limit=0)
        assert len(bundles) == 1
        assert bundles[0].signature() == ""

    def test_bundle_counts_follow_combinations(self, ontology, matrix):
        pedestrian = ontology.get("Pedestrian")
        candidates = candidate_relations(pedestrian, matrix, ontology)
        singles = len(candidates)
        bundles = enumerate_bundles(pedestrian, candidates, limit=2)
        assert len(bundles) == 1 + singles + singles * (singles - 1) // 2

    def test_a_limit_past_the_candidates_stops_at_them(self, ontology, matrix):
        rain = ontology.get("Rain")
        candidates = candidate_relations(rain, matrix, ontology)
        assert enumerate_bundles(rain, candidates, limit=10**9) \
            == enumerate_bundles(rain, candidates, limit=len(candidates))

    def test_negative_limit_rejected(self, ontology, matrix):
        rain = ontology.get("Rain")
        with pytest.raises(ToolkitError, match="bundle limit must be an integer >= 0"):
            enumerate_bundles(rain, candidate_relations(rain, matrix, ontology),
                              limit=-1)


class TestCandidatesValidatedOnce:
    def test_out_of_order_and_duplicated_candidates_are_canonicalised(
            self, ontology, matrix):
        pedestrian = ontology.get("Pedestrian")
        canonical = candidate_relations(pedestrian, matrix, ontology)
        messy = list(reversed(canonical)) + canonical[:3]
        for limit in (0, 1, 2, 3):
            bundles = enumerate_bundles(pedestrian, messy, limit)
            assert bundles == enumerate_bundles(pedestrian, canonical, limit)
            expected = [()] + [chosen for size in range(1, limit + 1)
                               for chosen in combinations(canonical, size)]
            assert [b.relations for b in bundles] == expected
            # each bundle is what composing its relations gives
            for bundle in bundles[1:]:
                assert bundle == compose_bundle(pedestrian, bundle.relations)

    def test_a_relation_around_another_focal_is_rejected(self, ontology, matrix):
        pedestrian = ontology.get("Pedestrian")
        candidates = candidate_relations(pedestrian, matrix, ontology)
        foreign = candidate_relations(ontology.get("MovableObstacle"), matrix,
                                      ontology)
        foreign = [rel for rel in foreign if not rel.targets_sensor()][:1]
        with pytest.raises(ToolkitError) as excinfo:
            enumerate_bundles(pedestrian, candidates + foreign, 1)
        assert excinfo.value.code == "MixedFocal"

    def test_compose_bundle_runs_once_per_enumeration(self, inputs, monkeypatch):
        composed, enumerated = [], []
        real_compose, real_enumerate = pipeline.compose_bundle, pipeline.enumerate_bundles

        def counting_compose(*args, **kwargs):
            composed.append(args[0].name)
            return real_compose(*args, **kwargs)

        def counting_enumerate(*args):
            bundles = real_enumerate(*args)
            enumerated.append(len(bundles))
            return bundles

        monkeypatch.setattr(pipeline, "compose_bundle", counting_compose)
        monkeypatch.setattr(pipeline, "enumerate_bundles", counting_enumerate)
        for limit in (1, 2, 3):
            composed.clear()
            enumerated.clear()
            generate_catalog(inputs.ontology, inputs.suite, inputs.matrix,
                             inputs.effects, inputs.templates, bundle_limit=limit)
            pairs = len(inputs.suite.sensors) * len(inputs.ontology.names())
            # one validation per (sensor, source), however many bundles
            assert len(enumerated) == len(composed) == pairs
            assert sum(enumerated) > pairs


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

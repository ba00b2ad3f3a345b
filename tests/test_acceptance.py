"""Acceptance gates for the toolchain, one criterion per test.

Every test prints a single ``C<n> PASS/FAIL`` line (visible under ``-s``)
and asserts the same predicate, so the suite both reports and gates. C3
re-derives catalogs with an independent brute-force enumerator over seeded
random scenes; C4 hammers the stage-mapping rules with randomized queries.
"""

import contextlib
import hashlib
import io
import json
import random
import time
from itertools import combinations
from pathlib import Path

from trigkit.cli import main as cli_main
from trigkit.config import strip_timing
from trigkit.data import data_path, reference_config
from trigkit.docio import read_document
from trigkit.generation import (
    EffectEntry,
    EffectKnowledgeBase,
    EffectRule,
    RelationContext,
    _matrix_rows,
    build_matrix,
    effects_from_doc,
    effects_to_doc,
    synthesize_conditions,
    worst_case_filter,
)
from trigkit.ontology import (
    ConceptKind,
    PropertyCategory,
    legal_categories,
    ontology_from_doc,
    ontology_to_doc,
)
from trigkit.perception import (
    STAGE_BY_NAME,
    STAGE_ORDER,
    PerceptionSystemSpec,
    SensorClass,
    SensorSuite,
    StagePhase,
    affected_stages,
    stages_for_class,
    suite_from_doc,
    suite_to_doc,
)
from trigkit.pipeline import (
    Catalog,
    _condition_order,
    candidate_relations,
    generate_catalog,
)
from trigkit.relationships import (
    DEFAULT_PERTURBED,
    RELATION_FORMS,
    CompatibilityMatrix,
    MatrixEntry,
    MatrixPattern,
    RelationshipBundle,
    RelationshipInstance,
    matrix_from_doc,
    matrix_to_doc,
)
from trigkit.render import AssessmentClass, rank
from trigkit.templates import TemplateSet, templates_from_doc, templates_to_doc
from trigkit.testcases import (
    BehaviorClass,
    compose,
    events_from_doc,
    events_to_doc,
    outcome_record,
    policy_from_doc,
    policy_to_doc,
)

GOLDEN_CSV = Path(__file__).parent / "data" / "reference_conditions.csv"


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# C1 — golden catalog rows from the bundled corpus
# ---------------------------------------------------------------------------

def test_c1_reference_rows_and_runtime(inputs, config):
    started = time.perf_counter()
    catalog = generate_catalog(inputs.ontology, inputs.suite, inputs.matrix,
                               inputs.effects, inputs.templates,
                               threshold=config.threshold,
                               bundle_limit=config.bundle_limit)
    elapsed = time.perf_counter() - started

    import csv as _csv
    with open(GOLDEN_CSV, encoding="utf-8", newline="") as handle:
        golden = list(_csv.DictReader(handle))
    produced = {(c.sensor, c.sources_rendered(), c.properties_rendered(),
                 c.stage_rendered(), c.description) for c in catalog.conditions}
    missing = [row for row in golden
               if (row["Sensor"], row["Triggering sources"], row["Properties"],
                   row["Process stage"], row["Triggering condition"]) not in produced]

    ok = (not missing and len(golden) == 20
          and len(catalog.conditions) >= 20 and elapsed < 1.0)
    detail = (f"{len(golden) - len(missing)}/{len(golden)} reference rows "
              f"matched, {len(catalog.conditions)} conditions total, "
              f"generated in {elapsed:.3f}s (< 1s)")
    if missing:
        detail += f"; missing: {missing[:3]}"
    _verdict("C1", ok, detail)


# ---------------------------------------------------------------------------
# C2 — graded worst-case cells and the threshold filter
# ---------------------------------------------------------------------------

def test_c2_worst_case_cells(inputs, lidar):
    bundle = RelationshipBundle(source="MovableObstacle")
    matrix = build_matrix(bundle, lidar, inputs.effects, inputs.ontology)
    row = ("MovableObstacle", ("SurfaceMaterial",))
    intensity = matrix.cell(row, ("SignalReflection", "SignalIntensity"))
    amount = matrix.cell(row, ("SignalReflection", "SignalAmount"))
    kept = worst_case_filter(matrix, 2)
    ok = (intensity.degree == -3 and amount.degree == -1
          and intensity in kept and amount not in kept)
    _verdict("C2", ok,
             f"surface-material cells graded {intensity.degree}/{amount.degree}; "
             f"threshold 2 keeps the -3 cell and drops the -1 cell")


# ---------------------------------------------------------------------------
# C3 — independent enumeration oracle over random scenes
# ---------------------------------------------------------------------------

_KINDS = (ConceptKind.INTERACTIVE, ConceptKind.DISTURBING, ConceptKind.MODIFICATION)
_CONCEPT_POOL = ("Walker", "Rider", "Cart", "Hound", "Kiosk", "Banner",
                 "Foil", "Smoke", "Mist", "Glare", "Drizzle", "Pollen")
_PROPERTY_POOL = ("Shape", "Hue", "Sheen", "Motion", "Density",
                  "Outline", "Grain", "Glow")


def _random_ontology(rng: random.Random):
    names = rng.sample(_CONCEPT_POOL, rng.randint(2, 12))
    concepts = []
    for name in names:
        kind = rng.choice(_KINDS)
        legal = sorted(c.value for c in legal_categories(kind))
        properties = [{"name": prop, "category": rng.choice(legal)}
                      for prop in rng.sample(_PROPERTY_POOL, rng.randint(1, 3))]
        concepts.append({"name": name, "kind": kind.value,
                         "properties": properties})
    return ontology_from_doc({"schema": "triggering-sources@1",
                              "concepts": concepts})


def _random_matrix(rng: random.Random, ontology) -> CompatibilityMatrix:
    entries = []

    def forms():
        return tuple(rng.sample(RELATION_FORMS, rng.randint(1, 3)))

    def perturbs(chosen):
        if rng.random() < 0.3:
            form = rng.choice(chosen)
            cats = tuple(rng.sample(sorted(PropertyCategory, key=lambda c: c.value),
                                    rng.randint(1, 2)))
            return ((form.label, cats),)
        return ()

    for focal_kind in _KINDS:
        for partner_kind in _KINDS:
            if rng.random() < 0.5:
                chosen = forms()
                entries.append(MatrixEntry(
                    focal=MatrixPattern(kind=focal_kind),
                    partner=MatrixPattern(kind=partner_kind),
                    forms=chosen, perturbs=perturbs(chosen)))
    names = list(ontology.names())
    for _ in range(rng.randint(0, 3)):
        focal, partner = rng.sample(names, 2) if len(names) > 1 else (names[0], names[0])
        chosen = forms()
        entries.append(MatrixEntry(focal=MatrixPattern(name=focal),
                                   partner=MatrixPattern(name=partner),
                                   forms=chosen, perturbs=perturbs(chosen)))
    for _ in range(rng.randint(0, 2)):
        chosen = forms()
        partner = (MatrixPattern(kind=rng.choice(_KINDS)) if rng.random() < 0.5
                   else MatrixPattern(name=rng.choice(names)))
        entries.append(MatrixEntry(focal=MatrixPattern(name="Sensor"),
                                   partner=partner, forms=chosen,
                                   perturbs=perturbs(chosen)))
    return CompatibilityMatrix(entries=tuple(entries))


def _random_suite(rng: random.Random) -> SensorSuite:
    sensors = []
    for i in range(rng.randint(1, 2)):
        sensor_class = rng.choice((SensorClass.ACTIVE, SensorClass.PASSIVE))
        legal = [s.name for s in stages_for_class(sensor_class)]
        chosen = rng.sample(legal, rng.randint(1, len(legal)))
        stages = tuple(s for s in legal if s in set(chosen))
        sensors.append(PerceptionSystemSpec(sensor=f"Probe{i}",
                                            sensor_class=sensor_class,
                                            stages=stages))
    return SensorSuite(vehicle="Rig", sensors=tuple(sensors))


def _random_context(rng: random.Random, ontology) -> RelationContext:
    names = list(ontology.names())
    form = rng.choice(RELATION_FORMS) if rng.random() < 0.6 else None
    focal = partner = None
    if rng.random() < 0.5:
        focal = (MatrixPattern(name=rng.choice(names + ["Sensor"]))
                 if rng.random() < 0.5 else MatrixPattern(kind=rng.choice(_KINDS)))
    if rng.random() < 0.5 or (form is None and focal is None):
        partner = (MatrixPattern(name=rng.choice(names))
                   if rng.random() < 0.5 else MatrixPattern(kind=rng.choice(_KINDS)))
    return RelationContext(form=form, focal=focal, partner=partner)


def _random_kb(rng: random.Random, ontology) -> EffectKnowledgeBase:
    rules = []
    stage_names = list(STAGE_ORDER)
    for name in ontology.names():
        concept = ontology.get(name)
        props = concept.property_names()
        for _ in range(rng.randint(1, 4)):
            if len(props) > 1 and rng.random() < 0.2:
                chosen = tuple(sorted(rng.sample(props, 2)))
            else:
                chosen = (rng.choice(props),)
            stage = rng.choice(stage_names)
            quality = rng.choice(STAGE_BY_NAME[stage].quality_properties)
            degree = rng.choice((-3, -3, -2, -2, -1, 1, 2))
            context = _random_context(rng, ontology) if rng.random() < 0.4 else None
            rules.append(EffectRule(concept=name, properties=chosen, stage=stage,
                                    stage_property=quality, degree=degree,
                                    context=context))
    rules.sort(key=lambda r: r.sort_key())
    return EffectKnowledgeBase(rules=tuple(rules))


def _pattern_ok(pattern: MatrixPattern, name: str, kind) -> bool:
    if pattern.name is not None:
        return pattern.name == name
    return kind is not None and pattern.kind is kind


def _oracle_resolve(matrix, focal_name, focal_kind, partner_name, partner_kind):
    best, best_score = None, -1
    for entry in matrix.entries:
        if not _pattern_ok(entry.focal, focal_name, focal_kind):
            continue
        if not _pattern_ok(entry.partner, partner_name, partner_kind):
            continue
        score = (2 if entry.focal.name is not None else 0) \
            + (1 if entry.partner.name is not None else 0)
        if score > best_score:
            best, best_score = entry, score
    return best


def _oracle_candidates(source, matrix, ontology):
    candidates = []
    entry = _oracle_resolve(matrix, "Sensor", None, source.name, source.kind)
    if entry is not None:
        for form in sorted(set(entry.forms), key=lambda f: f.label):
            perturbed = entry.perturbed_for(form)
            if perturbed is None:
                perturbed = DEFAULT_PERTURBED[form.kind]
            candidates.append(RelationshipInstance(
                form=form, focal="Sensor", partner=source.name,
                perturbed=perturbed, source=entry.source))
    for partner_name in ontology.names():
        if partner_name == source.name:
            continue
        partner = ontology.get(partner_name)
        entry = _oracle_resolve(matrix, source.name, source.kind,
                                partner.name, partner.kind)
        if entry is None:
            continue
        for form in sorted(set(entry.forms), key=lambda f: f.label):
            perturbed = entry.perturbed_for(form)
            if perturbed is None:
                perturbed = DEFAULT_PERTURBED[form.kind]
            if perturbed - legal_categories(source.kind):
                continue
            candidates.append(RelationshipInstance(
                form=form, focal=source.name, partner=partner.name,
                perturbed=perturbed, source=entry.source))
    return candidates


def _oracle_context_matches(context, rel, ontology) -> bool:
    if context.form is not None and rel.form != context.form:
        return False
    for pattern, name in ((context.focal, rel.focal),
                          (context.partner, rel.partner)):
        if pattern is None:
            continue
        concept = ontology.get(name)
        kind = concept.kind if concept is not None else None
        if not _pattern_ok(pattern, name, kind):
            return False
    return True


def _oracle_specificity(rule) -> int:
    if rule.context is None:
        return 0
    score = 1
    if rule.context.form is not None:
        score += 1
    for pattern in (rule.context.focal, rule.context.partner):
        if pattern is not None:
            score += 2 if pattern.name is not None else 1
    return score


def _oracle_condition_id(sensor, source, signature, owner, propkey, stage,
                         tag, distance):
    payload = "|".join([sensor, source, signature, owner, propkey, stage,
                        tag, "D" if distance else "B"])
    return "c" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _oracle_ids(ontology, suite, matrix, kb, threshold, bundle_limit):
    ids = set()
    for spec in suite.sensors:
        for source_name in ontology.names():
            source = ontology.get(source_name)
            candidates = _oracle_candidates(source, matrix, ontology)
            bundles = [()]
            for size in range(1, bundle_limit + 1):
                bundles.extend(combinations(candidates, size))
            for chosen in bundles:
                rels = sorted(chosen,
                              key=lambda r: (r.form.label, r.focal, r.partner))
                signature = ";".join(f"{r.form.label}({r.focal},{r.partner})"
                                     for r in rels)
                stages = affected_stages(source, rels, spec, ontology)
                if not stages:
                    continue
                columns = [(stage, quality)
                           for stage in sorted(stages, key=STAGE_ORDER.get)
                           for quality in STAGE_BY_NAME[stage].quality_properties]

                rows = {(source.name, (p,)) for p in source.property_names()}
                for rel in rels:
                    if rel.focal == "Sensor":
                        continue
                    partner = ontology.get(rel.partner)
                    for prop in partner.property_names():
                        if partner.categories_of(prop) & rel.perturbed:
                            rows.add((partner.name, (prop,)))
                singles = {(concept, props[0]) for concept, props in rows}
                for rule in kb.rules:
                    if len(rule.properties) > 1 and all(
                            (rule.concept, p) in singles for p in rule.properties):
                        rows.add((rule.concept, rule.properties))
                ordered_rows = sorted(rows, key=lambda r: (
                    0 if r[0] == source.name else 1, r[0], len(r[1]), r[1]))

                best = {}
                for rule in kb.rules:
                    if rule.context is not None and not any(
                            _oracle_context_matches(rule.context, rel, ontology)
                            for rel in rels):
                        continue
                    key = (rule.concept, rule.properties, rule.stage,
                           rule.stage_property)
                    current = best.get(key)
                    if current is None or rule.degree < current.degree \
                            or (rule.degree == current.degree
                                and _oracle_specificity(rule)
                                > _oracle_specificity(current)):
                        best[key] = rule

                groups = {}
                for concept, props in ordered_rows:
                    for stage, quality in columns:
                        rule = best.get((concept, props, stage, quality))
                        if rule is None or rule.degree > -threshold:
                            continue
                        groups.setdefault(((concept, props), stage), []).append(rule)

                for ((concept, props), stage), cells in groups.items():
                    demanded = all(
                        any(cell.context is not None
                            and _oracle_context_matches(cell.context, rel, ontology)
                            for cell in cells)
                        for rel in rels)
                    if not demanded:
                        continue
                    propkey = "/".join(props)
                    ids.add(_oracle_condition_id(
                        spec.sensor, source.name, signature, concept, propkey,
                        stage, TemplateSet.GENERIC_TAG, False))
                    if STAGE_BY_NAME[stage].phase is StagePhase.SENSING:
                        ids.add(_oracle_condition_id(
                            spec.sensor, source.name, signature, concept,
                            propkey, stage, TemplateSet.GENERIC_TAG, True))
    return ids


def test_c3_oracle_equivalence():
    started = time.perf_counter()
    scenes = 100
    mismatches = []
    productive = 0
    for seed in range(scenes):
        rng = random.Random(9200 + seed)
        ontology = _random_ontology(rng)
        matrix = _random_matrix(rng, ontology)
        suite = _random_suite(rng)
        kb = _random_kb(rng, ontology)
        threshold = rng.choice((1, 2, 3))
        bundle_limit = rng.choice((1, 2, 2))
        catalog = generate_catalog(ontology, suite, matrix, kb, TemplateSet(),
                                   threshold=threshold, bundle_limit=bundle_limit)
        expected = _oracle_ids(ontology, suite, matrix, kb, threshold,
                               bundle_limit)
        actual = {c.id for c in catalog.conditions}
        if actual:
            productive += 1
        if actual != expected:
            mismatches.append((seed, len(expected - actual), len(actual - expected)))
    elapsed = time.perf_counter() - started
    ok = not mismatches and productive >= scenes // 2 and elapsed < 30.0
    _verdict("C3", ok,
             f"{scenes - len(mismatches)}/{scenes} random scenes match the "
             f"brute-force enumeration ({productive} produced conditions) "
             f"in {elapsed:.1f}s (< 30s)"
             + (f"; first mismatches {mismatches[:3]}" if mismatches else ""))


# ---------------------------------------------------------------------------
# Exhaustive reference: skipped bundles and the ranked rule index lose nothing
# ---------------------------------------------------------------------------

def _reference_cells(bundle, spec, kb, ontology) -> list:
    """The bundle's graded matrix cells in row-major order, each cell's
    winner found by one linear scan of every rule: worst degree, then
    narrower context, then earlier rule. Cells left at 0 are omitted."""
    source = ontology.get(bundle.source)
    stages = sorted(affected_stages(source, bundle.relations, spec, ontology),
                    key=STAGE_ORDER.get)
    best = {}
    for rule in kb.rules:
        if rule.context is not None and not rule.context.satisfied_by(bundle, ontology):
            continue
        key = (rule.concept, rule.properties, rule.stage, rule.stage_property)
        current = best.get(key)
        if current is None or rule.degree < current.degree \
                or (rule.degree == current.degree
                    and _oracle_specificity(rule) > _oracle_specificity(current)):
            best[key] = rule
    cells = []
    for concept, props in _matrix_rows(bundle, kb, ontology):
        for stage in stages:
            for quality in STAGE_BY_NAME[stage].quality_properties:
                rule = best.get((concept, props, stage, quality))
                if rule is not None:
                    cells.append(EffectEntry(concept, props, stage, quality, rule.degree,
                                             rule.principle, rule.worst_case,
                                             rule.context))
    return cells


def _reference_catalog(ontology, suite, matrix, kb, templates, threshold,
                       bundle_limit) -> Catalog:
    """Grade and synthesize every combination of candidate relations."""
    warnings, conditions, positives, seen = [], [], [], set()
    for spec in suite.sensors:
        for name in ontology.names():
            source = ontology.get(name)
            candidates = candidate_relations(source, matrix, ontology)
            bundles = [RelationshipBundle(source=name)]
            for size in range(1, bundle_limit + 1):
                bundles.extend(RelationshipBundle(name, chosen)
                               for chosen in combinations(candidates, size))
            for bundle in bundles:
                cells = _reference_cells(bundle, spec, kb, ontology)
                for cell in cells:
                    key = (spec.sensor, cell.concept, cell.properties, cell.stage,
                           cell.stage_property)
                    if cell.degree > 0 and key not in seen:
                        seen.add(key)
                        positives.append((spec.sensor, cell))
                conditions.extend(synthesize_conditions(
                    [cell for cell in cells if cell.degree <= -threshold], bundle,
                    spec, templates, ontology, warnings))
    conditions.sort(key=_condition_order)
    return Catalog(vehicle=suite.vehicle, threshold=threshold,
                   bundle_limit=bundle_limit, conditions=tuple(conditions),
                   positives=tuple(positives), warnings=tuple(warnings))


def test_generation_matches_the_exhaustive_reference(inputs):
    started = time.perf_counter()
    runs = [(f"bundled limit {limit}", inputs.ontology, inputs.suite, inputs.matrix,
             inputs.effects, inputs.templates, 2, limit) for limit in (1, 2, 3)]
    for seed in range(100):
        rng = random.Random(9200 + seed)  # the scenes of C3
        ontology = _random_ontology(rng)
        matrix = _random_matrix(rng, ontology)
        suite = _random_suite(rng)
        kb = _random_kb(rng, ontology)
        threshold = rng.choice((1, 2, 3))
        bundle_limit = rng.choice((1, 2, 2))
        for limit in (bundle_limit, 3):
            runs.append((f"scene {seed} limit {limit}", ontology, suite, matrix, kb,
                         TemplateSet(), threshold, limit))
    mismatches = []
    for label, ontology, suite, matrix, kb, templates, threshold, limit in runs:
        args = (ontology, suite, matrix, kb, templates)
        catalog = generate_catalog(*args, threshold=threshold, bundle_limit=limit)
        if catalog != _reference_catalog(*args, threshold, limit):
            mismatches.append(label)
    elapsed = time.perf_counter() - started
    _verdict("C3 reference", not mismatches,
             f"{len(runs) - len(mismatches)}/{len(runs)} catalogs (conditions, "
             f"positives, warnings) equal the exhaustive enumeration in "
             f"{elapsed:.1f}s" + (f"; first mismatches {mismatches[:3]}"
                                  if mismatches else ""))


# ---------------------------------------------------------------------------
# C4 — stage-mapping rule invariants under random queries
# ---------------------------------------------------------------------------

def test_c4_stage_rule_invariants():
    queries = 0
    violations = []
    signal_stages = {s.name for s in stages_for_class(SensorClass.ACTIVE)
                     if s.phase is StagePhase.SENSING}
    for scene in range(50):
        rng = random.Random(4100 + scene)
        ontology = _random_ontology(rng)
        matrix = _random_matrix(rng, ontology)
        names = list(ontology.names())
        for _ in range(20):
            queries += 1
            source = ontology.get(rng.choice(names))
            sensor_class = rng.choice((SensorClass.ACTIVE, SensorClass.PASSIVE))
            legal = [s.name for s in stages_for_class(sensor_class)]
            chosen = set(rng.sample(legal, rng.randint(1, len(legal))))
            spec = PerceptionSystemSpec(
                sensor="Probe", sensor_class=sensor_class,
                stages=tuple(s for s in legal if s in chosen))
            pool = candidate_relations(source, matrix, ontology)
            rels = rng.sample(pool, min(len(pool), rng.randint(0, 2)))
            stages = affected_stages(source, rels, spec, ontology)

            if not stages <= set(spec.stages):
                violations.append((scene, source.name, "outside declared stages"))
            if sensor_class is SensorClass.ACTIVE and "LightReceiving" in stages:
                violations.append((scene, source.name, "passive stage on active"))
            if sensor_class is SensorClass.PASSIVE and stages & signal_stages:
                violations.append((scene, source.name, "active stage on passive"))
            recognition = {s for s in stages
                           if STAGE_BY_NAME[s].phase is StagePhase.RECOGNITION}
            if recognition:
                focal_kinds = {source.kind}
                for rel in rels:
                    focal = ontology.get(rel.focal)
                    if focal is not None:
                        focal_kinds.add(focal.kind)
                if ConceptKind.INTERACTIVE not in focal_kinds:
                    violations.append((scene, source.name,
                                       "recognition without interactive focal"))
    ok = queries == 1000 and not violations
    _verdict("C4", ok,
             f"{queries} randomized stage queries, {len(violations)} invariant "
             f"violations" + (f"; first {violations[:3]}" if violations else ""))


# ---------------------------------------------------------------------------
# C5 — exposure/criticality priority order
# ---------------------------------------------------------------------------

def test_c5_assessment_order(catalog):
    pairs = [(e, c) for e in ("E1", "E2", "E3", "E4")
             for c in ("C1", "C2", "C3", "C4")]
    failures = []
    for exposure, criticality in pairs:
        rating = AssessmentClass(exposure, criticality)
        if rating.priority != int(exposure[1]) * int(criticality[1]):
            failures.append(f"priority of {exposure}/{criticality}")
    for i in range(1, 4):
        for c in ("C1", "C2", "C3", "C4"):
            if not AssessmentClass(f"E{i + 1}", c).priority \
                    > AssessmentClass(f"E{i}", c).priority:
                failures.append(f"exposure monotonicity at E{i}->{c}")
        for e in ("E1", "E2", "E3", "E4"):
            if not AssessmentClass(e, f"C{i + 1}").priority \
                    > AssessmentClass(e, f"C{i}").priority:
                failures.append(f"criticality monotonicity at {e}->C{i}")

    template = catalog.conditions[0]
    conditions = [template._replace(id=f"c{i:012d}") for i in range(len(pairs))]
    ratings = {condition.id: AssessmentClass(e, c)
               for condition, (e, c) in zip(conditions, pairs)}
    ranked = [rating for _condition, rating in rank(conditions, ratings)]
    keys = [(r.priority, r.criticality_index, r.exposure_index) for r in ranked]
    if keys != sorted(keys, reverse=True):
        failures.append("ranking is not the descending (priority, C, E) order")
    if len(set(keys)) != 16:
        failures.append("ranking keys are not a strict total order")
    for first, second in zip(ranked, ranked[1:]):
        if first.priority == second.priority \
                and first.criticality_index <= second.criticality_index:
            failures.append("equal-priority pair not ordered criticality-major")
    ok = not failures
    _verdict("C5", ok, "all 16 exposure/criticality pairs ordered, "
                       "monotonic, criticality-major on ties"
                       + (f"; {failures[:3]}" if failures else ""))


# ---------------------------------------------------------------------------
# C6 — determinism and document round-trips
# ---------------------------------------------------------------------------

def _run_cli_silent(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return cli_main(argv)


def test_c6_determinism_and_round_trips(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["--config", str(reference_config())]
    failures = []

    artifacts = ("catalog.json", "catalog.csv", "catalog.md",
                 "test_cases.json", "test_cases.md")
    manifests = ("generate.manifest.json", "compose.manifest.json")

    def run_pipeline():
        assert _run_cli_silent(argv + ["generate"]) == 0
        assert _run_cli_silent(argv + ["compose"]) == 0
        blobs = {name: (tmp_path / "out" / name).read_bytes()
                 for name in artifacts}
        stripped = {name: strip_timing(json.loads(
            (tmp_path / "out" / name).read_text(encoding="utf-8")))
            for name in manifests}
        return blobs, stripped

    first_blobs, first_manifests = run_pipeline()
    second_blobs, second_manifests = run_pipeline()
    for name in artifacts:
        if first_blobs[name] != second_blobs[name]:
            failures.append(f"{name} differs between runs")
    for name in manifests:
        if first_manifests[name] != second_manifests[name]:
            failures.append(f"{name} differs beyond timing")

    round_trips = (
        ("source_ontology.yaml", ontology_from_doc, ontology_to_doc),
        ("sweeper_system.yaml", suite_from_doc, suite_to_doc),
        ("compatibility_matrix.yaml", matrix_from_doc, matrix_to_doc),
        ("effects.yaml", effects_from_doc, effects_to_doc),
        ("condition_templates.yaml", templates_from_doc, templates_to_doc),
        ("hazardous_events.yaml", events_from_doc, events_to_doc),
        ("compose_policy.yaml", policy_from_doc, policy_to_doc),
    )
    for name, from_doc, to_doc in round_trips:
        loaded = from_doc(read_document(data_path(name)))
        if from_doc(to_doc(loaded)) != loaded:
            failures.append(f"{name} does not round-trip")

    random_ok = 0
    for seed in range(100):
        ontology = _random_ontology(random.Random(7300 + seed))
        if ontology_from_doc(ontology_to_doc(ontology)) == ontology:
            random_ok += 1
    if random_ok != 100:
        failures.append(f"only {random_ok}/100 random ontologies round-trip")

    ok = not failures
    _verdict("C6", ok, "reruns byte-identical, manifests stable modulo "
                       "timing, 7 bundled and 100 random documents round-trip"
                       + (f"; {failures[:3]}" if failures else ""))


# ---------------------------------------------------------------------------
# C7 — test-case composition contract
# ---------------------------------------------------------------------------

def test_c7_composition_contract(catalog, events, suite, policy):
    cases, warnings = compose(catalog.conditions, events, suite, policy)
    failures = []

    by_id = {e.id: e for e in events}
    allowed = {"Continue driving with no bypass maneuver",
               "Continue driving with no brake"}
    if {c.fail_criterion for c in cases} != allowed:
        failures.append("fail criteria are not the two unintended behaviors")
    if any(c.fail_criterion != by_id[c.event_id].unintended_behavior
           for c in cases):
        failures.append("a fail criterion is not verbatim")

    pedestrian_event = next(e.id for e in events if e.target == "Pedestrian")
    for condition in catalog.conditions:
        if any(r.targets_sensor() for r in condition.relationships):
            continue
        if policy.mapped(condition.sources[0]) != "Pedestrian":
            continue
        matched = {c.event_id for c in cases if c.condition_id == condition.id}
        if matched != {pedestrian_event}:
            failures.append(f"pedestrian-focal {condition.id} -> {matched}")
            break

    expected = 0
    for condition in catalog.conditions:
        if any(r.targets_sensor() for r in condition.relationships):
            expected += len(events)
            continue
        spec = suite.get(condition.sensor)
        targets = {policy.mapped(t) for t in spec.targets()}
        focal = policy.mapped(condition.sources[0])
        eligible = {focal} if focal in targets else targets
        expected += sum(1 for e in events if policy.mapped(e.target) in eligible)
    if len(cases) != expected or warnings:
        failures.append(f"count law broken: {len(cases)} != {expected} "
                        f"or warnings {warnings}")

    ok = not failures
    _verdict("C7", ok, f"{len(cases)} cases composed; fail criteria verbatim, "
                       f"pedestrian-focal conditions pair only with the "
                       f"pedestrian event, count law holds"
                       + (f"; {failures[:3]}" if failures else ""))


# ---------------------------------------------------------------------------
# C8 — executed-outcome contract
# ---------------------------------------------------------------------------

def test_c8_outcome_mapping(catalog, events, suite, policy):
    cases, _ = compose(catalog.conditions, events, suite, policy)
    case = cases[0]
    expected = {
        BehaviorClass.NEAR_COLLISION: "fail",
        BehaviorClass.RISKY_WRONG_CLASSIFICATION: "fail",
        BehaviorClass.UNINTENDED_NO_HAZARD: "marginal",
        BehaviorClass.HESITANT: "marginal",
        BehaviorClass.NOMINAL: "pass",
    }
    failures = []
    for behavior, verdict in expected.items():
        first = outcome_record(case, behavior)
        again = outcome_record(case, behavior.value)
        if first["outcome"] != verdict or first != again:
            failures.append(f"{behavior.value} -> {first['outcome']}")
    ok = not failures
    _verdict("C8", ok, "behavior classes map deterministically to "
                       "fail/fail/marginal/marginal (and nominal to pass)"
                       + (f"; {failures[:3]}" if failures else ""))

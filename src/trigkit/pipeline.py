"""End-to-end catalog generation.

For every declared sensor and every ontology concept, relationship bundles up
to the configured size are enumerated from the compatibility matrix, a
generation matrix is built per bundle, worst-case cells are filtered, and
conditions are synthesized. The empty bundle (the source considered on its
own) is always included. Bundles whose stage mapping misses the sensor's
declared stages simply produce nothing.

Bundles combine only the candidate relations an effect rule can use (see
``_rule_demands``). A bundle holding any other relation cannot yield a
condition, because every relation of a condition must be demanded by a
worst-case rule's context, and its beneficial cells are those of the same
bundle without that relation, which comes earlier in the smallest-first
order. Skipping such bundles therefore leaves conditions, warnings and
beneficial cells unchanged.

Ordering is canonical and total, so repeated runs over the same inputs emit
byte-identical catalogs.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from . import errors as E
from .errors import ToolkitError
from .generation import (
    EffectEntry,
    EffectKnowledgeBase,
    TriggeringCondition,
    build_matrix,
    positive_cells,
    relation_context_keys,
    synthesize_conditions,
    worst_case_filter,
)
from .ontology import SourceConcept, SourceOntology
from .perception import STAGE_ORDER, PerceptionSystemSpec, SensorSuite, affected_stages
from .relationships import (
    CompatibilityMatrix,
    RelationshipBundle,
    RelationshipInstance,
    applicable_relationships,
    compose_bundle,
    instantiate_relationship,
    instantiate_sensor_relationship,
    sensor_applicable_relationships,
)
from .templates import TemplateSet

__all__ = [
    "Catalog",
    "candidate_relations",
    "enumerate_bundles",
    "generate_catalog",
]


@dataclass(frozen=True)
class Catalog:
    """All conditions generated for a sensor suite, canonically ordered."""

    vehicle: str
    threshold: int
    bundle_limit: int
    conditions: tuple[TriggeringCondition, ...]
    positives: tuple[tuple[str, EffectEntry], ...]  # (sensor, beneficial cell)
    warnings: tuple[str, ...]

    def count_by_sensor(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for condition in self.conditions:
            counts[condition.sensor] = counts.get(condition.sensor, 0) + 1
        return counts

    def by_id(self, condition_id: str) -> TriggeringCondition | None:
        for condition in self.conditions:
            if condition.id == condition_id:
                return condition
        return None


def candidate_relations(source: SourceConcept, matrix: CompatibilityMatrix,
                        ontology: SourceOntology) -> list[RelationshipInstance]:
    """Every single relation the matrix permits around ``source`` as focal,
    plus relations that cover or obstruct the sensor with ``source`` as the
    covering partner. Canonically ordered."""
    candidates: list[RelationshipInstance] = []
    for form in sorted(sensor_applicable_relationships(source, matrix),
                       key=lambda f: f.label):
        candidates.append(instantiate_sensor_relationship(form, source, matrix))
    for partner_name in ontology.names():
        if partner_name == source.name:
            continue
        partner = ontology.get(partner_name)
        for form in sorted(applicable_relationships(source, partner, matrix),
                           key=lambda f: f.label):
            try:
                candidates.append(instantiate_relationship(form, source, partner, matrix))
            except ToolkitError as exc:
                if exc.code in (E.ILLEGAL_CATEGORY_FOR_KIND, E.SELF_RELATION):
                    continue  # the matrix grants a form this focal cannot hold
                raise
    candidates.sort(key=lambda r: r.sort_key())
    return candidates


def enumerate_bundles(source: SourceConcept,
                      candidates: Sequence[RelationshipInstance],
                      limit: int) -> list[RelationshipBundle]:
    """The empty bundle plus every combination of ``candidates`` up to
    ``limit``, smallest first."""
    if limit < 0:
        raise ToolkitError(E.INVALID_VALUE, f"bundle limit must be >= 0, got {limit}")
    bundles: list[RelationshipBundle] = [RelationshipBundle(source=source.name)]
    for size in range(1, limit + 1):
        for chosen in combinations(candidates, size):
            bundles.append(compose_bundle(source, list(chosen), limit=limit))
    return bundles


def generate_catalog(ontology: SourceOntology, suite: SensorSuite,
                     matrix: CompatibilityMatrix, kb: EffectKnowledgeBase,
                     templates: TemplateSet, *, threshold: int = 2,
                     bundle_limit: int = 2,
                     sensors: tuple[str, ...] | None = None) -> Catalog:
    """Run the full generation pass over every sensor and source concept.

    ``sensors`` restricts the pass to a subset of the suite, each name taken
    once in first-given order; unknown names raise ``UnknownSensor``.
    """
    specs: list[PerceptionSystemSpec] = []
    if sensors is None:
        specs = list(suite.sensors)
    else:
        for name in dict.fromkeys(sensors):
            spec = suite.get(name)
            if spec is None:
                raise ToolkitError(E.UNKNOWN_SENSOR,
                                   f"suite for {suite.vehicle!r} has no sensor {name!r}")
            specs.append(spec)

    warnings: list[str] = []
    conditions: list[TriggeringCondition] = []
    positives: list[tuple[str, EffectEntry]] = []
    seen_ids: set[str] = set()
    seen_positives: set[tuple] = set()

    contexts, positive_concepts, positive_stages = _rule_demands(kb, threshold)
    # per source: each candidate relation, and whether a rule's context or a
    # beneficial rule's concept needs it on every sensor
    candidates: dict[str, list[tuple[RelationshipInstance, bool]]] = {}

    for spec in specs:
        for name in ontology.names():
            source = ontology.get(name)
            if name not in candidates:
                candidates[name] = [
                    (rel, not contexts.isdisjoint(relation_context_keys(rel, ontology))
                     or (not rel.targets_sensor() and rel.partner in positive_concepts))
                    for rel in candidate_relations(source, matrix, ontology)]
            bare = affected_stages(source, (), spec, ontology)
            relevant = [rel for rel, needed in candidates[name]
                        if needed or positive_stages
                        & (affected_stages(source, (rel,), spec, ontology) - bare)]
            for bundle in enumerate_bundles(source, relevant, bundle_limit):
                gen_matrix = build_matrix(bundle, spec, kb, ontology)
                if not gen_matrix.columns:
                    continue
                for cell in positive_cells(gen_matrix):
                    key = (spec.sensor, cell.concept, cell.properties,
                           cell.stage, cell.stage_property)
                    if key not in seen_positives:
                        seen_positives.add(key)
                        positives.append((spec.sensor, cell))
                cells = worst_case_filter(gen_matrix, threshold)
                if not cells:
                    continue
                for condition in synthesize_conditions(cells, bundle, spec,
                                                       templates, ontology, warnings):
                    if condition.id in seen_ids:
                        raise ToolkitError(E.DUPLICATE_NAME,
                                           f"condition id collision on {condition.id}")
                    seen_ids.add(condition.id)
                    conditions.append(condition)

    conditions.sort(key=_condition_order)
    return Catalog(vehicle=suite.vehicle, threshold=threshold,
                   bundle_limit=bundle_limit, conditions=tuple(conditions),
                   positives=tuple(positives), warnings=tuple(warnings))


def _rule_demands(kb: EffectKnowledgeBase, threshold: int
                  ) -> tuple[frozenset[tuple], frozenset[str], frozenset[str]]:
    """What a relation must touch to change the catalog.

    A bundle holding a relation that touches none of these yields no
    condition, and its beneficial cells are those of the same bundle without
    that relation, which is enumerated earlier:

    - conditions need every relation matched by the context of a rule at or
      beyond the threshold (see ``synthesize_conditions``);
    - a beneficial cell changes only through the context of a rule sharing
      its cell key, a row of the rule's concept, or a column of its stage.

    Returns the keys of those contexts (see ``RelationContext.key``), the
    concepts of beneficial rules and the stages of beneficial rules.
    """
    beneficial = [rule for rule in kb.rules if rule.degree > 0]
    beneficial_cells = {rule.cell_key for rule in beneficial}
    contexts = frozenset(rule.context.key() for rule in kb.rules
                         if rule.context is not None
                         and (rule.degree <= -threshold
                              or rule.cell_key in beneficial_cells))
    return (contexts, frozenset(rule.concept for rule in beneficial),
            frozenset(rule.stage for rule in beneficial))


def _condition_order(condition: TriggeringCondition) -> tuple:
    # Stable w.r.t. synthesis order within a (row, stage) group, so template
    # variant order and base-before-distance pairing survive the global sort.
    return (condition.sensor,
            condition.sources[0],
            len(condition.relationships),
            ";".join(r.form.label + "(" + r.focal + "," + r.partner + ")"
                     for r in condition.relationships),
            condition.property_owner != condition.sources[0],
            condition.property_owner,
            condition.property_key,
            STAGE_ORDER[condition.stage])

"""End-to-end catalog generation.

For every declared sensor and every ontology concept, relationship bundles up
to the configured size are enumerated from the compatibility matrix, a
generation matrix is built per bundle that can change the catalog,
worst-case cells are filtered, and conditions are synthesized. The empty
bundle (the source considered on its own) is built whenever it reaches one
of the sensor's declared stages; a bundle that reaches none produces nothing.

Bundles combine only the candidate relations an effect rule can use (see
``_rule_demands``). A bundle holding any other relation cannot yield a
condition, because every relation of a condition must be demanded by a
worst-case rule's context, and its beneficial cells are those of the same
bundle without that relation, which comes earlier in the smallest-first
order. Skipping such bundles therefore leaves conditions, warnings and
beneficial cells unchanged.

A non-empty bundle of usable relations is skipped too, unless one of two
necessary tests passes (``_may_change``). Below, S is the set of stages the
bundle reaches on the sensor, and its concepts are the source and the
partners of its regular relations:

- *condition*: for some concept of the bundle, a (properties, stage) group
  with its stage in S has, for every relation of the bundle, a rule at or
  beyond the threshold whose context matches that relation.
  ``synthesize_conditions`` emits a group only when every relation matches
  the context of one of its worst-case cells, and each cell's rule is one
  of the group's rules. Warnings come only from groups that emit.
- *beneficial*: some cell not yet reported for the sensor has its stage in
  S and its row in the matrix (a source row always; a partner row when
  each of its properties has a category the bundle's relations to that
  partner perturb), and the first of the cell's ranked rules that the
  bundle satisfies is positive.

A bundle failing both adds no condition, warning or beneficial cell, so its
matrix is not built. The rule indexes the tests read are compiled once per
run (``_rule_demands``), and what a relation matches once per source
(``_Candidate``), so each bundle costs a few set lookups.

Ordering is canonical and total, so repeated runs over the same inputs emit
byte-identical catalogs.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import AbstractSet, Sequence

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
from .ontology import SENSOR_TARGET, SourceConcept, SourceOntology, legal_categories
from .perception import STAGE_ORDER, PerceptionSystemSpec, SensorSuite, affected_stages
from .relationships import (
    CompatibilityMatrix,
    RelationshipBundle,
    RelationshipInstance,
    _instance_from_entry,
    compose_bundle,
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


def candidate_relations(source: SourceConcept, matrix: CompatibilityMatrix,
                        ontology: SourceOntology) -> list[RelationshipInstance]:
    """Every single relation the matrix permits around ``source`` as focal,
    plus relations that cover or obstruct the sensor with ``source`` as the
    covering partner. Canonically ordered.

    Each pair is resolved once. A form whose perturbed categories ``source``
    cannot hold is skipped (``instantiate_relationship`` would reject it)."""
    candidates: list[RelationshipInstance] = []
    entry = matrix.resolve(SENSOR_TARGET, None, source.name, source.kind)
    if entry is not None:
        candidates += [_instance_from_entry(form, SENSOR_TARGET, source.name, entry)
                       for form in entry.forms]
    legal = legal_categories(source.kind)
    for partner_name in ontology.names():
        if partner_name == source.name:
            continue
        partner = ontology.get(partner_name)
        entry = matrix.resolve(source.name, source.kind, partner.name, partner.kind)
        if entry is None:
            continue
        for form in entry.forms:
            rel = _instance_from_entry(form, source.name, partner.name, entry)
            if rel.perturbed <= legal:
                candidates.append(rel)
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

    contexts, positive_concepts, positive_stages, worst, beneficial = \
        _rule_demands(kb, threshold)
    # per source: each candidate relation with what the tests need of it
    per_source: dict[str, list[_Candidate]] = {}

    for spec in specs:
        for name in ontology.names():
            source = ontology.get(name)
            if name not in per_source:
                per_source[name] = [
                    _Candidate(rel, ontology, contexts, positive_concepts)
                    for rel in candidate_relations(source, matrix, ontology)]
            # R4 and R5 act per relation, so a bundle reaches the bare stages
            # plus those each of its relations adds
            bare = affected_stages(source, (), spec, ontology)
            relevant = []
            for candidate in per_source[name]:
                adds = affected_stages(source, (candidate.rel,), spec, ontology) - bare
                if candidate.needed or positive_stages & adds:
                    relevant.append((candidate, adds))
            bundles = enumerate_bundles(source, [c.rel for c, _adds in relevant],
                                        bundle_limit)
            # bundle i holds combination i of ``relevant``, smallest first
            chosen = chain([()], *(combinations(relevant, size)
                                   for size in range(1, bundle_limit + 1)))
            for bundle, picked in zip(bundles, chosen, strict=True):
                stages = bare.union(*(adds for _c, adds in picked))
                if not stages or picked and not _may_change(
                        name, [c for c, _adds in picked], stages, spec.sensor,
                        worst, beneficial, seen_positives):
                    continue
                gen_matrix = build_matrix(bundle, spec, kb, ontology)
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


def _rule_demands(kb: EffectKnowledgeBase, threshold: int) -> tuple:
    """What a relation must touch to change the catalog, compiled in one pass.

    A bundle holding a relation that touches none of these yields no
    condition, and its beneficial cells are those of the same bundle without
    that relation, which is enumerated earlier:

    - conditions need every relation matched by the context of a rule at or
      beyond the threshold (see ``synthesize_conditions``);
    - a beneficial cell changes only through the context of a rule sharing
      its cell key, a row of the rule's concept, or a column of its stage.

    Returns the keys of those contexts (see ``RelationContext.key``), the
    concepts and the stages of beneficial rules, the worst-case groups
    (concept -> context key -> (properties, stage)) that ``_may_change``
    tests a bundle's relations against, and the beneficial-capable cells by
    concept: (properties, stage, quality, context keys of the non-positive
    rules, context keys of the positive rules), ``None`` standing for no
    context. A cell is capable when it has a positive rule and no
    context-free non-positive one, which would always outrank it.
    """
    worst: dict[str, dict[tuple, set[tuple[tuple[str, ...], str]]]] = {}
    signs: dict[tuple, tuple[set, set]] = {}  # cell key -> (keys of rules <= 0, > 0)
    for rule in kb.rules:
        key = None if rule.context is None else rule.context.key()
        signs.setdefault(rule.cell_key, (set(), set()))[rule.degree > 0].add(key)
        if key is not None and rule.degree <= -threshold:
            worst.setdefault(rule.concept, {}).setdefault(key, set()).add(
                (rule.properties, rule.stage))
    cells = {cell: keys for cell, keys in signs.items() if keys[1]}
    contexts = frozenset(chain(*(by_key.keys() for by_key in worst.values()),
                               *(low | high for low, high in cells.values()))) - {None}
    beneficial: dict[str, list[tuple]] = {}
    for (concept, props, stage, quality), (low, high) in cells.items():
        if None not in low:
            beneficial.setdefault(concept, []).append(
                (props, stage, quality, frozenset(low), frozenset(high)))
    return (contexts, frozenset(cell[0] for cell in cells),
            frozenset(cell[2] for cell in cells), worst, beneficial)


class _Candidate:
    """A candidate relation of one source with what the bundle tests read of
    it, built once per source and shared by every sensor: whether any rule
    can use it (``needed``, see ``_rule_demands``), the rule context keys
    that match it, and the partner whose rows it can add. It caches tuples
    of strings only, no sets or dicts: containers that outlive the pass push
    the cyclic collector into an extra full collection later in the process.
    """

    __slots__ = ("rel", "partner", "keys", "needed", "_ontology", "_props")

    def __init__(self, rel: RelationshipInstance, ontology: SourceOntology,
                 contexts: frozenset[tuple], positive_concepts: frozenset[str]):
        self.rel, self._ontology = rel, ontology
        self.partner = None if rel.targets_sensor() else rel.partner
        self.keys = tuple(key for key in relation_context_keys(rel, ontology)
                          if key in contexts)
        self.needed = bool(self.keys) or self.partner in positive_concepts
        self._props: tuple[str, ...] | None = None

    def props(self) -> tuple[str, ...]:
        """The partner's properties whose rows the relation adds to a matrix."""
        if self._props is None:
            partner = self._ontology.get(self.partner)
            self._props = () if partner is None else tuple(
                p for p in partner.property_names()
                if partner.categories_of(p) & self.rel.perturbed)
        return self._props

    def groups(self, concept: str, worst: dict) -> AbstractSet[tuple]:
        """``concept``'s worst-case groups with a rule whose context matches
        the relation."""
        by_key = worst.get(concept, {})
        matched = [by_key[key] for key in self.keys if key in by_key]
        return matched[0] if len(matched) == 1 else frozenset().union(*matched)


def _may_change(source: str, picked: list[_Candidate], stages: frozenset[str],
                sensor: str, worst: dict, beneficial: dict,
                seen_positives: set[tuple]) -> bool:
    """Whether the matrix of the bundle of ``picked`` relations can add a
    condition or a beneficial cell not seen yet. Both tests are necessary
    (see the module docstring), so a bundle failing them changes nothing."""
    first, rest = picked[0], picked[1:]
    owners: dict[str, tuple[_Candidate, ...]] = {source: ()}  # row concept -> its relations
    for candidate in picked:
        if candidate.partner is not None and candidate.partner != source:
            owners[candidate.partner] = owners.get(candidate.partner, ()) + (candidate,)
    keys = None
    for concept, adding in owners.items():
        groups = first.groups(concept, worst)
        if rest:
            groups = groups.intersection(*(c.groups(concept, worst) for c in rest))
        if groups and any(stage in stages for _props, stage in groups):
            return True
        for props, stage, quality, low, high in beneficial.get(concept, ()):
            if stage not in stages:
                continue
            if keys is None:
                keys = frozenset(chain((None,), *(c.keys for c in picked)))
            if not keys.isdisjoint(low) or keys.isdisjoint(high) \
                    or (sensor, concept, props, stage, quality) in seen_positives:
                continue  # a non-positive rule wins, none applies, or seen
            if concept == source \
                    or set(chain(*(c.props() for c in adding))).issuperset(props):
                return True
    return False


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

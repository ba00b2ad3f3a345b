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
matrix is not built.

Work that does not depend on the bundle is done once, outside the bundle
loop. Per run: the rule indexes the tests read (``_rule_demands``) and each
concept's context-key sides (``context_sides``). Per source: the candidate
relations and what each matches (``_Candidate``), shared by every sensor.
Per (sensor, source): the candidate list is validated and put in canonical
order once (``enumerate_bundles``), the stages the source reaches on its own
are mapped once (R1-R3), and each candidate's added stages come from the
per-relation rules R4 and R5 (``relation_stages``). A bundle then reaches
the union of those stages, and its tests cost a few set lookups.

Sources are walked outermost so that their candidates live for one source
only; each sensor keeps its own conditions, beneficial cells and warnings,
and these are joined in sensor order, as if each sensor ran over every
source in turn.

Ordering is canonical and total, so repeated runs over the same inputs emit
byte-identical catalogs.
"""
from __future__ import annotations

from itertools import chain, combinations
from typing import AbstractSet, NamedTuple, Sequence

from . import errors as E
from .errors import ToolkitError
from .generation import (
    EffectEntry,
    EffectKnowledgeBase,
    TriggeringCondition,
    build_matrix,
    context_sides,
    positive_cells,
    relation_context_keys,
    synthesize_conditions,
    worst_case_filter,
)
from .ontology import SENSOR_TARGET, SourceConcept, SourceOntology, legal_categories
from .perception import (
    STAGE_ORDER,
    SensorSuite,
    affected_stages,
    relation_stages,
)
from .relationships import (
    CompatibilityMatrix,
    RelationshipBundle,
    RelationshipInstance,
    _instance_from_entry,
    bundle_signature,
    compose_bundle,
)
from .templates import TemplateSet

__all__ = [
    "Catalog",
    "candidate_relations",
    "enumerate_bundles",
    "generate_catalog",
]


class Catalog(NamedTuple):
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
    cannot hold is skipped, and so is ``source`` paired with itself."""
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
    """The empty bundle plus every combination of the candidates up to
    ``limit``, smallest first.

    The candidates are validated and canonicalised once, by ``compose_bundle``
    (``MixedFocal`` for a relation around another focal): duplicates collapse
    to one and the rest are put in canonical order. Each combination of the
    canonical relations is then already a canonical bundle. For canonical
    candidates, as ``candidate_relations`` returns them, bundle i holds
    combination i of ``candidates``."""
    if type(limit) is not int or limit < 0:  # not a bool or float
        raise ToolkitError(E.INVALID_VALUE,
                           f"bundle limit must be an integer >= 0, got {limit!r}")
    relations = compose_bundle(source, candidates).relations
    bundles: list[RelationshipBundle] = [RelationshipBundle(source=source.name)]
    for size in range(1, min(limit, len(relations)) + 1):
        bundles += [RelationshipBundle(source.name, chosen)
                    for chosen in combinations(relations, size)]
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
    specs = suite.sensors if sensors is None \
        else [suite.get(name) for name in dict.fromkeys(sensors)]

    conditions: list[TriggeringCondition] = []
    # per sensor: its beneficial cells and its warnings
    found: list[tuple[list, list[str]]] = [([], []) for _spec in specs]
    seen_ids: set[str] = set()
    seen_positives: set[tuple] = set()

    contexts, positive_concepts, positive_stages, worst, beneficial = \
        _rule_demands(kb, threshold)
    sides = context_sides(ontology)

    for name in ontology.names():
        source = ontology.get(name)
        # each candidate relation with what the tests need of it, shared by
        # every sensor
        candidates = [_Candidate(rel, name, sides, ontology, contexts,
                                 positive_concepts, worst)
                      for rel in candidate_relations(source, matrix, ontology)]
        for spec, (positives, warnings) in zip(specs, found):
            # a bundle reaches the source's own stages plus those each of
            # its relations adds (R4 and R5 act per relation)
            bare = affected_stages(source, (), spec, ontology)
            relevant, added = [], []  # the usable candidates, the stages each adds
            for candidate in candidates:
                adds = relation_stages(source, candidate.rel, spec, ontology) - bare
                if candidate.needed or not positive_stages.isdisjoint(adds):
                    relevant.append(candidate)
                    added.append(adds)
            bundles = enumerate_bundles(source, [c.rel for c in relevant], bundle_limit)
            # bundle i holds combination i of ``relevant``, smallest first
            sizes = range(1, min(bundle_limit, len(relevant)) + 1)
            chosen = chain([()], *(combinations(relevant, size) for size in sizes))
            adding = chain([()], *(combinations(added, size) for size in sizes))
            for bundle, picked, adds in zip(bundles, chosen, adding, strict=True):
                stages = bare.union(*adds)
                if not stages or picked and not _may_change(
                        name, picked, stages, spec.sensor, beneficial, seen_positives):
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

    # the sensor leads the stable sort, so each sensor's conditions keep
    # the order they were found in
    conditions.sort(key=_condition_order)
    return Catalog(vehicle=suite.vehicle, threshold=threshold,
                   bundle_limit=bundle_limit, conditions=tuple(conditions),
                   positives=tuple(chain.from_iterable(p for p, _w in found)),
                   warnings=tuple(chain.from_iterable(w for _p, w in found)))


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
    that match it, the partner whose rows it can add, and the worst-case
    groups its rules match on the rows it brings (the source's and the
    partner's). The groups are sets of ``_rule_demands``'s index, so building
    a candidate copies none unless several of its keys match one concept;
    candidates live for one source only.
    """

    __slots__ = ("rel", "source", "partner", "keys", "needed", "own_groups",
                 "partner_groups", "_ontology", "_worst", "_props")

    def __init__(self, rel: RelationshipInstance, source: str, sides: dict[str, tuple],
                 ontology: SourceOntology, contexts: frozenset[tuple],
                 positive_concepts: frozenset[str], worst: dict):
        self.rel, self.source, self._ontology, self._worst = rel, source, ontology, worst
        self.partner = None if rel.targets_sensor() else rel.partner
        self.keys = tuple(filter(contexts.__contains__,
                                 relation_context_keys(rel, sides)))
        self.needed = bool(self.keys) or self.partner in positive_concepts
        self.own_groups = self._match(source)
        self.partner_groups = _NO_GROUPS if self.partner is None \
            else self._match(self.partner)
        self._props: tuple[str, ...] | None = None

    def props(self) -> tuple[str, ...]:
        """The partner's properties whose rows the relation adds to a matrix."""
        if self._props is None:
            partner = self._ontology.get(self.partner)
            self._props = () if partner is None else partner.properties_in(self.rel.perturbed)
        return self._props

    def groups(self, concept: str) -> AbstractSet[tuple]:
        """``concept``'s worst-case groups with a rule whose context matches
        the relation."""
        if concept == self.source:
            return self.own_groups
        if concept == self.partner:
            return self.partner_groups
        return self._match(concept)

    def _match(self, concept: str) -> AbstractSet[tuple]:
        by_key = self._worst.get(concept, _NO_GROUPS)
        matched = [by_key[key] for key in self.keys if key in by_key]
        return matched[0] if len(matched) == 1 else _NO_GROUPS.union(*matched)


_NO_GROUPS: frozenset = frozenset()


def _may_change(source: str, picked: tuple[_Candidate, ...], stages: frozenset[str],
                sensor: str, beneficial: dict, seen_positives: set[tuple]) -> bool:
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
        groups = first.groups(concept)
        if rest:
            groups = groups.intersection(*(c.groups(concept) for c in rest))
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
            bundle_signature(condition.relationships),
            condition.property_owner != condition.sources[0],
            condition.property_owner,
            condition.property_key,
            STAGE_ORDER[condition.stage])

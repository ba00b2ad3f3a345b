"""End-to-end catalog generation.

For every declared sensor and every ontology concept, relationship bundles up
to the configured size are grown from the compatibility matrix, a generation
matrix is built per bundle that can change the catalog, worst-case cells are
filtered, and conditions are synthesized. The empty bundle (the source
considered on its own) is built whenever it reaches one of the sensor's
declared stages; a bundle that reaches none produces nothing.

A non-empty bundle is built only if one of two necessary tests passes
(``_may_change``). Below, S is the set of stages the bundle reaches on the
sensor, and its concepts are the source and the partners of its regular
relations:

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

Bundles are grown level by level, as in Apriori (Agrawal and Srikant, 1994),
so that most bundles that would fail are never formed. ``_rule_demands``
gives each worst-case group and each beneficial-capable cell a bit, and each
candidate relation a mask (``_Candidate``): the groups it has a matching rule
for, and the cells it helps make positive without its contexts making them
non-positive. A relation helps a cell when it adds the cell's partner row, a
stage or a positive rule's context. A bundle passes the beneficial test on a
cell only if each of its relations helps it: without one of them, the
smaller bundle, tested earlier, would have had the cell positive and
reported it. So both tests need a bit that every relation's mask holds, and
``enumerate_bundles`` extends a bundle by a later relation only while the AND
of their masks is non-zero. The AND only loses bits as relations are added,
so no bundle left unformed could pass. The masks are kept to the rows and
stages the (sensor, source) can reach and to cells not yet reported, and the
tests read the AND a bundle carries.

Work that does not depend on the bundle is done once. Per run: the bit index
(``_rule_demands``) with the shapes of its rules' contexts, each concept's
context-key sides (``context_sides``) and the matrix entries split by pattern
shape (``CompatibilityMatrix.around``). Per source, for every sensor: the
candidates, distinct and canonical, from the entries around the source alone;
their masks, from the keys of those shapes alone; and the rule each adds
stages by (``relation_rule``): R4 or none, as a candidate's focal is the
source or the sensor, and R5 needs an interactive focal for another source.
Per (sensor, source): the source's own stages (R1-R3) and each rule's are
mapped once, a bundle reaches their union, and ``build_matrix`` takes it
from it. A ``RelationshipBundle`` of the picked candidates is made only when
a matrix is built.

Bundles are visited smallest first, then in the order of their candidates,
as combinations of the candidates would be, because the beneficial test and
the order of the reported cells depend on that order. Sources are walked
outermost so that their candidates live for one source only; each sensor
keeps its own conditions, beneficial cells and warnings, and these are
joined in sensor order, as if each sensor ran over every source in turn.

Ordering is canonical and total, so repeated runs over the same inputs emit
byte-identical catalogs.
"""
from __future__ import annotations

from itertools import chain
from typing import AbstractSet, NamedTuple, Sequence

from . import errors as E
from .errors import DiagnosticSink, ToolkitError
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
    relation_rule,
    rule_stages,
)
from .relationships import (
    CompatibilityMatrix,
    RelationshipBundle,
    RelationshipInstance,
    _instance_from_entry,
    bundle_signature,
)
from .templates import TemplateSet, split_signature

__all__ = [
    "Catalog",
    "candidate_relations",
    "cross_validate_template_bundles",
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

    A partner gets the most specific of the entries around ``source``, so
    only the partners they name or whose kind they name are visited. A form
    whose perturbed categories ``source`` cannot hold is skipped, and so is
    ``source`` paired with itself."""
    candidates: list[RelationshipInstance] = []
    entry = matrix.resolve(SENSOR_TARGET, None, source.name, source.kind)
    if entry is not None:
        candidates += [_instance_from_entry(form, SENSOR_TARGET, source.name, entry)
                       for form in entry.forms]
    resolved = {}  # partner name -> its most specific entry, set least specific first
    for table in reversed(matrix.around(source.name, source.kind)):
        for (partner, kind), entry in table.items():  # kind patterns first
            resolved.update(dict.fromkeys(
                ontology.names_by_kind[kind] if partner is None else (partner,), entry))
    legal = legal_categories(source.kind)
    for partner, entry in resolved.items():
        if partner != source.name and ontology.get(partner) is not None:
            candidates += [rel for form in entry.forms if (rel := _instance_from_entry(
                form, source.name, partner, entry)).perturbed <= legal]
    candidates.sort(key=lambda r: r.sort_key())
    return candidates


def cross_validate_template_bundles(templates: TemplateSet, matrix: CompatibilityMatrix,
                                    ontology: SourceOntology, sink: DiagnosticSink) -> None:
    """Every template must be able to match a bundle ``generate`` builds.

    A template's relations share one source, the focal of a regular relation
    or the partner of a ``Sensor`` one, and each is one of that source's
    ``candidate_relations``; its concept is the source or the partner of one
    of its regular relations. Either failure is ``IncompatiblePair``. The
    templates must name known concepts (``cross_validate_templates``)."""
    candidates: dict[str, set[tuple]] = {}  # source -> its candidates' sort keys
    for key in templates.entries:
        signature, concept = key[0], key[1]
        parts = split_signature(signature)
        if not parts:
            continue
        where = f"template ({signature}, {concept}, {key[2]}, {key[3]})"
        source = parts[0][2] if parts[0][1] == SENSOR_TARGET else parts[0][1]
        if source not in candidates:
            found = ontology.get(source)  # None for Sensor(Sensor), which nothing grants
            candidates[source] = set() if found is None else {
                rel.sort_key() for rel in candidate_relations(found, matrix, ontology)}
        for form_label, focal, partner in parts:
            if (form_label, focal, partner) not in candidates[source]:
                sink.error(E.INCOMPATIBLE_PAIR, f"{where}: {form_label}({focal},{partner}) "
                                                f"is not a candidate relation of {source!r}")
        if concept != source and not any(focal == source and partner == concept
                                          for _form, focal, partner in parts):
            sink.error(E.INCOMPATIBLE_PAIR, f"{where}: concept {concept!r} is neither "
                                            f"{source!r} nor a partner of its relations")


def enumerate_bundles(masks: Sequence[int], limit: int) -> list[tuple[tuple[int, ...], int]]:
    """The bundles of up to ``limit`` candidates, one mask each, grown level
    by level: (candidate indices, AND of their masks), starting with the
    empty bundle, whose AND is -1, then smallest first and in the order of
    the candidates, as combinations of them would be.

    A bundle is extended by a later candidate only while the AND of its
    candidates' masks is non-zero, so no superset of a bundle whose AND is
    zero is formed, and a candidate whose mask is zero is in no bundle."""
    alive = [i for i, mask in enumerate(masks) if mask]
    level = [((), -1, 0)]  # (indices, AND, first position in ``alive`` to extend by)
    grown = [((), -1)]
    for _size in range(min(limit, len(alive))):
        level = [(picked + (alive[at],), common, at + 1)
                 for picked, shared, start in level
                 for at in range(start, len(alive))
                 if (common := shared & masks[alive[at]])]
        grown += [(picked, common) for picked, common, _start in level]
    return grown


def generate_catalog(ontology: SourceOntology, suite: SensorSuite,
                     matrix: CompatibilityMatrix, kb: EffectKnowledgeBase,
                     templates: TemplateSet, *, threshold: int = 2,
                     bundle_limit: int = 2,
                     sensors: tuple[str, ...] | None = None) -> Catalog:
    """Run the full generation pass over every sensor and source concept.

    ``threshold`` (an integer in [1, 3]) and ``bundle_limit`` (one >= 0) are
    checked first, with the bounds ``catalog_from_doc`` reads them with.
    ``sensors`` restricts the pass to a subset of the suite, each name taken
    once in first-given order; unknown names raise ``UnknownSensor``.
    """
    sink = DiagnosticSink()
    parameters = {"threshold": threshold, "bundle_limit": bundle_limit}
    sink.int_in(parameters, "threshold", 1, 3)
    sink.int_in(parameters, "bundle_limit", 0, None)
    sink.raise_if_errors()
    specs = suite.sensors if sensors is None \
        else [suite.get(name) for name in dict.fromkeys(sensors)]

    conditions: list[TriggeringCondition] = []
    # per sensor: its beneficial cells and its warnings
    found: list[tuple[list, list[str]]] = [([], []) for _spec in specs]
    seen = [0] * len(specs)  # per sensor: the bits of the beneficial cells it reported
    seen_ids: set[str] = set()

    demands = _rule_demands(kb, threshold)
    sides = context_sides(ontology)

    for name in ontology.names():
        source = ontology.get(name)
        # each candidate relation with its masks, shared by every sensor
        candidates = [_Candidate(rel, sides, ontology, demands)
                      for rel in candidate_relations(source, matrix, ontology)]
        rules = [relation_rule(source, c.rel, ontology) for c in candidates]
        own = demands.by_concept.get(name, 0)
        rows = own
        for candidate in candidates:
            rows |= candidate.rows
        for k, (spec, (positives, warnings)) in enumerate(zip(specs, found)):
            # a bundle reaches the source's own stages plus those the rule
            # of each of its relations adds on this sensor
            bare = affected_stages(source, (), spec, ontology)
            adds = {rule: rule_stages(rule, spec) - bare for rule in dict.fromkeys(rules)}
            helps = {rule: demands.stage_bits(stages) for rule, stages in adds.items()}
            # what a bundle of this source can still reach on this sensor
            reach = rows & demands.stage_bits(bare.union(*adds.values())) & ~seen[k]
            masks = [reach & (c.demand | demands.cells & ~c.kills
                              & (c.rows | c.hits | helps[rule]))
                     for c, rule in zip(candidates, rules)]
            for picked, common in enumerate_bundles(masks, bundle_limit):
                stages = bare.union(*(adds[rules[i]] for i in picked))
                if not stages or picked and not _may_change(
                        name, [candidates[i] for i in picked], common, stages, own,
                        demands, seen[k]):
                    continue
                bundle = RelationshipBundle(name, tuple(candidates[i].rel for i in picked))
                gen_matrix = build_matrix(bundle, spec, kb, ontology, stages)
                for cell in positive_cells(gen_matrix):
                    bit = demands.cell_bit[cell[:4]]
                    if not seen[k] & bit:
                        seen[k] |= bit
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


class _Demands(NamedTuple):
    """``_rule_demands``'s index: one bit per worst-case group and per
    beneficial-capable cell, and the bits each context key, concept and stage
    holds. A candidate's or bundle's masks are ORs and ANDs of these."""

    by_key: dict[tuple, tuple[int, int, int]]  # context key -> (groups, kills, hits)
    shapes: tuple[tuple[int, ...], ...]  # each shape of a rule's context, keys to look up
    by_concept: dict[str, int]  # concept -> its groups and cells
    by_stage: dict[str, int]  # stage -> the groups and cells at it
    groups: int  # every group's bit
    cells: int  # every cell's bit
    free_hits: int  # the cells a context-free positive rule fills
    cell_bit: dict[tuple, int]  # (concept, properties, stage, quality) -> its bit
    cell_rows: tuple[tuple[str, tuple[str, ...]], ...]  # cell's bit position -> its row

    def stage_bits(self, stages: AbstractSet[str]) -> int:
        bits = 0
        for stage in stages:
            bits |= self.by_stage.get(stage, 0)
        return bits


def _rule_demands(kb: EffectKnowledgeBase, threshold: int) -> _Demands:
    """What a bundle must hold to change the catalog, compiled in one pass.

    - A condition needs a worst-case group, (concept, properties, stage),
      with a rule at or beyond the threshold for every relation of the
      bundle, whose context matches that relation (see
      ``synthesize_conditions``). A context key's groups are those of its
      rules.
    - A beneficial cell changes only through the context of a rule sharing
      its cell key. A cell is capable when it has a positive rule and no
      context-free non-positive one, which would always outrank it; a key
      kills the cells it has a non-positive rule for and hits those it has
      a positive rule for. A cell with a context-free positive rule is hit
      by every bundle.
    """
    groups: dict[tuple, list] = {}  # (concept, properties, stage) -> its keys
    signs: dict[tuple, tuple[set, set]] = {}  # cell key -> (keys of rules <= 0, > 0)
    for rule in kb.rules:
        key = None if rule.context is None else rule.context.key()
        signs.setdefault(rule.cell_key, (set(), set()))[rule.degree > 0].add(key)
        if key is not None and rule.degree <= -threshold:
            groups.setdefault((rule.concept, rule.properties, rule.stage), []).append(key)
    cells = {cell: keys for cell, keys in signs.items() if keys[1] and None not in keys[0]}
    by_key: dict[tuple, list[int]] = {}
    by_concept: dict[str, int] = {}
    by_stage: dict[str, int] = {}
    free_hits = 0
    for position, (cell, (low, high)) in enumerate(cells.items()):
        bit = 1 << position
        for key in low:
            by_key.setdefault(key, [0, 0, 0])[1] |= bit
        if None in high:
            free_hits |= bit
        else:
            for key in high:
                by_key.setdefault(key, [0, 0, 0])[2] |= bit
    for position, (concept, props, stage) in enumerate(groups, len(cells)):
        bit = 1 << position
        for key in groups[concept, props, stage]:
            by_key.setdefault(key, [0, 0, 0])[0] |= bit
    for position, (concept, props, stage, *_quality) in enumerate(chain(cells, groups)):
        by_concept[concept] = by_concept.get(concept, 0) | 1 << position
        by_stage[stage] = by_stage.get(stage, 0) | 1 << position
    return _Demands(
        by_key={key: tuple(masks) for key, masks in by_key.items()},
        shapes=tuple(dict.fromkeys(r.context.shape() for r in kb.rules if r.context)),
        by_concept=by_concept, by_stage=by_stage,
        groups=(1 << len(cells) + len(groups)) - (1 << len(cells)),
        cells=(1 << len(cells)) - 1, free_hits=free_hits,
        cell_bit={cell: 1 << position for position, cell in enumerate(cells)},
        cell_rows=tuple(cell[:2] for cell in cells))


class _Candidate:
    """A candidate relation of one source with the masks the bundle tests
    read of it, built once per source and shared by every sensor: the
    worst-case groups it has a matching rule for (``demand``), the
    beneficial cells its contexts kill and hit, and the groups and cells of
    its partner, whose rows it can add (``rows``).
    """

    __slots__ = ("rel", "partner", "demand", "kills", "hits", "rows", "_ontology",
                 "_props")

    def __init__(self, rel: RelationshipInstance, sides: dict[str, tuple],
                 ontology: SourceOntology, demands: _Demands):
        self.rel, self._ontology = rel, ontology
        self.partner = None if rel.targets_sensor() else rel.partner
        self.demand = self.kills = self.hits = 0
        for key in relation_context_keys(rel, sides, demands.shapes):
            masks = demands.by_key.get(key)
            if masks is not None:
                self.demand |= masks[0]
                self.kills |= masks[1]
                self.hits |= masks[2]
        self.rows = demands.by_concept.get(self.partner, 0)
        self._props: tuple[str, ...] | None = None

    def props(self) -> tuple[str, ...]:
        """The partner's properties whose rows the relation adds to a matrix."""
        if self._props is None:
            partner = self._ontology.get(self.partner)
            self._props = () if partner is None else partner.properties_in(self.rel.perturbed)
        return self._props


def _may_change(source: str, picked: list[_Candidate], common: int,
                stages: AbstractSet[str], rows: int, demands: _Demands, seen: int) -> bool:
    """Whether the matrix of the bundle of ``picked`` relations can add a
    condition or a beneficial cell not seen yet. ``common`` is the AND of the
    relations' masks, ``stages`` those the bundle reaches and ``rows`` the
    source's groups and cells. Both tests are necessary (see the module
    docstring), so a bundle failing them changes nothing."""
    hits = demands.free_hits
    for candidate in picked:
        rows |= candidate.rows
        hits |= candidate.hits
    common &= rows & demands.stage_bits(stages)  # the bundle's rows and stages
    if common & demands.groups:
        return True
    common &= hits & ~seen
    while common:
        bit = common & -common
        common ^= bit
        concept, props = demands.cell_rows[bit.bit_length() - 1]
        if concept == source or set(chain(*(c.props() for c in picked
                                            if c.partner == concept))).issuperset(props):
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

"""Generation matrix, worst-case filtering, condition synthesis, assessment.

For one analyzed source (with its relationship bundle) and one declared
sensor, the generation matrix crosses source properties against the quality
properties of every affected stage. Cells are graded from an effect knowledge
base whose entries grade the worst-case influence of a property on a stage
quality with a signed degree in [-3, +3]. Only graded cells are stored; a cell
no rule grades reads as 0 ("unassessed") in the dense view. Negative cells at
or beyond the worst-case threshold survive filtering and are grouped per
(property row, stage) into triggering conditions; positive cells are
diagnostics only and never become conditions.

Each condition for a sensing stage also gets a distance-augmented companion:
a marginal target distance compounds any sensing degradation.

Assessment attaches an exposure/criticality pair (E1..E4 x C1..C4); priority
is the product of the two indexes and ranking is descending by (priority,
criticality, exposure) with ids as the final tiebreak. Conditions without a
rating sink to the bottom flagged "unrated".
"""
from __future__ import annotations

import hashlib
from functools import cached_property
from itertools import product
from typing import Iterable, NamedTuple, Sequence

from . import errors as E
from .docio import check_schema
from .errors import DiagnosticSink, ToolkitError
from .naming import display_name, display_property_key, is_identifier
from .ontology import SourceOntology
from .perception import (
    STAGE_BY_NAME,
    STAGE_ORDER,
    PerceptionSystemSpec,
    StagePhase,
    affected_stages,
)
from .relationships import (
    MatrixPattern,
    RelationForm,
    RelationshipBundle,
    RelationshipInstance,
    _form_from_doc,
    _pattern_from_doc,
)

__all__ = [
    "EFFECTS_SCHEMA",
    "RATINGS_SCHEMA",
    "EXPOSURE_LEVELS",
    "CRITICALITY_LEVELS",
    "RelationContext",
    "EffectRule",
    "EffectKnowledgeBase",
    "EffectEntry",
    "GenerationMatrix",
    "AssessmentClass",
    "TriggeringCondition",
    "render_degree",
    "context_sides",
    "relation_context_keys",
    "build_matrix",
    "worst_case_filter",
    "positive_cells",
    "synthesize_conditions",
    "condition_id",
    "assess",
    "rank",
    "effects_from_doc",
    "effects_to_doc",
    "context_to_doc",
    "context_from_doc",
    "ratings_from_doc",
    "rating_from_doc",
]

EFFECTS_SCHEMA = "effect-knowledge@1"
RATINGS_SCHEMA = "condition-ratings@1"

DEGREE_MIN, DEGREE_MAX = -3, 3
FIGURE_MINUS = "−"  # the spaced mark used in rendered matrices


# ---------------------------------------------------------------------------
# Effect degrees
# ---------------------------------------------------------------------------

def _check_degree(degree: int) -> int:
    if not isinstance(degree, int) or isinstance(degree, bool) \
            or not DEGREE_MIN <= degree <= DEGREE_MAX:
        raise ToolkitError(E.INVALID_VALUE,
                           f"effect degree must be an integer in "
                           f"[{DEGREE_MIN}, {DEGREE_MAX}], got {degree!r}")
    return degree


def render_degree(degree: int, *, style: str = "figure") -> str:
    """Render a degree as repeated marks; 0 renders blank.

    ``figure`` uses spaced typographic marks ("− − −", "+ +") as tabular
    sheets print them; ``ascii`` uses plain hyphen-minus/plus runs ("---").
    """
    _check_degree(degree)
    if degree == 0:
        return ""
    mark = ("+" if degree > 0 else (FIGURE_MINUS if style == "figure" else "-"))
    marks = [mark] * abs(degree)
    return " ".join(marks) if style == "figure" else "".join(marks)


# ---------------------------------------------------------------------------
# Effect knowledge base
# ---------------------------------------------------------------------------

class RelationContext(NamedTuple):
    """Restricts a rule to bundles holding a matching relation."""

    form: RelationForm | None = None
    focal: MatrixPattern | None = None
    partner: MatrixPattern | None = None

    def matches(self, rel: RelationshipInstance, ontology: SourceOntology) -> bool:
        if self.form is not None and rel.form != self.form:
            return False
        for pattern, name in ((self.focal, rel.focal), (self.partner, rel.partner)):
            if pattern is not None:
                concept = ontology.get(name)
                if not pattern.matches(name, None if concept is None else concept.kind):
                    return False
        return True

    def satisfied_by(self, bundle: RelationshipBundle, ontology: SourceOntology) -> bool:
        return any(self.matches(rel, ontology) for rel in bundle.relations)

    def key(self) -> tuple:
        """Hashable form of the context, comparable with :func:`relation_context_keys`.
        It holds strings only, so hashing it never calls back into Python."""
        return (None if self.form is None else self.form.label,
                _pattern_key(self.focal), _pattern_key(self.partner))

    def label(self) -> str:
        parts = []
        if self.form is not None:
            parts.append(self.form.label)
        if self.focal is not None:
            parts.append(f"focal={self.focal.label}")
        if self.partner is not None:
            parts.append(f"partner={self.partner.label}")
        return " ".join(parts)


def _pattern_key(pattern: MatrixPattern | None) -> tuple | None:
    if pattern is None:
        return None
    return pattern.name, None if pattern.kind is None else pattern.kind.value


def context_sides(ontology: SourceOntology) -> dict[str, tuple]:
    """Concept name -> each way a context side can match it: unconstrained,
    by the concept's name, or by its kind. Built once per run for
    ``relation_context_keys``."""
    return {concept.name: (None, (concept.name, None), (None, concept.kind.value))
            for concept in ontology.concepts}


def relation_context_keys(rel: RelationshipInstance,
                          sides: dict[str, tuple]) -> list[tuple]:
    """Keys of every context that matches ``rel``, given the ontology's
    ``context_sides``.

    ``context.key()`` is in the result exactly when ``context.matches(rel,
    ontology)``: each of form, focal and partner is either unconstrained or
    pinned to the relation's value (a concept name, or that concept's kind).
    """
    focals = sides.get(rel.focal) or (None, (rel.focal, None))
    partners = sides.get(rel.partner) or (None, (rel.partner, None))
    return list(product((None, rel.form.label), focals, partners))


CellKey = tuple[str, tuple[str, ...], str, str]  # (concept, properties, stage, quality)
RowKey = tuple[str, tuple[str, ...]]  # (concept, property names)


class EffectRule(NamedTuple):
    """One authored worst-case grading in the knowledge base."""

    concept: str
    properties: tuple[str, ...]
    stage: str
    stage_property: str
    degree: int
    principle: str = ""
    worst_case: str = ""
    context: RelationContext | None = None
    source: str = ""

    @property
    def property_key(self) -> str:
        return "/".join(self.properties)

    @property
    def cell_key(self) -> CellKey:
        return (self.concept, self.properties, self.stage, self.stage_property)

    def sort_key(self) -> tuple:
        return (self.concept, self.property_key, STAGE_ORDER[self.stage],
                self.stage_property, self.context.label() if self.context else "")


class _KnowledgeFields(NamedTuple):
    rules: tuple[EffectRule, ...] = ()


class EffectKnowledgeBase(_KnowledgeFields):
    """Authored rules, compiled once into the indexes :func:`build_matrix` reads.

    ``by_row`` maps each (concept, properties) row to its graded columns in
    matrix column order, each with its rules best first: lowest degree, then
    narrowest context, then knowledge-base order. The first of them whose
    context a bundle satisfies (or that has none) fills the cell.
    ``group_rules`` maps a concept to its joint-property rules.
    """

    @cached_property
    def by_row(self) -> dict[RowKey, tuple[tuple[str, str, tuple[EffectRule, ...]], ...]]:
        ranked: dict[RowKey, dict[tuple[str, str], list[EffectRule]]] = {}
        for rule in sorted(self.rules, key=lambda r: (r.degree, -_context_specificity(r))):
            ranked.setdefault((rule.concept, rule.properties), {}) \
                .setdefault((rule.stage, rule.stage_property), []).append(rule)
        return {row: tuple((stage, quality, tuple(rules))
                           for (stage, quality), rules
                           in sorted(columns.items(), key=lambda item: _column_order(*item[0])))
                for row, columns in ranked.items()}

    @cached_property
    def group_rules(self) -> dict[str, tuple[EffectRule, ...]]:
        group_rules: dict[str, list[EffectRule]] = {}
        for rule in self.rules:
            if len(rule.properties) > 1:
                group_rules.setdefault(rule.concept, []).append(rule)
        return {concept: tuple(rules) for concept, rules in group_rules.items()}


def _column_order(stage: str, quality: str) -> tuple[int, int]:
    """Position of a (stage, quality) column in every matrix that has it."""
    return STAGE_ORDER[stage], STAGE_BY_NAME[stage].quality_properties.index(quality)


class EffectEntry(NamedTuple):
    """One matrix cell: a property row's graded influence on a stage quality."""

    concept: str
    properties: tuple[str, ...]
    stage: str
    stage_property: str
    degree: int
    principle: str = ""
    worst_case: str = ""
    context: RelationContext | None = None

    @property
    def property_key(self) -> str:
        return "/".join(self.properties)


class GenerationMatrix(NamedTuple):
    """Property-by-stage-quality grid for one bundle on one sensor."""

    sensor: str
    bundle: RelationshipBundle
    rows: tuple[RowKey, ...]
    columns: tuple[tuple[str, str], ...]  # (stage, quality property)
    graded: tuple[EffectEntry, ...]  # cells a rule fills, row-major

    @property
    def cells(self) -> tuple[EffectEntry, ...]:
        """Dense row-major view, ``len(rows) * len(columns)`` long, built on
        each read; a cell no rule fills is an entry of degree 0."""
        filled = {cell[:4]: cell for cell in self.graded}  # cell key -> cell
        keys = [(*row, *column) for row in self.rows for column in self.columns]
        return tuple(filled.get(key) or EffectEntry(*key, 0) for key in keys)

    def cell(self, row: RowKey, column: tuple[str, str]) -> EffectEntry:
        """The cell at ``row`` and ``column``; ValueError for either off the grid."""
        self.rows.index(row), self.columns.index(column)
        key = (*row, *column)
        return next((cell for cell in self.graded if cell[:4] == key), EffectEntry(*key, 0))


# ---------------------------------------------------------------------------
# Matrix construction
# ---------------------------------------------------------------------------

def _context_specificity(rule: EffectRule) -> int:
    """Order rules of equal degree: a narrower context beats a broader one."""
    if rule.context is None:
        return 0
    score = 1
    if rule.context.form is not None:
        score += 1
    for pattern in (rule.context.focal, rule.context.partner):
        if pattern is not None:
            score += 2 if pattern.name is not None else 1
    return score


def _matrix_rows(bundle: RelationshipBundle, kb: EffectKnowledgeBase,
                 ontology: SourceOntology) -> tuple[RowKey, ...]:
    source = ontology.get(bundle.source)
    rows: dict[RowKey, None] = {(source.name, (p,)): None
                                for p in source.property_names()}
    for rel in bundle.relations:
        partner = None if rel.targets_sensor() else ontology.get(rel.partner)
        if partner is not None:
            for prop in partner.properties_in(rel.perturbed):
                rows[(partner.name, (prop,))] = None
    singles = {(concept, props[0]) for concept, props in rows}
    for concept in dict.fromkeys(concept for concept, _props in rows):
        for rule in kb.group_rules.get(concept, ()):
            if all((concept, p) in singles for p in rule.properties):
                rows[(concept, rule.properties)] = None
    return tuple(sorted(rows, key=lambda r: (0 if r[0] == bundle.source else 1,
                                             r[0], len(r[1]), r[1])))


def build_matrix(bundle: RelationshipBundle, system: PerceptionSystemSpec,
                 kb: EffectKnowledgeBase, ontology: SourceOntology) -> GenerationMatrix:
    """Cross source properties with affected stage qualities for one sensor.

    Rows are the analyzed concept's own properties, partner properties in the
    relations' perturbed categories, and any knowledge-base joint rows whose
    members are all present. Only cells a rule fills are built (``graded``);
    the rest read as degree 0 in the dense ``cells`` view. When several rules
    match one cell, the worst survives; among equally bad rules the narrower
    context wins, then the earlier rule.
    """
    source = ontology.get(bundle.source)
    if source is None:
        raise ToolkitError(E.UNKNOWN_CONCEPT,
                           f"bundle source {bundle.source!r} does not resolve")
    stage_names = sorted(affected_stages(source, bundle.relations, system, ontology),
                         key=lambda s: STAGE_ORDER[s])
    columns = tuple((stage, quality)
                    for stage in stage_names
                    for quality in STAGE_BY_NAME[stage].quality_properties)
    rows = _matrix_rows(bundle, kb, ontology)

    graded: list[EffectEntry] = []
    stages = frozenset(stage_names)
    for concept, props in rows:
        for stage, quality, rules in kb.by_row.get((concept, props), ()):
            if stage not in stages:
                continue
            for rule in rules:
                if rule.context is None or rule.context.satisfied_by(bundle, ontology):
                    graded.append(EffectEntry(concept, props, stage, quality, rule.degree,
                                              rule.principle, rule.worst_case, rule.context))
                    break
    return GenerationMatrix(sensor=system.sensor, bundle=bundle, rows=rows,
                            columns=columns, graded=tuple(graded))


def worst_case_filter(matrix: GenerationMatrix, threshold: int = 2) -> list[EffectEntry]:
    """Keep cells at or beyond the worst-case threshold, in row-major order.

    Only negative degrees qualify; positive cells are diagnostics (see
    :func:`positive_cells`).
    """
    if type(threshold) is not int or not 1 <= threshold <= 3:  # not a bool or float
        raise ToolkitError(E.INVALID_VALUE,
                           f"threshold must be an integer in [1, 3], got {threshold!r}")
    return [cell for cell in matrix.graded if cell.degree <= -threshold]


def positive_cells(matrix: GenerationMatrix) -> list[EffectEntry]:
    """Cells graded as beneficial; reported separately, never synthesized."""
    return [cell for cell in matrix.graded if cell.degree > 0]


# ---------------------------------------------------------------------------
# Triggering conditions
# ---------------------------------------------------------------------------

class _RatingFields(NamedTuple):
    exposure: str  # E1..E4
    criticality: str  # C1..C4


class AssessmentClass(_RatingFields):
    __slots__ = ()

    def __new__(cls, exposure: str, criticality: str):
        if exposure not in EXPOSURE_LEVELS:
            raise ToolkitError(E.INVALID_VALUE, f"unknown exposure {exposure!r}")
        if criticality not in CRITICALITY_LEVELS:
            raise ToolkitError(E.INVALID_VALUE, f"unknown criticality {criticality!r}")
        return super().__new__(cls, exposure, criticality)

    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` builds through here

    @property
    def exposure_index(self) -> int:
        return int(self.exposure[1])

    @property
    def criticality_index(self) -> int:
        return int(self.criticality[1])

    @property
    def priority(self) -> int:
        return self.exposure_index * self.criticality_index


EXPOSURE_LEVELS = ("E1", "E2", "E3", "E4")
CRITICALITY_LEVELS = ("C1", "C2", "C3", "C4")


class TriggeringCondition(NamedTuple):
    """One synthesized worst-case condition for a catalog."""

    id: str
    sensor: str
    sources: tuple[str, ...]  # analyzed source first
    relationships: tuple[RelationshipInstance, ...]
    property_owner: str
    properties: tuple[str, ...]
    stage: str
    effects: tuple[EffectEntry, ...]
    degree: int
    description: str
    distance_augmented: bool = False
    variant: str = "default"
    templated: bool = True
    assessment: AssessmentClass | None = None

    @property
    def priority(self) -> int | None:
        """The assessment's priority; None while unrated."""
        return None if self.assessment is None else self.assessment.priority

    @property
    def property_key(self) -> str:
        return "/".join(self.properties)

    def sources_rendered(self) -> str:
        regular = [r for r in self.relationships if not r.targets_sensor()]
        if not regular:
            return display_name(self.sources[0])
        return " + ".join(r.render() for r in regular)

    def stage_rendered(self) -> str:
        prefix = "S.-" if STAGE_BY_NAME[self.stage].phase is StagePhase.SENSING else "R.-"
        return prefix + display_name(self.stage)

    def properties_rendered(self) -> str:
        return display_property_key(self.properties)

    def rating_label(self) -> str:
        if self.assessment is None:
            return "unrated"
        return f"{self.assessment.exposure}/{self.assessment.criticality}"


def condition_id(sensor: str, bundle_source: str, relation_signature: str,
                 property_owner: str, property_key: str, stage: str,
                 variant: str, distance: bool) -> str:
    payload = "|".join([sensor, bundle_source, relation_signature, property_owner,
                        property_key, stage, variant, "D" if distance else "B"])
    return "c" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _bundle_sources(bundle: RelationshipBundle) -> tuple[str, ...]:
    names: dict[str, None] = {bundle.source: None}
    for rel in bundle.relations:
        if not rel.targets_sensor():
            names.setdefault(rel.partner, None)
    return tuple(names)


def _relation_contributes(rel: RelationshipInstance, group: Sequence[EffectEntry],
                          ontology: SourceOntology) -> bool:
    return any(cell.context is not None and cell.context.matches(rel, ontology)
               for cell in group)


def synthesize_conditions(entries: Sequence[EffectEntry], bundle: RelationshipBundle,
                          system: PerceptionSystemSpec, templates,
                          ontology: SourceOntology,
                          warnings: list | None = None) -> list[TriggeringCondition]:
    """Turn filtered matrix cells into catalog conditions.

    Cells are grouped per (property row, stage); every relation in the bundle
    must be demanded by the context of some cell in the group, otherwise the
    group's cells fire identically without that relation, the group belongs
    to a smaller bundle, and it is skipped here. Each matching
    description template variant yields one condition; a missing template
    falls back to a generic wording and reports a warning. Sensing-stage
    conditions additionally get a distance-augmented companion.
    """
    groups: dict[tuple[RowKey, str], list[EffectEntry]] = {}
    for cell in entries:
        groups.setdefault(((cell.concept, cell.properties), cell.stage), []).append(cell)

    relation_signature = bundle.signature()
    sources = _bundle_sources(bundle)
    out: list[TriggeringCondition] = []
    for (row, stage), group in groups.items():
        if not all(_relation_contributes(rel, group, ontology)
                   for rel in bundle.relations):
            continue
        group = sorted(group, key=lambda c: (c.degree, c.stage_property))
        worst = group[0].degree
        concept_name, props = row
        property_key = "/".join(props)
        variants = templates.lookup(relation_signature, concept_name, property_key, stage)
        templated = variants is not None
        if variants is None:
            variants = ((templates.GENERIC_TAG,
                         templates.generic_description(bundle, concept_name, props, stage)),)
            if warnings is not None:
                warnings.append(
                    f"{E.MISSING_TEMPLATE}: no description template for "
                    f"({relation_signature or 'no relations'}, {concept_name}, "
                    f"{property_key}, {stage}); generic wording used")
        distances = (False, True) if STAGE_BY_NAME[stage].phase is StagePhase.SENSING \
            else (False,)
        effects = tuple(group)
        for tag, text in variants:
            for distance in distances:
                out.append(TriggeringCondition(
                    id=condition_id(system.sensor, bundle.source, relation_signature,
                                    concept_name, property_key, stage, tag, distance),
                    sensor=system.sensor, sources=sources, relationships=bundle.relations,
                    property_owner=concept_name, properties=props, stage=stage,
                    effects=effects, degree=worst,
                    description=text + templates.distance_suffix if distance else text,
                    distance_augmented=distance, variant=tag, templated=templated))
    return out


# ---------------------------------------------------------------------------
# Assessment and ranking
# ---------------------------------------------------------------------------

def assess(condition: TriggeringCondition,
           rating: AssessmentClass) -> TriggeringCondition:
    """Attach an exposure/criticality rating; priority is their index product."""
    return condition._replace(assessment=rating)


def rank(conditions: Iterable[TriggeringCondition]) -> list[TriggeringCondition]:
    """Descending by (priority, criticality, exposure), id as final tiebreak.

    Ties on priority break toward higher criticality, then higher exposure.
    Unassessed conditions keep their relative order at the bottom.
    """
    rated: list[TriggeringCondition] = []
    unrated: list[TriggeringCondition] = []
    for condition in conditions:
        (rated if condition.assessment is not None else unrated).append(condition)
    rated.sort(key=lambda c: (-c.priority, -c.assessment.criticality_index,
                              -c.assessment.exposure_index, c.id))
    return rated + unrated


# ---------------------------------------------------------------------------
# Effect knowledge documents
# ---------------------------------------------------------------------------

def context_to_doc(context: RelationContext) -> dict:
    ctx: dict = {}
    if context.form is not None:
        ctx["relationship"] = context.form.label
    if context.focal is not None:
        ctx["focal"] = context.focal.label
    if context.partner is not None:
        ctx["partner"] = context.partner.label
    return ctx


def context_from_doc(raw: object, where: str, sink: DiagnosticSink) -> RelationContext | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        sink.error(E.INVALID_VALUE, f"{where}: 'context' must be a mapping")
        return None
    form = focal = partner = None
    if raw.get("relationship") is not None:
        form = _form_from_doc(raw["relationship"], where, sink)
        if form is None:
            return None
    if raw.get("focal") is not None:
        focal = _pattern_from_doc(raw["focal"], f"{where}.focal", sink)
    if raw.get("partner") is not None:
        partner = _pattern_from_doc(raw["partner"], f"{where}.partner", sink)
    if form is None and focal is None and partner is None:
        sink.error(E.INVALID_VALUE, f"{where}: empty context")
        return None
    return RelationContext(form=form, focal=focal, partner=partner)


def effects_from_doc(doc: dict, *, source: str = "<document>") -> EffectKnowledgeBase:
    check_schema(doc, EFFECTS_SCHEMA, source=source)
    sink = DiagnosticSink(file=source)
    rules: list[EffectRule] = []
    for where, raw in sink.records(doc, "effects"):
        concept = sink.identifier(raw, "concept", where)
        props = _property_key(raw, where, sink)
        stage = sink.choice(raw, "stage", STAGE_BY_NAME, where, code=E.UNKNOWN_STAGE)
        degree = sink.int_in(raw, "degree", DEGREE_MIN, DEGREE_MAX, where)
        texts = [sink.text(raw, key, where, "")
                 for key in ("principle", "worst_case", "source")]
        if None in (concept, props, stage, degree, *texts):
            continue
        quality = _stage_property(raw, stage, where, sink)
        if quality is None:
            continue
        if degree == 0:
            sink.error(E.INVALID_VALUE,
                       f"{where}: degree 0 means unassessed and cannot be authored")
            continue
        context = context_from_doc(raw.get("context"), where, sink)
        principle, worst_case, rule_source = texts
        rules.append(EffectRule(
            concept=concept, properties=props, stage=stage.name, stage_property=quality,
            degree=degree, principle=principle, worst_case=worst_case, context=context,
            source=rule_source,
        ))
    sink.raise_if_errors()
    rules.sort(key=lambda r: r.sort_key())
    return EffectKnowledgeBase(rules=tuple(rules))


def _property_key(raw: dict, where: str, sink: DiagnosticSink) -> tuple[str, ...] | None:
    """The ``property`` field: one or more distinct identifiers joined by '/'."""
    key = sink.text(raw, "property", where)
    if key is None:
        return None
    props = tuple(key.split("/"))
    if not all(is_identifier(p) for p in props) or len(set(props)) != len(props):
        sink.error(E.INVALID_IDENTIFIER, f"{where}: property key {key!r} is invalid")
        return None
    return props


def _stage_property(raw: dict, stage, where: str, sink: DiagnosticSink) -> str | None:
    """The ``stage_property`` field: a quality property of the stage ``stage``."""
    quality = raw.get("stage_property")
    if quality in stage.quality_properties:
        return quality
    sink.error(E.UNKNOWN_STAGE_PROPERTY,
               f"{where}: {quality!r} is not a quality property of {stage.name}")
    return None


def effects_to_doc(kb: EffectKnowledgeBase) -> dict:
    entries = []
    for rule in sorted(kb.rules, key=lambda r: r.sort_key()):
        raw: dict = {
            "concept": rule.concept,
            "property": rule.property_key,
            "stage": rule.stage,
            "stage_property": rule.stage_property,
            "degree": rule.degree,
        }
        if rule.principle:
            raw["principle"] = rule.principle
        if rule.worst_case:
            raw["worst_case"] = rule.worst_case
        if rule.context is not None:
            raw["context"] = context_to_doc(rule.context)
        if rule.source:
            raw["source"] = rule.source
        entries.append(raw)
    return {"schema": EFFECTS_SCHEMA, "effects": entries}


def cross_validate_effects(kb: EffectKnowledgeBase, ontology: SourceOntology,
                           sink: DiagnosticSink) -> None:
    """Rule concepts/properties must belong to the ontology."""
    for rule in kb.rules:
        concept = ontology.get(rule.concept)
        if concept is None:
            sink.error(E.UNKNOWN_CONCEPT,
                       f"effect rule names unknown concept {rule.concept!r}")
            continue
        owned = set(concept.property_names())
        for prop in rule.properties:
            if prop not in owned:
                sink.error(E.UNKNOWN_PROPERTY,
                           f"effect rule: {rule.concept!r} has no property {prop!r}")


# ---------------------------------------------------------------------------
# Ratings documents
# ---------------------------------------------------------------------------

def ratings_from_doc(doc: dict, *, source: str = "<document>") -> dict[str, AssessmentClass]:
    check_schema(doc, RATINGS_SCHEMA, source=source)
    sink = DiagnosticSink(file=source)
    out: dict[str, AssessmentClass] = {}
    ids: set[str] = set()
    for where, raw in sink.records(doc, "ratings"):
        cid = sink.text(raw, "condition", where)
        rating = rating_from_doc(raw, where, sink)
        if None not in (cid, rating) and sink.first(ids, cid, where, "rating for"):
            out[cid] = rating
    sink.raise_if_errors()
    return out


def rating_from_doc(raw: dict, where: str, sink: DiagnosticSink) -> AssessmentClass | None:
    """The exposure/criticality pair in ``raw``."""
    exposure = sink.choice(raw, "exposure", EXPOSURE_LEVELS, where, code=E.UNKNOWN_RATING)
    criticality = sink.choice(raw, "criticality", CRITICALITY_LEVELS, where,
                              code=E.UNKNOWN_RATING)
    return None if None in (exposure, criticality) else AssessmentClass(exposure, criticality)

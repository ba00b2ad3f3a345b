"""Ontology of triggering sources.

Triggering sources come in three kinds: interactive entities the vehicle must
perceive and react to, disturbing entities whose mass and volume are
negligible but which corrupt sensing, and environmental modifications that
alter the medium between sensor and scene. Each concept owns categorized
properties (the levers a worst-case analysis can pull) and example instances.
A concept may refine another concept of the same kind through ``parent``,
forming a forest.

Documents use the ``triggering-sources@1`` schema. The name ``Sensor`` is
reserved for relationship patterns that target the sensor itself and is
rejected as a concept name.
"""
from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import AbstractSet, NamedTuple

from . import errors as E
from .docio import check_schema
from .errors import DiagnosticSink, ToolkitError
from .naming import is_identifier

__all__ = [
    "ConceptKind",
    "PropertyCategory",
    "SourceProperty",
    "SourceConcept",
    "SourceOntology",
    "SENSOR_TARGET",
    "ONTOLOGY_SCHEMA",
    "ENTITY_CATEGORIES",
    "MODIFICATION_CATEGORIES",
    "legal_categories",
    "KIND_BY_NAME",
    "CATEGORY_BY_NAME",
    "ontology_from_doc",
    "ontology_to_doc",
    "lookup_concept",
]

ONTOLOGY_SCHEMA = "triggering-sources@1"

#: Reserved focal name used by compatibility-matrix entries that describe a
#: relation between a triggering source and the perceiving sensor itself.
SENSOR_TARGET = "Sensor"


class ConceptKind(str, Enum):
    INTERACTIVE = "InteractiveEntity"
    DISTURBING = "DisturbingEntity"
    MODIFICATION = "EnvironmentalModification"


class PropertyCategory(str, Enum):
    REFLECTIVITY = "Reflectivity"
    REFLECTION_AREA = "ReflectionArea"
    DATA_GENERATION = "DataGeneration"
    FEATURE_VARIABILITY = "FeatureVariability"
    TRANSMITTANCE = "Transmittance"


ENTITY_CATEGORIES = frozenset({
    PropertyCategory.REFLECTIVITY,
    PropertyCategory.REFLECTION_AREA,
    PropertyCategory.DATA_GENERATION,
    PropertyCategory.FEATURE_VARIABILITY,
})
MODIFICATION_CATEGORIES = frozenset({
    PropertyCategory.REFLECTIVITY,
    PropertyCategory.TRANSMITTANCE,
})


def legal_categories(kind: ConceptKind) -> frozenset[PropertyCategory]:
    if kind is ConceptKind.MODIFICATION:
        return MODIFICATION_CATEGORIES
    return ENTITY_CATEGORIES


class SourceProperty(NamedTuple):
    name: str
    category: PropertyCategory
    note: str = ""


class _ConceptFields(NamedTuple):
    name: str
    kind: ConceptKind
    parent: str | None = None
    properties: tuple[SourceProperty, ...] = ()
    instances: tuple[str, ...] = ()


class SourceConcept(_ConceptFields):
    @cached_property
    def _categories(self) -> dict[str, frozenset[PropertyCategory]]:
        """Property name -> its categories, in first-declared order."""
        grouped: dict[str, set[PropertyCategory]] = {}
        for prop in self.properties:
            grouped.setdefault(prop.name, set()).add(prop.category)
        return {name: frozenset(categories) for name, categories in grouped.items()}

    def property_names(self) -> tuple[str, ...]:
        return tuple(self._categories)

    def categories_of(self, property_name: str) -> frozenset[PropertyCategory]:
        return self._categories.get(property_name, frozenset())

    def properties_in(self, categories: AbstractSet[PropertyCategory]) -> tuple[str, ...]:
        """The properties with a category in ``categories``, in first-declared
        order: the rows a relation perturbing ``categories`` adds."""
        return tuple(name for name, held in self._categories.items() if held & categories)

    def has_category(self, category: PropertyCategory) -> bool:
        return any(p.category is category for p in self.properties)


class _OntologyFields(NamedTuple):
    concepts: tuple[SourceConcept, ...] = ()


class SourceOntology(_OntologyFields):
    @cached_property
    def _by_name(self) -> dict[str, SourceConcept]:
        return {c.name: c for c in self.concepts}

    def get(self, name: str) -> SourceConcept | None:
        return self._by_name.get(name)

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.concepts)

    @cached_property
    def names_by_kind(self) -> dict[ConceptKind, list[str]]:
        return {kind: [c.name for c in self.concepts if c.kind is kind] for kind in ConceptKind}


def lookup_concept(ontology: SourceOntology, name: str) -> SourceConcept:
    concept = ontology.get(name)
    if concept is None:
        raise ToolkitError(E.UNKNOWN_CONCEPT, f"unknown concept {name!r}")
    return concept


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

KIND_BY_NAME = {kind.value: kind for kind in ConceptKind}
CATEGORY_BY_NAME = {category.value: category for category in PropertyCategory}


def ontology_from_doc(doc: dict, *, source: str = "<document>") -> SourceOntology:
    """Validate a parsed ontology document.

    Raises :class:`~trigkit.errors.DocumentError` carrying one diagnostic per
    finding; codes include ``WrongSchema``, ``UnknownKind``, ``UnknownCategory``,
    ``IllegalCategoryForKind``, ``DuplicateName`` and ``DanglingParent``.
    """
    check_schema(doc, ONTOLOGY_SCHEMA, source=source)
    sink = DiagnosticSink(file=source)

    concepts: list[SourceConcept] = []
    names: set[str] = set()
    for where, raw in sink.records(doc, "concepts"):
        concept = _concept_from_doc(raw, where, sink)
        if concept is not None and sink.first(names, concept.name, where, "concept name"):
            concepts.append(concept)

    by_name = {c.name: c for c in concepts}
    for concept in concepts:
        if concept.parent is None:
            continue
        parent = by_name.get(concept.parent)
        if parent is None:
            sink.error(E.DANGLING_PARENT,
                       f"concept {concept.name!r} names unknown parent {concept.parent!r}")
        elif parent.kind is not concept.kind:
            sink.error(E.KIND_MISMATCH,
                       f"concept {concept.name!r} ({concept.kind.value}) cannot refine "
                       f"{parent.name!r} ({parent.kind.value})")
    _check_cycles(concepts, sink)

    sink.raise_if_errors()
    concepts.sort(key=lambda c: c.name)
    return SourceOntology(concepts=tuple(concepts))


def _concept_from_doc(raw: dict, where: str, sink: DiagnosticSink) -> SourceConcept | None:
    name = sink.identifier(raw, "name", where)
    if name == SENSOR_TARGET:
        sink.error(E.RESERVED_NAME, f"{where}: {SENSOR_TARGET!r} is reserved and cannot name a concept")
        return None
    kind = sink.choice(raw, "kind", KIND_BY_NAME, where, code=E.UNKNOWN_KIND)
    parent = sink.identifier(raw, "parent", where, None)
    if name is None or kind is None:
        return None

    properties: list[SourceProperty] = []
    seen_props: set[tuple[str, PropertyCategory]] = set()
    for pwhere, rp in sink.records(raw, "properties", where):
        pname = sink.identifier(rp, "name", pwhere)
        category = sink.choice(rp, "category", CATEGORY_BY_NAME, pwhere,
                               code=E.UNKNOWN_CATEGORY)
        note = sink.text(rp, "note", pwhere, "")
        if None in (pname, category, note):
            continue
        if category not in legal_categories(kind):
            sink.error(E.ILLEGAL_CATEGORY_FOR_KIND,
                       f"{pwhere}: category {category.value} is not allowed for "
                       f"{kind.value} concept {name!r}")
            continue
        if sink.first(seen_props, (pname, category), pwhere, "property",
                      lambda key: f"{key[0]!r} in category {key[1].value}"):
            properties.append(SourceProperty(pname, category, note))

    instances: set[str] = set()
    for inst in sink.collection(raw, "instances", where):
        if not is_identifier(inst):
            sink.error(E.INVALID_IDENTIFIER, f"{where}: instance {inst!r} is invalid")
        else:
            sink.first(instances, inst, where, "instance")

    properties.sort(key=lambda p: (p.name, p.category.value))
    return SourceConcept(name=name, kind=kind, parent=parent,
                         properties=tuple(properties), instances=tuple(sorted(instances)))


def _check_cycles(concepts: list[SourceConcept], sink: DiagnosticSink) -> None:
    by_name = {c.name: c for c in concepts}
    for concept in concepts:
        seen = {concept.name}
        current = concept
        while current.parent is not None:
            nxt = by_name.get(current.parent)
            if nxt is None:
                break
            if nxt.name in seen:
                sink.error(E.TAXONOMY_CYCLE,
                           f"taxonomy cycle through concept {nxt.name!r}")
                return
            seen.add(nxt.name)
            current = nxt


# ---------------------------------------------------------------------------
# Serialization (canonical form: everything sorted by name)
# ---------------------------------------------------------------------------

def ontology_to_doc(ontology: SourceOntology) -> dict:
    concepts = []
    for c in sorted(ontology.concepts, key=lambda c: c.name):
        entry: dict = {"name": c.name, "kind": c.kind.value}
        if c.parent is not None:
            entry["parent"] = c.parent
        props = []
        for p in sorted(c.properties, key=lambda p: (p.name, p.category.value)):
            pd: dict = {"name": p.name, "category": p.category.value}
            if p.note:
                pd["note"] = p.note
            props.append(pd)
        entry["properties"] = props
        entry["instances"] = sorted(c.instances)
        concepts.append(entry)
    return {"schema": ONTOLOGY_SCHEMA, "concepts": concepts}

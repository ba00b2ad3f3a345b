"""Relationships between triggering sources and their compatibility rules.

Four relationship kinds exist: spatial position (overlay/occlusion), surface
treatment (cover/lighten), possession, and cognitive-feature similarity.
Whether a kind applies to a concrete pair of concepts is data: the
compatibility matrix maps (focal pattern, partner pattern) to a set of
permitted forms, where a pattern names either a concept or a whole kind, and
a name pattern always beats a kind pattern. The reserved focal name
``Sensor`` expresses relations that target the perceiving sensor itself
(droplets covering a lens, a bag pressed onto the housing).

Instantiating a relationship fixes which property categories of the focal
concept the partner perturbs; bundles collect the relations acting on one
focal concept and union those categories.
"""
from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import NamedTuple, Sequence

from . import errors as E
from .docio import check_schema
from .errors import DiagnosticSink, ToolkitError
from .naming import display_name, is_identifier
from .ontology import (
    CATEGORY_BY_NAME,
    KIND_BY_NAME,
    SENSOR_TARGET,
    ConceptKind,
    PropertyCategory,
    SourceConcept,
    SourceOntology,
)

__all__ = [
    "RelationshipKind",
    "RelationForm",
    "RELATION_FORMS",
    "DEFAULT_PERTURBED",
    "MatrixPattern",
    "MatrixEntry",
    "CompatibilityMatrix",
    "RelationshipInstance",
    "RelationshipBundle",
    "bundle_signature",
    "MATRIX_SCHEMA",
    "parse_relation_form",
    "compose_bundle",
    "matrix_from_doc",
    "matrix_to_doc",
]

MATRIX_SCHEMA = "compatibility-matrix@1"


class RelationshipKind(str, Enum):
    SPATIAL_POSITION = "SpatialPosition"
    SURFACE_TREATMENT = "SurfaceTreatment"
    POSSESS = "Possess"
    COGNITIVE_FEATURE = "CognitiveFeature"


_SUBKINDS: dict[RelationshipKind, tuple[str, ...]] = {
    RelationshipKind.SPATIAL_POSITION: ("Overlay", "Occlusion"),
    RelationshipKind.SURFACE_TREATMENT: ("Cover", "Lighten"),
    RelationshipKind.POSSESS: (),
    RelationshipKind.COGNITIVE_FEATURE: (),
}


class _FormFields(NamedTuple):
    kind: RelationshipKind
    subkind: str | None = None


class RelationForm(_FormFields):
    """A kind plus subkind, e.g. ``SpatialPosition.Occlusion``; forms order as
    their (kind, subkind) tuples."""

    def __new__(cls, kind: RelationshipKind, subkind: str | None = None):
        subkinds = _SUBKINDS[kind]
        if subkinds and subkind not in subkinds:
            raise ToolkitError(E.UNKNOWN_RELATIONSHIP,
                               f"{kind.value} requires a subkind from {subkinds}")
        if not subkinds and subkind is not None:
            raise ToolkitError(E.UNKNOWN_RELATIONSHIP,
                               f"{kind.value} does not take a subkind")
        return super().__new__(cls, kind, subkind)

    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` builds through here

    @cached_property
    def label(self) -> str:
        """Built once per form; cached outside the fields, so equality, hashing,
        ordering and ``repr`` stay the fields'."""
        return self.kind.value if self.subkind is None else f"{self.kind.value}.{self.subkind}"


def parse_relation_form(label: str) -> RelationForm:
    """``Kind`` or ``Kind.Subkind`` to a form; anything else is ``UnknownRelationship``."""
    try:
        return _FORM_BY_LABEL[label]
    except (KeyError, TypeError):  # not a canonical label, or unhashable
        pass
    # not a legal form: the parts only choose the error RelationForm raises
    kind_part, dot, sub_part = label.partition(".") if isinstance(label, str) else ("", "", "")
    try:
        kind = RelationshipKind(kind_part)
    except ValueError:
        raise ToolkitError(E.UNKNOWN_RELATIONSHIP,
                           f"unknown relationship {label!r}") from None
    return RelationForm(kind, sub_part if dot else None)


#: Every legal form, in canonical order.
RELATION_FORMS: tuple[RelationForm, ...] = tuple(
    RelationForm(kind, sub)
    for kind in RelationshipKind
    for sub in (_SUBKINDS[kind] or (None,))
)
_FORM_BY_LABEL = {form.label: form for form in RELATION_FORMS}

#: Property categories of the focal concept that each kind perturbs unless a
#: matrix entry overrides the set.
DEFAULT_PERTURBED: dict[RelationshipKind, frozenset[PropertyCategory]] = {
    RelationshipKind.SPATIAL_POSITION: frozenset({
        PropertyCategory.REFLECTION_AREA, PropertyCategory.FEATURE_VARIABILITY}),
    RelationshipKind.SURFACE_TREATMENT: frozenset({PropertyCategory.REFLECTIVITY}),
    RelationshipKind.POSSESS: frozenset({PropertyCategory.FEATURE_VARIABILITY}),
    RelationshipKind.COGNITIVE_FEATURE: frozenset({PropertyCategory.FEATURE_VARIABILITY}),
}

_RENDER_VERBS: dict[tuple[RelationshipKind, str | None], str] = {
    (RelationshipKind.SPATIAL_POSITION, "Overlay"): "Overlayedby",
    (RelationshipKind.SPATIAL_POSITION, "Occlusion"): "Occludedby",
    (RelationshipKind.SURFACE_TREATMENT, "Cover"): "Coveredby",
    (RelationshipKind.SURFACE_TREATMENT, "Lighten"): "Lightenedby",
    (RelationshipKind.POSSESS, None): "Possess",
    (RelationshipKind.COGNITIVE_FEATURE, None): "Similarwith",
}


# ---------------------------------------------------------------------------
# Compatibility matrix
# ---------------------------------------------------------------------------

class _PatternFields(NamedTuple):
    name: str | None = None
    kind: ConceptKind | None = None


class MatrixPattern(_PatternFields):
    """Either a concept name, a concept kind, or the reserved sensor target."""

    __slots__ = ()

    def __new__(cls, name: str | None = None, kind: ConceptKind | None = None):
        if (name is None) == (kind is None):
            raise ToolkitError(E.INVALID_VALUE,
                               "pattern must set exactly one of name/kind")
        return super().__new__(cls, name, kind)

    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` builds through here

    @property
    def label(self) -> str:
        return self.name if self.name is not None else f"kind:{self.kind.value}"

    def matches(self, name: str, kind: ConceptKind | None) -> bool:
        if self.name is not None:
            return self.name == name
        return kind is not None and self.kind is kind


class MatrixEntry(NamedTuple):
    focal: MatrixPattern
    partner: MatrixPattern
    forms: tuple[RelationForm, ...]
    # optional per-form perturbed-category override, keyed by form label
    perturbs: tuple[tuple[str, tuple[PropertyCategory, ...]], ...] = ()
    source: str = ""

    def perturbed_for(self, form: RelationForm) -> frozenset[PropertyCategory] | None:
        for label, categories in self.perturbs:
            if label == form.label:
                return frozenset(categories)
        return None


class _MatrixFields(NamedTuple):
    entries: tuple[MatrixEntry, ...] = ()


class CompatibilityMatrix(_MatrixFields):
    """Total over queried pairs: pairs without an entry map to the empty set."""

    def resolve(self, focal_name: str, focal_kind: ConceptKind | None,
                partner_name: str, partner_kind: ConceptKind | None) -> MatrixEntry | None:
        """Most specific entry for the pair; name patterns beat kind patterns,
        the focal side weighing more than the partner side, and the first
        entry wins among equally specific ones."""
        index = self._index
        for key in ((focal_name, None, partner_name, None),
                    (focal_name, None, None, partner_kind),
                    (None, focal_kind, partner_name, None),
                    (None, focal_kind, None, partner_kind)):
            entry = index.get(key)
            if entry is not None:
                return entry
        return None

    @cached_property
    def _index(self) -> dict[tuple, MatrixEntry]:
        """(focal name, focal kind, partner name, partner kind) -> the first
        entry with those patterns; each pattern sets one of its name and kind.
        Cached outside the fields, so equality and ``repr`` stay the entries'."""
        index: dict[tuple, MatrixEntry] = {}
        for entry in self.entries:
            index.setdefault((entry.focal.name, entry.focal.kind,
                              entry.partner.name, entry.partner.kind), entry)
        return index


# ---------------------------------------------------------------------------
# Instances and bundles
# ---------------------------------------------------------------------------

class RelationshipInstance(NamedTuple):
    """A form applied to a concrete (focal, partner) pair.

    ``perturbed`` lists the focal-side property categories the relation can
    disturb. For sensor-targeting relations the focal is the reserved name
    ``Sensor`` and the partner is the triggering source doing the covering.
    """

    form: RelationForm
    focal: str
    partner: str
    perturbed: frozenset[PropertyCategory]
    source: str = ""

    def sort_key(self) -> tuple:
        return (self.form.label, self.focal, self.partner)

    def render(self) -> str:
        verb = _RENDER_VERBS[(self.form.kind, self.form.subkind)]
        return f"{verb}({display_name(self.focal)}, {display_name(self.partner)})"

    def targets_sensor(self) -> bool:
        return self.focal == SENSOR_TARGET


def _instance_from_entry(form: RelationForm, focal: str, partner: str,
                        entry: MatrixEntry) -> RelationshipInstance:
    """``form`` between ``focal`` and ``partner``, as granted by ``entry``:
    it perturbs the entry's override for the form, else the kind's default."""
    perturbed = entry.perturbed_for(form)
    if perturbed is None:
        perturbed = DEFAULT_PERTURBED[form.kind]
    return RelationshipInstance(form=form, focal=focal, partner=partner,
                                perturbed=perturbed, source=entry.source)


class RelationshipBundle(NamedTuple):
    """The relations considered together for one analyzed source concept.

    Regular relations share the source as their focal; sensor-targeting
    relations carry the source as their partner.
    """

    source: str
    relations: tuple[RelationshipInstance, ...] = ()

    def signature(self) -> str:
        return bundle_signature(self.relations)


def bundle_signature(relations: Sequence[RelationshipInstance]) -> str:
    """``Form(focal,partner)`` for each relation, joined by ``;``."""
    return ";".join(f"{r.form.label}({r.focal},{r.partner})" for r in relations)


def compose_bundle(focal: SourceConcept, relations: Sequence[RelationshipInstance],
                   limit: int = 2) -> RelationshipBundle:
    """Deduplicate, validate and canonically order relations around ``focal``.

    Duplicates (same form/focal/partner) collapse to one. ``MixedFocal`` is
    raised when a regular relation names a different focal, ``BundleTooLarge``
    when more than ``limit`` distinct relations remain.
    """
    deduped: dict[tuple, RelationshipInstance] = {}  # sort key -> first relation
    for rel in relations:
        if rel.targets_sensor():
            if rel.partner != focal.name:
                raise ToolkitError(E.MIXED_FOCAL,
                                   f"sensor relation partner {rel.partner!r} does not "
                                   f"match bundle focal {focal.name!r}")
        elif rel.focal != focal.name:
            raise ToolkitError(E.MIXED_FOCAL,
                               f"relation focal {rel.focal!r} does not match bundle "
                               f"focal {focal.name!r}")
        deduped.setdefault(rel.sort_key(), rel)
    if len(deduped) > limit:
        raise ToolkitError(E.BUNDLE_TOO_LARGE,
                           f"bundle holds {len(deduped)} relations, limit is {limit}")
    return RelationshipBundle(source=focal.name,
                              relations=tuple(deduped[key] for key in sorted(deduped)))


# ---------------------------------------------------------------------------
# Matrix documents
# ---------------------------------------------------------------------------

def _pattern_from_doc(raw: object, where: str, sink: DiagnosticSink) -> MatrixPattern | None:
    if isinstance(raw, str):
        if raw.startswith("kind:"):
            kind = KIND_BY_NAME.get(raw[len("kind:"):])
            if kind is None:
                sink.error(E.UNKNOWN_KIND, f"{where}: unknown kind in pattern {raw!r}")
                return None
            return MatrixPattern(kind=kind)
        if raw == SENSOR_TARGET or is_identifier(raw):
            return MatrixPattern(name=raw)
    sink.error(E.INVALID_VALUE, f"{where}: pattern must be a concept name, "
                                f"'{SENSOR_TARGET}', or 'kind:<ConceptKind>'")
    return None


def _form_from_doc(label: object, where: str, sink: DiagnosticSink) -> RelationForm | None:
    try:
        return parse_relation_form(label)
    except ToolkitError as exc:
        sink.error(exc.code, f"{where}: {exc.args[0]}")
        return None


def _categories_from_doc(raw: dict, key: str, where: str,
                         sink: DiagnosticSink) -> list[PropertyCategory] | None:
    """The list of property-category names at ``raw[key]``."""
    names = sink.collection(raw, key, where, strings=True)
    sink.distinct(names, where, "category")
    unknown = [name for name in names if name not in CATEGORY_BY_NAME]
    for name in unknown:
        sink.error(E.UNKNOWN_CATEGORY, f"{where}: unknown category {name!r}")
    return None if unknown else [CATEGORY_BY_NAME[name] for name in names]


def matrix_from_doc(doc: dict, *, source: str = "<document>") -> CompatibilityMatrix:
    check_schema(doc, MATRIX_SCHEMA, source=source)
    sink = DiagnosticSink(file=source)
    entries: list[MatrixEntry] = []
    seen_pairs: set[tuple[str, str]] = set()
    for where, raw in sink.records(doc, "entries"):
        focal = _pattern_from_doc(raw.get("focal"), f"{where}.focal", sink)
        partner = _pattern_from_doc(raw.get("partner"), f"{where}.partner", sink)
        note = sink.text(raw, "source", where, "")
        if focal is None or partner is None or note is None \
                or not sink.first(seen_pairs, (focal.label, partner.label), where, "pair"):
            continue

        forms: list[RelationForm] = []
        for label in sink.collection(raw, "relationships", where):
            form = _form_from_doc(label, where, sink)
            if form in forms:
                sink.error(E.DUPLICATE_NAME, f"{where}: duplicate relationship {label!r}")
            elif form is not None:
                forms.append(form)

        perturbs: list[tuple[str, tuple[PropertyCategory, ...]]] = []
        pwhere = f"{where}.perturbs"
        raw_perturbs = sink.collection(raw, "perturbs", where, mapping=True)
        for label in raw_perturbs:
            form = _form_from_doc(label, pwhere, sink)
            if form is None:
                continue
            if form not in forms:
                sink.error(E.INVALID_VALUE,
                           f"{pwhere}: {label!r} is not granted by this entry")
                continue
            categories = _categories_from_doc(raw_perturbs, label, pwhere, sink)
            if categories is not None:
                categories.sort(key=lambda c: c.value)
                perturbs.append((form.label, tuple(categories)))

        forms.sort()
        entries.append(MatrixEntry(focal=focal, partner=partner, forms=tuple(forms),
                                   perturbs=tuple(sorted(perturbs)), source=note))

    sink.raise_if_errors()
    entries.sort(key=lambda e: (e.focal.label, e.partner.label))
    return CompatibilityMatrix(entries=tuple(entries))


def matrix_to_doc(matrix: CompatibilityMatrix) -> dict:
    entries = []
    for entry in sorted(matrix.entries, key=lambda e: (e.focal.label, e.partner.label)):
        raw: dict = {
            "focal": entry.focal.label,
            "partner": entry.partner.label,
            "relationships": [f.label for f in sorted(entry.forms)],
        }
        if entry.perturbs:
            raw["perturbs"] = {label: [c.value for c in cats]
                               for label, cats in sorted(entry.perturbs)}
        if entry.source:
            raw["source"] = entry.source
        entries.append(raw)
    return {"schema": MATRIX_SCHEMA, "entries": entries}


def cross_validate_matrix(matrix: CompatibilityMatrix, ontology: SourceOntology,
                          sink: DiagnosticSink) -> None:
    """Name patterns must resolve; recognition-feature kinds need an
    interactive-capable focal (the sensor target is exempt)."""
    feature_kinds = {RelationshipKind.SPATIAL_POSITION, RelationshipKind.POSSESS,
                     RelationshipKind.COGNITIVE_FEATURE}
    for entry in matrix.entries:
        for side, pattern in (("focal", entry.focal), ("partner", entry.partner)):
            if pattern.name is not None and pattern.name != SENSOR_TARGET \
                    and ontology.get(pattern.name) is None:
                sink.error(E.UNKNOWN_CONCEPT,
                           f"matrix {side} pattern {pattern.name!r} does not resolve")
        if entry.focal.name == SENSOR_TARGET \
                or not any(f.kind in feature_kinds for f in entry.forms):
            continue
        if entry.focal.kind is not None:
            kind, noun = entry.focal.kind, "kind"
        else:
            concept = ontology.get(entry.focal.name)
            kind, noun = concept and concept.kind, "concept"
        if kind is not None and kind is not ConceptKind.INTERACTIVE:
            sink.error(E.INVALID_VALUE,
                       f"matrix entry ({entry.focal.label}, {entry.partner.label}) "
                       "grants a feature-perturbing relationship to a "
                       f"non-interactive focal {noun}")

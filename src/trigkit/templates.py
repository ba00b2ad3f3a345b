"""Description templates for synthesized triggering conditions.

Templates map a (relationship signature, concept, property key, stage) key to
one or more tagged wording variants; each variant becomes its own catalog
row so distinct real-world phrasings of the same worst-case cell survive
side by side. When no template matches, synthesis falls back to a generic
mechanical wording and reports a warning rather than dropping the condition.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from . import errors as E
from .docio import check_schema
from .errors import DiagnosticSink
from .generation import _property_key
from .naming import display_name, display_property_key
from .ontology import SENSOR_TARGET, SourceOntology
from .perception import STAGE_BY_NAME, STAGE_ORDER
from .relationships import RelationshipBundle, _form_from_doc

__all__ = [
    "TEMPLATES_SCHEMA",
    "TemplateKey",
    "TemplateSet",
    "templates_from_doc",
    "templates_to_doc",
    "cross_validate_templates",
]

TEMPLATES_SCHEMA = "condition-templates@1"

DEFAULT_DISTANCE_SUFFIX = ", combined with a distant target"

TemplateKey = tuple[str, str, str, str]  # (relation signature, concept, property key, stage)

_SIGNATURE_PART = re.compile(
    r"(?P<form>[A-Za-z]+(?:\.[A-Za-z]+)?)\((?P<focal>[A-Za-z][A-Za-z0-9_]*),"
    r"(?P<partner>[A-Za-z][A-Za-z0-9_]*)\)")


def split_signature(signature: str) -> list[tuple[str, str, str]]:
    """Break a bundle signature into (form label, focal, partner) parts.

    The empty signature (a source analyzed without relations) yields an
    empty list. Raises ``InvalidValue`` on malformed text.
    """
    if signature == "":
        return []
    parts = []
    for chunk in signature.split(";"):
        match = _SIGNATURE_PART.fullmatch(chunk)
        if match is None:
            raise E.ToolkitError(E.INVALID_VALUE,
                                 f"malformed relation signature part {chunk!r}")
        parts.append((match.group("form"), match.group("focal"), match.group("partner")))
    return parts


class TemplateSet(NamedTuple):
    """Tagged wording variants keyed by signature, concept, property, stage.
    ``entries`` is never changed once the set is built."""

    GENERIC_TAG = "generic"

    distance_suffix: str = DEFAULT_DISTANCE_SUFFIX
    entries: dict[TemplateKey, tuple[tuple[str, str], ...]] = {}

    def lookup(self, signature: str, concept: str, property_key: str,
               stage: str) -> tuple[tuple[str, str], ...] | None:
        return self.entries.get((signature, concept, property_key, stage))

    def generic_description(self, bundle: RelationshipBundle, concept: str,
                            properties: tuple[str, ...], stage: str) -> str:
        prop = display_property_key(properties).lower()
        subject = display_name(concept).lower()
        text = f"Adverse {prop} of the {subject} during {display_name(stage).lower()}"
        regular = [r for r in bundle.relations if not r.targets_sensor()]
        covering = [r for r in bundle.relations if r.targets_sensor()]
        if regular:
            text += ", given " + " and ".join(r.render() for r in regular)
        if covering:
            text += ", with the sensor obstructed"
        return text


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def templates_from_doc(doc: dict, *, source: str = "<document>") -> TemplateSet:
    check_schema(doc, TEMPLATES_SCHEMA, source=source)
    sink = DiagnosticSink(file=source)
    suffix = sink.text(doc, "distance_suffix", "", DEFAULT_DISTANCE_SUFFIX)
    entries: dict[TemplateKey, tuple[tuple[str, str], ...]] = {}
    keys: set[TemplateKey] = set()
    for where, raw in sink.records(doc, "templates"):
        signature = sink.text(raw, "relationships", where, "")
        concept = sink.identifier(raw, "concept", where)
        props = _property_key(raw, where, sink)
        stage = sink.choice(raw, "stage", STAGE_BY_NAME, where, code=E.UNKNOWN_STAGE)
        raw_variants = sink.records(raw, "variants", where, required=True)
        if None in (signature, concept, props, stage) or not raw_variants:
            continue
        try:
            parts = split_signature(signature)
        except E.ToolkitError as exc:
            sink.error(exc.code, f"{where}: {exc.args[0]}")
            continue
        if None in [_form_from_doc(part[0], where, sink) for part in parts]:
            continue
        if any(a >= b for a, b in zip(parts, parts[1:])):  # not as signature() writes it
            canonical = ";".join(f"{form}({focal},{partner})"
                                 for form, focal, partner in sorted(set(parts)))
            sink.error(E.INVALID_VALUE, f"{where}: relationships must name each relation "
                                        f"once, in canonical order: {canonical!r}")
            continue
        variants: list[tuple[str, str]] = []
        tags: set[str] = set()
        for vw, rv in raw_variants:
            tag = sink.identifier(rv, "tag", vw, "default")
            text = sink.text(rv, "text", vw)
            if tag is not None and text is not None and sink.first(tags, tag, vw, "tag"):
                variants.append((tag, text))
        if len(variants) < len(raw_variants):
            continue
        key: TemplateKey = (signature, concept, "/".join(props), stage.name)
        if sink.first(keys, key, where, "template key",
                      lambda k: f"({k[0] or 'no relations'}, {k[1]}, {k[2]}, {k[3]})"):
            entries[key] = tuple(variants)
    sink.raise_if_errors()
    return TemplateSet(distance_suffix=suffix, entries=entries)


def _key_sort(key: TemplateKey) -> tuple:
    signature, concept, prop, stage = key
    return (concept, signature, prop, STAGE_ORDER[stage])


def templates_to_doc(templates: TemplateSet) -> dict:
    raw_templates = []
    for key in sorted(templates.entries, key=_key_sort):
        signature, concept, prop, stage = key
        raw: dict = {}
        if signature:
            raw["relationships"] = signature
        raw.update(concept=concept, property=prop, stage=stage)
        raw["variants"] = [{"tag": tag, "text": text}
                           for tag, text in templates.entries[key]]
        raw_templates.append(raw)
    return {"schema": TEMPLATES_SCHEMA,
            "distance_suffix": templates.distance_suffix,
            "templates": raw_templates}


def cross_validate_templates(templates: TemplateSet, ontology: SourceOntology,
                             sink: DiagnosticSink) -> None:
    """Template keys must name known concepts, owned properties and stages."""
    for signature, concept_name, prop_field, stage in templates.entries:
        concept = ontology.get(concept_name)
        if concept is None:
            sink.error(E.UNKNOWN_CONCEPT,
                       f"template names unknown concept {concept_name!r}")
            continue
        owned = set(concept.property_names())
        for prop in prop_field.split("/"):
            if prop not in owned:
                sink.error(E.UNKNOWN_PROPERTY,
                           f"template: {concept_name!r} has no property {prop!r}")
        for _form, focal, partner in split_signature(signature):
            for name in (focal, partner):
                if name != SENSOR_TARGET and ontology.get(name) is None:
                    sink.error(E.UNKNOWN_CONCEPT,
                               f"template signature names unknown concept {name!r}")

"""Rendering and round-trip serialization of generated artifacts.

Catalogs and test-case sets serialize to schema-tagged documents that parse
back into equal objects, so every pipeline stage can be driven from files.
Reading one back checks the whole document first, with C-level tests over the
fields as the writers lay them out, and builds the records directly; a
document that does not fit is read again by the located reader, which is the
only source of diagnostics. Both build equal records from every document the
located reader accepts.

Tabular views exist in two styles: CSV (machine-friendly, ASCII degree marks)
and Markdown (review-friendly, spaced typographic degree marks).
"""
from __future__ import annotations

import csv
import io
from itertools import chain
from operator import add, itemgetter
from typing import Iterable, Mapping, Sequence

from . import errors as E
from .docio import check_schema
from .errors import DiagnosticSink, ToolkitError
from .generation import (
    DEGREE_MAX,
    DEGREE_MIN,
    AssessmentClass,
    EffectEntry,
    GenerationMatrix,
    TriggeringCondition,
    _stage_property,
    context_from_doc,
    context_to_doc,
    rank,
    rating_from_doc,
    render_degree,
)
from .naming import display_name, is_identifier
from .ontology import CATEGORY_BY_NAME
from .perception import STAGE_BY_NAME
from .pipeline import Catalog
from .relationships import (
    _FORM_BY_LABEL,
    RelationshipInstance,
    _categories_from_doc,
    _form_from_doc,
    bundle_signature,
)
from .testcases import TestCase

__all__ = [
    "CATALOG_SCHEMA",
    "CASES_SCHEMA",
    "MATRIX_DOC_SCHEMA",
    "CSV_HEADER",
    "catalog_to_doc",
    "catalog_from_doc",
    "catalog_to_csv",
    "catalog_to_markdown",
    "matrix_to_doc",
    "matrix_to_csv",
    "matrix_to_markdown",
    "cases_to_doc",
    "cases_from_doc",
    "cases_to_markdown",
    "render_report",
    "report_to_doc",
]

CATALOG_SCHEMA = "condition-catalog@1"
CASES_SCHEMA = "test-cases@1"
MATRIX_DOC_SCHEMA = "generation-matrix@1"

CSV_HEADER = ("No.", "Sensor", "Triggering sources", "Properties",
              "Process stage", "Triggering condition")


# ---------------------------------------------------------------------------
# Catalog documents
# ---------------------------------------------------------------------------

def _relationship_to_doc(rel: RelationshipInstance) -> dict:
    raw = {"form": rel.form.label, "focal": rel.focal, "partner": rel.partner,
           "perturbs": sorted(c.value for c in rel.perturbed)}
    if rel.source:
        raw["source"] = rel.source
    return raw


def _relationship_from_doc(raw: dict, where: str,
                           sink: DiagnosticSink) -> RelationshipInstance | None:
    form = _form_from_doc(raw.get("form"), where, sink)
    focal = sink.text(raw, "focal", where)
    partner = sink.text(raw, "partner", where)
    perturbed = _categories_from_doc(raw, "perturbs", where, sink)
    source = sink.text(raw, "source", where, "")
    if None in (form, focal, partner, perturbed, source):
        return None
    return RelationshipInstance(form=form, focal=focal, partner=partner,
                                perturbed=frozenset(perturbed), source=source)


def _relation_label(rel: RelationshipInstance) -> str:
    return repr(bundle_signature((rel,)))


def _cell_label(cell: EffectEntry) -> str:
    return f"'{cell.concept}/{'/'.join(cell.properties)}' on {cell.stage}.{cell.stage_property}"


def _positive_label(positive: tuple[str, EffectEntry]) -> str:
    return f"{positive[0]} {_cell_label(positive[1])}"


def _effect_to_doc(cell: EffectEntry) -> dict:
    raw: dict = {"stage_property": cell.stage_property, "degree": cell.degree}
    if cell.principle:
        raw["principle"] = cell.principle
    if cell.worst_case:
        raw["worst_case"] = cell.worst_case
    if cell.context is not None:
        raw["context"] = context_to_doc(cell.context)
    return raw


def _condition_to_doc(condition: TriggeringCondition) -> dict:
    raw: dict = {
        "id": condition.id,
        "sensor": condition.sensor,
        "sources": list(condition.sources),
        "relationships": [_relationship_to_doc(r) for r in condition.relationships],
        "property_owner": condition.property_owner,
        "properties": list(condition.properties),
        "stage": condition.stage,
        "effects": [_effect_to_doc(c) for c in condition.effects],
        "degree": condition.degree,
        "description": condition.description,
        "distance_augmented": condition.distance_augmented,
        "variant": condition.variant,
        "templated": condition.templated,
    }
    if condition.assessment is not None:
        raw["assessment"] = {"exposure": condition.assessment.exposure,
                             "criticality": condition.assessment.criticality}
        raw["priority"] = condition.priority
    return raw


def catalog_to_doc(catalog: Catalog) -> dict:
    return {
        "schema": CATALOG_SCHEMA,
        "vehicle": catalog.vehicle,
        "threshold": catalog.threshold,
        "bundle_limit": catalog.bundle_limit,
        "conditions": [_condition_to_doc(c) for c in catalog.conditions],
        "positives": [{"sensor": sensor, "concept": cell.concept,
                       "properties": list(cell.properties), "stage": cell.stage,
                       **_effect_to_doc(cell)}
                      for sensor, cell in catalog.positives],
        "warnings": list(catalog.warnings),
    }


_FLAGS = {True: True, False: False}


def _effect_from_doc(raw: dict, where: str, sink: DiagnosticSink, concept: str | None,
                     properties: tuple[str, ...], stage) -> EffectEntry | None:
    """One graded cell of ``stage``, a :class:`PerceptionStage` or None."""
    degree = sink.int_in(raw, "degree", DEGREE_MIN, DEGREE_MAX, where, 0)
    principle = sink.text(raw, "principle", where, "")
    worst_case = sink.text(raw, "worst_case", where, "")
    context = context_from_doc(raw.get("context"), where, sink)
    quality = None if stage is None else _stage_property(raw, stage, where, sink)
    if None in (concept, quality, degree, principle, worst_case):
        return None
    return EffectEntry(concept=concept, properties=properties, stage=stage.name,
                       stage_property=quality, degree=degree, principle=principle,
                       worst_case=worst_case, context=context)


def _condition_from_doc(raw: dict, where: str,
                        sink: DiagnosticSink) -> TriggeringCondition | None:
    cid, sensor, owner, description = [
        sink.text(raw, key, where) for key in ("id", "sensor", "property_owner", "description")]
    sources = sink.collection(raw, "sources", where, strings=True, required=True)
    properties = tuple(sink.collection(raw, "properties", where, strings=True,
                                       required=True))
    stage = sink.choice(raw, "stage", STAGE_BY_NAME, where, code=E.UNKNOWN_STAGE)
    degree = sink.int_in(raw, "degree", DEGREE_MIN, DEGREE_MAX, where)
    distance = sink.choice(raw, "distance_augmented", _FLAGS, where, False)
    variant = sink.identifier(raw, "variant", where, "default")
    templated = sink.choice(raw, "templated", _FLAGS, where, True)
    relationships = [_relationship_from_doc(rel, rwhere, sink)
                     for rwhere, rel in sink.records(raw, "relationships", where)]
    effects = [_effect_from_doc(cell, cwhere, sink, owner, properties, stage)
               for cwhere, cell in sink.records(raw, "effects", where)]
    sink.distinct(sources, where, "source")
    sink.distinct(properties, where, "property")
    sink.distinct(relationships, where, "relationship", _relation_label)
    sink.distinct(effects, where, "effect", _cell_label)
    rating = sink.collection(raw, "assessment", where, mapping=True)
    assessment = rating_from_doc(rating, f"{where}.assessment", sink) if rating else None
    if None in (cid, sensor, owner, description, stage, degree, distance, variant,
                templated, *relationships, *effects) or not sources or not properties \
            or rating and assessment is None:
        return None
    return TriggeringCondition(
        id=cid, sensor=sensor, sources=tuple(sources),
        relationships=tuple(relationships), property_owner=owner,
        properties=properties, stage=stage.name, effects=tuple(effects),
        description=description,
        degree=degree, distance_augmented=distance, variant=variant,
        templated=templated, assessment=assessment)


def _catalog_from_doc_located(doc: dict, source: str) -> Catalog:
    """The catalog ``doc`` holds, read field by field: a field that does not
    fit records a located diagnostic."""
    sink = DiagnosticSink(file=source)
    conditions: list[TriggeringCondition] = []
    seen: set[str] = set()
    for where, raw in sink.records(doc, "conditions"):
        condition = _condition_from_doc(raw, where, sink)
        if condition is not None and sink.first(seen, condition.id, where, "condition id"):
            conditions.append(condition)
    positives: list[tuple[str, EffectEntry]] = []
    seen_positives: set[tuple[str, EffectEntry]] = set()
    for where, raw in sink.records(doc, "positives"):
        sensor, concept = sink.text(raw, "sensor", where), sink.text(raw, "concept", where)
        properties = tuple(sink.collection(raw, "properties", where, strings=True))
        sink.distinct(properties, where, "property")
        cell = _effect_from_doc(
            raw, where, sink, concept, properties,
            sink.choice(raw, "stage", STAGE_BY_NAME, where, code=E.UNKNOWN_STAGE))
        if sensor is not None and cell is not None and sink.first(
                seen_positives, (sensor, cell), where, "positive", _positive_label):
            positives.append((sensor, cell))
    vehicle = sink.text(doc, "vehicle", "", "")
    threshold = sink.int_in(doc, "threshold", 1, 3, "", 2)
    bundle_limit = sink.int_in(doc, "bundle_limit", 0, None, "", 2)
    warnings = sink.collection(doc, "warnings", strings=True)
    sink.raise_if_errors()
    return Catalog(vehicle=vehicle, threshold=threshold, bundle_limit=bundle_limit,
                   conditions=tuple(conditions), positives=tuple(positives),
                   warnings=tuple(warnings))


class _Misfit(Exception):
    """A value the checked readers leave to the located ones. A misfit is any
    value not laid out as the writers lay it out, even one a located reader
    accepts or reads differently (an absent optional list, ``1`` for a flag)."""


# A missing key, a value of the wrong type and a bad rating are misfits too.
_MISFITS = (_Misfit, KeyError, TypeError, ToolkitError)
_HEADER = itemgetter("vehicle", "threshold", "bundle_limit", "conditions",
                     "positives", "warnings")
_CONDITION = itemgetter("id", "sensor", "property_owner", "description", "sources",
                        "properties", "stage", "degree", "distance_augmented",
                        "variant", "templated", "relationships", "effects")
_RELATION = itemgetter("form", "focal", "partner", "perturbs")
_POSITIVE = itemgetter("sensor", "concept", "properties", "stage")
_DEGREES = range(DEGREE_MIN, DEGREE_MAX + 1)


def _fits(ok) -> None:
    if not ok:
        raise _Misfit


def _strings(value) -> bool:
    return isinstance(value, list) and all(map(str.__instancecheck__, value))


def _distinct(values) -> bool:
    """Whether no entry of ``values`` repeats; a list shorter than 2 builds no set."""
    return len(values) < 2 or len(set(values)) == len(values)


def _optional_text(value) -> str:
    """A text field that defaults to ``""``; ``str.strip`` rejects non-text."""
    _fits(value is None or str.strip(value))
    return value or ""


def _relation_checked(raw: dict) -> RelationshipInstance:
    label, focal, partner, perturbs = _RELATION(raw)
    _fits(str.strip(focal) and str.strip(partner) and isinstance(perturbs, list))
    perturbed = frozenset(map(CATEGORY_BY_NAME.__getitem__, perturbs))
    _fits(len(perturbed) == len(perturbs))
    return RelationshipInstance(_FORM_BY_LABEL[label], focal, partner, perturbed,
                                _optional_text(raw.get("source")))


def _cell_checked(raw: dict, concept: str, properties: tuple[str, ...], stage,
                  contexts: dict) -> EffectEntry:
    """``contexts`` memoises each context by its items, for one document."""
    quality, degree, context = raw["stage_property"], raw["degree"], raw.get("context")
    _fits(quality in stage.quality_properties and type(degree) is int
          and degree in _DEGREES and (context is None or isinstance(context, dict)))
    if context is not None:
        key = tuple(context.items())
        if key not in contexts:
            sink = DiagnosticSink()
            contexts[key] = context_from_doc(context, "", sink)
            _fits(not sink.items)
        context = contexts[key]
    return EffectEntry(concept, properties, stage.name, quality, degree,
                       _optional_text(raw.get("principle")),
                       _optional_text(raw.get("worst_case")), context)


def _condition_checked(raw: dict, contexts: dict) -> TriggeringCondition:
    (cid, sensor, owner, description, sources, properties, stage, degree, distance,
     variant, templated, relations, cells) = _CONDITION(raw)
    stage = STAGE_BY_NAME[stage]
    _fits(all(map(str.strip, (cid, sensor, owner, description)))
          and sources and _strings(sources) and properties and _strings(properties)
          and type(degree) is int and degree in _DEGREES and type(distance) is bool
          and type(templated) is bool and is_identifier(variant)
          and isinstance(relations, list) and isinstance(cells, list))
    properties, rating = tuple(properties), raw.get("assessment")
    assessment = None if rating is None else \
        AssessmentClass(rating["exposure"], rating["criticality"])
    relations = tuple(map(_relation_checked, relations))
    cells = tuple(_cell_checked(cell, owner, properties, stage, contexts) for cell in cells)
    _fits(_distinct(sources) and _distinct(properties) and _distinct(relations)
          and _distinct(cells))
    return TriggeringCondition(
        cid, sensor, tuple(sources), relations, owner, properties, stage.name, cells,
        degree, description, distance, variant, templated, assessment)


def _catalog_checked(doc: dict) -> Catalog | None:
    """The catalog ``doc`` holds, or None for a misfit."""
    contexts: dict = {}
    try:
        vehicle, threshold, bundle_limit, conditions, positives, warnings = _HEADER(doc)
        _fits(isinstance(conditions, list) and isinstance(positives, list)
              and type(threshold) is int and 1 <= threshold <= 3
              and type(bundle_limit) is int and bundle_limit >= 0 and _strings(warnings))
        conditions = tuple(_condition_checked(raw, contexts) for raw in conditions)
        _fits(len({condition.id for condition in conditions}) == len(conditions))
        cells = []
        for raw in positives:
            sensor, concept, properties, stage = _POSITIVE(raw)
            _fits(str.strip(sensor) and str.strip(concept) and _strings(properties)
                  and _distinct(properties))
            cells.append((sensor, _cell_checked(raw, concept, tuple(properties),
                                                STAGE_BY_NAME[stage], contexts)))
        _fits(_distinct(cells))
        return Catalog(_optional_text(vehicle), threshold, bundle_limit, conditions,
                       tuple(cells), tuple(warnings))
    except _MISFITS:
        return None


def catalog_from_doc(doc: dict, *, source: str = "<document>") -> Catalog:
    check_schema(doc, CATALOG_SCHEMA, source=source)
    return _catalog_checked(doc) or _catalog_from_doc_located(doc, source)


# ---------------------------------------------------------------------------
# Catalog tables
# ---------------------------------------------------------------------------

def _condition_row(index: int, condition: TriggeringCondition) -> tuple[str, ...]:
    return (str(index), condition.sensor, condition.sources_rendered(),
            condition.properties_rendered(), condition.stage_rendered(),
            condition.description)


def catalog_to_csv(catalog: Catalog) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for i, condition in enumerate(catalog.conditions, start=1):
        writer.writerow(_condition_row(i, condition))
    return buffer.getvalue()


def _md_escape(text: str) -> str:
    return text.replace("|", "\\|")


def _md_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(_md_escape(str(c)) for c in row) + " |")
    return "\n".join(lines) + "\n"


def catalog_to_markdown(catalog: Catalog) -> str:
    assessed = any(c.assessment is not None for c in catalog.conditions)
    header = list(CSV_HEADER) + ["Degree"]
    if assessed:
        header += ["Rating", "Priority"]
    rows = []
    for i, condition in enumerate(catalog.conditions, start=1):
        row = list(_condition_row(i, condition))
        row.append(render_degree(condition.degree, style="figure"))
        if assessed:
            row.append(condition.rating_label())
            row.append("" if condition.priority is None else str(condition.priority))
        rows.append(row)
    title = f"# Triggering conditions — {catalog.vehicle}" if catalog.vehicle \
        else "# Triggering conditions"
    parts = [title, "",
             f"{len(catalog.conditions)} conditions "
             f"(worst-case threshold {catalog.threshold}, "
             f"bundle limit {catalog.bundle_limit}).", "",
             _md_table(header, rows)]
    if catalog.positives:
        parts += ["", f"{len(catalog.positives)} beneficial cells were recorded "
                      f"for diagnostics and not synthesized."]
    if catalog.warnings:
        parts += ["", "## Warnings", ""]
        parts += [f"- {w}" for w in catalog.warnings]
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Generation-matrix views
# ---------------------------------------------------------------------------

def _matrix_rows(matrix: GenerationMatrix) -> list[tuple[tuple, tuple[EffectEntry, ...]]]:
    """Each row of ``matrix`` with its cells, in column order."""
    width, cells = len(matrix.columns), matrix.cells  # ``cells`` is built on each read
    return [(row, cells[i * width:(i + 1) * width]) for i, row in enumerate(matrix.rows)]


def matrix_to_doc(matrix: GenerationMatrix) -> dict:
    return {
        "schema": MATRIX_DOC_SCHEMA,
        "sensor": matrix.sensor,
        "source": matrix.bundle.source,
        "relationships": matrix.bundle.signature(),
        "rows": [{"concept": concept, "properties": list(props)}
                 for concept, props in matrix.rows],
        "columns": [{"stage": stage, "stage_property": quality}
                    for stage, quality in matrix.columns],
        "degrees": [[cell.degree for cell in cells]
                    for _row, cells in _matrix_rows(matrix)],
    }


def _row_label(matrix: GenerationMatrix, row: tuple[str, tuple[str, ...]]) -> str:
    concept, props = row
    label = "/".join(display_name(p) for p in props)
    if concept != matrix.bundle.source:
        label += f" ({display_name(concept)})"
    return label


def _column_label(stage: str, quality: str) -> str:
    return f"{display_name(stage)}: {display_name(quality)}"


def matrix_to_csv(matrix: GenerationMatrix) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["Property"] + [_column_label(s, q) for s, q in matrix.columns])
    for row, cells in _matrix_rows(matrix):
        writer.writerow([_row_label(matrix, row)]
                        + [render_degree(c.degree, style="ascii") for c in cells])
    return buffer.getvalue()


def matrix_to_markdown(matrix: GenerationMatrix) -> str:
    header = ["Property"] + [_column_label(s, q) for s, q in matrix.columns]
    rows = [[_row_label(matrix, row)]
            + [render_degree(c.degree, style="figure") for c in cells]
            for row, cells in _matrix_rows(matrix)]
    relationships = matrix.bundle.signature() or "none"
    title = (f"# Generation matrix — {display_name(matrix.bundle.source)} "
             f"on {matrix.sensor}")
    return "\n".join([title, "", f"Relationships: {relationships}", "",
                      _md_table(header, rows)])


# ---------------------------------------------------------------------------
# Test-case documents
# ---------------------------------------------------------------------------

def cases_to_doc(cases: Sequence[TestCase], warnings: Sequence[str] = ()) -> dict:
    """Each case's fields in ``TestCase`` order, under ``_CASE_FIELDS`` and ``odd``."""
    return {"schema": CASES_SCHEMA,
            "cases": [{"id": i, "condition": c, "event": e, "sensor": s, "situation": si,
                       "trigger": t, "behavior": b, "fail_criterion": f,
                       "pass_criterion": p, "odd": list(odd)}
                      for i, c, e, s, si, t, b, f, p, odd in cases],
            "warnings": list(warnings)}


# TestCase fields in order, as the document names them
_CASE_FIELDS = ("id", "condition", "event", "sensor", "situation", "trigger",
                "behavior", "fail_criterion", "pass_criterion")


_CASE_TEXTS = itemgetter(*_CASE_FIELDS)
_ODD = itemgetter("odd")


def _cases_from_doc_located(doc: dict, source: str) -> tuple[TestCase, ...]:
    """The cases ``doc`` holds, read field by field as the catalog's located
    reader reads."""
    sink = DiagnosticSink(file=source)
    cases: list[TestCase] = []
    seen: set[str] = set()
    for where, raw in sink.records(doc, "cases"):
        fields = [sink.text(raw, key, where) for key in _CASE_FIELDS]
        odd = sink.collection(raw, "odd", where, strings=True)
        sink.distinct(odd, where, "odd entry")
        if None not in fields and sink.first(seen, fields[0], where, "case id"):
            cases.append(TestCase(*fields, odd=tuple(odd)))
    sink.collection(doc, "warnings", strings=True)
    sink.raise_if_errors()
    return tuple(cases)


def _cases_checked(doc: dict) -> tuple[TestCase, ...] | None:
    """The cases ``doc`` holds, or None for a misfit (see :class:`_Misfit`)."""
    try:
        raw = doc["cases"]
        texts, odds = list(map(_CASE_TEXTS, raw)), list(map(_ODD, raw))
        _fits(isinstance(raw, list) and _strings(doc["warnings"])
              and all(map(str.strip, chain.from_iterable(texts)))
              and len({fields[0] for fields in texts}) == len(texts)
              and all(map(list.__instancecheck__, odds))
              and all(map(str.__instancecheck__, chain.from_iterable(odds))))
        odds = list(map(tuple, odds))
        shared = set(odds)  # each distinct list once: cases on one sensor share it
        _fits(list(map(len, map(set, shared))) == list(map(len, shared)))
    except _MISFITS:
        return None
    # each case's texts plus the 1-tuple (odd,)
    return tuple(map(TestCase._make, map(add, texts, zip(odds))))


def cases_from_doc(doc: dict, *, source: str = "<document>") -> tuple[TestCase, ...]:
    check_schema(doc, CASES_SCHEMA, source=source)
    cases = _cases_checked(doc)
    return _cases_from_doc_located(doc, source) if cases is None else cases


def cases_to_markdown(cases: Sequence[TestCase]) -> str:
    header = ["No.", "Case", "Sensor", "Event", "Triggering condition",
              "Fail criterion", "Pass criterion"]
    rows = [(str(i), case.id, case.sensor, case.event_id, case.trigger,
             case.fail_criterion, case.pass_criterion)
            for i, case in enumerate(cases, start=1)]
    return "\n".join([f"# Test cases ({len(cases)})", "", _md_table(header, rows)])


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _result_counts(results: Sequence[Mapping]) -> dict[str, int]:
    counts = {"pass": 0, "marginal": 0, "fail": 0}
    for record in results:
        outcome = record.get("outcome")
        if isinstance(outcome, str) and outcome in counts:
            counts[outcome] += 1
    return counts


def report_to_doc(catalog: Catalog, cases: Sequence[TestCase] = (),
                  results: Sequence[Mapping] = ()) -> dict:
    ranked = rank(catalog.conditions)
    return {
        "schema": "assessment-report@1",
        "vehicle": catalog.vehicle,
        "totals": {
            "conditions": len(catalog.conditions),
            "by_sensor": catalog.count_by_sensor(),
            "unrated": sum(1 for c in ranked if c.assessment is None),
            "test_cases": len(cases),
        },
        "ranking": [{
            "id": c.id,
            "description": c.description,
            "rating": c.rating_label(),
            "priority": c.priority,
        } for c in ranked],
        "results": _result_counts(results),
    }


def render_report(catalog: Catalog, cases: Sequence[TestCase] = (),
                  results: Sequence[Mapping] = ()) -> str:
    ranked = rank(catalog.conditions)
    unrated = sum(1 for c in ranked if c.assessment is None)
    by_sensor = ", ".join(f"{sensor}: {count}"
                          for sensor, count in sorted(catalog.count_by_sensor().items()))
    parts = [f"# Assessment report — {catalog.vehicle}" if catalog.vehicle
             else "# Assessment report", "",
             f"{len(catalog.conditions)} triggering conditions ({by_sensor}).",
             f"{len(cases)} composed test cases; {unrated} conditions unrated.", ""]
    header = ["Rank", "Condition", "Sensor", "Triggering condition",
              "Rating", "Priority"]
    rows = []
    for i, condition in enumerate(ranked, start=1):
        rows.append((str(i), condition.id, condition.sensor, condition.description,
                     condition.rating_label(),
                     "" if condition.priority is None else str(condition.priority)))
    parts.append(_md_table(header, rows))
    if results:
        counts = _result_counts(results)
        parts += ["", "## Executed results", "",
                  f"pass: {counts['pass']}, marginal: {counts['marginal']}, "
                  f"fail: {counts['fail']}"]
        fails = [r for r in results if r.get("outcome") == "fail"]
        if fails:
            parts += ["", _md_table(["Test case", "Behavior"],
                                    [(r.get("test_case", "?"), r.get("behavior", "?"))
                                     for r in fails])]
    return "\n".join(parts) + "\n"

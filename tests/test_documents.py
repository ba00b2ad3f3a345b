"""Every document loader rejects malformed fields with DocumentError alone.

A seeded fuzz replaces one field at a time with a junk value in documents of
all eleven families: the bundled corpus and project config, a generated
catalog, the test cases composed from it, and a ratings document. Loaders may
accept the result or raise ``DocumentError``; any other exception would end a
CLI run in a traceback. For the seven bundled YAML inputs and the project
config, the same fields also take raw YAML scalar text: scalars the parser
refuses, and explicit tags, read through ``parse_document``.

Each family's outcomes (every diagnostic as severity, code, file, line and
message, or ``ok``) must also equal those recorded in
``tests/data/golden_diagnostics.json``, so a change to a reader cannot alter
what it reports. The fuzz also duplicates the first entry of one list of each
list shape. After a deliberate change to the diagnostics, rewrite the file
with ``TRIGKIT_WRITE_GOLDEN=1 python -m pytest tests/test_documents.py`` and
review its diff.

The catalog and case readers check a document first and build its records
directly, handing anything that does not fit to their located readers. Both
must give the same outcome on every mutation, and the check must take the
unmutated documents.
"""

import copy
import json
import os
import random
from pathlib import Path

import pytest

from conftest import yaml_text

from trigkit.config import config_from_doc
from trigkit.data import data_path, reference_config
from trigkit.docio import check_schema, parse_document, read_document
from trigkit.errors import DocumentError
from trigkit.generation import effects_from_doc
from trigkit.ontology import ontology_from_doc
from trigkit.perception import suite_from_doc
from trigkit.relationships import matrix_from_doc
from trigkit.render import ratings_from_doc
from trigkit.render import (
    _cases_checked,
    _cases_from_doc_located,
    _catalog_checked,
    _catalog_from_doc_located,
    cases_from_doc,
    cases_to_doc,
    catalog_from_doc,
    catalog_to_doc,
)
from trigkit.templates import templates_from_doc
from trigkit.testcases import compose, events_from_doc, policy_from_doc

JUNK = ([], {}, 7, -1, 3.5, True, None, "", [1, 2], "ZZZ")

BUNDLED = {
    "triggering-sources@1": ("source_ontology.yaml", ontology_from_doc),
    "perception-system@1": ("sweeper_system.yaml", suite_from_doc),
    "compatibility-matrix@1": ("compatibility_matrix.yaml", matrix_from_doc),
    "effect-knowledge@1": ("effects.yaml", effects_from_doc),
    "condition-templates@1": ("condition_templates.yaml", templates_from_doc),
    "hazardous-events@1": ("hazardous_events.yaml", events_from_doc),
    "compose-policy@1": ("compose_policy.yaml", policy_from_doc),
}
GOLDEN = Path(__file__).parent / "data" / "golden_diagnostics.json"
FAMILIES = sorted(BUNDLED) + ["condition-catalog@1", "test-cases@1",
                              "condition-ratings@1", "project-config@1"]


def _load_config(doc):
    return config_from_doc(doc, base_dir=reference_config().parent)


@pytest.fixture(scope="module")
def documents(catalog, events, suite, policy):
    """schema -> (document, loader) for every family."""
    docs = {schema: (read_document(data_path(name)), loader)
            for schema, (name, loader) in BUNDLED.items()}
    docs["condition-catalog@1"] = (catalog_to_doc(catalog), catalog_from_doc)
    cases, warnings = compose(catalog.conditions, events, suite, policy)
    docs["test-cases@1"] = (cases_to_doc(cases, warnings), cases_from_doc)
    ratings = [{"condition": c.id, "exposure": "E3", "criticality": "C2"}
               for c in catalog.conditions[:3]]
    docs["condition-ratings@1"] = (
        {"schema": "condition-ratings@1", "ratings": ratings}, ratings_from_doc)
    docs["project-config@1"] = (read_document(reference_config()), _load_config)
    return docs


def _fields(node, path=()):
    """(path, container, key) for every value below ``node``."""
    entries = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(entries):
        yield path + (key,), node, key
        if isinstance(value, (dict, list)):
            yield from _fields(value, path + (key,))


def _shape(path):
    return tuple("*" if isinstance(part, int) else part for part in path)


def _sample(fields, rng):
    """One of ``fields`` per distinct shape (list indices collapsed), chosen by
    ``rng``."""
    by_shape = {}
    for path, container, key in fields:
        by_shape.setdefault(_shape(path), []).append((path, container, key))
    return [rng.choice(by_shape[shape]) for shape in sorted(by_shape, key=repr)]


def _mutations(doc, rng):
    """(label, container, key, value) for each junk mutation of one field per
    shape, then for duplicating the first entry of one non-empty list per shape."""
    fields = list(_fields(doc))
    for path, container, key in _sample(fields, rng):
        for junk in JUNK:
            yield f"{'/'.join(map(str, path))} = {junk!r}", container, key, junk
    lists = [(path, container, key) for path, container, key in fields
             if isinstance(container[key], list) and container[key]]
    for path, container, key in _sample(lists, rng):
        value = container[key]
        yield (f"{'/'.join(map(str, path))} duplicated first entry", container, key,
               [copy.deepcopy(value[0])] + value)


def _outcome(loader, doc):
    """``"ok"``, or the diagnostics as [severity, code, file, line, message]."""
    try:
        loader(doc)
    except DocumentError as exc:
        return [[d.severity, d.code, d.file, d.line, d.message]
                for d in exc.diagnostics]
    return "ok"


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("TRIGKIT_WRITE_GOLDEN"):
        recorded = {}
        yield recorded
        GOLDEN.write_text(json.dumps(recorded, indent=1, ensure_ascii=False) + "\n",
                          encoding="utf-8")
    else:
        yield json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("schema", FAMILIES)
def test_one_field_junk_raises_only_document_errors(documents, golden, schema):
    doc, loader = documents[schema]
    loader(doc)  # the unmutated document loads
    crashes = []
    outcomes = []
    for label, container, key, value in _mutations(doc, random.Random(schema)):
        original = container[key]
        container[key] = value
        try:
            outcomes.append([label, _outcome(loader, doc)])
        except Exception as exc:  # noqa: BLE001 - any other type is the finding
            crashes.append((label, repr(exc)))
        finally:
            container[key] = original
    assert len(outcomes) > 3 * len(JUNK)
    assert crashes == []
    if os.environ.get("TRIGKIT_WRITE_GOLDEN"):
        golden[schema] = outcomes
    assert outcomes == golden[schema]


#: Raw YAML scalar text: eight scalars that their form or explicit tag refuses,
#: then five explicit tags that build a value.
SCALARS = ("2001-13-45", "2001-02-30", "2001-12-14t21:59:43.10+25:00", "!!int abc",
           "!!int 0b2", "!!float abc", "!!bool maybe", "!!timestamp xyz",
           "!!str 7", "!!int 7", "!!float 7.5", "!!binary aGk=", "!!timestamp 2001-12-14")
PLACEHOLDER = "TrigkitScalarPlaceholder"


@pytest.mark.parametrize("schema", sorted(BUNDLED) + ["project-config@1"])
def test_one_field_raw_scalar_raises_only_document_errors(documents, golden, schema):
    """The fields the junk fuzz picks, one per shape, each written as raw
    scalar text: the document is dumped as YAML with a placeholder in the
    field, the text put in its place, and the result parsed and loaded."""
    doc, loader = documents[schema]
    crashes = []
    outcomes = []
    for path, container, key in _sample(list(_fields(doc)), random.Random(schema)):
        original = container[key]
        container[key] = PLACEHOLDER
        try:
            text = yaml_text(doc)
        finally:
            container[key] = original
        assert text.count(PLACEHOLDER) == 1
        for scalar in SCALARS:
            label = f"{'/'.join(map(str, path))} = {scalar}"
            try:
                outcomes.append([label, _outcome(lambda t: loader(parse_document(t)),
                                                 text.replace(PLACEHOLDER, scalar))])
            except Exception as exc:  # noqa: BLE001 - any other type is the finding
                crashes.append((label, repr(exc)))
    assert crashes == []
    family = f"{schema} raw scalars"
    if os.environ.get("TRIGKIT_WRITE_GOLDEN"):
        golden[family] = outcomes
    assert outcomes == golden[family]


READERS = {
    "condition-catalog@1": (_catalog_checked, _catalog_from_doc_located),
    "test-cases@1": (_cases_checked, _cases_from_doc_located),
}


def _read(loader, doc):
    """``repr`` of what ``loader`` builds from ``doc``, so that ``1`` and ``True``
    differ, or the diagnostics it raises."""
    try:
        return repr(loader(doc))
    except DocumentError as exc:
        return [[d.severity, d.code, d.file, d.line, d.message]
                for d in exc.diagnostics]


@pytest.mark.parametrize("schema", sorted(READERS))
def test_checked_and_located_readers_agree(documents, schema):
    doc, loader = documents[schema]
    checked, located = READERS[schema]
    assert checked(doc) is not None
    assert repr(checked(doc)) == repr(located(doc, "<document>"))
    loaded = 0
    for label, container, key, value in _mutations(doc, random.Random(schema)):
        original = container[key]
        container[key] = value
        try:
            outcome = _read(lambda d: check_schema(d, schema) or located(d, "<document>"),
                            doc)
            assert _read(loader, doc) == outcome, label
            loaded += isinstance(outcome, str)
        finally:
            container[key] = original
    assert loaded > len(JUNK)

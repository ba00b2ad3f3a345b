"""Project configuration and run manifests.

A project config points at the input documents (ontology, perception system,
compatibility matrix, effect knowledge, templates, events, compose policy)
and fixes the generation parameters. Input paths resolve relative to the
config file's directory; the output directory resolves relative to the
working directory at run time.

Every CLI run that writes outputs also writes a run manifest recording input
and output digests, the parameters used, result totals and timing. Apart
from the timing block, rerunning with unchanged inputs reproduces the
manifest byte for byte.
"""
from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import NamedTuple

from . import errors as E
from .docio import check_schema, dump_document, read_document
from .errors import DiagnosticSink, DocumentError, ToolkitError
from .generation import EffectKnowledgeBase, cross_validate_effects, effects_from_doc
from .ontology import SourceOntology, ontology_from_doc
from .perception import SensorSuite, cross_validate_suite, suite_from_doc
from .pipeline import cross_validate_template_bundles
from .relationships import CompatibilityMatrix, cross_validate_matrix, matrix_from_doc
from .templates import TemplateSet, cross_validate_templates, templates_from_doc
from .testcases import (
    ComposePolicy,
    HazardousEvent,
    cross_validate_events,
    events_from_doc,
    policy_from_doc,
)

__all__ = [
    "CONFIG_SCHEMA",
    "MANIFEST_SCHEMA",
    "ENV_CONFIG",
    "TOOL_NAME",
    "TOOL_VERSION",
    "ProjectConfig",
    "ProjectInputs",
    "read_config",
    "config_from_doc",
    "resolve_config_path",
    "load_inputs",
    "sha256_file",
    "build_manifest",
    "write_manifest",
    "strip_timing",
]

CONFIG_SCHEMA = "project-config@1"
MANIFEST_SCHEMA = "run-manifest@1"
ENV_CONFIG = "TRIGKIT_CONFIG"
TOOL_NAME = "trigkit"
TOOL_VERSION = "0.1.0"

#: Input name -> (ProjectInputs field, document loader, cross-check against
#: the ontology, whether the config may omit it). Inputs are read, cross-checked
#: and listed in manifests in this order.
_READERS = {
    "ontology": ("ontology", ontology_from_doc, None, False),
    "system": ("suite", suite_from_doc, cross_validate_suite, False),
    "matrix": ("matrix", matrix_from_doc, cross_validate_matrix, False),
    "effects": ("effects", effects_from_doc, cross_validate_effects, False),
    "templates": ("templates", templates_from_doc, cross_validate_templates, False),
    "events": ("events", events_from_doc, cross_validate_events, True),
    "policy": ("policy", policy_from_doc, None, True),
}


class ProjectConfig(NamedTuple):
    """Resolved input paths plus generation parameters."""

    path: Path  # the config file itself
    ontology: Path
    system: Path
    matrix: Path
    effects: Path
    templates: Path
    events: Path | None = None
    policy: Path | None = None
    output_dir: Path = Path("out")
    threshold: int = 2
    bundle_limit: int = 2
    expected_total: int | None = None

    def input_names(self) -> tuple[str, ...]:
        """The required inputs and the optional ones configured, in order."""
        return tuple(name for name, (*_, optional) in _READERS.items()
                     if not optional or getattr(self, name) is not None)

    def input_paths(self) -> list[Path]:
        return [getattr(self, name) for name in self.input_names()]


def resolve_config_path(cli_value: str | None) -> Path:
    """CLI flag wins over the environment variable; neither set is an error."""
    if cli_value:
        return Path(cli_value)
    env_value = os.environ.get(ENV_CONFIG)
    if env_value:
        return Path(env_value)
    raise ToolkitError(E.MISSING_INPUT,
                       f"no project config given; pass --config or set {ENV_CONFIG}")


def read_config(path: str | Path) -> ProjectConfig:
    path = Path(path)
    doc = read_document(path)
    return config_from_doc(doc, base_dir=path.parent, source=str(path), path=path)


def config_from_doc(doc: dict, *, base_dir: Path, source: str = "<document>",
                    path: Path | None = None) -> ProjectConfig:
    if not doc:
        raise DocumentError.at(E.EMPTY_CONFIG, "project config is empty", source)
    check_schema(doc, CONFIG_SCHEMA, source=source)
    sink = DiagnosticSink(file=source)

    inputs = sink.collection(doc, "inputs", mapping=True)
    paths = {}
    for name, (*_, optional) in _READERS.items():
        value = sink.text(inputs, name, "inputs", None, noun="path string") if optional \
            else sink.text(inputs, name, "inputs", noun="path string")
        paths[name] = None if value is None else (base_dir / value).resolve()

    parameters = sink.collection(doc, "parameters", mapping=True)
    threshold = sink.int_in(parameters, "threshold", 1, 3, "parameters", 2)
    bundle_limit = sink.int_in(parameters, "bundle_limit", 0, None, "parameters", 2)
    expected_total = sink.int_in(parameters, "expected_total", 0, None, "parameters", None)
    output_dir = sink.text(doc, "output_dir", "", "out", noun="path string")

    sink.raise_if_errors()
    return ProjectConfig(
        path=path if path is not None else base_dir / "<config>", **paths,
        output_dir=Path(output_dir), threshold=threshold, bundle_limit=bundle_limit,
        expected_total=expected_total)


# ---------------------------------------------------------------------------
# Input loading and cross-validation
# ---------------------------------------------------------------------------

class ProjectInputs(NamedTuple):
    """The documents one command read, cross-validated against the ontology;
    those it did not read are None. A finding raises instead of riding along."""

    ontology: SourceOntology
    suite: SensorSuite
    matrix: CompatibilityMatrix | None = None
    effects: EffectKnowledgeBase | None = None
    templates: TemplateSet | None = None
    events: tuple[HazardousEvent, ...] | None = None
    policy: ComposePolicy | None = None


def load_inputs(config: ProjectConfig, *,
                documents: tuple[str, ...] | None = None) -> ProjectInputs:
    """Load and cross-validate the input documents a command uses.

    ``documents`` names the inputs to read, ``ontology`` among them (every
    cross-check is against it); each must be configured. Without it the five
    required inputs are read, plus events and policy when the config names
    them. ``validate`` and ``generate`` read that default set; ``stages``
    reads ontology, system and matrix, ``matrix`` adds effects, and
    ``compose`` reads ontology, system, events and policy.
    Structural errors in any document raise immediately; cross-document
    dangling references are collected, each located at the document that
    names it, and raised together. Then, when both
    the templates and the matrix are read, each template must fit a bundle
    of candidate relations (``cross_validate_template_bundles``), or the
    templates file is refused.
    """
    if documents is None:
        documents = config.input_names()
    loaded = {}
    for name in documents:
        path = getattr(config, name)
        if path is None:
            raise DocumentError.at(E.MISSING_INPUT, f"config names no {name} input",
                                   str(config.path))
        loaded[name] = _READERS[name][1](read_document(path), source=str(path))

    findings = []
    for name, document in loaded.items():
        cross_validate = _READERS[name][2]
        if cross_validate is not None:
            sink = DiagnosticSink(file=str(getattr(config, name)))
            cross_validate(document, loaded["ontology"], sink)
            findings += sink.items
    if findings:
        raise DocumentError(findings)
    if "templates" in loaded and "matrix" in loaded:
        sink = DiagnosticSink(file=str(config.templates))
        cross_validate_template_bundles(loaded["templates"], loaded["matrix"],
                                        loaded["ontology"], sink)
        sink.raise_if_errors()
    return ProjectInputs(**{_READERS[name][0]: document
                            for name, document in loaded.items()})


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------

def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def build_manifest(command: str, parameters: dict, inputs: list[Path],
                   outputs: list[Path], totals: dict, warnings: int,
                   seconds: float) -> dict:
    return {
        "schema": MANIFEST_SCHEMA,
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "command": command,
        "parameters": parameters,
        "inputs": [{"path": str(p), "sha256": sha256_file(p)} for p in inputs],
        "outputs": [{"path": str(p), "sha256": sha256_file(p)} for p in outputs],
        "totals": totals,
        "warnings": warnings,
        "timing": {"seconds": round(seconds, 6)},
    }


def write_manifest(doc: dict, path: str | Path) -> None:
    Path(path).write_text(dump_document(doc), encoding="utf-8")


def strip_timing(doc: dict) -> dict:
    """Manifest comparison helper: everything but the timing block."""
    return {key: value for key, value in doc.items() if key != "timing"}

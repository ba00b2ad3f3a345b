"""Command-line workbench around the generation pipeline.

Subcommands mirror the pipeline: ``validate`` checks every configured input,
``stages`` and ``matrix`` inspect intermediate mappings, ``generate`` writes
the condition catalog, ``assess`` applies analyst ratings, ``compose`` pairs
conditions with hazardous events, and ``report`` renders the ranked summary.

Each command reads only the inputs it uses. ``validate`` and ``generate``
read and cross-check all configured documents (all seven in the bundled
project); ``stages`` reads the ontology, system and matrix, and ``matrix``
adds the effects; ``compose`` reads four: the ontology, system, events and
policy, next to the catalog it pairs. ``assess`` and ``report`` read no
configured input, only catalogs, cases, ratings and results.

Exit codes: 0 on success, 1 when input data fails validation or processing,
2 on usage errors, unreadable or empty project configuration.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import errors as E
from .config import (
    ProjectConfig,
    ProjectInputs,
    TOOL_VERSION,
    build_manifest,
    load_inputs,
    read_config,
    resolve_config_path,
    write_manifest,
)
from .docio import dump_bulk, dump_document, read_document
from .errors import Diagnostic, DocumentError, ToolkitError, format_diagnostic
from .generation import assess as assess_condition
from .generation import build_matrix, ratings_from_doc
from .ontology import lookup_concept
from .perception import STAGE_ORDER, affected_stages
from .pipeline import Catalog, candidate_relations, generate_catalog
from .relationships import compose_bundle
from .render import (
    catalog_from_doc,
    catalog_to_csv,
    catalog_to_doc,
    catalog_to_markdown,
    cases_from_doc,
    cases_to_doc,
    cases_to_markdown,
    matrix_to_csv,
    matrix_to_doc,
    matrix_to_markdown,
    render_report,
    report_to_doc,
)
from .templates import split_signature
from .testcases import ResultsLedger, compose

__all__ = ["main", "entrypoint"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigkit",
        description="Generate, assess and compose perception triggering "
                    "conditions from an ontology of triggering sources.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {TOOL_VERSION}")
    parser.add_argument("--config", metavar="PATH",
                        help="project config file (default: $TRIGKIT_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", help="load and cross-check every configured input")

    stages = sub.add_parser("stages", help="show the stages a source can degrade")
    stages.add_argument("--source", required=True, metavar="CONCEPT")
    stages.add_argument("--sensor", required=True, metavar="NAME")
    stages.add_argument("--relations", default="", metavar="SIGNATURE",
                        help="relation bundle, e.g. "
                             "'SpatialPosition.Occlusion(Pedestrian,TemporaryStructure)'")

    matrix = sub.add_parser("matrix", help="render the generation matrix for a source")
    matrix.add_argument("--source", required=True, metavar="CONCEPT")
    matrix.add_argument("--sensor", required=True, metavar="NAME")
    matrix.add_argument("--relations", default="", metavar="SIGNATURE")
    matrix.add_argument("--format", choices=("md", "csv", "json"), default="md")

    generate = sub.add_parser("generate", help="generate the condition catalog")
    generate.add_argument("--output-dir", metavar="DIR",
                          help="override the config's output directory")
    generate.add_argument("--sensor", action="append", metavar="NAME",
                          help="restrict generation to this sensor (repeatable)")

    assess = sub.add_parser("assess", help="apply exposure/criticality ratings")
    assess.add_argument("--ratings", required=True, metavar="PATH")
    assess.add_argument("--catalog", metavar="PATH",
                        help="catalog to rate (default: <output-dir>/catalog.json)")
    assess.add_argument("--output-dir", metavar="DIR")

    compose_cmd = sub.add_parser("compose",
                                 help="pair conditions with hazardous events")
    compose_cmd.add_argument("--catalog", metavar="PATH",
                             help="catalog to pair (default: "
                                  "<output-dir>/catalog_assessed.json or catalog.json)")
    compose_cmd.add_argument("--output-dir", metavar="DIR")

    report = sub.add_parser("report", help="render the ranked assessment report")
    report.add_argument("--catalog", metavar="PATH")
    report.add_argument("--cases", metavar="PATH",
                        help="composed cases (default: <output-dir>/test_cases.json "
                             "when it exists)")
    report.add_argument("--results", metavar="PATH",
                        help="JSON-lines results ledger")
    report.add_argument("--format", choices=("md", "json"), default="md")
    report.add_argument("--output", metavar="PATH",
                        help="write to a file instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)

    handler = {
        "validate": _cmd_validate,
        "stages": _cmd_stages,
        "matrix": _cmd_matrix,
        "generate": _cmd_generate,
        "assess": _cmd_assess,
        "compose": _cmd_compose,
        "report": _cmd_report,
    }[args.command]
    status = 2  # a failure before the config is read is a usage error
    try:
        config = read_config(resolve_config_path(args.config))
        status = 1
        return handler(args, config)
    except DocumentError as exc:
        for diag in exc.diagnostics:
            print(format_diagnostic(diag), file=sys.stderr)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except FileNotFoundError as exc:
        what = "config file" if status == 2 else "file"
        print(format_diagnostic(Diagnostic("error", E.MISSING_INPUT, f"{what} not found",
                                           exc.filename)), file=sys.stderr)
    except OSError as exc:  # a directory where a file belongs, and the like
        print(format_diagnostic(Diagnostic("error", E.UNUSABLE_PATH, exc.strerror or str(exc),
                                           exc.filename)), file=sys.stderr)
    return status


def entrypoint() -> None:  # console-script hook
    raise SystemExit(main())


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _output_dir(args, config: ProjectConfig) -> Path:
    override = getattr(args, "output_dir", None)
    directory = Path(override) if override else config.output_dir
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _bundle_from_args(args, inputs: ProjectInputs):
    """``--source`` and the bundle of its candidate relations that
    ``--relations`` names; any other relation is ``IncompatiblePair``."""
    source = lookup_concept(inputs.ontology, args.source)
    candidates = {rel.sort_key(): rel for rel in
                  candidate_relations(source, inputs.matrix, inputs.ontology)}
    relations = []
    for part in split_signature(args.relations):
        if part not in candidates:
            form_label, focal, partner = part
            raise ToolkitError(E.INCOMPATIBLE_PAIR,
                               f"{form_label}({focal},{partner}) is not a candidate "
                               f"relation of {source.name!r}")
        relations.append(candidates[part])
    return source, compose_bundle(source, relations)


def _default_catalog_path(args, config: ProjectConfig) -> Path:
    explicit = getattr(args, "catalog", None)
    if explicit:
        return Path(explicit)
    directory = Path(getattr(args, "output_dir", None) or config.output_dir)
    assessed = directory / "catalog_assessed.json"
    if assessed.exists():
        return assessed
    return directory / "catalog.json"


def _read_catalog_file(path: Path) -> Catalog:
    if not path.exists():
        raise DocumentError.at(E.MISSING_INPUT, "file not found; run 'generate' first",
                               str(path))
    return catalog_from_doc(read_document(path), source=str(path))


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def _print_warnings(warnings) -> None:
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _write_outputs(command: str, directory: Path, outputs: dict[Path, str],
                   parameters: dict, inputs: list[Path], totals: dict,
                   warnings: int, started: float) -> None:
    """Write each output file, then ``<command>.manifest.json`` in
    ``directory`` with their digests and the seconds since ``started``."""
    for path, text in outputs.items():
        path.write_text(text, encoding="utf-8")
    manifest = build_manifest(command, parameters, inputs, sorted(outputs), totals,
                              warnings, time.perf_counter() - started)
    write_manifest(manifest, directory / f"{command}.manifest.json")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args, config: ProjectConfig) -> int:
    inputs = load_inputs(config)
    _print_warnings(inputs.warnings)
    checked = config.input_paths()
    for path in checked:
        print(f"ok {path}")
    print(f"validated {len(checked)} documents, "
          f"{_count(len(inputs.warnings), 'warning')}")
    return 0


def _cmd_stages(args, config: ProjectConfig) -> int:
    inputs = load_inputs(config, documents=("ontology", "system", "matrix"))
    spec = inputs.suite.get(args.sensor)
    source, bundle = _bundle_from_args(args, inputs)
    stages = affected_stages(source, bundle.relations, spec, inputs.ontology)
    for stage in sorted(stages, key=lambda s: STAGE_ORDER[s]):
        print(stage)
    return 0


def _cmd_matrix(args, config: ProjectConfig) -> int:
    inputs = load_inputs(config, documents=("ontology", "system", "matrix", "effects"))
    spec = inputs.suite.get(args.sensor)
    source, bundle = _bundle_from_args(args, inputs)
    gen_matrix = build_matrix(bundle, spec, inputs.effects, inputs.ontology)
    if args.format == "json":
        sys.stdout.write(dump_document(matrix_to_doc(gen_matrix), fmt="json"))
    elif args.format == "csv":
        sys.stdout.write(matrix_to_csv(gen_matrix))
    else:
        sys.stdout.write(matrix_to_markdown(gen_matrix))
    return 0


def _cmd_generate(args, config: ProjectConfig) -> int:
    started = time.perf_counter()
    inputs = load_inputs(config)
    _print_warnings(inputs.warnings)
    sensors = tuple(dict.fromkeys(args.sensor)) if args.sensor else None
    catalog = generate_catalog(
        inputs.ontology, inputs.suite, inputs.matrix, inputs.effects,
        inputs.templates, threshold=config.threshold,
        bundle_limit=config.bundle_limit, sensors=sensors)

    directory = _output_dir(args, config)
    outputs = {
        directory / "catalog.json": dump_document(catalog_to_doc(catalog), fmt="json"),
        directory / "catalog.csv": catalog_to_csv(catalog),
        directory / "catalog.md": catalog_to_markdown(catalog),
    }
    totals: dict = {"conditions": len(catalog.conditions),
                    "by_sensor": catalog.count_by_sensor()}
    if config.expected_total is not None:
        totals["expected"] = config.expected_total
        totals["delta"] = len(catalog.conditions) - config.expected_total
    parameters = {"threshold": catalog.threshold,
                  "bundle_limit": catalog.bundle_limit,
                  "sensors": list(sensors) if sensors else "all"}
    _write_outputs("generate", directory, outputs, parameters,
                   [config.path] + config.input_paths(), totals,
                   len(catalog.warnings), started)

    summary = ", ".join(f"{sensor}: {count}" for sensor, count
                        in sorted(catalog.count_by_sensor().items()))
    print(f"generated {len(catalog.conditions)} conditions ({summary}) "
          f"-> {directory}")
    if "delta" in totals:
        print(f"expected {totals['expected']}, delta {totals['delta']:+d}")
    if catalog.warnings:
        print(f"{_count(len(catalog.warnings), 'warning')} recorded in the catalog",
              file=sys.stderr)
    return 0


def _cmd_assess(args, config: ProjectConfig) -> int:
    started = time.perf_counter()
    catalog_path = _default_catalog_path(args, config)
    catalog = _read_catalog_file(catalog_path)
    ratings_path = Path(args.ratings)
    ratings = ratings_from_doc(read_document(ratings_path), source=str(ratings_path))

    known = {condition.id for condition in catalog.conditions}
    missing = sorted(set(ratings) - known)
    if missing:
        raise DocumentError.at(E.UNKNOWN_CONDITION, f"ratings reference unknown "
                               f"condition ids: {', '.join(missing)}", str(ratings_path))
    conditions = tuple(
        assess_condition(c, ratings[c.id]) if c.id in ratings else c
        for c in catalog.conditions)
    catalog = catalog._replace(conditions=conditions)

    directory = _output_dir(args, config)
    out_path = directory / "catalog_assessed.json"
    rated = sum(1 for c in conditions if c.assessment is not None)
    _write_outputs("assess", directory,
                   {out_path: dump_document(catalog_to_doc(catalog), fmt="json")},
                   {"ratings": str(ratings_path)},
                   [config.path, catalog_path, ratings_path],
                   {"conditions": len(conditions), "rated": rated,
                    "unrated": len(conditions) - rated}, 0, started)
    print(f"rated {rated} of {len(conditions)} conditions "
          f"({len(conditions) - rated} unrated) -> {out_path}")
    return 0


#: The inputs ``compose`` reads, in the order its manifest lists them.
_COMPOSE_INPUTS = ("ontology", "system", "events", "policy")
#: The fewest cases ``compose`` writes with ``dump_bulk``. Importing orjson
#: after trigkit costs 5-9 ms and 0.3-0.6 MB of peak RSS; it then saves 7-10 us
#: a case (24-34 ms -> 3 ms on 2,990 cases, Python 3.11 on a 2-vCPU VM), so it
#: breaks even near 850-900 cases. The bundled project's 61 cases never load it.
_BULK_CASES = 1000


def _cmd_compose(args, config: ProjectConfig) -> int:
    started = time.perf_counter()
    inputs = load_inputs(config, documents=_COMPOSE_INPUTS)
    catalog_path = _default_catalog_path(args, config)
    catalog = _read_catalog_file(catalog_path)
    try:
        cases, warnings = compose(catalog.conditions, inputs.events, inputs.suite,
                                  inputs.policy)
    except ToolkitError as exc:  # compose raises only for a sensor the catalog names
        raise DocumentError.at(exc.code, exc.args[0], str(catalog_path)) from None
    _print_warnings(warnings)

    directory = _output_dir(args, config)
    out_path = directory / "test_cases.json"
    by_event: dict[str, int] = {}
    for case in cases:
        by_event[case.event_id] = by_event.get(case.event_id, 0) + 1
    doc = cases_to_doc(cases, warnings)
    text = dump_bulk(doc) if len(cases) >= _BULK_CASES else dump_document(doc, fmt="json")
    _write_outputs("compose", directory,
                   {out_path: text,
                    directory / "test_cases.md": cases_to_markdown(cases)},
                   {}, [config.path, catalog_path]
                   + [getattr(config, name) for name in _COMPOSE_INPUTS],
                   {"test_cases": len(cases), "by_event": by_event,
                    "conditions": len(catalog.conditions)},
                   len(warnings), started)
    print(f"composed {len(cases)} test cases from {len(catalog.conditions)} "
          f"conditions -> {out_path}")
    return 0


def _cmd_report(args, config: ProjectConfig) -> int:
    catalog = _read_catalog_file(_default_catalog_path(args, config))
    cases = ()
    cases_path = Path(args.cases) if args.cases \
        else Path(config.output_dir) / "test_cases.json"
    if args.cases or cases_path.exists():
        cases = cases_from_doc(read_document(cases_path), source=str(cases_path))
    results = ResultsLedger(args.results).read() if args.results else []

    if args.format == "json":
        text = dump_document(report_to_doc(catalog, cases, results), fmt="json")
    else:
        text = render_report(catalog, cases, results)
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"report -> {args.output}")
    else:
        sys.stdout.write(text)
    return 0

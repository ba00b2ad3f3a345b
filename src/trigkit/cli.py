"""Command-line workbench around the generation pipeline.

Subcommands mirror the pipeline: ``validate`` checks every configured input,
``stages`` and ``matrix`` inspect intermediate mappings, ``generate`` writes
the condition catalog, ``compose`` pairs conditions with hazardous events, and
``report`` renders the summary, ranked by the analyst ratings it is given.

Each command reads only the inputs it uses. ``validate`` and ``generate``
read and cross-check all configured documents (all seven in the bundled
project); ``stages`` reads the ontology, system and matrix, and ``matrix``
adds the effects; ``compose`` reads four: the ontology, system, events and
policy, next to the catalog it pairs. ``report`` reads no configured input,
only the catalog, cases, ratings and results.

A run's files sit in its catalog's directory: ``compose`` and ``report`` read
``--catalog``, else ``catalog.json`` in the config's ``output_dir``, and the
cases next to it. ``generate`` writes to ``--output-dir`` or ``output_dir`` and
deletes the cases and the ``report.md`` there, which were made from the catalog
it replaced; a report written under any other name or path is left alone.

``main(argv)`` may be called from Python, repeatedly, in one process: it
returns the exit code. The argument parser is built on the first call and
reused; nothing read from an input is kept between calls. ``main`` pauses the
cyclic garbage collector while the command runs and leaves it enabled or
disabled as it found it, also when the command fails: a command builds no
reference cycles, so a collection during it would free nothing. (argparse,
building the parser, and a library imported on first use leave a few, once
per process; the collector frees them when it next runs.)

Exit codes: 0 on success, 1 when input data fails validation or processing,
2 on usage errors, unreadable or empty project configuration.
"""
from __future__ import annotations

import argparse
import functools
import gc
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
from .generation import build_matrix
from .ontology import lookup_concept
from .perception import STAGE_ORDER, affected_stages
from .pipeline import Catalog, candidate_relations, generate_catalog
from .relationships import RelationshipBundle
from .render import (
    catalog_from_doc,
    catalog_to_csv,
    catalog_to_doc,
    catalog_to_markdown,
    cases_from_doc,
    cases_to_doc,
    cases_to_markdown,
    count_conditions,
    matrix_to_csv,
    matrix_to_doc,
    matrix_to_markdown,
    ratings_from_doc,
    render_report,
    report_to_doc,
)
from .templates import split_signature
from .testcases import ResultsLedger, compose

__all__ = ["main", "entrypoint"]


@functools.cache  # built on the first main() call, not at import; it holds no input
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigkit",
        description="Generate, compose and rank perception triggering "
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
                          help="default: the config's output directory")
    generate.add_argument("--sensor", action="append", metavar="NAME",
                          help="restrict generation to this sensor (repeatable)")

    compose_cmd = sub.add_parser("compose",
                                 help="pair conditions with hazardous events")
    compose_cmd.add_argument("--catalog", metavar="PATH", help="default: catalog.json in "
                             "the config's output directory; cases are written beside it")

    report = sub.add_parser("report", help="render the ranked assessment report")
    report.add_argument("--catalog", metavar="PATH",
                        help="default: catalog.json in the config's output directory; "
                             "the cases next to it are read if they exist")
    report.add_argument("--ratings", metavar="PATH",
                        help="exposure/criticality ratings to rank by")
    report.add_argument("--results", metavar="PATH",
                        help="JSON-lines results ledger")
    report.add_argument("--format", choices=("md", "json"), default="md")
    report.add_argument("--output", metavar="PATH",
                        help="write to a file instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()  # a command builds no reference cycles (see the module docstring)
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv: list[str] | None) -> int:
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

def _bundle_from_args(args, inputs: ProjectInputs):
    """``--source`` and the bundle of its candidate relations that
    ``--relations`` names; any other relation is ``IncompatiblePair``."""
    source = lookup_concept(inputs.ontology, args.source)
    candidates = {rel.sort_key(): rel for rel in
                  candidate_relations(source, inputs.matrix, inputs.ontology)}
    parts = split_signature(args.relations)
    for part in parts:
        if part not in candidates:
            form_label, focal, partner = part
            raise ToolkitError(E.INCOMPATIBLE_PAIR,
                               f"{form_label}({focal},{partner}) is not a candidate "
                               f"relation of {source.name!r}")
    # a candidate's key is its sort key, so sorted keys give the canonical order
    return source, RelationshipBundle(source.name,
                                      tuple(candidates[p] for p in sorted(set(parts))))


def _read_catalog(args, config: ProjectConfig) -> tuple[Path, Catalog]:
    path = Path(args.catalog or config.output_dir / "catalog.json")
    if not path.exists():
        raise DocumentError.at(E.MISSING_INPUT, "file not found; run 'generate' first",
                               str(path))
    return path, catalog_from_doc(read_document(path), source=str(path))


def _check_known(ids, catalog: Catalog, what: str, path: Path) -> None:
    """``UnknownCondition`` at ``path`` unless the catalog holds every id of
    ``ids``, which the ``what`` document names."""
    missing = set(ids).difference(condition.id for condition in catalog.conditions)
    if missing:
        raise DocumentError.at(E.UNKNOWN_CONDITION, f"{what} reference unknown "
                               f"condition ids: {', '.join(sorted(missing))}", str(path))


def _write_outputs(command: str, directory: Path, outputs: dict[Path, str | bytes],
                   parameters: dict, inputs: list[Path], totals: dict,
                   warnings: int, started: float) -> None:
    """Make ``directory``, write each output file, text as UTF-8 and bytes as
    they are, then ``<command>.manifest.json`` in ``directory`` with their
    digests and the seconds since ``started``."""
    directory.mkdir(parents=True, exist_ok=True)
    for path, data in outputs.items():
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    manifest = build_manifest(command, parameters, inputs, sorted(outputs), totals,
                              warnings, time.perf_counter() - started)
    write_manifest(manifest, directory / f"{command}.manifest.json")


#: The fewest cases ``compose`` writes with ``dump_bulk``. Importing orjson
#: after trigkit costs 5-9 ms and 0.3-0.6 MB of peak RSS; it then saves 7-10 us
#: a case (24-34 ms -> 3 ms on 2,990 cases, Python 3.11 on a 2-vCPU VM), so it
#: breaks even near 850-900 cases. The bundled project's 61 cases never load it.
_BULK_CASES = 1000
#: The fewest conditions ``generate`` writes with ``dump_bulk``.
#: In fresh children, importing orjson after trigkit took 6.8-8.2 ms (9
#: children); it then saves 15-25 us a condition against writing the text
#: (13.5 ms -> 0.8 ms on 524 conditions, Python 3.11 on a 2-vCPU VM), so it
#: breaks even near 270-550 conditions. The bundled 49 never load it.
_BULK_CONDITIONS = 400


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args, config: ProjectConfig) -> int:
    load_inputs(config)
    checked = config.input_paths()
    for path in checked:
        print(f"ok {path}")
    print(f"validated {len(checked)} documents, 0 warnings")
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
        sys.stdout.write(dump_document(matrix_to_doc(gen_matrix)))
    elif args.format == "csv":
        sys.stdout.write(matrix_to_csv(gen_matrix))
    else:
        sys.stdout.write(matrix_to_markdown(gen_matrix))
    return 0


def _cmd_generate(args, config: ProjectConfig) -> int:
    started = time.perf_counter()
    inputs = load_inputs(config)
    sensors = tuple(dict.fromkeys(args.sensor)) if args.sensor else None
    catalog = generate_catalog(
        inputs.ontology, inputs.suite, inputs.matrix, inputs.effects,
        inputs.templates, threshold=config.threshold,
        bundle_limit=config.bundle_limit, sensors=sensors)

    directory = Path(args.output_dir or config.output_dir)
    doc = catalog_to_doc(catalog)
    outputs = {
        directory / "catalog.json": (
            dump_bulk(doc) if len(catalog.conditions) >= _BULK_CONDITIONS
            else dump_document(doc)),
        directory / "catalog.csv": catalog_to_csv(catalog),
        directory / "catalog.md": catalog_to_markdown(catalog),
    }
    totals: dict = {"conditions": len(catalog.conditions),
                    "by_sensor": catalog.count_by_sensor()}
    whole_suite = sensors is None or {s.sensor for s in inputs.suite.sensors} <= set(sensors)
    if config.expected_total is not None and whole_suite:
        totals["expected"] = config.expected_total
        totals["delta"] = len(catalog.conditions) - config.expected_total
    parameters = {"threshold": catalog.threshold,
                  "bundle_limit": catalog.bundle_limit,
                  "sensors": list(sensors) if sensors else "all"}
    _write_outputs("generate", directory, outputs, parameters,
                   [config.path] + config.input_paths(), totals,
                   len(catalog.warnings), started)

    print(f"generated {count_conditions(catalog, 'conditions')} -> {directory}")
    if "delta" in totals:
        print(f"expected {totals['expected']}, delta {totals['delta']:+d}")
    if catalog.warnings:
        count = len(catalog.warnings)
        print(f"{count} warning{'' if count == 1 else 's'} recorded in the catalog",
              file=sys.stderr)
    for name, made in (("test_cases.json", "composed"), ("test_cases.md", "composed"),
                       ("compose.manifest.json", "composed"), ("report.md", "rendered")):
        if (directory / name).exists():
            (directory / name).unlink()
            print(f"deleted {directory / name}, {made} from the previous catalog")
    return 0


#: The inputs ``compose`` reads, in the order its manifest lists them.
_COMPOSE_INPUTS = ("ontology", "system", "events", "policy")


def _cmd_compose(args, config: ProjectConfig) -> int:
    started = time.perf_counter()
    inputs = load_inputs(config, documents=_COMPOSE_INPUTS)
    catalog_path, catalog = _read_catalog(args, config)
    try:
        cases, warnings = compose(catalog.conditions, inputs.events, inputs.suite,
                                  inputs.policy)
    except ToolkitError as exc:  # compose raises only for a sensor the catalog names
        raise DocumentError.at(exc.code, exc.args[0], str(catalog_path)) from None
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)

    directory = catalog_path.parent
    out_path = directory / "test_cases.json"
    by_event: dict[str, int] = {}
    for case in cases:
        by_event[case.event_id] = by_event.get(case.event_id, 0) + 1
    doc = cases_to_doc(cases, warnings)
    _write_outputs("compose", directory,
                   {out_path: (dump_bulk(doc) if len(cases) >= _BULK_CASES
                               else dump_document(doc)),
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
    catalog_path, catalog = _read_catalog(args, config)
    cases = ()
    cases_path = catalog_path.parent / "test_cases.json"
    if cases_path.exists():
        cases = cases_from_doc(read_document(cases_path), source=str(cases_path))
        _check_known((case.condition_id for case in cases), catalog, "cases", cases_path)
    ratings = {}
    if args.ratings:
        ratings_path = Path(args.ratings)
        ratings = ratings_from_doc(read_document(ratings_path), source=str(ratings_path))
        _check_known(ratings, catalog, "ratings", ratings_path)
    results = ResultsLedger(args.results).read() if args.results else []

    if args.format == "json":
        text = dump_document(report_to_doc(catalog, cases, results, ratings))
    else:
        text = render_report(catalog, cases, results, ratings)
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"report -> {args.output}")
    else:
        sys.stdout.write(text)
    return 0

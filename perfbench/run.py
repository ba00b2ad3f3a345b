"""trigkit benchmark: the ``generate -> compose -> report`` chain, end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One op is one chain of the three commands, run by one client, one op at a
time (closed loop). A run sets the workload up ``SETUP_ROUNDS`` times (build
the inputs, import trigkit, validate, one warm-up op), then runs ops for
``--seconds`` seconds. Every op's outputs are checked against references that
do not come from trigkit: the golden rows and fixed totals of the bundled
corpus, or the brute-force enumerator in ``oracle.py`` for the synthetic
corpus, plus byte-identity across the ops of the run.

Times are wall times scaled to a reference host speed: ``host_probe()`` runs
before and after every command, and each command's wall time is multiplied
by ``REFERENCE_PROBE_S`` over the mean of its two probes. The unscaled
medians are printed too.

With ``--trace 0`` the result holds the end-to-end metrics, measured with no
tracing. With ``--trace 1`` untraced and traced ops alternate and the result
holds the per-layer metrics taken by ``layers.Tracer``.

Human-readable lines come first; the last line of standard output is the
result as one JSON object. The exit code is 0 only when every op passed.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import marshal
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import yaml

import synth
from layers import OP, PARENT, Tracer, op_layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN_CSV = ROOT / "tests" / "data" / "reference_conditions.csv"
BUNDLED_DATA = SRC / "trigkit" / "data"

SETUP_ROUNDS = 3
# Seconds host_probe() takes on the reference machine when it is quiet.
# Every reported time is wall time scaled by REFERENCE_PROBE_S over the probe
# time measured next to it; changing this constant changes every figure.
REFERENCE_PROBE_S = 0.020
STARTUP_SAMPLES = 3
CHILD_TIMEOUT_S = 60

# Totals of the bundled corpus; bundle_limit 2 and 3 give the same catalog.
SWEEPER_CONDITIONS = {"Camera": 27, "LiDAR": 22}
SWEEPER_CASES = 61

END_TO_END = {
    "generate_s": "s",
    "compose_s": "s",
    "report_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: per-layer metric -> unit; each is the median over a run's traced ops.
PER_LAYER = {
    "generation.build_matrix.s": "s",
    "generation.build_matrix.calls": "count",
    "generation.build_matrix.empty": "count",
    "generation.build_matrix.cells": "count",
    "generation.build_matrix.us_per_call": "us",
    "generation.productive_matrices": "count",
    "generation.productive_ratio": "ratio",
    "pipeline.candidate_relations.s": "s",
    "pipeline.candidate_relations.candidates": "count",
    "pipeline.enumerate_bundles.self_s": "s",
    "pipeline.enumerate_bundles.bundles": "count",
    "pipeline.generate_catalog.self_s": "s",
    "generation.worst_case_filter.s": "s",
    "generation.worst_case_filter.kept": "count",
    "generation.positive_cells.s": "s",
    "generation.synthesize_conditions.s": "s",
    "generation.synthesize_conditions.conditions": "count",
    "docio.parse_document.yaml_s": "s",
    "docio.parse_document.yaml_bytes": "bytes",
    "docio.parse_document.json_s": "s",
    "docio.parse_document.json_bytes": "bytes",
    "config.load_inputs.s": "s",
    "config.load_inputs.self_s": "s",
    "config.load_inputs.calls": "count",
    "cli.import_s": "s",
    "cli.process_start_s": "s",
    "render.catalog_to_doc.s": "s",
    "render.catalog_to_csv.s": "s",
    "render.catalog_to_markdown.s": "s",
    "docio.dump_document.s": "s",
    "docio.dump_document.bytes": "bytes",
    "config.build_manifest.s": "s",
    "config.build_manifest.bytes_hashed": "bytes",
    "render.catalog_from_doc.s": "s",
    "render.cases_to_doc.s": "s",
    "render.cases_to_markdown.s": "s",
    "render.cases_from_doc.s": "s",
    "render.render_report.s": "s",
    "testcases.compose.s": "s",
    "testcases.compose.cases": "count",
    "testcases.compose.warnings": "count",
    "cli.generate.self_s": "s",
    "cli.compose.self_s": "s",
    "cli.report.self_s": "s",
    "trace.pipeline_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

STEPS = (("generate", ["generate"]),
         ("compose", ["compose"]),
         ("report", ["report", "--output", "out/report.md"]))
CHECKED_FILES = ("catalog.json", "catalog.csv", "test_cases.json", "report.md",
                 "generate.manifest.json", "compose.manifest.json")


class SetupError(Exception):
    """The workload could not be set up; no op can be measured."""


@dataclass
class Op:
    traced: bool
    wall: dict[str, float] = field(default_factory=dict)  # measured seconds
    seconds: dict[str, float] = field(default_factory=dict)  # at reference speed
    scale: float = 1.0  # REFERENCE_PROBE_S / the op's mean probe time
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def _child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

def _sweeper_l3_config(inputs: Path, seed: int) -> Path:
    """The bundled config with absolute input paths and bundle_limit 3."""
    doc = yaml.safe_load((BUNDLED_DATA / "project.yaml").read_text(encoding="utf-8"))
    doc["inputs"] = {key: str(BUNDLED_DATA / value) for key, value in doc["inputs"].items()}
    doc["parameters"]["bundle_limit"] = 3
    doc["output_dir"] = "out"
    inputs.mkdir(parents=True, exist_ok=True)
    path = inputs / "project.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return path


def _shipped_config(inputs: Path, seed: int) -> Path:
    return BUNDLED_DATA / "project.yaml"


#: workload -> writes its inputs, returns the config path. Why each workload
#: exists is in BENCHMARK.json and README.md.
PREPARE = {"sweeper-l3": _sweeper_l3_config, "synth-wide": synth.write_corpus,
           "cli-sweeper": _shipped_config}


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

class Bench:
    """One run of one workload: its set-up, ops, checks and trace."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.in_process = workload != "cli-sweeper"
        self.config: Path | None = None
        self.reference: dict[str, object] | None = None
        self.tracer = Tracer()
        self.ops: list[Op] = []

    # -- one command ------------------------------------------------------

    def _in_process(self, argv: list[str]) -> tuple[float, str | None, str]:
        from trigkit.cli import main
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            try:
                code = main(argv)
            except Exception:
                return time.perf_counter() - started, traceback.format_exc(), ""
            elapsed = time.perf_counter() - started
        problem = None if code == 0 else f"exit {code}: {err.getvalue()[-500:]}"
        return elapsed, problem, out.getvalue()

    def _subprocess(self, argv: list[str], spans: Path | None = None
                    ) -> tuple[float, str | None, str]:
        started = time.perf_counter()
        if spans is None:
            cmd = [sys.executable, "-m", "trigkit", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "tracechild.py"), str(spans),
                   repr(started), *argv]
        proc = subprocess.run(cmd, cwd=self.workdir, env=_child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        ended = time.perf_counter()
        problem = None
        if proc.returncode != 0 or "Traceback" in proc.stderr:
            problem = f"exit {proc.returncode}: {proc.stderr[-500:]}"
        elif spans is not None:
            self._absorb_child(spans, ended)
        return ended - started, problem, proc.stdout

    def command(self, argv: list[str], traced: bool = False, step: str = ""
                ) -> tuple[float, str | None, str]:
        argv = ["--config", str(self.config), *argv]
        if not self.in_process:
            spans = self.workdir / f"spans-{step}.marshal" if traced else None
            return self._subprocess(argv, spans)
        if not traced:
            return self._in_process(argv)
        with self.tracer.installed():
            with self.tracer.span(f"cli.{step}"):
                return self._in_process(argv)

    def _absorb_child(self, spans_path: Path, ended: float) -> None:
        """Fold one traced child's spans into the tracer as the current op.

        The time from the child's last record to its exit seen here becomes
        the root span ``cli.process_exit`` (interpreter shutdown).
        """
        with open(spans_path, "rb") as handle:
            spans, counters = marshal.load(handle)
            spans.append(["cli.process_exit", marshal.load(handle), ended, -1, 0])
        offset = len(self.tracer.spans)
        for span in spans:
            if span[PARENT] >= 0:
                span[PARENT] += offset
            span[OP] = self.tracer.op
            self.tracer.spans.append(span)
        for key, n in counters.items():
            self.tracer.add(key, n)

    # -- one op -----------------------------------------------------------

    def run_op(self, traced: bool) -> Op:
        op = Op(traced=traced)
        shutil.rmtree(self.workdir / "out", ignore_errors=True)
        self.tracer.op = len(self.ops)
        first_span = len(self.tracer.spans)
        probes = [host_probe()]
        for step, argv in STEPS:
            wall, problem, _ = self.command(argv, traced, step)
            probes.append(host_probe())
            op.wall[step] = wall
            op.seconds[step] = wall * REFERENCE_PROBE_S / statistics.mean(probes[-2:])
            if problem is not None:
                op.problems.append(f"{step}: {problem}")
                break
        op.wall["pipeline"] = sum(op.wall.values())
        op.seconds["pipeline"] = sum(op.seconds.values())
        op.scale = REFERENCE_PROBE_S / statistics.mean(probes)
        if not op.problems:
            op.problems.extend(self.check_outputs())
        if traced and not op.problems:
            op.layers = self._op_layers(op, first_span)
        self.ops.append(op)
        return op

    def _op_layers(self, op: Op, first_span: int) -> dict[str, float]:
        spans = self.tracer.spans
        layers = op_layers(spans, first_span,
                           self.tracer.counters.get(self.tracer.op, {}))
        calls = layers.get("generation.build_matrix.calls", 0)
        layers["generation.build_matrix.us_per_call"] = \
            layers.get("generation.build_matrix.s", 0.0) / calls * 1e6 if calls else 0.0
        layers["generation.productive_ratio"] = \
            layers.get("generation.productive_matrices", 0) / calls if calls else 0.0
        for fmt in ("yaml", "json"):
            layers[f"docio.parse_document.{fmt}_s"] = \
                layers.get(f"docio.parse_document.{fmt}.s", 0.0)
        layers["trace.pipeline_s"] = op.wall["pipeline"]
        if self.in_process:
            covered = layers["layers_s"]
        else:
            # Per child: interpreter start and exit, the import and the
            # layers under the command span.
            covered = layers["layers_s"] + layers["cli.import.s"] \
                + layers["cli.process_start.s"] + layers["cli.process_exit.s"]
        layers["trace.coverage"] = covered / op.wall["pipeline"]
        for name, unit in PER_LAYER.items():
            if unit in ("s", "us") and name in layers:
                layers[name] *= op.scale
        return layers

    # -- checks -----------------------------------------------------------

    def check_outputs(self) -> list[str]:
        out = self.workdir / "out"
        try:
            files = {name: (out / name).read_bytes() for name in CHECKED_FILES}
        except FileNotFoundError as exc:
            return [f"missing output {exc.filename}"]
        catalog = json.loads(files["catalog.json"])
        cases = json.loads(files["test_cases.json"])
        problems = []
        snapshot: dict[str, object] = {
            name: _sha256(files[name])
            for name in ("catalog.json", "test_cases.json", "report.md")}
        for name in ("generate.manifest.json", "compose.manifest.json"):
            manifest = json.loads(files[name])
            manifest.pop("timing", None)
            snapshot[name] = manifest
        if self.reference is None:
            self.reference = snapshot
        for name, expected in self.reference.items():
            if snapshot[name] != expected:
                problems.append(f"{name} differs from the run's first op")

        if self.workload != "synth-wide":
            problems.extend(_check_sweeper(catalog, cases, files["catalog.csv"]))
        if self.tracer.op in self.tracer.counters:
            counts = self.tracer.counters[self.tracer.op]
            if counts.get("generation.synthesize_conditions.conditions") \
                    != len(catalog["conditions"]):
                problems.append("traced condition count differs from the catalog")
            if counts.get("testcases.compose.cases") != len(cases["cases"]):
                problems.append("traced case count differs from test_cases.json")
        return problems

    # -- set-up -----------------------------------------------------------

    def validate(self) -> None:
        argv = ["--config", str(self.config), "validate"]
        if self.in_process:
            _, problem, stdout = self._in_process(argv)
        else:
            _, problem, stdout = self._subprocess(argv)
        if problem is not None:
            raise SetupError(f"validate failed: {problem}")
        if not stdout.rstrip().endswith(", 0 warnings"):
            raise SetupError(f"validate reported warnings: {stdout[-300:]}")

    def setup(self) -> list[float]:
        """Set the workload up SETUP_ROUNDS times; return each round's seconds."""
        rounds = []
        inputs_digest = None
        for _ in range(SETUP_ROUNDS):
            probe_before = host_probe()
            started = time.perf_counter()
            self.config = PREPARE[self.workload](self.workdir / "inputs", self.seed)
            built = time.perf_counter() - started
            digest = _tree_digest(self.config.parent)
            if inputs_digest not in (None, digest):
                raise SetupError("the same seed wrote different inputs")
            inputs_digest = digest
            import_s = measure_import() if self.in_process else 0.0
            started = time.perf_counter()
            self.validate()
            validated = time.perf_counter() - started
            op = self.run_op(traced=False)
            # The warm-up op counts by its commands' wall time, without the
            # benchmark's own probes and output checks.
            wall = built + import_s + validated + op.wall["pipeline"]
            rounds.append(wall * REFERENCE_PROBE_S
                          / statistics.mean((probe_before, host_probe())))
            if op.problems:
                raise SetupError(f"warm-up op failed: {op.problems}")
        return rounds

    def check_oracle(self) -> list[str]:
        """Compare the run's catalog ids with the brute-force enumeration."""
        from oracle import oracle_ids
        from trigkit.config import load_inputs, read_config
        config = read_config(self.config)
        inputs = load_inputs(config)
        expected = oracle_ids(inputs.ontology, inputs.suite, inputs.matrix,
                              inputs.effects, config.threshold, config.bundle_limit)
        catalog = json.loads((self.workdir / "out" / "catalog.json").read_bytes())
        actual = {c["id"] for c in catalog["conditions"]}
        if actual != expected:
            return [f"catalog ids differ from the enumerator: {len(expected - actual)} "
                    f"missing, {len(actual - expected)} extra"]
        return []


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.yaml")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _check_sweeper(catalog: dict, cases: dict, catalog_csv: bytes) -> list[str]:
    problems = []
    fields = ("Sensor", "Triggering sources", "Properties", "Process stage",
              "Triggering condition")
    with open(GOLDEN_CSV, encoding="utf-8", newline="") as handle:
        golden = [tuple(row[f] for f in fields) for row in csv.DictReader(handle)]
    rows = {tuple(row[f] for f in fields)
            for row in csv.DictReader(io.StringIO(catalog_csv.decode("utf-8")))}
    missing = [row for row in golden if row not in rows]
    if len(golden) != 20 or missing:
        problems.append(f"{len(missing)} of {len(golden)} golden rows missing")
    by_sensor: dict[str, int] = {}
    for condition in catalog["conditions"]:
        by_sensor[condition["sensor"]] = by_sensor.get(condition["sensor"], 0) + 1
    if by_sensor != SWEEPER_CONDITIONS:
        problems.append(f"conditions by sensor {by_sensor} != {SWEEPER_CONDITIONS}")
    if len(cases["cases"]) != SWEEPER_CASES:
        problems.append(f"{len(cases['cases'])} cases != {SWEEPER_CASES}")
    return problems


# ---------------------------------------------------------------------------
# Host speed and interpreter start-up
# ---------------------------------------------------------------------------

def host_probe() -> float:
    """Seconds this process takes for a fixed bit of dict-building Python.

    The machine's speed drifts by up to 2x within minutes as its neighbours'
    load changes, and that drift moves the probe and trigkit's commands
    alike. Timing the probe next to every command and scaling the command's
    wall time by REFERENCE_PROBE_S / probe time reports each time at one
    reference speed. The probe builds small dicts, so it leaves peak memory
    alone, and it does not touch trigkit.
    """
    started = time.perf_counter()
    for _ in range(200):
        table = {i: str(i) for i in range(1000)}
    del table
    return time.perf_counter() - started


def measure_import() -> float:
    """Seconds a fresh interpreter spends in ``import trigkit.cli``."""
    code = ("import time; t = time.perf_counter(); import trigkit.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return float(proc.stdout)


def measure_process_start() -> float:
    """Wall seconds of a bare interpreter that does nothing."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=_child_env(),
                   timeout=CHILD_TIMEOUT_S, check=True)
    return time.perf_counter() - started


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, int, int]:
    """Run the workload; return (metrics, attempted, failed)."""
    if bench.in_process:
        import trigkit.cli  # noqa: F401  (its cost is counted by measure_import)
    setup_rounds = bench.setup()
    timed: list[Op] = []
    gc.collect()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(timed) < (2 if trace else 1):
        timed.append(bench.run_op(traced=trace and len(timed) % 2 == 1))
        gc.collect()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF if bench.in_process
                                 else resource.RUSAGE_CHILDREN).ru_maxrss
    if bench.workload == "synth-wide":
        # Every op wrote the same catalog bytes, so one comparison covers all.
        for problem in bench.check_oracle():
            for op in bench.ops:
                op.problems.append(problem)
    failed = sum(1 for op in bench.ops if op.problems)
    for op in bench.ops:
        for problem in op.problems:
            print(f"FAILED op: {problem}")

    plain = [op for op in timed if not op.traced and not op.problems]
    run_scale = _median([op.scale for op in timed])
    print(f"host speed: probe {REFERENCE_PROBE_S / run_scale * 1e3:.2f} ms "
          f"(reference {REFERENCE_PROBE_S * 1e3:.0f} ms), times scaled by "
          f"{run_scale:.3f}")
    if not trace:
        metrics = {}
        for step in ("generate", "compose", "report", "pipeline"):
            metrics[f"{step}_s"] = _median([op.seconds[step] for op in plain])
            print(f"unscaled {step}_s: {_median([op.wall[step] for op in plain]):.6g} s")
        metrics["peak_rss_mb"] = peak_kb / 1024
        metrics["setup_s"] = _median(setup_rounds)
        print(f"ops timed: {len(plain)}; setup rounds: {len(setup_rounds)}")
    else:
        traced = [op for op in timed if op.traced and not op.problems]
        table = {name: _median([op.layers.get(name, 0.0) for op in traced])
                 for name in PER_LAYER}
        table["cli.process_start_s"] = run_scale * _median(
            [measure_process_start() for _ in range(STARTUP_SAMPLES)])
        table["cli.import_s"] = run_scale * _median(
            [measure_import() for _ in range(STARTUP_SAMPLES)])
        table["trace.overhead_s"] = (
            _median([op.seconds["pipeline"] for op in traced])
            - _median([op.seconds["pipeline"] for op in plain]))
        metrics = {name: table[name] for name in PER_LAYER}
        print(f"ops timed: {len(plain)} untraced, {len(traced)} traced")
        spans_path = WORK / f"spans-{bench.workload}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"],
             "spans": bench.tracer.spans, "counters": bench.tracer.counters}),
            encoding="utf-8")
        print(f"spans written to {spans_path}")
    catalog = bench.workdir / "out" / "catalog.json"
    if catalog.exists():
        print(f"catalog_sha256 {_sha256(catalog.read_bytes())}")
    return metrics, len(bench.ops), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PREPARE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trigkit" / "cli.py").is_file():
        print(f"error: no trigkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    previous_cwd = os.getcwd()
    os.chdir(workdir)  # the configs write to "out" under the working directory
    try:
        bench = Bench(args.workload, args.seed, workdir)
        try:
            metrics, attempted, failed = measure(bench, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"FAILED setup: {exc}")
            print(json.dumps({"correct": False, "attempted": max(1, len(bench.ops)),
                              "failed": max(1, len(bench.ops)), "metrics": {}}))
            return 1
    finally:
        os.chdir(previous_cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    result = {}
    for name, value in metrics.items():
        unit = units[name]
        result[name] = {"value": value, "unit": unit}
        print(f"{name:45s} {value:.6g} {unit}")
    print(f"{'error_rate':45s} {failed / attempted:.6g} ({failed}/{attempted} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

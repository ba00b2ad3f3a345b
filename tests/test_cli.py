"""Command-line workbench, exercised through real subprocesses."""

import csv
import gc
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from conftest import yaml_text

from trigkit import cli, docio
from trigkit.config import load_inputs, read_config, strip_timing
from trigkit.data import data_path, reference_config
from trigkit.docio import dump_document, read_document
from trigkit.pipeline import candidate_relations
from trigkit.render import cases_to_doc, catalog_from_doc
from trigkit.testcases import compose

CLI = [sys.executable, "-m", "trigkit"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd, config=reference_config(), env_extra=None, command=CLI):
    env = {k: v for k, v in os.environ.items() if k != "TRIGKIT_CONFIG"}
    # the child runs in a temporary cwd, so a relative PYTHONPATH would not
    # reach this checkout's package
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    if config is not None:
        env["TRIGKIT_CONFIG"] = str(config)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(command + list(args), capture_output=True, text=True,
                          cwd=cwd, env=env)


def _copy_catalog(chain, directory: Path) -> Path:
    """A copy of the chain's catalog in ``directory``, where a command that
    reads it finds its cases and writes its own."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "catalog.json"
    path.write_bytes((chain["cwd"] / "out" / "catalog.json").read_bytes())
    return path


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One full generate -> compose -> report --ratings run in a clean cwd."""
    cwd = tmp_path_factory.mktemp("chain")
    results = {"cwd": cwd}
    results["generate"] = run_cli("generate", cwd=cwd)

    catalog = json.loads((cwd / "out" / "catalog.json").read_text(encoding="utf-8"))
    ids = [c["id"] for c in catalog["conditions"][:2]]
    ratings = {"schema": "condition-ratings@1",
               "ratings": [
                   {"condition": ids[0], "exposure": "E4", "criticality": "C4"},
                   {"condition": ids[1], "exposure": "E2", "criticality": "C3"},
               ]}
    (cwd / "ratings.json").write_text(json.dumps(ratings), encoding="utf-8")
    results["compose"] = run_cli("compose", cwd=cwd)
    results["report_md"] = run_cli("report", "--ratings", "ratings.json", cwd=cwd)

    ledger_line = json.dumps({"test_case": "t0123456789ab",
                              "behavior": "NearCollision", "outcome": "fail"})
    (cwd / "results.jsonl").write_text(ledger_line + "\n", encoding="utf-8")
    results["report_json"] = run_cli(
        "report", "--ratings", "ratings.json", "--results", "results.jsonl",
        "--format", "json", "--output", "report.json", cwd=cwd)
    return results


# ---------------------------------------------------------------------------
# Top-level behavior and exit codes
# ---------------------------------------------------------------------------

class TestTopLevel:
    def test_version(self, tmp_path):
        proc = run_cli("--version", cwd=tmp_path, config=None)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "trigkit 0.1.0"

    def test_the_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_repeated_calls_print_what_a_fresh_parser_prints(self, tmp_path, monkeypatch,
                                                             capsys):
        """One process runs a usage error that names a sensor, ``generate
        --sensor Camera``, ``generate`` and ``--version``; each call exits and
        prints as it does with a parser built for it alone, so no flag
        outlives its call."""
        config = ["--config", str(reference_config())]
        sequence = (config + ["generate", "--sensor", "LiDAR", "--bogus"],
                    config + ["generate", "--sensor", "Camera"],
                    config + ["generate"],
                    ["--version"])

        def run(directory: Path) -> list[tuple[int, str, str]]:
            directory.mkdir()
            monkeypatch.chdir(directory)
            return [(cli.main(argv), *capsys.readouterr()) for argv in sequence]

        shared = run(tmp_path / "shared")
        with mock.patch.object(cli, "_parser", cli._parser.__wrapped__):
            fresh = run(tmp_path / "fresh")
        assert shared == fresh
        assert [code for code, _, _ in shared] == [2, 0, 0, 0]
        assert "unrecognized arguments: --bogus" in shared[0][2]
        assert shared[1][1] == "generated 27 conditions (Camera: 27) -> out\n"
        assert shared[2][1] == ("generated 49 conditions (Camera: 27, LiDAR: 22) -> out\n"
                                "expected 87, delta -38\n")
        assert shared[3][1] == "trigkit 0.1.0\n"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, monkeypatch,
                                                      capsys, enabled):
        """The collector is paused while a command runs, and restored after a
        success, a usage error, a failed command and an exception."""
        monkeypatch.chdir(tmp_path)
        config = ["--config", str(reference_config())]
        paused = []

        def failing_generate(args, config):
            paused.append(not gc.isenabled())
            raise RuntimeError("boom")

        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            codes = [cli.main(argv) for argv in (config + ["generate"], ["conjure"],
                                                 config + ["generate", "--sensor", "Radar"])]
            assert gc.isenabled() is enabled
            monkeypatch.setattr(cli, "_cmd_generate", failing_generate)
            with pytest.raises(RuntimeError, match="boom"):
                cli.main(config + ["generate"])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert codes == [0, 2, 1]
        assert paused == [True]
        capsys.readouterr()

    def test_the_bundled_chain_leaves_no_cycles_for_the_collector(self, tmp_path):
        """With collection paused, ``generate``, ``compose`` and ``report`` at
        ``bundle_limit`` 3 leave nothing that only the collector could free.
        The parser is built first: argparse leaves a few cycles when it builds
        one, once per process."""
        config = _project(tmp_path, lambda doc: doc["parameters"].update(bundle_limit=3))
        code = ("import gc; from trigkit import cli; cli._parser(); gc.collect(); "
                "gc.disable(); "
                f"codes = [cli.main(['--config', {str(config)!r}, command]) "
                "for command in ('generate', 'compose', 'report')]; "
                "print(codes, gc.collect())")
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("TRIGKIT_CONFIG", None)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] 0"

    def test_importing_one_module_leaves_the_package_unloaded(self):
        code = ("import sys, trigkit.errors; "
                "print(sorted({'trigkit.pipeline', 'yaml'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_missing_subcommand_is_a_usage_error(self, tmp_path):
        proc = run_cli(cwd=tmp_path, config=None)
        assert proc.returncode == 2
        assert "usage" in proc.stderr

    def test_unknown_subcommand_is_a_usage_error(self, tmp_path):
        proc = run_cli("conjure", cwd=tmp_path, config=None)
        assert proc.returncode == 2
        assert cli.main(["assess", "--ratings", "ratings.json"]) == 2

    @pytest.mark.parametrize("argv", [["compose", "--output-dir", "x"],
                                      ["report", "--cases", "x"]])
    def test_a_run_directory_takes_no_override(self, capsys, argv):
        """``compose`` writes next to its catalog and ``report`` reads the
        cases there; neither takes another place."""
        assert cli.main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_config_is_reported(self, tmp_path):
        proc = run_cli("validate", cwd=tmp_path, config=None)
        assert proc.returncode == 2
        assert "pass --config or set TRIGKIT_CONFIG" in proc.stderr

    def test_config_file_not_found(self, tmp_path):
        proc = run_cli("--config", "missing.yaml", "validate",
                       cwd=tmp_path, config=None)
        assert proc.returncode == 2
        assert proc.stderr == "error MissingInput missing.yaml: config file not found\n"

    def test_threshold_true_rejected(self, tmp_path):
        _project(tmp_path, lambda doc: doc["parameters"].update(threshold=True))
        proc = run_cli("validate", cwd=tmp_path, config=Path("project.yaml"))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error InvalidValue project.yaml: parameters.threshold " \
                              "must be an integer in [1, 3], got True\n"

    def test_empty_config_rejected(self, tmp_path):
        empty = tmp_path / "empty.yaml"
        empty.write_text("", encoding="utf-8")
        proc = run_cli("--config", str(empty), "validate",
                       cwd=tmp_path, config=None)
        assert proc.returncode == 2
        assert "project config is empty" in proc.stderr

    def test_cli_flag_outranks_the_environment(self, tmp_path):
        proc = run_cli("--config", str(reference_config()), "validate",
                       cwd=tmp_path, config=tmp_path / "nonsense.yaml")
        assert proc.returncode == 0


# ---------------------------------------------------------------------------
# validate / stages / matrix
# ---------------------------------------------------------------------------

class TestValidate:
    def test_reports_every_document(self, tmp_path):
        proc = run_cli("validate", cwd=tmp_path)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert sum(1 for line in lines if line.startswith("ok ")) == 7
        assert lines[-1] == "validated 7 documents, 0 warnings"


class TestStages:
    def test_lists_declared_stages_in_pipeline_order(self, tmp_path, suite):
        proc = run_cli("stages", "--source", "Pedestrian", "--sensor", "Camera",
                       cwd=tmp_path)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        declared = list(suite.get("Camera").stages)
        assert lines
        assert set(lines) <= set(declared)
        assert lines == [s for s in declared if s in set(lines)]

    def test_sensor_obstruction_widens_the_stages(self, tmp_path):
        bare = run_cli("stages", "--source", "Leaf", "--sensor", "Camera",
                       cwd=tmp_path)
        covered = run_cli("stages", "--source", "Leaf", "--sensor", "Camera",
                          "--relations", "SurfaceTreatment.Cover(Sensor,Leaf)",
                          cwd=tmp_path)
        assert covered.returncode == 0
        assert set(bare.stdout.splitlines()) <= set(covered.stdout.splitlines())

    def test_unknown_sensor_exits_1(self, tmp_path):
        proc = run_cli("stages", "--source", "Rain", "--sensor", "Radar",
                       cwd=tmp_path)
        assert proc.returncode == 1
        assert "has no sensor 'Radar'" in proc.stderr

    def test_unknown_source_exits_1(self, tmp_path):
        proc = run_cli("stages", "--source", "Yeti", "--sensor", "Camera",
                       cwd=tmp_path)
        assert proc.returncode == 1
        assert "unknown concept 'Yeti'" in proc.stderr

    def test_every_candidate_relation_is_accepted(self, ontology, matrix, capsys):
        config = str(reference_config())
        for name in ontology.names():
            for rel in candidate_relations(ontology.get(name), matrix, ontology):
                signature = f"{rel.form.label}({rel.focal},{rel.partner})"
                status = cli.main(["--config", config, "stages", "--source", name,
                                   "--sensor", "Camera", "--relations", signature])
                assert (status, capsys.readouterr().err) == (0, ""), signature

    def test_a_relation_around_another_focal_is_one_error_line(self, capsys):
        status = cli.main(["--config", str(reference_config()), "stages",
                           "--source", "Pedestrian", "--sensor", "Camera",
                           "--relations",
                           "SpatialPosition.Occlusion(Cyclist,TemporaryStructure)"])
        out, err = capsys.readouterr()
        assert (status, out) == (1, "")
        assert err == ("error: IncompatiblePair: SpatialPosition.Occlusion(Cyclist,"
                       "TemporaryStructure) is not a candidate relation of "
                       "'Pedestrian'\n")


class TestMatrix:
    def test_markdown_view(self, tmp_path):
        proc = run_cli("matrix", "--source", "Pedestrian", "--sensor", "Camera",
                       cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.startswith("# Generation matrix — Pedestrian on Camera")

    def test_csv_view(self, tmp_path):
        proc = run_cli("matrix", "--source", "Pedestrian", "--sensor", "Camera",
                       "--format", "csv", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.startswith("Property,")

    def test_json_view(self, tmp_path):
        proc = run_cli("matrix", "--source", "MovableObstacle", "--sensor",
                       "LiDAR", "--format", "json", cwd=tmp_path)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["schema"] == "generation-matrix@1"
        assert doc["sensor"] == "LiDAR"

    def test_relation_signature_is_honored(self, tmp_path):
        signature = "SpatialPosition.Occlusion(Pedestrian,TemporaryStructure)"
        proc = run_cli("matrix", "--source", "Pedestrian", "--sensor", "Camera",
                       "--relations", signature, cwd=tmp_path)
        assert proc.returncode == 0
        assert f"Relationships: {signature}" in proc.stdout

    @pytest.mark.parametrize("view", [["stages"], ["matrix", "--format", "md"],
                                      ["matrix", "--format", "csv"],
                                      ["matrix", "--format", "json"]])
    def test_relations_ignore_order_and_repeats(self, view, capsys):
        a = "CognitiveFeature(Pedestrian,MovableObstacle)"
        b = "SpatialPosition.Occlusion(Pedestrian,TemporaryStructure)"
        printed = []
        for signature in (f"{a};{b}", f"{b};{a}", f"{a};{a};{b}"):
            status = cli.main(["--config", str(reference_config()), *view,
                               "--source", "Pedestrian", "--sensor", "Camera",
                               "--relations", signature])
            printed.append((status, *capsys.readouterr()))
        status, out, err = printed[0]
        assert (status, err) == (0, "") and out
        assert printed[1:] == [printed[0]] * 2
        if view[-1] in ("md", "json"):  # the views that print the signature
            assert f"{a};{b}" in out

    def test_malformed_signature_exits_1(self, tmp_path):
        proc = run_cli("matrix", "--source", "Pedestrian", "--sensor", "Camera",
                       "--relations", "Nonsense Here", cwd=tmp_path)
        assert proc.returncode == 1
        assert "malformed relation signature part" in proc.stderr

    def test_unknown_sensor_exits_1_with_one_error_line(self, tmp_path):
        proc = run_cli("matrix", "--source", "Rain", "--sensor", "Radar", cwd=tmp_path)
        assert proc.returncode == 1
        assert [line for line in proc.stderr.splitlines() if line.startswith("error")] \
            == ["error: UnknownSensor: suite for 'RoadSweeper' has no sensor 'Radar'"]
        assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# The generate -> compose -> report chain
# ---------------------------------------------------------------------------

class TestChain:
    def test_generate_summary(self, chain):
        proc = chain["generate"]
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "generated 49 conditions (Camera: 27, LiDAR: 22) -> out"
        assert lines[1] == "expected 87, delta -38"
        assert "1 warning recorded in the catalog" in proc.stderr

    def test_generate_writes_the_artifact_set(self, chain):
        out = chain["cwd"] / "out"
        for name in ("catalog.json", "catalog.csv", "catalog.md",
                     "generate.manifest.json"):
            assert (out / name).exists()

    def test_csv_artifact_header(self, chain):
        text = (chain["cwd"] / "out" / "catalog.csv").read_text(encoding="utf-8")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["No.", "Sensor", "Triggering sources", "Properties",
                           "Process stage", "Triggering condition"]
        assert len(rows) == 50

    def test_manifest_records_digests(self, chain):
        manifest = json.loads((chain["cwd"] / "out" / "generate.manifest.json")
                              .read_text(encoding="utf-8"))
        assert manifest["schema"] == "run-manifest@1"
        assert manifest["totals"]["conditions"] == 49
        assert manifest["totals"]["expected"] == 87
        assert manifest["totals"]["delta"] == -38
        assert manifest["warnings"] == 1
        assert len(manifest["inputs"]) == 8  # config plus seven documents
        assert all(len(entry["sha256"]) == 64 for entry in manifest["inputs"])

    def test_report_ranks_by_the_ratings_and_writes_no_catalog(self, chain):
        rated = read_document(chain["cwd"] / "ratings.json")["ratings"]
        ranking = read_document(chain["cwd"] / "report.json")["ranking"]
        assert [(entry["id"], entry["rating"]) for entry in ranking[:2]] == [
            (rated[0]["condition"], "E4/C4"), (rated[1]["condition"], "E2/C3")]
        assert {entry["rating"] for entry in ranking[2:]} == {"unrated"}
        assert sorted(path.name for path in (chain["cwd"] / "out").iterdir()) == [
            "catalog.csv", "catalog.json", "catalog.md", "compose.manifest.json",
            "generate.manifest.json", "test_cases.json", "test_cases.md"]

    def test_compose_summary(self, chain):
        proc = chain["compose"]
        assert proc.returncode == 0
        assert proc.stdout.strip() == (
            "composed 61 test cases from 49 conditions -> out/test_cases.json")
        doc = json.loads((chain["cwd"] / "out" / "test_cases.json")
                         .read_text(encoding="utf-8"))
        assert len(doc["cases"]) == 61

    def test_compose_manifest_lists_the_inputs_it_reads(self, chain):
        manifest = json.loads((chain["cwd"] / "out" / "compose.manifest.json")
                              .read_text(encoding="utf-8"))
        config = read_config(reference_config())
        assert [entry["path"] for entry in manifest["inputs"]] == [
            str(config.path), "out/catalog.json", str(config.ontology),
            str(config.system), str(config.events), str(config.policy)]

    def test_report_markdown_defaults_to_stdout(self, chain):
        proc = chain["report_md"]
        assert proc.returncode == 0
        assert proc.stdout.startswith("# Assessment report — RoadSweeper")
        assert "61 composed test cases; 47 conditions unrated." in proc.stdout
        assert "E4/C4" in proc.stdout

    def test_report_json_to_file(self, chain):
        proc = chain["report_json"]
        assert proc.returncode == 0
        assert proc.stdout.strip() == "report -> report.json"
        doc = json.loads((chain["cwd"] / "report.json").read_text(encoding="utf-8"))
        assert doc["totals"]["conditions"] == 49
        assert doc["totals"]["test_cases"] == 61
        assert doc["results"] == {"pass": 0, "marginal": 0, "fail": 1}
        assert doc["ranking"][0]["rating"] == "E4/C4"

    def test_report_output_creates_its_directory(self, chain):
        proc = run_cli("report", "--ratings", "ratings.json",
                       "--output", "nodir/deeper/report.md", cwd=chain["cwd"])
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "report -> nodir/deeper/report.md\n", "")
        written = chain["cwd"] / "nodir" / "deeper" / "report.md"
        assert written.read_text(encoding="utf-8") == chain["report_md"].stdout

    def test_json_outputs_are_the_stdlib_indented_text(self, chain):
        out = chain["cwd"] / "out"
        written = sorted(out.glob("*.json")) + [chain["cwd"] / "report.json"]
        assert {p.name for p in written} >= {
            "catalog.json", "test_cases.json", "report.json",
            "generate.manifest.json", "compose.manifest.json"}
        for path in written:
            text = path.read_text(encoding="utf-8")
            stdlib = json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"
            assert text == stdlib, path.name


class TestChainErrors:
    def test_compose_before_generate(self, tmp_path):
        proc = run_cli("compose", cwd=tmp_path)
        assert proc.returncode == 1
        assert "run 'generate' first" in proc.stderr

    def test_report_ratings_with_unknown_condition_ids(self, chain, tmp_path):
        ratings = {"schema": "condition-ratings@1",
                   "ratings": [{"condition": "c000000000000",
                                "exposure": "E1", "criticality": "C1"}]}
        (tmp_path / "ratings.json").write_text(json.dumps(ratings),
                                               encoding="utf-8")
        proc = run_cli("report", "--ratings", "ratings.json",
                       "--catalog", str(chain["cwd"] / "out" / "catalog.json"),
                       cwd=tmp_path)
        assert proc.returncode == 1
        assert "unknown condition ids" in proc.stderr

    def test_ratings_file_not_found(self, chain, tmp_path):
        proc = run_cli("report", "--ratings", "missing.json",
                       "--catalog", str(chain["cwd"] / "out" / "catalog.json"),
                       cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == "error MissingInput missing.json: file not found\n"

    def test_compose_locates_an_unknown_sensor_at_the_catalog(self, chain, tmp_path):
        catalog = json.loads((chain["cwd"] / "out" / "catalog.json")
                             .read_text(encoding="utf-8"))
        catalog["conditions"][0]["sensor"] = "Radar"
        (tmp_path / "bad.json").write_text(json.dumps(catalog), encoding="utf-8")
        proc = run_cli("compose", "--catalog", "bad.json", cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error UnknownSensor bad.json: suite for 'RoadSweeper' " \
                              "has no sensor 'Radar'\n"

    def test_report_without_cases_file_reads_none(self, tmp_path, chain):
        _copy_catalog(chain, tmp_path)
        proc = run_cli("report", "--catalog", "catalog.json", cwd=tmp_path)
        assert proc.returncode == 0
        assert "0 composed test cases" in proc.stdout

    def test_sensor_restriction(self, tmp_path):
        proc = run_cli("generate", "--sensor", "Camera", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == (
            "generated 27 conditions (Camera: 27) -> out")

    def test_repeated_sensor_is_taken_once(self, tmp_path):
        runs = {}
        for name, flags in (("once", ["--sensor", "Camera"]),
                            ("twice", ["--sensor", "Camera", "--sensor", "Camera"])):
            cwd = tmp_path / name
            cwd.mkdir()
            proc = run_cli("generate", *flags, cwd=cwd)
            assert proc.returncode == 0, proc.stderr
            out = cwd / "out"
            manifest = json.loads((out / "generate.manifest.json")
                                  .read_text(encoding="utf-8"))
            runs[name] = (proc.stdout, proc.stderr, strip_timing(manifest),
                          [(out / f).read_bytes()
                           for f in ("catalog.json", "catalog.csv", "catalog.md")])
        assert runs["twice"] == runs["once"]
        assert runs["twice"][2]["parameters"]["sensors"] == ["Camera"]

    def test_unknown_sensor_restriction(self, tmp_path):
        proc = run_cli("generate", "--sensor", "Sonar", cwd=tmp_path)
        assert proc.returncode == 1
        assert "has no sensor 'Sonar'" in proc.stderr

    def test_reruns_are_byte_identical(self, chain, tmp_path):
        proc = run_cli("generate", cwd=tmp_path)
        assert proc.returncode == 0
        first = (chain["cwd"] / "out" / "catalog.json").read_bytes()
        second = (tmp_path / "out" / "catalog.json").read_bytes()
        assert first == second


class TestMalformedDocuments:
    """A malformed document ends in a located diagnostic, never a traceback."""

    @staticmethod
    def assert_diagnosed(proc, path):
        assert proc.returncode == 1
        assert re.search(rf"^error \w+ {re.escape(str(path))}: ", proc.stderr, re.M)
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("field, junk", [("degree", ""), ("stage", [])])
    def test_report_rejects_a_malformed_catalog(self, chain, tmp_path, field, junk):
        catalog = chain["cwd"] / "out" / "catalog.json"
        doc = json.loads(catalog.read_text(encoding="utf-8"))
        doc["conditions"][0][field] = junk
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_cli("report", "--catalog", str(path), cwd=tmp_path)
        self.assert_diagnosed(proc, path)

    @pytest.mark.parametrize("mutate", [
        lambda cases: cases[0].update(trigger=" "),
        lambda cases: cases[0].update(odd=[1]),
        lambda cases: cases.append(dict(cases[0])),
    ], ids=["blank-trigger", "odd-not-strings", "duplicate-id"])
    def test_report_rejects_malformed_cases(self, chain, tmp_path, mutate):
        out = chain["cwd"] / "out"
        doc = json.loads((out / "test_cases.json").read_text(encoding="utf-8"))
        mutate(doc["cases"])
        path = tmp_path / "test_cases.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_cli("report", "--catalog", str(_copy_catalog(chain, tmp_path)),
                       cwd=tmp_path)
        self.assert_diagnosed(proc, path)

    @staticmethod
    def config_with(tmp_path, field, doc):
        """A copy of the bundled config whose ``field`` input is ``doc``."""
        path = tmp_path / f"{field}.yaml"
        path.write_text(yaml_text(doc), encoding="utf-8")
        config = read_document(reference_config())
        config["inputs"] = {name: str(data_path(file))
                            for name, file in config["inputs"].items()}
        config["inputs"][field] = str(path)
        (tmp_path / "project.yaml").write_text(yaml_text(config), encoding="utf-8")
        return tmp_path / "project.yaml", path

    def test_validate_rejects_non_string_relationships(self, tmp_path):
        matrix = read_document(data_path("compatibility_matrix.yaml"))
        matrix["entries"][0]["relationships"] = [1, 2]
        config, path = self.config_with(tmp_path, "matrix", matrix)
        self.assert_diagnosed(run_cli("validate", cwd=tmp_path, config=config), path)

    def test_compose_does_not_read_effects(self, chain, tmp_path):
        effects = read_document(data_path("effects.yaml"))
        effects["effects"][0]["degree"] = ""
        config, path = self.config_with(tmp_path, "effects", effects)
        for command in ("validate", "generate"):
            self.assert_diagnosed(run_cli(command, cwd=tmp_path, config=config), path)

        _copy_catalog(chain, tmp_path / "out")
        proc = run_cli("compose", cwd=tmp_path, config=config)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "test_cases.json").read_bytes() \
            == (chain["cwd"] / "out" / "test_cases.json").read_bytes()

    def test_stages_and_matrix_read_only_their_inputs(self, tmp_path):
        query = ("--source", "Pedestrian", "--sensor", "Camera")
        effects = read_document(data_path("effects.yaml"))
        effects["effects"][0]["degree"] = ""
        templates = read_document(data_path("condition_templates.yaml"))
        templates["templates"][0]["stage"] = []
        for field, doc, readers in (("effects", effects, {"matrix"}),
                                    ("templates", templates, set())):
            (tmp_path / field).mkdir()
            config, path = self.config_with(tmp_path / field, field, doc)
            self.assert_diagnosed(run_cli("validate", cwd=tmp_path, config=config), path)
            for command in ("stages", "matrix"):
                proc = run_cli(command, *query, cwd=tmp_path, config=config)
                if command in readers:
                    self.assert_diagnosed(proc, path)
                else:
                    assert proc.returncode == 0, proc.stderr
                    assert proc.stdout == run_cli(command, *query, cwd=tmp_path).stdout

    def test_compose_rejects_an_event_target_outside_the_ontology(self, chain, tmp_path):
        events = read_document(data_path("hazardous_events.yaml"))
        events["events"][0]["target"] = "Hovercraft"
        config, path = self.config_with(tmp_path, "events", events)
        proc = run_cli("compose", "--catalog", str(chain["cwd"] / "out" / "catalog.json"),
                       cwd=tmp_path, config=config)
        self.assert_diagnosed(proc, path)
        assert "target 'Hovercraft' does not resolve in the ontology" in proc.stderr


def _non_utf8(path):
    path.write_bytes(b"schema: x\nname: caf\xe9\n")
    return path, "error SyntaxError {}:2: not UTF-8 text: invalid continuation byte " \
                 "(column 10)"


def _directory(path):
    path.mkdir()
    return path, "error UnusablePath {}: Is a directory"


def _project(tmp_path, edit):
    """A copy of the bundled config at ``tmp_path/project.yaml``, its inputs
    named by absolute path, after ``edit(doc)``."""
    config = read_document(reference_config())
    config["inputs"] = {name: str(data_path(file))
                        for name, file in config["inputs"].items()}
    edit(config)
    path = tmp_path / "project.yaml"
    path.write_text(yaml_text(config), encoding="utf-8")
    return path


def _config_naming(tmp_path, effects):
    """A copy of the bundled config whose effects input is ``effects``."""
    return _project(tmp_path, lambda doc: doc["inputs"].update(effects=str(effects)))


def _ledger(path):
    path.write_bytes(b'{"outcome": "pass"}\n{"note": "\xff"}\n')
    return path, "error SyntaxError {}:2: not UTF-8 text: invalid start byte (column 11)"


def _ledger_not_json(path):
    path.write_text('{"outcome": "pass"}\nnot json\n', encoding="utf-8")
    return path, "error SyntaxError {}:2: unreadable results line: Expecting value"


def _ledger_not_object(path):
    path.write_text("[1, 2]\n", encoding="utf-8")
    return path, "error InvalidValue {}:1: results line must be a JSON object, got list"


def _empty(path):
    path.write_text("", encoding="utf-8")
    return path, "error EmptyConfig {}: project config is empty"


def _file(path):
    path.write_text("", encoding="utf-8")
    return path, "error UnusablePath {}: File exists"


def _under_file(path):
    path.write_text("", encoding="utf-8")
    return path / "report.md", "error UnusablePath {.parent}: File exists"


#: case -> (exit code, how the bad path is made, the command that reads it).
#: In the command, BAD is that path, PROJECT a config naming it as the effects
#: input, CATALOG a generated catalog, and COPY a copy of it whose
#: ``test_cases.json`` is BAD.
UNREADABLE = {
    "config-directory": (2, _directory, ["--config", "BAD", "validate"]),
    "config-non-utf8": (2, _non_utf8, ["--config", "BAD", "validate"]),
    "config-empty": (2, _empty, ["--config", "BAD", "validate"]),
    "input-directory": (1, _directory, ["--config", "PROJECT", "validate"]),
    "input-non-utf8": (1, _non_utf8, ["--config", "PROJECT", "validate"]),
    "ratings-directory": (1, _directory,
                          ["report", "--ratings", "BAD", "--catalog", "CATALOG"]),
    "ratings-non-utf8": (1, _non_utf8,
                         ["report", "--ratings", "BAD", "--catalog", "CATALOG"]),
    "cases-non-utf8": (1, _non_utf8, ["report", "--catalog", "COPY"]),
    "results-non-utf8": (1, _ledger,
                         ["report", "--results", "BAD", "--catalog", "CATALOG"]),
    "results-not-json": (1, _ledger_not_json,
                         ["report", "--results", "BAD", "--catalog", "CATALOG"]),
    "results-not-object": (1, _ledger_not_object,
                           ["report", "--results", "BAD", "--catalog", "CATALOG"]),
    "output-dir-file": (1, _file, ["generate", "--output-dir", "BAD"]),
    "report-output-under-file": (1, _under_file,
                                 ["report", "--catalog", "CATALOG", "--output", "BAD"]),
}


class TestUnreadableFiles:
    """A directory or a non-UTF-8 file where a document belongs, or a file
    where the output directory belongs, ends in one error line naming the
    path, never a traceback."""

    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_one_error_line(self, chain, tmp_path, case):
        code, make, command = UNREADABLE[case]
        bad, line = make(tmp_path / ("test_cases.json" if "COPY" in command else "bad.yaml"))
        paths = {"BAD": bad, "CATALOG": chain["cwd"] / "out" / "catalog.json"}
        if "COPY" in command:
            paths["COPY"] = _copy_catalog(chain, tmp_path)
        if "PROJECT" in command:
            paths["PROJECT"] = _config_naming(tmp_path, bad)
        proc = run_cli(*[str(paths.get(arg, arg)) for arg in command], cwd=tmp_path)
        assert proc.returncode == code
        assert [text for text in proc.stderr.splitlines()
                if text.startswith("error")] == [line.format(bad)]
        assert "Traceback" not in proc.stderr


def _unknown_ratings(tmp_path):
    (tmp_path / "ratings.json").write_text(json.dumps(
        {"schema": "condition-ratings@1",
         "ratings": [{"condition": "c000000000000", "exposure": "E1", "criticality": "C1"}]}),
        encoding="utf-8")


#: case -> (command, the one stderr line, how the case is set up in the cwd).
#: In the command, CATALOG is a generated catalog; in the line, TMP is the cwd.
#: A set-up that returns a config path runs the command with that config.
MISSING = {
    "report-catalog": (["report", "--catalog", "nope.json"],
                       "error MissingInput nope.json: file not found; run 'generate' first",
                       None),
    "compose-before-generate": (
        ["compose"],
        "error MissingInput out/catalog.json: file not found; run 'generate' first", None),
    "report-results": (["report", "--results", "missing.jsonl", "--catalog", "CATALOG"],
                       "error MissingInput missing.jsonl: file not found", None),
    "config-input": (["validate"], "error MissingInput TMP/nofx.yaml: file not found",
                     lambda tmp: _config_naming(tmp, tmp / "nofx.yaml")),
    "config-no-events": (
        ["compose", "--catalog", "CATALOG"],
        "error MissingInput project.yaml: config names no events input",
        lambda tmp: _project(tmp, lambda doc: doc["inputs"].pop("events"))),
    "report-ratings-unknown-ids": (
        ["report", "--ratings", "ratings.json", "--catalog", "CATALOG"],
        "error UnknownCondition ratings.json: ratings reference unknown condition ids: "
        "c000000000000", _unknown_ratings),
}


class TestMissingFiles:
    """A file a command reads that is missing, or that names what is not
    there, ends in one located error line and exit code 1."""

    @pytest.mark.parametrize("case", sorted(MISSING))
    def test_one_located_line(self, chain, tmp_path, case):
        command, line, setup = MISSING[case]
        tmp_path = tmp_path.resolve()
        written = setup(tmp_path) if setup else None
        config = Path(written.name) if written else reference_config()
        catalog = str(chain["cwd"] / "out" / "catalog.json")
        proc = run_cli(*[catalog if arg == "CATALOG" else arg for arg in command],
                       cwd=tmp_path, config=config)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == line.replace("TMP", str(tmp_path)) + "\n"


#: scalar -> what the located error says it cannot be read as
REFUSED_SCALARS = {
    "2001-13-45": "'2001-13-45' as timestamp",
    "2001-02-30": "'2001-02-30' as timestamp",
    "2001-12-14t21:59:43.10+25:00": "'2001-12-14t21:59:43.10+25:00' as timestamp",
    "!!int abc": "'abc' as int",
    "!!int 0b2": "'0b2' as int",
    "!!float abc": "'abc' as float",
    "!!bool maybe": "'maybe' as bool",
    "!!timestamp xyz": "'xyz' as timestamp",
}


@pytest.mark.parametrize("scalar", sorted(REFUSED_SCALARS))
@pytest.mark.parametrize("where, code", [("config", 2), ("input", 1)])
def test_a_scalar_its_tag_refuses_is_one_located_line(tmp_path, capsys, scalar, where,
                                                      code):
    """An impossible date, or text an explicit tag does not fit, in the
    config or in an input, is one located line, never a traceback."""
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"schema: x\nnote: {scalar}\n", encoding="utf-8")
    config = bad if where == "config" else _config_naming(tmp_path, bad)
    assert cli.main(["--config", str(config), "validate"]) == code
    assert capsys.readouterr() == ("", f"error SyntaxError {bad}:2: cannot read "
                                       f"{REFUSED_SCALARS[scalar]} (column 7)\n")


_OCCLUDED = "SpatialPosition.Occlusion(Pedestrian,Leaf)"
_COVERED = "SurfaceTreatment.Cover(Sensor,Pedestrian)"


@pytest.mark.parametrize("signature, message", [
    ("Orbits(Pedestrian,Leaf)", "UnknownRelationship {}: templates[0]: unknown "
                                "relationship 'Orbits'"),
    (f"{_COVERED};{_OCCLUDED}", "InvalidValue {}: templates[0]: relationships must name "
                                f"each relation once, in canonical order: "
                                f"'{_OCCLUDED};{_COVERED}'"),
    (f"{_OCCLUDED};{_OCCLUDED}", "InvalidValue {}: templates[0]: relationships must name "
                                 f"each relation once, in canonical order: '{_OCCLUDED}'"),
    ("SpatialPosition.Occlusion(NaturalLight,Pedestrian)",
     "IncompatiblePair {}: template (SpatialPosition.Occlusion(NaturalLight,Pedestrian), "
     "NaturalLight, LightAngle, LightReceiving): SpatialPosition.Occlusion(NaturalLight,"
     "Pedestrian) is not a candidate relation of 'NaturalLight'"),
    ("SurfaceTreatment.Cover(Sensor,Leaf)",
     "IncompatiblePair {}: template (SurfaceTreatment.Cover(Sensor,Leaf), NaturalLight, "
     "LightAngle, LightReceiving): concept 'NaturalLight' is neither 'Leaf' nor a partner "
     "of its relations"),
], ids=["unknown-form", "out-of-order", "repeated", "not-a-candidate", "concept-not-a-row"])
def test_a_template_no_bundle_can_match_is_one_located_line(tmp_path, capsys, signature,
                                                            message):
    """A bundle's signature never names an unknown form, nor a relation out
    of canonical order or twice, nor a relation the matrix does not grant
    its source, and its rows are the source and its partners, so such a
    template is refused. The first template's concept is NaturalLight."""
    templates = read_document(data_path("condition_templates.yaml"))
    templates["templates"][0]["relationships"] = signature
    path = tmp_path / "templates.yaml"
    path.write_text(yaml_text(templates), encoding="utf-8")
    config = _project(tmp_path, lambda doc: doc["inputs"].update(templates=str(path)))
    assert cli.main(["--config", str(config), "validate"]) == 1
    assert capsys.readouterr() == ("", f"error {message.format(path)}\n")


def test_a_bundle_limit_past_the_candidates_changes_only_that_field(tmp_path, capsys):
    """No (sensor, source) of the bundled project has more than 5 usable
    candidate relations, so limits 3, 5, 10 and 10**9 find the same
    conditions and positives, and the largest limit is as quick."""
    catalogs = {}
    for limit in (3, 5, 10, 10**9):  # the largest last, so ``seconds`` is its time
        config = _project(tmp_path, lambda doc: doc["parameters"].update(bundle_limit=limit))
        out = tmp_path / str(limit)
        started = time.perf_counter()
        assert cli.main(["--config", str(config), "generate",
                         "--output-dir", str(out)]) == 0, capsys.readouterr().err
        seconds = time.perf_counter() - started
        catalogs[limit] = read_document(out / "catalog.json")
        assert catalogs[limit].pop("bundle_limit") == limit
    assert seconds < 1.0
    assert catalogs[10**9] == catalogs[10] == catalogs[5] == catalogs[3]


#: The first 12 hex digits of the SHA-256 of every file ``generate``,
#: ``compose`` and ``report`` write on the bundled project, at its
#: ``bundle_limit`` 2 and at 3; a manifest is hashed without its timing and
#: with each input path cut to its file name.
DIGESTS = {
    "out/catalog.csv": "a1e065152fac",
    "out/catalog.json": "68a0dfdd1c5c",
    "out/catalog.md": "a05abaaa6b57",
    "out/generate.manifest.json": "e905d02d72a3",
    "out/test_cases.json": "27837445d4cd",
    "out/test_cases.md": "4233368ff312",
    "out/compose.manifest.json": "75cc17c7d794",
    "report.md": "926113c19048",
    "report.json": "006ddf3c384d",
}
DIGESTS_AT_LIMIT_3 = dict(DIGESTS, **{
    "out/catalog.json": "07d5cfdffde7",
    "out/catalog.md": "9a9a883506cd",
    "out/generate.manifest.json": "db84ff1cba1c",
    "out/compose.manifest.json": "291b865c49a9",
})


def _digest(path: Path) -> str:
    if path.name.endswith(".manifest.json"):
        manifest = strip_timing(read_document(path))
        for entry in manifest["inputs"]:
            entry["path"] = Path(entry["path"]).name
        data = dump_document(manifest).encode("utf-8")
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()[:12]


@pytest.mark.parametrize("bundle_limit,expected", [(2, DIGESTS), (3, DIGESTS_AT_LIMIT_3)])
def test_outputs_keep_their_digests(tmp_path, monkeypatch, capsys, bundle_limit, expected):
    """The outputs of the chain, in process, are byte for byte what they were."""
    project = tmp_path / "project"
    project.mkdir()
    for document in reference_config().parent.glob("*.yaml"):
        text = document.read_text(encoding="utf-8")
        if document.name == "project.yaml":
            text = text.replace("bundle_limit: 2", f"bundle_limit: {bundle_limit}")
        (project / document.name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    config = ["--config", str(project / "project.yaml")]
    for command in (["generate"], ["compose"], ["report", "--output", "report.md"],
                    ["report", "--format", "json", "--output", "report.json"]):
        assert cli.main(config + command) == 0, capsys.readouterr().err
    written = {path.relative_to(tmp_path).as_posix(): _digest(path)
               for path in sorted(tmp_path.rglob("*"))
               if path.is_file() and project not in path.parents}
    assert written == expected


@pytest.mark.parametrize("bundle_limit,expected", [(2, DIGESTS), (3, DIGESTS_AT_LIMIT_3)])
def test_orjson_writes_the_same_digests(tmp_path, monkeypatch, capsys, bundle_limit,
                                        expected):
    """With both bulk sizes at 0, ``dump_bulk`` writes the catalog and the
    case set, and every file keeps its digest."""
    monkeypatch.setattr(cli, "_BULK_CONDITIONS", 0)
    monkeypatch.setattr(cli, "_BULK_CASES", 0)
    with mock.patch.object(cli, "dump_bulk", wraps=docio.dump_bulk) as bulk:
        test_outputs_keep_their_digests(tmp_path, monkeypatch, capsys, bundle_limit,
                                        expected)
    assert bulk.call_count == 2


#: ``report --ratings`` on the bundled project at ``bundle_limit`` 2, hashed
#: as :data:`DIGESTS` hashes.
RATED_DIGESTS = {"report.md": "783beddc7609", "report.json": "389f9f69a30a"}


def test_the_rated_report_keeps_its_digests(tmp_path, monkeypatch, capsys):
    """Five conditions rated in catalog positions 2, 5, 6, 7 and 9: a priority
    tie that criticality breaks (E4/C1 against E1/C4), an exact tie at E2/C2
    that the ids break against catalog order, and 44 conditions unrated."""
    monkeypatch.chdir(tmp_path)
    config = ["--config", str(_project(tmp_path, lambda doc: None))]
    assert cli.main(config + ["generate"]) == 0
    assert cli.main(config + ["compose"]) == 0
    ids = [c["id"] for c in read_document(tmp_path / "out" / "catalog.json")["conditions"]]
    rated = {ids[2]: ("E4", "C1"), ids[5]: ("E1", "C4"), ids[6]: ("E2", "C2"),
             ids[7]: ("E2", "C2"), ids[9]: ("E3", "C4")}
    assert ids[7] < ids[6]
    ratings = tmp_path / "ratings.json"
    ratings.write_text(json.dumps({"schema": "condition-ratings@1", "ratings": [
        {"condition": cid, "exposure": e, "criticality": c}
        for cid, (e, c) in rated.items()]}), encoding="utf-8")
    for command in (["--output", "report.md"],
                    ["--format", "json", "--output", "report.json"]):
        assert cli.main(config + ["report", "--ratings", str(ratings)] + command) == 0, \
            capsys.readouterr().err
    ranking = read_document(tmp_path / "report.json")["ranking"]
    assert [entry["id"] for entry in ranking[:5]] == [ids[9], ids[5], ids[7], ids[6], ids[2]]
    assert [entry["id"] for entry in ranking[5:]] == [cid for cid in ids if cid not in rated]
    assert {name: _digest(tmp_path / name) for name in RATED_DIGESTS} == RATED_DIGESTS


def _run_files(directory: Path) -> dict:
    """Each file in ``directory`` by name: its bytes, or a manifest apart
    from its timing."""
    return {path.name: strip_timing(read_document(path))
            if path.name.endswith(".manifest.json") else path.read_bytes()
            for path in sorted(directory.iterdir())}


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """``generate`` then ``compose``, each seed in one fresh process writing
    to ``out`` in its own cwd: the same bytes, manifests apart from timing."""
    code = ("import sys; from trigkit.cli import main; "
            "sys.exit(main(['generate']) or main(['compose']))")
    written = {}
    for seed in ("0", "1"):
        cwd = tmp_path / seed
        cwd.mkdir()
        proc = run_cli(cwd=cwd, env_extra={"PYTHONHASHSEED": seed},
                       command=[sys.executable, "-c", code])
        assert proc.returncode == 0, proc.stderr
        written[seed] = proc.stdout, _run_files(cwd / "out")
    assert len(written["0"][1]) == 7
    assert written["1"] == written["0"]


def test_a_large_case_set_is_written_as_dump_document_writes_it(tmp_path, capsys):
    """Each hazardous event copied 17 times pairs the bundled catalog's 49
    conditions into 1,037 cases, which ``compose`` writes with ``dump_bulk``."""
    events = read_document(data_path("hazardous_events.yaml"))
    policy = read_document(data_path("compose_policy.yaml"))
    events["events"] = [dict(event, id=f"{event['id']}-{copy}")
                        for copy in range(17) for event in events["events"]]
    policy["negations"] = {f"{event}-{copy}": text for copy in range(17)
                           for event, text in policy["negations"].items()}
    for name, doc in (("events", events), ("policy", policy)):
        (tmp_path / f"{name}.yaml").write_text(yaml_text(doc), encoding="utf-8")
    config = _project(tmp_path, lambda doc: doc["inputs"].update(
        events=str(tmp_path / "events.yaml"), policy=str(tmp_path / "policy.yaml")))
    out = tmp_path / "out"
    with mock.patch.object(cli, "dump_bulk", wraps=docio.dump_bulk) as bulk:
        for command in (["generate", "--output-dir", str(out)],
                        ["compose", "--catalog", str(out / "catalog.json")]):
            assert cli.main(["--config", str(config)] + command) == 0, capsys.readouterr().err
    assert bulk.call_count == 1

    inputs = load_inputs(read_config(config))
    catalog = catalog_from_doc(read_document(out / "catalog.json"))
    cases, warnings = compose(catalog.conditions, inputs.events, inputs.suite, inputs.policy)
    assert (len(cases), warnings) == (1037, [])
    assert (out / "test_cases.json").read_text(encoding="utf-8") \
        == dump_document(cases_to_doc(cases, warnings))


def test_a_new_catalog_discards_the_ratings_of_the_old_one(tmp_path, monkeypatch, capsys):
    """``generate``, ``report --ratings``, then ``generate`` again at
    ``bundle_limit`` 0: no rated file is left behind, so ``compose`` and
    ``report`` read the new catalog unrated, and the ratings file stays."""
    monkeypatch.chdir(tmp_path)
    config = ["--config", str(_project(tmp_path, lambda doc: None))]
    assert cli.main(config + ["generate"]) == 0
    ids = [c["id"] for c in read_document(tmp_path / "out" / "catalog.json")["conditions"]]
    assert len(ids) == 49
    ratings = tmp_path / "ratings.json"
    ratings.write_text(json.dumps({"schema": "condition-ratings@1", "ratings": [
        {"condition": ids[0], "exposure": "E4", "criticality": "C4"}]}), encoding="utf-8")
    assert cli.main(config + ["report", "--ratings", str(ratings)]) == 0
    assert "48 conditions unrated" in capsys.readouterr().out

    config = ["--config", str(_project(
        tmp_path, lambda doc: doc["parameters"].update(bundle_limit=0)))]
    assert cli.main(config + ["generate"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == [
        "catalog.csv", "catalog.json", "catalog.md", "generate.manifest.json"]
    assert ratings.exists()
    assert cli.main(config + ["compose"]) == 0
    assert cli.main(config + ["report"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("composed 24 test cases from 24 conditions -> out/test_cases.json\n"
                          "# Assessment report — RoadSweeper\n\n24 triggering conditions")
    assert "24 composed test cases; 24 conditions unrated." in out


def test_report_refuses_the_cases_of_another_catalog(tmp_path, monkeypatch, capsys):
    """The 61 cases of ``generate`` and ``compose``, copied next to the
    catalog of ``generate --output-dir camera --sensor Camera``, name 22
    LiDAR conditions that catalog lacks, so ``report`` on it is one located
    line with exit code 1, not a count of foreign cases."""
    monkeypatch.chdir(tmp_path)
    config = ["--config", str(reference_config())]
    for command in (["generate"], ["compose"],
                    ["generate", "--output-dir", "camera", "--sensor", "Camera"]):
        assert cli.main(config + command) == 0, capsys.readouterr().err
    copied = tmp_path / "camera" / "test_cases.json"
    copied.write_bytes((tmp_path / "out" / "test_cases.json").read_bytes())
    cases = read_document(copied)["cases"]
    kept = {c["id"] for c in read_document(copied.with_name("catalog.json"))["conditions"]}
    foreign = sorted({case["condition"] for case in cases} - kept)
    assert (len(cases), len(kept), len(foreign)) == (61, 27, 22)
    capsys.readouterr()
    assert cli.main(config + ["report", "--catalog", str(Path("camera", "catalog.json"))]) \
        == 1
    assert capsys.readouterr() == (
        "", f"error UnknownCondition {Path('camera', 'test_cases.json')}: cases reference "
            f"unknown condition ids: {', '.join(foreign)}\n")


def test_compose_and_report_follow_the_catalog_they_read(tmp_path, monkeypatch, capsys):
    """A run in ``a`` keeps its files in ``a``: ``compose --catalog
    a/catalog.json`` writes there and nothing under ``out``, and ``report``
    counts the 61 cases next to that catalog, not the 33 Camera cases that
    ``out`` holds. A fresh catalog in ``b`` has no cases next to it, so its
    report counts none."""
    monkeypatch.chdir(tmp_path)
    config = ["--config", str(reference_config())]
    for command in (["generate", "--output-dir", "a"],
                    ["compose", "--catalog", str(Path("a", "catalog.json"))]):
        assert cli.main(config + command) == 0, capsys.readouterr().err
    assert capsys.readouterr().out.endswith(
        f"composed 61 test cases from 49 conditions -> {Path('a', 'test_cases.json')}\n")
    assert sorted(path.name for path in (tmp_path / "a").iterdir()) == [
        "catalog.csv", "catalog.json", "catalog.md", "compose.manifest.json",
        "generate.manifest.json", "test_cases.json", "test_cases.md"]
    assert not (tmp_path / "out").exists()

    for command in (["generate", "--sensor", "Camera"], ["compose"],
                    ["generate", "--output-dir", "b"]):
        assert cli.main(config + command) == 0, capsys.readouterr().err
    assert len(read_document(tmp_path / "out" / "test_cases.json")["cases"]) == 33
    capsys.readouterr()
    for run, count in (("a", 61), ("b", 0)):
        assert cli.main(config + ["report", "--catalog", str(Path(run, "catalog.json"))]) \
            == 0, capsys.readouterr().err
        assert f"\n{count} composed test cases;" in capsys.readouterr().out


def test_generate_deletes_the_cases_of_the_catalog_it_replaces(tmp_path, monkeypatch,
                                                              capsys):
    """``generate --sensor Camera`` and ``compose`` leave 33 cases in ``out``.
    A ``generate`` of the whole suite there deletes what ``compose`` wrote,
    as it was composed from the catalog replaced, so ``report`` counts no
    cases until ``compose`` runs again; the run then equals a fresh one."""
    monkeypatch.chdir(tmp_path)
    config = ["--config", str(reference_config())]
    for command in (["generate", "--sensor", "Camera"], ["compose"]):
        assert cli.main(config + command) == 0, capsys.readouterr().err
    assert "\ncomposed 33 test cases from 27 conditions" in capsys.readouterr().out
    assert cli.main(config + ["generate"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        f"deleted {Path('out', name)}, composed from the previous catalog"
        for name in ("test_cases.json", "test_cases.md", "compose.manifest.json")]
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == [
        "catalog.csv", "catalog.json", "catalog.md", "generate.manifest.json"]
    assert cli.main(config + ["report"]) == 0
    assert "\n0 composed test cases;" in capsys.readouterr().out

    for command in (["compose"], ["report"]):
        assert cli.main(config + command) == 0, capsys.readouterr().err
    assert "\n61 composed test cases;" in capsys.readouterr().out
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    monkeypatch.chdir(fresh)
    for command in (["generate"], ["compose"]):
        assert cli.main(config + command) == 0, capsys.readouterr().err
    assert _run_files(tmp_path / "out") == _run_files(fresh / "out")


def test_generate_deletes_the_report_of_the_catalog_it_replaces(tmp_path, monkeypatch,
                                                               capsys):
    """``report --output out/report.md`` renders the 49-condition catalog, and
    ``generate --sensor Camera`` into ``out`` deletes it with the cases; a
    report under another name or in another directory is left alone."""
    monkeypatch.chdir(tmp_path)
    config = ["--config", str(reference_config())]
    others = (tmp_path / "out" / "summary.md", tmp_path / "kept" / "report.md")
    for command in (["generate"], ["compose"], ["report", "--output", "out/report.md"],
                    *(["report", "--output", str(path)] for path in others)):
        assert cli.main(config + command) == 0, capsys.readouterr().err
    capsys.readouterr()
    assert "49 triggering conditions" in (tmp_path / "out" / "report.md").read_text("utf-8")
    kept = {path: path.read_bytes() for path in others}

    assert cli.main(config + ["generate", "--sensor", "Camera"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"deleted {Path('out', name)}, composed from the previous catalog"
        for name in ("test_cases.json", "test_cases.md", "compose.manifest.json")
    ] + [f"deleted {Path('out', 'report.md')}, rendered from the previous catalog"]
    assert not (tmp_path / "out" / "report.md").exists()
    assert {path: path.read_bytes() for path in others} == kept


def test_expected_total_is_compared_only_with_the_whole_suite(tmp_path, monkeypatch,
                                                             capsys):
    """The config's ``expected_total`` (87) counts the conditions of every
    sensor, so ``generate --sensor Camera`` prints and records no delta, and
    naming both sensors compares as naming none."""
    monkeypatch.chdir(tmp_path)
    runs = {}
    for flags in ((), ("--sensor", "Camera"), ("--sensor", "Camera", "--sensor", "LiDAR")):
        assert cli.main(["--config", str(reference_config()), "generate", *flags]) == 0
        totals = read_document(tmp_path / "out" / "generate.manifest.json")["totals"]
        runs[flags] = (capsys.readouterr().out.splitlines()[1:],
                       {key: totals[key] for key in ("expected", "delta") if key in totals})
    assert runs[("--sensor", "Camera")] == ([], {})
    assert runs[()] == runs[("--sensor", "Camera", "--sensor", "LiDAR")] == (
        ["expected 87, delta -38"], {"expected": 87, "delta": -38})


def test_a_dangling_reference_is_located_at_the_document_naming_it(tmp_path, capsys):
    """An effect rule for a concept the ontology lacks, and an event whose
    target it lacks, are each an error at their own document, reported
    together."""
    effects = read_document(data_path("effects.yaml"))
    effects["effects"][0]["concept"] = "Hovercraft"
    events = read_document(data_path("hazardous_events.yaml"))
    events["events"][0]["target"] = "Zeppelin"
    for name, doc in (("effects", effects), ("events", events)):
        (tmp_path / f"{name}.yaml").write_text(yaml_text(doc), encoding="utf-8")
    config = _project(tmp_path, lambda doc: doc["inputs"].update(
        effects=str(tmp_path / "effects.yaml"), events=str(tmp_path / "events.yaml")))
    assert cli.main(["--config", str(config), "validate"]) == 1
    effects_path, events_path = (path.resolve() for path in
                                 (tmp_path / "effects.yaml", tmp_path / "events.yaml"))
    assert capsys.readouterr() == ("", (
        f"error UnknownConcept {effects_path}: effect rule names unknown concept "
        f"'Hovercraft'\n"
        f"error UnknownConcept {events_path}: event 'HE-1': target 'Zeppelin' does not "
        f"resolve in the ontology\n"))


def test_an_empty_catalog_prints_no_sensor_counts(tmp_path, monkeypatch, capsys):
    """Effects no worse than -1 reach no condition at threshold 2: ``generate``
    and ``report`` print the bare count, with no empty ``()`` after it."""
    effects = read_document(data_path("effects.yaml"))
    for effect in effects["effects"]:
        effect["degree"] = -1
    (tmp_path / "effects.yaml").write_text(yaml_text(effects), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    config = ["--config", str(_config_naming(tmp_path, tmp_path / "effects.yaml"))]
    for command in ("generate", "report"):
        assert cli.main(config + [command]) == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    assert out.startswith("generated 0 conditions -> out\n")
    assert "\n0 triggering conditions.\n0 composed test cases; 0 conditions unrated.\n" in out


@pytest.mark.parametrize("command", ["compose", "report-cases", "report-ratings",
                                     "report-results"])
def test_a_lone_surrogate_escape_is_one_located_line(chain, tmp_path, capsys, command):
    """A ``\\ud800`` escape that pairs with nothing, in a catalog, a case set,
    a ratings file or a results line, is one located line with exit code 1;
    nothing is written, as UTF-8 cannot hold the character it stands for."""
    out = chain["cwd"] / "out"
    catalog = out / "catalog.json"
    if command == "report-results":
        text = '{"test_case": "t1", "outcome": "fail", "behavior": "x \\ud800 y"}\n'
        bad, prefix = tmp_path / "results.jsonl", "unreadable results line: "
    elif command == "report-ratings":
        text = (chain["cwd"] / "ratings.json").read_text(encoding="utf-8").replace(
            '"condition": "', '"condition": "bad \\ud800 ', 1)
        bad, prefix = tmp_path / "ratings.json", ""
    else:  # the first template text, in the first condition or case
        source = out / ("test_cases.json" if command == "report-cases" else "catalog.json")
        text = source.read_text(encoding="utf-8").replace(
            '": "A streetlamp', '": "bad \\ud800 A streetlamp', 1)
        bad, prefix = tmp_path / source.name, ""
        if command == "report-cases":
            catalog = _copy_catalog(chain, tmp_path)
    bad.write_text(text, encoding="utf-8")
    start = text.index("\\ud800")
    line, column = text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)
    written = tmp_path / "written"
    argv = {
        "compose": ["compose", "--catalog", bad],
        "report-cases": ["report", "--catalog", catalog, "--output", written / "r.md"],
        "report-ratings": ["report", "--catalog", catalog, "--ratings", bad,
                           "--output", written / "r.md"],
        "report-results": ["report", "--catalog", catalog, "--results", bad,
                           "--output", written / "r.md"],
    }[command]
    before = sorted(tmp_path.iterdir())
    assert cli.main(["--config", str(reference_config())] + list(map(str, argv))) == 1
    assert capsys.readouterr() == ("", f"error SyntaxError {bad}:{line}: {prefix}lone "
                                       f"surrogate escape '\\ud800' (column {column})\n")
    assert sorted(tmp_path.iterdir()) == before


def test_a_line_break_in_a_template_stays_in_its_table_cell(tmp_path, monkeypatch, capsys):
    """A template text written as a two-line YAML ``|`` block: every table
    line of the three Markdown outputs is still one whole row."""
    project = tmp_path / "project"
    project.mkdir()
    for document in reference_config().parent.glob("*.yaml"):
        (project / document.name).write_bytes(document.read_bytes())
    templates = project / "condition_templates.yaml"
    one_line = "      - {tag: default, text: A strong sunlight behind the pedestrian at nightfall}\n"
    two_lines = ("      - tag: default\n        text: |\n"
                 "          A strong sunlight behind the pedestrian\n          at nightfall\n")
    assert one_line in templates.read_text(encoding="utf-8")
    templates.write_text(templates.read_text(encoding="utf-8").replace(one_line, two_lines),
                         encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    config = ["--config", str(project / "project.yaml")]
    for command in (["generate"], ["compose"], ["report", "--output", "out/report.md"]):
        assert cli.main(config + command) == 0, capsys.readouterr().err

    conditions = read_document(tmp_path / "out" / "catalog.json")["conditions"]
    cases = read_document(tmp_path / "out" / "test_cases.json")["cases"]
    for name, rows in (("catalog.md", conditions), ("test_cases.md", cases),
                       ("report.md", conditions)):
        lines = (tmp_path / "out" / name).read_text(encoding="utf-8").splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("|"))
        table = lines[start:lines.index("", start) if "" in lines[start:] else None]
        assert all(line.startswith("| ") and line.endswith(" |") for line in table), name
        assert len(table) == 2 + len(rows), name
        assert sum("pedestrian<br>at nightfall<br>" in line for line in table) == 2, name


README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_readme_command_parses(capsys):
    """Each ``trigkit`` line of the README's ``sh`` blocks, its ``\\``
    continuations joined, names a command and flags that exist: argparse
    exits 2 on any other. The commands are parsed, not run, and every
    command is shown at least once."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                            re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["trigkit"]:
                commands.append(argv[1:])
    assert {argv[0] for argv in commands} == {
        "validate", "stages", "matrix", "generate", "compose", "report"}
    refused = []
    for argv in commands:
        try:
            cli._parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code:
                refused.append(shlex.join(["trigkit", *argv]))
    assert refused == [], capsys.readouterr().err


def test_the_readme_names_every_flag_and_no_other():
    """Every flag of every ``trigkit`` subcommand appears in the README, and
    every ``--flag`` the README names, outside its ``pip`` and ``pytest``
    lines, is a flag of ``trigkit`` or of one of its subcommands."""
    def flags(parser):
        return {flag for action in parser._actions if action.dest != "help"
                for flag in action.option_strings}

    parser = cli._parser()
    subcommands = next(action.choices for action in parser._actions
                       if isinstance(action.choices, dict))
    shown = {flag for line in README.read_text(encoding="utf-8").splitlines()
             if not re.search(r"\b(pip|pytest)\b", line)
             for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", line)}
    unshown = {f"{name} {flag}" for name, sub in subcommands.items()
               for flag in flags(sub) - shown}
    assert unshown == set()
    assert shown - flags(parser).union(*map(flags, subcommands.values())) == set()


def test_end_to_end_demo(tmp_path):
    """The walkthrough in ``demos/`` runs from a fresh directory and writes
    its cases and report."""
    demo = Path(__file__).resolve().parents[1] / "demos" / "end_to_end.py"
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    for name in ("test_cases.json", "report.md"):
        assert (tmp_path / "demo_out" / name).stat().st_size > 0

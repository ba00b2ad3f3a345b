"""Project configuration, input loading, and run-manifest helpers."""

import json
from pathlib import Path

import pytest

from trigkit.config import (
    ENV_CONFIG,
    ProjectConfig,
    build_manifest,
    config_from_doc,
    load_inputs,
    read_config,
    resolve_config_path,
    sha256_file,
    strip_timing,
    write_manifest,
)
from trigkit.data import data_path, reference_config
from trigkit.errors import ToolkitError

MINIMAL_DOC = {
    "schema": "project-config@1",
    "inputs": {
        "ontology": "ontology.yaml",
        "system": "system.yaml",
        "matrix": "matrix.yaml",
        "effects": "effects.yaml",
        "templates": "templates.yaml",
    },
}


class TestResolveConfigPath:
    def test_cli_value_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_CONFIG, "/env/project.yaml")
        assert resolve_config_path("/cli/project.yaml") == Path("/cli/project.yaml")

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_CONFIG, "/env/project.yaml")
        assert resolve_config_path(None) == Path("/env/project.yaml")

    def test_neither_is_an_error(self, monkeypatch):
        monkeypatch.delenv(ENV_CONFIG, raising=False)
        with pytest.raises(ToolkitError, match="pass --config or set TRIGKIT_CONFIG"):
            resolve_config_path(None)
        with pytest.raises(ToolkitError) as excinfo:
            resolve_config_path("")
        assert excinfo.value.code == "MissingInput"


class TestConfigDocuments:
    def test_reference_config_loads(self):
        config = read_config(reference_config())
        assert config.threshold == 2
        assert config.bundle_limit == 2
        assert config.expected_total == 87
        assert config.ontology == data_path("source_ontology.yaml").resolve()
        assert config.output_dir == Path("out")

    def test_inputs_resolve_against_the_config_directory(self, tmp_path):
        config = config_from_doc(MINIMAL_DOC, base_dir=tmp_path)
        assert config.ontology == (tmp_path / "ontology.yaml").resolve()
        assert config.events is None
        assert config.policy is None

    def test_empty_config_rejected(self, tmp_path):
        with pytest.raises(ToolkitError, match="project config is empty") as excinfo:
            config_from_doc({}, base_dir=tmp_path)
        assert excinfo.value.code == "EmptyConfig"

    def test_missing_required_input(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        del doc["inputs"]["matrix"]
        with pytest.raises(ToolkitError, match="inputs.matrix is required"):
            config_from_doc(doc, base_dir=tmp_path)

    def test_inputs_must_be_a_mapping(self, tmp_path):
        doc = {"schema": "project-config@1", "inputs": ["ontology.yaml"]}
        with pytest.raises(ToolkitError, match="'inputs' must be a mapping"):
            config_from_doc(doc, base_dir=tmp_path)

    @pytest.mark.parametrize("threshold", [0, 4, "high", True, 1.0])
    def test_threshold_out_of_range(self, tmp_path, threshold):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["parameters"] = {"threshold": threshold}
        with pytest.raises(ToolkitError, match=r"threshold must be an integer in \[1, 3\]"):
            config_from_doc(doc, base_dir=tmp_path)

    @pytest.mark.parametrize("limit", [-1, True, "many"])
    def test_bundle_limit_validated(self, tmp_path, limit):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["parameters"] = {"bundle_limit": limit}
        with pytest.raises(ToolkitError, match="bundle_limit must be a"):
            config_from_doc(doc, base_dir=tmp_path)

    def test_expected_total_validated(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["parameters"] = {"expected_total": -5}
        with pytest.raises(ToolkitError, match="expected_total must be a"):
            config_from_doc(doc, base_dir=tmp_path)

    def test_output_dir_must_be_a_path(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["output_dir"] = 7
        with pytest.raises(ToolkitError, match="'output_dir' must be a path string"):
            config_from_doc(doc, base_dir=tmp_path)


class TestLoadInputs:
    def test_reference_inputs_load_cleanly(self, config):
        inputs = load_inputs(config)
        assert inputs.ontology.get("Pedestrian") is not None
        assert inputs.suite.vehicle == "RoadSweeper"
        assert inputs.events is not None and len(inputs.events) == 2
        assert inputs.policy is not None

    def test_events_skipped_unless_requested_or_configured(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        for field in ("ontology", "system", "matrix", "effects", "templates"):
            doc["inputs"][field] = str(data_path({
                "ontology": "source_ontology.yaml",
                "system": "sweeper_system.yaml",
                "matrix": "compatibility_matrix.yaml",
                "effects": "effects.yaml",
                "templates": "condition_templates.yaml",
            }[field]))
        config = config_from_doc(doc, base_dir=tmp_path)
        inputs = load_inputs(config)
        assert inputs.events is None
        assert inputs.policy is None

    def test_missing_file_reported(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        config = config_from_doc(doc, base_dir=tmp_path)
        with pytest.raises(FileNotFoundError) as excinfo:
            load_inputs(config)
        assert excinfo.value.filename == str(config.ontology)

    def test_unconfigured_events_requested(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        for field, name in (("ontology", "source_ontology.yaml"),
                            ("system", "sweeper_system.yaml"),
                            ("matrix", "compatibility_matrix.yaml"),
                            ("effects", "effects.yaml"),
                            ("templates", "condition_templates.yaml")):
            doc["inputs"][field] = str(data_path(name))
        config = config_from_doc(doc, base_dir=tmp_path)
        with pytest.raises(ToolkitError, match="config names no events input"):
            load_inputs(config, documents=("ontology", "events"))

    def test_dangling_reference_across_documents(self, tmp_path):
        ontology_text = data_path("source_ontology.yaml").read_text(encoding="utf-8")
        (tmp_path / "ontology.yaml").write_text(
            ontology_text.replace("- name: Leaf\n", "- name: Frond\n"),
            encoding="utf-8")
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["inputs"]["ontology"] = "ontology.yaml"
        for field, name in (("system", "sweeper_system.yaml"),
                            ("matrix", "compatibility_matrix.yaml"),
                            ("effects", "effects.yaml"),
                            ("templates", "condition_templates.yaml")):
            doc["inputs"][field] = str(data_path(name))
        config = config_from_doc(doc, base_dir=tmp_path)
        with pytest.raises(ToolkitError, match="Leaf"):
            load_inputs(config)


class TestManifests:
    def test_sha256_file(self, tmp_path):
        target = tmp_path / "blob.txt"
        target.write_text("stable bytes", encoding="utf-8")
        first = sha256_file(target)
        assert first == sha256_file(target)
        assert len(first) == 64
        target.write_text("different bytes", encoding="utf-8")
        assert sha256_file(target) != first

    def test_manifest_shape(self, tmp_path):
        source = tmp_path / "in.yaml"
        source.write_text("a: 1\n", encoding="utf-8")
        sink = tmp_path / "out.json"
        sink.write_text("{}", encoding="utf-8")
        doc = build_manifest("generate", {"threshold": 2}, [source], [sink],
                             totals={"conditions": 49}, warnings=1, seconds=0.25)
        assert doc["schema"] == "run-manifest@1"
        assert doc["tool"] == {"name": "trigkit", "version": "0.1.0"}
        assert doc["inputs"][0]["sha256"] == sha256_file(source)
        assert doc["outputs"][0]["path"] == str(sink)
        assert doc["timing"] == {"seconds": 0.25}

    def test_strip_timing_isolates_the_volatile_block(self, tmp_path):
        source = tmp_path / "in.yaml"
        source.write_text("a: 1\n", encoding="utf-8")
        fast = build_manifest("generate", {}, [source], [], {}, 0, seconds=0.1)
        slow = build_manifest("generate", {}, [source], [], {}, 0, seconds=9.9)
        assert fast != slow
        assert strip_timing(fast) == strip_timing(slow)
        assert "timing" not in strip_timing(fast)

    def test_write_manifest_round_trips(self, tmp_path):
        path = tmp_path / "manifest.json"
        doc = build_manifest("assess", {}, [], [], {"rated": 3}, 0, seconds=1.0)
        write_manifest(doc, path)
        assert json.loads(path.read_text(encoding="utf-8")) == doc

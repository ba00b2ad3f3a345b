"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py``, so the repository's own test run does
not collect it.
"""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import synth  # noqa: E402
from layers import Tracer  # noqa: E402
from oracle import oracle_ids  # noqa: E402
from trigkit.config import load_inputs, read_config  # noqa: E402
from trigkit.pipeline import generate_catalog  # noqa: E402


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def test_writer_is_deterministic_per_seed(tmp_path):
    synth.write_corpus(tmp_path / "a", 7)
    synth.write_corpus(tmp_path / "b", 7)
    synth.write_corpus(tmp_path / "c", 8)
    first, again, other = (_digests(tmp_path / n) for n in "abc")
    assert len(first) == 8
    assert first == again
    assert first["effects.yaml"] != other["effects.yaml"]
    assert first["source_ontology.yaml"] != other["source_ontology.yaml"]


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("bundle_limit", [1, 2])
def test_oracle_matches_generate_catalog(tmp_path, seed, bundle_limit):
    path = synth.write_corpus(tmp_path, seed, per_kind=3, bundle_limit=bundle_limit)
    config = read_config(path)
    inputs = load_inputs(config)
    catalog = generate_catalog(inputs.ontology, inputs.suite, inputs.matrix,
                               inputs.effects, inputs.templates,
                               threshold=config.threshold,
                               bundle_limit=config.bundle_limit)
    expected = oracle_ids(inputs.ontology, inputs.suite, inputs.matrix,
                          inputs.effects, config.threshold, config.bundle_limit)
    assert expected
    assert {c.id for c in catalog.conditions} == expected


def test_tracing_leaves_the_catalog_unchanged(tmp_path, monkeypatch):
    from trigkit.cli import main
    path = synth.write_corpus(tmp_path / "inputs", 5, per_kind=4)
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(path), "generate"]) == 0
    plain = (tmp_path / "out" / "catalog.json").read_bytes()
    tracer = Tracer()
    with tracer.installed():
        assert main(["--config", str(path), "generate"]) == 0
    traced = (tmp_path / "out" / "catalog.json").read_bytes()
    assert hashlib.sha256(traced).digest() == hashlib.sha256(plain).digest()
    counters = tracer.counters[0]
    assert counters["generation.synthesize_conditions.conditions"] \
        == len(json.loads(traced)["conditions"])
    assert counters["generation.build_matrix.calls"] > 0
    # every wrapper was removed again
    from trigkit import cli, generation, pipeline
    assert not hasattr(pipeline.build_matrix, "__wrapped__")
    assert not hasattr(generation.build_matrix, "__wrapped__")
    assert not hasattr(cli.generate_catalog, "__wrapped__")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweeper-l3", "synth-wide", "cli-sweeper"])
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} \
        == {name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweeper-l3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""

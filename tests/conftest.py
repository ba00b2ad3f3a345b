"""Shared fixtures: the bundled road-sweeper corpus, loaded once per session,
and ``yaml_text``, which writes a YAML input for a test."""

import pytest
from yaml import safe_dump

from trigkit.config import load_inputs, read_config
from trigkit.data import reference_config
from trigkit.pipeline import generate_catalog


def yaml_text(doc: dict) -> str:
    """``doc`` as block YAML, as an analyst would write an input: PyYAML's
    safe dump, in key order, ending in a line break."""
    text = safe_dump(doc, sort_keys=False, allow_unicode=True, default_flow_style=False,
                     width=88)
    return text if text.endswith("\n") else text + "\n"


@pytest.fixture(scope="session")
def config():
    return read_config(reference_config())


@pytest.fixture(scope="session")
def inputs(config):
    return load_inputs(config)


@pytest.fixture(scope="session")
def ontology(inputs):
    return inputs.ontology


@pytest.fixture(scope="session")
def suite(inputs):
    return inputs.suite


@pytest.fixture(scope="session")
def matrix(inputs):
    return inputs.matrix


@pytest.fixture(scope="session")
def effects(inputs):
    return inputs.effects


@pytest.fixture(scope="session")
def templates(inputs):
    return inputs.templates


@pytest.fixture(scope="session")
def events(inputs):
    return inputs.events


@pytest.fixture(scope="session")
def policy(inputs):
    return inputs.policy


@pytest.fixture(scope="session")
def catalog(config, inputs):
    return generate_catalog(inputs.ontology, inputs.suite, inputs.matrix,
                            inputs.effects, inputs.templates,
                            threshold=config.threshold,
                            bundle_limit=config.bundle_limit)


@pytest.fixture
def camera(suite):
    return suite.get("Camera")


@pytest.fixture
def lidar(suite):
    return suite.get("LiDAR")

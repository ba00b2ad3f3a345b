"""Seeded synthetic corpus for the ``synth-wide`` workload.

``write_corpus(directory, seed)`` writes the seven input documents plus a
``project-config@1`` that points at them. The same seed and size always give
byte-identical files. The corpus is built from plain dicts and PyYAML, not
from trigkit's serializers, so a refactor of those cannot change the inputs.

Shape at the default size: 16 concepts per kind with 3-6 properties each,
8 effect rules per concept (3 of them with a relation context), a passive
and an active sensor each serving half of the interactive concepts, one
hazardous event per interactive concept with a negation each, and no
templates, so every condition gets the generic wording.
"""
from __future__ import annotations

import random
from pathlib import Path

import yaml

KINDS = ("InteractiveEntity", "DisturbingEntity", "EnvironmentalModification")
_KIND_PREFIX = {"InteractiveEntity": "Actor", "DisturbingEntity": "Debris",
                "EnvironmentalModification": "Weather"}
_CATEGORIES = {
    "InteractiveEntity": ("Reflectivity", "ReflectionArea", "DataGeneration",
                          "FeatureVariability"),
    "DisturbingEntity": ("Reflectivity", "ReflectionArea", "DataGeneration",
                         "FeatureVariability"),
    "EnvironmentalModification": ("Reflectivity", "Transmittance"),
}
_PROPERTY_POOL = ("SurfaceMaterial", "Color", "Structure", "PerspectiveShape",
                  "Velocity", "Accessory", "Texture", "Gloss", "Outline",
                  "Density", "ParticleSize", "Composition", "LightAngle",
                  "LightIntensity")

PASSIVE_STAGES = ("LightReceiving", "FeatureExtraction", "TargetClassification")
ACTIVE_STAGES = ("SignalTransmission", "SignalPropagation", "SignalReflection",
                 "SignalReceiving", "SemanticSegmentation")
_ACTIVE_QUALITIES = ("SignalIntensity", "SignalAmount", "SignalNoise")
_RECOGNITION_QUALITIES = ("Variety", "Similarity", "Contradiction", "Visibility")
_QUALITIES = {
    "LightReceiving": ("Brightness", "Contrast", "Purity"),
    "SignalTransmission": _ACTIVE_QUALITIES,
    "SignalPropagation": _ACTIVE_QUALITIES,
    "SignalReflection": _ACTIVE_QUALITIES,
    "SignalReceiving": _ACTIVE_QUALITIES,
    "FeatureExtraction": _RECOGNITION_QUALITIES,
    "SemanticSegmentation": _RECOGNITION_QUALITIES,
    "TargetClassification": _RECOGNITION_QUALITIES,
}
_DEGREES = (-3, -3, -2, -2, -1, 1, 2)
RULES_PER_CONCEPT = 8
# Per concept: 3 of 8 rules (~40 %) carry a relation context.
_CONTEXT_STYLES = ("sensor", "kind", "named", None, None, None, None, None)

FILES = {
    "ontology": "source_ontology.yaml",
    "system": "system.yaml",
    "matrix": "compatibility_matrix.yaml",
    "effects": "effects.yaml",
    "templates": "condition_templates.yaml",
    "events": "hazardous_events.yaml",
    "policy": "compose_policy.yaml",
}
CONFIG_NAME = "project.yaml"


def _deck(rng: random.Random, items, n: int) -> list:
    """``n`` draws holding each item as evenly as possible, shuffled.

    Drawing from decks rather than independently keeps the totals (rules per
    stage, per degree, with a context, ...) the same for every seed, so the
    work per op varies little from seed to seed.
    """
    items = list(items)
    deck = (items * (n // len(items) + 1))[:n]
    rng.shuffle(deck)
    return deck


def _concepts(rng: random.Random, per_kind: int) -> list[dict]:
    concepts = []
    for kind in KINDS:
        sizes = _deck(rng, (3, 4, 5, 6), per_kind)
        categories = iter(_deck(rng, _CATEGORIES[kind], sum(sizes)))
        for i, size in enumerate(sizes):
            concepts.append({
                "name": f"{_KIND_PREFIX[kind]}{i:02d}",
                "kind": kind,
                "properties": [{"name": p, "category": next(categories)}
                               for p in rng.sample(_PROPERTY_POOL, size)],
            })
    return concepts


_KIND_GRANTS = (
    ("InteractiveEntity", "DisturbingEntity",
     ("SpatialPosition.Overlay", "SpatialPosition.Occlusion")),
    ("InteractiveEntity", "EnvironmentalModification", ("SurfaceTreatment.Cover",)),
    ("DisturbingEntity", "EnvironmentalModification",
     ("SurfaceTreatment.Cover", "SurfaceTreatment.Lighten")),
    ("EnvironmentalModification", "InteractiveEntity", ("SurfaceTreatment.Lighten",)),
)
_SENSOR_COVERED = ("DisturbingEntity", "EnvironmentalModification")


def _matrix(rng: random.Random, concepts: list[dict]) -> dict:
    entries = [{"focal": f"kind:{focal}", "partner": f"kind:{partner}",
                "relationships": list(forms)}
               for focal, partner, forms in _KIND_GRANTS]
    entries += [{"focal": "Sensor", "partner": f"kind:{kind}",
                 "relationships": ["SurfaceTreatment.Cover"]}
                for kind in _SENSOR_COVERED]
    interactive = [c["name"] for c in concepts if c["kind"] == "InteractiveEntity"]
    pairs = set()
    while len(pairs) < len(interactive) // 2:
        pairs.add(tuple(rng.sample(interactive, 2)))
    for focal, partner in sorted(pairs):
        entries.append({"focal": focal, "partner": partner,
                        "relationships": ["SpatialPosition.Occlusion"]})
    return {"schema": "compatibility-matrix@1", "entries": entries}


def _context(rng: random.Random, style: str, concepts: list[dict],
             owner: dict) -> dict:
    """A context naming a relation the matrix grants the owner.

    ``sensor`` names the owner covering the sensor (falling back to ``kind``
    for owners that cannot cover it); ``kind`` names a partner kind and so
    fires in one bundle per partner of that kind; ``named`` names one partner.
    """
    if style == "sensor" and owner["kind"] in _SENSOR_COVERED:
        return {"relationship": "SurfaceTreatment.Cover", "focal": "Sensor",
                "partner": owner["name"]}
    _, partner_kind, forms = rng.choice(
        [g for g in _KIND_GRANTS if g[0] == owner["kind"]])
    if style == "named":
        partners = [c["name"] for c in concepts if c["kind"] == partner_kind]
        return {"relationship": rng.choice(forms), "focal": owner["name"],
                "partner": rng.choice(partners)}
    return {"relationship": rng.choice(forms), "partner": f"kind:{partner_kind}"}


def _effects(rng: random.Random, concepts: list[dict]) -> dict:
    slots = [(concept, style) for concept in concepts
             for style in _deck(rng, _CONTEXT_STYLES, RULES_PER_CONCEPT)]
    # Each (owner kind, context style) stratum gets the same multiset of
    # (stage, degree) pairs for every seed; only who gets which pair varies.
    strata: dict[tuple, list[int]] = {}
    for i, (concept, style) in enumerate(slots):
        strata.setdefault((concept["kind"], style), []).append(i)
    stages = PASSIVE_STAGES + ACTIVE_STAGES
    pairs: list = [None] * len(slots)
    for indices in strata.values():
        dealt = [(stages[k % len(stages)], _DEGREES[k % len(_DEGREES)])
                 for k in range(len(indices))]
        rng.shuffle(dealt)
        for i, pair in zip(indices, dealt):
            pairs[i] = pair
    joint = _deck(rng, (True,) + (False,) * 4, len(slots))  # 20 % joint rows

    rules = []
    for i, (concept, style) in enumerate(slots):
        props = [p["name"] for p in concept["properties"]]
        if joint[i]:
            prop_key = "/".join(sorted(rng.sample(props, 2)))
        else:
            prop_key = rng.choice(props)
        stage, degree = pairs[i]
        rule = {"concept": concept["name"], "property": prop_key, "stage": stage,
                "stage_property": rng.choice(_QUALITIES[stage]), "degree": degree}
        if style is not None:
            rule["context"] = _context(rng, style, concepts, concept)
        rules.append(rule)
    return {"schema": "effect-knowledge@1", "effects": rules}


def _system(concepts: list[dict]) -> dict:
    interactive = [c["name"] for c in concepts if c["kind"] == "InteractiveEntity"]
    half = max(1, len(interactive) // 2)

    def functionality(verb: str, targets: list[str]) -> list[dict]:
        return [{"target": t, "task": f"{verb} {t}"} for t in targets]

    # Each sensor serves half of the interactive concepts, the two halves
    # disjoint, so how many events a condition pairs with is seed-independent
    # in total.
    return {
        "schema": "perception-system@1",
        "vehicle": "SynthRig",
        "odd": ["Synthetic test track"],
        "sensors": [
            {"sensor": "Cam", "class": "Passive", "stages": list(PASSIVE_STAGES),
             "functionality": functionality("detect", interactive[:half])},
            {"sensor": "Lidar", "class": "Active", "stages": list(ACTIVE_STAGES),
             "functionality": functionality("track", interactive[half:])},
        ],
    }


def documents(seed: int, per_kind: int = 16) -> dict[str, dict]:
    """The seven input documents, keyed like ``FILES``."""
    rng = random.Random(seed)
    concepts = _concepts(rng, per_kind)
    matrix = _matrix(rng, concepts)
    effects = _effects(rng, concepts)
    system = _system(concepts)
    interactive = [c["name"] for c in concepts if c["kind"] == "InteractiveEntity"]
    events = [{"id": f"HE-{i + 1}", "name": f"Collision with {name}",
               "situation": f"{name} stands ahead on the lane",
               "behavior": f"The vehicle stops before {name}",
               "unintended_behavior": "Continue driving with no brake",
               "target": name}
              for i, name in enumerate(interactive)]
    return {
        "ontology": {"schema": "triggering-sources@1", "concepts": concepts},
        "system": system,
        "matrix": matrix,
        "effects": effects,
        "templates": {"schema": "condition-templates@1", "templates": []},
        "events": {"schema": "hazardous-events@1", "events": events},
        "policy": {"schema": "compose-policy@1", "class_map": {},
                   "negations": {e["id"]: f"The vehicle brakes before {e['target']}"
                                 for e in events}},
    }


def write_corpus(directory: str | Path, seed: int, *, per_kind: int = 16,
                 bundle_limit: int = 1) -> Path:
    """Write the corpus and its project config; return the config path.

    Outputs go to ``out`` relative to the working directory of the run.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for key, doc in documents(seed, per_kind).items():
        _dump(doc, directory / FILES[key])
    config = {"schema": "project-config@1", "inputs": dict(FILES),
              "parameters": {"threshold": 2, "bundle_limit": bundle_limit},
              "output_dir": "out"}
    path = directory / CONFIG_NAME
    _dump(config, path)
    return path


def _dump(doc: dict, path: Path) -> None:
    path.write_text(yaml.safe_dump(doc, sort_keys=False, allow_unicode=True,
                                   default_flow_style=False, width=88),
                    encoding="utf-8")

#!/usr/bin/env python3
"""Full pipeline walkthrough on the bundled road-sweeper corpus.

Runs every stage in-process — generation, analyst rating, test-case
composition, a simulated execution round, and the final report — and leaves
all artifacts under ./demo_out for inspection. No arguments needed:

    python3 demos/end_to_end.py
"""

from pathlib import Path

from trigkit.config import load_inputs, read_config
from trigkit.data import reference_config
from trigkit.docio import dump_document
from trigkit.pipeline import generate_catalog
from trigkit.render import (
    AssessmentClass,
    cases_to_doc,
    cases_to_markdown,
    catalog_to_csv,
    catalog_to_doc,
    rank,
    render_report,
)
from trigkit.testcases import BehaviorClass, ResultsLedger, compose, outcome_record

OUT = Path("demo_out")


def banner(text: str) -> None:
    print()
    print(f"=== {text} " + "=" * max(0, 60 - len(text)))


def main() -> None:
    OUT.mkdir(exist_ok=True)

    # ------------------------------------------------------------------
    # 1. Load the project: ontology, sensors, matrix, effects, templates
    # ------------------------------------------------------------------
    banner("Inputs")
    config = read_config(reference_config())
    inputs = load_inputs(config)
    print(f"vehicle: {inputs.suite.vehicle}")
    print(f"sensors: {', '.join(s.sensor for s in inputs.suite.sensors)}")
    print(f"triggering sources: {len(inputs.ontology.concepts)} concepts, "
          f"effect knowledge: {len(inputs.effects.rules)} rules")

    # ------------------------------------------------------------------
    # 2. Generate the triggering-condition catalog
    # ------------------------------------------------------------------
    banner("Generation")
    catalog = generate_catalog(
        inputs.ontology, inputs.suite, inputs.matrix, inputs.effects,
        inputs.templates, threshold=config.threshold,
        bundle_limit=config.bundle_limit)
    counts = ", ".join(f"{sensor}: {n}"
                       for sensor, n in sorted(catalog.count_by_sensor().items()))
    print(f"{len(catalog.conditions)} conditions ({counts})")
    for warning in catalog.warnings:
        print(f"  warning: {warning}")
    (OUT / "catalog.json").write_text(dump_document(catalog_to_doc(catalog)),
                                      encoding="utf-8")
    (OUT / "catalog.csv").write_text(catalog_to_csv(catalog), encoding="utf-8")
    print("sample conditions:")
    for condition in catalog.conditions[:3]:
        print(f"  [{condition.id}] {condition.sensor}: {condition.description}")

    # ------------------------------------------------------------------
    # 3. Rate a handful of conditions the way an analyst workshop would
    # ------------------------------------------------------------------
    banner("Assessment")
    ratings = {
        catalog.conditions[0].id: AssessmentClass("E4", "C4"),
        catalog.conditions[1].id: AssessmentClass("E3", "C4"),
        catalog.conditions[2].id: AssessmentClass("E4", "C2"),
        catalog.conditions[3].id: AssessmentClass("E2", "C2"),
    }
    print(f"rated {len(ratings)} of {len(catalog.conditions)} conditions; "
          "top of the ranking:")
    for condition, rating in rank(catalog.conditions, ratings)[:4]:
        print(f"  {rating.exposure}/{rating.criticality}  {condition.description}")

    # ------------------------------------------------------------------
    # 4. Compose executable test cases against the hazardous events
    # ------------------------------------------------------------------
    banner("Composition")
    cases, warnings = compose(catalog.conditions, inputs.events, inputs.suite,
                              inputs.policy)
    print(f"{len(cases)} test cases from {len(catalog.conditions)} conditions "
          f"and {len(inputs.events)} hazardous events")
    (OUT / "test_cases.json").write_text(
        dump_document(cases_to_doc(cases, warnings)), encoding="utf-8")
    (OUT / "test_cases.md").write_text(cases_to_markdown(cases), encoding="utf-8")
    sample = cases[0]
    print("first case:")
    print(f"  situation: {sample.situation}")
    print(f"  trigger:   {sample.trigger}")
    print(f"  fail when: {sample.fail_criterion}")
    print(f"  pass when: {sample.pass_criterion}")

    # ------------------------------------------------------------------
    # 5. Record a simulated execution round in the results ledger
    # ------------------------------------------------------------------
    banner("Execution")
    ledger_path = OUT / "results.jsonl"
    ledger_path.unlink(missing_ok=True)
    ledger = ResultsLedger(ledger_path)
    script = [
        (cases[0], BehaviorClass.NEAR_COLLISION, "no brake until 0.4 m"),
        (cases[1], BehaviorClass.HESITANT, "late, jerky stop"),
        (cases[2], BehaviorClass.NOMINAL, ""),
        (cases[3], BehaviorClass.UNINTENDED_NO_HAZARD, "stopped for a leaf pile"),
    ]
    for case, behavior, note in script:
        record = outcome_record(case, behavior, note=note)
        ledger.append(record)
        print(f"  {record['outcome']:>8}  {behavior.value}  ({case.id})")

    # ------------------------------------------------------------------
    # 6. Render the ranked report
    # ------------------------------------------------------------------
    banner("Report")
    report = render_report(catalog, cases, ledger.read(), ratings)
    (OUT / "report.md").write_text(report, encoding="utf-8")
    print(f"report written to {OUT / 'report.md'}")
    print()
    print("\n".join(report.splitlines()[:6]))


if __name__ == "__main__":
    main()

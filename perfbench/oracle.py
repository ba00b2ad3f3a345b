"""Brute-force condition-id enumerator, the reference for ``synth-wide``.

A copy of the acceptance gate's enumerator (C3) kept with the benchmark, so
that refactoring the tests cannot change what the benchmark checks against.
It re-derives candidate relations, bundles, matrix rows, the winning rule of
every cell, the threshold and the demanded-relation rule from the documents'
objects without calling the pipeline. It assumes generic wording for every
condition (the synthetic corpus has no templates).
"""
from __future__ import annotations

import hashlib
from itertools import combinations

from trigkit.ontology import legal_categories
from trigkit.perception import STAGE_BY_NAME, STAGE_ORDER, StagePhase, affected_stages
from trigkit.relationships import DEFAULT_PERTURBED, RelationshipInstance
from trigkit.templates import TemplateSet


def _pattern_ok(pattern, name, kind) -> bool:
    if pattern.name is not None:
        return pattern.name == name
    return kind is not None and pattern.kind is kind


def _resolve(matrix, focal_name, focal_kind, partner_name, partner_kind):
    best, best_score = None, -1
    for entry in matrix.entries:
        if not _pattern_ok(entry.focal, focal_name, focal_kind):
            continue
        if not _pattern_ok(entry.partner, partner_name, partner_kind):
            continue
        score = (2 if entry.focal.name is not None else 0) \
            + (1 if entry.partner.name is not None else 0)
        if score > best_score:
            best, best_score = entry, score
    return best


def _candidates(source, matrix, ontology):
    candidates = []
    entry = _resolve(matrix, "Sensor", None, source.name, source.kind)
    if entry is not None:
        for form in sorted(set(entry.forms), key=lambda f: f.label):
            perturbed = entry.perturbed_for(form)
            if perturbed is None:
                perturbed = DEFAULT_PERTURBED[form.kind]
            candidates.append(RelationshipInstance(
                form=form, focal="Sensor", partner=source.name,
                perturbed=perturbed, source=entry.source))
    for partner_name in ontology.names():
        if partner_name == source.name:
            continue
        partner = ontology.get(partner_name)
        entry = _resolve(matrix, source.name, source.kind,
                         partner.name, partner.kind)
        if entry is None:
            continue
        for form in sorted(set(entry.forms), key=lambda f: f.label):
            perturbed = entry.perturbed_for(form)
            if perturbed is None:
                perturbed = DEFAULT_PERTURBED[form.kind]
            if perturbed - legal_categories(source.kind):
                continue
            candidates.append(RelationshipInstance(
                form=form, focal=source.name, partner=partner.name,
                perturbed=perturbed, source=entry.source))
    return candidates


def _context_matches(context, rel, ontology) -> bool:
    if context.form is not None and rel.form != context.form:
        return False
    for pattern, name in ((context.focal, rel.focal),
                          (context.partner, rel.partner)):
        if pattern is None:
            continue
        concept = ontology.get(name)
        kind = concept.kind if concept is not None else None
        if not _pattern_ok(pattern, name, kind):
            return False
    return True


def _specificity(rule) -> int:
    if rule.context is None:
        return 0
    score = 1
    if rule.context.form is not None:
        score += 1
    for pattern in (rule.context.focal, rule.context.partner):
        if pattern is not None:
            score += 2 if pattern.name is not None else 1
    return score


def _condition_id(sensor, source, signature, owner, propkey, stage, tag, distance):
    payload = "|".join([sensor, source, signature, owner, propkey, stage,
                        tag, "D" if distance else "B"])
    return "c" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def oracle_ids(ontology, suite, matrix, kb, threshold: int,
               bundle_limit: int) -> set[str]:
    """Every condition id the catalog must hold, with generic wording."""
    ids = set()
    tag = TemplateSet.GENERIC_TAG
    for spec in suite.sensors:
        for source_name in ontology.names():
            source = ontology.get(source_name)
            candidates = _candidates(source, matrix, ontology)
            bundles = [()]
            for size in range(1, bundle_limit + 1):
                bundles.extend(combinations(candidates, size))
            for chosen in bundles:
                rels = sorted(chosen, key=lambda r: (r.form.label, r.focal, r.partner))
                signature = ";".join(f"{r.form.label}({r.focal},{r.partner})"
                                     for r in rels)
                stages = affected_stages(source, rels, spec, ontology)
                if not stages:
                    continue
                columns = [(stage, quality)
                           for stage in sorted(stages, key=STAGE_ORDER.get)
                           for quality in STAGE_BY_NAME[stage].quality_properties]

                rows = {(source.name, (p,)) for p in source.property_names()}
                for rel in rels:
                    if rel.focal == "Sensor":
                        continue
                    partner = ontology.get(rel.partner)
                    for prop in partner.property_names():
                        if partner.categories_of(prop) & rel.perturbed:
                            rows.add((partner.name, (prop,)))
                singles = {(concept, props[0]) for concept, props in rows}
                for rule in kb.rules:
                    if len(rule.properties) > 1 and all(
                            (rule.concept, p) in singles for p in rule.properties):
                        rows.add((rule.concept, rule.properties))

                best = {}
                for rule in kb.rules:
                    if rule.context is not None and not any(
                            _context_matches(rule.context, rel, ontology)
                            for rel in rels):
                        continue
                    key = (rule.concept, rule.properties, rule.stage,
                           rule.stage_property)
                    current = best.get(key)
                    if current is None or rule.degree < current.degree \
                            or (rule.degree == current.degree
                                and _specificity(rule) > _specificity(current)):
                        best[key] = rule

                groups = {}
                for concept, props in rows:
                    for stage, quality in columns:
                        rule = best.get((concept, props, stage, quality))
                        if rule is None or rule.degree > -threshold:
                            continue
                        groups.setdefault(((concept, props), stage), []).append(rule)

                for ((concept, props), stage), cells in groups.items():
                    demanded = all(
                        any(cell.context is not None
                            and _context_matches(cell.context, rel, ontology)
                            for cell in cells)
                        for rel in rels)
                    if not demanded:
                        continue
                    propkey = "/".join(props)
                    ids.add(_condition_id(spec.sensor, source.name, signature,
                                          concept, propkey, stage, tag, False))
                    if STAGE_BY_NAME[stage].phase is StagePhase.SENSING:
                        ids.add(_condition_id(spec.sensor, source.name, signature,
                                              concept, propkey, stage, tag, True))
    return ids

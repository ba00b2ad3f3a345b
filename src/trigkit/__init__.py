"""Ontology-driven generation of perception triggering conditions.

The toolkit walks the insufficiency-analysis pipeline end to end: a source
ontology (interactive entities, disturbing entities, environmental
modifications) is crossed with a declared perception system through a
relationship compatibility matrix; worst-case effects are filtered from a
generation matrix; surviving cells are synthesized into a triggering
condition catalog, rated by exposure and criticality, and composed with
hazardous events into executable test cases.
"""

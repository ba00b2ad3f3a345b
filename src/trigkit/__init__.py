"""Ontology-driven generation of perception triggering conditions.

The toolkit walks the insufficiency-analysis pipeline end to end: a source
ontology (interactive entities, disturbing entities, environmental
modifications) is crossed with a declared perception system through a
relationship compatibility matrix; worst-case effects are filtered from a
generation matrix; surviving cells are synthesized into a triggering
condition catalog, rated by exposure and criticality, and composed with
hazardous events into executable test cases.
"""
from .config import (
    CONFIG_SCHEMA,
    ENV_CONFIG,
    MANIFEST_SCHEMA,
    ProjectConfig,
    ProjectInputs,
    build_manifest,
    load_inputs,
    read_config,
    sha256_file,
    strip_timing,
    write_manifest,
)
from .docio import (
    check_schema,
    detect_format,
    dump_document,
    parse_document,
    read_document,
)
from .errors import Diagnostic, DiagnosticSink, DocumentError, ToolkitError
from .generation import (
    CRITICALITY_LEVELS,
    EFFECTS_SCHEMA,
    EXPOSURE_LEVELS,
    RATINGS_SCHEMA,
    AssessmentClass,
    EffectEntry,
    EffectKnowledgeBase,
    EffectRule,
    GenerationMatrix,
    RelationContext,
    TriggeringCondition,
    assess,
    build_matrix,
    condition_id,
    positive_cells,
    rank,
    render_degree,
    synthesize_conditions,
    worst_case_filter,
)
from .naming import display_name, display_property_key, is_identifier
from .ontology import (
    ENTITY_CATEGORIES,
    MODIFICATION_CATEGORIES,
    ONTOLOGY_SCHEMA,
    SENSOR_TARGET,
    ConceptKind,
    PropertyCategory,
    SourceConcept,
    SourceOntology,
    SourceProperty,
    legal_categories,
    lookup_concept,
)
from .perception import (
    ALL_STAGES,
    STAGE_BY_NAME,
    SYSTEM_SCHEMA,
    ChainEvent,
    PerceptionStage,
    PerceptionSystemSpec,
    PropagationPattern,
    SensorClass,
    SensorSuite,
    StagePhase,
    affected_stages,
    stages_for_class,
    trace_propagation,
)
from .pipeline import Catalog, candidate_relations, enumerate_bundles, generate_catalog
from .relationships import (
    DEFAULT_PERTURBED,
    MATRIX_SCHEMA,
    RELATION_FORMS,
    CompatibilityMatrix,
    MatrixEntry,
    MatrixPattern,
    RelationForm,
    RelationshipBundle,
    RelationshipInstance,
    RelationshipKind,
    applicable_relationships,
    compose_bundle,
    instantiate_relationship,
    instantiate_sensor_relationship,
    parse_relation_form,
    sensor_applicable_relationships,
)
from .render import (
    CASES_SCHEMA,
    CATALOG_SCHEMA,
    CSV_HEADER,
    catalog_from_doc,
    catalog_to_csv,
    catalog_to_doc,
    catalog_to_markdown,
    cases_from_doc,
    cases_to_doc,
    cases_to_markdown,
    matrix_to_csv,
    matrix_to_doc,
    matrix_to_markdown,
    render_report,
    report_to_doc,
)
from .templates import (
    TEMPLATES_SCHEMA,
    TemplateSet,
    split_signature,
)
from .testcases import (
    EVENTS_SCHEMA,
    OUTCOME_BY_BEHAVIOR,
    POLICY_SCHEMA,
    BehaviorClass,
    ComposePolicy,
    HazardousEvent,
    ResultsLedger,
    TestCase,
    compose,
    outcome_record,
    test_case_id,
)

__version__ = "0.1.0"

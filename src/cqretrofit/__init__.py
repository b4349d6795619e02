"""Retrofit candidate competency questions onto existing ontologies.

Pipeline stages: extract readable triples from an ontology, render
prompts per statement, collect questions from chat-completion providers,
filter out duplicates and non-CQ questions, and validate the candidates
against design CQs with similarity matching and evaluation metrics.
"""
from .filtration import (
    CandidateCQ,
    FiltrationConfig,
    RemovalReason,
    Strictness,
    dedup,
    filter_questions,
    is_duplicate,
    is_modelling_primitive,
    is_subjective_narrative,
    kept_questions,
    normalize_question,
)
from .gateway import (
    GenerationRecord,
    ProviderConfig,
    RawResponse,
    ResponseCache,
    complete,
    extract_questions,
    generate_records,
    mock_provider,
)
from .matcher import (
    DesignCQSet,
    MatcherBackend,
    MatcherConfig,
    MatchReport,
    embed,
    embed_batch,
    load_design_cqs,
    match_candidates,
    similarity,
)
from .metrics import (
    EvalMetrics,
    StatsRow,
    ValidationLabels,
    compute_metrics,
    mean_questions_per_triple,
    metrics_from_counts,
    precision_from_labels,
    unmatched_stats,
    word_count,
)
from .ontology import (
    IngestCounts,
    Statement,
    StatementSet,
    Term,
    TermKind,
    derive_label,
    filter_statements,
    is_opaque_label,
    parse_ontology,
    to_ntriples,
)
from .prompts import (
    PromptInstance,
    PromptTemplate,
    list_templates,
    render_prompt,
    render_statement,
)

__version__ = "0.1.0"

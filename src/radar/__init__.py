"""Retrieval-augmented diagnostic reasoning engine.

Pipelines a case through hypothesis generation, targeted query synthesis,
cached external-knowledge retrieval into an exact dense-vector index,
evidence-grounded answering, and a final ranked diagnosis; ships three
baseline agent topologies and a Top-1/Top-5 evaluation harness alongside.
"""
from .agents import (
    AgentConfig,
    AgentRole,
    TemplateRegistry,
    answer_question,
    config_for_role,
    final_diagnosis,
    generate_queries,
    initial_diagnosis,
    parse_structured,
)
from .chunking import Chunk, Document, EmbeddedChunk, Section, embed_chunks, l2_normalize, segment
from .domain import (
    NO_EVIDENCE_ANSWER,
    CandidateList,
    Case,
    DiagnosisReport,
    EvidenceAnswer,
    QueryPair,
    canonical_fold,
    load_cases,
    validate_case,
)
from .evaluation import (
    AggregateResult,
    DictionaryNormalizer,
    EvalResult,
    NormalizedPrediction,
    ProviderNormalizer,
    aggregate,
    evaluate_run,
    score_case,
)
from .index import FlatIndex, ScoredChunk
from .knowledge import (
    FixtureSource,
    KnowledgeBase,
    LiveSource,
    RetrievalHit,
    RetrievalOutcome,
    fetch_documents,
    html_to_text,
)
from .providers import (
    ChatMessage,
    ChatRequest,
    ChatResponse,
    HashingEmbedder,
    HttpChatProvider,
    HttpEmbedder,
    ScriptedChatProvider,
    embed_text,
    scripted_provider_from_file,
)
from .runner import RunConfig, load_run_config, run_cases
from .topologies import (
    ProviderBundle,
    RunTrace,
    Topology,
    borda_aggregate,
    run_challenger,
    run_collaborative,
    run_radar,
    run_single,
)

__version__ = "0.1.0"

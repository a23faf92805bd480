"""The four experiment configurations: single, collaborative, challenger,
and the retrieval-augmented pipeline.

Each maps one case to a (DiagnosisReport, RunTrace) pair. Trace ids are
derived from topology and case id, so re-running identical inputs yields
identical reports; wall-clock timestamps live only in trace steps.
"""
from __future__ import annotations

import functools
import hashlib
import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Sequence

from .agents import (
    AgentConfig,
    AgentRole,
    TemplateRegistry,
    answer_question,
    ask_structured,
    config_for_role,
    default_templates,
    final_diagnosis,
    generate_queries,
    initial_diagnosis,
    DEFAULT_N_QUERIES,
)
from .domain import (
    CandidateList,
    Case,
    DiagnosisReport,
    EvidenceAnswer,
    QueryPair,
    canonical_fold,
    no_evidence_answer,
)
from .errors import (
    DegenerateVectorError,
    EmbeddingError,
    FetchError,
    IngestionError,
    RadarError,
    TransportError,
    ValidationError,
)
from .knowledge import DocumentSource, KnowledgeBase, RetrievalHit
from .providers import MAX_CONCURRENT_CALLS, ChatProvider, Embedder, embed_text

RETRIEVAL_TOP_K = 5
DEFAULT_COLLAB_AGENTS = 3
DEFAULT_COLLAB_ROUNDS = 2


class Topology(str, Enum):
    SINGLE = "single"
    COLLABORATIVE = "collaborative"
    CHALLENGER = "challenger"
    RADAR = "radar"


@dataclass(frozen=True)
class TraceStep:
    step_kind: str
    agent_role: str
    request_digest: str
    response_digest: str
    timestamp: float
    detail: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        out = {
            "step_kind": self.step_kind,
            "agent_role": self.agent_role,
            "request_digest": self.request_digest,
            "response_digest": self.response_digest,
            "timestamp": self.timestamp,
        }
        if self.detail is not None:
            out["detail"] = self.detail
        return out


@dataclass
class RunTrace:
    trace_id: str
    topology: Topology
    case_id: str
    steps: list[TraceStep] = field(default_factory=list)

    def add(
        self,
        step_kind: str,
        agent_role: str,
        request_text: str = "",
        response_text: str = "",
        detail: dict[str, Any] | None = None,
    ) -> None:
        self.steps.append(
            TraceStep(
                step_kind=step_kind,
                agent_role=agent_role,
                request_digest=_digest(request_text),
                response_digest=_digest(response_text),
                timestamp=time.time(),
                detail=detail,
            )
        )

    def annotate_last(self, detail: dict[str, Any]) -> None:
        """Attach detail to the most recent step (known only after parsing)."""
        last = self.steps[-1]
        self.steps[-1] = TraceStep(
            last.step_kind,
            last.agent_role,
            last.request_digest,
            last.response_digest,
            last.timestamp,
            detail,
        )

    def kinds(self) -> list[str]:
        return [s.step_kind for s in self.steps]

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "topology": self.topology.value,
            "case_id": self.case_id,
            "steps": [s.to_dict() for s in self.steps],
        }


class TopologyRunError(RadarError):
    """An agent failure aborted a topology run; carries the partial trace."""

    def __init__(self, message: str, trace: RunTrace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class ProviderBundle:
    """Everything a topology may need: chat backend, embedder, document source."""

    chat: ChatProvider
    embedder: Embedder | None = None
    source: DocumentSource | None = None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _trace_id(topology: Topology, case: Case) -> str:
    return f"{topology.value}-{case.id}"


def _step_recorder(trace: RunTrace, step_kind: str, role: AgentRole, detail=None):
    def on_step(request_text: str, response_text: str) -> None:
        trace.add(step_kind, role.value, request_text, response_text, detail)

    return on_step


def _abort(trace: RunTrace, step_kind: str, role: str, exc: Exception) -> TopologyRunError:
    trace.add(step_kind, role, "", "", detail={"error": f"{type(exc).__name__}: {exc}"})
    return TopologyRunError(f"{trace.topology.value} run failed at {step_kind}: {exc}", trace)


def _report_from_reply(value: dict[str, Any], trace_id: str) -> DiagnosisReport:
    return DiagnosisReport(
        primary=value["primary"],
        differentials=tuple(value["differentials"]),
        confidences=tuple(value["confidences"]),
        evidence=(),
        trace_id=trace_id,
    )


# ---------------------------------------------------------------------------
# Single agent
# ---------------------------------------------------------------------------


def run_single(
    providers: ProviderBundle,
    case: Case,
    templates: TemplateRegistry | None = None,
) -> tuple[DiagnosisReport, RunTrace]:
    """One doctor call, no candidates, no evidence."""
    trace = RunTrace(_trace_id(Topology.SINGLE, case), Topology.SINGLE, case.id)
    registry = templates or default_templates()
    cfg = config_for_role(AgentRole.FINAL_DOCTOR, template_id="single_doctor", templates=registry)
    prompt = registry.render(
        cfg.prompt_template_id, caption=case.caption, clinical_data=case.clinical_data
    )
    try:
        report = ask_structured(
            providers.chat,
            cfg,
            prompt,
            "diagnosis_report",
            lambda value: _report_from_reply(value, trace.trace_id),
            _step_recorder(trace, "diagnose", AgentRole.FINAL_DOCTOR),
        )
    except RadarError as exc:
        raise _abort(trace, "diagnose", AgentRole.FINAL_DOCTOR.value, exc) from exc
    return report, trace


# ---------------------------------------------------------------------------
# Collaborative consensus
# ---------------------------------------------------------------------------


def _primaries_agree(reports: Sequence[DiagnosisReport]) -> bool:
    folded = {canonical_fold(r.primary) for r in reports}
    return len(folded) == 1


def borda_aggregate(
    reports: Sequence[DiagnosisReport], trace_id: str = ""
) -> tuple[DiagnosisReport, dict[str, float]]:
    """Merge ranked reports by Borda count over the five slots.

    The primary slot scores 5 points down to 1 for the last differential.
    Labels are grouped after canonical folding; the displayed spelling and
    any tie both resolve to the earliest agent (then slot) occurrence.
    Confidences are Borda scores rescaled by the maximum attainable score.
    """
    scores: dict[str, float] = {}
    display: dict[str, str] = {}
    first_seen: dict[str, int] = {}
    for agent_idx, report in enumerate(reports):
        for slot, label in enumerate(report.labels):
            folded = canonical_fold(label)
            scores[folded] = scores.get(folded, 0.0) + (5 - slot)
            if folded not in display:
                display[folded] = label
                first_seen[folded] = agent_idx * 5 + slot
    ranked = sorted(scores, key=lambda f: (-scores[f], first_seen[f]))
    top = ranked[:5]
    while len(top) < 5:  # degenerate ballots with <5 distinct labels
        top.append(top[-1])
    max_score = 5.0 * len(reports)
    report = DiagnosisReport(
        primary=display[top[0]],
        differentials=tuple(display[f] for f in top[1:]),
        confidences=tuple(scores[f] / max_score for f in top),
        evidence=(),
        trace_id=trace_id,
    )
    return report, {display[f]: scores[f] for f in ranked}


def run_collaborative(
    providers: ProviderBundle,
    case: Case,
    n_agents: int = DEFAULT_COLLAB_AGENTS,
    max_rounds: int = DEFAULT_COLLAB_ROUNDS,
    templates: TemplateRegistry | None = None,
) -> tuple[DiagnosisReport, RunTrace]:
    """Independent assessments, then discussion rounds until primaries agree.

    Consensus at any point short-circuits and returns the first agent's
    current report; after ``max_rounds`` without agreement the reports are
    merged by Borda count.
    """
    if n_agents < 2:
        raise ValidationError(f"collaboration needs at least 2 agents, got {n_agents}")
    trace = RunTrace(_trace_id(Topology.COLLABORATIVE, case), Topology.COLLABORATIVE, case.id)
    registry = templates or default_templates()
    initial_cfg = config_for_role(AgentRole.COLLABORATOR, templates=registry)
    revise_cfg = config_for_role(
        AgentRole.COLLABORATOR, template_id="collaborator_revise", templates=registry
    )

    def agent_call(cfg: AgentConfig, prompt: str, kind: str, agent_idx: int) -> DiagnosisReport:
        try:
            return ask_structured(
                providers.chat,
                cfg,
                prompt,
                "diagnosis_report",
                lambda value: _report_from_reply(value, trace.trace_id),
                _step_recorder(trace, kind, AgentRole.COLLABORATOR, {"agent": agent_idx}),
            )
        except RadarError as exc:
            raise _abort(trace, kind, AgentRole.COLLABORATOR.value, exc) from exc

    reports = []
    for idx in range(n_agents):
        prompt = registry.render(
            initial_cfg.prompt_template_id,
            caption=case.caption,
            clinical_data=case.clinical_data,
        )
        reports.append(agent_call(initial_cfg, prompt, "diagnose", idx))

    for _ in range(max_rounds):
        if _primaries_agree(reports):
            return reports[0], trace
        revised = []
        for idx in range(n_agents):
            peers = [r.to_dict() for j, r in enumerate(reports) if j != idx]
            prompt = registry.render(
                revise_cfg.prompt_template_id,
                caption=case.caption,
                clinical_data=case.clinical_data,
                peer_reports=json.dumps(peers, indent=2),
            )
            revised.append(agent_call(revise_cfg, prompt, "discuss", idx))
        reports = revised

    if _primaries_agree(reports):
        return reports[0], trace
    report, scores = borda_aggregate(reports, trace.trace_id)
    trace.add(
        "aggregate",
        "consensus",
        json.dumps([r.to_dict() for r in reports]),
        json.dumps(report.to_dict()),
        detail={"borda_scores": scores},
    )
    return report, trace


# ---------------------------------------------------------------------------
# Challenger
# ---------------------------------------------------------------------------


def run_challenger(
    providers: ProviderBundle,
    case: Case,
    templates: TemplateRegistry | None = None,
) -> tuple[DiagnosisReport, RunTrace]:
    """Draft, adversarial critique, one revision. Empty critique keeps the draft."""
    trace = RunTrace(_trace_id(Topology.CHALLENGER, case), Topology.CHALLENGER, case.id)
    registry = templates or default_templates()
    doctor_cfg = config_for_role(
        AgentRole.FINAL_DOCTOR, template_id="single_doctor", templates=registry
    )
    challenger_cfg = config_for_role(AgentRole.CHALLENGER, templates=registry)
    revise_cfg = config_for_role(
        AgentRole.FINAL_DOCTOR, template_id="doctor_revise", templates=registry
    )

    prompt = registry.render(
        doctor_cfg.prompt_template_id, caption=case.caption, clinical_data=case.clinical_data
    )
    try:
        draft = ask_structured(
            providers.chat,
            doctor_cfg,
            prompt,
            "diagnosis_report",
            lambda value: _report_from_reply(value, trace.trace_id),
            _step_recorder(trace, "draft", AgentRole.FINAL_DOCTOR),
        )
    except RadarError as exc:
        raise _abort(trace, "draft", AgentRole.FINAL_DOCTOR.value, exc) from exc

    draft_json = json.dumps(draft.to_dict(), indent=2)
    prompt = registry.render(
        challenger_cfg.prompt_template_id,
        caption=case.caption,
        clinical_data=case.clinical_data,
        draft=draft_json,
    )
    try:
        objections = ask_structured(
            providers.chat,
            challenger_cfg,
            prompt,
            "critique",
            lambda value: value,
            _step_recorder(trace, "critique", AgentRole.CHALLENGER),
        )
    except RadarError as exc:
        raise _abort(trace, "critique", AgentRole.CHALLENGER.value, exc) from exc

    if not objections:
        return draft, trace

    prompt = registry.render(
        revise_cfg.prompt_template_id,
        caption=case.caption,
        clinical_data=case.clinical_data,
        draft=draft_json,
        critique="\n".join(f"- {o}" for o in objections),
    )
    try:
        revised = ask_structured(
            providers.chat,
            revise_cfg,
            prompt,
            "diagnosis_report",
            lambda value: _report_from_reply(value, trace.trace_id),
            _step_recorder(trace, "revise", AgentRole.FINAL_DOCTOR),
        )
    except RadarError as exc:
        raise _abort(trace, "revise", AgentRole.FINAL_DOCTOR.value, exc) from exc
    return revised, trace


# ---------------------------------------------------------------------------
# Retrieval-augmented pipeline
# ---------------------------------------------------------------------------

_branches: ThreadPoolExecutor | None = None
_branches_lock = threading.Lock()


def _branch_pool() -> ThreadPoolExecutor:
    """The process-wide pool that runs every case's independent agent calls.

    Created on first use and shared by all cases, so no case pays for thread
    start-up. Branch tasks only call the model and never wait on other
    branch tasks, so the bounded pool cannot deadlock; calls beyond the cap
    queue.
    """
    global _branches
    with _branches_lock:
        if _branches is None:
            _branches = ThreadPoolExecutor(MAX_CONCURRENT_CALLS, thread_name_prefix="radar-branch")
        return _branches


@dataclass(frozen=True)
class _Stage:
    """One pipeline step: how it aborts the case, its own trace, its outcome."""

    kind: str
    role: AgentRole
    trace: RunTrace
    outcome: Future


def _done(value: Any) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


def _join(trace: RunTrace, stages: Sequence[_Stage]) -> list[Any]:
    """Splice every stage's steps into ``trace`` in pipeline order and return
    their values; the earliest failing stage aborts the case."""
    failures = [stage.outcome.exception() for stage in stages]  # waits for each
    for stage in stages:
        trace.steps.extend(stage.trace.steps)
    for stage, exc in zip(stages, failures):
        if isinstance(exc, RadarError):
            raise _abort(trace, stage.kind, stage.role.value, exc) from exc
        if exc is not None:
            raise exc
    return [stage.outcome.result() for stage in stages]


def run_radar(
    providers: ProviderBundle,
    kb: KnowledgeBase,
    case: Case,
    n_queries: int = DEFAULT_N_QUERIES,
    top_k: int = RETRIEVAL_TOP_K,
    templates: TemplateRegistry | None = None,
) -> tuple[DiagnosisReport, RunTrace]:
    """Hypotheses, targeted queries, cached retrieval, grounded answers, final report.

    A retrieval failure for one question degrades that question to the
    sentinel answer and the pipeline continues; agent failures abort the
    case with the trace attached.

    Independent model calls overlap, so a case waits on three calls in a
    row, not one per agent step. The initial doctor and the query generator
    run concurrently. Retrieval runs on the calling thread in query order, so
    every search sees the same ingests as in a serial run. Each answer is
    asked as soon as its retrieval is done, and the final doctor runs once
    every answer is back, with the evidence in query order. Agent calls run
    on the shared branch pool, each recording into its own trace; their
    steps are spliced back in pipeline order, so only timestamps interleave.
    On failure every submitted call is awaited, then the case aborts at the
    earliest failing step in pipeline order, with every step that ran.
    """
    if providers.embedder is None or providers.source is None:
        raise ValidationError("the retrieval topology needs an embedder and a document source")
    trace = RunTrace(_trace_id(Topology.RADAR, case), Topology.RADAR, case.id)
    registry = templates or default_templates()

    init_cfg = config_for_role(AgentRole.INITIAL_DOCTOR, templates=registry)
    query_cfg = config_for_role(AgentRole.QUERY_GENERATOR, templates=registry)
    answer_cfg = config_for_role(AgentRole.ANSWER_GENERATOR, templates=registry)
    final_cfg = config_for_role(AgentRole.FINAL_DOCTOR, templates=registry)
    pool = _branch_pool()

    def submit(kind: str, role: AgentRole, call, part: RunTrace | None = None) -> _Stage:
        if part is None:
            part = RunTrace(trace.trace_id, trace.topology, trace.case_id)
        return _Stage(kind, role, part, pool.submit(call, part))

    def ask_candidates(part: RunTrace) -> CandidateList:
        candidates = initial_diagnosis(
            providers.chat,
            init_cfg,
            case,
            registry,
            _step_recorder(part, "initial_diagnosis", AgentRole.INITIAL_DOCTOR),
        )
        part.annotate_last({"n_candidates": len(candidates.candidates)})
        return candidates

    def ask_queries(part: RunTrace) -> list[QueryPair]:
        pairs = generate_queries(
            providers.chat,
            query_cfg,
            case,
            n_queries,
            registry,
            _step_recorder(part, "generate_queries", AgentRole.QUERY_GENERATOR),
        )
        part.annotate_last({"n_pairs": len(pairs)})
        return pairs

    def ask_answer(pair: QueryPair, scored, chunk_texts, part: RunTrace) -> EvidenceAnswer:
        answer = answer_question(
            providers.chat,
            answer_cfg,
            pair.question,
            scored,
            chunk_texts,
            pair.keyword,
            registry,
            _step_recorder(part, "answer", AgentRole.ANSWER_GENERATOR),
        )
        if not scored:
            part.add("answer", AgentRole.ANSWER_GENERATOR.value, pair.question, answer.answer,
                     detail={"sentinel": True})
        return answer

    stages = [
        submit("initial_diagnosis", AgentRole.INITIAL_DOCTOR, ask_candidates),
        submit("generate_queries", AgentRole.QUERY_GENERATOR, ask_queries),
    ]
    try:
        queries = stages[1].outcome
        pairs = queries.result() if queries.exception() is None else []
        for pair in pairs:
            part = RunTrace(trace.trace_id, trace.topology, trace.case_id)
            try:
                outcome = kb.lookup_or_fetch(pair.keyword, providers.source, providers.embedder)
                kind = "kb_fetch" if outcome.hit is RetrievalHit.FETCHED else "kb_hit"
                part.add(
                    kind,
                    "knowledge_base",
                    pair.keyword,
                    outcome.hit.value,
                    detail={"keyword": pair.keyword, "new_docs": outcome.new_docs},
                )
                query_vec = embed_text(providers.embedder, pair.question)
                scored = kb.index.search_top_k(query_vec, top_k)
                part.add(
                    "search",
                    "knowledge_base",
                    pair.question,
                    json.dumps([s.chunk_id for s in scored]),
                    detail={"keyword": pair.keyword, "chunk_ids": [s.chunk_id for s in scored]},
                )
            except (FetchError, TransportError, IngestionError, EmbeddingError,
                    DegenerateVectorError) as exc:
                part.add(
                    "retrieval_error",
                    "knowledge_base",
                    pair.keyword,
                    "",
                    detail={"keyword": pair.keyword, "error": f"{type(exc).__name__}: {exc}"},
                )
                sentinel = no_evidence_answer(pair.question, pair.keyword)
                stages.append(_Stage("answer", AgentRole.ANSWER_GENERATOR, part, _done(sentinel)))
                continue
            chunk_texts = {s.chunk_id: kb.chunk_text(s.chunk_id) for s in scored}
            call = functools.partial(ask_answer, pair, scored, chunk_texts)
            stages.append(submit("answer", AgentRole.ANSWER_GENERATOR, call, part))
    finally:  # never leave a branch running, whatever ends the case
        wait([stage.outcome for stage in stages])
    candidates, _, *evidence = _join(trace, stages)

    try:
        report = final_diagnosis(
            providers.chat,
            final_cfg,
            case,
            candidates,
            evidence,
            trace.trace_id,
            registry,
            _step_recorder(trace, "final_diagnosis", AgentRole.FINAL_DOCTOR),
        )
    except RadarError as exc:
        raise _abort(trace, "final_diagnosis", AgentRole.FINAL_DOCTOR.value, exc) from exc
    return report, trace

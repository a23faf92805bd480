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
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Sequence

from .agents import (
    AgentConfig,
    AgentRole,
    Parser,
    PACKAGED_TEMPLATES,
    TemplateRegistry,
    answer_question,
    ask_structured,
    config_for_role,
    final_diagnosis,
    generate_queries,
    initial_diagnosis,
    parse_objections,
    parse_report,
    DEFAULT_MAX_RETRIES,
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
from .errors import RadarError, ValidationError
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
        self.steps[-1] = replace(self.steps[-1], detail=detail)

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

    def close(self) -> None:
        """Close the model clients that hold connections (those with a ``close``)."""
        for client in (self.chat, self.embedder):
            if hasattr(client, "close"):
                client.close()


def _digest(text: str) -> str:
    """Short digest of a step's text; a lone surrogate counts as request_fingerprint counts it."""
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()[:16]


def _trace_id(topology: Topology, case: Case) -> str:
    return f"{topology.value}-{case.id}"


def _step(trace: RunTrace, step_kind: str, role: AgentRole, call, detail=None) -> Any:
    """Take one agent step: ``call`` gets a recorder that adds each provider
    round trip to ``trace`` as a ``step_kind`` step by ``role``, and a
    RadarError it raises aborts the run with an error step of that kind."""
    try:
        return call(functools.partial(trace.add, step_kind, role.value, detail=detail))
    except RadarError as exc:
        error = {"error": f"{type(exc).__name__}: {exc}"}
        trace.add(step_kind, role.value, "", "", detail=error)
        message = f"{trace.topology.value} run failed at {step_kind}: {exc}"
        raise TopologyRunError(message, trace) from exc


def _ask(
    chat: ChatProvider, trace: RunTrace, step_kind: str, cfg: AgentConfig, prompt: str,
    parser: Parser | None = None, detail=None,
) -> Any:
    """Ask ``cfg``'s agent for one parsed reply as a step; by default the
    reply is a diagnosis report."""
    if parser is None:
        parser = functools.partial(parse_report, trace_id=trace.trace_id)
    ask = functools.partial(ask_structured, chat, cfg, prompt, parser)
    return _step(trace, step_kind, cfg.role, ask, detail)


def _diagnose(
    chat: ChatProvider, trace: RunTrace, step_kind: str, case: Case,
    templates: TemplateRegistry, max_retries: int,
) -> DiagnosisReport:
    """One doctor's report on the bare case: the single topology's report and
    the challenger's draft."""
    cfg = config_for_role(
        AgentRole.FINAL_DOCTOR, template_id="single_doctor", max_retries=max_retries
    )
    prompt = templates.render(
        cfg.prompt_template_id, caption=case.caption, clinical_data=case.clinical_data
    )
    return _ask(chat, trace, step_kind, cfg, prompt)


# ---------------------------------------------------------------------------
# Single agent
# ---------------------------------------------------------------------------


def run_single(
    providers: ProviderBundle,
    case: Case,
    templates: TemplateRegistry = PACKAGED_TEMPLATES,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> tuple[DiagnosisReport, RunTrace]:
    """One doctor call, no candidates, no evidence."""
    trace = RunTrace(_trace_id(Topology.SINGLE, case), Topology.SINGLE, case.id)
    report = _diagnose(providers.chat, trace, "diagnose", case, templates, max_retries)
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
    Labels are grouped after canonical folding, and a ballot that names one
    folded label twice scores it once, at its best slot. The displayed
    spelling and any tie both resolve to the earliest agent (then slot)
    occurrence. Confidences are Borda scores rescaled by the maximum
    attainable score.
    """
    scores: dict[str, float] = {}
    display: dict[str, str] = {}
    first_seen: dict[str, int] = {}
    for agent_idx, report in enumerate(reports):
        ballot: set[str] = set()
        for slot, label in enumerate(report.labels):
            folded = canonical_fold(label)
            if folded in ballot:
                continue
            ballot.add(folded)
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
    templates: TemplateRegistry = PACKAGED_TEMPLATES,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> tuple[DiagnosisReport, RunTrace]:
    """Independent assessments, then discussion rounds until primaries agree.

    Consensus at any point short-circuits and returns the first agent's
    current report; after ``max_rounds`` without agreement the reports are
    merged by Borda count.
    """
    if n_agents < 2:
        raise ValidationError(f"collaboration needs at least 2 agents, got {n_agents}")
    trace = RunTrace(_trace_id(Topology.COLLABORATIVE, case), Topology.COLLABORATIVE, case.id)
    role_cfg = functools.partial(config_for_role, max_retries=max_retries)
    initial_cfg = role_cfg(AgentRole.COLLABORATOR)
    revise_cfg = role_cfg(AgentRole.COLLABORATOR, template_id="collaborator_revise")

    def agent_call(cfg: AgentConfig, prompt: str, kind: str, agent_idx: int) -> DiagnosisReport:
        return _ask(providers.chat, trace, kind, cfg, prompt, detail={"agent": agent_idx})

    reports = []
    for idx in range(n_agents):
        prompt = templates.render(
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
            prompt = templates.render(
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
    templates: TemplateRegistry = PACKAGED_TEMPLATES,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> tuple[DiagnosisReport, RunTrace]:
    """Draft, adversarial critique, one revision. Empty critique keeps the draft."""
    trace = RunTrace(_trace_id(Topology.CHALLENGER, case), Topology.CHALLENGER, case.id)
    role_cfg = functools.partial(config_for_role, max_retries=max_retries)
    challenger_cfg = role_cfg(AgentRole.CHALLENGER)
    revise_cfg = role_cfg(AgentRole.FINAL_DOCTOR, template_id="doctor_revise")

    draft = _diagnose(providers.chat, trace, "draft", case, templates, max_retries)
    draft_json = json.dumps(draft.to_dict(), indent=2)
    prompt = templates.render(
        challenger_cfg.prompt_template_id,
        caption=case.caption,
        clinical_data=case.clinical_data,
        draft=draft_json,
    )
    objections = _ask(providers.chat, trace, "critique", challenger_cfg, prompt, parse_objections)
    if not objections:
        return draft, trace

    prompt = templates.render(
        revise_cfg.prompt_template_id,
        caption=case.caption,
        clinical_data=case.clinical_data,
        draft=draft_json,
        critique="\n".join(f"- {o}" for o in objections),
    )
    return _ask(providers.chat, trace, "revise", revise_cfg, prompt), trace


# ---------------------------------------------------------------------------
# Retrieval-augmented pipeline
# ---------------------------------------------------------------------------

# The process-wide pool that runs every case's independent agent calls. It
# starts a thread only when a call finds none idle, and all cases share it,
# so no case pays for thread start-up. Branch tasks only call the model and
# never wait on other branch tasks, so the bounded pool cannot deadlock;
# calls beyond the cap queue.
_BRANCHES = ThreadPoolExecutor(MAX_CONCURRENT_CALLS, thread_name_prefix="radar-branch")


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
    """Splice the steps of finished stages into ``trace`` in pipeline order
    and return their values. Each outcome is taken as a step (its round
    trips are already recorded), so the earliest failing stage aborts the
    case just as a failing sequential step does."""
    for stage in stages:
        trace.steps.extend(stage.trace.steps)
    return [
        _step(trace, stage.kind, stage.role, lambda _: stage.outcome.result())
        for stage in stages
    ]


def run_radar(
    providers: ProviderBundle,
    kb: KnowledgeBase,
    case: Case,
    n_queries: int = DEFAULT_N_QUERIES,
    top_k: int = RETRIEVAL_TOP_K,
    templates: TemplateRegistry = PACKAGED_TEMPLATES,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> tuple[DiagnosisReport, RunTrace]:
    """Hypotheses, targeted queries, cached retrieval, grounded answers, final report.

    A `RadarError` raised by one question's lookup, embedding or query
    check degrades that question to the sentinel answer and the pipeline
    continues; so a source or embedder raises a `RadarError` for anything
    a question can cause. Any other exception, and an agent failure,
    aborts the case with the trace attached.

    Independent model calls overlap, so a case waits on three calls in a
    row, not one per agent step. The initial doctor and the query generator
    run concurrently. Retrieval is one pass on the calling thread: in query
    order each question's keyword is looked up (fetched and ingested on a
    miss), the rows the index then holds are noted, and the question is
    embedded; then one index scan scores every question against its own
    rows, so each search sees what it would right after its own lookup.
    Only then, in query order, are the searches recorded and the answers
    asked, so no answer runs while the case is still retrieving. The final
    doctor runs once every answer is back, with the evidence in query order.
    Agent calls run on the shared branch pool, each recording into its own
    trace; their steps are spliced back in pipeline order, so only
    timestamps interleave. On failure every submitted call is awaited, then
    the case aborts at the earliest failing step in pipeline order, with
    every step that ran.
    """
    if providers.embedder is None or providers.source is None:
        raise ValidationError("the retrieval topology needs an embedder and a document source")
    trace = RunTrace(_trace_id(Topology.RADAR, case), Topology.RADAR, case.id)

    role_cfg = functools.partial(config_for_role, max_retries=max_retries)
    init_cfg = role_cfg(AgentRole.INITIAL_DOCTOR)
    query_cfg = role_cfg(AgentRole.QUERY_GENERATOR)
    answer_cfg = role_cfg(AgentRole.ANSWER_GENERATOR)
    final_cfg = role_cfg(AgentRole.FINAL_DOCTOR)

    def submit(kind: str, role: AgentRole, call, part: RunTrace | None = None) -> _Stage:
        """Run ``call(part, on_step)`` on the branch pool, recording into ``part``."""
        if part is None:
            part = RunTrace(trace.trace_id, trace.topology, trace.case_id)
        on_step = functools.partial(part.add, kind, role.value)
        return _Stage(kind, role, part, _BRANCHES.submit(call, part, on_step))

    def ask_candidates(part: RunTrace, on_step) -> CandidateList:
        candidates = initial_diagnosis(providers.chat, init_cfg, case, templates, on_step)
        part.annotate_last({"n_candidates": len(candidates.candidates)})
        return candidates

    def ask_queries(part: RunTrace, on_step) -> list[QueryPair]:
        pairs = generate_queries(providers.chat, query_cfg, case, n_queries, templates, on_step)
        part.annotate_last({"n_pairs": len(pairs)})
        return pairs

    def ask_answer(pair: QueryPair, scored, chunk_texts, part: RunTrace, on_step) -> EvidenceAnswer:
        answer = answer_question(
            providers.chat, answer_cfg, pair.question, scored, chunk_texts, pair.keyword,
            templates, on_step,
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
        # One retrieval pass. First, in query order: look up, note the rows
        # the question may see, and embed it; a RadarError degrades only it.
        prepared = []  # per question: pair, trace part, whether it has a query
        units, counts = [], []  # unit query and rows seen, per question that has one
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
                seen = kb.index.count
                query = kb.index.unit_query(embed_text(providers.embedder, pair.question))
            except RadarError as exc:
                part.add(
                    "retrieval_error",
                    "knowledge_base",
                    pair.keyword,
                    "",
                    detail={"keyword": pair.keyword, "error": f"{type(exc).__name__}: {exc}"},
                )
                prepared.append((pair, part, False))
                continue
            prepared.append((pair, part, True))
            units.append(query)
            counts.append(seen)
        # Then one scan scores every question; then, in query order, each
        # search is recorded and its answer asked.
        hits = iter(kb.index.search_batch(units, top_k, counts))
        for pair, part, searched in prepared:
            if not searched:
                sentinel = no_evidence_answer(pair.question, pair.keyword)
                stages.append(_Stage("answer", AgentRole.ANSWER_GENERATOR, part, _done(sentinel)))
                continue
            scored = next(hits)
            part.add(
                "search",
                "knowledge_base",
                pair.question,
                json.dumps([s.chunk_id for s in scored]),
                detail={"keyword": pair.keyword, "chunk_ids": [s.chunk_id for s in scored]},
            )
            chunk_texts = {s.chunk_id: kb.chunk_text(s.chunk_id) for s in scored}
            call = functools.partial(ask_answer, pair, scored, chunk_texts)
            stages.append(submit("answer", AgentRole.ANSWER_GENERATOR, call, part))
    finally:  # never leave a branch running, whatever ends the case
        wait([stage.outcome for stage in stages])
    candidates, _, *evidence = _join(trace, stages)

    ask = functools.partial(
        final_diagnosis, providers.chat, final_cfg, case, candidates, evidence, trace.trace_id,
        templates,
    )
    return _step(trace, "final_diagnosis", AgentRole.FINAL_DOCTOR, ask), trace

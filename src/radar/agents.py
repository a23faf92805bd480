"""Prompted agent operations over a chat provider.

Each agent is a prompt template plus one reply parser. Prompt wording lives
in template files so it is data, not code; every template tells the model to
answer with JSON. ``parse_structured`` takes the first JSON value out of the
reply, tolerating surrounding prose and code fences, and the agent's parser
turns it into the domain object in one step: the parser checks JSON types
and what only its context can judge (the query count, the cited chunk ids),
and the domain type's constructor checks its own invariants. A reply that
fails either earns up to ``max_retries`` re-asks with a reminder naming the
error, then a hard error carrying the raw reply.
"""
from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Collection, Mapping, Sequence

from .domain import (
    CandidateList,
    Case,
    DiagnosisReport,
    EvidenceAnswer,
    QueryPair,
    encode,
    is_json_number,
    no_evidence_answer,
)
from .errors import AgentOutputError, ConfigError, ParseError, ValidationError
from .index import ScoredChunk
from .providers import (
    TEMP_HIGH,
    TEMP_LOW,
    TEMP_MID,
    TOP_P_HIGH,
    ChatMessage,
    ChatProvider,
    ChatRequest,
)

DEFAULT_N_QUERIES = 5
DEFAULT_MAX_RETRIES = 2

# Called once per provider round trip: (request_text, response_text).
StepFn = Callable[[str, str], None]


class AgentRole(str, Enum):
    INITIAL_DOCTOR = "initial_doctor"
    QUERY_GENERATOR = "query_generator"
    ANSWER_GENERATOR = "answer_generator"
    FINAL_DOCTOR = "final_doctor"
    COLLABORATOR = "collaborator"
    CHALLENGER = "challenger"


@dataclass(frozen=True)
class AgentConfig:
    role: AgentRole
    temperature: float
    top_p: float
    prompt_template_id: str
    max_retries: int = DEFAULT_MAX_RETRIES

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValidationError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {self.max_retries}")


_ROLE_PRESETS: dict[AgentRole, tuple[float, float, str]] = {
    AgentRole.INITIAL_DOCTOR: (TEMP_HIGH, TOP_P_HIGH, "initial_doctor"),
    AgentRole.QUERY_GENERATOR: (TEMP_HIGH, TOP_P_HIGH, "query_generator"),
    AgentRole.ANSWER_GENERATOR: (TEMP_LOW, 1.0, "answer_generator"),
    AgentRole.FINAL_DOCTOR: (TEMP_MID, 1.0, "final_doctor"),
    AgentRole.COLLABORATOR: (TEMP_MID, 1.0, "collaborator_initial"),
    AgentRole.CHALLENGER: (TEMP_MID, 1.0, "challenger_critique"),
}


TEMPLATE_DIR = Path(__file__).parent / "templates"


_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")


class TemplateRegistry:
    """The prompt templates of one directory of .txt files, read whole when built.

    A directory other than the packaged one must hold every packaged
    template, so a partial copy fails here, before any agent runs.
    Placeholders are written ``{name}`` and substituted by exact token, so
    JSON braces elsewhere in a template pass through untouched.
    """

    def __init__(self, template_dir: str | Path | None = None):
        self.template_dir = Path(template_dir) if template_dir else TEMPLATE_DIR
        if not self.template_dir.is_dir():
            raise ConfigError(f"template directory {self.template_dir} does not exist")
        try:
            self._texts = {
                p.stem: p.read_text(encoding="utf-8") for p in self.template_dir.glob("*.txt")
            }
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read templates in {self.template_dir}: {exc}") from exc
        missing = sorted({p.stem for p in TEMPLATE_DIR.glob("*.txt")} - self._texts.keys())
        if missing:
            raise ConfigError(f"template directory {self.template_dir} lacks {', '.join(missing)}")

    def ids(self) -> list[str]:
        return sorted(self._texts)

    def get(self, template_id: str) -> str:
        if template_id not in self._texts:
            raise ConfigError(f"prompt template {template_id!r} not found in {self.template_dir}")
        return self._texts[template_id]

    def render(self, template_id: str, **fields: str) -> str:
        """Fill every ``{name}`` given in ``fields`` in one pass, so a
        placeholder inside a substituted value is left as written."""
        return _PLACEHOLDER_RE.sub(
            lambda m: str(fields[m[1]]) if m[1] in fields else m[0], self.get(template_id)
        )


PACKAGED_TEMPLATES = TemplateRegistry()


def config_for_role(
    role: AgentRole,
    *,
    template_id: str | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> AgentConfig:
    """Build an AgentConfig from the role's sampling preset."""
    temperature, top_p, preset_template = _ROLE_PRESETS[role]
    return AgentConfig(
        role=role,
        temperature=temperature,
        top_p=top_p,
        prompt_template_id=template_id or preset_template,
        max_retries=max_retries,
    )


# ---------------------------------------------------------------------------
# Structured output parsing
# ---------------------------------------------------------------------------

_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)
# A "{" or "[" that can start a JSON value: after JSON whitespace, an object
# holds a string key or closes, and an array closes or holds a value. A
# bracket followed by anything else fails at its first step, so it is not
# tried; a run of such brackets costs one pass of this pattern.
_VALUE_START = re.compile(r'\{(?=[ \t\n\r]*["}])|\[(?=[ \t\n\r]*[\]"{\[\-0-9tfnNI])')
_BRACKET_RUN = re.compile(r"[\[{]+")


def _extract_json(text: str) -> tuple[Any, int]:
    """Pull the first JSON object or array out of free text.

    Only a bracket that can start a value is tried, and a run of brackets
    nested too deep to decode is skipped whole, so such a reply costs one
    decode attempt per run, not one per bracket.
    """
    for match in _FENCE_RE.finditer(text):
        inner = match.group(1).strip()
        try:
            return json.loads(inner), match.start(1)
        except (ValueError, RecursionError):  # also a too-long integer or too-deep nesting
            continue
    decoder = json.JSONDecoder()
    resume = 0
    for match in _VALUE_START.finditer(text):
        pos = match.start()
        if pos < resume:
            continue
        try:
            # A slice, not raw_decode(text, pos): a failure then costs a copy of
            # the rest, where in place its error would count the lines before pos.
            return decoder.raw_decode(text[pos:])[0], pos
        except ValueError:
            continue
        except RecursionError:  # a value inside this run of brackets nests about as deep
            resume = _BRACKET_RUN.match(text, pos).end()
    raise ParseError(f"no JSON object or array found in reply of {len(text)} chars")


def _require(condition: bool, message: str, position: int) -> None:
    if not condition:
        raise ParseError(message, position=position)


def _unwrap(value: Any, key: str) -> Any:
    """A reply may wrap its payload in an object under ``key``."""
    return value.get(key) if isinstance(value, dict) else value


# (JSON value, its position in the reply) -> domain object; see the module
# docstring for which checks a parser makes.
Parser = Callable[[Any, int], Any]


def parse_candidates(value: Any, pos: int) -> CandidateList:
    value = _unwrap(value, "candidates")
    _require(isinstance(value, list), "expected a 'candidates' array", pos)
    _require(all(isinstance(c, str) and c.strip() for c in value),
             "candidates must be non-empty strings", pos)
    return CandidateList(tuple(value))


def parse_queries(value: Any, pos: int, n: int) -> list[QueryPair]:
    if isinstance(value, dict):
        value = value.get("queries", value.get("pairs"))
    _require(isinstance(value, list), "expected an array of question-keyword pairs", pos)
    for item in value:
        _require(isinstance(item, dict), "each pair must be an object", pos)
        _require(isinstance(item.get("question"), str) and isinstance(item.get("keyword"), str),
                 "each pair needs string 'question' and 'keyword'", pos)
    if len(value) != n:
        raise ValidationError(f"need exactly {n} query pairs, got {len(value)}")
    return [QueryPair(item["question"], item["keyword"]) for item in value]


def parse_answer(
    value: Any, pos: int, question: str, keyword: str, retrieved_ids: Collection[str]
) -> EvidenceAnswer:
    _require(isinstance(value, dict), "expected an object", pos)
    answer = value.get("answer")
    cited = value.get("supporting_chunk_ids")
    _require(isinstance(answer, str) and answer.strip(), "missing 'answer' string", pos)
    _require(isinstance(cited, list) and all(isinstance(i, str) for i in cited),
             "missing 'supporting_chunk_ids' string array", pos)
    unknown = [c for c in cited if c not in retrieved_ids]
    if unknown:
        raise ValidationError(f"cited ids not among retrieved chunks: {unknown}")
    return EvidenceAnswer(question, answer, cited, keyword)


def parse_report(
    value: Any, pos: int, evidence: Sequence[EvidenceAnswer] = (), trace_id: str = ""
) -> DiagnosisReport:
    _require(isinstance(value, dict), "expected an object", pos)
    primary = value.get("primary")
    differentials = value.get("differentials")
    confidences = value.get("confidences")
    _require(isinstance(primary, str) and primary.strip(), "missing 'primary' string", pos)
    _require(isinstance(differentials, list)
             and all(isinstance(d, str) and d.strip() for d in differentials),
             "missing 'differentials' string array", pos)
    _require(isinstance(confidences, list) and all(map(is_json_number, confidences)),
             "missing numeric 'confidences' array", pos)
    return DiagnosisReport(primary, differentials, confidences, evidence, trace_id)


def parse_objections(value: Any, pos: int) -> list[str]:
    value = _unwrap(value, "objections")
    _require(isinstance(value, list) and all(isinstance(o, str) for o in value),
             "expected an 'objections' string array", pos)
    return list(value)


def parse_label(value: Any, pos: int) -> str:
    value = _unwrap(value, "canonical")
    _require(isinstance(value, str) and value.strip(), "expected a 'canonical' string", pos)
    return value


def parse_structured(text: str, parser: Parser) -> Any:
    """Extract the first JSON value from text and parse it with ``parser``."""
    value, pos = _extract_json(text)
    return parser(value, pos)


# ---------------------------------------------------------------------------
# The retry loop shared by every agent
# ---------------------------------------------------------------------------

_REMINDER = (
    "Your previous reply could not be used: {error}. "
    "Reply again with only the required JSON, no other text."
)


def ask_structured(
    provider: ChatProvider,
    cfg: AgentConfig,
    prompt: str,
    parser: Parser,
    on_step: StepFn | None = None,
) -> Any:
    """Prompt and parse; re-ask with a reminder naming the error on an unusable reply."""
    messages: list[ChatMessage] = [ChatMessage("user", prompt)]
    raw = ""
    error: Exception | None = None
    for _ in range(cfg.max_retries + 1):
        request = ChatRequest(
            messages=tuple(messages), temperature=cfg.temperature, top_p=cfg.top_p
        )
        response = provider.complete(request)
        raw = response.content
        if on_step is not None:
            on_step("\n".join(m.content for m in messages), raw)
        try:
            return parse_structured(raw, parser)
        except (ParseError, ValidationError) as exc:
            error = exc
            messages.append(ChatMessage("assistant", raw))
            messages.append(ChatMessage("user", _REMINDER.format(error=exc)))
    raise AgentOutputError(
        f"{cfg.role.value} output unusable after {cfg.max_retries + 1} attempts: {error}",
        raw=raw,
    )


# ---------------------------------------------------------------------------
# Agent operations
# ---------------------------------------------------------------------------


def initial_diagnosis(
    provider: ChatProvider,
    cfg: AgentConfig,
    case: Case,
    templates: TemplateRegistry = PACKAGED_TEMPLATES,
    on_step: StepFn | None = None,
) -> CandidateList:
    """Produce the broad list of ten candidate diagnoses for a case."""
    prompt = templates.render(
        cfg.prompt_template_id, caption=case.caption, clinical_data=case.clinical_data
    )
    return ask_structured(provider, cfg, prompt, parse_candidates, on_step)


def generate_queries(
    provider: ChatProvider,
    cfg: AgentConfig,
    case: Case,
    n: int = DEFAULT_N_QUERIES,
    templates: TemplateRegistry = PACKAGED_TEMPLATES,
    on_step: StepFn | None = None,
) -> list[QueryPair]:
    """Produce exactly n question-keyword pairs for targeted retrieval."""
    if n <= 0:
        raise ValidationError(f"n must be positive, got {n}")
    prompt = templates.render(
        cfg.prompt_template_id,
        caption=case.caption,
        clinical_data=case.clinical_data,
        n_queries=str(n),
    )
    parser = functools.partial(parse_queries, n=n)
    return ask_structured(provider, cfg, prompt, parser, on_step)


def _render_chunks(retrieved: Sequence[ScoredChunk], chunk_texts: Mapping[str, str]) -> str:
    blocks = []
    for hit in retrieved:
        blocks.append(f"[{hit.chunk_id}]\n{chunk_texts[hit.chunk_id]}")
    return "\n\n".join(blocks)


def answer_question(
    provider: ChatProvider,
    cfg: AgentConfig,
    question: str,
    retrieved: Sequence[ScoredChunk],
    chunk_texts: Mapping[str, str],
    keyword: str = "",
    templates: TemplateRegistry = PACKAGED_TEMPLATES,
    on_step: StepFn | None = None,
) -> EvidenceAnswer:
    """Answer a question strictly from retrieved chunks, citing their ids.

    With nothing retrieved the sentinel answer is returned without calling
    the provider at all.
    """
    if not retrieved:
        return no_evidence_answer(question, keyword)
    prompt = templates.render(
        cfg.prompt_template_id,
        question=question,
        chunks=_render_chunks(retrieved, chunk_texts),
    )
    parser = functools.partial(
        parse_answer, question=question, keyword=keyword,
        retrieved_ids={hit.chunk_id for hit in retrieved},
    )
    return ask_structured(provider, cfg, prompt, parser, on_step)


def _render_evidence(evidence: Sequence[EvidenceAnswer]) -> str:
    if not evidence:
        return "(no retrieved evidence)"
    return json.dumps([encode(e) for e in evidence], indent=2, ensure_ascii=False)


def _render_candidates(candidates: CandidateList) -> str:
    return "\n".join(f"{i}. {c}" for i, c in enumerate(candidates.candidates, start=1))


def final_diagnosis(
    provider: ChatProvider,
    cfg: AgentConfig,
    case: Case,
    candidates: CandidateList,
    evidence: Sequence[EvidenceAnswer],
    trace_id: str = "",
    templates: TemplateRegistry = PACKAGED_TEMPLATES,
    on_step: StepFn | None = None,
) -> DiagnosisReport:
    """Integrate case, candidates, and evidence into the final 1+4 report."""
    prompt = templates.render(
        cfg.prompt_template_id,
        caption=case.caption,
        clinical_data=case.clinical_data,
        candidates=_render_candidates(candidates),
        evidence=_render_evidence(evidence),
    )
    parser = functools.partial(parse_report, evidence=evidence, trace_id=trace_id)
    return ask_structured(provider, cfg, prompt, parser, on_step)

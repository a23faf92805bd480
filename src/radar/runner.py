"""Experiment run orchestration: config loading, provider wiring, output layout.

A run directory holds:
    manifest.json        resolved config snapshot, timestamps, input digest, store error
    reports.jsonl        one {case_id, ...report} object per completed case
    failures.jsonl       one {case_id, error} object per aborted case
    traces/<case_id>.json
Reports are written in case-input order with sorted keys, so identical
inputs produce a byte-identical reports.jsonl; wall-clock data stays in the
manifest and traces.
"""
from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import time
import uuid
from dataclasses import dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import Any, Iterator, Literal, Mapping, NewType, get_args, get_type_hints

from .agents import DEFAULT_MAX_RETRIES, DEFAULT_N_QUERIES, TemplateRegistry
from .chunking import DEFAULT_CHUNK_CHARS, DEFAULT_OVERLAP_CHARS, Document, check_window
from .domain import (
    Case,
    DiagnosisReport,
    decode,
    encode,
    load_cases,
    read_json,
    read_records,
    walk_files,
)
from .errors import ConfigError, EvaluationError
from .evaluation import DictionaryNormalizer, Normalizer, ProviderNormalizer, load_synonyms
from .knowledge import MIN_POLITENESS_DELAY_MS, FixtureSource, KnowledgeBase, LiveSource
from .providers import (
    DEFAULT_EMBED_DIM,
    ChatProvider,
    HashingEmbedder,
    HttpChatProvider,
    HttpEmbedder,
    ScriptedChatProvider,
    scripted_provider_from_file,
)
from .topologies import (
    ProviderBundle,
    Topology,
    TopologyRunError,
    run_challenger,
    run_collaborative,
    run_radar,
    run_single,
)

API_KEY_ENV = "RADAR_API_KEY"
DEFAULT_WORKERS = 4

ConfigPath = NewType("ConfigPath", str)
"""A path key; a relative value resolves against the config file's directory."""


# The settings dataclasses below are the documented config shape: each field
# is a key, each nested dataclass a section, each default the documented one.


@dataclass(frozen=True)
class Endpoint:
    url: str | None = None


@dataclass(frozen=True)
class ProviderSettings:
    kind: Literal["scripted", "http"] = "scripted"
    script_path: ConfigPath | None = None
    chat: Endpoint = field(default_factory=Endpoint)
    embed: Endpoint = field(default_factory=Endpoint)
    timeouts_ms: int = 30_000
    model: str | None = None
    embedder_kind: Literal["hashing", "http"] = "hashing"
    dim: int = DEFAULT_EMBED_DIM


@dataclass(frozen=True)
class SourceSettings:
    kind: Literal["fixture", "live"] = "fixture"
    corpus_dir: ConfigPath | None = None
    fail_keywords: tuple[str, ...] = ()
    base_url: str | None = None
    delay_ms: int = MIN_POLITENESS_DELAY_MS
    cache_dir: ConfigPath | None = None


@dataclass(frozen=True)
class KbSettings:
    chunk_chars: int = DEFAULT_CHUNK_CHARS
    overlap_chars: int = DEFAULT_OVERLAP_CHARS
    source: SourceSettings = field(default_factory=SourceSettings)
    store_dir: ConfigPath | None = None


@dataclass(frozen=True)
class AgentSettings:
    n_queries: int = DEFAULT_N_QUERIES
    max_retries: int = DEFAULT_MAX_RETRIES
    template_dir: ConfigPath | None = None


@dataclass(frozen=True)
class EvalSettings:
    normalizer_kind: Literal["dictionary", "provider"] = "dictionary"
    synonym_table: ConfigPath | None = None


@dataclass(frozen=True)
class RunConfig:
    topology: Topology = Topology.RADAR
    provider: ProviderSettings = field(default_factory=ProviderSettings)
    kb: KbSettings = field(default_factory=KbSettings)
    agents: AgentSettings = field(default_factory=AgentSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)
    seed: int = 0
    workers: int = DEFAULT_WORKERS

    def to_dict(self) -> dict[str, Any]:
        """The documented nested shape, which ``load_run_config`` reads back."""
        return encode(self)


def _resolve_paths(settings: Any, base: Path) -> Any:
    """``settings`` with each set ``ConfigPath`` key resolved against ``base``."""
    changes = {}
    for key, tp in get_type_hints(type(settings)).items():
        value = getattr(settings, key)
        if is_dataclass(tp):
            changes[key] = _resolve_paths(value, base)
        elif value is not None and ConfigPath in (tp, *get_args(tp)):
            changes[key] = str(base / value)
    return replace(settings, **changes)


def load_run_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON run configuration.

    Only the nested shape that ``RunConfig.to_dict`` writes is read, so a
    manifest's config snapshot loads back to an equal config; an unknown key
    is an error that names the closest known one. Relative paths are
    resolved against the config file's directory, and every referenced path
    must exist at load time (one the system cannot stat counts as missing).
    """
    path = Path(path)
    cfg = decode(RunConfig, read_json(path, ConfigError), str(path), ConfigError)
    cfg = _resolve_paths(cfg, path.absolute().parent)  # so a snapshot reloads from anywhere

    # Checks that span several keys, or look at the file system.
    provider, kb, source = cfg.provider, cfg.kb, cfg.kb.source
    if provider.kind == "scripted":
        if not provider.script_path:
            raise ConfigError("scripted provider needs provider.script_path")
        if not os.path.isfile(provider.script_path):
            raise ConfigError(f"script file {provider.script_path} does not exist")
    if provider.kind == "http" and not provider.chat.url:
        raise ConfigError("http provider needs provider.chat.url")
    if provider.embedder_kind == "http" and not provider.embed.url:
        raise ConfigError("http embedder needs provider.embed.url")
    check_window(kb.chunk_chars, kb.overlap_chars)
    if source.kind == "fixture":
        if not source.corpus_dir:
            raise ConfigError("fixture source needs kb.source.corpus_dir")
        if not os.path.isdir(source.corpus_dir):
            raise ConfigError(f"corpus directory {source.corpus_dir} does not exist")
    if source.kind == "live" and not source.base_url:
        raise ConfigError("live source needs kb.source.base_url")
    if provider.dim <= 0:
        raise ConfigError(f"provider.dim must be positive, got {provider.dim}")
    if provider.timeouts_ms <= 0:
        raise ConfigError(f"provider.timeouts_ms must be positive, got {provider.timeouts_ms}")
    if cfg.agents.n_queries <= 0:
        raise ConfigError(f"agents.n_queries must be positive, got {cfg.agents.n_queries}")
    if cfg.agents.max_retries < 0:
        raise ConfigError(f"agents.max_retries must be >= 0, got {cfg.agents.max_retries}")
    if cfg.agents.template_dir and not os.path.isdir(cfg.agents.template_dir):
        raise ConfigError(f"template directory {cfg.agents.template_dir} does not exist")
    if cfg.eval.synonym_table and not os.path.isfile(cfg.eval.synonym_table):
        raise ConfigError(f"synonym table {cfg.eval.synonym_table} does not exist")
    if cfg.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {cfg.workers}")
    return cfg


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------


def build_chat(cfg: RunConfig) -> ChatProvider:
    if cfg.provider.kind == "scripted":
        return scripted_provider_from_file(cfg.provider.script_path)
    return HttpChatProvider(
        cfg.provider.chat.url,
        api_key=os.environ.get(API_KEY_ENV),
        model=cfg.provider.model,
        timeout_s=cfg.provider.timeouts_ms / 1000.0,
    )


def build_bundle(
    cfg: RunConfig, digest: Any = None, stored: Mapping[str, Document] | None = None
) -> ProviderBundle:
    """The run's providers; a fixture source adds its corpus files' records to
    ``digest`` and serves a document equal to one in ``stored`` as that object."""
    chat = build_chat(cfg)
    if cfg.provider.embedder_kind == "hashing":
        embedder = HashingEmbedder(dim=cfg.provider.dim)
    else:
        embedder = HttpEmbedder(
            cfg.provider.embed.url, dim=cfg.provider.dim, api_key=os.environ.get(API_KEY_ENV),
            timeout_s=cfg.provider.timeouts_ms / 1000.0,
        )

    src = cfg.kb.source
    if src.kind == "fixture":
        source = FixtureSource(src.corpus_dir, fail_keywords=src.fail_keywords, digest=digest,
                               stored=stored)
    else:
        source = LiveSource(src.base_url, delay_ms=src.delay_ms, cache_dir=src.cache_dir)
    return ProviderBundle(chat=chat, embedder=embedder, source=source)


def build_knowledge_base(cfg: RunConfig) -> KnowledgeBase:
    store = Path(cfg.kb.store_dir) if cfg.kb.store_dir else None
    if store and (store / "meta.json").exists():
        kb = KnowledgeBase.load(store)
        for name, have, want in (
            ("dim", kb.index.dim, cfg.provider.dim),
            ("chunk_chars", kb.chunk_chars, cfg.kb.chunk_chars),
            ("overlap_chars", kb.overlap_chars, cfg.kb.overlap_chars),
        ):
            if have != want:
                raise ConfigError(
                    f"persisted knowledge base {name} {have} does not match configured {name} {want}"
                )
        return kb
    return KnowledgeBase(
        dim=cfg.provider.dim,
        chunk_chars=cfg.kb.chunk_chars,
        overlap_chars=cfg.kb.overlap_chars,
    )


def build_normalizer(cfg: RunConfig) -> Normalizer:
    table = load_synonyms(cfg.eval.synonym_table) if cfg.eval.synonym_table else {}
    if cfg.eval.normalizer_kind == "provider":
        return ProviderNormalizer(build_chat(cfg), TemplateRegistry(cfg.agents.template_dir))
    return DictionaryNormalizer(table)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def content_digest(*dirs: str | Path | None) -> str:
    """Stable digest over the names and bytes of every file in the given dirs.

    A run computes the same value while it reads its inputs: the template
    records first, then the corpus records its fixture source reads.
    """
    h = hashlib.sha256()
    for d in dirs:
        if d:
            for _ in walk_files(d, h):  # each file read adds its record to h
                pass
    return h.hexdigest()


@dataclass
class RunSummary:
    run_id: str
    n_cases: int
    n_ok: int
    failures: list[tuple[str, str]]  # (case_id, error message)

    @property
    def all_ok(self) -> bool:
        return not self.failures


def _write_manifest(
    out_dir: Path,
    run_id: str,
    cfg: RunConfig,
    n_cases: int,
    digest: str,
    started: float,
    ended: float | None,
    store_error: str | None = None,
) -> None:
    manifest = {
        "run_id": run_id,
        "config": cfg.to_dict(),
        "case_count": n_cases,
        "content_digest": digest,
        "started_at": started,
        "ended_at": ended,
        "store_error": store_error,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Run execution
# ---------------------------------------------------------------------------


def _execute_case(cfg, bundle, kb, templates, case: Case):
    agents = {"templates": templates, "max_retries": cfg.agents.max_retries}
    if cfg.topology is Topology.SINGLE:
        return run_single(bundle, case, **agents)
    if cfg.topology is Topology.COLLABORATIVE:
        return run_collaborative(bundle, case, **agents)
    if cfg.topology is Topology.CHALLENGER:
        return run_challenger(bundle, case, **agents)
    return run_radar(bundle, kb, case, n_queries=cfg.agents.n_queries, **agents)


def run_cases(cfg: RunConfig, cases_path: str | Path, out_dir: str | Path) -> RunSummary:
    """Execute the configured topology over every case and write run outputs."""
    cases = load_cases(cases_path)
    templates = TemplateRegistry(cfg.agents.template_dir)
    inputs = hashlib.sha256()  # the content digest of the templates and the corpus read
    for _ in walk_files(templates.template_dir, inputs):
        pass
    # The store loads first, so the corpus pass keeps the stored copy of a document in both.
    kb = build_knowledge_base(cfg) if cfg.topology is Topology.RADAR else None
    bundle = build_bundle(cfg, inputs, None if kb is None else kb.doc_store)
    if isinstance(bundle.chat, ScriptedChatProvider) and bundle.chat.remaining and (
        cfg.topology is Topology.RADAR or cfg.workers > 1
    ):
        # Unkeyed entries answer calls in arrival order, which concurrent
        # cases and the pipeline's concurrent agent calls do not fix.
        raise ConfigError(
            f"script {cfg.provider.script_path} has unkeyed entries; they replay only "
            "with workers=1 and a topology other than radar"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "traces").mkdir(exist_ok=True)

    run_id = uuid.uuid4().hex[:12]
    digest = inputs.hexdigest()
    started = time.time()
    _write_manifest(out_dir, run_id, cfg, len(cases), digest, started, None)

    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_execute_case, cfg, bundle, kb, templates, case)
                       for case in cases]
    finally:  # only the cases use the clients; an aborted run closes them too
        bundle.close()

    failures: list[tuple[str, str]] = []
    report_lines = []
    for case, future in zip(cases, futures):
        try:
            report, trace = future.result()
        except Exception as exc:  # one case's fault, whatever its type, costs no other case
            failures.append((case.id, f"{type(exc).__name__}: {exc}"))
            trace = exc.trace if isinstance(exc, TopologyRunError) else None
        else:
            line = {"case_id": case.id, **report.to_dict()}
            report_lines.append(json.dumps(line, sort_keys=True, separators=(",", ":")))
        if trace is not None:
            (out_dir / "traces" / f"{case.id}.json").write_text(
                json.dumps(trace.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
            )

    (out_dir / "reports.jsonl").write_text(
        "".join(line + "\n" for line in report_lines), encoding="utf-8"
    )
    (out_dir / "failures.jsonl").unlink(missing_ok=True)
    if failures:
        (out_dir / "failures.jsonl").write_text(
            "".join(
                json.dumps({"case_id": cid, "error": msg}, sort_keys=True) + "\n"
                for cid, msg in failures
            ),
            encoding="utf-8",
        )
    store_error = None
    try:
        if kb is not None and cfg.kb.store_dir:
            kb.save(cfg.kb.store_dir)
    except BaseException as exc:
        store_error = f"{type(exc).__name__}: {exc}"
        raise
    finally:  # a run whose save failed still ends, and says why its store is stale
        _write_manifest(out_dir, run_id, cfg, len(cases), digest, started, time.time(),
                        store_error)
    return RunSummary(
        run_id=run_id, n_cases=len(cases), n_ok=len(cases) - len(failures), failures=failures
    )


@dataclass(frozen=True)
class ReportLine(DiagnosisReport):
    """One line of `reports.jsonl`: a report and its case id."""

    case_id: str = field(kw_only=True)


def report_records(run_dir: str | Path) -> Iterator[tuple[dict, ReportLine]]:
    """Yield (raw object, decoded line), one per case id, from a run's reports.jsonl."""
    return read_records(Path(run_dir) / "reports.jsonl", ReportLine, EvaluationError,
                        "case_id", ": bad report")


def load_reports(run_dir: str | Path) -> list[tuple[str, dict]]:
    """Read (case_id, raw report dict) pairs, one per case id, from a run directory."""
    return [(line.case_id, raw) for raw, line in report_records(run_dir)]

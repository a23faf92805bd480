"""Experiment run orchestration: config loading, provider wiring, output layout.

A run directory holds:
    manifest.json        resolved config snapshot, timestamps, input digest
    reports.jsonl        one {case_id, ...report} object per completed case
    failures.jsonl       one {case_id, error} object per aborted case
    traces/<case_id>.json
Reports are written in case-input order with sorted keys, so identical
inputs produce a byte-identical reports.jsonl; wall-clock data stays in the
manifest and traces.
"""
from __future__ import annotations

import concurrent.futures
import difflib
import hashlib
import json
import os
import time
import uuid
from dataclasses import asdict, dataclass, field, is_dataclass
from enum import Enum, EnumMeta
from pathlib import Path
from typing import Any, Literal, NewType, get_args, get_origin, get_type_hints

from .agents import DEFAULT_MAX_RETRIES, DEFAULT_N_QUERIES, TemplateRegistry
from .chunking import DEFAULT_CHUNK_CHARS, DEFAULT_OVERLAP_CHARS, check_window
from .domain import Case, DiagnosisReport, is_json_int, load_cases, read_json, read_jsonl
from .errors import ConfigError, EvaluationError, RadarError
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
        return asdict(self, dict_factory=lambda items: {k: _json_value(v) for k, v in items})


def _json_value(value: Any) -> Any:
    if isinstance(value, Enum):
        return value.value
    return list(value) if isinstance(value, tuple) else value


def _key_paths(cls: type = RunConfig, prefix: str = "") -> list[str]:
    paths = []
    for key, tp in get_type_hints(cls).items():
        paths.append(prefix + key)
        if is_dataclass(tp):
            paths += _key_paths(tp, f"{prefix}{key}.")
    return paths


def _is_str(value: Any) -> bool:
    return isinstance(value, str)


# The JSON type each scalar field type accepts: (what to call it, test).
_JSON_TYPES = {
    int: ("an integer", is_json_int),
    str: ("a string", _is_str),
    ConfigPath: ("a path string", _is_str),
    tuple[str, ...]: ("a list of strings", lambda v: isinstance(v, list) and all(map(_is_str, v))),
}


def _read(tp: Any, value: Any, base: Path, path: str = "") -> Any:
    """Check a JSON value against the field type ``tp`` at key ``path`` and
    convert it; a settings dataclass is read key by key, and a key it leaves
    out keeps its default."""
    if is_dataclass(tp):  # a section; null counts as absent
        if value is None:
            return tp()
        if not isinstance(value, dict):
            raise ConfigError(f"config section {path!r} must be an object")
        types = get_type_hints(tp)
        prefix = path + "." if path else ""
        for key in value:
            if key not in types:
                guess = difflib.get_close_matches(prefix + key, _key_paths(), n=1)
                hint = f"; did you mean {guess[0]!r}?" if guess else ""
                raise ConfigError(f"unknown config key {prefix + key!r}{hint}")
        return tp(**{key: _read(types[key], v, base, prefix + key) for key, v in value.items()})
    if type(None) in get_args(tp):  # an optional key
        if value is None:
            return None
        (tp,) = (arg for arg in get_args(tp) if arg is not type(None))
    if get_origin(tp) is Literal or isinstance(tp, EnumMeta):
        choices = get_args(tp) or tuple(member.value for member in tp)
        if value not in choices:
            raise ConfigError(
                f"config key {path!r} must be one of {', '.join(map(json.dumps, choices))}, "
                f"got {json.dumps(value)}"
            )
        return tp(value) if isinstance(tp, EnumMeta) else value
    expected, accepts = _JSON_TYPES[tp]
    if not accepts(value):
        raise ConfigError(f"config key {path!r} must be {expected}, got {json.dumps(value)}")
    if tp is ConfigPath:
        return str(base / value)
    return tuple(value) if isinstance(value, list) else value


def load_run_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON run configuration.

    Only the nested shape that ``RunConfig.to_dict`` writes is read, so a
    manifest's config snapshot loads back to an equal config. Relative paths
    are resolved against the config file's directory, and every referenced
    path must exist at load time.
    """
    path = Path(path)
    raw = read_json(path, ConfigError)
    cfg = _read(RunConfig, raw, path.absolute().parent)  # so a snapshot reloads from anywhere

    # Checks that span several keys, or look at the file system.
    provider, kb, source = cfg.provider, cfg.kb, cfg.kb.source
    if provider.kind == "scripted":
        if not provider.script_path:
            raise ConfigError("scripted provider needs provider.script_path")
        if not Path(provider.script_path).is_file():
            raise ConfigError(f"script file {provider.script_path} does not exist")
    if provider.kind == "http" and not provider.chat.url:
        raise ConfigError("http provider needs provider.chat.url")
    if provider.embedder_kind == "http" and not provider.embed.url:
        raise ConfigError("http embedder needs provider.embed.url")
    check_window(kb.chunk_chars, kb.overlap_chars)
    if source.kind == "fixture":
        if not source.corpus_dir:
            raise ConfigError("fixture source needs kb.source.corpus_dir")
        if not Path(source.corpus_dir).is_dir():
            raise ConfigError(f"corpus directory {source.corpus_dir} does not exist")
    if source.kind == "live" and not source.base_url:
        raise ConfigError("live source needs kb.source.base_url")
    if provider.timeouts_ms <= 0:
        raise ConfigError(f"provider.timeouts_ms must be positive, got {provider.timeouts_ms}")
    if cfg.agents.n_queries <= 0:
        raise ConfigError(f"agents.n_queries must be positive, got {cfg.agents.n_queries}")
    if cfg.agents.max_retries < 0:
        raise ConfigError(f"agents.max_retries must be >= 0, got {cfg.agents.max_retries}")
    if cfg.agents.template_dir and not Path(cfg.agents.template_dir).is_dir():
        raise ConfigError(f"template directory {cfg.agents.template_dir} does not exist")
    if cfg.eval.synonym_table and not Path(cfg.eval.synonym_table).is_file():
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


def build_bundle(cfg: RunConfig) -> ProviderBundle:
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
        source = FixtureSource(src.corpus_dir, fail_keywords=src.fail_keywords)
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
    """Stable digest over the names and bytes of every file in the given dirs."""
    h = hashlib.sha256()
    for d in dirs:
        if not d:
            continue
        root = Path(d)
        for f in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(str(f.relative_to(root)).encode("utf-8"))
            h.update(b"\x00")
            h.update(f.read_bytes())
            h.update(b"\x01")
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
) -> None:
    manifest = {
        "run_id": run_id,
        "config": cfg.to_dict(),
        "case_count": n_cases,
        "content_digest": digest,
        "started_at": started,
        "ended_at": ended,
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
    bundle = build_bundle(cfg)
    if isinstance(bundle.chat, ScriptedChatProvider) and bundle.chat.remaining and (
        cfg.topology is Topology.RADAR or cfg.workers > 1
    ):
        # Unkeyed entries answer calls in arrival order, which concurrent
        # cases and the pipeline's concurrent agent calls do not fix.
        raise ConfigError(
            f"script {cfg.provider.script_path} has unkeyed entries; they replay only "
            "with workers=1 and a topology other than radar"
        )
    kb = build_knowledge_base(cfg) if cfg.topology is Topology.RADAR else None
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "traces").mkdir(exist_ok=True)

    run_id = uuid.uuid4().hex[:12]
    digest = content_digest(templates.template_dir, cfg.kb.source.corpus_dir)
    started = time.time()
    _write_manifest(out_dir, run_id, cfg, len(cases), digest, started, None)

    with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [pool.submit(_execute_case, cfg, bundle, kb, templates, case) for case in cases]

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
    if kb is not None and cfg.kb.store_dir:
        kb.save(cfg.kb.store_dir)

    _write_manifest(out_dir, run_id, cfg, len(cases), digest, started, time.time())
    return RunSummary(
        run_id=run_id, n_cases=len(cases), n_ok=len(cases) - len(failures), failures=failures
    )


def load_reports(run_dir: str | Path) -> list[tuple[str, dict]]:
    """Read (case_id, raw report dict) pairs from a run directory.

    Each line must hold a string ``case_id`` and a well-formed report.
    """
    path = Path(run_dir) / "reports.jsonl"
    out = []
    for where, raw in read_jsonl(path, EvaluationError):
        try:
            DiagnosisReport.from_dict(raw)
        except (RadarError, KeyError, TypeError, ValueError) as exc:
            raise EvaluationError(f"{where}: bad report: {type(exc).__name__}: {exc}") from exc
        if not isinstance(raw.get("case_id"), str):
            raise EvaluationError(f"{where}: bad report: no string 'case_id'")
        out.append((raw["case_id"], raw))
    return out

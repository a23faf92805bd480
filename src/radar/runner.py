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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .agents import DEFAULT_MAX_RETRIES, DEFAULT_N_QUERIES, TemplateRegistry
from .chunking import DEFAULT_CHUNK_CHARS, DEFAULT_OVERLAP_CHARS
from .domain import Case, load_cases
from .errors import ConfigError, EvaluationError, RadarError
from .evaluation import DictionaryNormalizer, Normalizer, ProviderNormalizer, load_synonyms
from .knowledge import FixtureSource, KnowledgeBase, LiveSource
from .providers import (
    DEFAULT_EMBED_DIM,
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


@dataclass(frozen=True)
class ProviderSettings:
    kind: str = "scripted"  # scripted | http
    script_path: str | None = None
    chat_url: str | None = None
    embed_url: str | None = None
    timeouts_ms: int = 30_000
    model: str | None = None
    embedder_kind: str = "hashing"  # hashing | http
    dim: int = DEFAULT_EMBED_DIM


@dataclass(frozen=True)
class KbSettings:
    chunk_chars: int = DEFAULT_CHUNK_CHARS
    overlap_chars: int = DEFAULT_OVERLAP_CHARS
    source_kind: str = "fixture"  # fixture | live
    corpus_dir: str | None = None
    fail_keywords: tuple[str, ...] = ()
    base_url: str | None = None
    delay_ms: int = 1000
    cache_dir: str | None = None
    store_dir: str | None = None


@dataclass(frozen=True)
class AgentSettings:
    n_queries: int = DEFAULT_N_QUERIES
    max_retries: int = DEFAULT_MAX_RETRIES
    template_dir: str | None = None


@dataclass(frozen=True)
class EvalSettings:
    normalizer_kind: str = "dictionary"  # dictionary | provider
    synonym_table: str | None = None


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
        return {
            "topology": self.topology.value,
            "provider": {
                "kind": self.provider.kind,
                "script_path": self.provider.script_path,
                "chat": {"url": self.provider.chat_url},
                "embed": {"url": self.provider.embed_url},
                "timeouts_ms": self.provider.timeouts_ms,
                "model": self.provider.model,
                "embedder_kind": self.provider.embedder_kind,
                "dim": self.provider.dim,
            },
            "kb": {
                "chunk_chars": self.kb.chunk_chars,
                "overlap_chars": self.kb.overlap_chars,
                "source": {
                    "kind": self.kb.source_kind,
                    "corpus_dir": self.kb.corpus_dir,
                    "fail_keywords": list(self.kb.fail_keywords),
                    "base_url": self.kb.base_url,
                    "delay_ms": self.kb.delay_ms,
                    "cache_dir": self.kb.cache_dir,
                },
                "store_dir": self.kb.store_dir,
            },
            "agents": {
                "n_queries": self.agents.n_queries,
                "max_retries": self.agents.max_retries,
                "template_dir": self.agents.template_dir,
            },
            "eval": {
                "normalizer_kind": self.eval.normalizer_kind,
                "synonym_table": self.eval.synonym_table,
            },
            "seed": self.seed,
            "workers": self.workers,
        }


_SHAPE = RunConfig().to_dict()


def _key_paths(shape: dict, prefix: str = "") -> list[str]:
    paths = []
    for key, value in shape.items():
        paths.append(prefix + key)
        if isinstance(value, dict):
            paths += _key_paths(value, f"{prefix}{key}.")
    return paths


def _check_shape(raw: dict, shape: dict = _SHAPE, prefix: str = "") -> None:
    """Reject a key outside the documented shape, naming the documented key
    it most resembles, and a section that is not an object (null counts as
    absent)."""
    for key, value in raw.items():
        path = prefix + key
        if key not in shape:
            guess = difflib.get_close_matches(path, _key_paths(_SHAPE), n=1)
            hint = f"; did you mean {guess[0]!r}?" if guess else ""
            raise ConfigError(f"unknown config key {path!r}{hint}")
        if isinstance(shape[key], dict) and value is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {path!r} must be an object")
            _check_shape(value, shape[key], path + ".")


def _resolve_path(base: Path, value: str | None) -> str | None:
    if value is None:
        return None
    path = Path(value)
    if not path.is_absolute():
        path = base / path
    return str(path)


def load_run_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON run configuration.

    Only the nested shape that ``RunConfig.to_dict`` writes is read, so a
    manifest's config snapshot loads back to an equal config. Relative paths
    are resolved against the config file's directory, and every referenced
    path must exist at load time.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    _check_shape(raw)
    base = path.absolute().parent  # so a manifest snapshot reloads from anywhere

    try:
        topology = Topology(raw.get("topology", "radar"))
    except ValueError as exc:
        raise ConfigError(f"unknown topology {raw.get('topology')!r}") from exc

    p = raw.get("provider") or {}
    provider = ProviderSettings(
        kind=p.get("kind", "scripted"),
        script_path=_resolve_path(base, p.get("script_path")),
        chat_url=(p.get("chat") or {}).get("url"),
        embed_url=(p.get("embed") or {}).get("url"),
        timeouts_ms=int(p.get("timeouts_ms", 30_000)),
        model=p.get("model"),
        embedder_kind=p.get("embedder_kind", "hashing"),
        dim=int(p.get("dim", DEFAULT_EMBED_DIM)),
    )
    if provider.kind not in ("scripted", "http"):
        raise ConfigError(f"unknown provider kind {provider.kind!r}")
    if provider.kind == "scripted":
        if not provider.script_path:
            raise ConfigError("scripted provider needs provider.script_path")
        if not Path(provider.script_path).is_file():
            raise ConfigError(f"script file {provider.script_path} does not exist")
    if provider.kind == "http" and not provider.chat_url:
        raise ConfigError("http provider needs provider.chat.url")
    if provider.embedder_kind not in ("hashing", "http"):
        raise ConfigError(f"unknown embedder kind {provider.embedder_kind!r}")
    if provider.embedder_kind == "http" and not provider.embed_url:
        raise ConfigError("http embedder needs provider.embed.url")

    k = raw.get("kb") or {}
    source = k.get("source") or {}
    kb = KbSettings(
        chunk_chars=int(k.get("chunk_chars", DEFAULT_CHUNK_CHARS)),
        overlap_chars=int(k.get("overlap_chars", DEFAULT_OVERLAP_CHARS)),
        source_kind=source.get("kind", "fixture"),
        corpus_dir=_resolve_path(base, source.get("corpus_dir")),
        fail_keywords=tuple(source.get("fail_keywords", ())),
        base_url=source.get("base_url"),
        delay_ms=int(source.get("delay_ms", 1000)),
        cache_dir=_resolve_path(base, source.get("cache_dir")),
        store_dir=_resolve_path(base, k.get("store_dir")),
    )
    if kb.overlap_chars < 0 or kb.overlap_chars >= kb.chunk_chars:
        raise ConfigError(
            f"kb.overlap_chars must satisfy 0 <= overlap < chunk, got "
            f"overlap={kb.overlap_chars}, chunk={kb.chunk_chars}"
        )
    if kb.source_kind not in ("fixture", "live"):
        raise ConfigError(f"unknown kb source kind {kb.source_kind!r}")
    if kb.source_kind == "fixture":
        if not kb.corpus_dir:
            raise ConfigError("fixture source needs kb.source.corpus_dir")
        if not Path(kb.corpus_dir).is_dir():
            raise ConfigError(f"corpus directory {kb.corpus_dir} does not exist")
    if kb.source_kind == "live" and not kb.base_url:
        raise ConfigError("live source needs kb.source.base_url")

    a = raw.get("agents") or {}
    agents = AgentSettings(
        n_queries=int(a.get("n_queries", DEFAULT_N_QUERIES)),
        max_retries=int(a.get("max_retries", DEFAULT_MAX_RETRIES)),
        template_dir=_resolve_path(base, a.get("template_dir")),
    )
    if agents.n_queries <= 0:
        raise ConfigError(f"agents.n_queries must be positive, got {agents.n_queries}")
    if agents.template_dir and not Path(agents.template_dir).is_dir():
        raise ConfigError(f"template directory {agents.template_dir} does not exist")

    e = raw.get("eval") or {}
    eval_settings = EvalSettings(
        normalizer_kind=e.get("normalizer_kind", "dictionary"),
        synonym_table=_resolve_path(base, e.get("synonym_table")),
    )
    if eval_settings.normalizer_kind not in ("dictionary", "provider"):
        raise ConfigError(f"unknown normalizer kind {eval_settings.normalizer_kind!r}")
    if eval_settings.synonym_table and not Path(eval_settings.synonym_table).is_file():
        raise ConfigError(f"synonym table {eval_settings.synonym_table} does not exist")

    workers = int(raw.get("workers", DEFAULT_WORKERS))
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")

    return RunConfig(
        topology=topology,
        provider=provider,
        kb=kb,
        agents=agents,
        eval=eval_settings,
        seed=int(raw.get("seed", 0)),
        workers=workers,
    )


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------


def build_bundle(cfg: RunConfig) -> ProviderBundle:
    api_key = os.environ.get(API_KEY_ENV)
    timeout_s = cfg.provider.timeouts_ms / 1000.0

    if cfg.provider.kind == "scripted":
        chat = scripted_provider_from_file(cfg.provider.script_path)
    else:
        chat = HttpChatProvider(
            cfg.provider.chat_url,
            api_key=api_key,
            model=cfg.provider.model,
            timeout_s=timeout_s,
        )

    if cfg.provider.embedder_kind == "hashing":
        embedder = HashingEmbedder(dim=cfg.provider.dim)
    else:
        embedder = HttpEmbedder(
            cfg.provider.embed_url, dim=cfg.provider.dim, api_key=api_key, timeout_s=timeout_s
        )

    if cfg.kb.source_kind == "fixture":
        source = FixtureSource(cfg.kb.corpus_dir, fail_keywords=cfg.kb.fail_keywords)
    else:
        source = LiveSource(
            cfg.kb.base_url, delay_ms=cfg.kb.delay_ms, cache_dir=cfg.kb.cache_dir
        )
    return ProviderBundle(chat=chat, embedder=embedder, source=source)


def build_knowledge_base(cfg: RunConfig) -> KnowledgeBase:
    store = Path(cfg.kb.store_dir) if cfg.kb.store_dir else None
    if store and (store / "meta.json").exists():
        kb = KnowledgeBase.load(store)
        if kb.index.dim != cfg.provider.dim:
            raise ConfigError(
                f"persisted knowledge base dim {kb.index.dim} does not match "
                f"configured dim {cfg.provider.dim}"
            )
        return kb
    return KnowledgeBase(
        dim=cfg.provider.dim,
        chunk_chars=cfg.kb.chunk_chars,
        overlap_chars=cfg.kb.overlap_chars,
    )


def build_normalizer(cfg: RunConfig, bundle: ProviderBundle | None = None) -> Normalizer:
    table = load_synonyms(cfg.eval.synonym_table) if cfg.eval.synonym_table else {}
    if cfg.eval.normalizer_kind == "provider":
        if bundle is None:
            bundle = build_bundle(cfg)
        return ProviderNormalizer(bundle.chat)
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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "traces").mkdir(exist_ok=True)

    kb = build_knowledge_base(cfg) if cfg.topology is Topology.RADAR else None
    templates = TemplateRegistry(cfg.agents.template_dir)

    run_id = uuid.uuid4().hex[:12]
    digest = content_digest(
        cfg.agents.template_dir or (Path(__file__).parent / "templates"),
        cfg.kb.corpus_dir,
    )
    started = time.time()
    _write_manifest(out_dir, run_id, cfg, len(cases), digest, started, None)

    with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [pool.submit(_execute_case, cfg, bundle, kb, templates, case) for case in cases]

    failures: list[tuple[str, str]] = []
    report_lines = []
    for case, future in zip(cases, futures):
        try:
            report, trace = future.result()
        except RadarError as exc:
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
    """Read (case_id, raw report dict) pairs from a run directory."""
    path = Path(run_dir) / "reports.jsonl"
    if not path.is_file():
        raise EvaluationError(f"{run_dir} has no reports.jsonl")
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        raw = json.loads(line)
        out.append((raw["case_id"], raw))
    return out

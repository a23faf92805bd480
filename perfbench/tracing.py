"""Per-layer tracing from outside the program, and the metrics derived from it.

`install` wraps public callables of each `radar` module where they are looked
up, so the program runs unchanged. Every call becomes a span (id, parent,
name, case id, start, end, detail), kept in memory and written out once by
`dump`. `layer_metrics` derives the per-layer metrics from a span file.

Counts and times of the case-path layers cover only spans inside a case
(`run_radar`); the set-up and output metrics cover the whole run. Times are
totals in milliseconds unless the name says otherwise.
"""
from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

_spans: list[tuple] = []
_ids = itertools.count(1)
_local = threading.local()
_index_state = {"dirty": False}  # an insert since the last search


def _stack() -> list:
    if not hasattr(_local, "stack"):
        _local.stack = []
        _local.case = None
    return _local.stack


def _wrap(name, fn, detail=None, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        parent = stack[-1] if stack else None
        sid = next(_ids)
        pre = before(*args, **kwargs) if before else None
        stack.append(sid)
        start = time.perf_counter()
        info = pre
        try:
            result = fn(*args, **kwargs)
            if detail:
                info = {**(pre or {}), **(detail(result, *args, **kwargs) or {})}
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            _spans.append((sid, parent, name, _local.case, start, end, info))

    return wrapper


def _case_wrap(fn):
    traced = _wrap("topologies.case", fn)

    @functools.wraps(fn)
    def wrapper(providers, kb, case, *args, **kwargs):
        _stack()
        _local.case = case.id
        try:
            return traced(providers, kb, case, *args, **kwargs)
        finally:
            _local.case = None

    return wrapper


def _patch(owner, attr, name, **kw):
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_wrap(name, raw.__func__, **kw)))
    else:
        setattr(owner, attr, _wrap(name, raw, **kw))


def _mark_insert(result, *args, **kwargs):
    _index_state["dirty"] = True
    return None


def _classify_search(*args, **kwargs):
    after = _index_state["dirty"]
    _index_state["dirty"] = False
    return {"after_insert": after}


def install() -> None:
    """Wrap every traced callable; call once, before `run_cases`."""
    from radar import agents, index, knowledge, providers, runner, topologies

    _patch(providers.HashingEmbedder, "embed", "providers.embed",
           before=lambda self, text: {"chars": len(text)})
    for cls in (providers.ScriptedChatProvider, providers.HttpChatProvider):
        _patch(cls, "complete", "providers.chat")
    _patch(index.FlatIndex, "insert", "index.insert", detail=_mark_insert)
    _patch(index.FlatIndex, "search_top_k", "index.search", before=_classify_search)
    _patch(index.FlatIndex, "save", "index.save")
    _patch(index.FlatIndex, "load", "index.load")
    kb = knowledge.KnowledgeBase
    _patch(kb, "lookup_or_fetch", "knowledge.lookup",
           detail=lambda r, *a, **k: {"hit": r.hit.value == "internal"})
    _patch(kb, "ingest", "knowledge.ingest", detail=lambda r, *a, **k: {"chunks": r})
    _patch(kb, "save", "knowledge.save",
           before=lambda self, *a, **k: {"rows": self.index.count})
    _patch(kb, "load", "knowledge.load")
    _patch(knowledge, "segment", "chunking.segment")
    _patch(knowledge, "embed_chunks", "chunking.embed_chunks")
    _patch(knowledge, "fetch_documents", "knowledge.fetch")
    _patch(knowledge, "canonical_fold", "domain.canonical_fold")
    _patch(topologies, "embed_text", "topologies.embed_text")
    _patch(agents, "ask_structured", "agents.ask")
    _patch(agents, "parse_structured", "agents.parse")
    _patch(agents.TemplateRegistry, "render", "agents.render")
    for attr in ("build_bundle", "build_knowledge_base", "content_digest"):
        _patch(runner, attr, f"runner.{attr}")
    runner.run_radar = _case_wrap(runner.run_radar)


def dump(path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for sid, parent, name, case, start, end, info in _spans:
            f.write(json.dumps({"id": sid, "parent": parent, "name": name, "case": case,
                                "start": start, "end": end, "info": info}) + "\n")


# ---------------------------------------------------------------------------
# Derivation (runs in the harness, not in the traced process)
# ---------------------------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "providers.embed.calls": "count",
    "providers.embed.kchars": "kchars",
    "providers.embed.ms": "ms",
    "chunking.segment.ms": "ms",
    "chunking.embed_chunks.ms": "ms",
    "knowledge.ingest.ms": "ms",
    "knowledge.ingest.chunks": "count",
    "index.insert.calls": "count",
    "index.insert.ms": "ms",
    "index.search_after_insert.p50_ms": "ms",
    "index.search_after_insert.ms": "ms",
    "index.search.calls": "count",
    "index.search_warm.p50_ms": "ms",
    "index.search.ms": "ms",
    "index.rows": "count",
    "index.load.ms": "ms",
    "knowledge.load.ms": "ms",
    "runner.build_bundle_ms": "ms",
    "runner.content_digest_ms": "ms",
    "index.save.ms": "ms",
    "knowledge.save.ms": "ms",
    "runner.output_ms": "ms",
    "knowledge.lookups": "count",
    "knowledge.hit_ratio": "ratio",
    "knowledge.fetch.calls": "count",
    "knowledge.fetch.ms": "ms",
    "domain.canonical_fold.calls": "count",
    "domain.canonical_fold.ms": "ms",
    "knowledge.lookup.wait_ms": "ms",
    "providers.chat.calls": "count",
    "providers.chat.ms": "ms",
    "providers.chat.wait_share": "ratio",
    "agents.ask.calls": "count",
    "agents.ask.retries": "count",
    "agents.parse.ms": "ms",
    "agents.render.ms": "ms",
    "topologies.case.ms": "ms",
    "topologies.case.self_ms": "ms",
    "trace.overhead_share": "ratio",
}


def layer_metrics(span_path, output_ms: float, overhead_share: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its span file."""
    spans = [json.loads(line) for line in open(span_path, encoding="utf-8")]
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def dur(s):
        return (s["end"] - s["start"]) * 1000.0

    def self_ms(s):
        return dur(s) - sum(dur(c) for c in children[s["id"]])

    named = defaultdict(list)  # spans inside a case
    whole = defaultdict(list)  # every span
    for s in spans:
        whole[s["name"]].append(s)
        if s["case"] is not None:
            named[s["name"]].append(s)

    def total(name, group=named):
        return sum(dur(s) for s in group[name])

    def p50(values):
        return statistics.median(values) if values else 0.0

    searches = named["index.search"]
    after = [dur(s) for s in searches if s["info"]["after_insert"]]
    warm = [dur(s) for s in searches if not s["info"]["after_insert"]]
    lookups = named["knowledge.lookup"]
    asks = named["agents.ask"]
    case_ms = total("topologies.case")
    saves = whole["knowledge.save"]
    return {
        "providers.embed.calls": len(named["providers.embed"]),
        "providers.embed.kchars": sum(s["info"]["chars"] for s in named["providers.embed"]) / 1000,
        "providers.embed.ms": total("providers.embed"),
        "chunking.segment.ms": total("chunking.segment"),
        "chunking.embed_chunks.ms": total("chunking.embed_chunks"),
        "knowledge.ingest.ms": total("knowledge.ingest"),
        "knowledge.ingest.chunks": sum(s["info"]["chunks"] for s in named["knowledge.ingest"]),
        "index.insert.calls": len(named["index.insert"]),
        "index.insert.ms": total("index.insert"),
        "index.search_after_insert.p50_ms": p50(after),
        "index.search_after_insert.ms": sum(after),
        "index.search.calls": len(searches),
        "index.search_warm.p50_ms": p50(warm),
        "index.search.ms": total("index.search"),
        "index.rows": saves[-1]["info"]["rows"] if saves else 0,
        "index.load.ms": total("index.load", whole),
        "knowledge.load.ms": total("knowledge.load", whole),
        "runner.build_bundle_ms": total("runner.build_bundle", whole),
        "runner.content_digest_ms": total("runner.content_digest", whole),
        "index.save.ms": total("index.save", whole),
        "knowledge.save.ms": total("knowledge.save", whole),
        "runner.output_ms": output_ms,
        "knowledge.lookups": len(lookups),
        "knowledge.hit_ratio": sum(s["info"]["hit"] for s in lookups) / len(lookups) if lookups else 0.0,
        "knowledge.fetch.calls": len(named["knowledge.fetch"]),
        "knowledge.fetch.ms": total("knowledge.fetch"),
        "domain.canonical_fold.calls": len(named["domain.canonical_fold"]),
        "domain.canonical_fold.ms": total("domain.canonical_fold"),
        "knowledge.lookup.wait_ms": sum(self_ms(s) for s in lookups),
        "providers.chat.calls": len(named["providers.chat"]),
        "providers.chat.ms": total("providers.chat"),
        "providers.chat.wait_share": total("providers.chat") / case_ms if case_ms else 0.0,
        "agents.ask.calls": len(asks),
        "agents.ask.retries": sum(
            max(0, sum(c["name"] == "providers.chat" for c in children[s["id"]]) - 1) for s in asks
        ),
        "agents.parse.ms": total("agents.parse"),
        "agents.render.ms": total("agents.render"),
        "topologies.case.ms": case_ms,
        "topologies.case.self_ms": sum(self_ms(s) for s in named["topologies.case"]),
        "trace.overhead_share": overhead_share,
    }

"""Seeded workload generator for the `radar run` benchmark.

Modelled on tests/data/build_fixtures.py, scaled up and driven by a seed.
For one workload and seed it writes, under a data directory:

    corpus/                 one JSON per document, 300-6000 character bodies
    store/                  the pre-built knowledge base every run starts from
    cases.jsonl             the cases of one child run
    truth.jsonl, synonyms.json
    script.json             fingerprint-keyed replies for the scripted provider
    backend.json            the same replies keyed by wire message digest
    expected_reports.jsonl  what reports.jsonl must hold, byte for byte
    expected.json           expected Top-1 / Top-5 and the input sizes

The script is learned by running the serial case order once through the
program's own `run_radar` with a deterministic responder, so scripted and
HTTP runs can use any number of workers: replies are looked up by request,
never by call order.
"""
from __future__ import annotations

import hashlib
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from backend import wire_key

DIM = 384
CHUNK_CHARS = 1000
OVERLAP_CHARS = 200
N_QUERIES = 5
DOCS_PER_KEYWORD = 10  # five articles and five cases, the fetch cap per keyword
SHARED_DOC_SHARE = 0.25  # keywords that also list one document of an earlier keyword
BODY_MIN, BODY_MAX = 300, 6000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; see BENCHMARK.json for why each exists."""

    name: str
    cases: int
    stored_keywords: int  # keywords ingested into the pre-built store
    misses_per_case: int  # keywords per case absent from the store
    workers: int
    provider: str  # scripted | http
    delay_ms: int = 0  # per-call delay of the stand-in model backend


# About 40 rows per keyword gives ~15k stored rows for cold_ingest and ~20k
# for the warm workloads, the size ROADMAP states its index targets at. Case
# counts make one child run last 6-9 s on a 2-core host, so a 50 s run holds
# several and reports their median. warm_search is run by hand only and is not
# listed in BENCHMARK.json: its CPU-bound wall times drift with the shared
# host's speed as much as cold_ingest's do, and the time limit for all runs
# allows 50 s runs for two workloads, not for three.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold_ingest", cases=40, stored_keywords=375, misses_per_case=1,
                 workers=1, provider="scripted"),
        Workload("warm_search", cases=200, stored_keywords=500, misses_per_case=0,
                 workers=1, provider="scripted"),
        Workload("slow_model", cases=34, stored_keywords=500, misses_per_case=0,
                 workers=2, provider="http", delay_ms=50),
    )
}

_ONSETS = ["b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v", "th", "ch", "pr", "st"]
_VOWELS = ["a", "e", "i", "o", "u", "ae", "io", "ou"]
_CODAS = ["", "n", "r", "s", "l", "x", "m", "nd", "st"]
_SUFFIXES = ["oma", "itis", "osis", "opathy", "plasia", "ectasia", "algia", "ocele"]


def _word(rng: np.random.Generator, syllables: int) -> str:
    return "".join(
        _ONSETS[rng.integers(len(_ONSETS))]
        + _VOWELS[rng.integers(len(_VOWELS))]
        + _CODAS[rng.integers(len(_CODAS))]
        for _ in range(syllables)
    )


def _distinct(rng: np.random.Generator, n: int, make) -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < n:
        value = make()
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


def _prose(rng: np.random.Generator, vocab: np.ndarray, n_words: int) -> str:
    """Random words; vocab entries that end a sentence carry their full stop."""
    return " ".join(vocab[rng.integers(len(vocab), size=n_words)].tolist())


# ---------------------------------------------------------------------------
# Embedding for the pre-built store
# ---------------------------------------------------------------------------


class MemoHashingEmbedder:
    """Bit-identical to radar's HashingEmbedder on ASCII text, hashing each 3-gram once.

    Same spec (lowercase, '##' padding, blake2b, bucket = first 4 bytes LE mod
    dim, sign = low bit of byte 4, float64 accumulation of +-1, L2 norm,
    unsigned fallback); only the counting is vectorized, over a table indexed
    by the 3-gram's three 7-bit codes. It builds the pre-built store, which
    would take the program's embedder about 40 s per run, and `check_against`
    proves it equal to the program's embedder on a sample.
    """

    def __init__(self, dim: int = DIM):
        self.dim = dim
        self._bucket = np.full(1 << 21, -1, dtype=np.int64)  # -1: not hashed yet
        self._sign = np.zeros(1 << 21, dtype=np.float64)

    def embed(self, text: str) -> np.ndarray:
        codes = np.frombuffer(f"##{text.lower()}##".encode("ascii"), dtype=np.uint8).astype(np.int64)
        grams = (codes[:-2] << 14) | (codes[1:-1] << 7) | codes[2:]
        for gram in np.unique(grams[self._bucket[grams] < 0]).tolist():
            chars = bytes([gram >> 14, (gram >> 7) & 0x7F, gram & 0x7F])
            digest = hashlib.blake2b(chars, digest_size=8).digest()
            self._bucket[gram] = int.from_bytes(digest[:4], "little") % self.dim
            self._sign[gram] = 1.0 if digest[4] & 1 else -1.0
        buckets = self._bucket[grams]
        acc = np.bincount(buckets, weights=self._sign[grams], minlength=self.dim)
        norm = float(np.linalg.norm(acc))
        if norm == 0.0:
            acc = np.bincount(buckets, minlength=self.dim).astype(np.float64)
            norm = float(np.linalg.norm(acc))
        return (acc / norm).astype(np.float32)

    def check_against(self, reference, texts: list[str]) -> None:
        for text in texts:
            if not np.array_equal(self.embed(text), reference.embed(text)):
                raise RuntimeError(
                    "the program's HashingEmbedder no longer matches its documented "
                    f"hashing spec on a {len(text)}-character chunk"
                )


# ---------------------------------------------------------------------------
# The synthetic responder
# ---------------------------------------------------------------------------

_CASE_RE = re.compile(r"Case ([a-z_]+-\d{4}):")
_CHUNK_BLOCK_RE = re.compile(r"^\[([\w.:-]+)\]$", re.MULTILINE)


def respond(prompt: str, case_replies: dict[str, str]) -> str:
    """Deterministic model stand-in: a reply is a pure function of the prompt.

    Answer prompts carry `[chunk id]` blocks and are answered citing the first
    two. Every other prompt names its case in the caption and gets the case's
    one reply object, which satisfies the candidate, query and report schemas
    at once, so no reply depends on template wording or call order.
    """
    cited = _CHUNK_BLOCK_RE.findall(prompt)[:2]
    if cited:
        return json.dumps(
            {"answer": f"The excerpts {' and '.join(cited)} address this question.",
             "supporting_chunk_ids": cited}
        )
    match = _CASE_RE.search(prompt)
    if match is None or match.group(1) not in case_replies:
        raise RuntimeError("responder met a prompt that names no known case")
    return case_replies[match.group(1)]


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _body_lengths(rng: np.random.Generator) -> list[int]:
    """One length per stratum of [BODY_MIN, BODY_MAX], shuffled, so every
    keyword carries nearly the same amount of text and seeds differ little."""
    edges = np.linspace(BODY_MIN, BODY_MAX, DOCS_PER_KEYWORD + 1)
    lengths = [int(rng.integers(int(edges[i]), int(edges[i + 1]))) for i in range(DOCS_PER_KEYWORD)]
    rng.shuffle(lengths)
    return lengths


def _write_corpus(rng, corpus_dir: Path, keywords: list[str], vocab: np.ndarray) -> None:
    corpus_dir.mkdir(parents=True)
    originals: list[dict] = []  # documents listed under their own keyword
    for ki, keyword in enumerate(keywords):
        lengths = _body_lengths(rng)
        docs = []
        for j, length in enumerate(lengths):
            section = "article" if j < DOCS_PER_KEYWORD // 2 else "case"
            doc_id = f"d{ki:04d}-{j}"
            head = f"{keyword.title()} {section} {doc_id}. "
            body = (head + _prose(rng, vocab, length // 6 + 8))[:length]
            docs.append({
                "doc_id": doc_id, "keyword": keyword, "section": section,
                "title": f"{keyword.title()} {section} {j}", "body": body,
                "source_url": f"https://reference.example/{section}s/{doc_id}",
            })
        if originals and rng.random() < SHARED_DOC_SHARE:
            # Returned under two keywords, as on a real reference site.
            shared = dict(originals[int(rng.integers(len(originals)))])
            shared["keyword"] = keyword
            docs[-1 if shared["section"] == "case" else 0] = shared
        originals.extend(d for d in docs if d["doc_id"].startswith(f"d{ki:04d}-"))
        for j, doc in enumerate(docs):
            (corpus_dir / f"k{ki:04d}-{j}.json").write_text(
                json.dumps(doc, ensure_ascii=False), encoding="utf-8"
            )


def _case_plan(rng, workload: Workload, labels: list[str], aliases: dict[str, str],
               stored: list[str], missing: list[str], vocab: np.ndarray):
    """Cases, truths and each case's canned reply, with the expected scores."""
    cases, truths, replies = [], [], {}
    top1 = top5 = 0
    fresh = iter(missing)
    for i in range(workload.cases):
        case_id = f"{workload.name}-{i:04d}"
        truth = labels[int(rng.integers(len(labels)))]
        others = [labels[j] for j in rng.permutation(len(labels))[:12] if labels[j] != truth]
        outcome = rng.random()
        if outcome < 0.45:  # Top-1, sometimes under a synonym spelling
            top1 += 1
            top5 += 1
            primary = aliases[truth] if rng.random() < 0.3 else truth
            ranked = [primary] + others[:4]
        elif outcome < 0.75:  # Top-5 only
            top5 += 1
            ranked = others[:4]
            ranked.insert(1 + int(rng.integers(4)), truth)
        else:
            ranked = others[:5]
        candidates = ranked + [o for o in others if o not in ranked][: 10 - len(ranked)]
        n_miss = workload.misses_per_case
        picks = [next(fresh) for _ in range(n_miss)]
        picks += [stored[j] for j in rng.choice(len(stored), N_QUERIES - n_miss, replace=False)]
        order = rng.permutation(N_QUERIES)
        queries = [
            {"question": f"What do the references say about {picks[j]} given "
                         f"{_prose(rng, vocab, 6).rstrip('.')}?",
             "keyword": picks[j]}
            for j in order
        ]
        replies[case_id] = json.dumps({
            "candidates": candidates,
            "queries": queries,
            "primary": ranked[0],
            "differentials": ranked[1:5],
            "confidences": [0.5, 0.2, 0.15, 0.1, 0.05],
        })
        cases.append({
            "id": case_id,
            "caption": f"Case {case_id}: {_prose(rng, vocab, 30)}",
            "clinical_data": _prose(rng, vocab, 14),
            "truth_label": truth,
            "paraphrase_id": 0,
        })
        truths.append({"case_id": case_id, "truth_label": truth})
    expected = {"top1": top1 / workload.cases, "top5": top5 / workload.cases}
    return cases, truths, replies, expected


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                    encoding="utf-8")


def generate(workload: Workload, seed: int, data_dir: Path, sim_cache: Path) -> dict:
    """Write every input of one run; returns expected.json's contents."""
    from radar.knowledge import FixtureSource, KnowledgeBase, fetch_documents
    from radar.providers import HashingEmbedder

    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    words = _distinct(rng, 4000, lambda: _word(rng, int(rng.integers(1, 4))))
    vocab = np.array(words + [w + "." for w in words[:400]])
    n_missing = workload.cases * workload.misses_per_case
    keywords = _distinct(
        rng, workload.stored_keywords + n_missing,
        lambda: f"{_word(rng, 2)} {_word(rng, 2)}{_SUFFIXES[rng.integers(len(_SUFFIXES))]}",
    )
    stored, missing = keywords[: workload.stored_keywords], keywords[workload.stored_keywords:]
    labels = _distinct(rng, 60, lambda: f"{_word(rng, 3).title()} {_word(rng, 2)}oma")
    aliases = {label: f"{label.split()[0][:4].upper()}-{i}" for i, label in enumerate(labels)}

    data_dir.mkdir(parents=True)
    _write_corpus(rng, data_dir / "corpus", keywords, vocab)
    cases, truths, replies, expected = _case_plan(
        rng, workload, labels, aliases, stored, missing, vocab
    )
    _write_jsonl(data_dir / "cases.jsonl", cases)
    _write_jsonl(data_dir / "truth.jsonl", truths)
    (data_dir / "synonyms.json").write_text(
        json.dumps({alias: label for label, alias in aliases.items()}), encoding="utf-8"
    )

    source = FixtureSource(data_dir / "corpus")
    embedder = MemoHashingEmbedder(DIM)
    kb = KnowledgeBase(dim=DIM, chunk_chars=CHUNK_CHARS, overlap_chars=OVERLAP_CHARS)
    for keyword in stored:
        kb.ingest(keyword, fetch_documents(source, keyword), embedder)
    kb.save(data_dir / "store")
    sample = [cid for cid, _, _ in kb.index.entries()[:: max(1, kb.index.count // 24)]]
    embedder.check_against(HashingEmbedder(DIM), [kb.chunk_text(cid) for cid in sample])
    expected.update(store_rows=kb.index.count, store_docs=len(kb.doc_store),
                    cases=workload.cases)

    if not (sim_cache / "expected_reports.jsonl").is_file():
        _simulate(data_dir / "store", cases, replies, embedder, source, sim_cache)
    for name in ("script.json", "backend.json", "expected_reports.jsonl"):
        shutil.copyfile(sim_cache / name, data_dir / name)
    (data_dir / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    return expected


def _simulate(store: Path, cases: list[dict], replies: dict[str, str],
              embedder: MemoHashingEmbedder, source, sim_cache: Path) -> None:
    """Run the serial case order once through the program with the responder
    and record every request's reply, plus the reports the run must produce."""
    from radar.agents import TemplateRegistry
    from radar.domain import validate_case
    from radar.knowledge import KnowledgeBase
    from radar.providers import ChatResponse, request_fingerprint
    from radar.topologies import ProviderBundle, run_radar

    script: dict[str, str] = {}
    wire: dict[str, str] = {}

    class Recorder:
        provider_id = "perfbench-responder"

        def complete(self, request):
            content = respond(request.messages[-1].content, replies)
            script[request_fingerprint(request)] = content
            wire[wire_key([{"role": m.role, "content": m.content} for m in request.messages])] = content
            return ChatResponse(content=content, provider_id=self.provider_id)

    bundle = ProviderBundle(chat=Recorder(), embedder=embedder, source=source)
    kb = KnowledgeBase.load(store)
    templates = TemplateRegistry()
    lines = []
    for raw in cases:
        case = validate_case(raw)
        report, _ = run_radar(bundle, kb, case, n_queries=N_QUERIES, templates=templates)
        planned = json.loads(replies[case.id])
        if [report.primary, *report.differentials] != [planned["primary"], *planned["differentials"]]:
            raise RuntimeError(f"simulated report for {case.id} differs from its plan")
        lines.append(json.dumps({"case_id": case.id, **report.to_dict()},
                                sort_keys=True, separators=(",", ":")))

    tmp = sim_cache.with_name(sim_cache.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    (tmp / "script.json").write_text(
        json.dumps([{"fingerprint": fp, "content": c} for fp, c in sorted(script.items())]),
        encoding="utf-8",
    )
    (tmp / "backend.json").write_text(json.dumps(wire, sort_keys=True), encoding="utf-8")
    (tmp / "expected_reports.jsonl").write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    shutil.rmtree(sim_cache, ignore_errors=True)
    tmp.rename(sim_cache)

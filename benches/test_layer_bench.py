"""Layer benchmarks for the per-record and per-text work of a run.

Run from the repository root (Tier-1's `testpaths` does not collect this
directory):

    PYTHONPATH=src python -m pytest benches/test_layer_bench.py -q --benchmark-json=bench.json

- `decode` of 8,000 corpus-like documents, as a store load or a fixture
  corpus read does them;
- `load_run_config` on the golden config;
- `parse_structured` on a report reply wrapped in prose and a code fence;
- `canonical_fold` on one label;
- `segment` of a 10,000-character body into 1000/200-character windows;
- `HashingEmbedder.embed` of one 1000-character window of word-like text,
  with the 3-gram memo warm, as in a run;
- one case's embedding: 41 word-like 1000-character chunks and 5 questions,
  with the 3-gram memo warm;
- a new embedder over 200 random-CJK 1000-character texts, whose 3-grams
  almost never repeat, so nearly every lookup misses the memo;
- `KnowledgeBase.ingest` of one keyword's 10 word-like documents (segment,
  embed with the hashing embedder, insert) into an empty store;
- the corpus pass of a run's set-up: `FixtureSource` over a 4,150-file
  corpus, feeding the content digest as it reads;
- `KnowledgeBase.load` of a 15,000-row store, before any save below
  changes it;
- the same corpus pass beside that loaded store, which holds most of the
  corpus's documents, so each of those files is compared with its stored
  document and the stored object kept;
- `KnowledgeBase.save` of that store, clean (nothing ingested since
  its last save), changed (one keyword with no documents ingested), and
  after one keyword of 10 new documents, whose ids fall between stored ones.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from radar.agents import parse_report, parse_structured
from radar.chunking import Document, EmbeddedChunk, segment
from radar.domain import canonical_fold, decode
from radar.errors import CorruptionError
from radar.knowledge import FixtureSource, KnowledgeBase
from radar.providers import HashingEmbedder
from radar.runner import load_run_config

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
N_DOCUMENTS = 8_000
N_CORPUS_FILES = 4_150  # the cold_ingest benchmark corpus's size
STORE_ROWS = 15_000


def corpus_like_documents(count: int) -> list[dict]:
    """Parsed JSON documents with bodies of 300-6000 characters, as in a corpus."""
    rng = random.Random(0)
    return json.loads(json.dumps([
        {"doc_id": f"articles:term-{i}", "keyword": f"term {i % 500}",
         "section": "article" if i % 2 else "case", "title": f"Term {i}",
         "body": "lesion " * rng.randint(43, 857), "source_url": f"https://ref.test/a/{i}"}
        for i in range(count)
    ]))


def test_decode_documents(benchmark):
    raws = corpus_like_documents(N_DOCUMENTS)

    def decode_all():
        return [decode(Document, raw, "document", CorruptionError, unknown="ignore")
                for raw in raws]

    docs = benchmark.pedantic(decode_all, rounds=7, warmup_rounds=1)
    assert len(docs) == N_DOCUMENTS


def test_load_run_config(benchmark):
    cfg = benchmark(load_run_config, DATA / "configs" / "golden_radar.json")
    assert cfg.kb.chunk_chars == 1000


REPORT_REPLY = (
    "Weighing the evidence, my ranking is:\n```json\n"
    + json.dumps({
        "primary": "Glioblastoma, IDH-wildtype",
        "differentials": ["Primary CNS lymphoma", "Metastasis", "Abscess", "Tumefactive MS"],
        "confidences": [0.62, 0.15, 0.1, 0.08, 0.05],
    }, indent=2)
    + "\n```\nThe ring enhancement and necrosis favour the primary."
)


def test_parse_structured_report(benchmark):
    report = benchmark(parse_structured, REPORT_REPLY, parse_report)
    assert report.primary == "Glioblastoma, IDH-wildtype"


def test_canonical_fold(benchmark):
    assert benchmark(canonical_fold, "Glioblastoma,  IDH-wildtype (WHO grade 4)") == (
        "glioblastoma idh-wildtype who grade 4")


def test_segment_10k_body(benchmark):
    doc = Document("d1", "glioma", "article", "Glioma", ("lesion " * 1429)[:10_000],
                   "https://ref.test/a/d1")
    chunks = benchmark(segment, doc, 1000, 200)
    assert len(chunks) == 13  # windows start every 800 characters, the last at 9600


def word_like_text(rng: random.Random, chars: int) -> str:
    """Words of 2-9 letters from a 600-word vocabulary, cut to ``chars`` characters."""
    vocabulary = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(2, 9)))
                  for _ in range(600)]
    return " ".join(rng.choices(vocabulary, k=chars // 3))[:chars]


def test_hashing_embed(benchmark):
    vector = benchmark(HashingEmbedder(384).embed, word_like_text(random.Random(0), 1000))
    assert vector.shape == (384,)


def test_embed_case(benchmark):
    rng = random.Random(1)
    texts = ([word_like_text(rng, 1000) for _ in range(41)]
             + [word_like_text(rng, 80) for _ in range(5)])
    embedder = HashingEmbedder(384)
    for text in texts:  # warm the memo
        embedder.embed(text)
    vectors = benchmark(lambda: [embedder.embed(text) for text in texts])
    assert len(vectors) == 46


def test_embed_cjk_cold(benchmark):
    rng = random.Random(2)
    texts = ["".join(chr(rng.randint(0x4E00, 0x9FFF)) for _ in range(1000)) for _ in range(200)]

    def embed_all(embedder):
        return [embedder.embed(text) for text in texts]

    vectors = benchmark.pedantic(embed_all, setup=lambda: ((HashingEmbedder(384),), {}),
                                 rounds=5, warmup_rounds=1)
    assert len(vectors) == 200


def test_ingest(benchmark):
    rng = random.Random(0)
    docs = [Document(f"articles:term-{i}", "term", "article" if i % 2 else "case", f"Term {i}",
                     word_like_text(rng, rng.randint(300, 6000)), f"https://ref.test/a/{i}")
            for i in range(10)]
    embedder = HashingEmbedder(384)

    def fresh_store():
        return (KnowledgeBase(dim=384),), {}

    chunks = benchmark.pedantic(lambda kb: kb.ingest("term", docs, embedder),
                                setup=fresh_store, rounds=7, warmup_rounds=1)
    assert chunks == sum(len(segment(doc, 1000, 200)) for doc in docs)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("corpus")
    for raw in corpus_like_documents(N_CORPUS_FILES):
        name = raw["doc_id"].replace(":", "-") + ".json"
        (directory / name).write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
    return directory


def test_corpus_pass(benchmark, corpus):
    def read_corpus():
        digest = hashlib.sha256()
        return FixtureSource(corpus, digest=digest), digest.hexdigest()

    source, _ = benchmark.pedantic(read_corpus, rounds=7, warmup_rounds=1)
    assert len(source.fetch("term 7")) == sum(i % 500 == 7 for i in range(N_CORPUS_FILES))


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> tuple[KnowledgeBase, Path]:
    """A saved store of STORE_ROWS rows over corpus-like documents."""
    kb = KnowledgeBase(dim=384)
    rng = np.random.default_rng(0)
    for raw in corpus_like_documents(N_DOCUMENTS):
        doc = decode(Document, raw, "document", CorruptionError)
        chunks = segment(doc, 1000, 200)
        rows = rng.normal(size=(len(chunks), 384))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        kb.doc_store[doc.doc_id] = doc
        kb.index.insert([EmbeddedChunk(chunk, row.astype(np.float32))
                         for chunk, row in zip(chunks, rows)], doc.keyword)
        if kb.index.count >= STORE_ROWS:
            break
    directory = tmp_path_factory.mktemp("store")
    kb.save(directory)
    return kb, directory


def test_load_store(benchmark, store):
    kb, directory = store
    loaded = benchmark.pedantic(KnowledgeBase.load, args=(directory,), rounds=7, warmup_rounds=1)
    assert loaded.index.count == kb.index.count >= STORE_ROWS


def test_corpus_pass_beside_store(benchmark, corpus, store):
    stored = KnowledgeBase.load(store[1]).doc_store  # shares the first documents of the corpus

    def read_corpus():
        digest = hashlib.sha256()
        return FixtureSource(corpus, digest=digest, stored=stored), digest.hexdigest()

    source, _ = benchmark.pedantic(read_corpus, rounds=7, warmup_rounds=1)
    served = source.fetch("term 7")
    assert len(served) == sum(i % 500 == 7 for i in range(N_CORPUS_FILES))
    assert any(doc is stored.get(doc.doc_id) for doc in served)


def test_save_clean_store(benchmark, store):
    kb, directory = store
    benchmark.pedantic(kb.save, args=(directory,), rounds=7, warmup_rounds=1)


def test_save_changed_store(benchmark, store):
    kb, directory = store
    misses = iter(range(1_000))

    def one_miss():  # a keyword with no documents: a fetch-log entry to persist
        kb.ingest(f"absent term {next(misses)}", [], embedder=None)
        return (directory,), {}

    benchmark.pedantic(kb.save, setup=one_miss, rounds=7, warmup_rounds=1)


def test_save_after_ingest(benchmark, store):
    kb, directory = store
    rng = random.Random(3)
    embedder = HashingEmbedder(384)
    keywords = iter(range(1_000))

    def one_keyword():  # 10 documents, each sorting between two stored ones
        n = next(keywords)
        docs = [Document(f"articles:term-{rng.randrange(N_DOCUMENTS)}-new-{n}", f"new {n}",
                         "article", f"New {n}", word_like_text(rng, rng.randint(300, 6000)),
                         f"https://ref.test/new/{n}/{i}")
                for i in range(10)]
        kb.ingest(f"new {n}", docs, embedder)
        return (directory,), {}

    benchmark.pedantic(kb.save, setup=one_keyword, rounds=7, warmup_rounds=1)

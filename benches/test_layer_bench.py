"""Layer benchmarks for the per-record and per-text work of a run.

Run from the repository root (Tier-1's `testpaths` does not collect this
directory):

    PYTHONPATH=src python -m pytest benches/test_layer_bench.py -q --benchmark-json=bench.json

- `decode` of 8,000 corpus-like documents, as a store load or a fixture
  corpus read does them;
- `load_run_config` on the golden config;
- `parse_structured` on a report reply wrapped in prose and a code fence;
- `canonical_fold` on one label;
- `segment` of a 10,000-character body into 1000/200-character windows.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

from radar.agents import parse_report, parse_structured
from radar.chunking import Document, segment
from radar.domain import canonical_fold, decode
from radar.errors import CorruptionError
from radar.runner import load_run_config

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
N_DOCUMENTS = 8_000


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
